(** Compressed sparse row (CSR) matrices.

    The storage is the classic three-array layout: [row_ptr] of length
    [rows+1], and parallel [col_idx]/[values] arrays of length [nnz].
    Symmetric matrices (all graph Laplacians in this project) store both
    triangles so that the matvec is a single forward pass.

    Construction goes through a coordinate-triplet builder that sorts and
    sums duplicates, so callers can emit [(i, j, v)] contributions in any
    order — exactly what the Laplacian assembly does. *)

type t = private {
  rows : int;
  cols : int;
  row_ptr : int array;
  col_idx : int array;
  values : float array;
}

val of_triplets : rows:int -> cols:int -> (int * int * float) list -> t
(** Build from coordinate triplets; duplicates are summed; entries that sum
    to exactly [0.] are kept (callers may [prune] if desired).  Raises
    [Invalid_argument] on out-of-range indices. *)

val of_triplets_array : rows:int -> cols:int -> (int * int * float) array -> t

val of_dense : Mat.t -> t
(** Sparsify a dense matrix, dropping exact zeros. *)

val to_dense : t -> Mat.t

val nnz : t -> int

val dims : t -> int * int

val get : t -> int -> int -> float
(** [get m i j] — binary search within row [i]; absent entries are [0.]. *)

val matvec : ?pool:Graphio_par.Pool.t -> t -> float array -> float array

val matvec_into : ?pool:Graphio_par.Pool.t -> t -> float array -> float array -> unit
(** [matvec_into m x y] writes [m x] into pre-allocated [y].  With [pool]
    the rows are computed in parallel, row-chunked across the pool's
    domains; each row keeps its sequential left-to-right accumulation
    order, so the result is bitwise identical to the pool-less path. *)

val scale : float -> t -> t

val transpose : t -> t

val is_symmetric : ?tol:float -> t -> bool

val prune : ?tol:float -> t -> t
(** Drop stored entries with [|v| <= tol] (default [0.], i.e. exact zeros). *)

val gershgorin_upper : t -> float
(** Upper bound on the spectral radius of a symmetric matrix:
    [max_i (|a_ii| + sum_{j<>i} |a_ij|)].  Used to scale Lanczos
    tolerances. *)

val row_iter : t -> int -> (int -> float -> unit) -> unit
(** [row_iter m i f] applies [f col value] over the stored entries of row
    [i]. *)

val pp : Format.formatter -> t -> unit

(** Unboxed Bigarray CSR kernel: float64 values, int32 row pointers and
    column indices, unchecked inner-loop accesses, sequential path
    cache-blocked in fixed-size row chunks.  Per-row summation order is
    identical to {!matvec}, so results are bitwise equal ({!matvec} stays
    as the reference the tests compare against). *)
module Ba : sig
  type mat

  val of_csr : t -> mat
  (** Raises [Invalid_argument] when the entry count or column count
      exceeds int32 indexing range, instead of silently wrapping. *)

  val dims : mat -> int * int
  val nnz : mat -> int

  val matvec_into : ?pool:Graphio_par.Pool.t -> mat -> float array -> float array -> unit
  (** Same contract as {!matvec_into}: bitwise identical across pool
      sizes and to the [float array] kernel. *)

  val matvec : ?pool:Graphio_par.Pool.t -> mat -> float array -> float array
end

val matvec_fn :
  ?pool:Graphio_par.Pool.t -> t -> (float array -> float array -> unit)
(** Specialise a matvec closure for [m] on the {!Ba} kernel, the one the
    eigensolvers run; the Bigarray conversion happens once, here, not per
    matvec. *)
