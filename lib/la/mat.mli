(** Dense matrices stored row-major as [float array array].

    Used for small/medium problems (n up to a few thousand): building dense
    Laplacians, the [Mat.t] entry points of the Householder/QL eigensolver
    (which itself runs on one flat array, see {!Tridiag}), and cross-checks
    of the sparse code.  Rows are independent arrays, so [m.(i).(j)] addresses row
    [i], column [j]. *)

type t = float array array

val create : int -> int -> t
(** [create rows cols] is the zero matrix. *)

val identity : int -> t

val init : int -> int -> (int -> int -> float) -> t

val dims : t -> int * int
(** [(rows, cols)]; rows are validated to have uniform length. *)

val copy : t -> t

val transpose : t -> t

val mul : t -> t -> t
(** Matrix product; inner dimensions must agree. *)

val matvec : t -> float array -> float array

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t

val is_symmetric : ?tol:float -> t -> bool

val symmetrize : t -> t
(** [(A + Aᵀ)/2]. *)

val trace : t -> float

val frobenius_norm : t -> float

val max_abs : t -> float

val approx_equal : ?tol:float -> t -> t -> bool

val pp : Format.formatter -> t -> unit
