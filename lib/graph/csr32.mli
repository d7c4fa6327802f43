(** A graph as an int32 successor CSR plus its sparse labels — the layout
    the text reader ({!Edgelist.csr_of_file}) builds in bounded memory and
    the binary store writes and maps — with the one structural check both
    of them run over it. *)

type words = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  n : int;
  m : int;
  ptr : words;  (** [n + 1] row offsets into [idx] *)
  idx : words;  (** [m] successor ids, row by row *)
  labels : (int * string) array;  (** labeled vertices, ascending *)
}

val fits : n:int -> m:int -> bool
(** The int32 index guard: [n + 1] and [m] within [Int32.max_int]. *)

val create : int -> words
(** A zero-filled array of the given length. *)

(** The first defect {!check} finds, in the order it looks. *)
type defect =
  | Offsets  (** [ptr] does not run monotonically from [0] to [m] *)
  | Target of int * int
      (** edge [(v, w)] leaves [\[0, n)] or is a self-loop *)
  | Order of int * int
      (** row [v] holds [w] at or below the target before it: a repeated
          edge when the row is sorted *)
  | Cycle

val check : t -> defect option
(** Offsets, targets, strictly ascending rows, then acyclicity by Kahn
    over int32 scratch — [O(n + m)], no per-vertex boxing.  Labels are not
    examined. *)

val describe : defect -> string

val of_dag : Dag.t -> t

val to_dag : t -> Dag.t
(** The in-memory graph, assuming [check t = None] (acyclicity is not
    re-verified).  The [int array]s it widens the CSR into become the
    graph's own, uncopied. *)
