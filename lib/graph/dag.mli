(** Directed computation graphs.

    A computation graph has one vertex per operation (inputs and outputs
    included); an edge [u -> v] means [v] consumes the value produced by
    [u] (Section 3 of the paper).  Graphs are built through a mutable
    {!Builder} and frozen into an immutable adjacency-array representation
    ([t]) that every analysis in this project consumes.

    Vertices are dense integers [0 .. n-1] in creation order; that creation
    order is, for every generator in {!module:Graphio_workloads}, a natural
    topological order, which the pebble-game simulator exploits. *)

type t

module Builder : sig
  type dag := t
  type t

  val create : ?capacity_hint:int -> unit -> t

  val add_vertex : ?label:string -> t -> int
  (** Returns the new vertex id ([0]-based, consecutive). *)

  val add_edge : t -> int -> int -> unit
  (** [add_edge b u v] records the dependency [u -> v].  Self-loops are
      rejected; duplicate edges are rejected (a vertex is consumed at most
      once per operand slot in our model — callers wanting multiplicity
      must model distinct operand vertices).  Raises [Invalid_argument] on
      unknown vertex ids. *)

  val n_vertices : t -> int

  val build : ?verify_acyclic:bool -> t -> dag
  (** Freeze the builder.  With [~verify_acyclic:true] (the default) a
      Kahn pass checks acyclicity and raises [Invalid_argument "Dag.build:
      graph has a cycle"] on failure. *)
end

val n_vertices : t -> int

val n_edges : t -> int

val succ : t -> int -> int array
(** Out-neighbours (fresh array). *)

val pred : t -> int -> int array
(** In-neighbours (fresh array). *)

val iter_succ : t -> int -> (int -> unit) -> unit

val iter_pred : t -> int -> (int -> unit) -> unit

val iter_edges : t -> (int -> int -> unit) -> unit
(** Iterate [(u, v)] over all directed edges. *)

val fold_edges : t -> init:'a -> f:('a -> int -> int -> 'a) -> 'a

val out_degree : t -> int -> int

val in_degree : t -> int -> int

val degree : t -> int -> int
(** Total (undirected) degree. *)

val max_out_degree : t -> int

val max_in_degree : t -> int

val max_degree : t -> int

val label : t -> int -> string option

val sources : t -> int array
(** Vertices with no predecessors (the computation's inputs), ascending. *)

val sinks : t -> int array
(** Vertices with no successors (the outputs), ascending. *)

val has_edge : t -> int -> int -> bool

val of_edges : ?labels:string array -> n:int -> (int * int) list -> t
(** Convenience constructor from an explicit edge list over vertices
    [0..n-1]. *)

val edges : t -> (int * int) list
(** All edges, ordered by source then target. *)

val fingerprint : t -> int64
(** FNV-1a hash of [(n, m, edges)] over the canonical (sorted) adjacency
    representation: structurally equal graphs hash identically regardless
    of construction order.  Collision-resistant enough to key caches
    (e.g. {!Graphio_core.Solver.bound_batch}'s spectrum cache), not
    cryptographic. *)

val reverse : t -> t
(** The graph with every edge flipped (labels preserved). *)

val induced_subgraph : t -> int array -> t * int array
(** [induced_subgraph g vs] is the subgraph on the (distinct) vertices
    [vs], together with the mapping from new ids to the original ids.
    Edges internal to [vs] are kept. *)

val of_sorted_csr :
  ?labels:string option array ->
  ?verify_acyclic:bool ->
  succ_ptr:int array ->
  succ_idx:int array ->
  unit ->
  t
(** Freeze a graph directly from canonical CSR adjacency: [succ_ptr] has
    [n + 1] monotone entries running from [0] to [m], and each bucket
    [succ_idx.(succ_ptr.(v) .. succ_ptr.(v+1) - 1)] is strictly ascending
    (strictness rules out duplicate edges).  Validates range, self-loops
    and bucket order — and acyclicity unless [~verify_acyclic:false] — in
    [O(n + m)] with no hashing, so it scales to the out-of-core loader's
    million-vertex graphs.  The graph takes ownership of [succ_ptr],
    [succ_idx] and [labels] instead of copying them: pass fresh arrays
    and do not mutate them afterwards.  Raises [Invalid_argument] on any
    violation. *)

val disjoint_union : t -> t -> t
(** [disjoint_union a b] — both graphs side by side, [b]'s vertices
    shifted up by [n_vertices a].  Labels are preserved.  [O(n + m)]
    directly on the adjacency arrays. *)

val replicate : t -> copies:int -> t
(** [replicate g ~copies] — [copies] disjoint copies of [g] (copy [c]
    occupies vertices [c*n .. (c+1)*n - 1]).  Raises [Invalid_argument]
    when [copies < 1]. *)

val pp : Format.formatter -> t -> unit
