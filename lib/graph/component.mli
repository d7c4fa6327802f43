(** Connected components of the undirected support of a graph.

    One pass finds them and one extracts them, both reading the graph's
    successor rows in place, so an in-memory {!Dag.t} and a binary
    store's mapped {!Csr32.t} split alike, into structurally equal parts.
    Used by the component decomposition of
    {!Graphio_core.Solver.bound}, the Erdős–Rényi analysis (§5.3 assumes
    the regime where the random graph is almost surely connected) and
    test invariants (the multiplicity of the Laplacian eigenvalue 0
    equals the number of components). *)

val components : Dag.t -> int array
(** [components g] labels every vertex with a component id in
    [0 .. count-1]; ids are assigned in order of the smallest vertex of
    each component.  Union-find over the successor rows, with no
    predecessor lookups. *)

val count : Dag.t -> int

val is_connected : Dag.t -> bool
(** True iff the undirected support is connected ([n = 0] counts as
    connected). *)

val split : Dag.t -> (Dag.t * int array) array
(** One entry per component, in {!components} order (smallest original
    vertex first): the extracted subgraph plus the mapping from its vertex
    ids back to the original ids (ascending — relabeling is monotone, so
    structurally equal components extract to structurally equal, equally
    fingerprinted subgraphs, labels carried along).  A connected graph
    comes back itself ([==]) with the identity map, and nothing is
    copied.  Empty array for the empty graph.  The decomposition
    {!Graphio_core.Solver.bound} dispatches per-component jobs over. *)

val split_csr : Csr32.t -> (Dag.t * int array) array
(** {!split} of the graph an int32 CSR holds (rows strictly ascending, as
    {!Csr32.check} accepts), read in place: the same parts, in the same
    order, with the same maps and labels, as [split (Csr32.to_dag c)],
    without materializing the whole graph.  Every part is a fresh graph,
    a connected input's one part included.  The binary store's
    out-of-core split. *)
