(** Unified driver for "give me the [h] smallest eigenvalues of this
    symmetric matrix", selecting the numerical backend by problem size.

    Policy (see DESIGN.md §5):
    - small/medium dense problems go through Householder + implicit QL and
      return the exact full spectrum truncated to [h] (exact multiplicity
      handling);
    - larger problems go through Chebyshev-filtered block subspace
      iteration ({!Filtered}) on the CSR representation — the block
      approach is required because graph-Laplacian spectra here carry
      heavy multiplicities ({!Lanczos} remains available as a reference
      single-vector iterative solver).

    The crossover is overridable for testing both paths on the same input.

    Observability: both paths run inside {!Graphio_obs.Span} spans
    ([eigen.dense] / [eigen.filtered]) and bump the
    [la.eigen.dense_solves] / [la.eigen.sparse_solves] counters; the
    iterative path additionally reports its work in {!type:stats} rather
    than dropping it. *)

type backend = Dense | Sparse_filtered

type stats = {
  matvecs : int;  (** operator applications spent by the iterative solver *)
  iterations : int;  (** outer filter sweeps / restart cycles *)
  locked : int;  (** eigenvalues that genuinely converged *)
  padded : int;
      (** trailing entries replaced by the last converged value when the
          solver stalled on a flat multiplicity cluster (see
          {!Filtered.result}) *)
}

type spectrum = {
  values : float array;  (** ascending, [min h n] entries *)
  backend : backend;  (** which path computed them *)
  exact : bool;  (** dense full decomposition (true) vs iterative (false) *)
  stats : stats option;
      (** iterative-solver work summary; [None] on the dense path, which
          has no iteration structure to report *)
  vectors : float array array option;
      (** Ritz vectors matching [values], materialized only when
          [want_vectors] was set on the sparse path ([None] otherwise and
          always on the dense path) — the warm-start donor block *)
}

val default_dense_threshold : int
(** Largest [n] routed to the dense path by default (1024). *)

val smallest :
  ?h:int ->
  ?dense_threshold:int ->
  ?tol:float ->
  ?seed:int ->
  ?init:float array array ->
  ?want_vectors:bool ->
  ?on_iteration:Convergence.callback ->
  ?pool:Graphio_par.Pool.t ->
  Csr.t ->
  spectrum
(** [smallest ?h m] returns the [h] (default 100, the paper's §6.1 choice)
    smallest eigenvalues of symmetric [m], clamping tiny negative numerical
    noise up to [0.] for positive semi-definite inputs is left to callers —
    values are reported as computed.  [on_iteration] receives a
    {!Convergence.progress} snapshot per sweep when the sparse path is
    taken (the dense path never calls it).  [pool] parallelizes the sparse
    path's matvecs across domains — bitwise-identical values either way;
    the dense path ignores it.  [init] (warm-start donor block) and
    [want_vectors] are forwarded to {!Filtered.smallest_csr} on the sparse
    path and ignored on the dense one.  The dense path copies the lower
    triangle of [m] straight into the flat array the Householder reduction
    runs on ({!Tql.dense_eigenvalues}).  Raises [Invalid_argument] if [m]
    is not square, or if it takes the dense path and is not symmetric to
    within [1e-8] ({!Csr.is_symmetric}). *)

val smallest_dense : ?h:int -> Mat.t -> spectrum
(** Force the dense path on a dense symmetric matrix. *)
