(** Chebyshev-filtered block subspace iteration for the smallest
    eigenvalues of a large symmetric PSD operator.

    The production sparse eigenpath (thick-restart {!Lanczos} is kept as a
    reference implementation).  Graph Laplacians in this project need many
    ([h = 100]) smallest eigenvalues {e with multiplicity} — hypercubes
    carry binomial multiplicities, butterflies the Theorem 7 families —
    which single-vector Krylov methods only reach one copy at a time.  A
    block of [h + guard] vectors iterated together captures whole
    eigenspace clusters at once:

    {v
    repeat:
      Rayleigh-Ritz on span(X)  ->  rotate X to Ritz vectors
      converged := prefix of Ritz pairs with small residual
      X <- T_d( (A - c I)/e ) X   (Chebyshev filter damping [cut, up])
      orthonormalize X
    v}

    where [up] is a Gershgorin upper bound on the spectrum, [cut] is the
    current first guard Ritz value, and [T_d] is the degree-[d] Chebyshev
    polynomial — uniformly small on [[cut, up]] and exponentially large
    below [cut], so every unwanted component is damped by a factor
    [~e^{-d sqrt(gap)}] per iteration across the whole block. *)

type result = {
  values : float array;  (** ascending, [min h n] entries *)
  vectors : float array array option;
  iterations : int;
  matvecs : int;
  converged : bool;  (** every reported value passed its residual check *)
  padded : int;
      (** number of trailing entries of [values] that did {e not} converge.
          When the solve stops short (stall or iteration cap) they are
          replaced by the last converged Ritz value; when nothing
          converged, [values] are the block's raw Ritz values and [padded]
          counts all of them.  These entries are {e uncertified}, not a
          lower bound: Ritz values are {e upper} bounds on the eigenvalues
          they approximate (Cauchy interlacing, [theta_i >= lambda_i]), so
          a padded or unconverged entry can sit above the true
          [lambda_i].  Padding is right (to solver tolerance) only when the
          unresolved region is a flat multiplicity cluster (the situation
          that causes it in the first place: giant clusters straddling the
          block boundary give the Chebyshev filter no gap to exploit).
          One-sided eigenvalue certificates are ROADMAP.md item 1. *)
}

val smallest :
  ?tol:float ->
  ?max_iterations:int ->
  ?seed:int ->
  ?want_vectors:bool ->
  ?init:float array array ->
  ?on_iteration:Convergence.callback ->
  matvec:(float array -> float array -> unit) ->
  upper_bound:float ->
  n:int ->
  h:int ->
  unit ->
  result
(** [smallest ~matvec ~upper_bound ~n ~h ()] returns the [h] smallest
    eigenvalues of the symmetric operator.

    - [matvec x y] writes [A x] into [y];
    - [upper_bound] must dominate the largest eigenvalue (Gershgorin for
      CSR matrices: {!Csr.gershgorin_upper});
    - [tol] is the residual threshold relative to [upper_bound]
      (default [1e-6]);
    - [max_iterations] defaults to 300;
    - [init] seeds the leading block columns (warm start): extra donor
      columns are truncated, missing ones padded with the usual random
      draws, then the whole block is re-orthonormalized.  A warm-started
      run converges to the same spectrum but takes a different FP path,
      so bitwise determinism holds only among runs with the same [init];
    - [on_iteration] is invoked once per filter sweep with a
      {!Convergence.progress} snapshot (sweep index, cumulative matvecs,
      converged Ritz prefix, first blocking residual).

    The block carries [max 16 (h/3)] guard vectors beyond [h].  The
    Chebyshev filter degree is retuned each sweep from the current
    Ritz-value spread and the observed residual-decay rate — clamped to
    [[4, 80]], deterministic for a fixed seed and operator, logged via
    [solver.filter_degree] debug events and the [la.eigen.filter_degree]
    gauge (docs/PERFORMANCE.md).

    Raises [Invalid_argument] on non-positive [n]/[h] or a non-finite
    [upper_bound]. *)

val smallest_csr :
  ?tol:float ->
  ?max_iterations:int ->
  ?seed:int ->
  ?want_vectors:bool ->
  ?init:float array array ->
  ?on_iteration:Convergence.callback ->
  ?pool:Graphio_par.Pool.t ->
  Csr.t ->
  h:int ->
  result
(** Wrapper over a symmetric CSR matrix (upper bound via Gershgorin), with
    matvecs on the Bigarray kernel ({!Csr.matvec_fn}).  [pool]
    parallelizes the matvecs row-chunked across domains without changing
    any result bitwise. *)
