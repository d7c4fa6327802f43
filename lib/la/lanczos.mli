(** Lanczos iteration with full reorthogonalization, locking and restarts,
    for the smallest eigenvalues of a large symmetric (sparse) operator.

    This is the sparse eigenpath of the spectral I/O bound (Section 6.1 of
    the paper computes the first [h = 100] Laplacian eigenvalues).  Plain
    Lanczos only discovers one Ritz copy per distinct eigenvalue, but graph
    Laplacians in this project have heavily multiple eigenvalues (hypercube:
    binomial multiplicities; butterfly: Theorem 7), so the solver locks each
    converged eigenvector and restarts with a random vector orthogonal to
    everything locked — the restarted Krylov space then converges to the
    next copy of the eigenspace.  Full (two-pass) reorthogonalization keeps
    the basis numerically orthogonal so no spurious ghost eigenvalues
    appear. *)

type stats = {
  matvecs : int;  (** total operator applications *)
  restarts : int;  (** number of Lanczos restarts performed *)
  locked : int;  (** eigenpairs locked as converged *)
}

type result = {
  values : float array;
      (** ascending; length [min h n] when [converged], possibly shorter
          otherwise *)
  vectors : float array array option;
      (** locked eigenvectors aligned with [values] when requested *)
  stats : stats;
  converged : bool;
}

val smallest :
  ?tol:float ->
  ?max_restarts:int ->
  ?krylov_dim:int ->
  ?seed:int ->
  ?want_vectors:bool ->
  ?on_iteration:Convergence.callback ->
  matvec:(float array -> float array -> unit) ->
  n:int ->
  h:int ->
  unit ->
  result
(** [smallest ~matvec ~n ~h ()] returns (approximately) the [h] smallest
    eigenvalues of the symmetric operator [matvec] on R^n.

    - [matvec x y] must write [A x] into [y];
    - [tol] is the residual tolerance relative to a norm estimate of [A]
      (default [1e-7]);
    - [krylov_dim] caps the Krylov dimension per restart (default
      [min n (max 60 (2h + 20))]);
    - [max_restarts] defaults to [200];
    - [seed] makes the starting vectors deterministic (default [0x5eed]);
    - [on_iteration] is invoked once per restart cycle with a
      {!Convergence.progress} snapshot (cycle index, cumulative matvecs,
      locked pairs, residual of the first pair that failed to lock).

    For tiny problems ([n <= 3]) or when [h >= n] the routine still works:
    it simply locks all [n] eigenpairs.  Raises [Invalid_argument] for
    non-positive [n] or [h]. *)

val smallest_csr :
  ?tol:float ->
  ?max_restarts:int ->
  ?krylov_dim:int ->
  ?seed:int ->
  ?want_vectors:bool ->
  ?on_iteration:Convergence.callback ->
  ?pool:Graphio_par.Pool.t ->
  Csr.t ->
  h:int ->
  result
(** Convenience wrapper over a symmetric CSR matrix; the tolerance is scaled
    by the Gershgorin norm bound of the matrix.  [pool] parallelizes the
    matvecs (bitwise-identical results, see {!Csr.matvec_into}). *)
