(** End-to-end spectral lower bounds on computation graphs (§6.1's solver).

    Pipeline: build the Laplacian selected by [method_], obtain its [h]
    smallest eigenvalues through the size-adaptive backend
    ({!Graphio_la.Eigen}: dense Householder/QL below the threshold,
    Chebyshev-filtered block subspace iteration above), rescale for
    Theorem 5 if applicable, and maximize over the segment count [k]
    ({!Spectral_bound.compute}).

    Defaults follow the paper: [h = 100] eigenvalues, [k ∈ {2..h}],
    sequential ([p = 1]). *)

type method_ = Method.t =
  | Normalized  (** Theorem 4: eigenvalues of the out-degree normalized [L̃] *)
  | Standard  (** Theorem 5: eigenvalues of [L], scaled by [1/max_out_degree] *)
  | Adjacency
      (** Spectral variant: eigenvalues of the shifted adjacency matrix
          [ΔI − A], turned into the Weyl surrogate
          [max(0, δ − Δ + ν_i) ≤ λ_i(L)] and scaled as Theorem 5 —
          always sound, ties [Standard] on regular supports *)
  | Signless
      (** Spectral variant: eigenvalues of [2ΔI − (D + A)] (shifted
          signless Laplacian), surrogate [max(0, 2δ − 2Δ + ν_i)] *)
  | Visit
      (** DAG-visit bound ({!Visit_bound}): counted boundary minima over
          chains of critical-path anchors; combinatorial (min-cut), no
          eigensolve, not part of the spectrum cache *)
  | Portfolio
      (** meta-method: run a member set (default {!Method.default_portfolio}),
          report the max, record per-member values in [outcome.methods] and
          the winner in [outcome.winner] *)

type tier =
  | Closed_form of Graphio_recognize.Recognize.family
      (** the spectrum came from the exact {!Graphio_spectra} multiset of a
          recognized family — no eigensolve, zero matvecs *)
  | Numeric  (** the spectrum came from a numeric eigensolve (or the cache
                 of one) *)

val tier_name : tier -> string
(** ["closed-form"] or ["numeric"] — the string used in batch JSON lines,
    server replies and [solver.bound] events. *)

type component_info = {
  comp_n : int;  (** vertices in this weakly-connected component *)
  comp_edges : int;
  comp_tier : tier;  (** dispatch tier that answered for this component *)
  comp_backend : Graphio_la.Eigen.backend;
  comp_cache_hit : bool;
      (** this component's spectrum came from the cache or from another
          structurally equal component in the same evaluation *)
  comp_warm_start : bool;
}
(** Per-component provenance of a decomposed evaluation, in
    {!Graphio_graph.Component.split} order (ids assigned by smallest
    member vertex). *)

type method_value = {
  mv_method : method_;
  mv_bound : float;
  mv_best_k : int;  (** [0] for [Visit] (no [k]-maximization) *)
  mv_best_raw : float;
  mv_tier : tier;
  mv_cache_hit : bool;
      (** this member's spectra all came from cache or in-flight dedup;
          always [false] for [Visit] (recomputed by design: its value
          depends on [M] and lives outside the spectrum cache) *)
  mv_warm_start : bool;  (** this member's eigensolve was Ritz-seeded *)
  mv_wall_s : float;
}
(** One portfolio member's value and provenance. *)

type outcome = {
  result : Spectral_bound.t;
  method_ : method_;
  backend : Graphio_la.Eigen.backend;
      (** which eigensolver produced the spectrum; reported as [Dense] (and
          meaningless) when [tier] is [Closed_form] *)
  eigenvalues : float array;  (** the (scaled) eigenvalues fed to the maximization *)
  solve_stats : Graphio_la.Eigen.stats option;
      (** iterative-eigensolver work summary (matvecs, sweeps, locked and
          padded counts); [None] when the dense path ran *)
  tier : tier;  (** which dispatch tier answered *)
  warm_start : bool;
      (** this outcome's eigensolve was seeded from cached Ritz vectors of
          a related solve (same graph/method/params, different [h]) — the
          provenance bit for the flag-gated bitwise-determinism
          relaxation; always [false] on cache hits, closed-form answers
          and cold solves *)
  components : component_info array;
      (** non-empty iff the evaluation decomposed: the graph had two or
          more weakly-connected components (and decomposition was not
          turned off), each solved on its own and merged.  [[||]] for
          connected graphs, whatever their size. *)
  methods : method_value array;
      (** per-member values of a [Portfolio] evaluation, in canonical
          member order; [[||]] for every other method *)
  winner : method_ option;
      (** the member whose value [result] (and [backend], [tier], ...)
          were taken from — the max, earliest member winning ties;
          [Some _] iff [method_] is [Portfolio] *)
}

val bound :
  ?method_:method_ ->
  ?portfolio:method_ list ->
  ?h:int ->
  ?p:int ->
  ?dense_threshold:int ->
  ?pool:Graphio_par.Pool.t ->
  ?closed_form:bool ->
  ?decompose:bool ->
  Graphio_graph.Dag.t ->
  m:int ->
  outcome
(** [bound g ~m] — the spectral lower bound on non-trivial I/O.  Default
    method is [Normalized] (the paper's main Theorem 4 instrument).
    Graphs with no edges yield a 0 bound.

    With [decompose] (default [true]), a graph with two or more
    weakly-connected components is solved component-wise: the Laplacian of
    a disjoint union is block-diagonal, so each component's spectrum is
    computed (and recognized, and deduplicated against structurally equal
    siblings) independently, rescaled to the union's Theorem-5
    normalization where applicable, merged, and fed to a single
    k-maximization over the union's [n].  The result equals the
    whole-graph bound to eigensolver tolerance (exactly for closed-form
    components), [outcome.components] reports per-component provenance,
    and the [core.solver.decompositions] counter increments.  Connected
    graphs take the identical pipeline as before, bit for bit.

    With [closed_form] (default [true]), graphs recognized by
    {!Graphio_recognize.Recognize} answer from the exact
    {!Graphio_spectra} multiset instead of a numeric eigensolve —
    [outcome.tier] reports which tier ran, the
    [core.solver.closed_form_hits] counter increments, and a
    [solver.closed_form] event is emitted.  For [Normalized] the closed
    form additionally requires a uniform out-degree over non-sink vertices
    (then [L~ = L/d] exactly); other recognized graphs fall through to the
    numeric tier.  Pass [closed_form:false] (the CLI's
    [--no-closed-form]) to force the numeric pipeline.

    The whole pipeline runs inside nested {!Graphio_obs.Span} spans
    ([solver.bound] over [solver.recognize], [solver.laplacian],
    [solver.eigensolve], [solver.maximize] and, for [Visit],
    [solver.visit_profile]) and is timed into the
    [core.solver.bound_seconds] histogram.  [pool] parallelizes the
    sparse eigensolve's matvecs across domains; the result is
    bitwise-identical with or without it (see
    {!Graphio_la.Csr.matvec_into}).

    With [method_:Portfolio], every member (the [portfolio] list when
    given — deduplicated into canonical {!Method.concrete} order — else
    {!Method.default_portfolio}) is evaluated on the same decomposed
    parts; spectral members share eigensolves through the flat dedup
    table, the [Visit] member computes its M-independent counted-cut
    profile once per distinct component.  [result] (and [backend],
    [tier], [eigenvalues], ...) come from the winning member — the
    maximal bound, earliest member in canonical order on ties —
    [outcome.winner] names it and [outcome.methods] records every
    member's value.  Decomposed [Visit] sums per-component bounds
    (sound: a schedule of the union restricts to a schedule of each
    component), so the decomposed visit value can exceed the
    undecomposed one; spectral members merge spectra exactly as before.
    Raises [Invalid_argument] if [portfolio] is empty or contains
    [Portfolio], or if [p < 1] (whatever the method). *)

val bound_parts :
  ?method_:method_ ->
  ?portfolio:method_ list ->
  ?h:int ->
  ?p:int ->
  ?closed_form:bool ->
  Graphio_graph.Dag.t array ->
  m:int ->
  outcome
(** [bound_parts parts ~m] — the bound of the disjoint union of [parts]
    without ever materializing the union: the out-of-core entry point,
    fed by {!Graphio_store}'s per-component extraction so a multi-million
    vertex on-disk graph is solved one component at a time.  Each part is
    re-split into weakly-connected components first (a caller-supplied
    part may itself be disconnected), then evaluated exactly as the
    decomposed path of {!bound}: numerically equal to
    [bound (disjoint union) ~m] to eigensolver tolerance, with
    [outcome.components] in part order.  Empty parts contribute nothing.

    Like {!bound}, it never consults a spectrum cache: every distinct
    component spectrum is solved once (in-flight dedup of structurally
    equal components still applies). *)

val spectrum :
  ?method_:method_ ->
  ?h:int ->
  Graphio_graph.Dag.t ->
  float array * Graphio_la.Eigen.backend
(** The (clamped, Theorem-5-scaled when [Standard], Weyl-surrogate
    transformed when [Adjacency]/[Signless]) smallest eigenvalues used by
    {!bound} — exposed so sweeps over many [M] (or [p]) values can pay
    for the eigensolve once and re-run only the cheap [k]-maximization
    via {!Spectral_bound.compute}.  Raises [Invalid_argument] for
    [Visit] and [Portfolio], which have no spectrum. *)

val bound_of_spectrum :
  ?h:int ->
  ?p:int ->
  spectrum:Graphio_spectra.Multiset.t ->
  scale:float ->
  n:int ->
  m:int ->
  unit ->
  Spectral_bound.t
(** Closed-form entry point: bound from an exact spectrum multiset (e.g.
    {!Graphio_spectra.Butterfly_spectra.spectrum}) whose values are first
    multiplied by [scale] (pass [1 / max_out_degree] for Theorem 5, [1.]
    if the multiset already describes [L̃]).  Works at sizes far beyond
    what any numeric eigensolver reaches; the [k]-search is capped at [h]
    (default 100, the paper's choice) — use {!bound_of_spectrum_all_k}
    when the maximizing [k] may be huge. *)

val bound_of_spectrum_all_k :
  ?p:int ->
  spectrum:Graphio_spectra.Multiset.t ->
  scale:float ->
  n:int ->
  m:int ->
  unit ->
  Spectral_bound.t
(** Like {!bound_of_spectrum} but maximizes over {e all} [k <= n] instead
    of capping at [h]: within a run of equal eigenvalues the objective
    [⌊n/(kp)⌋ Σλ − 2kM] is explicitly optimizable (the closed-form
    hypercube/butterfly analyses of Section 5 pick [k] in the thousands or
    millions, far past any sensible [h]).

    When [n/p <= 1_000_000] the maximization is {e exact}: the objective
    is linear in [k] on every floor segment [⌊n/(kp)⌋ = q], so evaluating
    the [O(√(n/p))] segment endpoints inside each run provably hits the
    discrete maximum.  Beyond that size (closed-form giant spectra) the
    search falls back to run boundaries plus the per-run stationary point
    of the continuous relaxation, in [O(distinct values)].  Every
    evaluated [k] uses the exact objective, so the result is always a
    valid lower bound. *)

(** {1 Batch evaluation}

    Many bound evaluations — an M-sweep over one graph, a benchmark over a
    graph family — share eigensolves.  {!bound_batch} deduplicates them
    in-batch, consults the shared two-tier spectrum cache
    ({!Graphio_cache.Spectrum}) across batches and processes, and runs
    distinct eigensolves concurrently on a {!Graphio_par.Pool}. *)

type batch_job = private {
  dag : Graphio_graph.Dag.t;
  m : int;  (** fast-memory size *)
  p : int option;  (** processors (Theorem 6); [None] means sequential *)
  method_ : method_;
}

val job :
  ?method_:method_ -> ?p:int -> Graphio_graph.Dag.t -> m:int -> batch_job
(** Construct one batch entry (defaults mirror {!bound}: [Normalized],
    sequential). *)

type batch_result = {
  job : batch_job;
  outcome : outcome;
  cache_hit : bool;
      (** this job did not pay an eigensolve: its spectrum came from an
          earlier job in the same batch (then [outcome.eigenvalues] is the
          {e same physical array} as the representative's) or from the
          shared spectrum cache *)
  wall_s : float;
      (** per-job latency: k-maximization time, plus the eigensolve time
          for the job that actually computed the spectrum *)
}

val bound_batch :
  ?cache:Graphio_cache.Spectrum.t ->
  ?pool:Graphio_par.Pool.t ->
  ?portfolio:method_ list ->
  ?h:int ->
  ?dense_threshold:int ->
  ?warm_start:bool ->
  ?closed_form:bool ->
  batch_job array ->
  batch_result array
(** [bound_batch jobs] evaluates every job and returns results in input
    order.  Jobs whose [(graph, method_)] coincide — keyed by
    {!Graphio_graph.Dag.fingerprint}, so structurally equal graphs built
    independently also match — share one eigensolve; with [pool], distinct
    eigensolves run concurrently across domains (a single distinct
    spectrum instead parallelizes its matvecs).

    Each distinct spectrum additionally flows through [cache]: hits skip
    the eigensolve entirely, misses populate it for later batches (and,
    with a disk tier, later processes — a CLI batch run warms the cache a
    server answers from).  [cache] defaults to
    {!Graphio_cache.Spectrum.ambient} — caching off unless
    [GRAPHIO_CACHE_DIR] is set; pass {!Graphio_cache.Spectrum.disabled}
    to force a cold evaluation regardless of environment.

    Output is deterministic: bounds and eigenvalues are identical
    regardless of job order, pool presence, pool size, or cache warmth
    (fixed eigensolver seed, bitwise-reproducible parallel matvec,
    bit-exact cache codec).  Only [cache_hit] / [wall_s] attribution moves with ordering
    and warmth (the first job of each spectrum class pays any solve).

    With [closed_form] (default [true]) recognized graphs answer from the
    closed-form tier exactly as in {!bound}; closed-form spectra are cached
    under their own keys (uppercase method tag, canonical parameters), so
    a [closed_form:false] run never reads them back.

    Disconnected jobs are always solved component-wise as in {!bound};
    their components join the in-batch dedup table alongside whole
    connected jobs, and per-job provenance lands in
    [outcome.components].

    With [warm_start] (default [false] here; the CLI turns it on for
    [batch]/[serve]), a cache miss taking the sparse path seeds its
    initial block from locked Ritz vectors cached under the same
    (fingerprint, method, params) at a {e different} [h] — counted in
    [core.solver.warm_start_hits] and reported per result in
    [outcome.warm_start].  Warm-started solves reach the same bounds to
    solver tolerance but are {e not} bitwise-identical to cold ones; keep
    the default off where the bitwise contract matters.

    Observability: runs inside a [solver.bound_batch] span and maintains
    [core.solver.batch_jobs], [core.solver.batch_cache_hits],
    [core.solver.batch_cache_misses] and the per-job latency histogram
    [core.solver.batch_job_seconds]; the cache maintains its own
    [cache.*] metrics. *)

val bound_cached :
  ?cache:Graphio_cache.Spectrum.t ->
  ?pool:Graphio_par.Pool.t ->
  ?portfolio:method_ list ->
  ?h:int ->
  ?dense_threshold:int ->
  ?warm_start:bool ->
  ?on_iteration:Graphio_la.Convergence.callback ->
  ?closed_form:bool ->
  batch_job ->
  batch_result
(** One job through the same cached pipeline as {!bound_batch} — the
    server's per-request entry point.  [cache] defaults to
    {!Graphio_cache.Spectrum.ambient}; [on_iteration] fires per eigensolver
    sweep on cache misses taking the sparse path (the hook request
    deadlines cancel long solves through).  Runs inside a
    [solver.bound_cached] span; the [solver.bound] event carries a
    ["tier"] field naming the dispatch tier that answered. *)
