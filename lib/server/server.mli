(** [graphio serve] — a long-lived bound service.

    One process, one listening socket (Unix-domain by default, TCP
    optionally), newline-delimited JSON requests ({!Protocol}).  Request
    handling is batched per event-loop round and dispatched onto a
    {!Graphio_par.Pool}: every complete line read in one round is answered
    concurrently (distinct eigensolves run on separate domains; a single
    solve parallelizes its matvecs), and every spectrum flows through the
    shared two-tier {!Graphio_cache.Spectrum} cache, so repeated and
    overlapping queries are answered from memory or disk instead of
    recomputing the eigensolve.

    Robustness contract:

    - malformed requests get structured [bad_request] replies; the
      connection (and the server) survives;
    - per-request deadlines: a request whose deadline passes before or
      during its eigensolve is answered with a [timeout] reply (long
      sparse solves are cancelled cooperatively through the eigensolver's
      iteration callback; an already-running dense factorization finishes
      first and the reply still reports the timeout);
    - SIGINT/SIGTERM trigger a graceful drain: stop accepting, answer
      everything already read, flush, unlink the socket, return —
      the [{"op":"shutdown"}] admin request does the same from the wire;
    - responses to one connection are written in request order.

    Observability: [server.requests], [server.errors],
    [server.connections], [server.inflight] plus a [server.request_seconds]
    histogram over {!Graphio_obs.Metrics.latency_buckets}; each query is
    assigned a fresh request id ([req-N]) at the parse edge, installed as
    the ambient {!Graphio_obs.Ctx} id for the whole handling path — so the
    [server.request] span, every structured {!Graphio_obs.Log} event the
    request touches (cache lookups, the eigensolve, the reply), and the
    [rid] field of the success reply all correlate.  Connections get
    [conn-N] ids ([server.accept]/[server.drain] events).  The
    [{"op":"stats"}] admin request returns the full metrics snapshot as
    JSON; [{"op":"metrics"}] additionally returns a Prometheus text
    rendering, freshly sampled [runtime.gc.*] gauges and interpolated
    p50/p95/p99 request latency — live, without restarting the server
    (see docs/OBSERVABILITY.md). *)

type transport =
  | Unix_socket of string  (** path of the listening socket (unlinked on exit) *)
  | Tcp of string * int  (** host, port *)

type config = {
  transport : transport;
  pool_size : int;  (** domain-pool participants; [<= 1] runs sequentially *)
  cache : Graphio_cache.Spectrum.t;  (** shared spectrum cache (never [None]: pass
      {!Graphio_cache.Spectrum.disabled} to serve cold) *)
  timeout_s : float option;  (** default per-request deadline; [None] = no deadline *)
  h : int;  (** default eigenvalue cap (requests may override) *)
  dense_threshold : int option;  (** eigensolver crossover override (tests) *)
  closed_form : bool;
      (** dispatch recognized graphs to the closed-form spectrum tier
          (see {!Graphio_recognize.Recognize}); the reply's ["tier"] field
          reports which tier answered.  [false] forces every request
          through the numeric pipeline ([graphio serve --no-closed-form]). *)
  warm_start : bool;
      (** seed sparse eigensolves from cached Ritz vectors of related
          solves (same graph/method/params, different [h]); the reply's
          ["warm_start"] field reports per-request provenance.  Warm
          replies match cold ones to solver tolerance but not bitwise
          ([graphio serve --no-warm-start] opts out;
          docs/PERFORMANCE.md). *)
  portfolio : Graphio_core.Solver.method_ list option;
      (** member set evaluated by [method=portfolio] requests
          ([graphio serve --portfolio-methods]); [None] = the solver
          default, {!Graphio_core.Method.default_portfolio}.  Replies to
          portfolio requests carry a ["methods"] array (per-member bound,
          best_k, tier, cache_hit) and a ["winner"] field. *)
}

val default_config : transport -> config
(** Pool of 1, a fresh default cache ({!Graphio_cache.Spectrum.ambient}
    when configured, else memory-only), no timeout, [h = 100], closed-form
    dispatch on, warm starts on. *)

val run : ?ready:(unit -> unit) -> config -> unit
(** Bind, listen, serve until a shutdown request or signal, drain, clean
    up, return.  [ready] fires once the socket is listening (test and
    bench hook).  Raises [Unix.Unix_error] if the socket cannot be bound. *)
