(** Wire protocol of [graphio serve]: newline-delimited JSON.

    Every request is one JSON object on one line; every reply is one JSON
    object on one line.  Bound queries reuse the batch job schema of
    [graphio batch] (spec / m / p / method), extended with an inline
    edge-list alternative, a per-request [h] and a per-request deadline:

    {v
    {"spec":"fft:6", "m":8}
    {"edgelist":"graphio 1\nn 2 m 1\ne 0 1\n", "m":4, "method":"standard"}
    {"spec":"bhk:8", "m":4, "p":2, "h":64, "timeout_s":1.5, "id":7}
    {"op":"ping"}  {"op":"stats"}  {"op":"metrics"}  {"op":"shutdown"}
    v}

    Replies always carry ["ok"] (and echo ["id"] when the request had
    one).  Successful bound replies mirror the [graphio batch] output
    fields; failures are structured instead of dropped connections:
    [{"ok":false, "code":"bad_request"|"timeout"|"internal", "error":MSG}].

    Parsing is total: any line — malformed JSON, wrong types, unknown
    fields — yields [Error] with a message the server turns into a
    [bad_request] reply, never an exception or a closed socket. *)

type source =
  | Spec of string  (** a {!Graphio_workloads.Spec} generator spec *)
  | Edgelist of string  (** inline {!Graphio_graph.Edgelist} document *)

type query = {
  id : Graphio_obs.Jsonx.t option;  (** echoed verbatim in the reply *)
  source : source;
  m : int;
  p : int option;
  method_ : Graphio_core.Solver.method_;
  h : int option;  (** per-request eigenvalue cap (server default otherwise) *)
  timeout_s : float option;  (** per-request deadline (server default otherwise) *)
}

type request =
  | Query of query
  | Ping of Graphio_obs.Jsonx.t option
  | Stats of Graphio_obs.Jsonx.t option
  | Metrics_op of Graphio_obs.Jsonx.t option
      (** live metrics exposition: the reply carries the registry snapshot
          as JSON, a Prometheus text rendering, and interpolated
          p50/p95/p99 of [server.request_seconds] *)
  | Shutdown of Graphio_obs.Jsonx.t option

val request_of_line : string -> (request, Graphio_obs.Jsonx.t option * string) result
(** Parse one request line.  [Error (id, msg)] still carries the request
    id whenever the line was an object with one, so even a rejected
    request gets a correlatable reply. *)

val method_name : Graphio_core.Solver.method_ -> string
val backend_name : Graphio_la.Eigen.backend -> string

val answer_fields :
  Graphio_core.Solver.batch_result -> (string * Graphio_obs.Jsonx.t) list
(** The fields of one bound answer, ["n"] through ["winner"], in wire
    order — the one encoding shared by [graphio batch] lines (after
    ["spec"]) and successful serve replies (after ["id"], ["ok"] and
    ["rid"]).  ["components"] appears only when the graph decomposed,
    ["methods"] and ["winner"] only on portfolio queries. *)
