open Graphio_obs
open Graphio_core

type transport = Unix_socket of string | Tcp of string * int

type config = {
  transport : transport;
  pool_size : int;
  cache : Graphio_cache.Spectrum.t;
  timeout_s : float option;
  h : int;
  dense_threshold : int option;
  closed_form : bool;
  warm_start : bool;
  portfolio : Solver.method_ list option;
      (* member set for method=portfolio queries; [None] = solver default *)
}

let default_config transport =
  {
    transport;
    pool_size = 1;
    cache =
      (match Graphio_cache.Spectrum.ambient () with
      | Some c -> c
      | None -> Graphio_cache.Spectrum.create ());
    timeout_s = None;
    h = 100;
    dense_threshold = None;
    closed_form = true;
    (* warm starts are on by default in the serve tier: a long-lived
       server answering related queries at several h values is exactly
       the reuse the Ritz store exists for (CLI --no-warm-start opts
       out; see docs/PERFORMANCE.md for the determinism caveat) *)
    warm_start = true;
    portfolio = None;
  }

let c_requests = Metrics.counter "server.requests"
let c_errors = Metrics.counter "server.errors"
let c_connections = Metrics.counter "server.connections"
let g_inflight = Metrics.gauge "server.inflight"

let h_request_seconds =
  Metrics.histogram ~help:"bound query latency in seconds"
    ~buckets:Metrics.latency_buckets "server.request_seconds"

(* Fault sites (inert without a plan, see Graphio_fault): transient accept
   failures, partial/failed socket reads and writes, mid-request
   disconnects, and deadline jitter between solve and reply.  The chaos
   battery drives each and asserts the server never crashes, never emits
   a silently wrong bound, and still drains gracefully. *)
let f_accept = Graphio_fault.site "server.accept"
let f_sock_read = Graphio_fault.site "server.sock.read"
let f_sock_write = Graphio_fault.site "server.sock.write"
let f_deadline = Graphio_fault.site "server.deadline"

(* Cooperative per-request deadline: raised by the pre-solve check and by
   the eigensolver's per-sweep callback. *)
exception Deadline

(* ------------------------------ replies ------------------------------ *)

let id_field = function Some id -> [ ("id", id) ] | None -> []

let error_reply ?id ~code msg =
  Jsonx.to_string
    (Jsonx.Obj
       (id_field id
       @ [
           ("ok", Jsonx.Bool false);
           ("code", Jsonx.String code);
           ("error", Jsonx.String msg);
         ]))

let query_reply ~id ~rid r =
  Jsonx.to_string
    (Jsonx.Obj
       (id_field id
       @ (("ok", Jsonx.Bool true) :: ("rid", Jsonx.String rid)
         :: Protocol.answer_fields r)))

let build_graph = function
  | Protocol.Spec s -> (
      match Graphio_workloads.Spec.parse s with
      | Ok g -> g
      | Error msg -> invalid_arg msg)
  | Protocol.Edgelist text -> Graphio_graph.Edgelist.of_string text

let answer_query cfg ?pool ~arrival_ns ~rid (q : Protocol.query) =
  Metrics.incr c_requests;
  let t0 = Clock.now_ns () in
  (* outcome is (code, reply): code "ok" for a success, the structured
     error code otherwise — logged on the server.reply event below *)
  let code, reply =
    Span.with_ "server.request" @@ fun () ->
    let timeout_s =
      match q.Protocol.timeout_s with Some t -> Some t | None -> cfg.timeout_s
    in
    let deadline_ns =
      Option.map (fun t -> arrival_ns + int_of_float (t *. 1e9)) timeout_s
    in
    let check_deadline () =
      match deadline_ns with
      | Some d when Clock.now_ns () >= d -> raise Deadline
      | _ -> ()
    in
    let id = q.Protocol.id in
    try
      let g = build_graph q.Protocol.source in
      check_deadline ();
      let job =
        Solver.job ~method_:q.Protocol.method_ ?p:q.Protocol.p g ~m:q.Protocol.m
      in
      let h = Option.value q.Protocol.h ~default:cfg.h in
      let r =
        Solver.bound_cached ~cache:cfg.cache ?pool ?portfolio:cfg.portfolio ~h
          ?dense_threshold:cfg.dense_threshold ~closed_form:cfg.closed_form
          ~warm_start:cfg.warm_start
          ~on_iteration:(fun _ -> check_deadline ())
          job
      in
      (* injected deadline jitter lands in the gap between the solve and the
         reply — the window the final check below exists to close *)
      (match Graphio_fault.hit f_deadline with
      | Graphio_fault.Sleep s -> Unix.sleepf s
      | _ -> ());
      (* A reply composed after the deadline has passed must be the
         structured timeout, not a late success: the per-iteration checks
         only cover the eigensolve, so a cache hit or a slow reply path
         could otherwise answer an expired request. *)
      check_deadline ();
      ("ok", query_reply ~id ~rid r)
    with
    | Deadline ->
        Metrics.incr c_errors;
        ( "timeout",
          error_reply ?id ~code:"timeout"
            (Printf.sprintf "deadline of %gs exceeded"
               (Option.value timeout_s ~default:0.0)) )
    | Invalid_argument msg | Failure msg ->
        Metrics.incr c_errors;
        ("bad_request", error_reply ?id ~code:"bad_request" msg)
    | e ->
        Metrics.incr c_errors;
        ("internal", error_reply ?id ~code:"internal" (Printexc.to_string e))
  in
  let wall_s = Clock.elapsed_s t0 in
  Metrics.observe h_request_seconds wall_s;
  Log.emit "server.reply"
    [
      ("code", Jsonx.String code);
      ("wall_s", Jsonx.Float wall_s);
    ];
  reply

(* --------------------------- client state ---------------------------- *)

(* A request line larger than this cannot be answered sanely (even inline
   edge lists of million-edge graphs stay well below); the client gets a
   structured error and the connection is closed. *)
let max_request_bytes = 16 * 1024 * 1024

type client = {
  fd : Unix.file_descr;
  cid : string;  (** connection id, [conn-N] — correlates events per peer *)
  inbuf : Buffer.t;
  mutable out : string;  (** bytes accepted but not yet written *)
  mutable eof : bool;  (** read side finished *)
  mutable broken : bool;  (** write side failed; drop without flushing *)
}

let enqueue c s = if not c.broken then c.out <- c.out ^ s ^ "\n"

let try_flush c =
  if c.out <> "" && not c.broken then begin
    let limit =
      match Graphio_fault.hit ~len:(String.length c.out) f_sock_write with
      | Graphio_fault.Pass -> String.length c.out
      | Graphio_fault.Torn k -> k (* partial write: k bytes now, rest later *)
      | Graphio_fault.Sleep s ->
          Unix.sleepf s;
          String.length c.out
      | Graphio_fault.Fail | Graphio_fault.Flip _ ->
          (* wire corruption is not modeled on the write side (a reply must
             arrive intact or not at all); both degrade to a dead peer *)
          c.broken <- true;
          0
    in
    if limit > 0 && not c.broken then
      match Unix.write_substring c.fd c.out 0 limit with
      | written -> c.out <- String.sub c.out written (String.length c.out - written)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        -> ()
      | exception Unix.Unix_error _ -> c.broken <- true
  end

(* Split off complete lines; the unterminated tail stays buffered. *)
let take_lines c =
  let data = Buffer.contents c.inbuf in
  let lines = ref [] in
  let start = ref 0 in
  String.iteri
    (fun i ch ->
      if ch = '\n' then begin
        lines := String.sub data !start (i - !start) :: !lines;
        start := i + 1
      end)
    data;
  Buffer.clear c.inbuf;
  Buffer.add_substring c.inbuf data !start (String.length data - !start);
  (* a closed read side flushes the unterminated tail as a final line *)
  if c.eof && Buffer.length c.inbuf > 0 then begin
    lines := Buffer.contents c.inbuf :: !lines;
    Buffer.clear c.inbuf
  end;
  List.rev !lines

let read_into c =
  let chunk = Bytes.create 65536 in
  let rec go () =
    (* The fault is applied to the length we ask the kernel for, so a torn
       read is a genuine short read: undelivered bytes stay queued in the
       socket and surface at the next select round — no data is invented
       or lost.  [Fail] is a mid-request disconnect; [Flip] corrupts the
       received bytes (client-side corruption the protocol answers with a
       structured parse error, since NDJSON carries no integrity check). *)
    let fault = Graphio_fault.hit ~len:(Bytes.length chunk) f_sock_read in
    match fault with
    | Graphio_fault.Fail ->
        c.broken <- true;
        c.eof <- true
    | Graphio_fault.Torn 0 -> () (* short read of nothing: retry next round *)
    | _ -> (
        (match fault with Graphio_fault.Sleep s -> Unix.sleepf s | _ -> ());
        let want =
          match fault with Graphio_fault.Torn k -> k | _ -> Bytes.length chunk
        in
        match Unix.read c.fd chunk 0 want with
        | 0 -> c.eof <- true
        | n ->
            (match fault with
            | Graphio_fault.Flip (off, mask) when off < n ->
                Bytes.set chunk off
                  (Char.chr (Char.code (Bytes.get chunk off) lxor mask))
            | _ -> ());
            Buffer.add_subbytes c.inbuf chunk 0 n;
            if Buffer.length c.inbuf > max_request_bytes then begin
              enqueue c
                (error_reply ~code:"bad_request"
                   (Printf.sprintf "request exceeds %d bytes" max_request_bytes));
              Buffer.clear c.inbuf;
              c.eof <- true
            end
            else go ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          -> ()
        | exception Unix.Unix_error _ ->
            c.broken <- true;
            c.eof <- true)
  in
  go ()

(* ------------------------------- loop -------------------------------- *)

let bind_listener = function
  | Unix_socket path ->
      if Sys.file_exists path then (try Unix.unlink path with Unix.Unix_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      (fd, fun () -> try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      let addr =
        if host = "" || host = "*" then Unix.inet_addr_any
        else
          try Unix.inet_addr_of_string host
          with Failure _ -> (
            match Unix.gethostbyname host with
            | { Unix.h_addr_list = [||]; _ } ->
                failwith (Printf.sprintf "serve: cannot resolve host %S" host)
            | { Unix.h_addr_list; _ } -> h_addr_list.(0)
            | exception Not_found ->
                failwith (Printf.sprintf "serve: cannot resolve host %S" host))
      in
      Unix.bind fd (Unix.ADDR_INET (addr, port));
      (fd, fun () -> ())

let stop_requested = Atomic.make false

let install_signal_handlers () =
  let handler = Sys.Signal_handle (fun _ -> Atomic.set stop_requested true) in
  (try Sys.set_signal Sys.sigint handler with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigterm handler with Invalid_argument _ -> ());
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

let run ?(ready = fun () -> ()) cfg =
  Atomic.set stop_requested false;
  install_signal_handlers ();
  let listen_fd, cleanup = bind_listener cfg.transport in
  let pool =
    if cfg.pool_size > 1 then Some (Graphio_par.Pool.create ~size:cfg.pool_size ())
    else None
  in
  let clients = ref [] in
  let listening = ref true in
  let draining = ref false in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) !clients;
      (if !listening then try Unix.close listen_fd with Unix.Unix_error _ -> ());
      cleanup ();
      Option.iter Graphio_par.Pool.shutdown pool)
    (fun () ->
      Unix.listen listen_fd 64;
      Unix.set_nonblock listen_fd;
      ready ();
      let accept_all () =
        let rec go () =
          (* a fired accept fault skips this round; the connection stays in
             the kernel backlog and is picked up at the next select round *)
          match Graphio_fault.hit f_accept with
          | Graphio_fault.Fail | Graphio_fault.Torn _ | Graphio_fault.Flip _ ->
              ()
          | (Graphio_fault.Pass | Graphio_fault.Sleep _) as o -> (
              (match o with Graphio_fault.Sleep s -> Unix.sleepf s | _ -> ());
              match Unix.accept listen_fd with
          | fd, _ ->
              Unix.set_nonblock fd;
              Metrics.incr c_connections;
              let cid = Ctx.fresh ~prefix:"conn" () in
              Log.emit "server.accept" [ ("cid", Jsonx.String cid) ];
              clients :=
                {
                  fd;
                  cid;
                  inbuf = Buffer.create 256;
                  out = "";
                  eof = false;
                  broken = false;
                }
                :: !clients;
              go ()
              | exception
                  Unix.Unix_error
                    ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
                -> ()
              | exception Unix.Unix_error _ -> ())
        in
        go ()
      in
      (* Answer one round's worth of lines.  Parsing and admin ops run in
         the loop; bound queries become thunks dispatched together on the
         pool, so concurrent clients' eigensolves overlap.  Responses are
         enqueued in per-client request order (thunks keep their slot). *)
      let process_lines lines =
        let arrival_ns = Clock.now_ns () in
        let tasks =
          List.filter_map
            (fun (c, line) ->
              if String.trim line = "" then None
              else
                match Protocol.request_of_line line with
                | Error (id, msg) ->
                    Metrics.incr c_errors;
                    Some (c, fun () -> error_reply ?id ~code:"bad_request" msg)
                | Ok (Protocol.Ping id) ->
                    Some
                      ( c,
                        fun () ->
                          Jsonx.to_string
                            (Jsonx.Obj
                               (id_field id
                               @ [ ("ok", Jsonx.Bool true); ("op", Jsonx.String "ping") ]))
                      )
                | Ok (Protocol.Stats id) ->
                    Some
                      ( c,
                        fun () ->
                          Jsonx.to_string
                            (Jsonx.Obj
                               (id_field id
                               @ [
                                   ("ok", Jsonx.Bool true);
                                   ("op", Jsonx.String "stats");
                                   ( "metrics",
                                     Metrics.to_json (Metrics.snapshot ()) );
                                 ])) )
                | Ok (Protocol.Metrics_op id) ->
                    Some
                      ( c,
                        fun () ->
                          (* refresh the GC gauges so the exposition is live,
                             then expose the same snapshot three ways: JSON
                             (programmatic), Prometheus text (scrapers), and
                             interpolated latency quantiles (humans/top) *)
                          Runtime.sample ();
                          let snap = Metrics.snapshot () in
                          let quant p =
                            match
                              Metrics.snapshot_quantile snap
                                "server.request_seconds" p
                            with
                            | Some v -> Jsonx.Float v
                            | None -> Jsonx.Null
                          in
                          let latency_count =
                            match Metrics.find snap "server.request_seconds" with
                            | Some (Metrics.Histogram { count; _ }) -> count
                            | _ -> 0
                          in
                          Jsonx.to_string
                            (Jsonx.Obj
                               (id_field id
                               @ [
                                   ("ok", Jsonx.Bool true);
                                   ("op", Jsonx.String "metrics");
                                   ( "latency",
                                     Jsonx.Obj
                                       [
                                         ("p50_s", quant 0.5);
                                         ("p95_s", quant 0.95);
                                         ("p99_s", quant 0.99);
                                         ("count", Jsonx.Int latency_count);
                                       ] );
                                   ( "prometheus",
                                     Jsonx.String (Metrics.render_prometheus snap)
                                   );
                                   ("metrics", Metrics.to_json snap);
                                 ])) )
                | Ok (Protocol.Shutdown id) ->
                    draining := true;
                    Log.emit "server.drain" [ ("cid", Jsonx.String c.cid) ];
                    Some
                      ( c,
                        fun () ->
                          Jsonx.to_string
                            (Jsonx.Obj
                               (id_field id
                               @ [
                                   ("ok", Jsonx.Bool true);
                                   ("op", Jsonx.String "shutdown");
                                 ])) )
                | Ok (Protocol.Query q) ->
                    (* One request id per query line, minted at the edge:
                       the thunk installs it as the ambient id, so spans,
                       structured events and the reply itself all carry
                       it — a served request is reconstructable from
                       telemetry alone. *)
                    let rid = Ctx.fresh () in
                    Log.emit "server.request"
                      [
                        ("rid", Jsonx.String rid);
                        ("cid", Jsonx.String c.cid);
                        ("m", Jsonx.Int q.Protocol.m);
                        ( "source",
                          Jsonx.String
                            (match q.Protocol.source with
                            | Protocol.Spec s -> s
                            | Protocol.Edgelist _ -> "edgelist") );
                      ];
                    Some
                      ( c,
                        fun () ->
                          Ctx.with_rid rid (fun () ->
                              answer_query cfg ?pool ~arrival_ns ~rid q) ))
            lines
        in
        match tasks with
        | [] -> ()
        | tasks ->
            let tasks = Array.of_list tasks in
            Metrics.set g_inflight (float_of_int (Array.length tasks));
            (* Task thunks are written not to raise (answer_query catches
               everything), but a task dying anyway — historically possible,
               and routinely injected via the "pool.task" fault site — must
               not take the whole server down with it: [run_all] re-raises
               the first task exception.  Fall back to inline execution
               with a per-task catch so every request still gets a reply. *)
            let run_inline () =
              Array.map
                (fun (_, f) ->
                  try f ()
                  with e ->
                    Metrics.incr c_errors;
                    error_reply ~code:"internal" (Printexc.to_string e))
                tasks
            in
            let replies =
              match pool with
              | Some pool when Array.length tasks > 1 -> (
                  try Graphio_par.Pool.run_all pool (Array.map snd tasks)
                  with _ -> run_inline ())
              | _ -> run_inline ()
            in
            Metrics.set g_inflight 0.0;
            Array.iteri (fun i reply -> enqueue (fst tasks.(i)) reply) replies
      in
      let finished () =
        !draining
        && List.for_all (fun c -> (c.out = "" || c.broken) && Buffer.length c.inbuf = 0) !clients
      in
      while not (finished ()) do
        if Atomic.get stop_requested then draining := true;
        if !draining && !listening then begin
          (try Unix.close listen_fd with Unix.Unix_error _ -> ());
          listening := false
        end;
        (* drop clients we are done with *)
        clients :=
          List.filter
            (fun c ->
              let dead = c.broken || (c.eof && c.out = "" && Buffer.length c.inbuf = 0) in
              if dead then (try Unix.close c.fd with Unix.Unix_error _ -> ());
              not dead)
            !clients;
        if not (finished ()) then begin
          let read_fds =
            (if !listening then [ listen_fd ] else [])
            @ List.filter_map
                (fun c -> if c.eof || c.broken then None else Some c.fd)
                !clients
          in
          let write_fds =
            List.filter_map
              (fun c -> if c.out <> "" && not c.broken then Some c.fd else None)
              !clients
          in
          match Unix.select read_fds write_fds [] 0.2 with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | readable, writable, _ ->
              if !listening && List.mem listen_fd readable then accept_all ();
              List.iter
                (fun c -> if List.mem c.fd readable then read_into c)
                !clients;
              let lines =
                List.concat_map
                  (fun c -> List.map (fun l -> (c, l)) (take_lines c))
                  (List.rev !clients)
              in
              process_lines lines;
              List.iter
                (fun c -> if c.out <> "" && (List.mem c.fd writable || true) then try_flush c)
                !clients
        end
      done)
