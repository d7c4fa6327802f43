(* graphio serve, exercised in-process: the server runs in its own domain,
   clients are threads hammering the same socket.  The load-bearing check
   is determinism — N concurrent clients must get answers bitwise-equal to
   a sequential Solver.bound_batch over the same jobs. *)

open Graphio_server
open Graphio_obs
open Graphio_core

let socket_path () =
  let path = Filename.temp_file "graphio_serve" ".sock" in
  Sys.remove path;
  path

(* Run [f client_factory] against a live server, then shut it down. *)
let with_server ?(pool_size = 3) ?timeout_s ?(cache = Graphio_cache.Spectrum.disabled)
    f =
  let path = socket_path () in
  let transport = Server.Unix_socket path in
  let cfg =
    (* warm_start off: these tests pin exact reply bytes, and warm-started
       solves match cold ones only to tolerance, not bitwise *)
    { Server.transport; pool_size; cache; timeout_s; h = 16;
      dense_threshold = Some 24; closed_form = true;
      warm_start = false;
      portfolio = None }
  in
  let listening = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        Server.run ~ready:(fun () -> Atomic.set listening true) cfg)
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Atomic.get listening)) && Unix.gettimeofday () < deadline do
    Thread.yield ()
  done;
  Fun.protect
    ~finally:(fun () ->
      (try
         let c = Client.connect transport in
         ignore (Client.rpc c {|{"op":"shutdown"}|});
         Client.close c
       with _ -> ());
      Domain.join server;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f transport)

let get name json =
  match Jsonx.member name json with
  | Some v -> v
  | None -> Alcotest.failf "reply missing %S: %s" name (Jsonx.to_string json)

let get_float name json =
  match get name json with
  | Jsonx.Float f -> f
  | Jsonx.Int i -> float_of_int i
  | _ -> Alcotest.failf "reply field %S not a number" name

(* ------------------------------------------------------------------ *)

let specs =
  [| ("fft:4", 4); ("fft:4", 8); ("bhk:5", 8); ("inner:12", 4);
     ("er:40:0.15:3", 8); ("er:40:0.15:3", 16); ("matmul:3", 8) |]

let expected_bounds () =
  let jobs =
    Array.map
      (fun (spec, m) ->
        match Graphio_workloads.Spec.parse spec with
        | Ok g -> Solver.job g ~m
        | Error e -> Alcotest.fail e)
      specs
  in
  Array.map
    (fun (r : Solver.batch_result) ->
      r.Solver.outcome.Solver.result.Spectral_bound.bound)
    (Solver.bound_batch ~cache:Graphio_cache.Spectrum.disabled ~h:16
       ~dense_threshold:24 jobs)

let test_concurrent_clients_match_sequential () =
  let expected = expected_bounds () in
  with_server ~cache:(Graphio_cache.Spectrum.create ()) @@ fun transport ->
  let n_clients = 6 in
  let results = Array.make_matrix n_clients (Array.length specs) nan in
  let errors = Atomic.make [] in
  let client_loop ci =
    try
      let c = Client.connect transport in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          Array.iteri
            (fun qi (spec, m) ->
              let req =
                Printf.sprintf {|{"spec":%S,"m":%d,"id":%d}|} spec m qi
              in
              let reply = Jsonx.of_string (Client.rpc c req) in
              (match get "ok" reply with
              | Jsonx.Bool true -> ()
              | _ -> Alcotest.failf "client %d query %d failed: %s" ci qi
                       (Jsonx.to_string reply));
              (match get "id" reply with
              | Jsonx.Int id when id = qi -> ()
              | _ -> Alcotest.failf "client %d: wrong id echo" ci);
              results.(ci).(qi) <- get_float "bound" reply)
            specs)
    with e ->
      Atomic.set errors (Printexc.to_string e :: Atomic.get errors)
  in
  let threads = List.init n_clients (fun ci -> Thread.create client_loop ci) in
  List.iter Thread.join threads;
  (match Atomic.get errors with
  | [] -> ()
  | e :: _ -> Alcotest.failf "client error: %s" e);
  Array.iteri
    (fun ci row ->
      Array.iteri
        (fun qi bound ->
          Alcotest.(check bool)
            (Printf.sprintf "client %d query %d bitwise-equal to bound_batch" ci qi)
            true
            (Int64.equal (Int64.bits_of_float bound)
               (Int64.bits_of_float expected.(qi))))
        row)
    results

let test_pipelined_replies_in_order () =
  with_server @@ fun transport ->
  let c = Client.connect transport in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      (* fire all requests before reading any reply; replies must come
         back in request order (ids echo the order) *)
      for i = 0 to 9 do
        Client.send c
          (Printf.sprintf {|{"spec":"fft:3","m":%d,"id":%d}|} (2 + i) i)
      done;
      for i = 0 to 9 do
        let reply = Jsonx.of_string (Client.recv c) in
        match get "id" reply with
        | Jsonx.Int id ->
            Alcotest.(check int) (Printf.sprintf "reply %d in order" i) i id
        | _ -> Alcotest.fail "missing id"
      done)

let test_malformed_requests_survive () =
  with_server @@ fun transport ->
  let c = Client.connect transport in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      let expect_error ?code req =
        let reply = Jsonx.of_string (Client.rpc c req) in
        (match get "ok" reply with
        | Jsonx.Bool false -> ()
        | _ -> Alcotest.failf "expected error for %s" req);
        match code with
        | None -> ()
        | Some expected -> (
            match get "code" reply with
            | Jsonx.String c -> Alcotest.(check string) "code" expected c
            | _ -> Alcotest.fail "missing code")
      in
      expect_error ~code:"bad_request" "garbage";
      expect_error ~code:"bad_request" "[1,2]";
      expect_error ~code:"bad_request" {|{"m":8}|};
      expect_error ~code:"bad_request" {|{"spec":"fft:4"}|};
      expect_error ~code:"bad_request" {|{"spec":"fft:4","m":0}|};
      expect_error ~code:"bad_request" {|{"spec":"fft:4","m":8,"typo":1}|};
      expect_error ~code:"bad_request" {|{"spec":"fft:4","edgelist":"x","m":8}|};
      expect_error ~code:"bad_request" {|{"spec":"fft:4","m":8,"method":"qr"}|};
      expect_error ~code:"bad_request" {|{"spec":"nope:3","m":8}|};
      expect_error ~code:"bad_request"
        {|{"edgelist":"graphio 1\nn 2 m 1\ne 0 5\n","m":8}|};
      expect_error ~code:"timeout" {|{"spec":"fft:4","m":8,"timeout_s":0}|};
      (* ... and the connection still answers real queries afterwards *)
      let reply = Jsonx.of_string (Client.rpc c {|{"spec":"fft:3","m":4}|}) in
      match get "ok" reply with
      | Jsonx.Bool true -> ()
      | _ -> Alcotest.fail "server no longer answers after bad requests")

let test_stats_and_ping () =
  with_server @@ fun transport ->
  let c = Client.connect transport in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      let ping = Jsonx.of_string (Client.rpc c {|{"op":"ping","id":"p1"}|}) in
      (match (get "ok" ping, get "id" ping) with
      | Jsonx.Bool true, Jsonx.String "p1" -> ()
      | _ -> Alcotest.fail "ping reply wrong");
      ignore (Client.rpc c {|{"spec":"fft:3","m":4}|});
      let stats = Jsonx.of_string (Client.rpc c {|{"op":"stats"}|}) in
      let metrics = Metrics.of_json (get "metrics" stats) in
      match Metrics.find metrics "server.requests" with
      | Some (Metrics.Counter n) ->
          Alcotest.(check bool) "requests counted" true (n >= 1)
      | _ -> Alcotest.fail "server.requests missing from stats")

let test_edgelist_queries () =
  with_server @@ fun transport ->
  let c = Client.connect transport in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      let g = Graphio_workloads.Fft.build 3 in
      let doc = Graphio_graph.Edgelist.to_string g in
      let req =
        Jsonx.to_string
          (Jsonx.Obj
             [ ("edgelist", Jsonx.String doc); ("m", Jsonx.Int 4);
               ("method", Jsonx.String "standard") ])
      in
      let reply = Jsonx.of_string (Client.rpc c req) in
      (match get "ok" reply with
      | Jsonx.Bool true -> ()
      | _ -> Alcotest.failf "edgelist query failed: %s" (Jsonx.to_string reply));
      let expected =
        (Solver.bound_cached ~cache:Graphio_cache.Spectrum.disabled ~h:16
           ~dense_threshold:24
           (Solver.job ~method_:Solver.Standard g ~m:4))
          .Solver.outcome.Solver.result.Spectral_bound.bound
      in
      Alcotest.(check bool) "edgelist bound matches direct solve" true
        (Int64.equal
           (Int64.bits_of_float (get_float "bound" reply))
           (Int64.bits_of_float expected)))

let test_cache_warms_across_clients () =
  with_server ~cache:(Graphio_cache.Spectrum.create ()) @@ fun transport ->
  let ask () =
    let c = Client.connect transport in
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () -> Jsonx.of_string (Client.rpc c {|{"spec":"bhk:6","m":8}|}))
  in
  let first = ask () and second = ask () in
  (match get "cache_hit" second with
  | Jsonx.Bool true -> ()
  | _ -> Alcotest.fail "second client should hit the warm cache");
  Alcotest.(check bool) "warm answer identical" true
    (Int64.equal
       (Int64.bits_of_float (get_float "bound" first))
       (Int64.bits_of_float (get_float "bound" second)))

(* A recognized graph served twice over a shared cache: both replies come
   from the closed-form tier, echo their own request id, carry distinct
   server-side rids, the second is a cache hit, and the bound is bitwise
   identical across the two serves. *)
let test_closed_form_served_twice () =
  with_server ~cache:(Graphio_cache.Spectrum.create ()) @@ fun transport ->
  let ask id =
    let c = Client.connect transport in
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () ->
        Jsonx.of_string
          (Client.rpc c
             (Printf.sprintf
                {|{"spec":"fft:5","m":8,"method":"standard","id":"%s"}|} id)))
  in
  let first = ask "cf1" and second = ask "cf2" in
  List.iter
    (fun (name, reply) ->
      match get "tier" reply with
      | Jsonx.String "closed-form" -> ()
      | _ -> Alcotest.failf "%s reply not closed-form: %s" name (Jsonx.to_string reply))
    [ ("first", first); ("second", second) ];
  (match (get "id" first, get "id" second) with
  | Jsonx.String "cf1", Jsonx.String "cf2" -> ()
  | _ -> Alcotest.fail "request ids not echoed");
  let rid reply =
    match get "rid" reply with
    | Jsonx.String r -> r
    | _ -> Alcotest.fail "reply carries no rid"
  in
  Alcotest.(check bool) "rids are per-request" true (rid first <> rid second);
  (match get "cache_hit" second with
  | Jsonx.Bool true -> ()
  | _ -> Alcotest.fail "second serve should hit the warm cache");
  Alcotest.(check bool) "closed-form bound bitwise stable" true
    (Int64.equal
       (Int64.bits_of_float (get_float "bound" first))
       (Int64.bits_of_float (get_float "bound" second)))

(* A full telemetry round trip over the wire: the success reply carries a
   request id, and {"op":"metrics"} exposes non-zero latency quantiles, a
   Prometheus rendering, and freshly sampled GC gauges — live, without
   restarting the server. *)
let test_metrics_exposition () =
  with_server @@ fun transport ->
  let c = Client.connect transport in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      let reply = Jsonx.of_string (Client.rpc c {|{"spec":"fft:4","m":4}|}) in
      (match get "rid" reply with
      | Jsonx.String rid ->
          Alcotest.(check bool) "rid has the req- prefix" true
            (String.length rid > 4 && String.sub rid 0 4 = "req-")
      | _ -> Alcotest.fail "success reply carries no rid");
      let m = Jsonx.of_string (Client.rpc c {|{"op":"metrics","id":"m1"}|}) in
      (match (get "ok" m, get "id" m, get "op" m) with
      | Jsonx.Bool true, Jsonx.String "m1", Jsonx.String "metrics" -> ()
      | _ -> Alcotest.failf "metrics reply wrong: %s" (Jsonx.to_string m));
      let latency = get "latency" m in
      let count =
        match get "count" latency with
        | Jsonx.Int n -> n
        | _ -> Alcotest.fail "latency.count not an int"
      in
      Alcotest.(check bool) "at least one observation" true (count >= 1);
      List.iter
        (fun q ->
          let v = get_float q latency in
          Alcotest.(check bool) (q ^ " is positive") true (v > 0.0))
        [ "p50_s"; "p95_s"; "p99_s" ];
      (match get "prometheus" m with
      | Jsonx.String text ->
          let has needle =
            let nh = String.length text and nn = String.length needle in
            let rec scan i =
              i + nn <= nh && (String.sub text i nn = needle || scan (i + 1))
            in
            scan 0
          in
          Alcotest.(check bool) "histogram exposed" true
            (has "# TYPE server_request_seconds histogram");
          Alcotest.(check bool) "+Inf bucket present" true
            (has "server_request_seconds_bucket{le=\"+Inf\"}");
          Alcotest.(check bool) "gc gauges sampled" true
            (has "runtime_gc_heap_words")
      | _ -> Alcotest.fail "no prometheus rendering");
      let snap = Metrics.of_json (get "metrics" m) in
      match Metrics.find snap "runtime.gc.heap_words" with
      | Some (Metrics.Gauge words) ->
          Alcotest.(check bool) "heap gauge non-zero" true (words > 0.0)
      | _ -> Alcotest.fail "runtime gauges missing from snapshot")

(* ------------------------------------------------------------------ *)
(* Protocol parsing (no server needed)                                 *)
(* ------------------------------------------------------------------ *)

let test_protocol_errors_carry_id () =
  match Protocol.request_of_line {|{"id":42,"m":"eight","spec":"fft:3"}|} with
  | Error (Some (Jsonx.Int 42), msg) ->
      Alcotest.(check bool) "message names the field" true
        (String.length msg > 0)
  | Error (_, _) -> Alcotest.fail "id not preserved"
  | Ok _ -> Alcotest.fail "should not parse"

let test_protocol_accepts_full_query () =
  match
    Protocol.request_of_line
      {|{"spec":"fft:6","m":8,"p":2,"method":"standard","h":64,"timeout_s":1.5,"id":7}|}
  with
  | Ok (Protocol.Query q) ->
      Alcotest.(check int) "m" 8 q.Protocol.m;
      Alcotest.(check (option int)) "p" (Some 2) q.Protocol.p;
      Alcotest.(check (option int)) "h" (Some 64) q.Protocol.h;
      Alcotest.(check bool) "method" true (q.Protocol.method_ = Solver.Standard);
      Alcotest.(check (option (float 0.0))) "timeout" (Some 1.5) q.Protocol.timeout_s
  | _ -> Alcotest.fail "full query should parse"

let () =
  Alcotest.run "graphio_server"
    [
      ( "serve",
        [
          Alcotest.test_case "concurrent clients match sequential batch" `Quick
            test_concurrent_clients_match_sequential;
          Alcotest.test_case "pipelined replies in order" `Quick
            test_pipelined_replies_in_order;
          Alcotest.test_case "malformed requests survive" `Quick
            test_malformed_requests_survive;
          Alcotest.test_case "stats and ping" `Quick test_stats_and_ping;
          Alcotest.test_case "edgelist queries" `Quick test_edgelist_queries;
          Alcotest.test_case "metrics exposition" `Quick test_metrics_exposition;
          Alcotest.test_case "closed form served twice" `Quick
            test_closed_form_served_twice;
          Alcotest.test_case "cache warms across clients" `Quick
            test_cache_warms_across_clients;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "errors carry id" `Quick test_protocol_errors_carry_id;
          Alcotest.test_case "full query parses" `Quick test_protocol_accepts_full_query;
        ] );
    ]
