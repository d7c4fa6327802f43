(* Chaos + replay battery for the deterministic fault-injection layer.

   Oracle: under every shipped fault schedule, each answer the system
   produces is either a structured error or bitwise-identical to a
   fault-free cold solve — never a silently wrong bound.  On top of that:
   the cache recovers from corrupt records (evict + recompute, no leaked
   temp files), the server never crashes and still drains gracefully, and
   every failure message printed here carries the exact plan string and
   chaos seed needed to replay the run.

   The schedule matrix is seeded by GRAPHIO_CHAOS_SEED (default 1; CI
   loops several seeds), so repeated CI runs explore different fault
   sequences while any single run stays fully deterministic. *)

open Graphio_core
module F = Graphio_fault
module Metrics = Graphio_obs.Metrics
module Jsonx = Graphio_obs.Jsonx
module Spectrum = Graphio_cache.Spectrum

let chaos_seed =
  match Sys.getenv_opt "GRAPHIO_CHAOS_SEED" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 1)
  | None -> 1

(* ------------------------- replayable failures ------------------------ *)

(* Every chaos assertion failure must be reproducible from the printed
   message alone.  [fail_plan] threads the plan string and chaos seed into
   both the alcotest message and (when GRAPHIO_CHAOS_ARTIFACT is set, as
   in CI) an artifact file uploaded on red. *)
exception Chaos of string

let record_failure plan detail =
  match Sys.getenv_opt "GRAPHIO_CHAOS_ARTIFACT" with
  | None -> ()
  | Some path ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      Printf.fprintf oc "GRAPHIO_FAULTS='%s' GRAPHIO_CHAOS_SEED=%d # %s\n" plan
        chaos_seed detail;
      close_out oc

let replayed plan detail =
  Printf.sprintf "%s [replay: GRAPHIO_FAULTS='%s' GRAPHIO_CHAOS_SEED=%d]"
    detail plan chaos_seed

let fail_plan plan fmt =
  Printf.ksprintf
    (fun detail ->
      record_failure plan detail;
      raise (Chaos (replayed plan detail)))
    fmt

(* Run a schedule body so that any escaping exception — an assertion via
   [fail_plan] or an unexpected crash — surfaces with the replay line. *)
let guard plan f =
  try f () with
  | Chaos msg -> Alcotest.fail msg
  | e ->
      let detail = "unexpected exception: " ^ Printexc.to_string e in
      record_failure plan detail;
      Alcotest.fail (replayed plan detail)

(* ------------------------------ helpers ------------------------------- *)

let fresh_dir prefix =
  let p = Filename.temp_file prefix "" in
  Sys.remove p;
  Unix.mkdir p 0o700;
  p

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let counter_of name =
  match Metrics.find (Metrics.snapshot ()) name with
  | Some (Metrics.Counter v) -> v
  | _ -> 0

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ======================================================================
   Fault-layer unit tests (no plan/seed dependence: fully deterministic)
   ====================================================================== *)

let test_parse_ok () =
  List.iter
    (fun s ->
      match F.parse s with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "plan %S should parse: %s" s m)
    [
      "a.b";
      "cache.*:p=0.25:seed=3:kind=flip,pool.task:nth=2:count=1";
      "x:kind=delay:ms=2.5";
      "server.sock.read:nth=3:kind=partial";
      " a , b.c:p=0 ";
    ]

let test_parse_err () =
  List.iter
    (fun (s, fragment) ->
      match F.parse s with
      | Ok _ -> Alcotest.failf "plan %S should be rejected" s
      | Error m ->
          Alcotest.(check bool)
            (Printf.sprintf "error for %S is one line" s)
            false (String.contains m '\n');
          Alcotest.(check bool)
            (Printf.sprintf "error for %S mentions %S (got %S)" s fragment m)
            true
            (contains_substring m fragment))
    [
      ("", "no clauses");
      (":p=1", "names no site");
      ("a:p=2", "not in [0, 1]");
      ("a:p=x", "not a number");
      ("a:nth=0", ">= 1");
      ("a:nth=x", "not an integer");
      ("a:count=0", ">= 1");
      ("a:ms=-1", ">= 0");
      ("a:kind=bogus", "error|partial|flip|delay");
      ("a:frobnicate=1", "unknown key");
      ("a:p", "KEY=VALUE");
    ]

let test_inert_without_plan () =
  F.clear ();
  let s = F.site "unit.inert" in
  for _ = 1 to 5 do
    Alcotest.(check bool) "hit passes" true (F.hit s = F.Pass)
  done;
  Alcotest.(check bool) "not active" false (F.active ());
  Alcotest.(check int) "no fires" 0 (F.injected_total ());
  (* a plan for a different site leaves this one untouched *)
  F.with_plan "unit.other" (fun () ->
      Alcotest.(check bool) "unmatched site passes" true (F.hit s = F.Pass))

let test_nth_semantics () =
  F.with_plan "unit.nth:nth=3" (fun () ->
      let s = F.site "unit.nth" in
      let outcomes = List.init 5 (fun _ -> F.hit s) in
      Alcotest.(check bool)
        "fires exactly on the third hit" true
        (outcomes = [ F.Pass; F.Pass; F.Fail; F.Pass; F.Pass ]);
      Alcotest.(check bool)
        "log records site, 1-based hit index, and tag" true
        (F.injections () = [ ("unit.nth", 3, "fail") ]))

let test_count_cap () =
  F.with_plan "unit.count:count=2" (fun () ->
      let s = F.site "unit.count" in
      let outcomes = List.init 4 (fun _ -> F.hit s) in
      Alcotest.(check bool)
        "p=1 fires until the cap, then passes" true
        (outcomes = [ F.Fail; F.Fail; F.Pass; F.Pass ]);
      Alcotest.(check int) "two fires total" 2 (F.injected_total ()))

let test_prob_replay () =
  let plan = "unit.prob:p=0.5:seed=11" in
  let run () =
    F.with_plan plan (fun () ->
        let s = F.site "unit.prob" in
        List.init 200 (fun _ -> F.hit s))
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same plan+seed gives the same sequence" true (a = b);
  let fires = List.length (List.filter (fun o -> o <> F.Pass) a) in
  Alcotest.(check bool) "p=0.5 fires some but not all" true
    (fires > 0 && fires < 200);
  (* a different seed must give a different sequence (with 200 coin flips,
     a collision would be astronomically unlikely) *)
  let c =
    F.with_plan "unit.prob:p=0.5:seed=12" (fun () ->
        let s = F.site "unit.prob" in
        List.init 200 (fun _ -> F.hit s))
  in
  Alcotest.(check bool) "different seed gives a different sequence" true
    (a <> c)

let test_kind_outcomes () =
  F.with_plan "unit.kind.partial:kind=partial" (fun () ->
      let s = F.site "unit.kind.partial" in
      (match F.hit ~len:64 s with
      | F.Torn k -> Alcotest.(check bool) "torn within len" true (k >= 0 && k < 64)
      | o -> Alcotest.failf "expected Torn, got %s" (match o with F.Fail -> "Fail" | _ -> "?"));
      Alcotest.(check bool) "partial with len=0 degrades to Fail" true
        (F.hit ~len:0 s = F.Fail));
  F.with_plan "unit.kind.flip:kind=flip" (fun () ->
      let s = F.site "unit.kind.flip" in
      (match F.hit ~len:64 s with
      | F.Flip (off, mask) ->
          Alcotest.(check bool) "flip offset within len" true (off >= 0 && off < 64);
          Alcotest.(check bool) "flip mask nonzero byte" true (mask >= 1 && mask <= 255)
      | _ -> Alcotest.fail "expected Flip");
      Alcotest.(check bool) "flip with len=0 degrades to Fail" true
        (F.hit ~len:0 s = F.Fail));
  F.with_plan "unit.kind.delay:kind=delay:ms=5" (fun () ->
      let s = F.site "unit.kind.delay" in
      match F.hit s with
      | F.Sleep t -> Alcotest.(check bool) "delay is ms/1000" true (same_float t 0.005)
      | _ -> Alcotest.fail "expected Sleep")

let test_wildcard_per_site () =
  F.with_plan "unit.wild.*:nth=1" (fun () ->
      let a = F.site "unit.wild.one" and b = F.site "unit.wild.two" in
      (* each matched site gets its own clause instance: both fire on
         their own first hit, independently *)
      Alcotest.(check bool) "site one fires first hit" true (F.hit a = F.Fail);
      Alcotest.(check bool) "site two fires first hit" true (F.hit b = F.Fail);
      Alcotest.(check bool) "site one passes afterwards" true (F.hit a = F.Pass))

let test_step_raises () =
  F.with_plan "unit.step:nth=1" (fun () ->
      let s = F.site "unit.step" in
      (match F.step s with
      | () -> Alcotest.fail "step should raise on a fired hit"
      | exception F.Injected name ->
          Alcotest.(check string) "exception carries site name" "unit.step" name);
      F.step s (* second hit passes *))

let test_fire_metrics () =
  let before = counter_of "fault.injected.unit.metric" in
  F.with_plan "unit.metric:nth=1" (fun () ->
      ignore (F.hit (F.site "unit.metric")));
  Alcotest.(check int) "fault.injected.unit.metric incremented"
    (before + 1)
    (counter_of "fault.injected.unit.metric")

let test_with_plan_restores () =
  F.set (F.parse_exn "unit.outer:nth=1");
  F.with_plan "unit.inner:nth=1" (fun () ->
      Alcotest.(check (option string)) "inner installed"
        (Some "unit.inner:nth=1") (F.plan_string ()));
  Alcotest.(check (option string)) "outer restored" (Some "unit.outer:nth=1")
    (F.plan_string ());
  F.clear ();
  Alcotest.(check (option string)) "cleared" None (F.plan_string ())

(* ======================================================================
   Cache chaos: bounds stay bitwise-identical to a fault-free cold solve
   ====================================================================== *)

let cache_specs =
  [| ("fft:3", 4, Solver.Normalized); ("fft:4", 8, Solver.Normalized);
     ("bhk:4", 8, Solver.Standard); ("inner:8", 4, Solver.Normalized);
     ("fft:3", 4, Solver.Standard); ("bhk:4", 16, Solver.Normalized) |]

let cache_jobs () =
  Array.map
    (fun (spec, m, method_) ->
      match Graphio_workloads.Spec.parse spec with
      | Ok g -> Solver.job ~method_ g ~m
      | Error e -> Alcotest.fail e)
    cache_specs

let bounds_of results =
  Array.map
    (fun (r : Solver.batch_result) ->
      r.Solver.outcome.Solver.result.Spectral_bound.bound)
    results

let run_round cache =
  bounds_of (Solver.bound_batch ~cache ~h:16 ~dense_threshold:24 (cache_jobs ()))

let cache_expected =
  lazy (bounds_of
          (Solver.bound_batch ~cache:Spectrum.disabled ~h:16 ~dense_threshold:24
             (cache_jobs ())))

let check_bounds plan label got =
  let expected = Lazy.force cache_expected in
  Array.iteri
    (fun i b ->
      if not (same_float b expected.(i)) then
        fail_plan plan "%s: job %d bound %h differs from fault-free %h" label i
          b expected.(i))
    got

let assert_no_leaked_tmp plan dir =
  Array.iter
    (fun f ->
      if contains_substring f ".tmp." then
        fail_plan plan "leaked temp file %s in cache dir" f)
    (Sys.readdir dir)

(* The shipped schedule matrix: every disk-tier site, every damage kind
   (error / torn / flipped byte), alone and in combination.  Seeds are
   offset by the chaos seed so CI's seed loop explores distinct fault
   sequences. *)
let cache_plans () =
  let s = chaos_seed in
  [
    Printf.sprintf "cache.disk.write:p=0.7:seed=%d" s;
    Printf.sprintf "cache.disk.write:p=0.7:seed=%d:kind=partial" (s + 1);
    Printf.sprintf "cache.disk.write:p=0.7:seed=%d:kind=flip" (s + 2);
    Printf.sprintf "cache.disk.read:p=0.7:seed=%d" (s + 3);
    Printf.sprintf "cache.disk.read:p=0.7:seed=%d:kind=partial" (s + 4);
    Printf.sprintf "cache.disk.read:p=0.7:seed=%d:kind=flip" (s + 5);
    Printf.sprintf "cache.disk.rename:p=0.7:seed=%d" (s + 6);
    Printf.sprintf "cache.checksum:p=0.6:seed=%d" (s + 7);
    Printf.sprintf "cache.*:p=0.3:seed=%d:kind=partial,cache.disk.rename:p=0.4:seed=%d"
      (s + 8) (s + 9);
  ]

let test_cache_chaos_matrix () =
  List.iter
    (fun plan ->
      let dir = fresh_dir "graphio_chaos_cache" in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          guard plan (fun () ->
              let cache = Spectrum.create ~dir () in
              F.with_plan plan (fun () ->
                  for round = 1 to 3 do
                    check_bounds plan
                      (Printf.sprintf "chaos round %d" round)
                      (run_round cache);
                    (* force the next round through the disk tier *)
                    Spectrum.drop_memory cache
                  done);
              (* plan removed: the cache must have fully recovered — the
                 final fault-free round is correct and no temp file from a
                 failed publish is left behind *)
              check_bounds plan "recovery round" (run_round cache);
              assert_no_leaked_tmp plan dir)))
    (cache_plans ())

(* Fire-proof per site: a deterministic nth=1 plan must make each cache
   site actually fire (counted by its fault.injected.* metric) while the
   bounds stay correct.  Sites on the read path need a warm cache first —
   they are only consulted once a record exists to read. *)
let test_cache_sites_fire () =
  List.iter
    (fun (site, warm_first) ->
      let plan = site ^ ":nth=1" in
      let dir = fresh_dir "graphio_chaos_fire" in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          guard plan (fun () ->
              let cache = Spectrum.create ~dir () in
              if warm_first then begin
                ignore (run_round cache);
                Spectrum.drop_memory cache
              end;
              let before = counter_of ("fault.injected." ^ site) in
              F.with_plan plan (fun () ->
                  check_bounds plan "round under fire" (run_round cache);
                  if F.injected_total () < 1 then
                    fail_plan plan "site %s never fired" site);
              if counter_of ("fault.injected." ^ site) <= before then
                fail_plan plan "fault.injected.%s did not increment" site)))
    [
      ("cache.disk.write", false);
      ("cache.disk.rename", false);
      ("cache.disk.read", true);
      ("cache.checksum", true);
    ]

(* ======================================================================
   Replay determinism: same plan + seed => same injected sequence
   ====================================================================== *)

let test_replay_determinism () =
  let plan =
    Printf.sprintf
      "cache.*:p=0.5:seed=%d:kind=partial,cache.disk.rename:p=0.3:seed=%d"
      chaos_seed (chaos_seed + 1)
  in
  let run () =
    let dir = fresh_dir "graphio_chaos_replay" in
    Fun.protect
      ~finally:(fun () -> rm_rf dir)
      (fun () ->
        F.with_plan plan (fun () ->
            let cache = Spectrum.create ~dir () in
            for _ = 1 to 3 do
              ignore (run_round cache);
              Spectrum.drop_memory cache
            done;
            F.injections ()))
  in
  let a = run () and b = run () in
  guard plan (fun () ->
      if List.length a = 0 then fail_plan plan "schedule never fired";
      if a <> b then
        fail_plan plan
          "two runs of the same plan injected different sequences (%d vs %d fires)"
          (List.length a) (List.length b))

(* ======================================================================
   Pool chaos: task-level injected exceptions
   ====================================================================== *)

let test_pool_task_injection () =
  let plan = "pool.task:nth=1" in
  Graphio_par.Pool.with_pool ~size:4 (fun pool ->
      let jobs = Array.init 8 (fun i () -> i * i) in
      guard plan (fun () ->
          F.with_plan plan (fun () ->
              match Graphio_par.Pool.run_all pool jobs with
              | _ -> fail_plan plan "run_all swallowed the injected task death"
              | exception F.Injected "pool.task" -> ()));
      (* the pool survives a dead task: the next batch is correct *)
      let r = Graphio_par.Pool.run_all pool jobs in
      Alcotest.(check (array int))
        "pool recovered after injected task death"
        (Array.init 8 (fun i -> i * i))
        r)

(* ======================================================================
   Server chaos
   ====================================================================== *)

open Graphio_server

let socket_path () =
  let path = Filename.temp_file "graphio_chaos" ".sock" in
  Sys.remove path;
  path

(* Like test_server's [with_server], plus: the fault plan is installed
   only while [f] runs (shutdown happens fault-free), and a crash of the
   server domain is captured and reported with the replay line instead of
   being swallowed by [Domain.join]. *)
let with_chaos_server ?(pool_size = 3) ?timeout_s plan f =
  let path = socket_path () in
  let transport = Server.Unix_socket path in
  let cfg =
    { Server.transport; pool_size; cache = Spectrum.disabled; timeout_s;
      h = 16; dense_threshold = Some 24; closed_form = true;
      warm_start = false;
      portfolio = None }
  in
  let listening = Atomic.make false in
  let crashed = Atomic.make "" in
  let server =
    Domain.spawn (fun () ->
        try Server.run ~ready:(fun () -> Atomic.set listening true) cfg
        with e -> Atomic.set crashed (Printexc.to_string e))
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Atomic.get listening)) && Unix.gettimeofday () < deadline do
    Thread.yield ()
  done;
  Fun.protect
    ~finally:(fun () ->
      F.clear ();
      (try
         let c = Client.connect transport in
         ignore (Client.rpc c {|{"op":"shutdown"}|});
         Client.close c
       with _ -> ());
      Domain.join server;
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      guard plan (fun () -> F.with_plan plan (fun () -> f transport path)));
  guard plan (fun () ->
      match Atomic.get crashed with
      | "" -> ()
      | msg -> fail_plan plan "server domain crashed: %s" msg)

let get name json =
  match Jsonx.member name json with
  | Some v -> v
  | None -> Alcotest.failf "reply missing %S: %s" name (Jsonx.to_string json)

let get_float name json =
  match get name json with
  | Jsonx.Float f -> f
  | Jsonx.Int i -> float_of_int i
  | _ -> Alcotest.failf "reply field %S not a number" name

(* Fault-free reference bound for one (spec, m) under the server's solver
   configuration (h = 16, dense_threshold = 24). *)
let expected_bound =
  let memo = Hashtbl.create 16 in
  fun spec m ->
    match Hashtbl.find_opt memo (spec, m) with
    | Some b -> b
    | None ->
        let g =
          match Graphio_workloads.Spec.parse spec with
          | Ok g -> g
          | Error e -> Alcotest.fail e
        in
        let b =
          (Solver.bound_cached ~cache:Spectrum.disabled ~h:16
             ~dense_threshold:24 (Solver.job g ~m))
            .Solver.outcome.Solver.result.Spectral_bound.bound
        in
        Hashtbl.add memo (spec, m) b;
        b

let server_queries = [ ("fft:3", 4); ("fft:4", 8); ("bhk:4", 8); ("inner:8", 4) ]

(* rpc every query on one connection; each reply must be ok and
   bitwise-equal to the fault-free solve *)
let check_strict_replies plan transport =
  let c = Client.connect transport in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      List.iteri
        (fun i (spec, m) ->
          let req = Printf.sprintf {|{"spec":%S,"m":%d,"id":%d}|} spec m i in
          let reply = Jsonx.of_string (Client.rpc c req) in
          (match get "ok" reply with
          | Jsonx.Bool true -> ()
          | _ ->
              fail_plan plan "query %s m=%d got error reply %s" spec m
                (Jsonx.to_string reply));
          let b = get_float "bound" reply in
          if not (same_float b (expected_bound spec m)) then
            fail_plan plan "query %s m=%d bound %h differs from fault-free %h"
              spec m b (expected_bound spec m))
        server_queries)

let test_server_read_partial () =
  let plan =
    Printf.sprintf "server.sock.read:p=0.6:seed=%d:kind=partial" chaos_seed
  in
  with_chaos_server plan (fun transport _path ->
      check_strict_replies plan transport)

let test_server_write_partial () =
  let plan =
    Printf.sprintf "server.sock.write:p=0.7:seed=%d:kind=partial" chaos_seed
  in
  with_chaos_server plan (fun transport _path ->
      check_strict_replies plan transport)

(* combo: torn reads + torn writes + dropped accept rounds + reply-path
   jitter, all at once; replies must still be bitwise-correct *)
let test_server_combo_partial () =
  let s = chaos_seed in
  let plan =
    Printf.sprintf
      "server.sock.read:p=0.4:seed=%d:kind=partial,server.sock.write:p=0.4:seed=%d:kind=partial,server.accept:p=0.5:seed=%d,server.deadline:p=1:seed=%d:kind=delay:ms=1"
      s (s + 1) (s + 2) (s + 3)
  in
  with_chaos_server plan (fun transport _path ->
      check_strict_replies plan transport)

(* mid-request disconnect: the first socket read fires -> the server drops
   the connection without replying; the client observes EOF, the server
   survives, and the next connection is answered correctly *)
let test_server_read_disconnect () =
  let plan = "server.sock.read:nth=1" in
  let before = counter_of "fault.injected.server.sock.read" in
  with_chaos_server plan (fun transport _path ->
      let c = Client.connect transport in
      (match Client.rpc c {|{"spec":"fft:3","m":4}|} with
      | reply -> fail_plan plan "expected a dropped connection, got %s" reply
      | exception End_of_file -> ()
      | exception (Sys_error _ | Unix.Unix_error _) ->
          (* dropping a connection with unread request bytes sends RST,
             so the client may see ECONNRESET instead of clean EOF *)
          ());
      (try Client.close c with _ -> ());
      if counter_of "fault.injected.server.sock.read" <> before + 1 then
        fail_plan plan "server.sock.read did not fire exactly once";
      (* nth=1 is exhausted: a fresh connection gets the real answer *)
      check_strict_replies plan transport)

(* dead write side: the first flush fires -> reply dropped, peer closed;
   later connections are unaffected *)
let test_server_write_fail () =
  let plan = "server.sock.write:nth=1" in
  let before = counter_of "fault.injected.server.sock.write" in
  with_chaos_server plan (fun transport _path ->
      let c = Client.connect transport in
      (match Client.rpc c {|{"spec":"fft:3","m":4}|} with
      | reply -> fail_plan plan "expected a dropped reply, got %s" reply
      | exception End_of_file -> ());
      (try Client.close c with _ -> ());
      if counter_of "fault.injected.server.sock.write" <> before + 1 then
        fail_plan plan "server.sock.write did not fire exactly once";
      check_strict_replies plan transport)

(* a fired accept skips the round; the connection waits in the kernel
   backlog and is accepted on the next loop iteration *)
let test_server_accept_skip () =
  let plan = "server.accept:nth=1" in
  let before = counter_of "fault.injected.server.accept" in
  with_chaos_server plan (fun transport _path ->
      check_strict_replies plan transport;
      if counter_of "fault.injected.server.accept" <= before then
        fail_plan plan "server.accept never fired")

(* Regression (latent bug found by the injector): a reply composed after
   the deadline passed used to be sent as a late success, because the
   deadline was only checked before the solve and per eigensolver sweep.
   Injected jitter between solve and reply must yield the structured
   timeout instead. *)
let test_server_deadline_jitter () =
  let plan = "server.deadline:nth=1:kind=delay:ms=120" in
  let before = counter_of "fault.injected.server.deadline" in
  with_chaos_server ~timeout_s:0.05 plan (fun transport _path ->
      let c = Client.connect transport in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let reply = Jsonx.of_string (Client.rpc c {|{"spec":"fft:3","m":4}|}) in
          (match get "ok" reply with
          | Jsonx.Bool false -> ()
          | _ ->
              fail_plan plan "late reply sent as success: %s"
                (Jsonx.to_string reply));
          (match get "code" reply with
          | Jsonx.String "timeout" -> ()
          | j ->
              fail_plan plan "expected code timeout, got %s" (Jsonx.to_string j));
          if counter_of "fault.injected.server.deadline" <= before then
            fail_plan plan "server.deadline never fired"))

(* ------------------------- raw-socket helpers ------------------------- *)

let raw_connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec go n =
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> ()
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when n > 0 ->
        Unix.sleepf 0.05;
        go (n - 1)
  in
  go 100;
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  fd

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

(* read lines until EOF (or the receive timeout) *)
let read_lines_until_eof fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  (try
     let rec go () =
       match Unix.read fd chunk 0 (Bytes.length chunk) with
       | 0 -> ()
       | n ->
           Buffer.add_subbytes buf chunk 0 n;
           go ()
     in
     go ()
   with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l -> String.trim l <> "")

(* Pipelined dispatch through the domain pool: >1 request in one socket
   write lands in one select round, so the tasks go through Pool.run_all
   together.  The injected task death makes run_all raise; the server must
   fall back, answer every request, and keep running — the historical
   behavior was a server crash. *)
let test_server_pool_task_death () =
  let plan = "pool.task:nth=1" in
  let before = counter_of "fault.injected.pool.task" in
  with_chaos_server ~pool_size:3 plan (fun _transport path ->
      let fd = raw_connect path in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let ms = [ 4; 5; 6; 7 ] in
          let reqs =
            List.mapi
              (fun i m -> Printf.sprintf {|{"spec":"fft:3","m":%d,"id":%d}|} m i)
              ms
          in
          write_all fd (String.concat "\n" reqs ^ "\n");
          Unix.shutdown fd Unix.SHUTDOWN_SEND;
          let replies = read_lines_until_eof fd in
          if List.length replies <> List.length ms then
            fail_plan plan "expected %d replies, got %d: %s" (List.length ms)
              (List.length replies)
              (String.concat " | " replies);
          List.iteri
            (fun i line ->
              let reply = Jsonx.of_string line in
              (match get "id" reply with
              | Jsonx.Int id when id = i -> ()
              | _ -> fail_plan plan "reply %d out of order: %s" i line);
              match get "ok" reply with
              | Jsonx.Bool true ->
                  let b = get_float "bound" reply in
                  let e = expected_bound "fft:3" (List.nth ms i) in
                  if not (same_float b e) then
                    fail_plan plan "reply %d bound %h differs from fault-free %h"
                      i b e
              | Jsonx.Bool false -> (
                  (* a structured error is acceptable — but only the
                     internal-error shape, never a silent wrong bound *)
                  match get "code" reply with
                  | Jsonx.String "internal" -> ()
                  | j ->
                      fail_plan plan "reply %d unexpected error code %s"
                        i (Jsonx.to_string j))
              | _ -> fail_plan plan "reply %d malformed: %s" i line)
            replies;
          if counter_of "fault.injected.pool.task" <= before then
            fail_plan plan "pool.task never fired"))

(* Read-side byte flips can rewrite a request into a different-but-valid
   one, so the bitwise oracle does not apply (and such plans are excluded
   from the strict schedules above).  The surviving invariants: the server
   never crashes, every reply line is well-formed JSON with an ok field,
   and the server still drains cleanly afterwards. *)
let test_server_read_flip_survival () =
  let plan =
    Printf.sprintf "server.sock.read:p=0.5:seed=%d:kind=flip" chaos_seed
  in
  with_chaos_server plan (fun _transport path ->
      for i = 0 to 5 do
        let fd = raw_connect path in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            write_all fd
              (Printf.sprintf {|{"spec":"fft:3","m":%d,"id":%d}|} (4 + i) i
              ^ "\n");
            Unix.shutdown fd Unix.SHUTDOWN_SEND;
            List.iter
              (fun line ->
                match Jsonx.of_string line with
                | exception _ ->
                    fail_plan plan "connection %d: reply not JSON: %s" i line
                | reply -> (
                    match Jsonx.member "ok" reply with
                    | Some (Jsonx.Bool _) -> ()
                    | _ ->
                        fail_plan plan "connection %d: reply missing ok: %s" i
                          line))
              (read_lines_until_eof fd))
      done)

(* ======================================================================
   Store chaos: binary CSR files under injected damage
   ====================================================================== *)

module Store = Graphio_store.Store
module Convert = Graphio_store.Convert

(* Oracle: under any store.* schedule, write-then-load either raises a
   structured [Store.Error] or yields exactly the graph that was written
   (fingerprint-equal) — never a silently different graph.  Torn and
   flipped writes are deliberately published (the checksums, not the
   writer, are the trust boundary), so those schedules must surface as
   load-time errors.  The record is written both ways: [Store.write] of
   the graph and [Convert.convert] of its text ([g.el], written before the
   plan is installed). *)
let store_graph =
  lazy
    (Graphio_graph.Dag.replicate
       (Graphio_graph.Dag.of_edges ~n:4
          ~labels:[| "a"; ""; "b c"; "" |]
          [ (0, 1); (0, 2); (1, 3); (2, 3) ])
       ~copies:3)

let store_plans () =
  let s = chaos_seed in
  [
    Printf.sprintf "store.file.write:p=0.7:seed=%d" s;
    Printf.sprintf "store.file.write:p=0.7:seed=%d:kind=partial" (s + 1);
    Printf.sprintf "store.file.write:p=0.7:seed=%d:kind=flip" (s + 2);
    Printf.sprintf "store.file.read:p=0.7:seed=%d" (s + 3);
    Printf.sprintf "store.file.read:p=0.7:seed=%d:kind=partial" (s + 4);
    Printf.sprintf "store.file.read:p=0.7:seed=%d:kind=flip" (s + 5);
    Printf.sprintf "store.file.rename:p=0.7:seed=%d" (s + 6);
    Printf.sprintf "store.checksum:p=0.6:seed=%d" (s + 7);
    Printf.sprintf
      "store.*:p=0.3:seed=%d:kind=partial,store.file.rename:p=0.4:seed=%d"
      (s + 8) (s + 9);
  ]

let write_store_text dir =
  Graphio_graph.Edgelist.to_file (Filename.concat dir "g.el")
    (Lazy.force store_graph)

let store_round ?(via = `Write) plan dir round =
  let g = Lazy.force store_graph in
  let publish, path =
    match via with
    | `Write ->
        let path = Filename.concat dir (Printf.sprintf "g%d.gcsr" round) in
        ((fun () -> Store.write path g), path)
    | `Convert ->
        let path = Filename.concat dir (Printf.sprintf "c%d.gcsr" round) in
        ( (fun () ->
            ignore
              (Convert.convert ~input:(Filename.concat dir "g.el") ~output:path)),
          path )
  in
  match publish () with
  | exception Store.Error _ ->
      (* a failed publish must not leave a half-written target *)
      if Sys.file_exists path then
        fail_plan plan "round %d: failed write left %s behind" round path
  | () -> (
      match Store.load path with
      | exception Store.Error _ -> ()
      | t ->
          if not (Int64.equal (Store.fingerprint t) (Graphio_graph.Dag.fingerprint g))
          then
            fail_plan plan
              "round %d: load returned a different graph under faults" round)

let test_store_chaos_matrix () =
  List.iter
    (fun plan ->
      let dir = fresh_dir "graphio_chaos_store" in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          guard plan (fun () ->
              write_store_text dir;
              F.with_plan plan (fun () ->
                  for round = 1 to 4 do
                    store_round plan dir round;
                    store_round ~via:`Convert plan dir round
                  done);
              (* plan removed: fault-free write/load round-trips, and no
                 temp file from any failed publish is left behind *)
              let g = Lazy.force store_graph in
              let path = Filename.concat dir "recovery.gcsr" in
              Store.write path g;
              if
                not
                  (Int64.equal
                     (Store.fingerprint (Store.load path))
                     (Graphio_graph.Dag.fingerprint g))
              then fail_plan plan "recovery roundtrip changed the graph";
              assert_no_leaked_tmp plan dir)))
    (store_plans ())

let test_store_sites_fire () =
  List.iter
    (fun (site, on_read_path, via) ->
      let plan = site ^ ":nth=1" in
      let dir = fresh_dir "graphio_chaos_store_fire" in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          guard plan (fun () ->
              let g = Lazy.force store_graph in
              let path = Filename.concat dir "g.gcsr" in
              if on_read_path then Store.write path g;
              write_store_text dir;
              let before = counter_of ("fault.injected." ^ site) in
              F.with_plan plan (fun () ->
                  store_round ~via plan dir 1;
                  if on_read_path then (
                    match Store.load path with
                    | exception Store.Error _ -> ()
                    | t ->
                        if
                          not
                            (Int64.equal (Store.fingerprint t)
                               (Graphio_graph.Dag.fingerprint g))
                        then fail_plan plan "faulted load changed the graph");
                  if F.injected_total () < 1 then
                    fail_plan plan "site %s never fired" site);
              if counter_of ("fault.injected." ^ site) <= before then
                fail_plan plan "fault.injected.%s did not increment" site)))
    [
      ("store.file.write", false, `Write);
      ("store.file.rename", false, `Write);
      ("store.file.read", true, `Write);
      ("store.checksum", true, `Write);
      ("store.file.write", false, `Convert);
      ("store.file.rename", false, `Convert);
    ]

(* ======================================================================= *)

let () =
  Alcotest.run "graphio_chaos"
    [
      ( "fault",
        [
          Alcotest.test_case "parse ok" `Quick test_parse_ok;
          Alcotest.test_case "parse errors" `Quick test_parse_err;
          Alcotest.test_case "inert without plan" `Quick test_inert_without_plan;
          Alcotest.test_case "nth semantics" `Quick test_nth_semantics;
          Alcotest.test_case "count cap" `Quick test_count_cap;
          Alcotest.test_case "probabilistic replay" `Quick test_prob_replay;
          Alcotest.test_case "kind outcomes" `Quick test_kind_outcomes;
          Alcotest.test_case "wildcard per-site streams" `Quick
            test_wildcard_per_site;
          Alcotest.test_case "step raises Injected" `Quick test_step_raises;
          Alcotest.test_case "fires are metered" `Quick test_fire_metrics;
          Alcotest.test_case "with_plan restores" `Quick test_with_plan_restores;
        ] );
      ( "replay",
        [ Alcotest.test_case "same plan+seed, same injections" `Quick
            test_replay_determinism ] );
      ( "cache",
        [
          Alcotest.test_case "chaos matrix: bounds bitwise-stable" `Quick
            test_cache_chaos_matrix;
          Alcotest.test_case "every site fires (nth=1)" `Quick
            test_cache_sites_fire;
        ] );
      ( "store",
        [
          Alcotest.test_case "chaos matrix: fail closed or faithful" `Quick
            test_store_chaos_matrix;
          Alcotest.test_case "every site fires (nth=1)" `Quick
            test_store_sites_fire;
        ] );
      ( "pool",
        [ Alcotest.test_case "injected task death" `Quick
            test_pool_task_injection ] );
      ( "server",
        [
          Alcotest.test_case "torn reads: strict replies" `Quick
            test_server_read_partial;
          Alcotest.test_case "torn writes: strict replies" `Quick
            test_server_write_partial;
          Alcotest.test_case "combo schedule: strict replies" `Quick
            test_server_combo_partial;
          Alcotest.test_case "mid-request disconnect" `Quick
            test_server_read_disconnect;
          Alcotest.test_case "dead write side" `Quick test_server_write_fail;
          Alcotest.test_case "accept round skipped" `Quick
            test_server_accept_skip;
          Alcotest.test_case "deadline jitter -> structured timeout" `Quick
            test_server_deadline_jitter;
          Alcotest.test_case "pooled task death mid-batch" `Quick
            test_server_pool_task_death;
          Alcotest.test_case "read flips: survival" `Quick
            test_server_read_flip_survival;
        ] );
    ]
