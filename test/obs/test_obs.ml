open Graphio_obs

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

let test_clock_monotone () =
  let a = Clock.now_ns () in
  let b = Clock.now_ns () in
  Alcotest.(check bool) "non-decreasing" true (b >= a);
  Alcotest.(check bool) "plausible magnitude" true (a > 0);
  let x, dt = Clock.time (fun () -> Sys.opaque_identity 42) in
  Alcotest.(check int) "value passed through" 42 x;
  Alcotest.(check bool) "duration non-negative" true (dt >= 0.0)

(* ------------------------------------------------------------------ *)
(* FNV-1a                                                              *)
(* ------------------------------------------------------------------ *)

let test_fnv1a_vectors () =
  (* the published FNV-1a-64 test vectors *)
  List.iter
    (fun (s, h) ->
      Alcotest.(check int64) (Printf.sprintf "%S" s) h (Fnv1a.string s))
    [
      ("", 0xcbf29ce484222325L);
      ("a", 0xaf63dc4c8601ec8cL);
      ("foobar", 0x85944171f73967e8L);
    ];
  Alcotest.(check int64) "bytes folds a slice like string"
    (Fnv1a.string "oob")
    (Fnv1a.bytes Fnv1a.offset (Bytes.of_string "foobar") 1 3)

(* Every hash built on it, pinned to its value before the one shared
   step existed, so that a drift in graph fingerprints (hence cache keys)
   or in the cache's parameter digest fails here.  The store's checksums
   are pinned by test/store's own FNV copy. *)
let test_fnv1a_pinned_users () =
  Alcotest.(check int64) "Dag.fingerprint (Fft.build 4)" 0xa19d0089224cdd0dL
    (Graphio_graph.Dag.fingerprint (Graphio_workloads.Fft.build 4));
  Alcotest.(check int64) "default Spectrum.params_digest" 0x9ac5e12119fd3f85L
    (Graphio_cache.Spectrum.params_digest ~dense_threshold:None ~tol:None
       ~seed:None ~filter_degree:None)

(* ------------------------------------------------------------------ *)
(* Jsonx                                                               *)
(* ------------------------------------------------------------------ *)

let test_jsonx_round_trip () =
  let doc =
    Jsonx.Obj
      [
        ("s", Jsonx.String "a \"quoted\"\nline");
        ("i", Jsonx.Int (-42));
        ("f", Jsonx.Float 0.125);
        ("b", Jsonx.Bool true);
        ("null", Jsonx.Null);
        ("l", Jsonx.List [ Jsonx.Int 1; Jsonx.Float 2.5; Jsonx.String "x" ]);
        ("o", Jsonx.Obj [ ("nested", Jsonx.Bool false) ]);
      ]
  in
  let reparsed = Jsonx.of_string (Jsonx.to_string doc) in
  Alcotest.(check bool) "round-trips" true (reparsed = doc);
  Alcotest.(check bool) "member" true
    (Jsonx.member "i" doc = Some (Jsonx.Int (-42)));
  Alcotest.(check bool) "absent member" true (Jsonx.member "zzz" doc = None)

let test_jsonx_malformed () =
  List.iter
    (fun s ->
      match Jsonx.of_string s with
      | exception Failure _ -> ()
      | v -> Alcotest.failf "parsed %S as %s" s (Jsonx.to_string v))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2" ]

let test_jsonx_non_finite () =
  Alcotest.(check string) "nan is null" "null" (Jsonx.to_string (Jsonx.Float Float.nan));
  Alcotest.(check string) "inf is null" "null"
    (Jsonx.to_string (Jsonx.Float Float.infinity))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_counters () =
  Metrics.reset ();
  let c = Metrics.counter "test.counter" in
  Metrics.incr c;
  Metrics.add c 41;
  Alcotest.(check int) "accumulates" 42 (Metrics.counter_value c);
  (* handles registered under the same name share state *)
  let c' = Metrics.counter "test.counter" in
  Metrics.incr c';
  Alcotest.(check int) "shared handle" 43 (Metrics.counter_value c);
  Alcotest.check_raises "negative add"
    (Invalid_argument "Metrics.add: negative delta on \"test.counter\"")
    (fun () -> Metrics.add c (-1));
  (match Metrics.gauge "test.counter" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind clash not rejected");
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Metrics.counter_value c)

let test_histograms () =
  Metrics.reset ();
  let h = Metrics.histogram ~buckets:[| 1.0; 10.0; 100.0 |] "test.hist" in
  List.iter (Metrics.observe h) [ 0.5; 5.0; 5.0; 50.0; 5000.0 ];
  (match Metrics.find (Metrics.snapshot ()) "test.hist" with
  | Some (Metrics.Histogram { buckets; counts; sum; count }) ->
      Alcotest.(check (array (float 0.0))) "bucket bounds" [| 1.0; 10.0; 100.0 |] buckets;
      Alcotest.(check (array int)) "bucket counts" [| 1; 2; 1; 1 |] counts;
      Alcotest.(check (float 1e-9)) "sum" 5060.5 sum;
      Alcotest.(check int) "count" 5 count
  | _ -> Alcotest.fail "histogram missing from snapshot");
  (match Metrics.histogram ~buckets:[| 3.0; 2.0 |] "test.hist.bad" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unsorted buckets not rejected");
  let timed = Metrics.time h (fun () -> "done") in
  Alcotest.(check string) "time passes value" "done" timed

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
  scan 0

let test_metrics_json_round_trip () =
  Metrics.reset ();
  let c = Metrics.counter "test.rt.counter" in
  Metrics.add c 7;
  Metrics.set (Metrics.gauge "test.rt.gauge") 2.5;
  Metrics.observe (Metrics.histogram "test.rt.hist") 0.003;
  let snap = Metrics.snapshot () in
  let reparsed =
    Metrics.of_json (Jsonx.of_string (Jsonx.to_string (Metrics.to_json snap)))
  in
  Alcotest.(check bool) "snapshot round-trips through JSON text" true
    (Metrics.equal snap reparsed);
  let rendered = Metrics.render_text snap in
  Alcotest.(check bool) "render mentions the counter" true
    (contains rendered "test.rt.counter");
  Alcotest.(check bool) "render mentions its value" true (contains rendered "7")

(* Shared handles, hammered from several domains at once: every update
   must land (atomics for counters/gauges, a mutex per histogram) —
   lost increments would silently understate served traffic. *)
let test_metrics_domain_safety () =
  Metrics.reset ();
  let c = Metrics.counter "test.hammer.counter" in
  let h = Metrics.histogram ~buckets:[| 1.0; 2.0 |] "test.hammer.hist" in
  let domains = 4 and per_domain = 50_000 in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Metrics.incr c;
              if i mod 100 = 0 then
                Metrics.observe h (float_of_int ((d + i) mod 3))
            done))
  in
  List.iter Domain.join workers;
  Alcotest.(check int) "no lost counter increments" (domains * per_domain)
    (Metrics.counter_value c);
  match Metrics.find (Metrics.snapshot ()) "test.hammer.hist" with
  | Some (Metrics.Histogram { count; counts; _ }) ->
      Alcotest.(check int) "no lost observations"
        (domains * (per_domain / 100))
        count;
      Alcotest.(check int) "bucket counts sum to count" count
        (Array.fold_left ( + ) 0 counts)
  | _ -> Alcotest.fail "hammered histogram missing"

(* ------------------------------------------------------------------ *)
(* Quantiles                                                           *)
(* ------------------------------------------------------------------ *)

let test_quantile_edges () =
  Metrics.reset ();
  let h = Metrics.histogram ~buckets:[| 1.0; 2.0; 4.0 |] "test.q.hist" in
  Alcotest.(check bool) "empty histogram has no quantiles" true
    (Metrics.quantile h 0.5 = None);
  (match Metrics.quantile h 1.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "q > 1 not rejected");
  (match Metrics.quantile h Float.nan with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "nan q not rejected");
  (* one observation in (1, 2]: every quantile interpolates inside it *)
  Metrics.observe h 1.5;
  (match Metrics.quantile h 0.5 with
  | Some v -> Alcotest.(check bool) "inside its bucket" true (v > 1.0 && v <= 2.0)
  | None -> Alcotest.fail "non-empty histogram");
  (* overflow observations clamp to the last finite bound *)
  Metrics.reset ();
  Metrics.observe h 100.0;
  Alcotest.(check (option (float 1e-9))) "overflow clamps" (Some 4.0)
    (Metrics.quantile h 0.99);
  (* uniform fill: the median of 1..100 over buckets [25;50;75;100] must
     land in the (25, 50] bucket *)
  Metrics.reset ();
  let h2 = Metrics.histogram ~buckets:[| 25.0; 50.0; 75.0; 100.0 |] "test.q.u" in
  for i = 1 to 100 do
    Metrics.observe h2 (float_of_int i)
  done;
  match Metrics.quantile h2 0.5 with
  | Some v -> Alcotest.(check bool) "median in median bucket" true (v > 25.0 && v <= 50.0)
  | None -> Alcotest.fail "non-empty histogram"

(* Property: the interpolated quantile always lands in the bucket holding
   the exact sorted-sample quantile (rank ceil(q*n), 1-based).  Oracle is
   a sort of the raw samples — the thing the histogram approximates. *)
let quantile_vs_oracle_prop =
  let buckets = [| 0.001; 0.01; 0.1; 1.0; 10.0 |] in
  let bucket_index v =
    let i = ref 0 in
    while !i < Array.length buckets && v > buckets.(!i) do
      incr i
    done;
    !i
  in
  let gen =
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 200) (float_range 0.0001 20.0))
        (float_range 0.0 1.0))
  in
  QCheck2.Test.make ~name:"quantile lands in the oracle's bucket" ~count:200 gen
    (fun (samples, q) ->
      Metrics.reset ();
      let h = Metrics.histogram ~buckets "test.q.prop" in
      List.iter (Metrics.observe h) samples;
      let est =
        match Metrics.quantile h q with
        | Some v -> v
        | None -> QCheck2.Test.fail_report "empty quantile on non-empty data"
      in
      let sorted = List.sort compare samples |> Array.of_list in
      let n = Array.length sorted in
      let rank =
        max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1)
      in
      let oracle = sorted.(min rank (n - 1)) in
      let oi = bucket_index oracle in
      if oi >= Array.length buckets then
        (* oracle overflows: the estimate clamps to the last bound *)
        est = buckets.(Array.length buckets - 1)
      else
        let lo = if oi = 0 then 0.0 else buckets.(oi - 1) in
        est >= lo && est <= buckets.(oi))

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                               *)
(* ------------------------------------------------------------------ *)

(* One line of the text exposition format: a comment (# HELP / # TYPE) or
   [name[{labels}] value] with a sanitized metric name. *)
let prometheus_line_ok line =
  let is_name_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_' || c = ':'
  in
  if line = "" then true
  else if String.length line >= 2 && String.sub line 0 2 = "# " then
    contains line "# HELP " || contains line "# TYPE "
  else
    match String.index_opt line ' ' with
    | None -> false
    | Some sp ->
        let name_part = String.sub line 0 sp in
        let name_end =
          match String.index_opt name_part '{' with
          | Some b -> String.ends_with ~suffix:"}" name_part && b > 0
          | None -> String.for_all is_name_char name_part
        in
        let value = String.sub line (sp + 1) (String.length line - sp - 1) in
        name_end && (value = "+Inf" || Float.of_string_opt value <> None)

let test_prometheus_render () =
  Metrics.reset ();
  let c = Metrics.counter ~help:"a counter" "test.prom.counter" in
  Metrics.add c 5;
  Metrics.set (Metrics.gauge "test.prom.gauge") 1.25;
  let h = Metrics.histogram ~buckets:[| 0.1; 1.0 |] "test.prom.hist" in
  List.iter (Metrics.observe h) [ 0.05; 0.5; 0.5; 3.0 ];
  let text = Metrics.render_prometheus (Metrics.snapshot ()) in
  List.iteri
    (fun i line ->
      if not (prometheus_line_ok line) then
        Alcotest.failf "line %d violates the exposition grammar: %S" (i + 1) line)
    (String.split_on_char '\n' text);
  Alcotest.(check bool) "names are sanitized" true
    (contains text "test_prom_counter 5");
  Alcotest.(check bool) "help rendered" true
    (contains text "# HELP test_prom_counter a counter");
  Alcotest.(check bool) "type rendered" true
    (contains text "# TYPE test_prom_hist histogram");
  (* histogram buckets are cumulative, and +Inf carries the total *)
  Alcotest.(check bool) "le=0.1 cumulative" true
    (contains text "test_prom_hist_bucket{le=\"0.1\"} 1");
  Alcotest.(check bool) "le=1 cumulative" true
    (contains text "test_prom_hist_bucket{le=\"1\"} 3");
  Alcotest.(check bool) "+Inf is the count" true
    (contains text "test_prom_hist_bucket{le=\"+Inf\"} 4");
  Alcotest.(check bool) "sum" true (contains text "test_prom_hist_sum 4.05");
  Alcotest.(check bool) "count" true (contains text "test_prom_hist_count 4")

(* ------------------------------------------------------------------ *)
(* Ctx and Log                                                         *)
(* ------------------------------------------------------------------ *)

let test_ctx () =
  Alcotest.(check bool) "no ambient id by default" true (Ctx.rid () = None);
  let a = Ctx.fresh () and b = Ctx.fresh () in
  Alcotest.(check bool) "fresh ids are distinct" true (a <> b);
  Alcotest.(check bool) "prefix respected" true
    (String.length (Ctx.fresh ~prefix:"conn" ()) > 5
    && String.sub (Ctx.fresh ~prefix:"conn" ()) 0 5 = "conn-");
  let seen = ref [] in
  Ctx.with_rid "outer" (fun () ->
      seen := Ctx.rid () :: !seen;
      Ctx.with_rid "inner" (fun () -> seen := Ctx.rid () :: !seen);
      seen := Ctx.rid () :: !seen);
  Alcotest.(check bool) "nesting restores" true
    (!seen = [ Some "outer"; Some "inner"; Some "outer" ]);
  Alcotest.(check bool) "restored to none" true (Ctx.rid () = None);
  (match Ctx.with_rid "boom" (fun () -> failwith "x") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception swallowed");
  Alcotest.(check bool) "restored after raise" true (Ctx.rid () = None);
  (* domain-local: a spawned domain does not see the parent's id *)
  Ctx.with_rid "parent" (fun () ->
      let child = Domain.spawn (fun () -> Ctx.rid ()) in
      Alcotest.(check bool) "child domain starts clean" true
        (Domain.join child = None))

let read_lines path = In_channel.with_open_text path In_channel.input_lines

let test_log_emit () =
  let path = Filename.temp_file "graphio_log" ".ndjson" in
  Fun.protect
    ~finally:(fun () ->
      Log.close ();
      Log.set_level Log.Info;
      Sys.remove path)
    (fun () ->
      Log.open_file path;
      Log.set_level Log.Info;
      Log.emit "test.plain" [ ("k", Jsonx.Int 1) ];
      Ctx.with_rid "req-test" (fun () ->
          Log.emit "test.with_rid" [ ("k", Jsonx.Int 2) ]);
      Log.emit ~level:Log.Debug "test.filtered" [];
      Alcotest.(check bool) "debug disabled at info" false (Log.enabled Log.Debug);
      Log.set_level Log.Debug;
      Log.emit ~level:Log.Debug "test.debug" [];
      Log.close ();
      match read_lines path with
      | [ l1; l2; l3 ] ->
          let j1 = Jsonx.of_string l1 and j2 = Jsonx.of_string l2 in
          Alcotest.(check bool) "event name" true
            (Jsonx.member "event" j1 = Some (Jsonx.String "test.plain"));
          Alcotest.(check bool) "level stamped" true
            (Jsonx.member "level" j1 = Some (Jsonx.String "info"));
          Alcotest.(check bool) "ts_ns present" true
            (match Jsonx.member "ts_ns" j1 with Some (Jsonx.Int t) -> t > 0 | _ -> false);
          Alcotest.(check bool) "no rid without ambient id" true
            (Jsonx.member "rid" j1 = None);
          Alcotest.(check bool) "ambient rid attached" true
            (Jsonx.member "rid" j2 = Some (Jsonx.String "req-test"));
          Alcotest.(check bool) "field payload" true
            (Jsonx.member "k" j2 = Some (Jsonx.Int 2));
          Alcotest.(check bool) "debug after level change" true
            (Jsonx.member "event" (Jsonx.of_string l3)
            = Some (Jsonx.String "test.debug"))
      | ls -> Alcotest.failf "expected 3 log lines, got %d" (List.length ls))

let test_log_no_sink_noop () =
  Log.close ();
  (* must be a no-op, not a crash, when no sink is installed *)
  Log.emit "test.nowhere" [ ("x", Jsonx.Int 1) ];
  Alcotest.(check bool) "disabled without sink" false (Log.enabled Log.Error)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_spans_disabled_hot_path () =
  Span.set_enabled false;
  Span.clear ();
  let m =
    Graphio_la.Csr.of_triplets ~rows:2 ~cols:2 [ (0, 0, 2.0); (1, 1, 3.0) ]
  in
  let matvec_counter = Metrics.counter "la.csr.matvecs" in
  let before = Metrics.counter_value matvec_counter in
  for _ = 1 to 100 do
    ignore (Graphio_la.Csr.matvec m [| 1.0; 1.0 |])
  done;
  (* the span-instrumented dense eigenpath, still with tracing disabled *)
  ignore (Graphio_la.Eigen.smallest ~h:2 m);
  Alcotest.(check int) "no span records while disabled" 0 (Span.record_count ());
  Alcotest.(check bool) "counters still count" true
    (Metrics.counter_value matvec_counter - before >= 100)

let test_spans_nested () =
  Span.set_enabled true;
  Span.clear ();
  let r =
    Span.with_ "outer" (fun () ->
        Span.with_ "inner" (fun () -> Sys.opaque_identity 7))
  in
  Span.set_enabled false;
  Alcotest.(check int) "value through spans" 7 r;
  match Span.records () with
  | [ inner; outer ] ->
      Alcotest.(check string) "inner completes first" "inner" inner.Span.name;
      Alcotest.(check string) "outer completes last" "outer" outer.Span.name;
      Alcotest.(check int) "inner depth" 1 inner.Span.depth;
      Alcotest.(check int) "outer depth" 0 outer.Span.depth;
      Alcotest.(check bool) "inner starts within outer" true
        (inner.Span.start_ns >= outer.Span.start_ns);
      Alcotest.(check bool) "inner ends within outer" true
        (inner.Span.start_ns + inner.Span.dur_ns
        <= outer.Span.start_ns + outer.Span.dur_ns)
  | rs -> Alcotest.failf "expected 2 records, got %d" (List.length rs)

let test_spans_exception_safe () =
  Span.set_enabled true;
  Span.clear ();
  (match Span.with_ "boom" (fun () -> failwith "expected") with
  | exception Failure msg -> Alcotest.(check string) "re-raised" "expected" msg
  | _ -> Alcotest.fail "exception swallowed");
  Span.set_enabled false;
  Alcotest.(check int) "span recorded despite raise" 1 (Span.record_count ());
  Span.clear ()

let test_trace_event_export () =
  Span.set_enabled true;
  Span.clear ();
  Span.with_ "parent" (fun () ->
      Span.with_ "child" (fun () -> ignore (Sys.opaque_identity 1)));
  Span.set_enabled false;
  let doc = Span.to_trace_json () in
  (* must survive its own printer/parser: what we write to disk is valid *)
  let reparsed = Jsonx.of_string (Jsonx.to_string doc) in
  (match Jsonx.member "traceEvents" reparsed with
  | Some (Jsonx.List events) ->
      Alcotest.(check int) "two events" 2 (List.length events);
      List.iter
        (fun ev ->
          Alcotest.(check bool) "complete-event phase" true
            (Jsonx.member "ph" ev = Some (Jsonx.String "X"));
          (match Jsonx.member "name" ev with
          | Some (Jsonx.String ("parent" | "child")) -> ()
          | other ->
              Alcotest.failf "unexpected name field: %s"
                (match other with Some v -> Jsonx.to_string v | None -> "absent"));
          (match Jsonx.member "ts" ev with
          | Some (Jsonx.Float ts) ->
              Alcotest.(check bool) "ts non-negative" true (ts >= 0.0)
          | Some (Jsonx.Int ts) ->
              Alcotest.(check bool) "ts non-negative" true (ts >= 0)
          | _ -> Alcotest.fail "missing ts");
          match Jsonx.member "dur" ev with
          | Some (Jsonx.Float _ | Jsonx.Int _) -> ()
          | _ -> Alcotest.fail "missing dur")
        events
  | _ -> Alcotest.fail "no traceEvents array");
  Span.clear ()

let test_span_rid () =
  Span.set_enabled true;
  Span.clear ();
  Ctx.with_rid "req-span" (fun () ->
      Span.with_ "correlated" (fun () -> ignore (Sys.opaque_identity 1)));
  Span.with_ "uncorrelated" (fun () -> ignore (Sys.opaque_identity 2));
  Span.set_enabled false;
  (match Span.records () with
  | [ a; b ] ->
      Alcotest.(check bool) "ambient rid captured" true
        (a.Span.rid = Some "req-span");
      Alcotest.(check bool) "no rid without ambient id" true (b.Span.rid = None)
  | rs -> Alcotest.failf "expected 2 records, got %d" (List.length rs));
  let doc = Jsonx.to_string (Span.to_trace_json ()) in
  Alcotest.(check bool) "rid exported in trace args" true
    (contains doc "\"rid\":\"req-span\"");
  Span.clear ()

let () =
  Alcotest.run "graphio_obs"
    [
      ("clock", [ Alcotest.test_case "monotone" `Quick test_clock_monotone ]);
      ( "fnv1a",
        [
          Alcotest.test_case "published vectors" `Quick test_fnv1a_vectors;
          Alcotest.test_case "pinned users" `Quick test_fnv1a_pinned_users;
        ] );
      ( "jsonx",
        [
          Alcotest.test_case "round trip" `Quick test_jsonx_round_trip;
          Alcotest.test_case "malformed rejected" `Quick test_jsonx_malformed;
          Alcotest.test_case "non-finite floats" `Quick test_jsonx_non_finite;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "histograms" `Quick test_histograms;
          Alcotest.test_case "snapshot JSON round trip" `Quick
            test_metrics_json_round_trip;
          Alcotest.test_case "multi-domain hammer" `Quick
            test_metrics_domain_safety;
        ] );
      ( "quantiles",
        [
          Alcotest.test_case "edge cases" `Quick test_quantile_edges;
          QCheck_alcotest.to_alcotest quantile_vs_oracle_prop;
        ] );
      ( "prometheus",
        [ Alcotest.test_case "exposition grammar" `Quick test_prometheus_render ] );
      ( "ctx-log",
        [
          Alcotest.test_case "ambient request id" `Quick test_ctx;
          Alcotest.test_case "event log emit" `Quick test_log_emit;
          Alcotest.test_case "no sink is a no-op" `Quick test_log_no_sink_noop;
        ] );
      ( "spans",
        [
          Alcotest.test_case "disabled: zero records on hot path" `Quick
            test_spans_disabled_hot_path;
          Alcotest.test_case "nested spans" `Quick test_spans_nested;
          Alcotest.test_case "exception safety" `Quick test_spans_exception_safe;
          Alcotest.test_case "chrome trace export" `Quick test_trace_event_export;
          Alcotest.test_case "request id on spans" `Quick test_span_rid;
        ] );
    ]
