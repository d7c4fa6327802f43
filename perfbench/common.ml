(* What every workload shares: arguments, answer bookkeeping, the timed
   and traced loops, and the metric sets of BENCHMARK.json. *)

module Jsonx = Graphio_obs.Jsonx
module Metrics = Graphio_obs.Metrics

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  small : bool;  (** reduced inputs, for the benchmark's own test *)
  corrupt : int option;  (** falsify this answer (0-based), for the test *)
}

(* ------------------------------------------------------------------ *)
(* Answers                                                             *)

(* Every answer goes through [answer] before it is checked, so the test
   can falsify one and see it counted as a failed operation. *)
type checker = {
  corrupt_at : int option;
  mutable attempted : int;
  mutable failed : int;
  mutable first_failure : string option;
}

let checker args =
  { corrupt_at = args.corrupt; attempted = 0; failed = 0; first_failure = None }

let answer ck v =
  if ck.corrupt_at = Some ck.attempted then (v *. 1.5) +. 1.0 else v

(* Count one operation; [ok = false] (a wrong answer, an error reply or a
   timeout) counts it as failed. *)
let record ck ok what =
  ck.attempted <- ck.attempted + 1;
  if not ok then begin
    ck.failed <- ck.failed + 1;
    if ck.first_failure = None then ck.first_failure <- Some what
  end

(* ------------------------------------------------------------------ *)
(* Loops                                                               *)

let seeded args salt = Random.State.make [| args.seed; salt |]

(* A run measures a fixed amount of work, sized from --seconds: [rounds]
   is how many rounds of [round_s] seconds (as measured on the reference
   host) fit.  Fixing the count, rather than stopping on the clock, keeps
   the number of samples -- and so which operations the median and the
   tail fall on -- the same whatever the host speed. *)
let rounds (args : args) ~round_s =
  if args.small then 1 else max 1 (int_of_float ((args.seconds /. round_s) +. 0.5))

(* Run [op i] for i = 0 .. ops-1; returns the per-operation times, oldest
   first.  Between operations, outside the timed region, [between i]
   runs, then the host probe and (with [collect], for operations in this
   process) a full collection, so each operation starts from a collected
   heap as a fresh CLI process would, and neither its time nor the peak
   memory depends on when earlier garbage happens to be collected. *)
let timed_loop ?(collect = true) ?(between = ignore) ~ops ~prober op =
  List.init ops (fun i ->
      let t0 = Util.now_ns () in
      op i;
      let dt = Util.elapsed_s t0 in
      between i;
      Util.maybe_probe prober;
      if collect then Gc.full_major ();
      dt)

(* Counter, gauge and histogram-sum deltas between two snapshots. *)
let scalar = function
  | Metrics.Counter c -> float_of_int c
  | Metrics.Gauge g -> g
  | Metrics.Histogram { sum; _ } -> sum

let add_deltas acc before after =
  List.iter
    (fun (name, v) ->
      let b = Option.fold ~none:0.0 ~some:scalar (Metrics.find before name) in
      let d = scalar v -. b in
      Hashtbl.replace acc name
        (d +. Option.value (Hashtbl.find_opt acc name) ~default:0.0))
    after

let get acc name = Option.value (Hashtbl.find_opt acc name) ~default:0.0

type gc = { words : float; minor : int; major : int }

let gc_now () =
  let s = Gc.quick_stat () in
  {
    words = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words;
    minor = s.Gc.minor_collections;
    major = s.Gc.major_collections;
  }

(* The traced run.  Operations alternate between the plain entry point
   ([untraced i], which checks its own answer against the reference) and
   the stage-by-stage replay ([traced tr i]), swapping which goes first
   each time, until [seconds] have passed and at least [counted] of each
   have run.  [agree i plain replayed] then records the replay's answer:
   it must equal the plain answer for the same operation bit for bit, so
   the per-layer figures describe the program the plain run timed.
   Counts (registry deltas, GC) and spans are taken over the first
   [counted] traced operations only, so with a fixed seed they repeat
   exactly whatever the host speed. *)
type traced = {
  tr : Spans.t;
  counts : (string, float) Hashtbl.t;
  counted : int;
  alloc_words : float;
  minor_gcs : int;
  major_gcs : int;
  plain_s : float list;
  traced_s : float list;
}

let traced_loop ~seconds ~counted ~prober ~untraced ~traced ~agree =
  (* one untimed operation first: page faults and heap growth *)
  ignore (untraced 0);
  Gc.full_major ();
  let tr = Spans.create ~enabled:true in
  let counts = Hashtbl.create 64 in
  let words = ref 0.0 and minor = ref 0 and major = ref 0 in
  let plain = ref [] and traced_s = ref [] in
  let t_start = Util.now_ns () in
  let i = ref 0 in
  while !i < counted || Util.elapsed_s t_start < seconds do
    let run_plain () =
      let t0 = Util.now_ns () in
      let a = untraced !i in
      plain := Util.elapsed_s t0 :: !plain;
      a
    in
    let run_traced () =
      (* past the counted prefix: time only, into a throwaway recorder *)
      let counting = !i < counted in
      let before = Metrics.snapshot () and g0 = gc_now () in
      let t0 = Util.now_ns () in
      let a = traced (if counting then tr else Spans.create ~enabled:true) !i in
      traced_s := Util.elapsed_s t0 :: !traced_s;
      if counting then begin
        let g1 = gc_now () in
        add_deltas counts before (Metrics.snapshot ());
        words := !words +. (g1.words -. g0.words);
        minor := !minor + (g1.minor - g0.minor);
        major := !major + (g1.major - g0.major)
      end;
      a
    in
    (if !i land 1 = 0 then
       let p = run_plain () in
       agree !i p (run_traced ())
     else
       let t = run_traced () in
       agree !i (run_plain ()) t);
    incr i;
    Util.maybe_probe prober;
    Gc.full_major ()
  done;
  {
    tr;
    counts;
    counted;
    alloc_words = !words;
    minor_gcs = !minor;
    major_gcs = !major;
    plain_s = !plain;
    traced_s = !traced_s;
  }

(* ------------------------------------------------------------------ *)
(* Metric sets                                                         *)

let layers =
  [ "la"; "graph"; "workloads"; "recognize"; "core"; "flow"; "cache"; "par"; "store"; "server" ]

(* Per-layer metrics beyond each layer's [.self_s] and [.share]. *)
let layer_details =
  [
    "la.eigensolve_s"; "la.matvecs"; "la.flops"; "la.dense_solves"; "la.sparse_solves";
    "la.converged_ratio";
    "graph.laplacian_s"; "graph.laplacian_nnz"; "graph.split_s"; "graph.edgelist_parse_s";
    "workloads.generate_s";
    "recognize.busy_s"; "recognize.hit_ratio"; "spectra.closed_form_s";
    "core.kmax_s"; "core.visit_s"; "core.shared_ratio"; "core.eigensolves_paid";
    "flow.bfs_phases"; "flow.augmenting_paths"; "flow.max_flows";
    "cache.lookup_s"; "cache.hit_ratio"; "cache.disk_hits"; "cache.disk_writes";
    "par.busy_ratio"; "par.steals";
    "store.convert_s"; "store.load_s"; "store.bytes";
    "server.handle_s"; "server.transport_s"; "server.errors";
    "runtime.alloc_mb"; "runtime.minor_gcs"; "runtime.major_gcs";
  ]

let trace_metrics =
  [ "host.probe_s"; "trace.ops"; "trace.op_s"; "trace.overhead_s"; "trace.unattributed_ratio" ]

let per_layer =
  trace_metrics
  @ List.concat_map (fun l -> [ l ^ ".self_s"; l ^ ".share" ]) layers
  @ layer_details

(* Per-layer counts that must repeat exactly for a fixed seed. *)
let exact =
  [
    "trace.ops"; "la.matvecs"; "la.flops"; "la.dense_solves"; "la.sparse_solves";
    "la.converged_ratio"; "graph.laplacian_nnz"; "recognize.hit_ratio";
    "core.shared_ratio"; "core.eigensolves_paid"; "flow.bfs_phases";
    "flow.augmenting_paths"; "flow.max_flows"; "cache.hit_ratio"; "cache.disk_hits";
    "cache.disk_writes"; "store.bytes"; "server.errors";
  ]

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* The spans of the last traced run, for [main] to write out at exit. *)
let last_spans : Spans.t option ref = ref None

(* The per-layer metric set of a traced run, per counted operation.
   [extra] supplies the workload-specific values (anything absent is 0:
   that layer did no such work). *)
let layer_metrics ~(t : traced) ~prober ~extra =
  last_spans := Some t.tr;
  let s = Spans.summarize t.tr in
  let per_op x = ratio x (float_of_int t.counted) in
  let self l = Option.value (List.assoc_opt l s.Spans.layer_self_s) ~default:0.0 in
  let named n = Option.value (List.assoc_opt n s.Spans.name_s) ~default:0.0 in
  let c = get t.counts in
  let hits = c "cache.hits" and misses = c "cache.misses" in
  let base =
    [
      ("host.probe_s", Util.median prober.Util.samples);
      ("trace.ops", float_of_int t.counted);
      ("trace.op_s", Util.median t.traced_s);
      ("trace.overhead_s", Util.median t.traced_s -. Util.median t.plain_s);
      ("trace.unattributed_ratio", ratio s.Spans.unattributed_s s.Spans.op_wall_s);
      ("la.eigensolve_s", per_op (named "la.eigensolve"));
      ("la.matvecs", per_op (c "la.eigen.matvecs"));
      ("la.flops", per_op (c "la.csr.fma_flops"));
      ("la.dense_solves", per_op (c "la.eigen.dense_solves"));
      ("la.sparse_solves", per_op (c "la.eigen.sparse_solves"));
      ("graph.laplacian_s", per_op (named "graph.laplacian"));
      ("graph.laplacian_nnz", per_op (c "graph.laplacian.nnz"));
      ("graph.split_s", per_op (named "graph.split"));
      ("graph.edgelist_parse_s", per_op (named "graph.edgelist_parse"));
      ("workloads.generate_s", per_op (named "workloads.generate"));
      ("recognize.busy_s", per_op (named "recognize.recognize"));
      ("spectra.closed_form_s", per_op (named "spectra.closed_form"));
      ("core.kmax_s", per_op (named "core.kmax"));
      ( "core.visit_s",
        per_op (named "core.visit_profile" +. named "core.visit_bound") );
      ("flow.bfs_phases", per_op (c "flow.dinic.bfs_phases"));
      ("flow.augmenting_paths", per_op (c "flow.dinic.augmenting_paths"));
      ("flow.max_flows", per_op (c "flow.dinic.max_flows"));
      ( "cache.lookup_s",
        per_op
          (named "cache.find" +. named "cache.add" +. named "cache.find_ritz"
         +. named "cache.add_ritz") );
      ("cache.hit_ratio", ratio hits (hits +. misses));
      ("cache.disk_hits", per_op (c "cache.disk_hits"));
      ("cache.disk_writes", per_op (c "cache.disk_writes"));
      ("par.steals", per_op (c "par.pool.steals"));
      ("store.load_s", per_op (named "store.load"));
      ("runtime.alloc_mb", per_op (t.alloc_words *. 8.0 /. 1e6));
      ("runtime.minor_gcs", per_op (float_of_int t.minor_gcs));
      ("runtime.major_gcs", per_op (float_of_int t.major_gcs));
    ]
    @ List.concat_map
        (fun l ->
          [ (l ^ ".self_s", per_op (self l)); (l ^ ".share", ratio (self l) s.Spans.op_wall_s) ])
        layers
  in
  (* workload-specific values override the generic ones *)
  let m = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace m k v) base;
  List.iter (fun (k, v) -> Hashtbl.replace m k v) extra;
  List.map (fun k -> (k, Option.value (Hashtbl.find_opt m k) ~default:0.0)) per_layer

(* The end-to-end metrics of an untraced run, with the tail's percentile
   and sample count recorded beside it. *)
let end_to_end_metrics ~setup_s ~samples ~answers ~peak_rss_mb ~prober =
  let t = Util.tail samples in
  let metrics =
    [
      ("setup_s", setup_s);
      ("bound_p50_s", Util.median samples);
      ("bound_tail_s", t.Util.value);
      ("bounds_per_s", float_of_int answers /. Util.sum samples);
      ("peak_rss_mb", peak_rss_mb);
    ]
  in
  let diagnostics =
    [
      ( "bound_tail_s",
        Jsonx.Obj
          [
            ("percentile", Jsonx.Float t.Util.percentile);
            ("samples", Jsonx.Int t.Util.samples);
            ("beyond", Jsonx.Int t.Util.beyond);
          ] );
      ("operations", Jsonx.Int (List.length samples));
      ("answers", Jsonx.Int answers);
      ("host.probe_s", Jsonx.Float (Util.median prober.Util.samples));
      ( "host.probe_spread",
        Jsonx.Float
          (let a = Util.sorted prober.Util.samples in
           a.(Array.length a - 1) /. a.(0)) );
    ]
  in
  (metrics, diagnostics)

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)

(* Median of [reps] timed runs of [f]; the last run's value is kept and
   the others are passed to [discard]. *)
let median_setup ?(discard = ignore) ~reps f =
  let times = ref [] and last = ref None in
  for _ = 1 to reps do
    let t0 = Util.now_ns () in
    let v = f () in
    times := Util.elapsed_s t0 :: !times;
    Option.iter discard !last;
    last := Some v
  done;
  (Util.median !times, Option.get !last)

(* Set-ups of a few milliseconds, timed in blocks of [per_block] and
   spread over the run: a block runs before the timed loop and between
   operations, so the set-up time samples the host's state across the
   whole run, as the operations do, rather than over its first tenth of
   a second.  [setup_s] is the median block's time per set-up. *)
type 'a setups = {
  build : unit -> 'a;
  discard : 'a -> unit;
  per_block : int;
  mutable block_s : float list;
}

let setups ?(discard = ignore) ~per_block build = { build; discard; per_block; block_s = [] }

let setup_block s =
  let total = ref 0.0 in
  for _ = 1 to s.per_block do
    let t0 = Util.now_ns () in
    let v = s.build () in
    total := !total +. Util.elapsed_s t0;
    s.discard v
  done;
  s.block_s <- (!total /. float_of_int s.per_block) :: s.block_s

let setup_s s = Util.median s.block_s

(* Peak resident memory of this process over the timed operations, with
   the set-up blocks between them left out: the peak so far is read
   before each block and the count restarted after it. *)
type peak = { mutable mb : float }

let peak_start () =
  Util.reset_peak_rss ();
  { mb = 0.0 }

let setup_between peak s =
  peak.mb <- Float.max peak.mb (Util.peak_rss_mb ());
  setup_block s;
  Gc.full_major ();
  Util.reset_peak_rss ()

let peak_end peak = Float.max peak.mb (Util.peak_rss_mb ())
