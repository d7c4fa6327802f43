(* serve-mixed: the built [graphio serve -j 1 --cache-dir DIR] driven by a
   seeded request mix in a closed loop over one Unix-socket connection
   (serve's callers, [graphio client] and scripts, wait for each reply).

   The mix is a synthetic choice: no recorded serve traffic exists to
   derive it from, so each share is there for the layer it exercises.
   - 50% repeated hot specs, equally many of each: memory-tier reads,
     with graph generation and recognition on the hit path;
   - 15% fresh closed-form specs, half paths and half grids: misses that
     write both cache tiers after a closed-form spectrum;
   - 15% fresh inline edge lists: edge-list parsing and numeric solves on
     the miss path;
   - 15% repeats of earlier fresh graphs once they have left the
     128-entry memory tier: disk-tier reads;
   - 5% portfolio requests on small graphs, equally many of each: the
     visit member, recomputed every time.
   Every run holds exactly these counts, shuffled by the seed, and the
   fresh graphs' sizes come from fixed ladders, so a seed changes only
   the order of the requests and the edges of the random graphs. *)

open Graphio_graph
module Jsonx = Graphio_obs.Jsonx
module Metrics = Graphio_obs.Metrics
module Solver = Graphio_core.Solver
module Method = Graphio_core.Method

let m = 4
let memory_entries = 128

(* Seconds one request takes on the reference host, on average. *)
let request_s = 0.0118

type source = Spec of string | Edges of string

type request = { source : source; method_ : Method.t; kind : string }

let line r =
  Jsonx.to_string
    (Jsonx.Obj
       ((match r.source with
        | Spec s -> ("spec", Jsonx.String s)
        | Edges e -> ("edgelist", Jsonx.String e))
       :: ("m", Jsonx.Int m)
       ::
       (match r.method_ with
       | Method.Normalized -> []
       | mth -> [ ("method", Jsonx.String (Method.to_string mth)) ])))

(* Hot graphs span small to large (fft:10 has 11,264 vertices), so a
   memory-tier hit still costs real generation and recognition work and
   the slowest hits, not scheduling noise, make the tail. *)
let hot_specs rng =
  [|
    "fft:10";
    "fft:8";
    "fft:6";
    "bhk:9";
    "path:20000";
    "union:4:fft:7";
    Printf.sprintf "er:300:0.035:%d" (Random.State.bits rng);
    "matmul:6";
  |]

let portfolio_specs rng =
  [| "fft:4"; "bhk:6"; Printf.sprintf "er:60:0.1:%d" (Random.State.bits rng) |]

(* A connected random DAG of [n] vertices: every vertex reads one to
   three of the twenty before it. *)
let random_edgelist rng n =
  let edges = ref [] and count = ref 0 in
  for v = 1 to n - 1 do
    let lo = max 0 (v - 20) in
    let picks = List.sort_uniq compare (List.init (1 + Random.State.int rng 3) (fun _ -> lo + Random.State.int rng (v - lo))) in
    List.iter (fun u -> edges := (u, v) :: !edges; incr count) picks
  done;
  let b = Buffer.create (16 * !count) in
  Printf.bprintf b "graphio 1\nn %d m %d\n" n !count;
  List.iter (fun (u, v) -> Printf.bprintf b "e %d %d\n" u v) (List.rev !edges);
  Buffer.contents b

let shuffled rng xs =
  List.map (fun x -> (Random.State.bits rng, x)) xs |> List.sort compare |> List.map snd

(* Fresh closed-form specs are graphs never asked before: paths
   (normalized) and grids (standard; a grid's out-degrees differ, so only
   the standard method has its closed form), taken in turn from two
   ladders in a fixed order.  A disk repeat re-asks the oldest fresh
   graph that at least [memory_entries] later insertions have pushed out
   of the memory tier (each fresh request and each repeat inserts one
   entry, so the count is a lower bound); set-up leaves enough of them
   that one is always there. *)
type stream = {
  rng : Random.State.t;
  hot : string array;
  portfolio : string array;
  mutable paths : int list;
  mutable grids : (int * int) list;
  mutable fresh_specs : int;
  mutable edge_lists : int;
  mutable inserted : int;
  evicted : (int * request) Queue.t;
}

let stream (args : Common.args) =
  let rng = Common.seeded args 4 in
  let hot = hot_specs rng and portfolio = portfolio_specs rng in
  let grids =
    List.concat_map (fun r -> List.init (70 - r) (fun k -> (r, r + 1 + k))) (List.init 30 (fun k -> k + 10))
  in
  {
    rng;
    hot;
    portfolio;
    paths = List.init 3000 (fun k -> 1000 + (4 * k));
    grids = shuffled (Random.State.make [| 0 |]) grids;
    fresh_specs = 0;
    edge_lists = 0;
    inserted = 0;
    evicted = Queue.create ();
  }

let pop = function x :: rest -> (x, rest) | [] -> failwith "serve-mixed: ladder exhausted"

let inserted s r =
  s.inserted <- s.inserted + 1;
  Queue.push (s.inserted, r) s.evicted;
  r

let fresh_spec s =
  s.fresh_specs <- s.fresh_specs + 1;
  inserted s
    (if s.fresh_specs land 1 = 1 then begin
       let p, rest = pop s.paths in
       s.paths <- rest;
       { source = Spec (Printf.sprintf "path:%d" p); method_ = Method.Normalized; kind = "fresh-spec" }
     end
     else begin
       let (r, c), rest = pop s.grids in
       s.grids <- rest;
       { source = Spec (Printf.sprintf "grid:%d:%d" r c); method_ = Method.Standard; kind = "fresh-spec" }
     end)

(* Edge lists of 100 to 249 vertices, the sizes in a fixed order. *)
let fresh_edges s =
  let n = 100 + (37 * s.edge_lists mod 150) in
  s.edge_lists <- s.edge_lists + 1;
  inserted s
    { source = Edges (random_edgelist s.rng n); method_ = Method.Normalized; kind = "fresh-edgelist" }

let disk_repeat s =
  match Queue.peek_opt s.evicted with
  | Some (at, r) when s.inserted - at >= memory_entries ->
      ignore (Queue.pop s.evicted);
      inserted s { r with kind = "disk-repeat" }
  | _ -> failwith "serve-mixed: no evicted graph to repeat"

type kind = Hot of int | Fresh_spec | Fresh_edges | Disk_repeat | Portfolio of int

(* The run's [ops] requests: exactly the mix's counts, shuffled. *)
let requests s ~ops =
  let count pct = ops * pct / 100 in
  let hot = ops - count 15 - count 15 - count 15 - count 5 in
  let kinds =
    List.init hot (fun k -> Hot (k mod Array.length s.hot))
    @ List.init (count 15) (fun _ -> Fresh_spec)
    @ List.init (count 15) (fun _ -> Fresh_edges)
    @ List.init (count 15) (fun _ -> Disk_repeat)
    @ List.init (count 5) (fun k -> Portfolio (k mod Array.length s.portfolio))
  in
  List.map
    (function
      | Hot k -> { source = Spec s.hot.(k); method_ = Method.Normalized; kind = "hot" }
      | Fresh_spec -> fresh_spec s
      | Fresh_edges -> fresh_edges s
      | Disk_repeat -> disk_repeat s
      | Portfolio k -> { source = Spec s.portfolio.(k); method_ = Method.Portfolio; kind = "portfolio" })
    (shuffled s.rng kinds)
  |> Array.of_list

(* Set-up traffic: every hot and portfolio graph once, then enough fresh
   closed-form graphs that disk repeats are available from the first
   timed request. *)
let warm_requests s =
  Array.to_list
    (Array.map (fun h -> { source = Spec h; method_ = Method.Normalized; kind = "warm" }) s.hot)
  @ Array.to_list
      (Array.map (fun p -> { source = Spec p; method_ = Method.Portfolio; kind = "warm" }) s.portfolio)
  @ List.init (memory_entries + 16) (fun _ -> fresh_spec s)

(* ------------------------------------------------------------------ *)
(* The server process                                                  *)

type server = { pid : int; conn : Graphio_server.Client.t; drain : Thread.t }

let graphio_exe () =
  let build = Filename.dirname (Filename.dirname Sys.executable_name) in
  Filename.concat (Filename.concat build "bin") "graphio.exe"

(* Spawn the server, block until it prints its [listening on] line, then
   connect once.  Its stderr is drained by a thread afterwards so it can
   never block on a full pipe. *)
let start ~dir =
  let sock = Filename.concat dir "graphio.sock" in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let exe = graphio_exe () in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "-j"; "1"; "--socket"; sock; "--cache-dir"; Filename.concat dir "cache" |]
      devnull devnull err_w
  in
  Unix.close err_w;
  Unix.close devnull;
  let ic = Unix.in_channel_of_descr err_r in
  let rec wait () =
    match input_line ic with
    | l when String.length l >= 21 && String.sub l 0 21 = "graphio: listening on" -> ()
    | _ -> wait ()
    | exception End_of_file -> failwith "graphio serve exited before listening"
  in
  wait ();
  let drain =
    Thread.create
      (fun () ->
        (try
           while true do
             ignore (input_line ic)
           done
         with End_of_file | Sys_error _ -> ());
        close_in_noerr ic)
      ()
  in
  let conn = Graphio_server.Client.connect ~retries:0 (Graphio_server.Server.Unix_socket sock) in
  { pid; conn; drain }

let stop srv =
  (try ignore (Graphio_server.Client.rpc srv.conn {|{"op":"shutdown"}|}) with _ -> ());
  Graphio_server.Client.close srv.conn;
  ignore (Unix.waitpid [] srv.pid);
  Thread.join srv.drain

let server_metrics srv =
  let reply = Jsonx.of_string (Graphio_server.Client.rpc srv.conn {|{"op":"metrics"}|}) in
  match Jsonx.member "metrics" reply with
  | Some j -> Metrics.of_json j
  | None -> failwith "metrics reply without metrics"

(* ------------------------------------------------------------------ *)
(* Answers                                                             *)

let num = function
  | Some (Jsonx.Float f) -> Some f
  | Some (Jsonx.Int i) -> Some (float_of_int i)
  | _ -> None

(* A successful reply's bound and, for portfolio requests, its members'. *)
type reply = { bound : float; members : float list }

let parse_reply text =
  match Jsonx.of_string text with
  | exception _ -> None
  | j -> (
      match (Jsonx.member "ok" j, num (Jsonx.member "bound" j)) with
      | Some (Jsonx.Bool true), Some bound ->
          let members =
            match Jsonx.member "methods" j with
            | Some (Jsonx.List ms) -> List.filter_map (fun x -> num (Jsonx.member "bound" x)) ms
            | _ -> []
          in
          Some { bound; members }
      | _ -> None)

let build_graph = function
  | Spec s -> (
      match Graphio_workloads.Spec.parse s with Ok g -> g | Error msg -> failwith msg)
  | Edges e -> Edgelist.of_string e

(* In-process reference, computed after the timed loop, once per
   distinct request. *)
let references = Hashtbl.create 256

let reference r =
  let key = (r.source, r.method_) in
  match Hashtbl.find_opt references key with
  | Some b -> b
  | None ->
      let b =
        (Solver.bound ~method_:r.method_ (build_graph r.source) ~m).Solver.result
          .Graphio_core.Spectral_bound.bound
      in
      Hashtbl.add references key b;
      b

let check ck (r, text) =
  let ok, what =
    match parse_reply text with
    | None -> (false, "error reply: " ^ text)
    | Some rep ->
        let bound = Common.answer ck rep.bound in
        let expect = reference r in
        let portfolio_ok =
          r.method_ <> Method.Portfolio
          || (rep.members <> [] && bound = List.fold_left Float.max neg_infinity rep.members)
        in
        ( portfolio_ok && Util.within ~tol:(1e-9 *. Float.max 1.0 (Float.abs expect)) bound expect,
          Printf.sprintf "%s request: served %.17g, in-process %.17g" r.kind bound expect )
  in
  Common.record ck ok what

(* ------------------------------------------------------------------ *)
(* Traced replay of the server's stages                                *)

let replay c ~parent r =
  let g =
    match r.source with
    | Spec s ->
        Stages.span c ~parent ~layer:"workloads" "workloads.generate" (fun _ ->
            match Graphio_workloads.Spec.parse s with Ok g -> g | Error msg -> failwith msg)
    | Edges e ->
        Stages.span c ~parent ~layer:"graph" "graph.edgelist_parse" (fun _ -> Edgelist.of_string e)
  in
  let rq = Stages.request_of_dag c ~parent ~method_:r.method_ g ~m in
  fst (Stages.eval c ~parent [| rq |]).(0)

(* ------------------------------------------------------------------ *)

let histogram snap name =
  match Metrics.find snap name with
  | Some (Metrics.Histogram { buckets; counts; sum; count }) -> (buckets, counts, sum, count)
  | _ -> ([||], [||], 0.0, 0)

(* p50 of the requests observed between two snapshots. *)
let handle_p50 before after =
  let buckets, c1, s1, n1 = histogram after "server.request_seconds" in
  let _, c0, s0, n0 = histogram before "server.request_seconds" in
  let counts = Array.mapi (fun i c -> c - if Array.length c0 > i then c0.(i) else 0) c1 in
  let delta = Metrics.Histogram { buckets; counts; sum = s1 -. s0; count = n1 - n0 } in
  (Option.value (Metrics.value_quantile delta 0.5) ~default:0.0, s1 -. s0)

let run (args : Common.args) =
  let dir = Filename.concat Util.tmp_root "serve" in
  let s = stream args in
  let warm = warm_requests s in
  let ops = if args.small then 40 else Common.rounds args ~round_s:request_s in
  let requests = requests s ~ops in
  let setup () =
    ignore (Util.fresh_dir "serve");
    let srv = start ~dir in
    List.iter (fun r -> ignore (Graphio_server.Client.rpc srv.conn (line r))) warm;
    srv
  in
  let setup_s, srv = Common.median_setup ~reps:3 ~discard:stop setup in
  let ck = Common.checker args in
  let prober = Util.prober () in
  let rpc r = Graphio_server.Client.rpc srv.conn (line r) in
  let result =
    Fun.protect
      ~finally:(fun () -> stop srv)
      (fun () ->
        if not args.trace then begin
          Util.reset_peak_rss ~pid:srv.pid ();
          let replies = Array.make ops "" in
          let samples =
            Common.timed_loop ~collect:false ~ops ~prober (fun i ->
                replies.(i) <- rpc requests.(i))
          in
          let peak_rss_mb = Util.peak_rss_mb ~pid:srv.pid () in
          Array.iteri (fun i text -> check ck (requests.(i), text)) replies;
          Common.end_to_end_metrics ~setup_s ~samples ~answers:ops ~peak_rss_mb ~prober
        end
        else begin
          (* The bench-side mirror cache sees the same keys in the same
             order as the server's, so the replay meets the same tiers. *)
          let mirror =
            Graphio_cache.Spectrum.create ~capacity:memory_entries
              ~dir:(Util.fresh_dir "serve-mirror") ()
          in
          let tally = Stages.tally () in
          let tr = Spans.create ~enabled:true in
          let warm_tr = Spans.create ~enabled:false in
          List.iteri
            (fun i r ->
              ignore
                (replay
                   (Stages.ctx ~cache:mirror ~warm_start:true ~tally:(Stages.tally ()) warm_tr ~op:i)
                   ~parent:(-1) r))
            warm;
          let before = server_metrics srv and g0 = Common.gc_now () in
          let plain = ref [] and traced = ref [] in
          let replies = Array.make ops "" in
          Array.iteri
            (fun i r ->
              let t0 = Util.now_ns () in
              Spans.op tr ~op:i (fun root ->
                  let t1 = Util.now_ns () in
                  replies.(i) <-
                    Spans.with_ tr ~op:i ~parent:root ~layer:"server" "server.request" (fun _ -> rpc r);
                  plain := Util.elapsed_s t1 :: !plain;
                  let c = Stages.ctx ~cache:mirror ~warm_start:true ~tally tr ~op:i in
                  let b = replay c ~parent:root r in
                  match parse_reply replies.(i) with
                  | Some rep when rep.bound = b -> ()
                  | _ -> replies.(i) <- "replay disagrees: " ^ replies.(i));
              traced := Util.elapsed_s t0 :: !traced;
              Util.maybe_probe prober)
            requests;
          let g1 = Common.gc_now () in
          let after = server_metrics srv in
          Array.iteri (fun i text -> check ck (requests.(i), text)) replies;
          let counts = Hashtbl.create 64 in
          Common.add_deltas counts before after;
          let handle_p50, handled_s = handle_p50 before after in
          let roundtrip = Util.sum !plain in
          let t =
            {
              Common.tr;
              counts;
              counted = ops;
              alloc_words = g1.Common.words -. g0.Common.words;
              minor_gcs = int_of_float (Common.get counts "runtime.gc.minor_collections");
              major_gcs = int_of_float (Common.get counts "runtime.gc.major_collections");
              plain_s = !plain;
              traced_s = !traced;
            }
          in
          let extra =
            Stages.tally_metrics tally ~ops
            @ [
                ("server.handle_s", handle_p50);
                ("server.transport_s", (roundtrip -. handled_s) /. float_of_int ops);
                ("server.errors", Common.get counts "server.errors" /. float_of_int ops);
              ]
          in
          (Common.layer_metrics ~t ~prober ~extra, [])
        end)
  in
  (ck, fst result, snd result)
