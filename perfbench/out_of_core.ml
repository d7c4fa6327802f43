(* out-of-core: the [graphio bound FILE.gcsr] path.  Each operation is
   [Store.load] (mmap plus full verification), [Store.component_dags],
   then [Solver.bound_parts].  The input is a store of 64 copies of fft:10
   (720,896 vertices) at M = 8, whose bound is nonzero (4196.53), with the
   copies' vertex ids interleaved by the workload seed.  Set-up runs the
   store's write path: text edge list, then [Convert.convert], in a child
   process so the timed process's peak memory covers only the timed
   operations.  [la] stays idle: every component is a recognized
   butterfly. *)

module Solver = Graphio_core.Solver
module Store = Graphio_store.Store
open Graphio_graph

let m = 8
let shape ~small = if small then (4, 6) else (64, 10)

(* Seconds one operation takes on the reference host. *)
let op_s = 1.1

let text_file dir = Filename.concat dir "union.txt"
let store_file dir = Filename.concat dir "union.gcsr"

(* The union of [copies] butterflies fft:[level]: copy [c]'s local vertex
   [v] gets the global id [id.(c).(v)].  Ids interleave the copies in a
   seeded random order that keeps each copy's own order, so every copy
   extracts to the same fft:[level] (equal fingerprints) while the store's
   rows mix all copies. *)
let union ~seed ~small =
  let copies, level = shape ~small in
  let fft =
    match Graphio_workloads.Spec.parse (Printf.sprintf "fft:%d" level) with
    | Ok g -> g
    | Error msg -> failwith msg
  in
  let nc = Dag.n_vertices fft in
  let owner = Array.init (copies * nc) (fun i -> i / nc) in
  let rng = Random.State.make [| seed; 3 |] in
  for i = Array.length owner - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = owner.(i) in
    owner.(i) <- owner.(j);
    owner.(j) <- t
  done;
  let id = Array.init copies (fun _ -> Array.make nc 0) in
  let next = Array.make copies 0 in
  Array.iteri
    (fun g c ->
      id.(c).(next.(c)) <- g;
      next.(c) <- next.(c) + 1)
    owner;
  (fft, id)

let union_dag ~seed ~small =
  let fft, id = union ~seed ~small in
  let copies = Array.length id in
  let b = Dag.Builder.create ~capacity_hint:(copies * Dag.n_vertices fft) () in
  for _ = 1 to copies * Dag.n_vertices fft do
    ignore (Dag.Builder.add_vertex b)
  done;
  Array.iter (fun ids -> Dag.iter_edges fft (fun u v -> Dag.Builder.add_edge b ids.(u) ids.(v))) id;
  Dag.Builder.build b

let child_args = function
  | [ dir; seed; small ] -> (dir, int_of_string seed, small = "1")
  | _ -> failwith "expected DIR SEED SMALL"

(* [main.exe ooc-setup DIR SEED SMALL]: write the text edge list, convert
   it, and print the convert time and the store's size. *)
let setup_child argv =
  let dir, seed, small = child_args argv in
  let fft, id = union ~seed ~small in
  let copies = Array.length id in
  Out_channel.with_open_bin (text_file dir) (fun oc ->
      Printf.fprintf oc "graphio 1\nn %d m %d\n" (copies * Dag.n_vertices fft)
        (copies * Dag.n_edges fft);
      Array.iter
        (fun ids -> Dag.iter_edges fft (fun u v -> Printf.fprintf oc "e %d %d\n" ids.(u) ids.(v)))
        id);
  let t0 = Util.now_ns () in
  ignore (Graphio_store.Convert.convert ~input:(text_file dir) ~output:(store_file dir));
  let convert_s = Util.elapsed_s t0 in
  Printf.printf "%.17g %d\n" convert_s (Unix.stat (store_file dir)).Unix.st_size

(* [main.exe ooc-reference DIR SEED SMALL]: the in-memory [Solver.bound]
   of the same union, as IEEE bits. *)
let reference_child argv =
  let _, seed, small = child_args argv in
  let g = union_dag ~seed ~small in
  let b = (Solver.bound g ~m).Solver.result.Graphio_core.Spectral_bound.bound in
  Printf.printf "%Ld\n" (Int64.bits_of_float b)

(* Run this executable with [argv], returning its stdout. *)
let run_child argv =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: argv))
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let out = In_channel.input_all ic in
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> out
  | _ -> failwith (Printf.sprintf "child %s failed" (String.concat " " argv))

let run (args : Common.args) =
  let dir = Util.fresh_dir "out-of-core" in
  let child_argv cmd =
    [ cmd; dir; string_of_int args.seed; (if args.small then "1" else "0") ]
  in
  let setup_s, setup_out =
    Common.median_setup ~reps:3 (fun () -> run_child (child_argv "ooc-setup"))
  in
  let convert_s, store_bytes = Scanf.sscanf setup_out "%f %d" (fun a b -> (a, b)) in
  let reference =
    Int64.float_of_bits
      (Scanf.sscanf (run_child (child_argv "ooc-reference")) "%Ld" Fun.id)
  in
  let path = store_file dir in
  let ck = Common.checker args in
  let check b =
    let b = Common.answer ck b in
    Common.record ck (Util.same_bits b reference)
      (Printf.sprintf "store bound %.17g, in-memory bound %.17g" b reference)
  in
  let plain _ =
    let st = Store.load path in
    let parts = Array.map fst (Store.component_dags st) in
    (Solver.bound_parts parts ~m).Solver.result.Graphio_core.Spectral_bound.bound
  in
  let prober = Util.prober () in
  let ops = Common.rounds args ~round_s:op_s in
  if not args.trace then begin
    (* one untimed operation first: page faults and heap growth *)
    ignore (plain 0);
    Gc.full_major ();
    Util.reset_peak_rss ();
    let answers = Array.make ops nan in
    let samples = Common.timed_loop ~ops ~prober (fun i -> answers.(i) <- plain i) in
    let peak_rss_mb = Util.peak_rss_mb () in
    Array.iter check answers;
    let metrics, diagnostics =
      Common.end_to_end_metrics ~setup_s ~samples ~answers:ops ~peak_rss_mb ~prober
    in
    (ck, metrics, diagnostics)
  end
  else begin
    let counted = 2 in
    let tally = Stages.tally () in
    let traced tr i =
      Spans.op tr ~op:i (fun root ->
          let tally = if i < counted then tally else Stages.tally () in
          let c = Stages.ctx ~tally tr ~op:i in
          let st =
            Stages.span c ~parent:root ~layer:"store" "store.load" (fun _ -> Store.load path)
          in
          let parts =
            Stages.span c ~parent:root ~layer:"graph" "graph.split" (fun _ ->
                Array.map fst (Store.component_dags st))
          in
          let rq =
            Stages.request_of_parts c ~parent:root ~method_:Graphio_core.Method.Normalized
              parts ~m
          in
          fst (Stages.eval c ~parent:root [| rq |]).(0))
    in
    let agree _ plain replayed =
      check plain;
      Common.record ck
        (Util.same_bits (Common.answer ck replayed) plain)
        (Printf.sprintf "replay %.17g, solver %.17g" replayed plain)
    in
    let t =
      Common.traced_loop ~seconds:args.seconds ~counted ~prober ~untraced:plain ~traced ~agree
    in
    let extra =
      Stages.tally_metrics tally ~ops:counted
      @ [ ("store.convert_s", convert_s); ("store.bytes", float_of_int store_bytes) ]
    in
    (ck, Common.layer_metrics ~t ~prober ~extra, [])
  end
