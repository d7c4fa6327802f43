(* cold-solve: one caller, no cache, the [graphio bound] defaults (h = 100,
   normalized).  [Solver.bound] runs round-robin over a zoo of graphs the
   recognizer never matches, so every call pays a fresh numeric
   eigensolve on both backends: dense (n <= 1024) for seeded Erdos-Renyi
   graphs and Chebyshev-filtered sparse (n > 1024) for a layered DAG. *)

open Graphio_graph
module Solver = Graphio_core.Solver

let m = 2

(* Sizes are fixed so every seed costs about the same; the seed picks the
   dense graphs' edges.  A round holds four dense graphs and one sparse
   graph, and a run at least 19 rounds: the median then lands in the
   middle of the third dense size, and the tail (10 samples beyond) on
   the ninth-fastest of the 19 sparse solves, near their median; the
   sparse solves also carry most of the run's time.  With only a dozen
   sparse solves the tail would be an extreme order statistic of a few
   second-long solves, and follow the host's speed phases. *)
let dense_sizes ~small = if small then [ 60; 90 ] else [ 160; 220; 280; 340 ]
let layers = (40, 26)

(* Seconds one round takes on the reference host (2 vCPUs). *)
let round_s = 1.3

let min_rounds = 19

let parse spec =
  match Graphio_workloads.Spec.parse spec with
  | Ok g -> g
  | Error msg -> failwith msg

(* Erdos-Renyi with mean degree 10, redrawn until connected; the seed
   picks the edges. *)
let er_spec rng n =
  let rec draw () =
    let spec =
      Printf.sprintf "er:%d:%.6f:%d" n (10.0 /. float_of_int n) (Random.State.bits rng)
    in
    if Component.is_connected (parse spec) then spec else draw ()
  in
  draw ()

(* A layered DAG, [depth] layers of [width] vertices, each vertex reading
   three values of the layer before, chosen by [shape].  Sparse graphs are
   not seeded: relabeling one of them (an isomorphism: same spectrum)
   already moves the filtered eigensolver's matvec count by up to 30%,
   which would swamp run-to-run comparisons. *)
let layered ~shape ~depth ~width () =
  let st = Random.State.make [| shape |] in
  let b = Dag.Builder.create ~capacity_hint:(depth * width) () in
  for _ = 1 to depth * width do
    ignore (Dag.Builder.add_vertex b)
  done;
  for v = width to (depth * width) - 1 do
    let picks = Array.init width Fun.id in
    for i = 0 to 2 do
      let j = i + Random.State.int st (width - i) in
      let t = picks.(i) in
      picks.(i) <- picks.(j);
      picks.(j) <- t;
      Dag.Builder.add_edge b (v - width - (v mod width) + picks.(i)) v
    done
  done;
  Dag.Builder.build b

(* The zoo as (name, generator) pairs in round-robin order. *)
let zoo (args : Common.args) =
  let rng = Common.seeded args 1 in
  let dense =
    List.map
      (fun n ->
        let s = er_spec rng n in
        (s, fun () -> parse s))
      (dense_sizes ~small:args.small)
  in
  let depth, width = layers in
  let sparse = (Printf.sprintf "layered:%dx%d" depth width, layered ~shape:0 ~depth ~width) in
  match dense with
  | d1 :: d2 :: d3 :: rest -> Array.of_list (d1 :: d2 :: d3 :: sparse :: rest)
  | _ -> Array.of_list (dense @ [ sparse ])

(* Zoo builds per timed set-up block (about 40 ms on the reference host). *)
let setup_block = 5

let run (args : Common.args) =
  let zoo_gen = zoo args in
  let specs = Array.map fst zoo_gen in
  let build () = Array.map (fun (_, gen) -> gen ()) zoo_gen in
  let zoo = build () in
  let nz = Array.length zoo in
  (* the dense eigensolver on the same Laplacian, computed after the timed
     loop, so its dense matrices do not count towards the peak memory *)
  let refs =
    lazy
      (Array.map
         (fun g ->
           (Reference.spectral_bound ~method_:Graphio_core.Method.Normalized g ~m, Reference.tolerance g))
         zoo)
  in
  let ck = Common.checker args in
  let check i b =
    let b = Common.answer ck b in
    let r, tol = (Lazy.force refs).(i mod nz) in
    Common.record ck (Util.within ~tol b r)
      (Printf.sprintf "%s: bound %.17g, reference %.17g" specs.(i mod nz) b r)
  in
  let plain i = (Solver.bound zoo.(i mod nz) ~m).Solver.result.Graphio_core.Spectral_bound.bound in
  let prober = Util.prober () in
  if not args.trace then begin
    let ops =
      let rounds = Common.rounds args ~round_s in
      nz * if args.small then rounds else max min_rounds rounds
    in
    let setups = Common.setups ~per_block:setup_block build in
    Common.setup_block setups;
    let answers = Array.make ops nan in
    let peak = Common.peak_start () in
    let samples =
      Common.timed_loop ~ops ~prober
        ~between:(fun i -> if (i + 1) mod nz = 0 then Common.setup_between peak setups)
        (fun i -> answers.(i) <- plain i)
    in
    let peak_rss_mb = Common.peak_end peak in
    Array.iteri check answers;
    let metrics, diagnostics =
      Common.end_to_end_metrics ~setup_s:(Common.setup_s setups) ~samples ~answers:ops
        ~peak_rss_mb ~prober
    in
    (ck, metrics, diagnostics)
  end
  else begin
    let counted = 2 * nz in
    let tally = Stages.tally () in
    let traced tr i =
      Spans.op tr ~op:i (fun root ->
          let tally = if i < counted then tally else Stages.tally () in
          let c = Stages.ctx ~tally tr ~op:i in
          let rq =
            Stages.request_of_dag c ~parent:root ~method_:Graphio_core.Method.Normalized
              zoo.(i mod nz) ~m
          in
          fst (Stages.eval c ~parent:root [| rq |]).(0))
    in
    let agree i plain replayed =
      check i plain;
      Common.record ck
        (Util.same_bits (Common.answer ck replayed) plain)
        (Printf.sprintf "%s: replay %.17g, solver %.17g" specs.(i mod nz) replayed plain)
    in
    let t =
      Common.traced_loop ~seconds:args.seconds ~counted ~prober ~untraced:plain ~traced ~agree
    in
    let extra = Stages.tally_metrics tally ~ops:counted in
    (ck, Common.layer_metrics ~t ~prober ~extra, [])
  end
