(* sweep-portfolio: repeated cold [Solver.bound_batch] calls on a 2-domain
   pool, cache off, with the [graphio batch]/[report] defaults (h = 100,
   warm starts requested, closed forms and decomposition on).  One batch
   is every graph of a seeded set x an M sweep x p in {1, 4} x
   {normalized, standard, portfolio}.  In-batch dedup, k-maximization,
   the visit member's Dinic flows and the pool do their work here, and a
   portfolio member that never wins still costs its eigensolves. *)

open Graphio_graph
module Solver = Graphio_core.Solver
module Method = Graphio_core.Method

let pool_size = 2
let ms ~small = if small then [ 4 ] else [ 2; 4; 8; 16 ]
let ps = [ None; Some 4 ]
let methods = [ Method.Normalized; Method.Standard; Method.Portfolio ]

(* Seconds one batch takes on the reference host. *)
let batch_s = 4.0

let parse spec =
  match Graphio_workloads.Spec.parse spec with
  | Ok g -> g
  | Error msg -> failwith msg

(* The graph set: closed-form families, dense numeric graphs, one
   disconnected union and one sparse graph (fixed, see
   [Cold_solve.layered]).  Sizes are fixed; the seed picks the random
   graphs' edges and the families' parameters. *)
let graph_set (args : Common.args) =
  let rng = Common.seeded args 2 in
  let seed () = Random.State.bits rng in
  let spec s = (s, fun () -> parse s) in
  if args.small then [ spec "fft:3"; spec (Printf.sprintf "er:40:0.2:%d" (seed ())) ]
  else
    [
      spec "fft:4";
      spec (Printf.sprintf "grid:%d:%d" (8 + Random.State.int rng 2) (12 + Random.State.int rng 2));
      spec (Printf.sprintf "path:%d" (100 + Random.State.int rng 30));
      spec (Printf.sprintf "er:120:0.08:%d" (seed ()));
      spec (Printf.sprintf "er:180:0.055:%d" (seed ()));
      spec "bhk:7";
      spec (Printf.sprintf "union:3:er:40:0.22:%d" (seed ()));
      ("layered:40x26", Cold_solve.layered ~shape:1 ~depth:40 ~width:26);
    ]

let jobs ~small graphs =
  List.concat_map
    (fun g ->
      List.concat_map
        (fun m ->
          List.concat_map
            (fun p -> List.map (fun method_ -> Solver.job ~method_ ?p g ~m) methods)
            ps)
        (ms ~small))
    graphs
  |> Array.of_list

(* Reference answers of a graph (see [Reference]): the dense-eigensolver
   spectrum of every spectral portfolio member, and the visit bound at
   every M * p of the sweep with its min-cut check. *)
type reference = {
  spectra : (Method.t * float array) list;
  visit : (int * (float * bool)) list;
  tol : float;
}

(* The fast memory the visit member sees: M * p. *)
let m_eff ~m p = match p with None -> m | Some p -> m * p

let sweep_m_effs ~small =
  List.sort_uniq compare (List.concat_map (fun m -> List.map (m_eff ~m) ps) (ms ~small))

let spectral_members = List.filter Method.is_spectral Method.default_portfolio

(* Every graph's reference, computed on the pool: the dense solves of the
   1040-vertex graph take seconds each, so they are queued first. *)
let references ~small ~pool graphs =
  let graphs = Array.of_list graphs in
  let solves =
    List.init (Array.length graphs) (fun k -> List.map (fun mth -> (k, mth)) spectral_members)
    |> List.concat
    |> List.stable_sort (fun (a, _) (b, _) ->
           compare (Dag.n_vertices graphs.(b)) (Dag.n_vertices graphs.(a)))
    |> Array.of_list
  in
  let spectra =
    Graphio_par.Pool.run_all pool
      (Array.map (fun (k, mth) () -> Reference.spectrum ~method_:mth graphs.(k)) solves)
  in
  let visits =
    Graphio_par.Pool.run_all pool
      (Array.map (fun g () -> Reference.visit_bounds g ~ms:(sweep_m_effs ~small)) graphs)
  in
  Array.to_list
    (Array.mapi
       (fun k g ->
         let spectra =
           List.filter_map
             (fun i -> if fst solves.(i) = k then Some (snd solves.(i), spectra.(i)) else None)
             (List.init (Array.length solves) Fun.id)
         in
         (g, { spectra; visit = visits.(k); tol = Reference.tolerance g }))
       graphs)

(* Whether [v] is the right answer of [method_] (a portfolio member or a
   single method) for job [j]. *)
let matches r (j : Solver.batch_job) method_ v =
  match (method_ : Method.t) with
  | Visit ->
      let expect, sound = List.assoc (m_eff ~m:j.Solver.m j.Solver.p) r.visit in
      sound && v = expect
  | Portfolio -> false
  | _ ->
      let expect =
        (Graphio_core.Spectral_bound.compute ~n:(Dag.n_vertices j.Solver.dag) ~m:j.Solver.m
           ?p:j.Solver.p ~eigenvalues:(List.assoc method_ r.spectra) ())
          .Graphio_core.Spectral_bound.bound
      in
      Util.within ~tol:r.tol v expect

(* Set-ups per timed set-up block (about 45 ms on the reference host). *)
let setup_block = 10

(* A job's answer: the bound and, for a portfolio job, its members'
   bounds in [Method.default_portfolio] order. *)
type answer = { bound : float; members : (Method.t * float) array }

let same a b =
  Util.same_bits a.bound b.bound
  && Array.length a.members = Array.length b.members
  && Array.for_all2
       (fun (ma, va) (mb, vb) -> ma = mb && Util.same_bits va vb)
       a.members b.members

let run (args : Common.args) =
  let gens = graph_set args in
  let build () =
    let pool = Graphio_par.Pool.create ~size:pool_size () in
    let graphs = Array.of_list (List.map (fun (_, gen) -> gen ()) gens) in
    (pool, graphs, jobs ~small:args.small (Array.to_list graphs))
  in
  let pool, graphs, jobs = build () in
  (* computed after the timed loop, so the reference's dense matrices do
     not count towards the peak memory *)
  let refs = lazy (references ~small:args.small ~pool (Array.to_list graphs)) in
  let ck = Common.checker args in
  (* one job's answer against the reference; a portfolio answer must also
     be the max of all its members *)
  let check (j : Solver.batch_job) a =
    let bound = Common.answer ck a.bound in
    let r = List.assq j.Solver.dag (Lazy.force refs) in
    let ok =
      match j.Solver.method_ with
      | Method.Portfolio ->
          Array.map fst a.members = Array.of_list Method.default_portfolio
          && bound = Array.fold_left (fun acc (_, v) -> Float.max acc v) neg_infinity a.members
          && Array.for_all (fun (mth, v) -> matches r j mth v) a.members
      | mth -> matches r j mth bound
    in
    Common.record ck ok
      (Printf.sprintf "job n=%d m=%d p=%d %s: bound %.17g" (Dag.n_vertices j.Solver.dag)
         j.Solver.m (Option.value j.Solver.p ~default:1)
         (Method.to_string j.Solver.method_) bound)
  in
  let plain _ =
    Solver.bound_batch ~cache:Graphio_cache.Spectrum.disabled ~pool ~warm_start:true jobs
    |> Array.map (fun (r : Solver.batch_result) ->
           let o = r.Solver.outcome in
           {
             bound = o.Solver.result.Graphio_core.Spectral_bound.bound;
             members = Array.map (fun mv -> (mv.Solver.mv_method, mv.Solver.mv_bound)) o.Solver.methods;
           })
  in
  let check_all answers = Array.iteri (fun k a -> check jobs.(k) a) answers in
  let prober = Util.prober () in
  let ops = Common.rounds args ~round_s:batch_s in
  let result =
    if not args.trace then begin
      let setups =
        Common.setups ~per_block:setup_block
          ~discard:(fun (pool, _, _) -> Graphio_par.Pool.shutdown pool)
          build
      in
      Common.setup_block setups;
      (* one untimed operation first: page faults and heap growth *)
      ignore (plain 0);
      Gc.full_major ();
      let answers = Array.make ops [||] in
      let peak = Common.peak_start () in
      let samples =
        Common.timed_loop ~ops ~prober
          ~between:(fun _ -> Common.setup_between peak setups)
          (fun i -> answers.(i) <- plain i)
      in
      let peak_rss_mb = Common.peak_end peak in
      Array.iter check_all answers;
      Common.end_to_end_metrics ~setup_s:(Common.setup_s setups) ~samples
        ~answers:(ops * Array.length jobs) ~peak_rss_mb ~prober
    end
    else begin
      let counted = 2 in
      let tally = Stages.tally () in
      let traced tr i =
        Spans.op tr ~op:i (fun root ->
            let tally = if i < counted then tally else Stages.tally () in
            let c = Stages.ctx ~tally ~pool ~warm_start:true tr ~op:i in
            let reqs =
              Array.map
                (fun (j : Solver.batch_job) ->
                  Stages.request_of_dag c ~parent:root ?p:j.Solver.p ~method_:j.Solver.method_
                    j.Solver.dag ~m:j.Solver.m)
                jobs
            in
            Array.mapi
              (fun k (bound, values) ->
                let members =
                  match jobs.(k).Solver.method_ with
                  | Method.Portfolio -> Array.map2 (fun mth v -> (mth, v)) (Stages.members Method.Portfolio) values
                  | _ -> [||]
                in
                { bound; members })
              (Stages.eval c ~parent:root reqs))
      in
      let agree _ plain replayed =
        check_all plain;
        Array.iteri
          (fun k (a : answer) ->
            let b = replayed.(k) in
            let b = { b with bound = Common.answer ck b.bound } in
            Common.record ck (same a b)
              (Printf.sprintf "job %d (%s): replay %.17g, solver %.17g" k
                 (Method.to_string jobs.(k).Solver.method_) b.bound a.bound))
          plain
      in
      let t =
        Common.traced_loop ~seconds:args.seconds ~counted ~prober ~untraced:plain ~traced ~agree
      in
      let s = Spans.summarize t.Common.tr in
      let named n = Option.value (List.assoc_opt n s.Spans.name_s) ~default:0.0 in
      let extra =
        Stages.tally_metrics tally ~ops:counted
        @ [
            ( "par.busy_ratio",
              Common.ratio (named "par.job")
                (named "par.parallel_for" *. float_of_int pool_size) );
          ]
      in
      (Common.layer_metrics ~t ~prober ~extra, [])
    end
  in
  Graphio_par.Pool.shutdown pool;
  (ck, fst result, snd result)
