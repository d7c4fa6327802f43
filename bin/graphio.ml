(* graphio — spectral I/O lower bounds for computation graphs (CLI).

   Subcommands:
     generate   build a workload graph and write it as an edge list
     convert    stream a text edge list into the binary CSR store
     bound      spectral lower bound (Theorems 4/5/6)
     baseline   convex min-cut lower bound (Elango et al.)
     simulate   play a schedule in the two-level memory model
     spectrum   smallest Laplacian eigenvalues
     export     Graphviz DOT output
     batch      many bounds concurrently from a jobs file (JSON lines)
     serve      long-lived bound service over a socket (JSON lines)
     client     line-oriented client for a running serve
     top        live latency/cache/pool dashboard for a running serve

   Graphs are supplied either with --graph SPEC (generated on the fly) or
   --file PATH (text edge-list format, see Graphio_graph.Edgelist, or a
   binary store produced by convert — sniffed by magic). *)

open Cmdliner
open Graphio_graph
open Graphio_core

(* ------------------------------------------------------------------ *)
(* Graph specs                                                         *)
(* ------------------------------------------------------------------ *)

let parse_spec = Graphio_workloads.Spec.parse

(* [--file] accepts both formats: binary stores are sniffed by magic, so
   every subcommand works on a [graphio convert]ed file.  Subcommands that
   can avoid materializing the whole graph (bound) load the store
   directly; the rest go through [to_dag]. *)
let load_graph ~spec ~file =
  match (spec, file) with
  | Some s, None -> (
      match parse_spec s with
      | Ok g -> g
      | Error msg -> raise (Invalid_argument msg))
  | None, Some path ->
      if Graphio_store.Store.is_store_file path then
        Graphio_store.Store.to_dag (Graphio_store.Store.load path)
      else Edgelist.of_file path
  | _ -> raise (Invalid_argument "provide exactly one of --graph or --file")

let spec_arg =
  Arg.(value & opt (some string) None & info [ "g"; "graph" ] ~docv:"SPEC"
         ~doc:"Generate the graph from a spec (e.g. fft:8, bhk:10, matmul:6, strassen:4, inner:16, er:200:0.05).")

let file_arg =
  Arg.(value & opt (some string) None & info [ "f"; "file" ] ~docv:"PATH"
         ~doc:"Load the graph from an edge-list file.")

let m_arg =
  Arg.(value & opt int 8 & info [ "m"; "memory" ] ~docv:"M"
         ~doc:"Fast-memory size in elements.")

(* Observability flags, shared by every subcommand: [--metrics] prints the
   process-wide counter/histogram table to stderr on success (stderr so
   the primary stdout output stays scriptable), [--metrics-out FILE]
   writes the same table to a file instead — so it can never interleave
   with NDJSON stdout in batch pipelines — [--trace FILE] enables span
   collection and writes a Chrome trace-event JSON on exit, and
   [--log FILE] ([-] = stderr) streams leveled NDJSON structured events
   ([--log-level] filters).  Every invocation runs under a fresh ambient
   request id ([cli-PID]) so its spans and events correlate. *)
type obs = {
  metrics : bool;
  metrics_out : string option;
  trace : string option;
  log : string option;
  log_level : string;
}

let obs_term =
  let metrics =
    Arg.(value & flag & info [ "metrics" ]
           ~doc:"Print the metrics summary table to stderr on exit.")
  in
  let metrics_out =
    Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE"
           ~doc:"Write the metrics summary table to $(docv) on exit (keeps \
                 stdout/stderr clean in pipelines).")
  in
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record hierarchical spans and write Chrome trace-event JSON \
                 (load in chrome://tracing or Perfetto).")
  in
  let log =
    Arg.(value & opt (some string) None & info [ "log" ] ~docv:"FILE"
           ~doc:"Stream structured NDJSON events to $(docv) ($(b,-) = stderr).")
  in
  let log_level =
    Arg.(value & opt string "info" & info [ "log-level" ] ~docv:"LEVEL"
           ~doc:"Minimum event level: debug | info | warn | error.")
  in
  Term.(
    const (fun metrics metrics_out trace log log_level ->
        { metrics; metrics_out; trace; log; log_level })
    $ metrics $ metrics_out $ trace $ log $ log_level)

(* Escape hatch for the closed-form dispatch tier: recognized graphs
   (butterfly/hypercube/path/grid) normally answer from the exact
   lib/spectra multiset; this forces the numeric eigensolve instead.
   Offered on every subcommand that evaluates bounds. *)
let no_closed_form_arg =
  Arg.(
    value & flag
    & info [ "no-closed-form" ]
        ~doc:
          "Disable the closed-form spectrum dispatch: always run the \
           numeric eigensolve, even on recognized graph families.")

(* Ritz warm starts are on by default for the cached tiers (batch/serve):
   a cache miss seeds its initial block from locked Ritz vectors of a
   related solve at a different h.  The flag opts out, restoring bitwise
   determinism across cache states. *)
let no_warm_start_arg =
  Arg.(
    value & flag
    & info [ "no-warm-start" ]
        ~doc:
          "Never seed a sparse eigensolve from cached Ritz vectors of a \
           related solve (different $(b,h), same graph/method): warm \
           starts reach the same bounds to solver tolerance but are not \
           bitwise-identical to cold solves.")

(* Deterministic fault injection (testing only): the plan activates named
   sites across cache/server/pool; with no plan the sites stay inert.
   Offered on the subcommands that exercise those subsystems. *)
let faults_arg =
  Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"PLAN"
         ~doc:"Activate the deterministic fault-injection plan $(docv), e.g. \
               $(b,cache.disk.write:p=0.2:seed=7,pool.task:nth=3).  Also read \
               from $(b,GRAPHIO_FAULTS).  Chaos testing only.")

let apply_faults = function
  | None -> ()
  | Some plan -> (
      match Graphio_fault.parse plan with
      | Ok p -> Graphio_fault.set p
      | Error msg -> raise (Invalid_argument msg))

(* All expected failures (bad specs, unreadable/malformed graph files,
   infeasible parameters) surface as one clean line on stderr and exit
   code 1; cmdliner's `Error path is reserved for CLI syntax problems. *)
let handle obs f =
  if obs.trace <> None then Graphio_obs.Span.set_enabled true;
  (match Graphio_obs.Log.level_of_string obs.log_level with
  | Some l -> Graphio_obs.Log.set_level l
  | None ->
      Printf.eprintf "graphio: --log-level %s: expected debug, info, warn or error\n"
        obs.log_level;
      exit 1);
  match
    (try Option.iter Graphio_obs.Log.open_file obs.log
     with Sys_error msg -> raise (Invalid_argument msg));
    Fun.protect ~finally:Graphio_obs.Log.close (fun () ->
        Graphio_obs.Ctx.with_rid
          (Printf.sprintf "cli-%d" (Unix.getpid ()))
          f);
    (match obs.trace with
    | Some path -> Graphio_obs.Span.write_chrome_trace path
    | None -> ());
    let summary =
      if obs.metrics || obs.metrics_out <> None then begin
        Graphio_obs.Runtime.sample ();
        Graphio_obs.Metrics.render_text (Graphio_obs.Metrics.snapshot ())
      end
      else ""
    in
    if obs.metrics then prerr_string summary;
    match obs.metrics_out with
    | Some path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc summary)
    | None -> ()
  with
  | () -> `Ok ()
  | exception (Invalid_argument msg | Failure msg | Sys_error msg) ->
      Printf.eprintf "graphio: %s\n" msg;
      exit 1
  | exception Graphio_store.Store.Error e ->
      Printf.eprintf "graphio: %s\n" (Graphio_store.Store.error_message e);
      exit 1

(* ------------------------------------------------------------------ *)
(* generate                                                            *)
(* ------------------------------------------------------------------ *)

let generate spec output obs =
  handle obs @@ fun () ->
  match parse_spec spec with
  | Error msg -> raise (Invalid_argument msg)
  | Ok g -> (
      match output with
      | Some path ->
          Edgelist.to_file path g;
          Printf.printf "wrote %d vertices, %d edges to %s\n" (Dag.n_vertices g)
            (Dag.n_edges g) path
      | None -> print_string (Edgelist.to_string g))

let generate_cmd =
  let spec =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SPEC"
           ~doc:"Graph family spec, e.g. fft:8.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"PATH"
           ~doc:"Output path (stdout if omitted).")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Build a workload computation graph")
    Term.(ret (const generate $ spec $ output $ obs_term))

(* ------------------------------------------------------------------ *)
(* convert                                                             *)
(* ------------------------------------------------------------------ *)

let convert input output faults obs =
  handle obs @@ fun () ->
  apply_faults faults;
  let output =
    match output with
    | Some path -> path
    | None -> Filename.remove_extension input ^ ".gcsr"
  in
  let n, m = Graphio_store.Convert.convert ~input ~output in
  Printf.printf "converted %d vertices, %d edges to %s\n" n m output

let convert_cmd =
  let input =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PATH"
           ~doc:"Text edge-list file to convert.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"PATH"
           ~doc:"Output path (defaults to the input with a .gcsr extension).")
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:"Convert a text edge list to the binary CSR store (streaming, \
             bounded memory)")
    Term.(ret (const convert $ input $ output $ faults_arg $ obs_term))

(* ------------------------------------------------------------------ *)
(* bound                                                               *)
(* ------------------------------------------------------------------ *)

let method_name = Graphio_core.Method.to_string

(* One parser for every CLI surface (bound flag, jobs file, serve
   config): unknown-method errors embed the same Method.expected list the
   server's protocol errors use, so the texts cannot drift. *)
let parse_method s =
  match Graphio_core.Method.of_string s with
  | Some m -> m
  | None ->
      raise
        (Invalid_argument
           (Printf.sprintf "unknown method %S (expected %s)" s
              Graphio_core.Method.expected))

let parse_portfolio = function
  | "" -> None
  | s ->
      Some
        (String.split_on_char ',' s
        |> List.map String.trim
        |> List.filter (fun x -> x <> "")
        |> List.map parse_method)

let portfolio_arg =
  Arg.(
    value
    & opt string ""
    & info [ "portfolio-methods" ] ~docv:"METHODS"
        ~doc:
          "Comma-separated member set for $(b,--method portfolio) (default: \
           every concrete method).")

(* Per-component provenance of a decomposed bound, between the method and
   headline lines.  Identical whether the graph arrived as a text edge
   list (decomposed by Solver.bound) or a binary store (decomposed by
   Store.component_dags + Solver.bound_parts): both split into the same
   parts in the same smallest-vertex order. *)
let print_components (o : Solver.outcome) =
  let comps = o.Solver.components in
  Printf.printf "components: %d (merged spectrum h=%d)\n" (Array.length comps)
    (Array.length o.Solver.eigenvalues);
  let shown = min 16 (Array.length comps) in
  for i = 0 to shown - 1 do
    let c = comps.(i) in
    let tier_s =
      match c.Solver.comp_tier with
      | Solver.Closed_form family ->
          Printf.sprintf "closed form %s" (Graphio_recognize.Recognize.name family)
      | Solver.Numeric ->
          Printf.sprintf "numeric (%s)"
            (Graphio_server.Protocol.backend_name c.Solver.comp_backend)
    in
    Printf.printf "  component %d: n=%d edges=%d %s%s\n" i c.Solver.comp_n
      c.Solver.comp_edges tier_s
      (if c.Solver.comp_cache_hit then " (shared)" else "")
  done;
  if Array.length comps > shown then begin
    let closed =
      Array.fold_left
        (fun acc c ->
          match c.Solver.comp_tier with
          | Solver.Closed_form _ -> acc + 1
          | Solver.Numeric -> acc)
        0 comps
    in
    Printf.printf "  ... %d more (total: %d closed form, %d numeric)\n"
      (Array.length comps - shown) closed (Array.length comps - closed)
  end

(* portfolio provenance, between the tier line and the headline: one line
   per member (bound, k, tier, cache/warm provenance) and the winner *)
let print_portfolio (o : Solver.outcome) =
  print_string "methods:\n";
  Array.iter
    (fun mv ->
      let detail =
        match mv.Solver.mv_method with
        | Solver.Visit -> "counted-cut chains"
        | _ ->
            Printf.sprintf "best k = %d, %s" mv.Solver.mv_best_k
              (match mv.Solver.mv_tier with
              | Solver.Closed_form family ->
                  Printf.sprintf "closed form %s"
                    (Graphio_recognize.Recognize.name family)
              | Solver.Numeric -> "numeric")
      in
      Printf.printf "  %s: bound=%.6g (%s%s%s)\n"
        (method_name mv.Solver.mv_method)
        mv.Solver.mv_bound detail
        (if mv.Solver.mv_cache_hit then ", cached" else "")
        (if mv.Solver.mv_warm_start then ", warm start" else ""))
    o.Solver.methods;
  match o.Solver.winner with
  | Some w -> Printf.printf "winner: %s\n" (method_name w)
  | None -> ()

let bound spec file m h p method_str portfolio_str no_closed_form faults obs =
  handle obs @@ fun () ->
  apply_faults faults;
  let method_ = parse_method method_str in
  let portfolio = parse_portfolio portfolio_str in
  let closed_form = not no_closed_form in
  (* Binary stores are bounded without materializing the union: components
     are extracted one by one and fed to the decomposed solver path, and
     the graph line is read off the parts.  Where both paths fit in
     memory the output is byte-identical to the text-edgelist path. *)
  let (gn, gm, gdmax), o =
    match (spec, file) with
    | None, Some path when Graphio_store.Store.is_store_file path ->
        let parts =
          Array.map fst
            (Graphio_store.Store.component_dags (Graphio_store.Store.load path))
        in
        let over f combine =
          Array.fold_left (fun acc g -> combine acc (f g)) 0 parts
        in
        ( ( over Dag.n_vertices ( + ),
            over Dag.n_edges ( + ),
            over Dag.max_out_degree max ),
          Solver.bound_parts ~method_ ?portfolio ~h ~p ~closed_form parts
            ~m )
    | _ ->
        let g = load_graph ~spec ~file in
        ( (Dag.n_vertices g, Dag.n_edges g, Dag.max_out_degree g),
          Solver.bound ~method_ ?portfolio ~h ~p ~closed_form g ~m )
  in
  let b = o.Solver.result in
  Printf.printf "graph: n=%d m_edges=%d max_out_degree=%d\n" gn gm gdmax;
  Printf.printf "method: %s%s\n"
    (match method_ with
    | Solver.Normalized ->
        Printf.sprintf "normalized (Theorem %s)" (if p > 1 then "6" else "4")
    | Solver.Standard -> "standard (Theorem 5)"
    | m -> Graphio_core.Method.describe m)
    (if p > 1 then Printf.sprintf " with p=%d processors" p else "");
  (if Array.length o.Solver.components > 0 then print_components o
   else if method_ <> Solver.Portfolio && method_ <> Solver.Visit then
     match o.Solver.tier with
     | Solver.Closed_form family ->
         Printf.printf "spectrum: closed form, recognized %s (h=%d)\n"
           (Graphio_recognize.Recognize.name family)
           (Array.length o.Solver.eigenvalues)
     | Solver.Numeric ->
         Printf.printf "eigen backend: %s (h=%d)\n"
           (match o.Solver.backend with
           | Graphio_la.Eigen.Dense -> "dense Householder+QL"
           | Graphio_la.Eigen.Sparse_filtered ->
               "Chebyshev-filtered block iteration")
           (Array.length o.Solver.eigenvalues));
  if Array.length o.Solver.methods > 0 then print_portfolio o;
  Printf.printf "lower bound on non-trivial I/O: %.6g (best k = %d, raw = %.6g)\n"
    b.Spectral_bound.bound b.Spectral_bound.best_k b.Spectral_bound.best_raw

let bound_cmd =
  let h =
    Arg.(value & opt int 100 & info [ "eigenvalues" ] ~docv:"H"
           ~doc:"Number of smallest eigenvalues to compute (the paper uses 100).")
  in
  let p =
    Arg.(value & opt int 1 & info [ "p"; "processors" ] ~docv:"P"
           ~doc:"Processor count for the parallel bound (Theorem 6).")
  in
  let method_name =
    Arg.(value & opt string "normalized" & info [ "method" ] ~docv:"METHOD"
           ~doc:"normalized (Theorem 4), standard (Theorem 5), adjacency or \
                 signless (Weyl-surrogate spectral variants), visit \
                 (DAG-visit counted boundary), or portfolio (max over a \
                 member set; see $(b,--portfolio-methods)).")
  in
  Cmd.v
    (Cmd.info "bound" ~doc:"I/O lower bound (spectral methods, DAG-visit, or \
                            a portfolio of both)")
    Term.(
      ret
        (const bound $ spec_arg $ file_arg $ m_arg $ h $ p $ method_name
        $ portfolio_arg $ no_closed_form_arg $ faults_arg $ obs_term))

(* ------------------------------------------------------------------ *)
(* baseline                                                            *)
(* ------------------------------------------------------------------ *)

let baseline spec file m partitioned obs =
  handle obs @@ fun () ->
  let g = load_graph ~spec ~file in
  if partitioned then begin
    let b = Graphio_flow.Convex_mincut.bound_partitioned g ~m ~part_size:(2 * m) in
    Printf.printf "convex min-cut (partitioned into <=%d-vertex parts): %d\n" (2 * m) b
  end
  else begin
    let value, best = Graphio_flow.Convex_mincut.bound_detailed g ~m in
    Printf.printf "convex min-cut lower bound: %d (max wavefront %d at vertex %d)\n"
      value best.Graphio_flow.Convex_mincut.wavefront
      best.Graphio_flow.Convex_mincut.vertex
  end

let baseline_cmd =
  let partitioned =
    Arg.(value & flag & info [ "partitioned" ]
           ~doc:"Use the 2M-partitioned variant (trivial on complex graphs).")
  in
  Cmd.v
    (Cmd.info "baseline" ~doc:"Convex min-cut lower bound (Elango et al.)")
    Term.(
      ret
        (const baseline $ spec_arg $ file_arg $ m_arg $ partitioned $ obs_term))

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)
(* ------------------------------------------------------------------ *)

let simulate spec file m order_name policy_name obs =
  handle obs @@ fun () ->
  let g = load_graph ~spec ~file in
  let order =
    match order_name with
    | "natural" -> Topo.natural g
    | "kahn" -> Topo.kahn g
    | "dfs" -> Topo.dfs g
    | "random" -> Topo.random ~seed:42 g
    | other -> raise (Invalid_argument (Printf.sprintf "unknown order %S" other))
  in
  let policy =
    match policy_name with
    | "belady" -> Graphio_pebble.Simulator.Belady
    | "lru" -> Graphio_pebble.Simulator.Lru
    | other -> raise (Invalid_argument (Printf.sprintf "unknown policy %S" other))
  in
  let r = Graphio_pebble.Simulator.simulate ~policy g ~order ~m in
  Printf.printf "schedule: %s, eviction: %s, M=%d\n" order_name policy_name m;
  Printf.printf "non-trivial I/O: %d (reads %d, writes %d, peak resident %d)\n"
    r.Graphio_pebble.Simulator.io r.Graphio_pebble.Simulator.reads
    r.Graphio_pebble.Simulator.writes r.Graphio_pebble.Simulator.peak_resident

let simulate_cmd =
  let order =
    Arg.(value & opt string "natural" & info [ "order" ] ~docv:"ORDER"
           ~doc:"natural | kahn | dfs | random.")
  in
  let policy =
    Arg.(value & opt string "belady" & info [ "policy" ] ~docv:"POLICY"
           ~doc:"belady | lru.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Simulate a schedule in the two-level memory model")
    Term.(
      ret
        (const simulate $ spec_arg $ file_arg $ m_arg $ order $ policy
        $ obs_term))

(* ------------------------------------------------------------------ *)
(* spectrum                                                            *)
(* ------------------------------------------------------------------ *)

let spectrum spec file h normalized obs =
  handle obs @@ fun () ->
  let g = load_graph ~spec ~file in
  let lap = if normalized then Laplacian.normalized g else Laplacian.standard g in
  let s = Graphio_la.Eigen.smallest ~h lap in
  Printf.printf "# %s Laplacian, %d smallest eigenvalues (%s backend)\n"
    (if normalized then "out-degree-normalized" else "standard")
    (Array.length s.Graphio_la.Eigen.values)
    (Graphio_server.Protocol.backend_name s.Graphio_la.Eigen.backend);
  Array.iter (fun l -> Printf.printf "%.10g\n" l) s.Graphio_la.Eigen.values

let spectrum_cmd =
  let h =
    Arg.(value & opt int 20 & info [ "eigenvalues" ] ~docv:"H"
           ~doc:"How many smallest eigenvalues to print.")
  in
  let normalized =
    Arg.(value & flag & info [ "normalized" ]
           ~doc:"Use the out-degree-normalized Laplacian (Theorem 4's).")
  in
  Cmd.v
    (Cmd.info "spectrum" ~doc:"Smallest Laplacian eigenvalues of a graph")
    Term.(
      ret
        (const spectrum $ spec_arg $ file_arg $ h $ normalized $ obs_term))

(* ------------------------------------------------------------------ *)
(* export                                                              *)
(* ------------------------------------------------------------------ *)

let export spec file output obs =
  handle obs @@ fun () ->
  let g = load_graph ~spec ~file in
  let dot = Dot.to_string g in
  match output with
  | Some path ->
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc dot);
      Printf.printf "wrote %s\n" path
  | None -> print_string dot

let export_cmd =
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"PATH"
           ~doc:"Output path (stdout if omitted).")
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export a graph as Graphviz DOT")
    Term.(ret (const export $ spec_arg $ file_arg $ output $ obs_term))

(* ------------------------------------------------------------------ *)
(* analyze                                                             *)
(* ------------------------------------------------------------------ *)

let analyze spec file m with_mincut search_budget obs =
  handle obs @@ fun () ->
  let g = load_graph ~spec ~file in
  let m = max m (Graphio_pebble.Simulator.min_feasible_m g) in
  let r =
    Report.create
      ~title:(Printf.sprintf "analysis (n=%d, edges=%d, M=%d)" (Dag.n_vertices g)
                (Dag.n_edges g) m)
      ~columns:[ "quantity"; "value" ]
  in
  let stats = Stats.compute g in
  Report.add_row r [ "depth (critical path)"; Report.cell_int stats.Stats.depth ];
  Report.add_row r [ "max level width"; Report.cell_int stats.Stats.max_level_width ];
  Report.add_row r [ "components"; Report.cell_int stats.Stats.components ];
  let b4 = (Solver.bound g ~m).Solver.result in
  let b5 = (Solver.bound ~method_:Solver.Standard g ~m).Solver.result in
  Report.add_row r
    [ "spectral lower bound (Thm 4)"; Report.cell_float b4.Spectral_bound.bound ];
  Report.add_row r [ "  best k"; Report.cell_int b4.Spectral_bound.best_k ];
  Report.add_row r
    [ "spectral lower bound (Thm 5)"; Report.cell_float b5.Spectral_bound.bound ];
  if with_mincut then begin
    let value, best = Graphio_flow.Convex_mincut.bound_detailed g ~m in
    Report.add_row r [ "convex min-cut lower bound"; Report.cell_int value ];
    Report.add_row r
      [ "  max wavefront"; Report.cell_int best.Graphio_flow.Convex_mincut.wavefront ]
  end;
  let searched =
    Graphio_pebble.Schedule_search.optimize ~budget:search_budget g ~m
  in
  Report.add_row r
    [ "simulated I/O (initial schedule)";
      Report.cell_int searched.Graphio_pebble.Schedule_search.initial.Graphio_pebble.Simulator.io ];
  Report.add_row r
    [ "simulated I/O (searched schedule)";
      Report.cell_int searched.Graphio_pebble.Schedule_search.result.Graphio_pebble.Simulator.io ];
  let order = searched.Graphio_pebble.Schedule_search.order in
  let _, pv = Partition_bound.best g ~order ~m in
  Report.add_row r
    [ "partition bound on that schedule"; Report.cell_float (Float.max 0.0 pv) ];
  (if Dag.n_vertices g >= 3 then
     let fiedler = Graphio_pebble.Spectral_order.upper_bound g ~m in
     Report.add_row r
       [ "simulated I/O (Fiedler schedule)";
         Report.cell_int fiedler.Graphio_pebble.Simulator.io ]);
  Report.print r

let analyze_cmd =
  let with_mincut =
    Arg.(value & flag & info [ "mincut" ]
           ~doc:"Also run the convex min-cut baseline (O(n) max-flows; slow on large graphs).")
  in
  let budget =
    Arg.(value & opt int 100 & info [ "search-budget" ] ~docv:"N"
           ~doc:"Schedule-search simulator evaluations.")
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Combined lower/upper-bound analysis of one graph")
    Term.(
      ret
        (const analyze $ spec_arg $ file_arg $ m_arg $ with_mincut $ budget
        $ obs_term))

(* ------------------------------------------------------------------ *)
(* sweep                                                               *)
(* ------------------------------------------------------------------ *)

let sweep spec file m_from m_to obs =
  handle obs @@ fun () ->
  let g = load_graph ~spec ~file in
  if m_from < 0 || m_to < m_from then
    raise (Invalid_argument "sweep: need 0 <= from <= to");
  (* one eigensolve, many M values *)
  let eig4, _ = Solver.spectrum g in
  let eig5, _ = Solver.spectrum ~method_:Solver.Standard g in
  let n = Dag.n_vertices g in
  print_endline "M,thm4,thm5";
  let m = ref m_from in
  while !m <= m_to do
    let b4 = (Spectral_bound.compute ~n ~m:!m ~eigenvalues:eig4 ()).Spectral_bound.bound in
    let b5 = (Spectral_bound.compute ~n ~m:!m ~eigenvalues:eig5 ()).Spectral_bound.bound in
    Printf.printf "%d,%.6g,%.6g\n" !m b4 b5;
    m := max (!m + 1) (!m * 2)
  done

let sweep_cmd =
  let m_from =
    Arg.(value & opt int 2 & info [ "from" ] ~docv:"M" ~doc:"Smallest memory size.")
  in
  let m_to =
    Arg.(value & opt int 256 & info [ "to" ] ~docv:"M" ~doc:"Largest memory size.")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"CSV of the spectral bounds across fast-memory sizes (doubling steps)")
    Term.(
      ret
        (const sweep $ spec_arg $ file_arg $ m_from $ m_to $ obs_term))

(* ------------------------------------------------------------------ *)
(* batch                                                               *)
(* ------------------------------------------------------------------ *)

(* Jobs file: one job per line, [SPEC m=M [p=P] [method=METHOD]] with
   METHOD any name in Method.expected; blank lines and [#] comments are
   skipped.  SPEC is a generator spec (fft:6, er:200:0.05, ...) or
   [file:PATH] for an edge-list file or binary store. *)
let parse_job_line ~path ~lineno line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then None
  else begin
    let fail msg =
      raise (Invalid_argument (Printf.sprintf "%s:%d: %s" path lineno msg))
    in
    match
      String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
    with
    | [] -> None
    | spec :: params ->
        let m = ref None and p = ref None and method_ = ref Solver.Normalized in
        List.iter
          (fun param ->
            match String.index_opt param '=' with
            | None -> fail (Printf.sprintf "expected KEY=VALUE, got %S" param)
            | Some i -> (
                let key = String.sub param 0 i in
                let v = String.sub param (i + 1) (String.length param - i - 1) in
                let pos_int name =
                  match int_of_string_opt v with
                  | Some x when x >= 1 -> x
                  | _ -> fail (Printf.sprintf "%s=%S: expected a positive integer" name v)
                in
                match key with
                | "m" -> m := Some (pos_int "m")
                | "p" -> p := Some (pos_int "p")
                | "method" -> (
                    match Graphio_core.Method.of_string v with
                    | Some m -> method_ := m
                    | None ->
                        fail
                          (Printf.sprintf "method=%S: expected %s" v
                             Graphio_core.Method.expected))
                | _ -> fail (Printf.sprintf "unknown key %S" key)))
          params;
        let m = match !m with Some m -> m | None -> fail "missing m=M" in
        let g =
          match String.index_opt spec ':' with
          | Some i when String.sub spec 0 i = "file" ->
              let file = String.sub spec (i + 1) (String.length spec - i - 1) in
              load_graph ~spec:None ~file:(Some file)
          | _ -> (
              match parse_spec spec with
              | Ok g -> g
              | Error msg -> fail msg)
        in
        Some (spec, Solver.job ~method_:!method_ ?p:!p g ~m)
  end

let load_jobs path =
  let lines = In_channel.with_open_text path In_channel.input_lines in
  let entries =
    List.mapi (fun i line -> parse_job_line ~path ~lineno:(i + 1) line) lines
    |> List.filter_map Fun.id
    |> Array.of_list
  in
  if Array.length entries = 0 then
    raise (Invalid_argument (Printf.sprintf "%s: no jobs" path));
  (Array.map fst entries, Array.map snd entries)

(* [-j 0], the default, means GRAPHIO_POOL or the core count *)
let pool_size njobs =
  let njobs = if njobs = 0 then Graphio_par.Pool.default_size () else njobs in
  if njobs < 1 then raise (Invalid_argument "-j: need at least 1");
  njobs

let dense_threshold_arg =
  Arg.(value & opt (some int) None & info [ "dense-threshold" ] ~docv:"N"
         ~doc:"Largest n solved by the dense eigensolver.")

(* batch and report: the flags that evaluate a jobs file in one
   Solver.bound_batch call.  The term's value runs the jobs, each first
   rewritten by [retarget], and returns their specs and results. *)
let jobs_term ~doc ~cache_doc =
  let path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"JOBS" ~doc)
  in
  let njobs =
    Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Domain-pool size (1 = sequential).  Defaults to \
                 $(b,GRAPHIO_POOL) or the core count.")
  in
  let h =
    Arg.(value & opt int 100 & info [ "eigenvalues" ] ~docv:"H"
           ~doc:"Number of smallest eigenvalues per spectrum.")
  in
  let cache_dir =
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:cache_doc)
  in
  let run path njobs h dense_threshold cache_dir portfolio_str no_warm_start
      no_closed_form retarget =
    let portfolio = parse_portfolio portfolio_str in
    let specs, jobs = load_jobs path in
    let jobs = Array.map retarget jobs in
    let njobs = pool_size njobs in
    let cache =
      Option.map (fun dir -> Graphio_cache.Spectrum.create ~dir ()) cache_dir
    in
    let evaluate pool =
      Solver.bound_batch ?cache ?pool ?portfolio ~h ?dense_threshold
        ~warm_start:(not no_warm_start) ~closed_form:(not no_closed_form) jobs
    in
    ( specs,
      if njobs = 1 then evaluate None
      else
        Graphio_par.Pool.with_pool ~size:njobs (fun pool ->
            evaluate (Some pool)) )
  in
  Term.(
    const run $ path $ njobs $ h $ dense_threshold_arg $ cache_dir
    $ portfolio_arg $ no_warm_start_arg $ no_closed_form_arg)

let batch run faults obs =
  handle obs @@ fun () ->
  apply_faults faults;
  let specs, results = run Fun.id in
  Array.iteri
    (fun i r ->
      let open Graphio_obs.Jsonx in
      print_endline
        (to_string
           (Obj
              (("spec", String specs.(i))
              :: Graphio_server.Protocol.answer_fields r))))
    results

let batch_cmd =
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Evaluate many spectral bounds concurrently (JSON lines on stdout)")
    Term.(
      ret
        (const batch
        $ jobs_term
            ~doc:"Jobs file: one $(b,SPEC m=M [p=P] [method=METHOD]) per line; \
                  blank lines and # comments ignored."
            ~cache_doc:"Persist computed spectra to a disk cache in $(docv) \
                        (also read from it).  Defaults to \
                        $(b,GRAPHIO_CACHE_DIR) when set; caching is off \
                        otherwise."
        $ faults_arg $ obs_term))

(* ------------------------------------------------------------------ *)
(* report                                                              *)
(* ------------------------------------------------------------------ *)

(* Portfolio survey over a jobs file: every job runs the full member set
   (a method= key in the file is ignored — report always compares), the
   table shows each member's bound per job, and the note tallies how
   often each member won. *)
let report run faults obs =
  handle obs @@ fun () ->
  apply_faults faults;
  let specs, results =
    run (fun j ->
        Solver.job ~method_:Solver.Portfolio ?p:j.Solver.p j.Solver.dag
          ~m:j.Solver.m)
  in
  let members = results.(0).Solver.outcome.Solver.methods in
  let columns =
    [ "job"; "m" ]
    @ Array.to_list
        (Array.map (fun mv -> method_name mv.Solver.mv_method) members)
    @ [ "winner" ]
  in
  let table = Graphio_core.Report.create ~title:"bound portfolio" ~columns in
  let tally = Hashtbl.create 8 in
  Array.iteri
    (fun i r ->
      let o = r.Solver.outcome in
      let winner =
        match o.Solver.winner with
        | Some w -> w
        | None -> o.Solver.method_
      in
      Hashtbl.replace tally winner
        (1 + Option.value (Hashtbl.find_opt tally winner) ~default:0);
      Graphio_core.Report.add_row table
        ([ specs.(i); string_of_int r.Solver.job.Solver.m ]
        @ Array.to_list
            (Array.map
               (fun mv -> Graphio_core.Report.cell_float mv.Solver.mv_bound)
               o.Solver.methods)
        @ [ method_name winner ]))
    results;
  Graphio_core.Report.note table
    ("winners: "
    ^ String.concat ", "
        (List.filter_map
           (fun m ->
             Option.map
               (fun c -> Printf.sprintf "%s x%d" (method_name m) c)
               (Hashtbl.find_opt tally m))
           Graphio_core.Method.concrete));
  Graphio_core.Report.print table

let report_cmd =
  Cmd.v
    (Cmd.info "report"
       ~doc:"Run the full bound portfolio over a jobs file and tabulate \
             per-method bounds and winners")
    Term.(
      ret
        (const report
        $ jobs_term
            ~doc:"Jobs file, as for $(b,graphio batch); every job runs the \
                  portfolio regardless of its method= key."
            ~cache_doc:"Persist computed spectra to a disk cache in $(docv)."
        $ faults_arg $ obs_term))

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let transport_of_args ~socket ~tcp =
  match tcp with
  | None -> Graphio_server.Server.Unix_socket socket
  | Some hostport -> (
      match String.rindex_opt hostport ':' with
      | None ->
          raise
            (Invalid_argument
               (Printf.sprintf "--tcp %S: expected HOST:PORT" hostport))
      | Some i -> (
          let host = String.sub hostport 0 i in
          let port = String.sub hostport (i + 1) (String.length hostport - i - 1) in
          match int_of_string_opt port with
          | Some p when p >= 0 && p < 65536 -> Graphio_server.Server.Tcp (host, p)
          | _ ->
              raise
                (Invalid_argument
                   (Printf.sprintf "--tcp %S: %S is not a port" hostport port))))

let socket_arg =
  Arg.(value & opt string "graphio.sock" & info [ "socket" ] ~docv:"PATH"
         ~doc:"Unix-domain socket path of the server.")

let tcp_arg =
  Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT"
         ~doc:"Use TCP instead of the Unix socket.")

let serve socket tcp njobs h dense_threshold timeout cache_dir cache_cap
    portfolio_str no_warm_start no_closed_form faults obs =
  handle obs @@ fun () ->
  apply_faults faults;
  let portfolio = parse_portfolio portfolio_str in
  let transport = transport_of_args ~socket ~tcp in
  let cache =
    match cache_dir with
    | Some dir -> Graphio_cache.Spectrum.create ?capacity:cache_cap ~dir ()
    | None -> (
        match Graphio_cache.Spectrum.ambient () with
        | Some c -> c
        | None -> Graphio_cache.Spectrum.create ?capacity:cache_cap ())
  in
  let cfg =
    {
      Graphio_server.Server.transport;
      pool_size = pool_size njobs;
      cache;
      timeout_s = timeout;
      h;
      dense_threshold;
      closed_form = not no_closed_form;
      warm_start = not no_warm_start;
      portfolio;
    }
  in
  let ready () =
    Printf.eprintf "graphio: listening on %s\n%!"
      (match transport with
      | Graphio_server.Server.Unix_socket p -> p
      | Graphio_server.Server.Tcp (host, port) -> Printf.sprintf "%s:%d" host port)
  in
  Graphio_server.Server.run ~ready cfg

let serve_cmd =
  let njobs =
    Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Domain-pool size for concurrent requests (1 = sequential). \
                 Defaults to $(b,GRAPHIO_POOL) or the core count.")
  in
  let h =
    Arg.(value & opt int 100 & info [ "eigenvalues" ] ~docv:"H"
           ~doc:"Default number of smallest eigenvalues per spectrum \
                 (requests may override with \"h\").")
  in
  let timeout =
    Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS"
           ~doc:"Default per-request deadline; overrun requests get a \
                 structured timeout reply.  Requests may override with \
                 \"timeout_s\".")
  in
  let cache_dir =
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Back the in-memory spectrum cache with a disk tier in \
                 $(docv) (shared with $(b,graphio batch --cache-dir)).  \
                 Defaults to $(b,GRAPHIO_CACHE_DIR) when set; memory-only \
                 otherwise.")
  in
  let cache_cap =
    Arg.(value & opt (some int) None & info [ "cache-entries" ] ~docv:"N"
           ~doc:"In-memory cache entry bound (LRU eviction beyond it).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve spectral bounds over a socket (newline-delimited JSON)")
    Term.(
      ret
        (const serve $ socket_arg $ tcp_arg $ njobs $ h $ dense_threshold_arg
        $ timeout $ cache_dir $ cache_cap $ portfolio_arg $ no_warm_start_arg
        $ no_closed_form_arg $ faults_arg $ obs_term))

(* ------------------------------------------------------------------ *)
(* client                                                              *)
(* ------------------------------------------------------------------ *)

let client socket tcp obs =
  handle obs @@ fun () ->
  let transport = transport_of_args ~socket ~tcp in
  let c =
    try Graphio_server.Client.connect transport
    with Unix.Unix_error (e, _, _) ->
      raise
        (Invalid_argument
           (Printf.sprintf "cannot connect to the server: %s"
              (Unix.error_message e)))
  in
  Fun.protect
    ~finally:(fun () -> Graphio_server.Client.close c)
    (fun () ->
      try
        while true do
          let line = input_line stdin in
          if String.trim line <> "" then begin
            print_endline (Graphio_server.Client.rpc c line);
            flush stdout
          end
        done
      with End_of_file -> ())

let client_cmd =
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send request lines from stdin to a running graphio serve; print \
             one reply line each")
    Term.(ret (const client $ socket_arg $ tcp_arg $ obs_term))

(* ------------------------------------------------------------------ *)
(* top                                                                 *)
(* ------------------------------------------------------------------ *)

(* A refreshing dashboard over the server's {"op":"metrics"} exposition:
   each poll fetches the full snapshot, computes latency quantiles
   client-side (Metrics.of_json round-trips the histogram), and derives
   the request rate from the counter delta between polls. *)

let snap_counter snap name =
  match Graphio_obs.Metrics.find snap name with
  | Some (Graphio_obs.Metrics.Counter n) -> n
  | _ -> 0

let snap_gauge snap name =
  match Graphio_obs.Metrics.find snap name with
  | Some (Graphio_obs.Metrics.Gauge g) -> g
  | _ -> 0.0

let render_top ~rate snap =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let ms = function Some s -> Printf.sprintf "%.2fms" (s *. 1e3) | None -> "-" in
  let requests = snap_counter snap "server.requests" in
  let errors = snap_counter snap "server.errors" in
  let lat name =
    Graphio_obs.Metrics.find snap name
    |> Option.map (fun v -> Graphio_obs.Metrics.value_quantile v)
  in
  line "graphio top";
  line "";
  line "requests   total %-8d errors %-6d rate %.1f/s" requests errors rate;
  (match lat "server.request_seconds" with
  | Some q ->
      line "latency    p50 %-10s p95 %-10s p99 %s" (ms (q 0.5)) (ms (q 0.95))
        (ms (q 0.99))
  | None -> line "latency    (no requests yet)");
  let hits = snap_counter snap "cache.hits" and misses = snap_counter snap "cache.misses" in
  let total = hits + misses in
  line "cache      hits %-9d misses %-6d hit-rate %s" hits misses
    (if total = 0 then "-" else Printf.sprintf "%.0f%%" (100.0 *. float_of_int hits /. float_of_int total));
  line "solver     closed-form %-4d warm-starts %-4d filter-degree %s"
    (snap_counter snap "core.solver.closed_form_hits")
    (snap_counter snap "core.solver.warm_start_hits")
    (match snap_gauge snap "la.eigen.filter_degree" with
    | 0.0 -> "-"
    | d -> Printf.sprintf "%.0f" d);
  line "pool       size %-9.0f queue %-7.0f steals %d"
    (snap_gauge snap "par.pool.size")
    (snap_gauge snap "par.pool.queue_depth")
    (snap_counter snap "par.pool.steals");
  line "gc         heap %-9.0f minor %-7.0f major %.0f"
    (snap_gauge snap "runtime.gc.heap_words")
    (snap_gauge snap "runtime.gc.minor_collections")
    (snap_gauge snap "runtime.gc.major_collections");
  Buffer.contents b

let top socket tcp interval iterations no_clear obs =
  handle obs @@ fun () ->
  if interval <= 0.0 then raise (Invalid_argument "--interval: must be positive");
  if iterations < 0 then raise (Invalid_argument "--iterations: must be >= 0");
  let transport = transport_of_args ~socket ~tcp in
  let c =
    try Graphio_server.Client.connect transport
    with Unix.Unix_error (e, _, _) ->
      raise
        (Invalid_argument
           (Printf.sprintf "cannot connect to the server: %s"
              (Unix.error_message e)))
  in
  Fun.protect
    ~finally:(fun () -> Graphio_server.Client.close c)
    (fun () ->
      let prev = ref None in
      let i = ref 0 in
      let continue () = iterations = 0 || !i < iterations in
      while continue () do
        incr i;
        let reply = Graphio_server.Client.rpc c {|{"op":"metrics"}|} in
        let json = Graphio_obs.Jsonx.of_string reply in
        (match Graphio_obs.Jsonx.member "ok" json with
        | Some (Graphio_obs.Jsonx.Bool true) -> ()
        | _ -> raise (Failure ("unexpected metrics reply: " ^ reply)));
        let snap =
          match Graphio_obs.Jsonx.member "metrics" json with
          | Some m -> Graphio_obs.Metrics.of_json m
          | None -> raise (Failure "metrics reply carries no snapshot")
        in
        let now = Graphio_obs.Clock.now_ns () in
        let requests = snap_counter snap "server.requests" in
        let rate =
          match !prev with
          | Some (r0, t0) when now > t0 ->
              float_of_int (requests - r0) /. (float_of_int (now - t0) /. 1e9)
          | _ -> 0.0
        in
        prev := Some (requests, now);
        if not no_clear then print_string "\027[2J\027[H";
        print_string (render_top ~rate snap);
        flush stdout;
        if continue () then Unix.sleepf interval
      done)

let top_cmd =
  let interval =
    Arg.(value & opt float 2.0 & info [ "interval" ] ~docv:"SECONDS"
           ~doc:"Seconds between polls.")
  in
  let iterations =
    Arg.(value & opt int 0 & info [ "iterations" ] ~docv:"N"
           ~doc:"Stop after $(docv) refreshes (0 = run until interrupted).")
  in
  let no_clear =
    Arg.(value & flag & info [ "no-clear" ]
           ~doc:"Append refreshes instead of clearing the screen (pipelines, \
                 tests).")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Poll a running graphio serve and render a refreshing \
             latency/cache/pool dashboard")
    Term.(
      ret
        (const top $ socket_arg $ tcp_arg $ interval $ iterations $ no_clear
        $ obs_term))

(* ------------------------------------------------------------------ *)

let () =
  let info =
    Cmd.info "graphio" ~version:"1.0.0"
      ~doc:"Spectral lower bounds on the I/O complexity of computation graphs"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            generate_cmd; convert_cmd; bound_cmd; baseline_cmd; simulate_cmd;
            spectrum_cmd;
            export_cmd; analyze_cmd; sweep_cmd; batch_cmd; report_cmd;
            serve_cmd; client_cmd;
            top_cmd;
          ]))
