(* Bench harness: regenerates every table/figure of the paper's evaluation
   (Figures 7-11) plus the Section 5 closed-form checks, the Theorem 6
   parallel sweep and the ablation, relaxation, gallery, sandwich and
   tightness studies.  Each section prints the same series the paper plots.

   Usage:
     dune exec bench/main.exe                  -- all sections
     dune exec bench/main.exe -- fig7 fig11    -- selected sections
     dune exec bench/main.exe -- --csv fig8    -- also dump CSV
     dune exec bench/main.exe -- --quick       -- reduced sweeps (CI-sized)
     dune exec bench/main.exe -- --json PATH   -- per-section wall time and work
     dune exec bench/main.exe -- --faults PLAN -- install a fault plan
     dune exec bench/main.exe -- bechamel      -- micro-benchmarks only

   This is the paper-reproduction harness only.  The performance of the
   pipeline itself (eigensolver, batch, serve, recognizer, store,
   portfolio) is measured by perfbench/ (BENCHMARK.json).

   Absolute numbers differ from the paper's (different machine, different
   eigensolver); the *shapes* are the reproduction target: who wins, how
   bounds grow against the published terms, where the min-cut baseline
   collapses, and how its runtime explodes. *)

open Graphio_graph
open Graphio_workloads
open Graphio_spectra
open Graphio_core

let csv_mode = ref false
let quick = ref false
let json_path = ref None

let emit report =
  Report.print report;
  if !csv_mode then print_string (Report.to_csv report);
  print_newline ()

(* Monotonic clock: wall-clock adjustments (NTP slews, suspend) must not
   corrupt benchmark timings. *)
let time f = Graphio_obs.Clock.time f

let counter_of snapshot name =
  match Graphio_obs.Metrics.find snapshot name with
  | Some (Graphio_obs.Metrics.Counter v) -> v
  | _ -> 0

(* Eigensolve once per (graph, method), reuse across M values. *)
let spectral_bounds g ~ms =
  let eigenvalues, _ = Solver.spectrum g in
  let n = Dag.n_vertices g in
  List.map
    (fun m -> (Spectral_bound.compute ~n ~m ~eigenvalues ()).Spectral_bound.bound)
    ms

(* The expensive wavefront maximization is M-independent: do it once. *)
let mincut_bounds g ~ms =
  let best = Graphio_flow.Convex_mincut.max_wavefront g in
  List.map (fun m -> Graphio_flow.Convex_mincut.bound_of_wavefront best ~m) ms

let simulated g ~ms =
  List.map
    (fun m ->
      (Graphio_pebble.Simulator.best_upper_bound ~extra_orders:1 g ~m)
        .Graphio_pebble.Simulator.io)
    ms

let cells_of_floats = List.map Report.cell_float
let cells_of_ints = List.map Report.cell_int

(* ------------------------------------------------------------------ *)
(* Figure 7: FFT                                                       *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  let ms = [ 4; 8; 16 ] in
  let ls = if !quick then [ 3; 4; 5; 6; 7 ] else [ 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ] in
  let mincut_cutoff = if !quick then 5 else 7 in
  let r =
    Report.create ~title:"fig7-fft-bound-vs-l: I/O bound vs l for 2^l point FFT"
      ~columns:
        ([ "l"; "n" ]
        @ List.map (fun m -> Printf.sprintf "spectral M=%d" m) ms
        @ List.map (fun m -> Printf.sprintf "mincut M=%d" m) ms
        @ [ "simulated M=4" ])
  in
  let spectral_series = ref [] in
  List.iter
    (fun l ->
      let g = Fft.build l in
      let spectral = spectral_bounds g ~ms in
      spectral_series := (l, Dag.n_vertices g, spectral) :: !spectral_series;
      let mincut =
        if l <= mincut_cutoff then cells_of_ints (mincut_bounds g ~ms)
        else List.map (fun _ -> "-") ms
      in
      let sim = simulated g ~ms:[ 4 ] in
      Report.add_row r
        (cells_of_ints [ l; Dag.n_vertices g ]
        @ cells_of_floats spectral @ mincut @ cells_of_ints sim))
    ls;
  Report.note r
    (Printf.sprintf
       "min-cut cut off above l=%d (O(n^5) runtime; the paper used a 1-day cutoff)"
       mincut_cutoff);
  emit r;
  (* bottom panel: spectral bound vs l*2^l *)
  let r2 =
    Report.create
      ~title:"fig7-fft-bound-vs-l2l: spectral bound vs l*2^l (linearity check)"
      ~columns:([ "l"; "l*2^l" ] @ List.map (fun m -> Printf.sprintf "spectral M=%d" m) ms)
  in
  List.iter
    (fun (l, _, spectral) ->
      Report.add_row r2 (cells_of_ints [ l; l * (1 lsl l) ] @ cells_of_floats spectral))
    (List.rev !spectral_series);
  Report.note r2 "published bound is Omega(l*2^l / log M): columns should grow ~linearly";
  emit r2

(* ------------------------------------------------------------------ *)
(* Figure 8: naive matrix multiplication                               *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  let ms = [ 32; 64; 128 ] in
  let ns = if !quick then [ 4; 6; 8 ] else [ 4; 6; 8; 10; 12; 14; 16; 20 ] in
  let mincut_cutoff = if !quick then 6 else 8 in
  let r =
    Report.create ~title:"fig8-matmul-bound-vs-n: I/O bound vs n for n x n naive matmul"
      ~columns:
        ([ "n"; "vertices" ]
        @ List.map (fun m -> Printf.sprintf "spectral M=%d" m) ms
        @ List.map (fun m -> Printf.sprintf "mincut M=%d" m) ms)
  in
  let series = ref [] in
  List.iter
    (fun n ->
      let g = Matmul.build n in
      let spectral = spectral_bounds g ~ms in
      series := (n, spectral) :: !series;
      let mincut =
        if n <= mincut_cutoff then cells_of_ints (mincut_bounds g ~ms)
        else List.map (fun _ -> "-") ms
      in
      Report.add_row r
        (cells_of_ints [ n; Dag.n_vertices g ] @ cells_of_floats spectral @ mincut))
    ns;
  Report.note r "paper finding reproduced: convex min-cut is trivial (0) on naive matmul";
  emit r;
  let r2 =
    Report.create ~title:"fig8-matmul-bound-vs-n3: spectral bound vs n^3"
      ~columns:([ "n"; "n^3" ] @ List.map (fun m -> Printf.sprintf "spectral M=%d" m) ms)
  in
  List.iter
    (fun (n, spectral) ->
      Report.add_row r2 (cells_of_ints [ n; n * n * n ] @ cells_of_floats spectral))
    (List.rev !series);
  Report.note r2 "published bound is Omega(n^3/sqrt(M))";
  emit r2

(* ------------------------------------------------------------------ *)
(* Figure 9: Strassen                                                  *)
(* ------------------------------------------------------------------ *)

let fig9 () =
  let ms = [ 8; 16 ] in
  let ns = if !quick then [ 2; 4; 8 ] else [ 2; 4; 8; 16 ] in
  let mincut_cutoff = 8 in
  let r =
    Report.create ~title:"fig9-strassen-bound-vs-n: I/O bound vs n for Strassen matmul"
      ~columns:
        ([ "n"; "vertices" ]
        @ List.map (fun m -> Printf.sprintf "spectral M=%d" m) ms
        @ List.map (fun m -> Printf.sprintf "mincut M=%d" m) ms)
  in
  let series = ref [] in
  List.iter
    (fun n ->
      let g = Strassen.build n in
      let spectral = spectral_bounds g ~ms in
      series := (n, spectral) :: !series;
      let mincut =
        if n <= mincut_cutoff then cells_of_ints (mincut_bounds g ~ms)
        else List.map (fun _ -> "-") ms
      in
      Report.add_row r
        (cells_of_ints [ n; Dag.n_vertices g ] @ cells_of_floats spectral @ mincut))
    ns;
  emit r;
  let r2 =
    Report.create ~title:"fig9-strassen-bound-vs-nlog27: spectral bound vs n^log2(7)"
      ~columns:
        ([ "n"; "n^log2(7)" ] @ List.map (fun m -> Printf.sprintf "spectral M=%d" m) ms)
  in
  List.iter
    (fun (n, spectral) ->
      let nl7 = Float.pow (float_of_int n) (log 7.0 /. log 2.0) in
      Report.add_row r2
        ([ Report.cell_int n; Report.cell_float nl7 ] @ cells_of_floats spectral))
    (List.rev !series);
  Report.note r2 "published bound is Omega((n/sqrt M)^log2(7) * M)";
  emit r2

(* ------------------------------------------------------------------ *)
(* Figure 10: Bellman-Held-Karp                                        *)
(* ------------------------------------------------------------------ *)

let fig10 () =
  let ms = [ 16; 32; 64 ] in
  let ls = if !quick then [ 6; 7; 8; 9; 10 ] else [ 6; 7; 8; 9; 10; 11; 12; 13 ] in
  let mincut_cutoff = if !quick then 8 else 9 in
  let r =
    Report.create ~title:"fig10-bhk-bound-vs-l: I/O bound vs l for l-city TSP (BHK)"
      ~columns:
        ([ "l"; "n=2^l" ]
        @ List.map (fun m -> Printf.sprintf "spectral M=%d" m) ms
        @ List.map (fun m -> Printf.sprintf "mincut M=%d" m) ms)
  in
  let series = ref [] in
  List.iter
    (fun l ->
      let g = Bhk.build l in
      let spectral = spectral_bounds g ~ms in
      series := (l, spectral) :: !series;
      let mincut =
        if l <= mincut_cutoff then cells_of_ints (mincut_bounds g ~ms)
        else List.map (fun _ -> "-") ms
      in
      Report.add_row r (cells_of_ints [ l; 1 lsl l ] @ cells_of_floats spectral @ mincut))
    ls;
  emit r;
  let r2 =
    Report.create ~title:"fig10-bhk-bound-vs-2l-over-l: spectral bound vs 2^l/l"
      ~columns:([ "l"; "2^l/l" ] @ List.map (fun m -> Printf.sprintf "spectral M=%d" m) ms)
  in
  List.iter
    (fun (l, spectral) ->
      Report.add_row r2
        ([ Report.cell_int l;
           Report.cell_float (float_of_int (1 lsl l) /. float_of_int l) ]
        @ cells_of_floats spectral))
    (List.rev !series);
  Report.note r2 "section 5.1 derives Omega(2^l/l - 2Ml) for this graph";
  emit r2

(* ------------------------------------------------------------------ *)
(* Figure 11: runtime comparison                                       *)
(* ------------------------------------------------------------------ *)

let fig11 () =
  let ls = if !quick then [ 6; 7; 8 ] else [ 6; 7; 8; 9; 10; 11 ] in
  let m = 16 in
  let r =
    Report.create ~title:"fig11-runtime: seconds to compute the bound for l-city BHK"
      ~columns:[ "l"; "n=2^l"; "spectral (s)"; "convex min-cut (s)" ]
  in
  List.iter
    (fun l ->
      let g = Bhk.build l in
      let _, spectral_t = time (fun () -> Solver.bound g ~m) in
      let mincut_cell =
        if l <= (if !quick then 8 else 10) then begin
          let _, t = time (fun () -> Graphio_flow.Convex_mincut.bound g ~m) in
          Report.cell_float t
        end
        else "-"
      in
      Report.add_row r
        [ Report.cell_int l; Report.cell_int (1 lsl l); Report.cell_float spectral_t;
          mincut_cell ])
    ls;
  Report.note r
    "the paper: 8.5 hours (min-cut) vs 98 s (spectral) at l=15; same explosion shape";
  emit r

(* ------------------------------------------------------------------ *)
(* Section 5.1: hypercube closed forms                                 *)
(* ------------------------------------------------------------------ *)

let sec51 () =
  let m = 16 in
  let r =
    Report.create
      ~title:(Printf.sprintf "sec51-hypercube-analytic: closed forms, M = %d" m)
      ~columns:
        [ "l"; "alpha1 formula"; "alpha-optimized"; "exact-spectrum Thm5"; "numeric Thm4" ]
  in
  let ls = if !quick then [ 8; 10; 12 ] else [ 8; 10; 12; 14; 16; 18; 20 ] in
  List.iter
    (fun l ->
      let alpha1 = Analytic.hypercube_alpha1 ~l ~m in
      let best, _ = Analytic.hypercube_best ~l ~m in
      let exact =
        (* all-k search: the hypercube analytics pick k = sums of
           binomials far beyond the paper's h = 100 cap *)
        (Solver.bound_of_spectrum_all_k
           ~spectrum:(Hypercube_spectra.spectrum l)
           ~scale:(1.0 /. float_of_int l)
           ~n:(1 lsl l) ~m ())
          .Spectral_bound.bound
      in
      let numeric =
        if l <= 12 then
          Report.cell_float
            (Solver.bound (Bhk.build l) ~m).Solver.result.Spectral_bound.bound
        else "-"
      in
      Report.add_row r
        [ Report.cell_int l; Report.cell_float alpha1; Report.cell_float best;
          Report.cell_float exact; numeric ])
    ls;
  Report.note r
    "exact-spectrum searches all k over the full hypercube spectrum; analytic zeroes the tail";
  emit r

(* ------------------------------------------------------------------ *)
(* Section 5.2: FFT closed forms and the Hong-Kung gap                 *)
(* ------------------------------------------------------------------ *)

let sec52 () =
  let m = 16 in
  let r =
    Report.create
      ~title:(Printf.sprintf "sec52-fft-analytic: closed forms, M = %d" m)
      ~columns:
        [ "l"; "analytic 5.2"; "exact-spectrum Thm5"; "hong-kung l*2^l/log2M"; "ratio" ]
  in
  let ls = if !quick then [ 10; 14; 18 ] else [ 10; 12; 14; 16; 18; 20; 24; 28; 32 ] in
  List.iter
    (fun l ->
      let analytic = Float.max 0.0 (fst (Analytic.fft_best ~l ~m)) in
      let exact =
        (Solver.bound_of_spectrum_all_k
           ~spectrum:(Butterfly_spectra.spectrum l)
           ~scale:0.5
           ~n:(Butterfly_spectra.n_vertices l)
           ~m ())
          .Spectral_bound.bound
      in
      let hk = Analytic.fft_hong_kung ~l ~m in
      Report.add_row r
        [ Report.cell_int l; Report.cell_float analytic; Report.cell_float exact;
          Report.cell_float hk; Report.cell_float (exact /. hk) ])
    ls;
  Report.note r
    "the ratio column approaches ~1/log2(M) scale as l grows (paper: 1/log M factor)";
  emit r

(* ------------------------------------------------------------------ *)
(* Section 5.3: Erdos-Renyi                                            *)
(* ------------------------------------------------------------------ *)

let sec53 () =
  let m = 4 in
  let p0 = 8.0 in
  let r =
    Report.create
      ~title:
        (Printf.sprintf "sec53-er-random: sparse regime p=%.0f*log n/(n-1), M=%d" p0 m)
      ~columns:[ "n"; "lambda2"; "dmax"; "measured k=2 bound"; "formula 5.3" ]
  in
  let ns = if !quick then [ 100; 200 ] else [ 100; 200; 400; 800 ] in
  let k2_bound g lambda2 =
    let n = Dag.n_vertices g in
    let dmax = Dag.max_out_degree g in
    Float.max 0.0
      ((float_of_int (n / 2) *. lambda2 /. float_of_int dmax)
      -. (4.0 *. float_of_int m))
  in
  List.iter
    (fun n ->
      let p = Er.connectivity_regime_p ~n ~p0 in
      let g = Er.gnp_connected ~n ~p ~seed:(n * 13) ~max_attempts:100 in
      let lap = Laplacian.standard g in
      let lambda2 =
        Float.max 0.0 (Graphio_la.Eigen.smallest ~h:2 lap).Graphio_la.Eigen.values.(1)
      in
      Report.add_row r
        [ Report.cell_int n; Report.cell_float lambda2;
          Report.cell_int (Dag.max_out_degree g);
          Report.cell_float (k2_bound g lambda2);
          Report.cell_float (Analytic.er_sparse ~n ~p0 ~m) ])
    ns;
  emit r;
  let r2 =
    Report.create
      ~title:(Printf.sprintf "sec53-er-random: dense regime p=0.5, M=%d" m)
      ~columns:[ "n"; "lambda2"; "measured k=2 bound"; "n/2 - 4M" ]
  in
  List.iter
    (fun n ->
      let g = Er.gnp_connected ~n ~p:0.5 ~seed:(n * 29) ~max_attempts:20 in
      let lap = Laplacian.standard g in
      let lambda2 =
        Float.max 0.0 (Graphio_la.Eigen.smallest ~h:2 lap).Graphio_la.Eigen.values.(1)
      in
      Report.add_row r2
        [ Report.cell_int n; Report.cell_float lambda2;
          Report.cell_float (k2_bound g lambda2);
          Report.cell_float (Analytic.er_dense ~n ~m) ])
    ns;
  Report.note r2 "measured k=2 bound approaches the n/2 - 4M asymptote from below";
  emit r2

(* ------------------------------------------------------------------ *)
(* Theorem 6: parallel bounds                                          *)
(* ------------------------------------------------------------------ *)

let thm6 () =
  let r =
    Report.create ~title:"thm6-parallel: per-processor bound vs p"
      ~columns:[ "graph"; "p=1"; "p=2"; "p=4"; "p=8"; "p=16" ]
  in
  let ps = [ 1; 2; 4; 8; 16 ] in
  let row name n eigenvalues =
    let bounds =
      List.map
        (fun p ->
          (Spectral_bound.compute ~n ~m:8 ~p ~eigenvalues ()).Spectral_bound.bound)
        ps
    in
    Report.add_row r (name :: List.map Report.cell_float bounds)
  in
  let fft_l = if !quick then 8 else 9 in
  let g = Fft.build fft_l in
  let eigs, _ = Solver.spectrum g in
  row (Printf.sprintf "fft l=%d (numeric)" fft_l) (Dag.n_vertices g) eigs;
  let l = 16 in
  let closed =
    Multiset.smallest (Butterfly_spectra.spectrum l) ~h:100
    |> Array.map (fun x -> x /. 2.0)
  in
  row "fft l=16 (closed form, Thm5)" (Butterfly_spectra.n_vertices l) closed;
  let bg = Bhk.build 10 in
  let eigs_b, _ = Solver.spectrum bg in
  row "bhk l=10 (numeric)" (Dag.n_vertices bg) eigs_b;
  (* empirical side: a simulated parallel execution's busiest processor *)
  let sim_row name g m =
    let order = Topo.natural g in
    let cells =
      List.map
        (fun p ->
          let assignment = Graphio_pebble.Parallel_sim.block_assignment g ~order ~p in
          let r = Graphio_pebble.Parallel_sim.simulate g ~assignment ~order ~p ~m in
          Report.cell_int r.Graphio_pebble.Parallel_sim.max_io)
        ps
    in
    Report.add_row r (name :: cells)
  in
  sim_row "fft l=9 simulated max-proc I/O" (Fft.build fft_l) 8;
  sim_row "bhk l=10 simulated max-proc I/O" bg 16;
  Report.note r "Theorem 6: at least one of p processors incurs this much I/O";
  Report.note r
    "simulated rows: block-partitioned parallel executions; each upper-bounds its bound row";
  emit r

(* ------------------------------------------------------------------ *)
(* Ablations (design choices called out in DESIGN.md)                  *)
(* ------------------------------------------------------------------ *)

let ablations () =
  (* 1. h (number of eigenvalues) vs bound strength: section 6.5's claim
     that modest h loses nothing. *)
  let g = Fft.build (if !quick then 7 else 9) in
  let n = Dag.n_vertices g in
  let eigenvalues, _ = Solver.spectrum ~h:256 g in
  let r =
    Report.create
      ~title:"ablation-h: bound strength vs number of eigenvalues h (FFT, M=4)"
      ~columns:[ "h"; "bound"; "best k" ]
  in
  List.iter
    (fun h ->
      let eigs = Array.sub eigenvalues 0 (min h (Array.length eigenvalues)) in
      let b = Spectral_bound.compute ~n ~m:4 ~eigenvalues:eigs () in
      Report.add_row r
        [ Report.cell_int h; Report.cell_float b.Spectral_bound.bound;
          Report.cell_int b.Spectral_bound.best_k ])
    [ 4; 8; 16; 32; 64; 100; 128; 256 ];
  Report.note r "the paper sets h=100; beyond the best k, extra eigenvalues change nothing";
  emit r;
  (* 2. Theorem 4 vs Theorem 5 tightness across workloads. *)
  let r2 =
    Report.create
      ~title:"ablation-method: Theorem 4 (normalized) vs Theorem 5 (standard)"
      ~columns:[ "graph"; "M"; "thm4"; "thm5" ]
  in
  List.iter
    (fun (name, g, m) ->
      let b4 = (Solver.bound g ~m).Solver.result.Spectral_bound.bound in
      let b5 =
        (Solver.bound ~method_:Solver.Standard g ~m).Solver.result.Spectral_bound.bound
      in
      Report.add_row r2
        [ name; Report.cell_int m; Report.cell_float b4; Report.cell_float b5 ])
    [
      ("fft l=8", Fft.build 8, 4);
      ("bhk l=10", Bhk.build 10, 16);
      ("matmul n=8", Matmul.build 8, 32);
      ("strassen n=8", Strassen.build 8, 8);
    ];
  Report.note r2 "Thm 5 trades tightness for closed-form convenience; never tighter than Thm 4";
  emit r2;
  (* 3. graph-shape ablation: n-ary vs binary dot-product sums. *)
  let r3 =
    Report.create ~title:"ablation-sum-shape: matmul with n-ary vs binary sums (M=16)"
      ~columns:[ "n"; "n-ary bound"; "binary bound" ]
  in
  List.iter
    (fun n ->
      let a = (Solver.bound (Matmul.build n) ~m:16).Solver.result.Spectral_bound.bound in
      let b =
        (Solver.bound (Matmul.build_binary_sums n) ~m:16).Solver.result.Spectral_bound.bound
      in
      Report.add_row r3 [ Report.cell_int n; Report.cell_float a; Report.cell_float b ])
    [ 10; 12; 14; 16 ];
  emit r3

(* ------------------------------------------------------------------ *)
(* Relaxation gap: Theorem 4 (orthogonal relaxation) vs Theorem 2      *)
(* evaluated on concrete schedules                                     *)
(* ------------------------------------------------------------------ *)

let relaxation () =
  let r =
    Report.create
      ~title:"relaxation: spectral bound vs exact partition bound on real schedules"
      ~columns:
        [ "graph"; "M"; "spectral (Thm 4)"; "partition best-X"; "partition worst-X";
          "simulated" ]
  in
  List.iter
    (fun (name, g, m) ->
      let spectral = (Solver.bound g ~m).Solver.result.Spectral_bound.bound in
      let orders =
        [ Topo.natural g; Topo.kahn g; Topo.dfs g; Topo.random ~seed:11 g ]
      in
      let values =
        List.map (fun order -> snd (Partition_bound.best g ~order ~m)) orders
      in
      let best = List.fold_left Float.max neg_infinity values in
      let worst = List.fold_left Float.min infinity values in
      let sim =
        (Graphio_pebble.Simulator.best_upper_bound ~extra_orders:1 g ~m)
          .Graphio_pebble.Simulator.io
      in
      Report.add_row r
        [ name; Report.cell_int m;
          Report.cell_float spectral;
          Report.cell_float (Float.max 0.0 worst);
          Report.cell_float (Float.max 0.0 best);
          Report.cell_int sim ])
    [
      ("fft l=7", Fft.build 7, 4);
      ("fft l=8", Fft.build 8, 4);
      ("bhk l=9", Bhk.build 9, 16);
      ("matmul n=6", Matmul.build 6, 32);
      ("strassen n=4", Strassen.build 4, 8);
    ];
  Report.note r
    "spectral <= partition value for every schedule and k (the relaxation direction)";
  Report.note r
    "columns 4-5 show min/max over {natural, kahn, dfs, random} schedules";
  emit r

(* ------------------------------------------------------------------ *)
(* Workload gallery: the extended families                             *)
(* ------------------------------------------------------------------ *)

let gallery () =
  let r =
    Report.create
      ~title:"gallery: spectral bound vs simulated I/O across graph shapes (M=8)"
      ~columns:
        [ "graph"; "n"; "edges"; "depth"; "spectral"; "simulated"; "fiedler"; "searched" ]
  in
  let m = 8 in
  List.iter
    (fun (name, g) ->
      let m = max m (Graphio_pebble.Simulator.min_feasible_m g) in
      let spectral = (Solver.bound g ~m).Solver.result.Spectral_bound.bound in
      let sim =
        (Graphio_pebble.Simulator.best_upper_bound ~extra_orders:1 g ~m)
          .Graphio_pebble.Simulator.io
      in
      let searched =
        (Graphio_pebble.Schedule_search.optimize ~budget:80 g ~m)
          .Graphio_pebble.Schedule_search.result
          .Graphio_pebble.Simulator.io
      in
      let fiedler =
        (Graphio_pebble.Spectral_order.upper_bound g ~m).Graphio_pebble.Simulator.io
      in
      Report.add_row r
        [ name; Report.cell_int (Dag.n_vertices g); Report.cell_int (Dag.n_edges g);
          Report.cell_int (Stats.compute g).Stats.depth; Report.cell_float spectral;
          Report.cell_int sim; Report.cell_int fiedler; Report.cell_int searched ])
    [
      ("fft l=8 (butterfly)", Fft.build 8);
      ("bitonic l=5", Bitonic.build 5);
      ("bhk l=9 (hypercube)", Bhk.build 9);
      ("matmul n=6", Matmul.build 6);
      ("strassen n=4", Strassen.build 4);
      ("stencil 64x16", Stencil.build ~width:64 ~steps:16 ());
      ("pyramid 48", Stencil.pyramid 48);
      ("reduction 512", Reduction.build 512);
      ("prefix-sum 512", Sequences.prefix_sum 512);
      ("horner d=100", Sequences.horner 100);
      ("er n=500 p=0.02", Er.gnp ~n:500 ~p:0.02 ~seed:3);
    ];
  Report.note r "sequential shapes (reduction/scan/horner) rightly bound to ~0";
  Report.note r
    "'fiedler' = schedule ordered by the Fiedler vector of the same Laplacian the bound uses";
  Report.note r "'searched' = hill-climbed schedule (upper bounds only tighten)";
  emit r;
  (* Figures 1-6 as DOT files. *)
  let outdir = "bench_figures" in
  (try Unix.mkdir outdir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let export name ?order ?partition g =
    Dot.to_file ?order ?partition (Filename.concat outdir (name ^ ".dot")) g
  in
  export "figure1-inner-product" (Inner_product.build 2);
  let fig2, fig2_partition = Inner_product.figure2 () in
  export "figure2-partition" ~order:(Topo.natural fig2) ~partition:fig2_partition fig2;
  export "figure4-bhk-3cities" (Bhk.build 3);
  export "figure5-fft-4pt" (Fft.build 2);
  export "figure6a-fft-8pt" (Fft.build 3);
  export "figure6b-matmul-2x2" (Matmul.build 2);
  export "figure6c-strassen-2x2" (Strassen.build 2);
  export "figure6d-bhk-5cities" (Bhk.build 5);
  Printf.printf "wrote Figure 1-6 DOT files to %s/\n\n" outdir

(* ------------------------------------------------------------------ *)
(* Sandwich validation                                                 *)
(* ------------------------------------------------------------------ *)

let sandwich () =
  let r =
    Report.create ~title:"sandwich: every lower bound below a simulated schedule's I/O"
      ~columns:[ "graph"; "M"; "spectral"; "mincut"; "simulated"; "ok" ]
  in
  List.iter
    (fun (name, g, m) ->
      let s = (Solver.bound g ~m).Solver.result.Spectral_bound.bound in
      let c = Graphio_flow.Convex_mincut.bound g ~m in
      let u =
        (Graphio_pebble.Simulator.best_upper_bound g ~m).Graphio_pebble.Simulator.io
      in
      let ok = s <= float_of_int u +. 1e-6 && c <= u in
      Report.add_row r
        [ name; Report.cell_int m; Report.cell_float s; Report.cell_int c;
          Report.cell_int u; string_of_bool ok ])
    [
      ("fft l=8", Fft.build 8, 4);
      ("fft l=8", Fft.build 8, 16);
      ("bhk l=9", Bhk.build 9, 16);
      ("matmul n=6", Matmul.build 6, 32);
      ("strassen n=4", Strassen.build 4, 8);
    ];
  emit r

(* ------------------------------------------------------------------ *)
(* Tightness at small sizes: lower bounds vs the true optimum          *)
(* ------------------------------------------------------------------ *)

let tightness () =
  let r =
    Report.create
      ~title:"tightness: lower bounds vs the exact optimum J* (tiny graphs)"
      ~columns:
        [ "graph"; "n"; "M"; "spectral"; "mincut"; "partition"; "J* (exact)";
          "simulated" ]
  in
  let cases =
    [
      ("fft l=2", Fft.build 2, 3);
      ("inner d=4", Inner_product.build 4, 3);
      ("pyramid 5", Stencil.pyramid 5, 3);
      ("bhk l=4", Bhk.build 4, 5);
      ("matmul n=2", Matmul.build 2, 4);
      ("er n=14", Er.gnp ~n:14 ~p:0.35 ~seed:4, 5);
      ("er n=16", Er.gnp ~n:16 ~p:0.3 ~seed:9, 4);
    ]
  in
  List.iter
    (fun (name, g, m) ->
      let m = max m (Graphio_pebble.Simulator.min_feasible_m g) in
      let spectral = (Solver.bound g ~m).Solver.result.Spectral_bound.bound in
      let mincut = Graphio_flow.Convex_mincut.bound g ~m in
      let partition =
        List.fold_left
          (fun acc order -> Float.max acc (snd (Partition_bound.best g ~order ~m)))
          0.0
          [ Topo.natural g; Topo.kahn g; Topo.dfs g ]
      in
      let exact =
        match Graphio_pebble.Exact.optimal_io g ~m with
        | io -> Report.cell_int io
        | exception Graphio_pebble.Exact.Too_large _ -> "-"
      in
      let sim =
        (Graphio_pebble.Simulator.best_upper_bound g ~m).Graphio_pebble.Simulator.io
      in
      Report.add_row r
        [ name; Report.cell_int (Dag.n_vertices g); Report.cell_int m;
          Report.cell_float spectral; Report.cell_int mincut;
          Report.cell_float (Float.max 0.0 partition); exact;
          Report.cell_int sim ])
    cases;
  Report.note r
    "J* computed by exhaustive state search — the paper's figures never had the true optimum";
  Report.note r
    "partition column is max over {natural,kahn,dfs}: a bound on those schedules, not on J*";
  emit r

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let bechamel () =
  let open Bechamel in
  let open Bechamel.Toolkit in
  let fft7 = Fft.build 7 in
  let bhk8 = Bhk.build 8 in
  let mat6 = Matmul.build 6 in
  let lap = Laplacian.normalized fft7 in
  let tests =
    [
      Test.make ~name:"fig7/spectral-bound fft l=7 M=8"
        (Staged.stage (fun () -> ignore (Solver.bound fft7 ~m:8)));
      Test.make ~name:"fig8/spectral-bound matmul n=6 M=32"
        (Staged.stage (fun () -> ignore (Solver.bound mat6 ~m:32)));
      Test.make ~name:"fig10/spectral-bound bhk l=8 M=16"
        (Staged.stage (fun () -> ignore (Solver.bound bhk8 ~m:16)));
      Test.make ~name:"fig11/convex-mincut bhk l=8 M=16"
        (Staged.stage (fun () -> ignore (Graphio_flow.Convex_mincut.bound bhk8 ~m:16)));
      Test.make ~name:"substrate/laplacian-build fft l=7"
        (Staged.stage (fun () -> ignore (Laplacian.normalized fft7)));
      Test.make ~name:"substrate/eigen-smallest h=32 fft l=7"
        (Staged.stage (fun () -> ignore (Graphio_la.Eigen.smallest ~h:32 lap)));
      Test.make ~name:"substrate/pebble-simulate fft l=7 M=8"
        (Staged.stage (fun () ->
             ignore
               (Graphio_pebble.Simulator.simulate fft7 ~order:(Topo.natural fft7) ~m:8)));
      Test.make ~name:"substrate/graph-build fft l=7"
        (Staged.stage (fun () -> ignore (Fft.build 7)));
    ]
  in
  let benchmark test =
    let quota = Time.second 0.5 in
    Benchmark.all
      (Benchmark.cfg ~limit:200 ~quota ~kde:(Some 10) ())
      Instance.[ monotonic_clock ]
      test
  in
  let analyze results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
      Instance.monotonic_clock results
  in
  print_endline "== bechamel: wall-clock micro-benchmarks ==";
  List.iter
    (fun test ->
      let results = benchmark test in
      let stats = analyze results in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "%-45s %12.0f ns/run\n" name est
          | _ -> Printf.printf "%-45s (no estimate)\n" name)
        stats)
    tests;
  print_newline ()

(* ------------------------------------------------------------------ *)

let sections =
  [
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("sec51", sec51);
    ("sec52", sec52);
    ("sec53", sec53);
    ("thm6", thm6);
    ("relaxation", relaxation);
    ("gallery", gallery);
    ("ablations", ablations);
    ("tightness", tightness);
    ("sandwich", sandwich);
    ("bechamel", bechamel);
  ]

let () =
  let rec parse acc = function
    | [] -> List.rev acc
    | "--csv" :: rest ->
        csv_mode := true;
        parse acc rest
    | "--quick" :: rest ->
        quick := true;
        parse acc rest
    | "--json" :: path :: rest ->
        json_path := Some path;
        parse acc rest
    | [ "--json" ] ->
        prerr_endline "bench: --json requires an output path";
        exit 2
    | "--faults" :: plan :: rest -> (
        (* installed as in graphio; the paper sections call plain
           Solver.bound, which reaches no fault site (no cache, pool,
           store or server), so only a malformed plan shows: exit 2 *)
        match Graphio_fault.parse plan with
        | Ok p ->
            Graphio_fault.set p;
            parse acc rest
        | Error msg ->
            Printf.eprintf "bench: %s\n" msg;
            exit 2)
    | [ "--faults" ] ->
        prerr_endline "bench: --faults requires a plan string";
        exit 2
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  let selected =
    match args with
    | [] -> sections
    | names ->
        List.map
          (fun name ->
            match List.assoc_opt name sections with
            | Some f -> (name, f)
            | None ->
                Printf.eprintf "unknown section %S (available: %s)\n" name
                  (String.concat ", " (List.map fst sections));
                exit 2)
          names
  in
  let records = ref [] in
  List.iter
    (fun (name, f) ->
      let before = Graphio_obs.Metrics.snapshot () in
      let (), dt = time f in
      let after = Graphio_obs.Metrics.snapshot () in
      let delta c = counter_of after c - counter_of before c in
      let dense = delta "la.eigen.dense_solves"
      and sparse = delta "la.eigen.sparse_solves" in
      let backend =
        match (dense > 0, sparse > 0) with
        | true, true -> "dense+sparse"
        | true, false -> "dense"
        | false, true -> "sparse"
        | false, false -> "-"
      in
      records :=
        Graphio_obs.Jsonx.Obj
          [
            ("section", Graphio_obs.Jsonx.String name);
            ("wall_s", Graphio_obs.Jsonx.Float dt);
            ("matvecs", Graphio_obs.Jsonx.Int (delta "la.eigen.matvecs"));
            ("dense_solves", Graphio_obs.Jsonx.Int dense);
            ("sparse_solves", Graphio_obs.Jsonx.Int sparse);
            ("backend", Graphio_obs.Jsonx.String backend);
          ]
        :: !records;
      Printf.printf "[section %s completed in %.1fs]\n\n" name dt;
      flush stdout)
    selected;
  match !json_path with
  | None -> ()
  | Some path ->
      Graphio_obs.Jsonx.to_file path
        (Graphio_obs.Jsonx.Obj
           [
             ("quick", Graphio_obs.Jsonx.Bool !quick);
             ("sections", Graphio_obs.Jsonx.List (List.rev !records));
           ]);
      Printf.printf "wrote per-section bench records to %s\n" path
