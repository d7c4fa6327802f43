open Graphio_core
open Graphio_graph
open Graphio_workloads
open Graphio_spectra

(* ------------------------------------------------------------------ *)
(* Spectral_bound (the k-maximization)                                 *)
(* ------------------------------------------------------------------ *)

let test_value_for_k_formula () =
  (* Hand-check: n=100, M=2, eigenvalues 0, 0.1, 0.2, 0.3:
     k=2: floor(100/2)*(0+0.1) - 2*2*2 = 5 - 8 = -3
     k=3: floor(100/3)*(0.3) - 12 = 9.9 - 12 = -2.1
     k=4: 25*0.6 - 16 = -1. *)
  let eigenvalues = [| 0.0; 0.1; 0.2; 0.3 |] in
  Alcotest.(check (float 1e-9)) "k=2" (-3.0)
    (Spectral_bound.value_for_k ~n:100 ~m:2 ~eigenvalues 2);
  Alcotest.(check (float 1e-9)) "k=3" (-2.1)
    (Spectral_bound.value_for_k ~n:100 ~m:2 ~eigenvalues 3);
  Alcotest.(check (float 1e-9)) "k=4" (-1.0)
    (Spectral_bound.value_for_k ~n:100 ~m:2 ~eigenvalues 4)

let test_compute_picks_best_k () =
  let eigenvalues = [| 0.0; 0.1; 0.2; 0.3 |] in
  let t = Spectral_bound.compute ~n:100 ~m:2 ~eigenvalues () in
  Alcotest.(check int) "best k" 4 t.Spectral_bound.best_k;
  Alcotest.(check (float 1e-9)) "raw" (-1.0) t.Spectral_bound.best_raw;
  Alcotest.(check (float 1e-9)) "clamped" 0.0 t.Spectral_bound.bound

let test_compute_positive_case () =
  let eigenvalues = [| 0.0; 1.0; 1.0 |] in
  (* k=2: floor(10/2)*1 - 4 = 1; k=3: 3*2 - 6 = 0 *)
  let t = Spectral_bound.compute ~n:10 ~m:1 ~eigenvalues () in
  Alcotest.(check (float 1e-9)) "bound" 1.0 t.Spectral_bound.bound;
  Alcotest.(check int) "k" 2 t.Spectral_bound.best_k

let test_parallel_scaling () =
  let eigenvalues = [| 0.0; 1.0; 2.0; 3.0 |] in
  (* Theorem 6: floor(n/(k p)) replaces floor(n/k); p=1 dominates p=2 etc. *)
  let b1 = Spectral_bound.compute ~n:64 ~m:2 ~eigenvalues () in
  let b2 = Spectral_bound.compute ~n:64 ~m:2 ~p:2 ~eigenvalues () in
  let b4 = Spectral_bound.compute ~n:64 ~m:2 ~p:4 ~eigenvalues () in
  Alcotest.(check bool) "monotone in p" true
    (b1.Spectral_bound.bound >= b2.Spectral_bound.bound
    && b2.Spectral_bound.bound >= b4.Spectral_bound.bound);
  (* exact check for p=2, k=2: floor(64/4)*1 - 8 = 8 *)
  Alcotest.(check (float 1e-9)) "p=2 k=2" 8.0
    (Spectral_bound.value_for_k ~n:64 ~m:2 ~p:2 ~eigenvalues 2)

let test_negative_eigenvalue_clamped () =
  let eigenvalues = [| -1e-12; 0.5 |] in
  let v = Spectral_bound.value_for_k ~n:10 ~m:0 ~eigenvalues 2 in
  Alcotest.(check (float 1e-9)) "clamped" 2.5 v

let test_validation_errors () =
  Alcotest.check_raises "descending"
    (Invalid_argument "Spectral_bound: eigenvalues must be ascending") (fun () ->
      ignore (Spectral_bound.compute ~n:5 ~m:1 ~eigenvalues:[| 1.0; 0.5 |] ()));
  Alcotest.check_raises "bad p" (Invalid_argument "Spectral_bound: p must be >= 1")
    (fun () ->
      ignore (Spectral_bound.compute ~n:5 ~m:1 ~p:0 ~eigenvalues:[| 0.0 |] ()))

let test_per_k_shape () =
  let eigenvalues = Array.init 10 (fun i -> float_of_int i /. 10.0) in
  let pk = Spectral_bound.per_k ~n:100 ~m:2 ~eigenvalues () in
  Alcotest.(check int) "count" 9 (Array.length pk);
  Alcotest.(check int) "first k" 2 (fst pk.(0));
  Alcotest.(check int) "last k" 10 (fst pk.(8));
  (* compute agrees with per_k max *)
  let t = Spectral_bound.compute ~n:100 ~m:2 ~eigenvalues () in
  let best = Array.fold_left (fun acc (_, v) -> Float.max acc v) neg_infinity pk in
  Alcotest.(check (float 1e-9)) "agree" best t.Spectral_bound.best_raw

let test_empty_and_tiny () =
  let t = Spectral_bound.compute ~n:0 ~m:4 ~eigenvalues:[||] () in
  Alcotest.(check (float 0.0)) "empty" 0.0 t.Spectral_bound.bound;
  let t1 = Spectral_bound.compute ~n:1 ~m:4 ~eigenvalues:[| 0.0 |] () in
  Alcotest.(check (float 0.0)) "single" 0.0 t1.Spectral_bound.bound

(* ------------------------------------------------------------------ *)
(* Solver end-to-end                                                   *)
(* ------------------------------------------------------------------ *)

let test_solver_thm5_not_tighter_than_thm4 () =
  (* Theorem 5 is the loosening of Theorem 4 (same partitions, coarser
     degree bound): on every graph its bound must not exceed Thm 4's. *)
  List.iter
    (fun (g, m) ->
      let b4 = (Solver.bound ~method_:Solver.Normalized g ~m).Solver.result in
      let b5 = (Solver.bound ~method_:Solver.Standard g ~m).Solver.result in
      Alcotest.(check bool) "thm5 <= thm4" true
        (b5.Spectral_bound.bound <= b4.Spectral_bound.bound +. 1e-6))
    [
      (Fft.build 7, 4);
      (Fft.build 7, 16);
      (Bhk.build 9, 16);
      (Matmul.build 6, 40);
      (Strassen.build 4, 8);
    ]

let test_solver_monotone_in_m () =
  let g = Fft.build 8 in
  let bounds =
    List.map
      (fun m -> (Solver.bound g ~m).Solver.result.Spectral_bound.bound)
      [ 4; 8; 16; 32 ]
  in
  let rec monotone = function
    | a :: b :: rest -> a >= b -. 1e-9 && monotone (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "decreasing in M" true (monotone bounds)

let test_solver_closed_form_agrees_with_numeric () =
  (* Closed-form butterfly spectrum through bound_of_spectrum must equal
     the numeric Theorem 5 pipeline (both use L and divide by max dout). *)
  List.iter
    (fun l ->
      let g = Fft.build l in
      let numeric =
        (Solver.bound ~method_:Solver.Standard ~closed_form:false g ~m:8)
          .Solver.result
      in
      let closed =
        Solver.bound_of_spectrum
          ~spectrum:(Butterfly_spectra.spectrum l)
          ~scale:(1.0 /. float_of_int (Dag.max_out_degree g))
          ~n:(Dag.n_vertices g) ~m:8 ()
      in
      Alcotest.(check (float 1e-5))
        (Printf.sprintf "l=%d" l)
        numeric.Spectral_bound.bound closed.Spectral_bound.bound)
    [ 2; 4; 6 ]

let test_solver_hypercube_closed_form () =
  List.iter
    (fun l ->
      let g = Bhk.build l in
      let numeric =
        (Solver.bound ~method_:Solver.Standard ~closed_form:false g ~m:4)
          .Solver.result
      in
      let closed =
        Solver.bound_of_spectrum
          ~spectrum:(Hypercube_spectra.spectrum l)
          ~scale:(1.0 /. float_of_int l)
          ~n:(1 lsl l) ~m:4 ()
      in
      Alcotest.(check (float 1e-5))
        (Printf.sprintf "l=%d" l)
        numeric.Spectral_bound.bound closed.Spectral_bound.bound)
    [ 3; 5; 7 ]

let test_solver_empty_graph () =
  let g = Dag.of_edges ~n:0 [] in
  let o = Solver.bound g ~m:4 in
  Alcotest.(check (float 0.0)) "zero" 0.0 o.Solver.result.Spectral_bound.bound

let test_solver_edgeless_graph () =
  let g = Dag.of_edges ~n:10 [] in
  let o = Solver.bound g ~m:2 in
  Alcotest.(check (float 0.0)) "zero" 0.0 o.Solver.result.Spectral_bound.bound

let test_solver_parallel_weaker () =
  let g = Fft.build 8 in
  let b1 = (Solver.bound g ~m:4).Solver.result.Spectral_bound.bound in
  let b4 = (Solver.bound ~p:4 g ~m:4).Solver.result.Spectral_bound.bound in
  Alcotest.(check bool) "parallel bound weaker" true (b4 <= b1 +. 1e-9)

let test_solver_rejects_p_below_one () =
  let g = Fft.build 4 in
  List.iter
    (fun method_ ->
      let name = Method.to_string method_ in
      Alcotest.check_raises ("bound " ^ name)
        (Invalid_argument "Solver: p must be >= 1") (fun () ->
          ignore (Solver.bound ~method_ ~p:0 g ~m:4));
      Alcotest.check_raises ("bound_parts " ^ name)
        (Invalid_argument "Solver: p must be >= 1") (fun () ->
          ignore (Solver.bound_parts ~method_ ~p:0 [| g |] ~m:4)))
    Method.all

(* The solver.* names in the span tree of docs/OBSERVABILITY.md: the
   first fenced block after its "## Spans" heading. *)
let documented_solver_spans () =
  let doc =
    In_channel.with_open_text "../../docs/OBSERVABILITY.md"
      In_channel.input_all
  in
  let rec find i sub =
    if String.sub doc i (String.length sub) = sub then i else find (i + 1) sub
  in
  let start = find (find 0 "## Spans") "```" + 3 in
  let block = String.sub doc start (find start "```" - start) in
  String.map
    (fun c -> if (c >= 'a' && c <= 'z') || c = '_' || c = '.' then c else ' ')
    block
  |> String.split_on_char ' '
  |> List.filter (String.starts_with ~prefix:"solver.")
  |> List.sort_uniq compare

let test_solver_documented_spans () =
  (* a numeric graph (the recognizer misses it) through every entry point
     that opens a span, plus a portfolio with the visit member *)
  let g = Matmul.build 3 in
  let job = Solver.job g ~m:4 in
  let cache = Graphio_cache.Spectrum.disabled in
  Graphio_obs.Span.set_enabled true;
  Graphio_obs.Span.clear ();
  let emitted =
    Fun.protect
      ~finally:(fun () ->
        Graphio_obs.Span.set_enabled false;
        Graphio_obs.Span.clear ())
      (fun () ->
        ignore (Solver.bound g ~m:4);
        ignore
          (Solver.bound ~method_:Solver.Portfolio
             ~portfolio:[ Solver.Normalized; Solver.Visit ] g ~m:4);
        ignore (Solver.bound_batch ~cache [| job |]);
        ignore (Solver.bound_cached ~cache job);
        Graphio_obs.Span.records ()
        |> List.map (fun r -> r.Graphio_obs.Span.name)
        |> List.filter (String.starts_with ~prefix:"solver.")
        |> List.sort_uniq compare)
  in
  Alcotest.(check (list string))
    "emitted = documented" (documented_solver_spans ()) emitted

let test_solver_sparse_path_agrees_with_dense () =
  (* low dense_threshold routes the whole pipeline through the
     Chebyshev-filtered solver: the bound must match the dense default *)
  let g = Fft.build 6 in
  let dense = Solver.bound ~h:16 ~closed_form:false g ~m:8 in
  let sparse = Solver.bound ~h:16 ~dense_threshold:0 ~closed_form:false g ~m:8 in
  Alcotest.(check bool) "dense backend default" true
    (dense.Solver.backend = Graphio_la.Eigen.Dense);
  Alcotest.(check bool) "sparse backend forced" true
    (sparse.Solver.backend = Graphio_la.Eigen.Sparse_filtered);
  Alcotest.(check (float 1e-4))
    "bounds agree" dense.Solver.result.Spectral_bound.bound
    sparse.Solver.result.Spectral_bound.bound;
  (* and through a domain pool, bitwise against the sequential sparse run *)
  Graphio_par.Pool.with_pool ~size:2 (fun pool ->
      let pooled =
        Solver.bound ~h:16 ~dense_threshold:0 ~closed_form:false ~pool g ~m:8
      in
      Alcotest.(check bool) "pooled bitwise equal" true
        (Array.for_all2
           (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
           sparse.Solver.eigenvalues pooled.Solver.eigenvalues))

let test_solver_warm_start_accuracy () =
  (* Ritz vectors cached by a donor solve at one h seed solves at other
     h's on the same graph.  Warm bounds must agree with cold ones to
     solver tolerance, the provenance bit must report the seeding, and
     both directions of the donor-size mismatch (pad and truncate) must
     work. *)
  List.iter
    (fun g ->
      let cache = Graphio_cache.Spectrum.create () in
      let solve ?(cache = cache) ~h ~warm_start () =
        Solver.bound_cached ~cache ~h ~dense_threshold:0 ~warm_start
          ~closed_form:false (Solver.job g ~m:8)
      in
      let cold_bound ~h =
        (solve ~cache:Graphio_cache.Spectrum.disabled ~h ~warm_start:false ())
          .Solver.outcome.Solver.result.Spectral_bound.bound
      in
      let donor = solve ~h:16 ~warm_start:true () in
      Alcotest.(check bool) "donor is cold" false
        donor.Solver.outcome.Solver.warm_start;
      List.iter
        (fun h ->
          let warm = solve ~h ~warm_start:true () in
          Alcotest.(check bool)
            (Printf.sprintf "h=%d seeded" h)
            true warm.Solver.outcome.Solver.warm_start;
          let wb = warm.Solver.outcome.Solver.result.Spectral_bound.bound in
          let cb = cold_bound ~h in
          Alcotest.(check bool)
            (Printf.sprintf "h=%d warm bound agrees with cold" h)
            true
            (Float.abs (wb -. cb) <= 1e-5 *. (1.0 +. Float.abs cb)))
        [ 24 (* donor padded *); 8 (* donor truncated *) ])
    [ Fft.build 6; Bhk.build 7; Er.gnp ~n:200 ~p:0.05 ~seed:11 ]

(* ------------------------------------------------------------------ *)
(* Analytic (Section 5)                                                *)
(* ------------------------------------------------------------------ *)

let test_hypercube_alpha1_matches_paper_formula () =
  (* alpha=1 specialization equals the displayed formula. *)
  List.iter
    (fun (l, m) ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "l=%d m=%d" l m)
        ((float_of_int (1 lsl (l + 1)) /. float_of_int (l + 1))
        -. (2.0 *. float_of_int (m * (l + 1))))
        (Analytic.hypercube_alpha1 ~l ~m))
    [ (5, 2); (10, 16); (15, 64) ]

let test_hypercube_general_alpha1_close_to_special () =
  (* hypercube ~alpha:1 and the displayed alpha1 formula differ only by
     floor effects; they agree asymptotically.  Check the exact-k relation:
     with alpha=1, k = 1 + l. *)
  let l = 10 and m = 4 in
  let general = Analytic.hypercube ~l ~m ~alpha:1 in
  let special = Analytic.hypercube_alpha1 ~l ~m in
  Alcotest.(check bool) "within floor slack" true
    (Float.abs (general -. special) <= float_of_int (2 * (l + 1)))

let test_hypercube_best_at_least_alpha_choices () =
  let l = 12 and m = 8 in
  let best, alpha = Analytic.hypercube_best ~l ~m in
  Alcotest.(check bool) "alpha in range" true (alpha >= 0 && alpha < l);
  for a = 0 to l - 1 do
    Alcotest.(check bool) "best is max" true (best >= Analytic.hypercube ~l ~m ~alpha:a)
  done

let test_hypercube_nontrivial_threshold () =
  (* The alpha=1 bound is positive iff M < 2^l/(l+1)^2 (strictly). *)
  let l = 10 in
  let threshold = Analytic.hypercube_nontrivial_m ~l in
  let below = int_of_float threshold - 1 in
  let above = int_of_float threshold + 1 in
  Alcotest.(check bool) "below positive" true (Analytic.hypercube_alpha1 ~l ~m:below > 0.0);
  Alcotest.(check bool) "above negative" true (Analytic.hypercube_alpha1 ~l ~m:above < 0.0)

let test_fft_analytic_le_numeric_truth () =
  (* The analytic FFT bound discards eigenvalues (sets them to 0), so it
     can never exceed the exact closed-form-spectrum bound at the same k;
     sanity-check against the full spectral maximization. *)
  List.iter
    (fun (l, m) ->
      let analytic, _ = Analytic.fft_best ~l ~m in
      let exact =
        Solver.bound_of_spectrum
          ~h:(1 lsl l)
          ~spectrum:(Butterfly_spectra.spectrum l)
          ~scale:0.5
          ~n:((l + 1) * (1 lsl l))
          ~m ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "l=%d m=%d" l m)
        true
        (analytic <= exact.Spectral_bound.bound +. 1e-6 || analytic <= 0.0))
    [ (6, 4); (8, 4); (10, 8); (12, 16) ]

let test_fft_default_alpha () =
  Alcotest.(check int) "l=10 M=16" (10 - 4) (Analytic.fft_default_alpha ~l:10 ~m:16);
  Alcotest.(check int) "clamps at 0" 0 (Analytic.fft_default_alpha ~l:3 ~m:1024);
  Alcotest.(check int) "clamps at l-1" (9) (Analytic.fft_default_alpha ~l:10 ~m:1)

let test_fft_hong_kung_formula () =
  Alcotest.(check (float 1e-9)) "l=10 M=16"
    (float_of_int (10 * 1024) /. 4.0)
    (Analytic.fft_hong_kung ~l:10 ~m:16)

let test_fft_gap_to_hong_kung () =
  (* §5.2's final display: J* >= (l+1) 2^l (pi^2/(8 log2^2 M) - 4/(l+1))
     once l is large enough relative to (2 log2 M + 1)^2 (the paper's
     "M << l" regime).  Check the optimized analytic bound dominates this
     expression (with a 0.9 fudge for the small-angle approximation), and
     never exceeds the asymptotically tight Hong-Kung shape by much. *)
  List.iter
    (fun (l, m) ->
      let spectral, _ = Analytic.fft_best ~l ~m in
      let hk = Analytic.fft_hong_kung ~l ~m in
      Alcotest.(check bool) "spectral positive" true (spectral > 0.0);
      Alcotest.(check bool) "not above tight bound" true (spectral <= 1.2 *. hk);
      let log2m = log (float_of_int m) /. log 2.0 in
      let paper_display =
        float_of_int (l + 1) *. Float.pow 2.0 (float_of_int l)
        *. ((0.9 *. Float.pi *. Float.pi /. (8.0 *. log2m *. log2m))
           -. (4.0 /. float_of_int (l + 1)))
      in
      Alcotest.(check bool)
        (Printf.sprintf "dominates paper display (l=%d M=%d)" l m)
        true
        (spectral >= paper_display))
    [ (50, 4); (50, 8); (40, 4) ]

let test_er_formulas () =
  (* leading terms *)
  Alcotest.(check (float 1e-9)) "dense" ((500.0 /. 2.0) -. 16.0)
    (Analytic.er_dense ~n:500 ~m:4);
  let v = Analytic.er_sparse ~n:1000 ~p0:8.0 ~m:4 in
  let expected =
    (1000.0 /. (1.0 +. sqrt (6.0 /. 8.0)) *. (1.0 -. sqrt (2.0 /. 8.0))) -. 16.0
  in
  Alcotest.(check (float 1e-9)) "sparse" expected v;
  Alcotest.check_raises "p0 small" (Invalid_argument "Analytic.er_sparse: p0 must exceed 6")
    (fun () -> ignore (Analytic.er_sparse ~n:10 ~p0:5.0 ~m:1))

(* ------------------------------------------------------------------ *)
(* All-k closed-form optimization                                      *)
(* ------------------------------------------------------------------ *)

let test_all_k_matches_brute_force () =
  (* Small spectra: exhaustive k-search must agree (all-k evaluates run
     boundaries and stationary points; on small inputs that covers every
     k or at least never wins/loses vs brute force by more than floor
     jitter — here multiplicity runs are small enough for exact match). *)
  List.iter
    (fun (spectrum, scale, n, m) ->
      let all_k = Solver.bound_of_spectrum_all_k ~spectrum ~scale ~n ~m () in
      let brute = Solver.bound_of_spectrum ~h:n ~spectrum ~scale ~n ~m () in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d m=%d" n m)
        true
        (all_k.Spectral_bound.bound >= brute.Spectral_bound.bound -. 1e-6))
    [
      (Hypercube_spectra.spectrum 6, 1.0 /. 6.0, 64, 2);
      (Hypercube_spectra.spectrum 8, 1.0 /. 8.0, 256, 4);
      (Butterfly_spectra.spectrum 5, 0.5, 192, 4);
      (Butterfly_spectra.spectrum 7, 0.5, 1024, 2);
    ]

let test_all_k_sound_vs_exhaustive () =
  (* soundness: the all-k result equals the value of its own reported k
     computed independently, and never exceeds the true exhaustive max *)
  let spectrum = Hypercube_spectra.spectrum 8 in
  let scale = 1.0 /. 8.0 and n = 256 and m = 3 in
  let r = Solver.bound_of_spectrum_all_k ~spectrum ~scale ~n ~m () in
  let eigs =
    Multiset.smallest spectrum ~h:n |> Array.map (fun l -> scale *. Float.max l 0.0)
  in
  (* exhaustive max *)
  let best = ref neg_infinity in
  for k = 2 to n do
    best := Float.max !best (Spectral_bound.value_for_k ~n ~m ~eigenvalues:eigs k)
  done;
  Alcotest.(check (float 1e-9)) "reported k's value"
    (Spectral_bound.value_for_k ~n ~m ~eigenvalues:eigs r.Spectral_bound.best_k)
    r.Spectral_bound.best_raw;
  Alcotest.(check bool) "not above exhaustive max" true
    (r.Spectral_bound.best_raw <= !best +. 1e-9);
  Alcotest.(check bool) "equals exhaustive max here" true
    (Float.abs (r.Spectral_bound.best_raw -. !best) <= 1e-9)

let test_all_k_dominates_capped () =
  let spectrum = Hypercube_spectra.spectrum 16 in
  let n = 1 lsl 16 and m = 16 in
  let capped = Solver.bound_of_spectrum ~h:100 ~spectrum ~scale:(1.0 /. 16.0) ~n ~m () in
  let all_k = Solver.bound_of_spectrum_all_k ~spectrum ~scale:(1.0 /. 16.0) ~n ~m () in
  Alcotest.(check bool) "uncapped >= capped" true
    (all_k.Spectral_bound.bound >= capped.Spectral_bound.bound -. 1e-6);
  (* and it must dominate the section 5.1 analytic bound it generalizes *)
  let analytic, _ = Analytic.hypercube_best ~l:16 ~m in
  Alcotest.(check bool) "dominates section 5.1" true
    (all_k.Spectral_bound.bound >= analytic -. 1e-6)

(* ------------------------------------------------------------------ *)
(* Partition_bound (Theorems 2-3 made executable)                      *)
(* ------------------------------------------------------------------ *)

let test_segments_shape () =
  Alcotest.(check (array int)) "10/3" [| 0; 0; 0; 0; 1; 1; 1; 2; 2; 2 |]
    (Partition_bound.segments ~n:10 ~k:3);
  Alcotest.(check (array int)) "4/4" [| 0; 1; 2; 3 |] (Partition_bound.segments ~n:4 ~k:4);
  Alcotest.(check (array int)) "5/1" [| 0; 0; 0; 0; 0 |] (Partition_bound.segments ~n:5 ~k:1)

let test_partition_cost_hand_checked () =
  (* Chain 0->1->2->3 in natural order, k=2: segments {0,1},{2,3}; the only
     crossing edge is (1,2), dout(1)=1, counted for both segments: 2. *)
  let g = Dag.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  let order = Topo.natural g in
  Alcotest.(check (float 1e-12)) "chain k=2" 2.0
    (Partition_bound.segment_cost g ~order ~k:2);
  (* k=4: all three edges cross, each counted twice. *)
  Alcotest.(check (float 1e-12)) "chain k=4" 6.0
    (Partition_bound.segment_cost g ~order ~k:4)

let test_partition_cost_equals_trace_form () =
  (* Theorem 3: segment cost = tr(X^T L~ X W(k)) with X the permutation
     matrix of the order and W(k) the block-diagonal partition indicator.
     Check on random small graphs against explicit dense algebra. *)
  let open Graphio_la in
  let rng = Rng.create 55 in
  for trial = 1 to 10 do
    let n = 5 + Rng.int rng 8 in
    let g = Er.gnp ~n ~p:0.4 ~seed:(trial * 7) in
    let order = Topo.random ~seed:trial g in
    let k = 2 + Rng.int rng (n - 2) in
    (* X_{t, v} = 1 iff v evaluated at time t (rows = time steps) *)
    let pos = Topo.position_of order in
    let x = Mat.init n n (fun t v -> if order.(t) = v then 1.0 else 0.0) in
    ignore pos;
    let seg = Partition_bound.segments ~n ~k in
    let w = Mat.init n n (fun i j -> if seg.(i) = seg.(j) then 1.0 else 0.0) in
    let ltilde = Laplacian.normalized_dense g in
    (* tr(X L~ X^T W): with our row convention, (X L~ X^T)_{st} couples the
       vertices evaluated at times s and t. *)
    let m1 = Mat.mul x (Mat.mul ltilde (Mat.transpose x)) in
    let trace_form = Mat.trace (Mat.mul m1 w) in
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "trial %d" trial)
      trace_form
      (Partition_bound.segment_cost g ~order ~k)
  done

let test_partition_dominates_spectral_relaxation () =
  (* Theorem 4 is the orthogonal relaxation: for every topological order
     and every k, the concrete partition value must be >= the spectral
     value at that k. *)
  List.iter
    (fun (g, m) ->
      let eigs, _ = Solver.spectrum g in
      let n = Dag.n_vertices g in
      List.iter
        (fun order ->
          List.iter
            (fun k ->
              if k <= Array.length eigs && k <= n then begin
                let spectral =
                  Spectral_bound.value_for_k ~n ~m ~eigenvalues:eigs k
                in
                let concrete = Partition_bound.value g ~order ~k ~m in
                Alcotest.(check bool)
                  (Printf.sprintf "k=%d" k)
                  true
                  (concrete >= spectral -. 1e-6)
              end)
            [ 2; 3; 5; 8; 13 ])
        [ Topo.natural g; Topo.kahn g; Topo.dfs g; Topo.random ~seed:3 g ])
    [ (Fft.build 5, 4); (Bhk.build 6, 8); (Matmul.build 4, 16) ]

let test_partition_bound_below_simulated () =
  (* Lemma 1: for a given order, max_k partition value lower-bounds that
     schedule's I/O (vertex-count form is weakened to the edge form, so
     the inequality holds a fortiori). *)
  List.iter
    (fun (g, m) ->
      let order = Topo.natural g in
      let _, v = Partition_bound.best g ~order ~m in
      let sim = Graphio_pebble.Simulator.simulate g ~order ~m in
      Alcotest.(check bool) "below schedule io" true
        (v <= float_of_int sim.Graphio_pebble.Simulator.io +. 1e-9))
    [ (Fft.build 6, 4); (Bhk.build 7, 8); (Matmul.build 4, 8); (Strassen.build 4, 8) ]

let test_partition_best_picks_max () =
  let g = Fft.build 5 in
  let order = Topo.natural g in
  let k, v = Partition_bound.best ~k_max:20 g ~order ~m:4 in
  Alcotest.(check bool) "k in range" true (k >= 2 && k <= 20);
  for k' = 2 to 20 do
    Alcotest.(check bool) "max" true (v >= Partition_bound.value g ~order ~k:k' ~m:4 -. 1e-12)
  done

let test_partition_rejects_bad_order () =
  let g = Dag.of_edges ~n:2 [ (0, 1) ] in
  Alcotest.check_raises "invalid order"
    (Invalid_argument "Partition_bound: order is not a valid topological order")
    (fun () -> ignore (Partition_bound.segment_cost g ~order:[| 1; 0 |] ~k:2))

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let test_report_rendering () =
  let r = Report.create ~title:"t" ~columns:[ "a"; "bb" ] in
  Report.add_row r [ "1"; "2" ];
  Report.add_float_row r [ 3.5; 4.25 ];
  Report.note r "hello";
  let s = Report.to_string r in
  Alcotest.(check bool) "title" true (String.length s > 0);
  List.iter
    (fun needle ->
      let contains =
        let hl = String.length s and nl = String.length needle in
        let rec go i = i + nl <= hl && (String.sub s i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) needle true contains)
    [ "== t =="; "a"; "bb"; "3.5"; "4.25"; "note: hello" ]

let test_report_arity_check () =
  let r = Report.create ~title:"t" ~columns:[ "a" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Report.add_row: expected 1 cells, got 2")
    (fun () -> Report.add_row r [ "1"; "2" ])

let test_report_csv () =
  let r = Report.create ~title:"t" ~columns:[ "x"; "y" ] in
  Report.add_row r [ "a,b"; "c\"d" ];
  let csv = Report.to_csv r in
  Alcotest.(check string) "csv" "x,y\n\"a,b\",\"c\"\"d\"\n" csv

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let eigs_gen =
  QCheck2.Gen.(
    let* h = int_range 2 30 in
    let* raw = array_size (return h) (float_range 0.0 4.0) in
    let sorted = Array.copy raw in
    Array.sort Float.compare sorted;
    return sorted)

let prop_bound_nonnegative =
  QCheck2.Test.make ~name:"bound is nonnegative" ~count:100
    QCheck2.Gen.(triple eigs_gen (int_range 1 1000) (int_range 0 64))
    (fun (eigenvalues, n, m) ->
      let t = Spectral_bound.compute ~n ~m ~eigenvalues () in
      t.Spectral_bound.bound >= 0.0)

let prop_bound_monotone_m =
  QCheck2.Test.make ~name:"bound monotone decreasing in M" ~count:100
    QCheck2.Gen.(triple eigs_gen (int_range 1 1000) (int_range 0 32))
    (fun (eigenvalues, n, m) ->
      let a = Spectral_bound.compute ~n ~m ~eigenvalues () in
      let b = Spectral_bound.compute ~n ~m:(m + 1) ~eigenvalues () in
      a.Spectral_bound.bound >= b.Spectral_bound.bound -. 1e-9)

let prop_bound_monotone_in_eigs =
  QCheck2.Test.make ~name:"bound monotone in eigenvalues" ~count:100
    QCheck2.Gen.(triple eigs_gen (int_range 1 1000) (int_range 0 32))
    (fun (eigenvalues, n, m) ->
      let bigger = Array.map (fun l -> l *. 1.5) eigenvalues in
      let a = Spectral_bound.compute ~n ~m ~eigenvalues () in
      let b = Spectral_bound.compute ~n ~m ~eigenvalues:bigger () in
      b.Spectral_bound.bound >= a.Spectral_bound.bound -. 1e-9)

let prop_parallel_monotone =
  QCheck2.Test.make ~name:"bound monotone decreasing in p" ~count:100
    QCheck2.Gen.(triple eigs_gen (int_range 1 1000) (int_range 1 8))
    (fun (eigenvalues, n, p) ->
      let a = Spectral_bound.compute ~n ~m:4 ~p ~eigenvalues () in
      let b = Spectral_bound.compute ~n ~m:4 ~p:(p + 1) ~eigenvalues () in
      a.Spectral_bound.bound >= b.Spectral_bound.bound -. 1e-9)

(* Multiplicity-heavy random spectra (few distinct values, large runs):
   the regime where the segment-endpoint search in
   [bound_of_spectrum_all_k] has to be exact, and where the old
   boundary-only heuristic missed interior maxima (including k = 2 inside
   a first run of multiplicity >= 2). *)
let multiset_gen =
  QCheck2.Gen.(
    let* n_runs = int_range 1 8 in
    list_size (return n_runs) (pair (float_range 0.0 3.0) (int_range 1 40)))

let prop_all_k_matches_brute_force =
  QCheck2.Test.make
    ~name:"all-k search equals brute force over every k in [2, k_max]" ~count:200
    QCheck2.Gen.(
      quad multiset_gen (int_range 0 20) (int_range 1 4) (float_range 0.0 2.0))
    (fun (pairs, m, p, scale) ->
      let spectrum = Multiset.of_list pairs in
      let total = Multiset.total spectrum in
      let n = total + ((m * 7) mod 31) in
      let eigs =
        Multiset.smallest spectrum ~h:total
        |> Array.map (fun l -> scale *. Float.max l 0.0)
      in
      let prefix = Array.make (total + 1) 0.0 in
      for i = 0 to total - 1 do
        prefix.(i + 1) <- prefix.(i) +. eigs.(i)
      done;
      let k_max = min n total in
      let best = ref neg_infinity in
      for k = 2 to k_max do
        let v =
          (float_of_int (n / (k * p)) *. prefix.(k))
          -. (2.0 *. float_of_int (k * m))
        in
        if v > !best then best := v
      done;
      let r = Solver.bound_of_spectrum_all_k ~p ~spectrum ~scale ~n ~m () in
      if k_max < 2 then r.Spectral_bound.best_k = 0
      else
        Float.abs (r.Spectral_bound.best_raw -. !best)
        <= 1e-6 *. (1.0 +. Float.abs !best))

(* ------------------------------------------------------------------ *)
(* Metamorphic properties on whole graphs: transform the DAG (not the   *)
(* spectrum) and assert what the bound must do.                         *)
(* ------------------------------------------------------------------ *)

let methods = [ Solver.Normalized; Solver.Standard ]

let graph_bound ~method_ ?h g ~m =
  (Solver.bound ~method_ ?h g ~m).Solver.result.Spectral_bound.bound

let dag_gen =
  QCheck2.Gen.(
    let* n = int_range 6 20 in
    let* p10 = int_range 2 5 in
    let* seed = int_range 0 10_000 in
    return (Er.gnp ~n ~p:(float_of_int p10 /. 10.0) ~seed))

(* The bound depends only on graph structure, not on how vertices happen
   to be numbered: an isomorphic relabeling must give the same value (to
   eigensolver rounding). *)
let relabel_case_gen =
  QCheck2.Gen.(
    let* g = dag_gen in
    let* perm = shuffle_a (Array.init (Dag.n_vertices g) Fun.id) in
    let* m = int_range 1 16 in
    return (g, perm, m))

let permute_dag g perm =
  Dag.of_edges ~n:(Dag.n_vertices g)
    (List.map (fun (u, v) -> (perm.(u), perm.(v))) (Dag.edges g))

let prop_relabel_invariance =
  (* every spectral method: the spectrum (hence the bound) depends only on
     graph structure.  Visit is excluded by design — its anchor chains are
     picked by an id-dependent critical-path heuristic, so the value may
     legitimately differ across isomorphic labelings (each labeling's
     value is still a sound lower bound; soundness is what the
     exact-sandwich battery pins). *)
  QCheck2.Test.make ~name:"bound invariant under vertex relabeling" ~count:40
    relabel_case_gen
    (fun (g, perm, m) ->
      Dag.n_edges g = 0
      || List.for_all
           (fun method_ ->
             let h = Dag.n_vertices g in
             let a = graph_bound ~method_ ~h g ~m in
             let b = graph_bound ~method_ ~h (permute_dag g perm) ~m in
             Float.abs (a -. b)
             <= 1e-6 *. (1.0 +. Float.max (Float.abs a) (Float.abs b)))
           (List.filter Method.is_spectral Method.all))

(* More fast memory can only weaken a lower bound on I/O — for every
   method in the portfolio (the portfolio itself is a max of monotones). *)
let prop_graph_monotone_m =
  QCheck2.Test.make ~name:"graph bound non-increasing in M" ~count:40
    QCheck2.Gen.(pair dag_gen (int_range 1 16))
    (fun (g, m) ->
      Dag.n_edges g = 0
      || List.for_all
           (fun method_ ->
             let h = Dag.n_vertices g in
             let b m = graph_bound ~method_ ~h g ~m in
             b m >= b (m + 1) -. 1e-9 && b (m + 1) >= b (2 * m) -. 1e-9)
           Method.all)

(* Disjoint self-union: c independent copies of G need at least as much
   I/O as one copy.  The heterogeneous form bound(A ⊔ B) >= max(bound A,
   bound B) is FALSE for this relaxation (spectrum dilution: B's low
   eigenvalues drag down every prefix sum of the merged spectrum), so the
   metamorphic relation is stated for copies of the same graph, where it
   is provable: the union's spectrum is each eigenvalue with multiplicity
   c, so value_{cG}(c·k) = c·value_G(k) because ⌊cn/(ck)⌋ = ⌊n/k⌋. *)
let union_copies g c =
  let n = Dag.n_vertices g in
  Dag.of_edges ~n:(c * n)
    (List.concat
       (List.init c (fun k ->
            List.map (fun (u, v) -> (u + (k * n), v + (k * n))) (Dag.edges g))))

let prop_self_union =
  QCheck2.Test.make ~name:"self-union bound >= single-copy bound" ~count:30
    QCheck2.Gen.(triple dag_gen (int_range 2 3) (int_range 1 12))
    (fun (g, c, m) ->
      Dag.n_edges g = 0
      || List.for_all
           (fun method_ ->
             let n = Dag.n_vertices g in
             let one = graph_bound ~method_ ~h:n g ~m in
             let many = graph_bound ~method_ ~h:(c * n) (union_copies g c) ~m in
             many >= one -. (1e-6 *. (1.0 +. one)))
           methods)

(* ------------------------------------------------------------------ *)
(* Component decomposition differentials                               *)
(* ------------------------------------------------------------------ *)

(* The Laplacian of a disjoint union is block-diagonal, so the union's
   spectrum is the multiset union of the per-component spectra: solving
   per component and merging must reproduce the whole-graph bound to
   eigensolver tolerance.  That equation is the oracle for the entire
   out-of-core path. *)

let close ?(tol = 1e-6) a b =
  Float.abs (a -. b) <= tol *. (1.0 +. Float.max (Float.abs a) (Float.abs b))

let test_decompose_differential () =
  let g1 = Fft.build 3 in
  let g2 = Er.gnp ~n:17 ~p:0.3 ~seed:11 in
  let u = Dag.disjoint_union g1 g2 in
  let h = Dag.n_vertices u in
  List.iter
    (fun method_ ->
      List.iter
        (fun m ->
          let whole = Solver.bound ~method_ ~h ~decompose:false u ~m in
          let split = Solver.bound ~method_ ~h u ~m in
          Alcotest.(check bool)
            (Printf.sprintf "whole %f = decomposed %f (m=%d)"
               whole.Solver.result.Spectral_bound.bound
               split.Solver.result.Spectral_bound.bound m)
            true
            (close whole.Solver.result.Spectral_bound.bound
               split.Solver.result.Spectral_bound.bound);
          Alcotest.(check int)
            "whole-graph path reports no components" 0
            (Array.length whole.Solver.components);
          Alcotest.(check int)
            "decomposed path reports both components" 2
            (Array.length split.Solver.components);
          Alcotest.(check int)
            "component sizes partition the union"
            (Dag.n_vertices u)
            (Array.fold_left
               (fun acc c -> acc + c.Solver.comp_n)
               0 split.Solver.components))
        [ 1; 4; 9 ])
    methods

(* One closed-form component (a path: recognized, analytic spectrum) next
   to one numeric component — the merge must mix tiers without bias. *)
let test_decompose_mixed_tiers () =
  let path = Sequences.independent_chains ~count:1 ~length:24 in
  let rand = Er.gnp ~n:15 ~p:0.35 ~seed:5 in
  let u = Dag.disjoint_union path rand in
  let h = Dag.n_vertices u in
  let whole = Solver.bound ~h ~decompose:false u ~m:4 in
  let split = Solver.bound ~h u ~m:4 in
  Alcotest.(check bool)
    "mixed-tier decomposed bound matches whole graph" true
    (close whole.Solver.result.Spectral_bound.bound
       split.Solver.result.Spectral_bound.bound);
  (match split.Solver.components with
  | [| a; b |] ->
      (match a.Solver.comp_tier with
      | Solver.Closed_form _ -> ()
      | _ -> Alcotest.fail "path component not recognized closed-form");
      (match b.Solver.comp_tier with
      | Solver.Numeric -> ()
      | _ -> Alcotest.fail "random component not numeric")
  | c -> Alcotest.failf "expected 2 components, got %d" (Array.length c));
  (* the merged outcome is flagged numeric (weakest tier wins) *)
  match split.Solver.tier with
  | Solver.Numeric -> ()
  | _ -> Alcotest.fail "merged tier should be numeric"

(* [bound_parts] — the out-of-core entry point fed by the binary store's
   per-component extraction — must agree bitwise with [bound] on the
   materialized union: both routes dedup and solve the same flat unit
   list. *)
let test_bound_parts_matches_union () =
  let g1 = Fft.build 3 in
  let g2 = Er.gnp ~n:12 ~p:0.3 ~seed:3 in
  let g3 = Sequences.independent_chains ~count:1 ~length:9 in
  let u = Dag.disjoint_union (Dag.disjoint_union g1 g2) g3 in
  let h = Dag.n_vertices u in
  List.iter
    (fun method_ ->
      let via_parts =
        Solver.bound_parts ~method_ ~h [| g1; g2; g3 |] ~m:4
      in
      let via_union = Solver.bound ~method_ ~h u ~m:4 in
      Alcotest.(check (float 0.0))
        "bound_parts bitwise-equal to bound on the union"
        via_union.Solver.result.Spectral_bound.bound
        via_parts.Solver.result.Spectral_bound.bound;
      Alcotest.(check int) "same component count"
        (Array.length via_union.Solver.components)
        (Array.length via_parts.Solver.components))
    methods

(* Identical components must be solved once: the decomposed evaluation
   dedups by spectrum key, so a c-fold self-union reports c components
   with every copy after the first marked shared. *)
let test_decompose_dedups_copies () =
  let g = Er.gnp ~n:14 ~p:0.3 ~seed:9 in
  let u = Dag.replicate g ~copies:4 in
  let out = Solver.bound ~h:(Dag.n_vertices u) u ~m:4 in
  Alcotest.(check int) "four components" 4 (Array.length out.Solver.components);
  let shared =
    Array.fold_left
      (fun acc c -> if c.Solver.comp_cache_hit then acc + 1 else acc)
      0 out.Solver.components
  in
  Alcotest.(check int) "three of four shared the one solve" 3 shared

let prop_decompose_differential =
  QCheck2.Test.make
    ~name:"decomposed union bound = whole-graph bound" ~count:25
    QCheck2.Gen.(triple dag_gen dag_gen (int_range 1 12))
    (fun (g1, g2, m) ->
      let u = Dag.disjoint_union g1 g2 in
      let h = Dag.n_vertices u in
      List.for_all
        (fun method_ ->
          let whole =
            (Solver.bound ~method_ ~h ~decompose:false u ~m).Solver.result
              .Spectral_bound.bound
          in
          let split =
            (Solver.bound ~method_ ~h u ~m).Solver.result.Spectral_bound.bound
          in
          close whole split)
        methods)

(* Metamorphic extension of [prop_self_union]: the same relation, but the
   union is evaluated through the decomposed path (and [Dag.replicate],
   the spec-level union builder) rather than a hand-rolled edge list. *)
let prop_self_union_decomposed =
  QCheck2.Test.make
    ~name:"decomposed self-union bound >= single-copy bound" ~count:25
    QCheck2.Gen.(triple dag_gen (int_range 2 3) (int_range 1 12))
    (fun (g, c, m) ->
      Dag.n_edges g = 0
      || List.for_all
           (fun method_ ->
             let n = Dag.n_vertices g in
             let one = graph_bound ~method_ ~h:n g ~m in
             let u = Dag.replicate g ~copies:c in
             let out = Solver.bound ~method_ ~h:(c * n) u ~m in
             let many = out.Solver.result.Spectral_bound.bound in
             (* g itself may be disconnected: each copy contributes its
                own component count *)
             Array.length out.Solver.components = c * Component.count g
             && many >= one -. (1e-6 *. (1.0 +. one)))
           methods)

(* ------------------------------------------------------------------ *)
(* Portfolio metamorphic properties                                    *)
(* ------------------------------------------------------------------ *)

(* Self-union monotonicity for EVERY portfolio method: c disjoint copies
   of G (via [Dag.replicate], the decomposed path) need at least as much
   I/O as one copy.  For the spectral methods this is the multiplicity
   argument of [prop_self_union]; for Visit the decomposed evaluation
   sums per-copy profiles, and the portfolio is a max of monotones. *)
let prop_self_union_all_methods =
  QCheck2.Test.make
    ~name:"self-union bound >= single copy (every portfolio method)"
    ~count:20
    QCheck2.Gen.(triple dag_gen (int_range 2 3) (int_range 1 12))
    (fun (g, c, m) ->
      Dag.n_edges g = 0
      || List.for_all
           (fun method_ ->
             let n = Dag.n_vertices g in
             let one = graph_bound ~method_ ~h:n g ~m in
             let many =
               graph_bound ~method_ ~h:(c * n) (Dag.replicate g ~copies:c) ~m
             in
             many >= one -. (1e-6 *. (1.0 +. one)))
           Method.all)

(* The portfolio is exactly the max of its members: the headline bound
   equals (bitwise) the largest per-member bound, the winner's recorded
   value is that max, and every member appears in canonical order. *)
let prop_portfolio_is_member_max =
  QCheck2.Test.make ~name:"portfolio bound = max over member bounds"
    ~count:20
    QCheck2.Gen.(pair dag_gen (int_range 1 12))
    (fun (g, m) ->
      let h = Dag.n_vertices g in
      let o = Solver.bound ~method_:Solver.Portfolio ~h g ~m in
      let mvs = o.Solver.methods in
      let max_member =
        Array.fold_left
          (fun acc mv -> Float.max acc mv.Solver.mv_bound)
          neg_infinity mvs
      in
      let winner_value =
        match o.Solver.winner with
        | None -> nan
        | Some w ->
            let mv =
              Array.to_list mvs
              |> List.find (fun mv -> mv.Solver.mv_method = w)
            in
            mv.Solver.mv_bound
      in
      Array.length mvs = List.length Method.concrete
      && Array.to_list mvs
         |> List.map (fun mv -> mv.Solver.mv_method)
         = Method.concrete
      && o.Solver.result.Spectral_bound.bound = max_member
      && winner_value = max_member)

(* Portfolio members must agree bitwise with standalone runs of the same
   method: sharing the eval pipeline across members must not perturb any
   individual value. *)
let prop_portfolio_members_match_standalone =
  QCheck2.Test.make
    ~name:"portfolio member values = standalone method values" ~count:15
    QCheck2.Gen.(pair dag_gen (int_range 1 12))
    (fun (g, m) ->
      let h = Dag.n_vertices g in
      let o = Solver.bound ~method_:Solver.Portfolio ~h g ~m in
      Array.for_all
        (fun mv ->
          let solo = graph_bound ~method_:mv.Solver.mv_method ~h g ~m in
          mv.Solver.mv_bound = solo)
        o.Solver.methods)

(* Decomposition differential for every method, portfolio included:
   [bound] on a materialized disjoint union and [bound_parts] on the
   parts run the identical decomposed pipeline and must agree bitwise
   (this is the oracle the out-of-core path relies on). *)
let prop_portfolio_decompose_differential =
  QCheck2.Test.make
    ~name:"bound on union = bound_parts on parts (every method, bitwise)"
    ~count:15
    QCheck2.Gen.(triple dag_gen dag_gen (int_range 1 12))
    (fun (g1, g2, m) ->
      let u = Dag.disjoint_union g1 g2 in
      let h = Dag.n_vertices u in
      List.for_all
        (fun method_ ->
          let via_union =
            (Solver.bound ~method_ ~h u ~m).Solver.result.Spectral_bound.bound
          in
          let via_parts =
            (Solver.bound_parts ~method_ ~h [| g1; g2 |] ~m).Solver.result
              .Spectral_bound.bound
          in
          via_union = via_parts)
        Method.all)

(* On graphs small enough for the singleton sweep (n <= 256) the visit
   profile contains every single-anchor all-counted chain, so the visit
   bound dominates the convex min-cut baseline by construction. *)
let prop_visit_dominates_mincut =
  QCheck2.Test.make ~name:"visit bound >= convex min-cut (n <= 256)"
    ~count:30
    QCheck2.Gen.(pair dag_gen (int_range 1 12))
    (fun (g, m) ->
      Visit_bound.bound g ~m >= Graphio_flow.Convex_mincut.bound g ~m)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_bound_nonnegative;
      prop_bound_monotone_m;
      prop_bound_monotone_in_eigs;
      prop_parallel_monotone;
      prop_all_k_matches_brute_force;
      prop_relabel_invariance;
      prop_graph_monotone_m;
      prop_self_union;
      prop_decompose_differential;
      prop_self_union_decomposed;
      prop_self_union_all_methods;
      prop_portfolio_is_member_max;
      prop_portfolio_members_match_standalone;
      prop_portfolio_decompose_differential;
      prop_visit_dominates_mincut;
    ]

let () =
  Alcotest.run "graphio_core"
    [
      ( "spectral-bound",
        [
          Alcotest.test_case "value_for_k formula" `Quick test_value_for_k_formula;
          Alcotest.test_case "compute picks best k" `Quick test_compute_picks_best_k;
          Alcotest.test_case "positive case" `Quick test_compute_positive_case;
          Alcotest.test_case "parallel scaling (Thm 6)" `Quick test_parallel_scaling;
          Alcotest.test_case "negative eigenvalues clamped" `Quick test_negative_eigenvalue_clamped;
          Alcotest.test_case "validation" `Quick test_validation_errors;
          Alcotest.test_case "per_k shape" `Quick test_per_k_shape;
          Alcotest.test_case "empty and tiny" `Quick test_empty_and_tiny;
        ] );
      ( "solver",
        [
          Alcotest.test_case "thm5 <= thm4" `Quick test_solver_thm5_not_tighter_than_thm4;
          Alcotest.test_case "monotone in M" `Quick test_solver_monotone_in_m;
          Alcotest.test_case "closed form = numeric (butterfly)" `Quick
            test_solver_closed_form_agrees_with_numeric;
          Alcotest.test_case "closed form = numeric (hypercube)" `Quick
            test_solver_hypercube_closed_form;
          Alcotest.test_case "empty graph" `Quick test_solver_empty_graph;
          Alcotest.test_case "edgeless graph" `Quick test_solver_edgeless_graph;
          Alcotest.test_case "parallel weaker" `Quick test_solver_parallel_weaker;
          Alcotest.test_case "p < 1 rejected by every method" `Quick
            test_solver_rejects_p_below_one;
          Alcotest.test_case "documented spans emitted" `Quick
            test_solver_documented_spans;
          Alcotest.test_case "sparse path agrees with dense" `Quick
            test_solver_sparse_path_agrees_with_dense;
          Alcotest.test_case "warm start accuracy" `Quick
            test_solver_warm_start_accuracy;
        ] );
      ( "decompose",
        [
          Alcotest.test_case "union differential per method" `Quick
            test_decompose_differential;
          Alcotest.test_case "mixed closed-form + numeric tiers" `Quick
            test_decompose_mixed_tiers;
          Alcotest.test_case "bound_parts = bound of union" `Quick
            test_bound_parts_matches_union;
          Alcotest.test_case "identical components solved once" `Quick
            test_decompose_dedups_copies;
        ] );
      ( "analytic",
        [
          Alcotest.test_case "hypercube alpha1 formula" `Quick
            test_hypercube_alpha1_matches_paper_formula;
          Alcotest.test_case "hypercube general vs special" `Quick
            test_hypercube_general_alpha1_close_to_special;
          Alcotest.test_case "hypercube best over alpha" `Quick
            test_hypercube_best_at_least_alpha_choices;
          Alcotest.test_case "hypercube nontrivial threshold" `Quick
            test_hypercube_nontrivial_threshold;
          Alcotest.test_case "fft analytic vs exact spectrum" `Quick
            test_fft_analytic_le_numeric_truth;
          Alcotest.test_case "fft default alpha" `Quick test_fft_default_alpha;
          Alcotest.test_case "fft hong-kung formula" `Quick test_fft_hong_kung_formula;
          Alcotest.test_case "fft gap to hong-kung" `Quick test_fft_gap_to_hong_kung;
          Alcotest.test_case "er formulas" `Quick test_er_formulas;
        ] );
      ( "all-k",
        [
          Alcotest.test_case "dominates capped brute force" `Quick
            test_all_k_matches_brute_force;
          Alcotest.test_case "sound vs exhaustive" `Quick test_all_k_sound_vs_exhaustive;
          Alcotest.test_case "dominates capped and analytic" `Quick
            test_all_k_dominates_capped;
        ] );
      ( "partition-bound",
        [
          Alcotest.test_case "segments shape" `Quick test_segments_shape;
          Alcotest.test_case "hand-checked cost" `Quick test_partition_cost_hand_checked;
          Alcotest.test_case "equals trace form (Thm 3)" `Quick
            test_partition_cost_equals_trace_form;
          Alcotest.test_case "dominates spectral relaxation" `Quick
            test_partition_dominates_spectral_relaxation;
          Alcotest.test_case "below simulated schedule" `Quick
            test_partition_bound_below_simulated;
          Alcotest.test_case "best picks max" `Quick test_partition_best_picks_max;
          Alcotest.test_case "rejects bad order" `Quick test_partition_rejects_bad_order;
        ] );
      ( "report",
        [
          Alcotest.test_case "rendering" `Quick test_report_rendering;
          Alcotest.test_case "arity check" `Quick test_report_arity_check;
          Alcotest.test_case "csv" `Quick test_report_csv;
        ] );
      ("properties", props);
    ]
