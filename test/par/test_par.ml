(* Tests for graphio_par and its consumers: the pool primitives, the
   differential guarantee that pooled linear algebra is bitwise-identical
   to sequential, closed-form spectral oracles through the iterative
   eigensolvers, and the determinism of Solver.bound_batch. *)

open Graphio_par
open Graphio_graph
open Graphio_workloads
open Graphio_core

(* ------------------------------------------------------------------ *)
(* Pool primitives                                                     *)
(* ------------------------------------------------------------------ *)

let test_parallel_for_each_index_once () =
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          let n = 10_000 in
          let hits = Array.make n 0 in
          (* per-index writes race-free: each index is visited exactly once *)
          Pool.parallel_for pool ~lo:0 ~hi:n (fun i -> hits.(i) <- hits.(i) + 1);
          Alcotest.(check bool)
            (Printf.sprintf "size %d: every index exactly once" size)
            true
            (Array.for_all (( = ) 1) hits)))
    [ 1; 2; 4 ]

let test_parallel_for_empty_and_offset () =
  Pool.with_pool ~size:2 (fun pool ->
      let ran = ref false in
      Pool.parallel_for pool ~lo:5 ~hi:5 (fun _ -> ran := true);
      Alcotest.(check bool) "empty range runs nothing" false !ran;
      let seen = Array.make 20 false in
      Pool.parallel_for pool ~lo:7 ~hi:19 (fun i -> seen.(i) <- true);
      Alcotest.(check bool) "offset range covers [7,19)" true
        (Array.for_all Fun.id (Array.sub seen 7 12))
      ;
      Alcotest.(check bool) "nothing below lo" false seen.(6))

let test_parallel_for_chunk_override () =
  Pool.with_pool ~size:3 (fun pool ->
      List.iter
        (fun chunk ->
          let n = 1000 in
          let hits = Array.make n 0 in
          Pool.parallel_for ~chunk pool ~lo:0 ~hi:n (fun i ->
              hits.(i) <- hits.(i) + 1);
          Alcotest.(check bool)
            (Printf.sprintf "chunk %d correct" chunk)
            true
            (Array.for_all (( = ) 1) hits))
        [ 1; 3; 17; 64; 5000 ])

let test_parallel_for_exception () =
  Pool.with_pool ~size:4 (fun pool ->
      Alcotest.check_raises "body exception reaches the caller"
        (Failure "boom 137") (fun () ->
          Pool.parallel_for ~chunk:8 pool ~lo:0 ~hi:1000 (fun i ->
              if i = 137 then failwith "boom 137"));
      (* the pool is still usable afterwards *)
      let total =
        Pool.map_reduce pool ~lo:0 ~hi:100 ~map:Fun.id ~reduce:( + ) ~init:0
      in
      Alcotest.(check int) "pool alive after exception" 4950 total)

let test_nested_loops_no_deadlock () =
  Pool.with_pool ~size:2 (fun pool ->
      let grid = Array.make_matrix 16 16 0 in
      Pool.parallel_for ~chunk:1 pool ~lo:0 ~hi:16 (fun i ->
          Pool.parallel_for ~chunk:1 pool ~lo:0 ~hi:16 (fun j ->
              grid.(i).(j) <- grid.(i).(j) + 1));
      Alcotest.(check bool) "nested loops cover the grid" true
        (Array.for_all (Array.for_all (( = ) 1)) grid))

let test_map_reduce_matches_sequential () =
  (* FP summation: same chunking => same partials => bitwise-equal result,
     independent of pool size. *)
  let n = 4097 in
  let xs = Array.init n (fun i -> sin (float_of_int i) *. 1e3) in
  List.iter
    (fun chunk ->
      let seq = ref None in
      List.iter
        (fun size ->
          let s =
            Pool.with_pool ~size (fun pool ->
                Pool.map_reduce ~chunk pool ~lo:0 ~hi:n
                  ~map:(fun i -> xs.(i))
                  ~reduce:( +. ) ~init:0.0)
          in
          match !seq with
          | None -> seq := Some s
          | Some s0 ->
              Alcotest.(check bool)
                (Printf.sprintf "chunk %d size %d bitwise equal" chunk size)
                true
                (Int64.equal (Int64.bits_of_float s0) (Int64.bits_of_float s)))
        [ 1; 2; 4 ])
    [ 1; 3; 17; 64 ]

let test_run_all_order_and_exception () =
  Pool.with_pool ~size:3 (fun pool ->
      let r = Pool.run_all pool (Array.init 10 (fun i () -> i * i)) in
      Alcotest.(check (array int)) "results in job order"
        (Array.init 10 (fun i -> i * i))
        r;
      Alcotest.check_raises "job exception propagates" (Failure "job 3")
        (fun () ->
          ignore
            (Pool.run_all pool
               (Array.init 5 (fun i () -> if i = 3 then failwith "job 3")))))

let test_shutdown_rejects_use () =
  let pool = Pool.create ~size:2 () in
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "use after shutdown"
    (Invalid_argument "Pool: used after shutdown") (fun () ->
      Pool.parallel_for pool ~lo:0 ~hi:10 ignore)

let test_create_validates_size () =
  Alcotest.check_raises "size 0 rejected"
    (Invalid_argument "Pool.create: size must be >= 1") (fun () ->
      ignore (Pool.create ~size:0 ()));
  Alcotest.(check bool) "default size positive" true (Pool.default_size () >= 1)

(* ------------------------------------------------------------------ *)
(* Differential: pooled linear algebra is bitwise sequential           *)
(* ------------------------------------------------------------------ *)

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let csr_gen =
  QCheck2.Gen.(
    int_range 1 60 >>= fun n ->
    list_size (int_range 0 (4 * n))
      (triple (int_range 0 (n - 1)) (int_range 0 (n - 1))
         (float_range (-10.0) 10.0))
    >>= fun entries ->
    array_size (return n) (float_range (-5.0) 5.0) >>= fun x ->
    return (n, entries, x))

let prop_matvec_differential =
  QCheck2.Test.make ~name:"pooled CSR matvec is bitwise sequential" ~count:80
    csr_gen (fun (n, entries, x) ->
      let m = Graphio_la.Csr.of_triplets ~rows:n ~cols:n entries in
      let reference = Graphio_la.Csr.matvec m x in
      List.for_all
        (fun size ->
          Pool.with_pool ~size (fun pool ->
              bits_equal reference (Graphio_la.Csr.matvec ~pool m x)))
        [ 1; 2; Pool.default_size () ])

let prop_bound_differential =
  (* the full pipeline through the iterative eigensolver: identical bound
     and eigenvalues with and without a pool *)
  QCheck2.Test.make ~name:"Solver.bound via pool is bitwise sequential"
    ~count:8
    QCheck2.Gen.(pair (int_range 30 60) (int_range 1 1000))
    (fun (n, seed) ->
      let g = Er.gnp ~n ~p:0.15 ~seed in
      let reference =
        Solver.bound ~h:10 ~dense_threshold:0 ~closed_form:false g ~m:4
      in
      Pool.with_pool ~size:2 (fun pool ->
          let pooled =
            Solver.bound ~h:10 ~dense_threshold:0 ~closed_form:false ~pool g
              ~m:4
          in
          reference.Solver.result = pooled.Solver.result
          && bits_equal reference.Solver.eigenvalues pooled.Solver.eigenvalues))

(* ------------------------------------------------------------------ *)
(* Oracles: iterative spectra vs closed forms                          *)
(* ------------------------------------------------------------------ *)

let check_against_closed_form ~msg ~tol closed values =
  Alcotest.(check int) (msg ^ ": count") (Array.length closed) (Array.length values);
  Array.iteri
    (fun i v ->
      if Float.abs (v -. closed.(i)) > tol then
        Alcotest.failf "%s: eigenvalue %d: %.8g vs closed form %.8g" msg i v
          closed.(i))
    values

let sparse_stats msg (s : Graphio_la.Eigen.spectrum) =
  match s.Graphio_la.Eigen.stats with
  | Some st -> st
  | None -> Alcotest.failf "%s: iterative path must report stats" msg

(* Eigen.smallest forced onto the Chebyshev-filtered sparse backend
   (dense_threshold 0) against the Section 5 closed forms, sequentially and
   through a pool.  h stops at a multiplicity-cluster boundary so the block
   solver can lock whole eigenspaces.  The pool changes who runs the
   matvecs, never how many run. *)
let filtered_oracle ~msg ~lap ~closed ~h () =
  let seq = Graphio_la.Eigen.smallest ~h ~dense_threshold:0 ~seed:7 lap in
  Alcotest.(check bool) (msg ^ ": sparse backend") true
    (seq.Graphio_la.Eigen.backend = Graphio_la.Eigen.Sparse_filtered);
  let seq_stats = sparse_stats msg seq in
  Alcotest.(check int) (msg ^ ": no padding") 0 seq_stats.Graphio_la.Eigen.padded;
  check_against_closed_form ~msg:(msg ^ " (sequential)") ~tol:1e-4 closed
    seq.Graphio_la.Eigen.values;
  Pool.with_pool ~size:2 (fun pool ->
      let par = Graphio_la.Eigen.smallest ~h ~dense_threshold:0 ~seed:7 ~pool lap in
      Alcotest.(check bool) (msg ^ ": pooled run bitwise equal") true
        (bits_equal seq.Graphio_la.Eigen.values par.Graphio_la.Eigen.values);
      Alcotest.(check int) (msg ^ ": pooled run same matvecs")
        seq_stats.Graphio_la.Eigen.matvecs
        (sparse_stats msg par).Graphio_la.Eigen.matvecs)

let test_hypercube_oracle () =
  let l = 7 in
  let g = Bhk.build l in
  (* the undirected support of BHK_l is the hypercube Q_l: L eigenvalue 2i
     with multiplicity C(l,i); h = 1 + l covers the {0} and {2} clusters *)
  let closed =
    Graphio_spectra.Multiset.smallest (Graphio_spectra.Hypercube_spectra.spectrum l)
      ~h:(1 + l)
  in
  filtered_oracle ~msg:"hypercube l=7" ~lap:(Laplacian.standard g) ~closed
    ~h:(1 + l) ()

let test_butterfly_oracle () =
  let k = 4 in
  let g = Fft.build k in
  let h = 12 in
  let closed =
    Graphio_spectra.Multiset.smallest (Graphio_spectra.Butterfly_spectra.spectrum k)
      ~h
  in
  filtered_oracle ~msg:"butterfly k=4" ~lap:(Laplacian.standard g) ~closed ~h ()

let test_lanczos_oracle () =
  let k = 3 in
  let g = Fft.build k in
  let h = 6 in
  let closed =
    Graphio_spectra.Multiset.smallest (Graphio_spectra.Butterfly_spectra.spectrum k)
      ~h
  in
  let lap = Laplacian.standard g in
  let seq = Graphio_la.Lanczos.smallest_csr ~seed:5 lap ~h in
  Alcotest.(check bool) "lanczos converged" true seq.Graphio_la.Lanczos.converged;
  check_against_closed_form ~msg:"lanczos butterfly k=3" ~tol:1e-5 closed
    seq.Graphio_la.Lanczos.values;
  Pool.with_pool ~size:2 (fun pool ->
      let par = Graphio_la.Lanczos.smallest_csr ~seed:5 ~pool lap ~h in
      Alcotest.(check bool) "pooled lanczos bitwise equal" true
        (bits_equal seq.Graphio_la.Lanczos.values par.Graphio_la.Lanczos.values))

(* ------------------------------------------------------------------ *)
(* Pinned sparse-path work                                             *)
(* ------------------------------------------------------------------ *)

(* A grid DAG in which every 7th cell gains a diagonal shortcut: still a
   DAG (edges only increase the row-major index), no longer a grid the
   recognizer or a closed form would answer. *)
let perturbed_grid ~rows ~cols =
  let b = Dag.Builder.create ~capacity_hint:(rows * cols) () in
  for _ = 1 to rows * cols do
    ignore (Dag.Builder.add_vertex b)
  done;
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      let v = (i * cols) + j in
      if i > 0 then Dag.Builder.add_edge b (v - cols) v;
      if j > 0 then Dag.Builder.add_edge b (v - 1) v;
      if i < rows - 1 && j < cols - 1 && v mod 7 = 0 then
        Dag.Builder.add_edge b v (v + cols + 1)
    done
  done;
  Dag.Builder.build b

(* Exact matvec counts of the filtered eigensolver on the standard
   Laplacian at h = 32 with the default seed: a cold solve, and a warm
   solve seeded from the Ritz vectors of a donor solve at h = 24 (the
   cross-h reuse the cache's Ritz store performs).  The counts are a pure
   function of the solver code, so a change here is a change in solver
   work: re-pin it on purpose and say why.  The IEEE bits are pinned too,
   as an MD5 over the [Int64.bits_of_float] of the cold and warm
   eigenvalues and of the blocking residual each sweep reported (the
   residuals are the only output the Gram matrix G reaches): a count can
   survive a rounding change, the bits cannot.  A 2-domain pool must
   reproduce the counts and the values bit for bit, and the warm bound at
   M = 16 must agree with the cold one to 1e-4 relative. *)
let bits_digest (s, residuals) =
  let b = Buffer.create 512 in
  let add v = Buffer.add_int64_le b (Int64.bits_of_float v) in
  Array.iter add s.Graphio_la.Eigen.values;
  List.iter add residuals;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_pinned_matvecs () =
  let solve ?pool ?init ?want_vectors ~h lap =
    let residuals = ref [] in
    let on_iteration p =
      residuals := p.Graphio_la.Convergence.residual :: !residuals
    in
    let s =
      Graphio_la.Eigen.smallest ~h ~dense_threshold:0 ?init ?want_vectors
        ?pool ~on_iteration lap
    in
    (s, List.rev !residuals)
  in
  let cold_and_warm ?pool lap =
    let cold = solve ?pool ~h:32 lap in
    let donor, _ = solve ?pool ~want_vectors:true ~h:24 lap in
    (cold, solve ?pool ?init:donor.Graphio_la.Eigen.vectors ~h:32 lap)
  in
  let matvecs msg (s, _) = (sparse_stats msg s).Graphio_la.Eigen.matvecs in
  let values (s, _) = s.Graphio_la.Eigen.values in
  List.iter
    (fun (name, g, (cold_mv, cold_bits), (warm_mv, warm_bits)) ->
      let lap = Laplacian.standard g in
      let cold, warm = cold_and_warm lap in
      Alcotest.(check int) (name ^ ": cold matvecs") cold_mv (matvecs name cold);
      Alcotest.(check int) (name ^ ": warm matvecs") warm_mv (matvecs name warm);
      Alcotest.(check string) (name ^ ": cold bits") cold_bits (bits_digest cold);
      Alcotest.(check string) (name ^ ": warm bits") warm_bits (bits_digest warm);
      Pool.with_pool ~size:2 (fun pool ->
          let pcold, pwarm = cold_and_warm ~pool lap in
          Alcotest.(check int) (name ^ ": pooled cold matvecs") cold_mv
            (matvecs name pcold);
          Alcotest.(check int) (name ^ ": pooled warm matvecs") warm_mv
            (matvecs name pwarm);
          Alcotest.(check bool) (name ^ ": pooled values bitwise equal") true
            (bits_equal (values cold) (values pcold)
            && bits_equal (values warm) (values pwarm)));
      let bound s =
        (Spectral_bound.compute ~n:(Dag.n_vertices g) ~m:16
           ~eigenvalues:(values s) ())
          .Spectral_bound.bound
      in
      let b_cold = bound cold and b_warm = bound warm in
      if Float.abs (b_warm -. b_cold) > 1e-4 *. (1.0 +. Float.abs b_cold) then
        Alcotest.failf "%s: warm bound %.10g vs cold bound %.10g" name b_warm
          b_cold)
    [
      ( "bhk:8",
        Bhk.build 8,
        (1392, "d14ac0c64396c6b7f8b5fe88e3203797"),
        (1536, "048203bd034e2198b192052238eb3851") );
      ( "perturbed grid 16x16",
        perturbed_grid ~rows:16 ~cols:16,
        (3504, "4e010879d11190f368c095dcb72a6003"),
        (3216, "244aa6499a546f8f51c37910db6707da") );
      ( "er:300:0.03:7",
        Er.gnp ~n:300 ~p:0.03 ~seed:7,
        (6432, "ce9d344c31fc32fd477b8555b83a973a"),
        (4944, "3342cb9035e72aad3a656220797e1260") );
    ]

(* ------------------------------------------------------------------ *)
(* bound_batch determinism and caching                                 *)
(* ------------------------------------------------------------------ *)

let batch_jobs () =
  let fft3 = Fft.build 3 and fft4 = Fft.build 4 and bhk4 = Bhk.build 4 in
  [|
    Solver.job fft3 ~m:4;
    Solver.job fft3 ~m:8 (* cache hit: same graph, method, h *);
    Solver.job ~method_:Solver.Standard fft3 ~m:4;
    Solver.job fft4 ~m:8;
    Solver.job ~p:4 fft4 ~m:8 (* cache hit: p only affects maximization *);
    Solver.job bhk4 ~m:4;
    Solver.job ~method_:Solver.Standard bhk4 ~m:4;
    Solver.job fft3 ~m:16 (* third user of the first spectrum *);
  |]

(* dense_threshold 24 sends bhk4 (n=16) dense and the ffts (n>=32) through
   the iterative path, covering both backends in one batch *)
(* the explicit disabled cache keeps these in-batch-dedup assertions
   hermetic even when GRAPHIO_CACHE_DIR is exported; closed_form:false keeps
   the recognized fft/bhk jobs on the numeric eigensolve path these
   dedup/determinism assertions exist to exercise *)
let run_batch ?pool jobs =
  Solver.bound_batch ~cache:Graphio_cache.Spectrum.disabled ?pool ~h:8
    ~dense_threshold:24 ~closed_form:false jobs

let same_outcome msg (a : Solver.batch_result) (b : Solver.batch_result) =
  Alcotest.(check bool) (msg ^ ": same result") true
    (a.Solver.outcome.Solver.result = b.Solver.outcome.Solver.result);
  Alcotest.(check bool) (msg ^ ": same backend") true
    (a.Solver.outcome.Solver.backend = b.Solver.outcome.Solver.backend);
  Alcotest.(check bool) (msg ^ ": bitwise eigenvalues") true
    (bits_equal a.Solver.outcome.Solver.eigenvalues
       b.Solver.outcome.Solver.eigenvalues)

let test_batch_pool_independent () =
  let jobs = batch_jobs () in
  let baseline = run_batch jobs in
  List.iter
    (fun size ->
      let pooled = Pool.with_pool ~size (fun pool -> run_batch ~pool jobs) in
      Array.iteri
        (fun i r ->
          same_outcome (Printf.sprintf "job %d, pool size %d" i size)
            baseline.(i) r)
        pooled)
    [ 1; 2; 4 ]

let test_batch_order_independent () =
  let jobs = batch_jobs () in
  let baseline = run_batch jobs in
  let n = Array.length jobs in
  (* a fixed derangement-ish permutation, no randomness *)
  let perm = Array.init n (fun i -> (i + 3) mod n) in
  let shuffled = Array.map (fun i -> jobs.(i)) perm in
  let results = Pool.with_pool ~size:2 (fun pool -> run_batch ~pool shuffled) in
  Array.iteri
    (fun pos i ->
      same_outcome (Printf.sprintf "job %d shuffled to %d" i pos) baseline.(i)
        results.(pos))
    perm

let test_batch_cache_shares_physically () =
  let jobs = batch_jobs () in
  let results = run_batch jobs in
  let ev i = results.(i).Solver.outcome.Solver.eigenvalues in
  Alcotest.(check bool) "jobs 0/1 share one spectrum array" true (ev 0 == ev 1);
  Alcotest.(check bool) "jobs 0/7 share one spectrum array" true (ev 0 == ev 7);
  Alcotest.(check bool) "jobs 3/4 share one spectrum array" true (ev 3 == ev 4);
  Alcotest.(check bool) "different method does not share" true (ev 0 != ev 2);
  Alcotest.(check bool) "first occurrence is the miss" true
    ((not results.(0).Solver.cache_hit)
    && results.(1).Solver.cache_hit
    && results.(4).Solver.cache_hit
    && results.(7).Solver.cache_hit);
  (* independently-built structurally-equal graph also shares (fingerprint
     keying, not physical graph identity) *)
  let again = Solver.job (Fft.build 3) ~m:4 in
  let r2 = run_batch [| jobs.(0); again |] in
  Alcotest.(check bool) "rebuilt graph hits the cache" true
    r2.(1).Solver.cache_hit

let test_batch_matches_single_bounds () =
  let jobs = batch_jobs () in
  let results = Pool.with_pool ~size:2 (fun pool -> run_batch ~pool jobs) in
  Array.iter
    (fun r ->
      let j = r.Solver.job in
      let single =
        Solver.bound ~method_:j.Solver.method_ ~h:8 ~dense_threshold:24
          ~closed_form:false ?p:j.Solver.p j.Solver.dag ~m:j.Solver.m
      in
      Alcotest.(check bool) "batch result equals Solver.bound" true
        (single.Solver.result = r.Solver.outcome.Solver.result))
    results

let test_fingerprint () =
  let a = Fft.build 4 and b = Fft.build 4 and c = Fft.build 5 in
  Alcotest.(check bool) "equal graphs hash equal" true
    (Int64.equal (Dag.fingerprint a) (Dag.fingerprint b));
  Alcotest.(check bool) "different graphs hash different" false
    (Int64.equal (Dag.fingerprint a) (Dag.fingerprint c));
  (* edge direction matters *)
  let g1 = Dag.of_edges ~n:2 [ (0, 1) ] and g2 = Dag.of_edges ~n:2 [ (1, 0) ] in
  Alcotest.(check bool) "reversed edge hashes different" false
    (Int64.equal (Dag.fingerprint g1) (Dag.fingerprint g2))

(* ------------------------------------------------------------------ *)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_matvec_differential; prop_bound_differential ]

let () =
  Alcotest.run "graphio_par"
    [
      ( "pool",
        [
          Alcotest.test_case "each index exactly once" `Quick
            test_parallel_for_each_index_once;
          Alcotest.test_case "empty and offset ranges" `Quick
            test_parallel_for_empty_and_offset;
          Alcotest.test_case "chunk override" `Quick test_parallel_for_chunk_override;
          Alcotest.test_case "exception propagation" `Quick
            test_parallel_for_exception;
          Alcotest.test_case "nested loops no deadlock" `Quick
            test_nested_loops_no_deadlock;
          Alcotest.test_case "map_reduce bitwise across sizes" `Quick
            test_map_reduce_matches_sequential;
          Alcotest.test_case "run_all order + exception" `Quick
            test_run_all_order_and_exception;
          Alcotest.test_case "shutdown rejects use" `Quick test_shutdown_rejects_use;
          Alcotest.test_case "create validates size" `Quick test_create_validates_size;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "hypercube closed form (filtered)" `Quick
            test_hypercube_oracle;
          Alcotest.test_case "butterfly closed form (filtered)" `Quick
            test_butterfly_oracle;
          Alcotest.test_case "butterfly closed form (lanczos)" `Quick
            test_lanczos_oracle;
        ] );
      ( "work",
        [
          Alcotest.test_case "sparse eigensolve matvecs pinned" `Quick
            test_pinned_matvecs;
        ] );
      ( "batch",
        [
          Alcotest.test_case "pool-size independent" `Quick
            test_batch_pool_independent;
          Alcotest.test_case "order independent" `Quick test_batch_order_independent;
          Alcotest.test_case "cache shares physically" `Quick
            test_batch_cache_shares_physically;
          Alcotest.test_case "matches Solver.bound" `Quick
            test_batch_matches_single_bounds;
          Alcotest.test_case "dag fingerprint" `Quick test_fingerprint;
        ] );
      ("properties", props);
    ]
