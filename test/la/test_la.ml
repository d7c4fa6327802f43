open Graphio_la

let check_float = Alcotest.(check (float 1e-9))

let check_float_tol tol = Alcotest.(check (float tol))

let float_array_approx tol =
  Alcotest.testable
    (fun fmt a -> Vec.pp fmt a)
    (fun a b -> Vec.approx_equal ~tol a b)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_float_range () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_rng_int_range () =
  let r = Rng.create 9 in
  for _ = 1 to 1000 do
    let x = Rng.int r 17 in
    Alcotest.(check bool) "in [0,17)" true (x >= 0 && x < 17)
  done

let test_rng_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  let xa = Rng.int64 a and xb = Rng.int64 b in
  Alcotest.(check bool) "streams differ" true (xa <> xb)

let test_rng_unit_vector () =
  let r = Rng.create 11 in
  for n = 1 to 20 do
    let v = Rng.unit_vector r n in
    check_float "unit norm" 1.0 (Vec.norm2 v)
  done

let test_rng_gaussian_moments () =
  let r = Rng.create 13 in
  let n = 20000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.gaussian r in
    sum := !sum +. x;
    sumsq := !sumsq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  check_float_tol 0.05 "mean ~ 0" 0.0 mean;
  check_float_tol 0.1 "var ~ 1" 1.0 var

(* ------------------------------------------------------------------ *)
(* Vec                                                                 *)
(* ------------------------------------------------------------------ *)

let test_vec_dot () =
  check_float "dot" 32.0 (Vec.dot [| 1.; 2.; 3. |] [| 4.; 5.; 6. |]);
  check_float "dot empty" 0.0 (Vec.dot [||] [||])

let test_vec_dot_mismatch () =
  Alcotest.check_raises "mismatch" (Invalid_argument "Vec.dot: length mismatch (2 vs 3)")
    (fun () -> ignore (Vec.dot [| 1.; 2. |] [| 1.; 2.; 3. |]))

let test_vec_norm2 () =
  check_float "3-4-5" 5.0 (Vec.norm2 [| 3.; 4. |]);
  check_float "zero" 0.0 (Vec.norm2 [| 0.; 0.; 0. |]);
  (* overflow-safe scaling *)
  let big = 1e200 in
  check_float_tol 1e185 "huge" (big *. sqrt 2.0) (Vec.norm2 [| big; big |])

let test_vec_axpy () =
  let y = [| 1.; 1.; 1. |] in
  Vec.axpy 2.0 [| 1.; 2.; 3. |] y;
  Alcotest.check (float_array_approx 1e-12) "axpy" [| 3.; 5.; 7. |] y

let test_vec_normalize () =
  let v = Vec.normalize [| 3.; 4. |] in
  Alcotest.check (float_array_approx 1e-12) "normalize" [| 0.6; 0.8 |] v;
  Alcotest.check_raises "zero vector" (Invalid_argument "Vec.normalize: zero vector")
    (fun () -> ignore (Vec.normalize [| 0.; 0. |]))

let test_vec_orthogonalize () =
  let e1 = [| 1.; 0.; 0. |] and e2 = [| 0.; 1.; 0. |] in
  let v = [| 3.; 4.; 5. |] in
  Vec.orthogonalize_against [| e1; e2 |] v;
  Alcotest.check (float_array_approx 1e-12) "residual" [| 0.; 0.; 5. |] v

let test_vec_minmax () =
  check_float "max" 7.0 (Vec.max_elt [| 3.; 7.; -2. |]);
  check_float "min" (-2.0) (Vec.min_elt [| 3.; 7.; -2. |]);
  check_float "sum" 8.0 (Vec.sum [| 3.; 7.; -2. |])

(* ------------------------------------------------------------------ *)
(* Mat                                                                 *)
(* ------------------------------------------------------------------ *)

let test_mat_mul () =
  let a = [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = [| [| 5.; 6. |]; [| 7.; 8. |] |] in
  let c = Mat.mul a b in
  Alcotest.(check bool) "product" true
    (Mat.approx_equal c [| [| 19.; 22. |]; [| 43.; 50. |] |])

let test_mat_identity_mul () =
  let a = [| [| 1.; 2.; -1. |]; [| 0.; 3.; 2. |]; [| 4.; -2.; 1. |] |] in
  Alcotest.(check bool) "I*a = a" true (Mat.approx_equal (Mat.mul (Mat.identity 3) a) a);
  Alcotest.(check bool) "a*I = a" true (Mat.approx_equal (Mat.mul a (Mat.identity 3)) a)

let test_mat_transpose () =
  let a = [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  let t = Mat.transpose a in
  Alcotest.(check (pair int int)) "dims" (3, 2) (Mat.dims t);
  check_float "entry" 6.0 t.(2).(1)

let test_mat_matvec () =
  let a = [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  Alcotest.check (float_array_approx 1e-12) "matvec" [| 5.; 11. |]
    (Mat.matvec a [| 1.; 2. |])

let test_mat_symmetric () =
  Alcotest.(check bool) "sym" true (Mat.is_symmetric [| [| 1.; 2. |]; [| 2.; 1. |] |]);
  Alcotest.(check bool) "not sym" false (Mat.is_symmetric [| [| 1.; 2. |]; [| 3.; 1. |] |]);
  let s = Mat.symmetrize [| [| 1.; 2. |]; [| 4.; 1. |] |] in
  check_float "symmetrized" 3.0 s.(0).(1)

let test_mat_trace () =
  check_float "trace" 5.0 (Mat.trace [| [| 1.; 2. |]; [| 3.; 4. |] |])

(* ------------------------------------------------------------------ *)
(* Dense eigensolvers                                                  *)
(* ------------------------------------------------------------------ *)

let random_symmetric rng n =
  let a = Mat.init n n (fun _ _ -> Rng.gaussian rng) in
  Mat.symmetrize a

(* The lower triangle of [a] in one row-major array, the input layout of
   [Tridiag.reduce], with NaN above the diagonal: the reduction must
   never read there. *)
let flat a =
  let n = Array.length a in
  (n, Array.init (n * n) (fun k -> if k mod n > k / n then Float.nan else a.(k / n).(k mod n)))

let tridiagonal ~d ~e =
  let n = Array.length d in
  Mat.init n n (fun i j ->
      if i = j then d.(i)
      else if i = j + 1 then e.(i)
      else if j = i + 1 then e.(j)
      else 0.0)

let test_tridiag_preserves_spectrum () =
  let rng = Rng.create 3 in
  let a = random_symmetric rng 12 in
  let n, f = flat a in
  let d, e = Tridiag.reduce ~with_q:false ~n f in
  let from_tridiag = Tql.eigenvalues ~d ~e in
  let from_jacobi = Jacobi.eigenvalues a in
  Alcotest.check (float_array_approx 1e-8) "spectra agree" from_jacobi from_tridiag

(* [Tridiag.reduce ~with_q:true] leaves Q transposed in its input. *)
let reduce_with_q a =
  let n, f = flat a in
  let d, e = Tridiag.reduce ~with_q:true ~n f in
  (d, e, Mat.init n n (fun i j -> f.((j * n) + i)))

let test_tridiag_q_orthogonal () =
  let rng = Rng.create 4 in
  let a = random_symmetric rng 10 in
  let _, _, q = reduce_with_q a in
  let qtq = Mat.mul (Mat.transpose q) q in
  Alcotest.(check bool) "QtQ = I" true
    (Mat.approx_equal ~tol:1e-10 qtq (Mat.identity 10))

let test_tridiag_reconstruction () =
  let rng = Rng.create 5 in
  let a = random_symmetric rng 9 in
  let d, e, q = reduce_with_q a in
  let reconstructed = Mat.mul q (Mat.mul (tridiagonal ~d ~e) (Mat.transpose q)) in
  Alcotest.(check bool) "Q T Qt = A" true (Mat.approx_equal ~tol:1e-9 reconstructed a)

let test_tql_dirichlet_closed_form () =
  List.iter
    (fun n ->
      let expected = Toeplitz.dirichlet_laplacian_eigenvalues ~n in
      let d = Array.make n 2.0 in
      let e = Array.make n (-1.0) in
      e.(0) <- 0.0;
      let got = Tql.eigenvalues ~d ~e in
      Alcotest.check (float_array_approx 1e-9) "dirichlet spectrum" expected got)
    [ 1; 2; 3; 5; 17; 64 ]

let test_tql_vs_jacobi_random () =
  let rng = Rng.create 6 in
  List.iter
    (fun n ->
      let a = random_symmetric rng n in
      let ql = Tql.symmetric_eigenvalues a in
      let jc = Jacobi.eigenvalues a in
      Alcotest.check (float_array_approx 1e-7) "ql = jacobi" jc ql)
    [ 1; 2; 3; 8; 20; 40 ]

let test_eigensystem_residuals () =
  let rng = Rng.create 8 in
  let n = 15 in
  let a = random_symmetric rng n in
  let values, vectors = Tql.symmetric_eigensystem a in
  for j = 0 to n - 1 do
    let v = Array.init n (fun i -> vectors.(i).(j)) in
    check_float_tol 1e-8 "unit eigenvector" 1.0 (Vec.norm2 v);
    let av = Mat.matvec a v in
    let lv = Vec.scale values.(j) v in
    Alcotest.(check bool) "A v = lambda v" true (Vec.approx_equal ~tol:1e-8 av lv)
  done

let test_eigenvalue_sum_is_trace () =
  let rng = Rng.create 9 in
  let a = random_symmetric rng 25 in
  let values = Tql.symmetric_eigenvalues a in
  check_float_tol 1e-8 "sum = trace" (Mat.trace a) (Vec.sum values)

let test_jacobi_eigensystem () =
  let a = [| [| 2.; -1.; 0. |]; [| -1.; 2.; -1. |]; [| 0.; -1.; 2. |] |] in
  let values, vectors = Jacobi.eigensystem a in
  let expected = Toeplitz.dirichlet_laplacian_eigenvalues ~n:3 in
  Alcotest.check (float_array_approx 1e-10) "values" expected values;
  for j = 0 to 2 do
    let v = Array.init 3 (fun i -> vectors.(i).(j)) in
    let av = Mat.matvec a v in
    Alcotest.(check bool) "residual" true
      (Vec.approx_equal ~tol:1e-9 av (Vec.scale values.(j) v))
  done

let test_diag_matrix_eigenvalues () =
  let a = Mat.init 5 5 (fun i j -> if i = j then float_of_int i else 0.0) in
  let values = Tql.symmetric_eigenvalues a in
  Alcotest.check (float_array_approx 1e-12) "diag" [| 0.; 1.; 2.; 3.; 4. |] values

let test_empty_and_one () =
  Alcotest.(check int) "n=0" 0 (Array.length (Tql.symmetric_eigenvalues [||]));
  let one = Tql.symmetric_eigenvalues [| [| 42.0 |] |] in
  Alcotest.check (float_array_approx 1e-12) "n=1" [| 42.0 |] one

(* ------------------------------------------------------------------ *)
(* Csr                                                                 *)
(* ------------------------------------------------------------------ *)

let test_csr_roundtrip () =
  let rng = Rng.create 10 in
  let a =
    Mat.init 8 6 (fun _ _ -> if Rng.float rng < 0.3 then Rng.gaussian rng else 0.0)
  in
  let m = Csr.of_dense a in
  Alcotest.(check bool) "roundtrip" true (Mat.approx_equal ~tol:0.0 (Csr.to_dense m) a)

let test_csr_duplicate_summing () =
  let m = Csr.of_triplets ~rows:2 ~cols:2 [ (0, 1, 1.0); (0, 1, 2.5); (1, 0, -1.0) ] in
  check_float "summed" 3.5 (Csr.get m 0 1);
  check_float "other" (-1.0) (Csr.get m 1 0);
  check_float "absent" 0.0 (Csr.get m 0 0);
  Alcotest.(check int) "nnz" 2 (Csr.nnz m)

let test_csr_out_of_range () =
  Alcotest.(check_raises) "bad triplet"
    (Invalid_argument "Csr.of_triplets: entry (2,0) out of 2x2") (fun () ->
      ignore (Csr.of_triplets ~rows:2 ~cols:2 [ (2, 0, 1.0) ]))

let test_csr_matvec_matches_dense () =
  let rng = Rng.create 12 in
  List.iter
    (fun (r, c) ->
      let a =
        Mat.init r c (fun _ _ -> if Rng.float rng < 0.25 then Rng.gaussian rng else 0.0)
      in
      let m = Csr.of_dense a in
      let x = Array.init c (fun _ -> Rng.gaussian rng) in
      Alcotest.check (float_array_approx 1e-10) "matvec" (Mat.matvec a x) (Csr.matvec m x))
    [ (1, 1); (5, 3); (10, 10); (40, 17) ]

let test_csr_transpose () =
  let m = Csr.of_triplets ~rows:3 ~cols:2 [ (0, 1, 2.0); (2, 0, -1.0) ] in
  let t = Csr.transpose m in
  Alcotest.(check (pair int int)) "dims" (2, 3) (Csr.dims t);
  check_float "entry" 2.0 (Csr.get t 1 0);
  check_float "entry2" (-1.0) (Csr.get t 0 2)

let test_csr_symmetric () =
  let sym = Csr.of_triplets ~rows:2 ~cols:2 [ (0, 1, 1.0); (1, 0, 1.0) ] in
  Alcotest.(check bool) "sym" true (Csr.is_symmetric sym);
  let asym = Csr.of_triplets ~rows:2 ~cols:2 [ (0, 1, 1.0) ] in
  Alcotest.(check bool) "asym" false (Csr.is_symmetric asym)

let test_csr_prune () =
  let m = Csr.of_triplets ~rows:2 ~cols:2 [ (0, 0, 1e-15); (0, 1, 1.0) ] in
  let p = Csr.prune ~tol:1e-12 m in
  Alcotest.(check int) "pruned" 1 (Csr.nnz p)

let test_csr_gershgorin () =
  (* 2x2 Laplacian of a single edge: eigenvalues 0, 2; gershgorin = 2. *)
  let m = Csr.of_triplets ~rows:2 ~cols:2 [ (0, 0, 1.0); (1, 1, 1.0); (0, 1, -1.0); (1, 0, -1.0) ] in
  check_float "bound" 2.0 (Csr.gershgorin_upper m)

let test_csr_scale () =
  let m = Csr.of_triplets ~rows:2 ~cols:2 [ (0, 1, 2.0) ] in
  check_float "scaled" 6.0 (Csr.get (Csr.scale 3.0 m) 0 1)

(* ------------------------------------------------------------------ *)
(* Csr.Ba (unboxed Bigarray matvec kernel)                             *)
(* ------------------------------------------------------------------ *)

let bitwise_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let test_ba_matvec_edge_shapes () =
  (* The shapes that break blocked kernels: empty rows (NaN-poisoned
     scratch must still come out 0.0), 1x1, all-empty, dangling columns. *)
  List.iter
    (fun (rows, cols, trips) ->
      let m = Csr.of_triplets ~rows ~cols trips in
      let rng = Rng.create 3 in
      let x = Array.init cols (fun _ -> Rng.gaussian rng) in
      let y_ref = Csr.matvec m x in
      let y_ba = Csr.Ba.matvec (Csr.Ba.of_csr m) x in
      Alcotest.(check bool)
        (Printf.sprintf "bitwise %dx%d nnz=%d" rows cols (List.length trips))
        true (bitwise_equal y_ref y_ba))
    [
      (1, 1, []);
      (1, 1, [ (0, 0, 2.5) ]);
      (4, 4, [ (0, 1, 1.0); (0, 2, -2.0) ]);
      (3, 7, [ (2, 6, 1.0) ]);
      (5, 5, []);
    ]

let test_ba_of_csr_int32_guard () =
  (* A CSR with more columns than int32 can index must be rejected at
     conversion, not silently wrapped into negative indices. *)
  let wide = Csr.of_triplets ~rows:1 ~cols:0x8000_0000 [] in
  match Csr.Ba.of_csr wide with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
      Alcotest.(check string) "guard message prefix" "Csr.Ba.of_csr"
        (String.sub msg 0 13)

let test_ba_dims_nnz () =
  let m = Csr.of_triplets ~rows:3 ~cols:5 [ (0, 1, 1.0); (2, 4, -1.0) ] in
  let b = Csr.Ba.of_csr m in
  Alcotest.(check (pair int int)) "dims" (3, 5) (Csr.Ba.dims b);
  Alcotest.(check int) "nnz" 2 (Csr.Ba.nnz b)

(* ------------------------------------------------------------------ *)
(* Lanczos                                                             *)
(* ------------------------------------------------------------------ *)

let laplacian_path n =
  (* path graph Laplacian: tridiagonal (1,2,...,2,1 / -1) *)
  let triplets = ref [] in
  for i = 0 to n - 1 do
    let deg = (if i > 0 then 1 else 0) + if i < n - 1 then 1 else 0 in
    triplets := (i, i, float_of_int deg) :: !triplets;
    if i < n - 1 then triplets := (i, i + 1, -1.0) :: (i + 1, i, -1.0) :: !triplets
  done;
  Csr.of_triplets ~rows:n ~cols:n !triplets

let test_lanczos_path_graph () =
  let n = 300 in
  let m = laplacian_path n in
  let h = 12 in
  let result = Lanczos.smallest_csr m ~h in
  Alcotest.(check bool) "converged" true result.Lanczos.converged;
  let dense = Tql.symmetric_eigenvalues (Csr.to_dense m) in
  let expected = Array.sub dense 0 h in
  Alcotest.check (float_array_approx 1e-6) "smallest match dense" expected
    result.Lanczos.values

let test_lanczos_multiplicities () =
  (* Disjoint union of 6 single edges: eigenvalue 0 with multiplicity 6 and
     eigenvalue 2 with multiplicity 6.  Plain Lanczos sees each eigenvalue
     once; the locking restarts must find all copies. *)
  let triplets = ref [] in
  for c = 0 to 5 do
    let a = 2 * c and b = (2 * c) + 1 in
    triplets :=
      (a, a, 1.0) :: (b, b, 1.0) :: (a, b, -1.0) :: (b, a, -1.0) :: !triplets
  done;
  let m = Csr.of_triplets ~rows:12 ~cols:12 !triplets in
  let result = Lanczos.smallest_csr m ~h:12 in
  Alcotest.(check bool) "converged" true result.Lanczos.converged;
  let expected = Array.append (Array.make 6 0.0) (Array.make 6 2.0) in
  Alcotest.check (float_array_approx 1e-7) "multiplicity recovered" expected
    result.Lanczos.values

let test_lanczos_vs_dense_random () =
  let rng = Rng.create 21 in
  let n = 120 in
  let a = random_symmetric rng n in
  (* sparsify to ~20% fill, keep symmetric *)
  let masked =
    Mat.init n n (fun i j ->
        if i <= j && Float.abs a.(i).(j) < 1.0 then 0.0 else a.(i).(j))
  in
  let sym = Mat.symmetrize (Mat.init n n (fun i j -> if i <= j then masked.(i).(j) else masked.(j).(i))) in
  let m = Csr.of_dense sym in
  let h = 15 in
  let result = Lanczos.smallest_csr m ~h ~tol:1e-9 in
  let dense = Tql.symmetric_eigenvalues sym in
  Alcotest.check (float_array_approx 1e-5) "lanczos = dense" (Array.sub dense 0 h)
    result.Lanczos.values

let test_lanczos_h_ge_n () =
  let m = laplacian_path 10 in
  let result = Lanczos.smallest_csr m ~h:50 in
  Alcotest.(check int) "clamped to n" 10 (Array.length result.Lanczos.values);
  let dense = Tql.symmetric_eigenvalues (Csr.to_dense m) in
  Alcotest.check (float_array_approx 1e-6) "full spectrum" dense result.Lanczos.values

let test_lanczos_vectors () =
  let n = 60 in
  let m = laplacian_path n in
  let result = Lanczos.smallest_csr m ~h:5 ~want_vectors:true in
  match result.Lanczos.vectors with
  | None -> Alcotest.fail "expected vectors"
  | Some vecs ->
      Array.iteri
        (fun i v ->
          let av = Csr.matvec m v in
          let lv = Vec.scale result.Lanczos.values.(i) v in
          Alcotest.(check bool)
            (Printf.sprintf "residual %d" i)
            true
            (Vec.approx_equal ~tol:1e-5 av lv))
        vecs

let test_lanczos_deterministic () =
  let m = laplacian_path 100 in
  let r1 = Lanczos.smallest_csr m ~h:8 ~seed:99 in
  let r2 = Lanczos.smallest_csr m ~h:8 ~seed:99 in
  Alcotest.check (float_array_approx 0.0) "same seed same values" r1.Lanczos.values
    r2.Lanczos.values

(* ------------------------------------------------------------------ *)
(* Filtered (Chebyshev block subspace iteration)                       *)
(* ------------------------------------------------------------------ *)

let test_filtered_path_graph () =
  let n = 300 in
  let m = laplacian_path n in
  let h = 12 in
  let result = Filtered.smallest_csr m ~h in
  Alcotest.(check bool) "converged" true result.Filtered.converged;
  let dense = Tql.symmetric_eigenvalues (Csr.to_dense m) in
  Alcotest.check (float_array_approx 1e-5) "smallest match dense"
    (Array.sub dense 0 h) result.Filtered.values

let test_filtered_multiplicities () =
  (* Same disjoint-edges construction as the Lanczos test: eigenvalue 0 and
     2, each with multiplicity 6 — the block must capture whole clusters. *)
  let triplets = ref [] in
  for c = 0 to 5 do
    let a = 2 * c and b = (2 * c) + 1 in
    triplets :=
      (a, a, 1.0) :: (b, b, 1.0) :: (a, b, -1.0) :: (b, a, -1.0) :: !triplets
  done;
  let m = Csr.of_triplets ~rows:12 ~cols:12 !triplets in
  let result = Filtered.smallest_csr m ~h:12 in
  Alcotest.(check bool) "converged" true result.Filtered.converged;
  let expected = Array.append (Array.make 6 0.0) (Array.make 6 2.0) in
  Alcotest.check (float_array_approx 1e-6) "multiplicities" expected
    result.Filtered.values

let test_filtered_vs_dense_random () =
  let rng = Rng.create 77 in
  let n = 150 in
  let a = random_symmetric rng n in
  let sym = Mat.mul (Mat.transpose a) a in
  (* PSD *)
  let m = Csr.of_dense sym in
  let h = 20 in
  let result = Filtered.smallest_csr m ~h ~tol:1e-8 in
  Alcotest.(check bool) "converged" true result.Filtered.converged;
  let dense = Tql.symmetric_eigenvalues sym in
  Alcotest.check (float_array_approx 1e-4) "matches dense" (Array.sub dense 0 h)
    result.Filtered.values

let test_filtered_h_ge_n () =
  let m = laplacian_path 30 in
  let result = Filtered.smallest_csr m ~h:50 in
  Alcotest.(check int) "clamped" 30 (Array.length result.Filtered.values);
  let dense = Tql.symmetric_eigenvalues (Csr.to_dense m) in
  Alcotest.check (float_array_approx 1e-6) "full spectrum" dense result.Filtered.values

let test_filtered_vectors () =
  let n = 200 in
  let m = laplacian_path n in
  let result = Filtered.smallest_csr m ~h:6 ~want_vectors:true ~tol:1e-8 in
  match result.Filtered.vectors with
  | None -> Alcotest.fail "expected vectors"
  | Some vecs ->
      Array.iteri
        (fun i v ->
          let av = Csr.matvec m v in
          let lv = Vec.scale result.Filtered.values.(i) v in
          Alcotest.(check bool)
            (Printf.sprintf "residual %d" i)
            true
            (Vec.approx_equal ~tol:1e-4 av lv))
        vecs

let test_filtered_deterministic () =
  let m = laplacian_path 120 in
  let a = Filtered.smallest_csr m ~h:8 ~seed:3 in
  let b = Filtered.smallest_csr m ~h:8 ~seed:3 in
  Alcotest.check (float_array_approx 0.0) "same seed" a.Filtered.values
    b.Filtered.values

let test_filtered_warm_start_accuracy () =
  (* Seeding from a donor solve at a different h must not change what the
     solver converges to — only how fast.  Both directions: a smaller
     donor block is padded with the usual random columns, a larger one is
     truncated. *)
  let m = laplacian_path 300 in
  let donor = Filtered.smallest_csr m ~h:6 ~want_vectors:true ~tol:1e-8 in
  let init =
    match donor.Filtered.vectors with
    | Some v -> v
    | None -> Alcotest.fail "donor vectors missing"
  in
  let cold_up = Filtered.smallest_csr m ~h:10 ~tol:1e-8 in
  let warm_up = Filtered.smallest_csr m ~h:10 ~tol:1e-8 ~init in
  Alcotest.(check bool) "padded warm converged" true warm_up.Filtered.converged;
  Alcotest.check (float_array_approx 1e-6) "padded warm matches cold"
    cold_up.Filtered.values warm_up.Filtered.values;
  let cold_down = Filtered.smallest_csr m ~h:4 ~tol:1e-8 in
  let warm_down = Filtered.smallest_csr m ~h:4 ~tol:1e-8 ~init in
  Alcotest.(check bool) "truncated warm converged" true
    warm_down.Filtered.converged;
  Alcotest.check (float_array_approx 1e-6) "truncated warm matches cold"
    cold_down.Filtered.values warm_down.Filtered.values

let test_filtered_hypercube_multiplicity_wall () =
  (* The stress case that defeats single-vector Krylov methods: the
     out-degree-normalized hypercube Laplacian has eigenvalue clusters far
     wider than any Krylov chain discovers per restart. *)
  let l = 8 in
  let n = 1 lsl l in
  let triplets = ref [] in
  for mask = 0 to n - 1 do
    for bit = 0 to l - 1 do
      if mask land (1 lsl bit) = 0 then begin
        let v = mask lor (1 lsl bit) in
        let popcount = ref 0 in
        for b2 = 0 to l - 1 do
          if mask land (1 lsl b2) <> 0 then incr popcount
        done;
        let w = 1.0 /. float_of_int (l - !popcount) in
        triplets :=
          (mask, mask, w) :: (v, v, w) :: (mask, v, -.w) :: (v, mask, -.w)
          :: !triplets
      end
    done
  done;
  let m = Csr.of_triplets ~rows:n ~cols:n !triplets in
  let result = Filtered.smallest_csr m ~h:60 in
  Alcotest.(check bool) "converged" true result.Filtered.converged;
  let dense = Tql.symmetric_eigenvalues (Csr.to_dense m) in
  Alcotest.check (float_array_approx 1e-5) "matches dense" (Array.sub dense 0 60)
    result.Filtered.values

(* ------------------------------------------------------------------ *)
(* Eigen driver                                                        *)
(* ------------------------------------------------------------------ *)

let test_eigen_backend_selection () =
  let small = laplacian_path 50 in
  let s = Eigen.smallest ~h:5 small in
  Alcotest.(check bool) "dense backend" true (s.Eigen.backend = Eigen.Dense);
  let big = laplacian_path 1500 in
  let b = Eigen.smallest ~h:5 big in
  Alcotest.(check bool) "sparse backend" true (b.Eigen.backend = Eigen.Sparse_filtered)

let test_eigen_paths_agree () =
  let m = laplacian_path 200 in
  let dense = Eigen.smallest ~h:10 ~dense_threshold:10_000 m in
  let sparse = Eigen.smallest ~h:10 ~dense_threshold:10 m in
  Alcotest.check (float_array_approx 1e-6) "agree" dense.Eigen.values sparse.Eigen.values

let test_eigen_rejects_asymmetric () =
  let m = Csr.of_triplets ~rows:3 ~cols:3 [ (0, 1, 1.0); (1, 0, 2.0); (2, 2, 1.0) ] in
  match Eigen.smallest m with
  | _ -> Alcotest.fail "asymmetric CSR accepted"
  | exception Invalid_argument _ -> ()

let test_eigen_pooled_path_bitwise () =
  (* low dense_threshold forces the filtered backend; the pooled matvec
     must leave its eigenvalues bitwise unchanged *)
  let m = laplacian_path 300 in
  let seq = Eigen.smallest ~h:8 ~dense_threshold:0 ~seed:3 m in
  Alcotest.(check bool) "sparse backend" true
    (seq.Eigen.backend = Eigen.Sparse_filtered);
  Graphio_par.Pool.with_pool ~size:2 (fun pool ->
      let par = Eigen.smallest ~h:8 ~dense_threshold:0 ~seed:3 ~pool m in
      Alcotest.(check bool) "bitwise equal" true
        (Array.for_all2
           (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
           seq.Eigen.values par.Eigen.values))

(* ------------------------------------------------------------------ *)
(* Toeplitz                                                            *)
(* ------------------------------------------------------------------ *)

let test_toeplitz_closed_form_vs_dense () =
  List.iter
    (fun (n, diag, off) ->
      let expected = Toeplitz.eigenvalues ~n ~diag ~off in
      let got = Tql.symmetric_eigenvalues (Toeplitz.matrix ~n ~diag ~off) in
      Alcotest.check (float_array_approx 1e-9) "toeplitz spectrum" expected got)
    [ (1, 2.0, -1.0); (4, 2.0, -1.0); (9, 4.0, -2.0); (33, 1.0, 0.5) ]

(* ------------------------------------------------------------------ *)
(* Property-based tests                                                *)
(* ------------------------------------------------------------------ *)

let small_vec_gen =
  QCheck2.Gen.(
    let* n = int_range 1 12 in
    array_size (return n) (float_range (-100.0) 100.0))

let prop_dot_commutative =
  QCheck2.Test.make ~name:"dot is commutative" ~count:200
    QCheck2.Gen.(pair small_vec_gen small_vec_gen)
    (fun (x, y) ->
      let n = min (Array.length x) (Array.length y) in
      let x = Array.sub x 0 n and y = Array.sub y 0 n in
      Float.abs (Vec.dot x y -. Vec.dot y x) <= 1e-6 *. (1.0 +. Float.abs (Vec.dot x y)))

let prop_norm_triangle =
  QCheck2.Test.make ~name:"triangle inequality" ~count:200
    QCheck2.Gen.(pair small_vec_gen small_vec_gen)
    (fun (x, y) ->
      let n = min (Array.length x) (Array.length y) in
      let x = Array.sub x 0 n and y = Array.sub y 0 n in
      Vec.norm2 (Vec.add x y) <= Vec.norm2 x +. Vec.norm2 y +. 1e-9)

let sym_mat_gen =
  QCheck2.Gen.(
    let* n = int_range 1 10 in
    let* seed = int_range 0 1_000_000 in
    return
      (let rng = Rng.create seed in
       random_symmetric rng n))

let prop_spectrum_sum_trace =
  QCheck2.Test.make ~name:"eigenvalue sum equals trace" ~count:60 sym_mat_gen
    (fun a ->
      let values = Tql.symmetric_eigenvalues a in
      Float.abs (Vec.sum values -. Mat.trace a)
      <= 1e-7 *. (1.0 +. Float.abs (Mat.trace a)))

let prop_ql_matches_jacobi =
  QCheck2.Test.make ~name:"QL matches Jacobi" ~count:40 sym_mat_gen (fun a ->
      let ql = Tql.symmetric_eigenvalues a in
      let jc = Jacobi.eigenvalues a in
      Vec.approx_equal ~tol:1e-6 ql jc)

let prop_gram_matrix_psd =
  QCheck2.Test.make ~name:"Gram matrices are PSD" ~count:60 sym_mat_gen (fun b ->
      let g = Mat.mul (Mat.transpose b) b in
      let values = Tql.symmetric_eigenvalues g in
      Array.for_all (fun l -> l >= -1e-7 *. (1.0 +. Mat.max_abs g)) values)

let prop_csr_matvec_linear =
  QCheck2.Test.make ~name:"CSR matvec is linear" ~count:100
    QCheck2.Gen.(triple (int_range 0 1_000_000) small_vec_gen small_vec_gen)
    (fun (seed, x, y) ->
      let n = min (Array.length x) (Array.length y) in
      let x = Array.sub x 0 n and y = Array.sub y 0 n in
      let rng = Rng.create seed in
      let a =
        Mat.init n n (fun _ _ -> if Rng.float rng < 0.4 then Rng.gaussian rng else 0.0)
      in
      let m = Csr.of_dense a in
      let lhs = Csr.matvec m (Vec.add x y) in
      let rhs = Vec.add (Csr.matvec m x) (Csr.matvec m y) in
      Vec.approx_equal ~tol:1e-6 lhs rhs)

let prop_ba_matvec_bitwise =
  QCheck2.Test.make ~name:"Bigarray kernel bitwise-equal to array kernel"
    ~count:150
    QCheck2.Gen.(triple (int_range 1 40) (int_range 1 40) (int_range 0 1_000_000))
    (fun (rows, cols, seed) ->
      let rng = Rng.create seed in
      let triplets = ref [] in
      for i = 0 to rows - 1 do
        (* leave ~25% of rows empty; unreferenced columns come for free *)
        if Rng.float rng > 0.25 then
          for j = 0 to cols - 1 do
            if Rng.float rng < 0.2 then begin
              (* wide magnitude spread makes the accumulation order visible
                 in the low bits, so reordering would be caught *)
              let scale = Float.of_int (1 lsl Rng.int rng 20) in
              triplets := (i, j, Rng.gaussian rng *. scale) :: !triplets
            end
          done
      done;
      let m = Csr.of_triplets ~rows ~cols !triplets in
      let x = Array.init cols (fun _ -> Rng.gaussian rng) in
      bitwise_equal (Csr.matvec m x) (Csr.Ba.matvec (Csr.Ba.of_csr m) x))

(* Symmetric matrices that reach every branch of the Householder
   reduction, by [(kind, seed, n)]: dense with entries of magnitude
   2^-30..2^30 (kind 0), the same with zeroed rows and columns (1),
   block-diagonal, where a row that is zero left of its diagonal takes
   the [scale = 0] branch (2), and the standard (3) and normalized (4)
   Laplacians of random DAGs. *)
let oracle_matrix (kind, seed, n) =
  let rng = Rng.create seed in
  let entry () = Rng.gaussian rng *. Float.ldexp 1.0 (Rng.int rng 61 - 30) in
  let a = Mat.create n n in
  let fill keep =
    for i = 0 to n - 1 do
      for j = 0 to i do
        if keep i j then begin
          let x = entry () in
          a.(i).(j) <- x;
          a.(j).(i) <- x
        end
      done
    done
  in
  (match kind with
  | 0 -> fill (fun _ _ -> true)
  | 1 ->
      let zero = Array.init n (fun _ -> Rng.float rng < 0.3) in
      fill (fun i j -> not (zero.(i) || zero.(j)))
  | 2 ->
      let block = Array.make n 0 in
      for i = 1 to n - 1 do
        block.(i) <- (if Rng.float rng < 0.25 then block.(i - 1) + 1 else block.(i - 1))
      done;
      fill (fun i j -> block.(i) = block.(j))
  | _ ->
      let p = 3.0 /. float_of_int (max n 1) in
      let deg = Array.make n 0 and edges = ref [] in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if Rng.float rng < p then begin
            edges := (u, v) :: !edges;
            deg.(u) <- deg.(u) + 1;
            deg.(v) <- deg.(v) + 1
          end
        done
      done;
      let off u v =
        if kind = 3 then -1.0
        else -1.0 /. sqrt (float_of_int deg.(u) *. float_of_int deg.(v))
      in
      List.iter (fun (u, v) -> a.(u).(v) <- off u v; a.(v).(u) <- off u v) !edges;
      for u = 0 to n - 1 do
        a.(u).(u) <-
          (if kind = 3 then float_of_int deg.(u) else if deg.(u) > 0 then 1.0 else 0.0)
      done);
  a

let mat_bitwise_equal a b =
  Array.length a = Array.length b && Array.for_all2 bitwise_equal a b

(* The flat Householder reduction and everything built on it against the
   nested-array tred2 and tqli they replace: d, e and Q, the eigenvalues
   and eigenvectors, and the CSR dense path, all bit for bit. *)
let prop_flat_reduction_bitwise =
  QCheck2.Test.make ~name:"flat Householder bitwise-equal to nested tred2"
    ~count:500
    ~print:(fun (k, s, n) -> Printf.sprintf "kind %d seed %d n %d" k s n)
    QCheck2.Gen.(triple (int_range 0 4) (int_range 0 1_000_000) (int_range 0 64))
    (fun spec ->
      let a = oracle_matrix spec in
      let n = Array.length a in
      let reference = Oracle.reduce a in
      let _, f = flat a in
      let d, e = Tridiag.reduce ~with_q:false ~n f in
      let d_q, e_q, q = reduce_with_q a in
      let reference_q = Oracle.reduce ~with_q:true a in
      let values, vectors = Tql.symmetric_eigensystem a in
      let ref_values, ref_vectors = Oracle.symmetric_eigensystem a in
      let m = Csr.of_dense a in
      let csr_values =
        (Eigen.smallest ~h:(max n 1) ~dense_threshold:max_int m).Eigen.values
      in
      bitwise_equal d reference.Oracle.d
      && bitwise_equal e reference.Oracle.e
      && bitwise_equal d_q reference_q.Oracle.d
      && bitwise_equal e_q reference_q.Oracle.e
      && mat_bitwise_equal q (Option.get reference_q.Oracle.q)
      && bitwise_equal (Tql.symmetric_eigenvalues a) (Oracle.symmetric_eigenvalues a)
      && bitwise_equal values ref_values
      && mat_bitwise_equal vectors ref_vectors
      && bitwise_equal csr_values
           (Oracle.symmetric_eigenvalues (Csr.to_dense m)))

(* [Vec.norm_inf] against the [Float.max] fold it replaces, bit for bit,
   on vectors salted with signed zeros, infinities and NaNs of either
   sign and a non-default payload. *)
let prop_norm_inf_is_float_max_fold =
  let special =
    [| 0.0; -0.0; infinity; neg_infinity; Float.nan; -.Float.nan;
       Int64.float_of_bits 0x7ff0_0000_0000_0123L |]
  in
  QCheck2.Test.make ~name:"norm_inf bitwise-equal to the Float.max fold"
    ~count:300
    QCheck2.Gen.(
      array_size (int_range 0 12)
        (oneof
           [ float_range (-1e3) 1e3; map (fun i -> special.(i)) (int_range 0 6) ]))
    (fun v ->
      let fold = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0.0 v in
      Int64.equal (Int64.bits_of_float fold) (Int64.bits_of_float (Vec.norm_inf v)))

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_dot_commutative;
      prop_norm_triangle;
      prop_spectrum_sum_trace;
      prop_ql_matches_jacobi;
      prop_gram_matrix_psd;
      prop_csr_matvec_linear;
      prop_ba_matvec_bitwise;
      prop_flat_reduction_bitwise;
      prop_norm_inf_is_float_max_fold;
    ]

let () =
  Alcotest.run "graphio_la"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "unit vector" `Quick test_rng_unit_vector;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
        ] );
      ( "vec",
        [
          Alcotest.test_case "dot" `Quick test_vec_dot;
          Alcotest.test_case "dot mismatch" `Quick test_vec_dot_mismatch;
          Alcotest.test_case "norm2" `Quick test_vec_norm2;
          Alcotest.test_case "axpy" `Quick test_vec_axpy;
          Alcotest.test_case "normalize" `Quick test_vec_normalize;
          Alcotest.test_case "orthogonalize" `Quick test_vec_orthogonalize;
          Alcotest.test_case "min/max/sum" `Quick test_vec_minmax;
        ] );
      ( "mat",
        [
          Alcotest.test_case "mul" `Quick test_mat_mul;
          Alcotest.test_case "identity mul" `Quick test_mat_identity_mul;
          Alcotest.test_case "transpose" `Quick test_mat_transpose;
          Alcotest.test_case "matvec" `Quick test_mat_matvec;
          Alcotest.test_case "symmetric" `Quick test_mat_symmetric;
          Alcotest.test_case "trace" `Quick test_mat_trace;
        ] );
      ( "dense-eigen",
        [
          Alcotest.test_case "tridiag preserves spectrum" `Quick
            test_tridiag_preserves_spectrum;
          Alcotest.test_case "tridiag q orthogonal" `Quick test_tridiag_q_orthogonal;
          Alcotest.test_case "tridiag reconstruction" `Quick test_tridiag_reconstruction;
          Alcotest.test_case "tql dirichlet closed form" `Quick
            test_tql_dirichlet_closed_form;
          Alcotest.test_case "tql vs jacobi random" `Quick test_tql_vs_jacobi_random;
          Alcotest.test_case "eigensystem residuals" `Quick test_eigensystem_residuals;
          Alcotest.test_case "eigenvalue sum = trace" `Quick test_eigenvalue_sum_is_trace;
          Alcotest.test_case "jacobi eigensystem" `Quick test_jacobi_eigensystem;
          Alcotest.test_case "diagonal matrix" `Quick test_diag_matrix_eigenvalues;
          Alcotest.test_case "empty and 1x1" `Quick test_empty_and_one;
        ] );
      ( "csr",
        [
          Alcotest.test_case "roundtrip" `Quick test_csr_roundtrip;
          Alcotest.test_case "duplicate summing" `Quick test_csr_duplicate_summing;
          Alcotest.test_case "out of range" `Quick test_csr_out_of_range;
          Alcotest.test_case "matvec vs dense" `Quick test_csr_matvec_matches_dense;
          Alcotest.test_case "transpose" `Quick test_csr_transpose;
          Alcotest.test_case "symmetric check" `Quick test_csr_symmetric;
          Alcotest.test_case "prune" `Quick test_csr_prune;
          Alcotest.test_case "gershgorin" `Quick test_csr_gershgorin;
          Alcotest.test_case "scale" `Quick test_csr_scale;
        ] );
      ( "csr-ba",
        [
          Alcotest.test_case "edge shapes bitwise" `Quick
            test_ba_matvec_edge_shapes;
          Alcotest.test_case "int32 overflow guard" `Quick
            test_ba_of_csr_int32_guard;
          Alcotest.test_case "dims and nnz" `Quick test_ba_dims_nnz;
        ] );
      ( "lanczos",
        [
          Alcotest.test_case "path graph" `Quick test_lanczos_path_graph;
          Alcotest.test_case "multiplicities via locking" `Quick
            test_lanczos_multiplicities;
          Alcotest.test_case "vs dense random" `Quick test_lanczos_vs_dense_random;
          Alcotest.test_case "h >= n" `Quick test_lanczos_h_ge_n;
          Alcotest.test_case "eigenvectors" `Quick test_lanczos_vectors;
          Alcotest.test_case "deterministic" `Quick test_lanczos_deterministic;
        ] );
      ( "filtered",
        [
          Alcotest.test_case "path graph" `Quick test_filtered_path_graph;
          Alcotest.test_case "multiplicities" `Quick test_filtered_multiplicities;
          Alcotest.test_case "vs dense random PSD" `Quick test_filtered_vs_dense_random;
          Alcotest.test_case "h >= n" `Quick test_filtered_h_ge_n;
          Alcotest.test_case "eigenvectors" `Quick test_filtered_vectors;
          Alcotest.test_case "deterministic" `Quick test_filtered_deterministic;
          Alcotest.test_case "warm start accuracy" `Quick
            test_filtered_warm_start_accuracy;
          Alcotest.test_case "hypercube multiplicity wall" `Slow
            test_filtered_hypercube_multiplicity_wall;
        ] );
      ( "eigen-driver",
        [
          Alcotest.test_case "backend selection" `Quick test_eigen_backend_selection;
          Alcotest.test_case "paths agree" `Quick test_eigen_paths_agree;
          Alcotest.test_case "pooled path bitwise" `Quick
            test_eigen_pooled_path_bitwise;
          Alcotest.test_case "rejects asymmetric" `Quick
            test_eigen_rejects_asymmetric;
        ] );
      ( "toeplitz",
        [
          Alcotest.test_case "closed form vs dense" `Quick
            test_toeplitz_closed_form_vs_dense;
        ] );
      ("properties", props);
    ]
