open Graphio_graph
open Graphio_la

let diamond () =
  (* 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3 *)
  Dag.of_edges ~n:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ]

let chain n = Dag.of_edges ~n (List.init (n - 1) (fun i -> (i, i + 1)))

(* ------------------------------------------------------------------ *)
(* Dag                                                                 *)
(* ------------------------------------------------------------------ *)

let test_dag_basic () =
  let g = diamond () in
  Alcotest.(check int) "n" 4 (Dag.n_vertices g);
  Alcotest.(check int) "m" 4 (Dag.n_edges g);
  Alcotest.(check (array int)) "succ 0" [| 1; 2 |] (Dag.succ g 0);
  Alcotest.(check (array int)) "pred 3" [| 1; 2 |] (Dag.pred g 3);
  Alcotest.(check int) "out deg" 2 (Dag.out_degree g 0);
  Alcotest.(check int) "in deg" 2 (Dag.in_degree g 3);
  Alcotest.(check int) "deg 1" 2 (Dag.degree g 1);
  Alcotest.(check int) "max out" 2 (Dag.max_out_degree g);
  Alcotest.(check int) "max in" 2 (Dag.max_in_degree g);
  Alcotest.(check int) "max deg" 2 (Dag.max_degree g)

let test_dag_sources_sinks () =
  let g = diamond () in
  Alcotest.(check (array int)) "sources" [| 0 |] (Dag.sources g);
  Alcotest.(check (array int)) "sinks" [| 3 |] (Dag.sinks g);
  let empty = Dag.of_edges ~n:0 [] in
  Alcotest.(check (array int)) "empty sources" [||] (Dag.sources empty)

let test_dag_has_edge () =
  let g = diamond () in
  Alcotest.(check bool) "has 0->1" true (Dag.has_edge g 0 1);
  Alcotest.(check bool) "no 1->0" false (Dag.has_edge g 1 0);
  Alcotest.(check bool) "no 0->3" false (Dag.has_edge g 0 3)

let test_dag_edges_roundtrip () =
  let edges = [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let g = Dag.of_edges ~n:4 edges in
  Alcotest.(check (list (pair int int))) "edges" edges (Dag.edges g)

let test_dag_labels () =
  let g = Dag.of_edges ~labels:[| "a"; "b" |] ~n:3 [ (0, 1) ] in
  Alcotest.(check (option string)) "label 0" (Some "a") (Dag.label g 0);
  Alcotest.(check (option string)) "label 2" None (Dag.label g 2)

let test_dag_rejects_cycle () =
  Alcotest.check_raises "cycle" (Invalid_argument "Dag.build: graph has a cycle")
    (fun () -> ignore (Dag.of_edges ~n:2 [ (0, 1); (1, 0) ]))

let test_dag_rejects_self_loop () =
  Alcotest.check_raises "self loop" (Invalid_argument "Dag.add_edge: self-loop")
    (fun () -> ignore (Dag.of_edges ~n:2 [ (1, 1) ]))

let test_dag_rejects_duplicate_edge () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Dag.add_edge: duplicate edge (0 -> 1)") (fun () ->
      ignore (Dag.of_edges ~n:2 [ (0, 1); (0, 1) ]))

let test_dag_rejects_bad_vertex () =
  Alcotest.check_raises "out of range"
    (Invalid_argument "Dag.add_edge: vertex out of range (0 -> 5)") (fun () ->
      ignore (Dag.of_edges ~n:2 [ (0, 5) ]))

let test_dag_reverse () =
  let g = diamond () in
  let r = Dag.reverse g in
  Alcotest.(check (array int)) "succ 3 reversed" [| 1; 2 |] (Dag.succ r 3);
  Alcotest.(check (array int)) "sinks" [| 0 |] (Dag.sinks r)

let test_dag_induced_subgraph () =
  let g = diamond () in
  let sub, mapping = Dag.induced_subgraph g [| 0; 1; 3 |] in
  Alcotest.(check int) "sub n" 3 (Dag.n_vertices sub);
  Alcotest.(check int) "sub m" 2 (Dag.n_edges sub);
  Alcotest.(check (array int)) "mapping" [| 0; 1; 3 |] mapping;
  Alcotest.(check bool) "0->1 kept" true (Dag.has_edge sub 0 1);
  Alcotest.(check bool) "1->3 kept as 1->2" true (Dag.has_edge sub 1 2)

let test_dag_fold_edges () =
  let g = diamond () in
  Alcotest.(check int) "count" 4 (Dag.fold_edges g ~init:0 ~f:(fun acc _ _ -> acc + 1))

(* ------------------------------------------------------------------ *)
(* Topo                                                                *)
(* ------------------------------------------------------------------ *)

let test_topo_kahn_valid () =
  let g = diamond () in
  Alcotest.(check bool) "kahn valid" true (Topo.is_valid g (Topo.kahn g));
  Alcotest.(check bool) "dfs valid" true (Topo.is_valid g (Topo.dfs g));
  Alcotest.(check bool) "natural valid" true (Topo.is_valid g (Topo.natural g))

let test_topo_invalid_orders () =
  let g = diamond () in
  Alcotest.(check bool) "reversed invalid" false (Topo.is_valid g [| 3; 2; 1; 0 |]);
  Alcotest.(check bool) "repeat invalid" false (Topo.is_valid g [| 0; 0; 1; 2 |]);
  Alcotest.(check bool) "short invalid" false (Topo.is_valid g [| 0; 1 |])

let test_topo_random_valid () =
  let g = Er.gnp ~n:60 ~p:0.1 ~seed:5 in
  for seed = 0 to 9 do
    Alcotest.(check bool) "random valid" true
      (Topo.is_valid g (Topo.random ~seed g))
  done

let test_topo_random_varies () =
  let g = Er.gnp ~n:40 ~p:0.05 ~seed:7 in
  let a = Topo.random ~seed:1 g and b = Topo.random ~seed:2 g in
  Alcotest.(check bool) "different orders" true (a <> b)

let test_topo_position_of () =
  let order = [| 2; 0; 1 |] in
  Alcotest.(check (array int)) "positions" [| 1; 2; 0 |] (Topo.position_of order)

let test_topo_natural_rejects () =
  (* 1 -> 0 makes creation order non-topological *)
  let b = Dag.Builder.create () in
  let v0 = Dag.Builder.add_vertex b in
  let v1 = Dag.Builder.add_vertex b in
  Dag.Builder.add_edge b v1 v0;
  let g = Dag.Builder.build b in
  Alcotest.check_raises "natural"
    (Invalid_argument "Topo.natural: creation order is not topological for this graph")
    (fun () -> ignore (Topo.natural g))

(* ------------------------------------------------------------------ *)
(* Laplacian                                                           *)
(* ------------------------------------------------------------------ *)

let test_laplacian_standard_chain () =
  let g = chain 3 in
  let l = Laplacian.standard_dense g in
  let expected = [| [| 1.; -1.; 0. |]; [| -1.; 2.; -1. |]; [| 0.; -1.; 1. |] |] in
  Alcotest.(check bool) "chain laplacian" true (Mat.approx_equal l expected)

let test_laplacian_normalized_diamond () =
  let g = diamond () in
  let l = Laplacian.normalized_dense g in
  (* dout(0)=2 so edges (0,1),(0,2) weigh 1/2; dout(1)=dout(2)=1. *)
  let expected =
    [|
      [| 1.0; -0.5; -0.5; 0.0 |];
      [| -0.5; 1.5; 0.0; -1.0 |];
      [| -0.5; 0.0; 1.5; -1.0 |];
      [| 0.0; -1.0; -1.0; 2.0 |];
    |]
  in
  Alcotest.(check bool) "normalized laplacian" true (Mat.approx_equal l expected)

let test_laplacian_psd_and_nullspace () =
  let g = Er.gnp ~n:40 ~p:0.15 ~seed:11 in
  List.iter
    (fun lap ->
      let eigs = Tql.symmetric_eigenvalues (Csr.to_dense lap) in
      Alcotest.(check bool) "psd" true (Array.for_all (fun l -> l >= -1e-8) eigs);
      (* multiplicity of eigenvalue 0 = number of connected components *)
      let zeros = Array.length (Array.of_list (List.filter (fun l -> Float.abs l < 1e-7) (Array.to_list eigs))) in
      Alcotest.(check int) "nullity = components" (Component.count g) zeros)
    [ Laplacian.standard g; Laplacian.normalized g ]

let test_laplacian_quadratic_form_standard () =
  (* x^T L x = |boundary(S)| (Equation 3, unweighted version) *)
  let g = Er.gnp ~n:30 ~p:0.2 ~seed:13 in
  let rng = Rng.create 17 in
  for _ = 1 to 20 do
    let member = Array.init 30 (fun _ -> Rng.bool rng) in
    let x = Array.map (fun b -> if b then 1.0 else 0.0) member in
    let l = Laplacian.standard g in
    let quad = Vec.dot x (Csr.matvec l x) in
    Alcotest.(check (float 1e-9)) "xLx = |dS|"
      (float_of_int (Laplacian.boundary_size g member))
      quad
  done

let test_laplacian_quadratic_form_normalized () =
  (* x^T L~ x = sum over boundary edges of 1/dout(u) (Equation 3) *)
  let g = Er.gnp ~n:30 ~p:0.2 ~seed:19 in
  let rng = Rng.create 23 in
  for _ = 1 to 20 do
    let member = Array.init 30 (fun _ -> Rng.bool rng) in
    let x = Array.map (fun b -> if b then 1.0 else 0.0) member in
    let l = Laplacian.normalized g in
    let quad = Vec.dot x (Csr.matvec l x) in
    Alcotest.(check (float 1e-9)) "xL~x = boundary weight"
      (Laplacian.boundary_weight g member)
      quad
  done

let test_laplacian_symmetric () =
  let g = Er.gnp ~n:50 ~p:0.1 ~seed:29 in
  Alcotest.(check bool) "L sym" true (Csr.is_symmetric (Laplacian.standard g));
  Alcotest.(check bool) "L~ sym" true (Csr.is_symmetric (Laplacian.normalized g))

let test_laplacian_row_sums_zero () =
  let g = Er.gnp ~n:25 ~p:0.3 ~seed:31 in
  List.iter
    (fun lap ->
      let ones = Array.make 25 1.0 in
      let r = Csr.matvec lap ones in
      Alcotest.(check bool) "L 1 = 0" true (Vec.norm_inf r < 1e-10))
    [ Laplacian.standard g; Laplacian.normalized g ]

(* ------------------------------------------------------------------ *)
(* Component                                                           *)
(* ------------------------------------------------------------------ *)

let test_component_counts () =
  let g = Dag.of_edges ~n:6 [ (0, 1); (2, 3) ] in
  Alcotest.(check int) "three components + isolated" 4 (Component.count g);
  Alcotest.(check bool) "not connected" false (Component.is_connected g);
  let c = Component.components g in
  Alcotest.(check int) "0 and 1 together" c.(0) c.(1);
  Alcotest.(check bool) "0 and 2 apart" true (c.(0) <> c.(2))

let test_component_connected () =
  Alcotest.(check bool) "chain connected" true (Component.is_connected (chain 10));
  Alcotest.(check bool) "empty connected" true
    (Component.is_connected (Dag.of_edges ~n:0 []))

let test_component_split_connected () =
  let g = chain 10 in
  (match Component.split g with
  | [| (part, back) |] ->
      Alcotest.(check bool) "the graph itself" true (part == g);
      Alcotest.(check (array int)) "identity map" (Array.init 10 Fun.id) back
  | parts -> Alcotest.failf "%d parts" (Array.length parts));
  Alcotest.(check int) "empty graph: no parts" 0
    (Array.length (Component.split (Dag.of_edges ~n:0 [])))

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_diamond () =
  let s = Stats.compute (diamond ()) in
  Alcotest.(check int) "n" 4 s.Stats.n_vertices;
  Alcotest.(check int) "m" 4 s.Stats.n_edges;
  Alcotest.(check int) "sources" 1 s.Stats.n_sources;
  Alcotest.(check int) "sinks" 1 s.Stats.n_sinks;
  Alcotest.(check int) "depth" 3 s.Stats.depth;
  Alcotest.(check int) "width" 2 s.Stats.max_level_width;
  Alcotest.(check int) "components" 1 s.Stats.components

let test_stats_chain () =
  let s = Stats.compute (chain 7) in
  Alcotest.(check int) "depth = n" 7 s.Stats.depth;
  Alcotest.(check int) "width 1" 1 s.Stats.max_level_width

let test_stats_edgeless () =
  let s = Stats.compute (Dag.of_edges ~n:5 []) in
  Alcotest.(check int) "depth" 1 s.Stats.depth;
  Alcotest.(check int) "width" 5 s.Stats.max_level_width;
  Alcotest.(check int) "components" 5 s.Stats.components;
  let empty = Stats.compute (Dag.of_edges ~n:0 []) in
  Alcotest.(check int) "empty depth" 0 empty.Stats.depth

let test_stats_levels_longest_path () =
  (* levels must reflect the LONGEST path: 0->2 and 0->1->2 puts 2 at
     level 2, not 1. *)
  let g = Dag.of_edges ~n:3 [ (0, 1); (0, 2); (1, 2) ] in
  Alcotest.(check (array int)) "levels" [| 0; 1; 2 |] (Stats.levels g)

(* ------------------------------------------------------------------ *)
(* Er                                                                  *)
(* ------------------------------------------------------------------ *)

let test_er_extremes () =
  let empty = Er.gnp ~n:20 ~p:0.0 ~seed:1 in
  Alcotest.(check int) "p=0 no edges" 0 (Dag.n_edges empty);
  let full = Er.gnp ~n:20 ~p:1.0 ~seed:1 in
  Alcotest.(check int) "p=1 complete" (20 * 19 / 2) (Dag.n_edges full)

let test_er_deterministic () =
  let a = Er.gnp ~n:50 ~p:0.3 ~seed:9 and b = Er.gnp ~n:50 ~p:0.3 ~seed:9 in
  Alcotest.(check (list (pair int int))) "same seed same graph" (Dag.edges a) (Dag.edges b)

let test_er_edge_count_concentrates () =
  let n = 100 in
  let p = 0.2 in
  let g = Er.gnp ~n ~p ~seed:33 in
  let expected = p *. float_of_int (n * (n - 1) / 2) in
  let got = float_of_int (Dag.n_edges g) in
  Alcotest.(check bool) "within 20%" true (Float.abs (got -. expected) < 0.2 *. expected)

let test_er_acyclic_orientation () =
  let g = Er.gnp ~n:40 ~p:0.4 ~seed:41 in
  Dag.iter_edges g (fun u v ->
      Alcotest.(check bool) "i < j" true (u < v))

let test_er_connected_resamples () =
  let g = Er.gnp_connected ~n:30 ~p:0.2 ~seed:3 ~max_attempts:50 in
  Alcotest.(check bool) "connected" true (Component.is_connected g)

let test_er_regime_p () =
  let p = Er.connectivity_regime_p ~n:100 ~p0:8.0 in
  Alcotest.(check (float 1e-12)) "formula" (8.0 *. log 100.0 /. 99.0) p

(* ------------------------------------------------------------------ *)
(* Dot / Edgelist                                                      *)
(* ------------------------------------------------------------------ *)

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_dot_output () =
  let g = diamond () in
  let s = Dot.to_string ~name:"d" g in
  Alcotest.(check bool) "digraph" true (String.length s > 0 && String.sub s 0 7 = "digraph");
  Alcotest.(check bool) "edge present" true (contains s "v0 -> v1")

let test_dot_partition_and_order () =
  let g = diamond () in
  let order = Topo.kahn g in
  let partition = [| 0; 0; 1; 1 |] in
  let s = Dot.to_string ~order ~partition g in
  Alcotest.(check bool) "time annotation" true (contains s "t=0");
  Alcotest.(check bool) "fill color" true (contains s "fillcolor=\"#");
  (* labels escaped *)
  let g2 = Dag.of_edges ~labels:[| "a\"b" |] ~n:1 [] in
  Alcotest.(check bool) "escaped quote" true
    (contains (Dot.to_string g2) "a\\\"b")

let test_edgelist_roundtrip () =
  let g = Dag.of_edges ~labels:[| "a b"; "c%d" |] ~n:5 [ (0, 1); (1, 2); (0, 4) ] in
  let g' = Edgelist.of_string (Edgelist.to_string g) in
  Alcotest.(check int) "n" (Dag.n_vertices g) (Dag.n_vertices g');
  Alcotest.(check (list (pair int int))) "edges" (Dag.edges g) (Dag.edges g');
  Alcotest.(check (option string)) "label 0" (Some "a b") (Dag.label g' 0);
  Alcotest.(check (option string)) "label 1" (Some "c%d") (Dag.label g' 1)

let test_edgelist_file_roundtrip () =
  let g = Dag.of_edges ~labels:[| "in"; "out" |] ~n:3 [ (0, 2); (1, 2) ] in
  let path = Filename.temp_file "graphio" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Edgelist.to_file path g;
      let g' = Edgelist.of_file path in
      Alcotest.(check (list (pair int int))) "edges" (Dag.edges g) (Dag.edges g');
      Alcotest.(check (option string)) "label" (Some "in") (Dag.label g' 0))

let test_dot_file_write () =
  let g = diamond () in
  let path = Filename.temp_file "graphio" ".dot" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Dot.to_file path g;
      let ic = open_in path in
      let content = In_channel.input_all ic in
      close_in ic;
      Alcotest.(check bool) "content written" true (String.length content > 20))

let test_edgelist_rejects_garbage () =
  List.iter
    (fun (name, text) ->
      match Edgelist.of_string text with
      | exception Failure _ -> ()
      | _ -> Alcotest.failf "%s should have been rejected" name)
    [
      ("empty", "");
      ("bad header", "nope");
      ("missing size", "graphio 1");
      ("bad edge", "graphio 1\nn 2 m 1\ne 0 5");
      ("count mismatch", "graphio 1\nn 2 m 2\ne 0 1");
      ("cycle", "graphio 1\nn 2 m 2\ne 0 1\ne 1 0");
    ]

let test_edgelist_error_messages () =
  (* Malformed-input corpus: every rejection names the offending line, so
     a bad line deep in a generated file is findable. *)
  List.iter
    (fun (text, expected) ->
      Alcotest.check_raises expected (Failure expected) (fun () ->
          ignore (Edgelist.of_string text)))
    [
      ( "graphio 1\nn -1 m 0\n",
        "Edgelist: line 2: negative counts" );
      ( "graphio 1\nn 2 m 1\ne 0 5\n",
        "Edgelist: line 3: edge 0 -> 5: vertex out of range [0, 2)" );
      ( "graphio 1\nn 2 m 1\ne -1 1\n",
        "Edgelist: line 3: edge -1 -> 1: vertex out of range [0, 2)" );
      ( "graphio 1\n# a comment\nn 3 m 3\ne 0 1\ne 1 2\ne 0 1\n",
        "Edgelist: line 6: duplicate edge 0 -> 1 (first on line 4)" );
      ( "graphio 1\nn 2 m 1\ne 1 1\n",
        "Edgelist: line 3: edge 1 -> 1: self-loop" );
      ( "graphio 1\nn 3 m 1\nl 7 far\ne 0 1\n",
        "Edgelist: line 3: label vertex out of range" );
      ( "graphio 1\nn 2 m 2\ne 0 1\n",
        "Edgelist: edge count mismatch (declared 2, found 1)" );
      ( "graphio 1\nn 2 m 2\ne 0 1\ne 1 0\n",
        "Edgelist: graph has a cycle" );
    ]

(* [l] records in any order, tab-separated or empty; a repeated vertex
   keeps its last label *)
let test_edgelist_label_records () =
  List.iter
    (fun (name, body, expected) ->
      let g = Edgelist.of_string ("graphio 1\nn 4 m 0\n" ^ body) in
      Alcotest.(check (list (option string)))
        name expected
        (List.init 4 (Dag.label g)))
    [
      ("ascending", "l 0 a\nl 2 b%20c\n", [ Some "a"; None; Some "b c"; None ]);
      ( "unordered with repeats",
        "l 2 b\nl 0 a%20b\nl\t3\t\nl 0 c\nl 2 d x\n",
        [ Some "c"; None; Some "d"; Some "" ] );
    ]

let test_edgelist_of_file_prefixes_path () =
  let path = Filename.temp_file "graphio_bad" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc "graphio 1\nn 2 m 1\ne 0 5\n");
      let expected =
        path ^ ": Edgelist: line 3: edge 0 -> 5: vertex out of range [0, 2)"
      in
      Alcotest.check_raises "path prefixed" (Failure expected) (fun () ->
          ignore (Edgelist.of_file path)))

(* ------------------------------------------------------------------ *)
(* Binary store roundtrip                                              *)
(* ------------------------------------------------------------------ *)

module Store = Graphio_store.Store

let with_tmp_store f =
  let path = Filename.temp_file "graphio_store" ".gcsr" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let check_same_graph msg g g' =
  Alcotest.(check int) (msg ^ ": n") (Dag.n_vertices g) (Dag.n_vertices g');
  Alcotest.(check (list (pair int int)))
    (msg ^ ": edges") (Dag.edges g) (Dag.edges g');
  List.iter
    (fun v ->
      Alcotest.(check (option string))
        (Printf.sprintf "%s: label %d" msg v)
        (Dag.label g v) (Dag.label g' v))
    (List.init (Dag.n_vertices g) Fun.id);
  Alcotest.(check int64)
    (msg ^ ": fingerprint") (Dag.fingerprint g) (Dag.fingerprint g')

let test_store_roundtrip_labeled () =
  let g =
    Dag.of_edges ~n:4
      ~labels:[| "in 0"; "50%"; ""; "x\xffy" |]
      [ (0, 1); (0, 2); (1, 3); (2, 3) ]
  in
  with_tmp_store (fun path ->
      Store.write path g;
      Alcotest.(check bool) "sniffs as store" true (Store.is_store_file path);
      let g' = Store.to_dag (Store.load path) in
      Alcotest.(check int) "n" 4 (Dag.n_vertices g');
      Alcotest.(check int) "m" 4 (Dag.n_edges g');
      Alcotest.(check int) "out_degree 0" 2 (Dag.out_degree g' 0);
      Alcotest.(check int) "max_out_degree" 2 (Dag.max_out_degree g');
      Alcotest.(check (option string)) "label 1" (Some "50%") (Dag.label g' 1);
      Alcotest.(check (option string)) "label 2" (Some "") (Dag.label g' 2);
      Alcotest.(check int64)
        "store fingerprint = dag fingerprint" (Dag.fingerprint g)
        (Dag.fingerprint g');
      let seen = ref [] in
      Dag.iter_edges g' (fun u v -> seen := (u, v) :: !seen);
      Alcotest.(check (list (pair int int)))
        "iter_edges in CSR order" (Dag.edges g) (List.rev !seen);
      check_same_graph "to_dag" g g')

let test_store_roundtrip_degenerate () =
  List.iter
    (fun (name, g) ->
      with_tmp_store (fun path ->
          Store.write path g;
          check_same_graph name g (Store.to_dag (Store.load path))))
    [
      ("empty graph", Dag.of_edges ~n:0 []);
      ("single vertex", Dag.of_edges ~n:1 []);
      (* dangling ids: vertices that no edge touches must survive *)
      ("isolated vertices", Dag.of_edges ~n:5 [ (1, 3) ]);
      ("edgeless labeled", Dag.of_edges ~n:2 ~labels:[| "a"; "" |] []);
    ]

let test_store_sniff_rejects_text () =
  let path = Filename.temp_file "graphio_store" ".el" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc "graphio 1\nn 1 m 0\n");
      Alcotest.(check bool) "text file is not a store" false
        (Store.is_store_file path);
      Alcotest.(check bool) "missing file is not a store" false
        (Store.is_store_file (path ^ ".does-not-exist")))

let test_store_component_dags () =
  let g = Dag.replicate (diamond ()) ~copies:3 in
  with_tmp_store (fun path ->
      Store.write path g;
      let t = Store.load path in
      let from_store = Store.component_dags t in
      Alcotest.(check int) "component count" 3 (Array.length from_store);
      let from_split = Component.split (Store.to_dag t) in
      Alcotest.(check int) "same part count" (Array.length from_split)
        (Array.length from_store);
      Array.iteri
        (fun i (part, back) ->
          let part', back' = from_split.(i) in
          Alcotest.(check int64)
            (Printf.sprintf "part %d fingerprint" i)
            (Dag.fingerprint part') (Dag.fingerprint part);
          Alcotest.(check (array int))
            (Printf.sprintf "part %d id mapping" i)
            back' back)
        from_store)

(* The int32 overflow guard must trip on the declared sizes, before any
   allocation proportional to them. *)
let test_store_int32_guard () =
  List.iter
    (fun (name, header) ->
      let input = Filename.temp_file "graphio_store" ".el" in
      Fun.protect
        ~finally:(fun () -> Sys.remove input)
        (fun () ->
          Out_channel.with_open_text input (fun oc -> output_string oc header);
          with_tmp_store (fun output ->
              match Graphio_store.Convert.convert ~input ~output with
              | _ -> Alcotest.failf "%s: guard did not trip" name
              | exception Store.Error (Store.Too_large _) -> ())))
    [
      ("n at int32 max", "graphio 1\nn 2147483647 m 0\n");
      ("m beyond int32 max", "graphio 1\nn 2 m 2147483648\n");
    ]

let prop_store_roundtrip =
  QCheck2.Test.make ~name:"binary store roundtrip" ~count:40
    QCheck2.Gen.(
      let* n = int_range 2 40 in
      let* seed = int_range 0 100000 in
      let* p = float_range 0.05 0.5 in
      return (Er.gnp ~n ~p ~seed))
    (fun g ->
      with_tmp_store (fun path ->
          Store.write path g;
          let t = Store.load path in
          let g' = Store.to_dag t in
          Dag.fingerprint g' = Dag.fingerprint g
          && Dag.edges g' = Dag.edges g
          && Dag.n_vertices g' = Dag.n_vertices g))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let er_gen =
  QCheck2.Gen.(
    let* n = int_range 2 40 in
    let* seed = int_range 0 100000 in
    let* p = float_range 0.05 0.5 in
    return (Er.gnp ~n ~p ~seed))

let prop_topo_orders_valid =
  QCheck2.Test.make ~name:"kahn and dfs orders are valid" ~count:60 er_gen (fun g ->
      Topo.is_valid g (Topo.kahn g) && Topo.is_valid g (Topo.dfs g))

let prop_laplacian_trace_is_degree_sum =
  QCheck2.Test.make ~name:"tr L = 2m" ~count:60 er_gen (fun g ->
      let l = Csr.to_dense (Laplacian.standard g) in
      Float.abs (Mat.trace l -. float_of_int (2 * Dag.n_edges g)) < 1e-9)

let prop_normalized_trace =
  QCheck2.Test.make ~name:"tr L~ = 2 * sum of edge weights" ~count:60 er_gen
    (fun g ->
      let l = Csr.to_dense (Laplacian.normalized g) in
      let wsum =
        Dag.fold_edges g ~init:0.0 ~f:(fun acc u _ ->
            acc +. (1.0 /. float_of_int (Dag.out_degree g u)))
      in
      Float.abs (Mat.trace l -. (2.0 *. wsum)) < 1e-9)

let prop_edgelist_roundtrip =
  QCheck2.Test.make ~name:"edgelist roundtrip" ~count:40 er_gen (fun g ->
      let g' = Edgelist.of_string (Edgelist.to_string g) in
      Dag.edges g = Dag.edges g' && Dag.n_vertices g = Dag.n_vertices g')

(* Labels exercise the percent-escaping: spaces, percent signs, quotes,
   newlines and raw bytes must all survive the text format byte-exactly. *)
let label_gen =
  QCheck2.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'z'; ' '; '%'; '"'; ':'; '\n'; '\xff'; '0' ])
      (int_range 0 12))

let labeled_er_gen =
  QCheck2.Gen.(
    let* g = er_gen in
    let* labels = array_size (return (Dag.n_vertices g)) label_gen in
    return (Dag.of_edges ~labels ~n:(Dag.n_vertices g) (Dag.edges g)))

let prop_edgelist_label_roundtrip =
  QCheck2.Test.make ~name:"edgelist roundtrip preserves labels" ~count:60
    labeled_er_gen (fun g ->
      let g' = Edgelist.of_string (Edgelist.to_string g) in
      Dag.edges g = Dag.edges g'
      && Dag.n_vertices g = Dag.n_vertices g'
      && List.for_all
           (fun v -> Dag.label g v = Dag.label g' v)
           (List.init (Dag.n_vertices g) Fun.id))

let prop_reverse_involution =
  QCheck2.Test.make ~name:"reverse twice is identity" ~count:40 er_gen (fun g ->
      Dag.edges (Dag.reverse (Dag.reverse g)) = Dag.edges g)

(* Labels take the same percent-escape gauntlet through the binary store
   as through the text edgelist — byte-exact both ways. *)
let prop_store_label_roundtrip =
  QCheck2.Test.make ~name:"binary store roundtrip preserves labels" ~count:40
    labeled_er_gen (fun g ->
      with_tmp_store (fun path ->
          Store.write path g;
          let g' = Store.to_dag (Store.load path) in
          Dag.fingerprint g' = Dag.fingerprint g
          && List.for_all
               (fun v -> Dag.label g v = Dag.label g' v)
               (List.init (Dag.n_vertices g) Fun.id)))

(* The split as it was done before union-find: a DFS over successors and
   predecessors for the components, then [Dag.induced_subgraph] (through
   the Builder) on each member set. *)
let oracle_split g =
  let n = Dag.n_vertices g in
  let comp = Array.make n (-1) and count = ref 0 in
  for v = 0 to n - 1 do
    if comp.(v) = -1 then begin
      let id = !count and stack = Stack.create () in
      incr count;
      comp.(v) <- id;
      Stack.push v stack;
      while not (Stack.is_empty stack) do
        let visit w =
          if comp.(w) = -1 then begin
            comp.(w) <- id;
            Stack.push w stack
          end
        in
        let u = Stack.pop stack in
        Dag.iter_succ g u visit;
        Dag.iter_pred g u visit
      done
    end
  done;
  Array.init !count (fun c ->
      Dag.induced_subgraph g
        (Array.of_list (List.filter (fun v -> comp.(v) = c) (List.init n Fun.id))))

let same_parts a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (p, back) (q, back') ->
         Dag.fingerprint p = Dag.fingerprint q
         && back = back'
         && List.for_all
              (fun v -> Dag.label p v = Dag.label q v)
              (List.init (Dag.n_vertices p) Fun.id))
       a b

(* [g] with vertex [v] renamed [perm.(v)], labels following their vertex *)
let permute g perm =
  let inv = Array.make (Dag.n_vertices g) 0 in
  Array.iteri (fun v p -> inv.(p) <- v) perm;
  let b = Dag.Builder.create () in
  Array.iter (fun v -> ignore (Dag.Builder.add_vertex ?label:(Dag.label g v) b)) inv;
  Dag.iter_edges g (fun u v -> Dag.Builder.add_edge b perm.(u) perm.(v));
  Dag.Builder.build b

(* Labeled ER graphs, copies of them, an unlabeled ER graph and isolated
   vertices, joined and then shuffled so that components interleave in
   vertex order. *)
let disconnected_gen =
  QCheck2.Gen.(
    let* g = labeled_er_gen in
    let* copies = int_range 1 3 in
    let* h = er_gen in
    let* isolated = int_range 0 4 in
    let u =
      Dag.disjoint_union
        (Dag.disjoint_union (Dag.replicate g ~copies) h)
        (Dag.of_edges ~n:isolated [])
    in
    let* perm = shuffle_a (Array.init (Dag.n_vertices u) Fun.id) in
    return (permute u perm))

let prop_split_matches_oracle =
  QCheck2.Test.make ~name:"split = DFS + induced_subgraph oracle" ~count:100
    disconnected_gen (fun g -> same_parts (Component.split g) (oracle_split g))

let prop_store_union_components =
  QCheck2.Test.make ~name:"store recovers replicated components" ~count:30
    disconnected_gen (fun g ->
      with_tmp_store (fun path ->
          Store.write path g;
          let t = Store.load path in
          Dag.fingerprint (Store.to_dag t) = Dag.fingerprint g
          && same_parts (Store.component_dags t) (Component.split g)))

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_topo_orders_valid;
      prop_laplacian_trace_is_degree_sum;
      prop_normalized_trace;
      prop_edgelist_roundtrip;
      prop_edgelist_label_roundtrip;
      prop_reverse_involution;
      prop_store_roundtrip;
      prop_store_label_roundtrip;
      prop_split_matches_oracle;
      prop_store_union_components;
    ]

let () =
  Alcotest.run "graphio_graph"
    [
      ( "dag",
        [
          Alcotest.test_case "basic accessors" `Quick test_dag_basic;
          Alcotest.test_case "sources and sinks" `Quick test_dag_sources_sinks;
          Alcotest.test_case "has_edge" `Quick test_dag_has_edge;
          Alcotest.test_case "edges roundtrip" `Quick test_dag_edges_roundtrip;
          Alcotest.test_case "labels" `Quick test_dag_labels;
          Alcotest.test_case "rejects cycle" `Quick test_dag_rejects_cycle;
          Alcotest.test_case "rejects self-loop" `Quick test_dag_rejects_self_loop;
          Alcotest.test_case "rejects duplicate edge" `Quick test_dag_rejects_duplicate_edge;
          Alcotest.test_case "rejects bad vertex" `Quick test_dag_rejects_bad_vertex;
          Alcotest.test_case "reverse" `Quick test_dag_reverse;
          Alcotest.test_case "induced subgraph" `Quick test_dag_induced_subgraph;
          Alcotest.test_case "fold_edges" `Quick test_dag_fold_edges;
        ] );
      ( "topo",
        [
          Alcotest.test_case "standard orders valid" `Quick test_topo_kahn_valid;
          Alcotest.test_case "invalid orders rejected" `Quick test_topo_invalid_orders;
          Alcotest.test_case "random orders valid" `Quick test_topo_random_valid;
          Alcotest.test_case "random orders vary" `Quick test_topo_random_varies;
          Alcotest.test_case "position_of" `Quick test_topo_position_of;
          Alcotest.test_case "natural rejects non-topological" `Quick test_topo_natural_rejects;
        ] );
      ( "laplacian",
        [
          Alcotest.test_case "standard chain" `Quick test_laplacian_standard_chain;
          Alcotest.test_case "normalized diamond" `Quick test_laplacian_normalized_diamond;
          Alcotest.test_case "psd and nullspace" `Quick test_laplacian_psd_and_nullspace;
          Alcotest.test_case "quadratic form standard" `Quick test_laplacian_quadratic_form_standard;
          Alcotest.test_case "quadratic form normalized" `Quick test_laplacian_quadratic_form_normalized;
          Alcotest.test_case "symmetric" `Quick test_laplacian_symmetric;
          Alcotest.test_case "row sums zero" `Quick test_laplacian_row_sums_zero;
        ] );
      ( "component",
        [
          Alcotest.test_case "counts" `Quick test_component_counts;
          Alcotest.test_case "connected" `Quick test_component_connected;
          Alcotest.test_case "connected graph splits to itself" `Quick
            test_component_split_connected;
        ] );
      ( "stats",
        [
          Alcotest.test_case "diamond" `Quick test_stats_diamond;
          Alcotest.test_case "chain" `Quick test_stats_chain;
          Alcotest.test_case "edgeless and empty" `Quick test_stats_edgeless;
          Alcotest.test_case "levels use longest path" `Quick test_stats_levels_longest_path;
        ] );
      ( "er",
        [
          Alcotest.test_case "extremes" `Quick test_er_extremes;
          Alcotest.test_case "deterministic" `Quick test_er_deterministic;
          Alcotest.test_case "edge count concentrates" `Quick test_er_edge_count_concentrates;
          Alcotest.test_case "acyclic orientation" `Quick test_er_acyclic_orientation;
          Alcotest.test_case "connected resampling" `Quick test_er_connected_resamples;
          Alcotest.test_case "regime p formula" `Quick test_er_regime_p;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "dot output" `Quick test_dot_output;
          Alcotest.test_case "dot partition and order" `Quick test_dot_partition_and_order;
          Alcotest.test_case "edgelist roundtrip" `Quick test_edgelist_roundtrip;
          Alcotest.test_case "edgelist file roundtrip" `Quick test_edgelist_file_roundtrip;
          Alcotest.test_case "dot file write" `Quick test_dot_file_write;
          Alcotest.test_case "edgelist rejects garbage" `Quick test_edgelist_rejects_garbage;
          Alcotest.test_case "edgelist error messages are line-numbered" `Quick
            test_edgelist_error_messages;
          Alcotest.test_case "edgelist of_file prefixes path" `Quick
            test_edgelist_of_file_prefixes_path;
          Alcotest.test_case "edgelist label records" `Quick
            test_edgelist_label_records;
        ] );
      ( "store",
        [
          Alcotest.test_case "labeled roundtrip" `Quick
            test_store_roundtrip_labeled;
          Alcotest.test_case "degenerate graphs roundtrip" `Quick
            test_store_roundtrip_degenerate;
          Alcotest.test_case "sniff rejects text" `Quick
            test_store_sniff_rejects_text;
          Alcotest.test_case "component extraction matches split" `Quick
            test_store_component_dags;
          Alcotest.test_case "int32 overflow guard" `Quick
            test_store_int32_guard;
        ] );
      ("properties", props);
    ]
