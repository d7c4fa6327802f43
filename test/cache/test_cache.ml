(* The two-tier spectrum cache's contract: a cached answer is bitwise
   indistinguishable from the solve that produced it, the memory tier
   never exceeds its entry bound, and the disk tier never trusts a
   corrupt record. *)

open Graphio_cache
open Graphio_graph
open Graphio_core

let temp_dir () =
  let path = Filename.temp_file "graphio_cache" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let key i =
  { Spectrum.fingerprint = Int64.of_int (0x5EED + i); method_tag = 'n'; h = 8;
    params = 0L }

let entry vals = { Spectrum.eigenvalues = vals; dense = true }

(* tricky bit patterns: negative zero, subnormal, huge, tiny, nan *)
let tricky =
  [| 0.0; -0.0; 0.1; 1e-300; 4e-324; max_float; min_float; nan; 1.0 /. 3.0 |]

(* ------------------------------------------------------------------ *)
(* Lru                                                                 *)
(* ------------------------------------------------------------------ *)

let test_lru_basic () =
  let c = Lru.create ~capacity:2 () in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Alcotest.(check (option int)) "find a" (Some 1) (Lru.find c "a");
  (* "a" is now MRU, so inserting "c" evicts "b" *)
  Lru.add c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Lru.find c "b");
  Alcotest.(check (option int)) "a survives" (Some 1) (Lru.find c "a");
  Alcotest.(check int) "one eviction" 1 (Lru.evictions c);
  Alcotest.(check int) "length" 2 (Lru.length c)

let test_lru_replace_promotes () =
  let c = Lru.create ~capacity:2 () in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Lru.add c "a" 10;
  Lru.add c "c" 3;
  Alcotest.(check (option int)) "replaced value" (Some 10) (Lru.find c "a");
  Alcotest.(check (option int)) "b was lru" None (Lru.find c "b")

let test_lru_zero_capacity () =
  let c = Lru.create ~capacity:0 () in
  Lru.add c "a" 1;
  Alcotest.(check int) "stores nothing" 0 (Lru.length c);
  Alcotest.(check (option int)) "finds nothing" None (Lru.find c "a")

let test_lru_on_evict () =
  let evicted = ref [] in
  let c = Lru.create ~on_evict:(fun k v -> evicted := (k, v) :: !evicted) ~capacity:1 () in
  Lru.add c 1 "x";
  Lru.add c 2 "y";
  Lru.remove c 2;
  Alcotest.(check (list (pair int string))) "only capacity evictions" [ (1, "x") ]
    !evicted

(* Model check: against a naive association-list LRU, under a random
   operation stream the real structure must agree on every lookup and
   never exceed capacity. *)
let prop_lru_matches_model =
  QCheck2.Test.make ~name:"lru agrees with naive model" ~count:200
    QCheck2.Gen.(
      pair (int_range 1 5)
        (list_size (int_range 0 60) (pair (int_range 0 8) (int_range 0 2))))
    (fun (cap, ops) ->
      let c = Lru.create ~capacity:cap () in
      let model = ref [] in (* MRU first *)
      List.for_all
        (fun (k, op) ->
          match op with
          | 0 ->
              Lru.add c k k;
              model := (k, k) :: List.remove_assoc k !model;
              if List.length !model > cap then
                model := List.filteri (fun i _ -> i < cap) !model;
              true
          | 1 ->
              let expected = List.assoc_opt k !model in
              if expected <> None then
                model := (k, k) :: List.remove_assoc k !model;
              Lru.find c k = expected && Lru.length c <= cap
          | _ ->
              Lru.remove c k;
              model := List.remove_assoc k !model;
              Lru.length c = List.length !model)
        ops
      && Lru.to_list c = !model)

(* ------------------------------------------------------------------ *)
(* Spectrum cache: memory tier                                         *)
(* ------------------------------------------------------------------ *)

let test_memory_roundtrip () =
  let c = Spectrum.create ~capacity:4 () in
  Spectrum.add c (key 1) (entry tricky);
  match Spectrum.find c (key 1) with
  | None -> Alcotest.fail "expected a hit"
  | Some e ->
      Alcotest.(check bool) "bitwise identical" true
        (bits_equal tricky e.Spectrum.eigenvalues)

let test_memory_entry_bound () =
  let c = Spectrum.create ~capacity:3 () in
  for i = 1 to 10 do
    Spectrum.add c (key i) (entry [| float_of_int i |])
  done;
  Alcotest.(check int) "bounded" 3 (Spectrum.length c);
  Alcotest.(check bool) "old entry gone" true (Spectrum.find c (key 1) = None);
  Alcotest.(check bool) "recent entry kept" true (Spectrum.find c (key 10) <> None)

let test_key_discriminates () =
  let c = Spectrum.create () in
  Spectrum.add c (key 1) (entry [| 1.0 |]);
  Alcotest.(check bool) "different h misses" true
    (Spectrum.find c { (key 1) with Spectrum.h = 9 } = None);
  Alcotest.(check bool) "different method misses" true
    (Spectrum.find c { (key 1) with Spectrum.method_tag = 's' } = None);
  Alcotest.(check bool) "different params miss" true
    (Spectrum.find c { (key 1) with Spectrum.params = 7L } = None)

let test_disabled_cache () =
  Spectrum.add Spectrum.disabled (key 1) (entry [| 1.0 |]);
  Alcotest.(check bool) "never answers" true
    (Spectrum.find Spectrum.disabled (key 1) = None)

let test_params_digest_discriminates () =
  let d ?dense_threshold ?tol ?seed ?filter_degree () =
    Spectrum.params_digest ~dense_threshold ~tol ~seed ~filter_degree
  in
  let base = d () in
  Alcotest.(check bool) "dense_threshold changes digest" true
    (d ~dense_threshold:24 () <> base);
  Alcotest.(check bool) "tol changes digest" true
    (d ~tol:1e-9 () <> base);
  Alcotest.(check bool) "seed changes digest" true
    (d ~seed:3 () <> base);
  Alcotest.(check bool) "fixed filter degree changes digest" true
    (d ~filter_degree:12 () <> base);
  Alcotest.(check bool) "digest is stable" true (d () = base)

(* ------------------------------------------------------------------ *)
(* Spectrum cache: disk tier                                           *)
(* ------------------------------------------------------------------ *)

let test_disk_roundtrip_bitwise () =
  with_temp_dir @@ fun dir ->
  let c = Spectrum.create ~dir () in
  Spectrum.add c (key 2) { Spectrum.eigenvalues = tricky; dense = false };
  Spectrum.drop_memory c;
  match Spectrum.find c (key 2) with
  | None -> Alcotest.fail "expected a disk hit"
  | Some e ->
      Alcotest.(check bool) "bitwise identical through disk" true
        (bits_equal tricky e.Spectrum.eigenvalues);
      Alcotest.(check bool) "backend flag preserved" false e.Spectrum.dense

let test_disk_shared_between_caches () =
  with_temp_dir @@ fun dir ->
  let writer = Spectrum.create ~dir () in
  Spectrum.add writer (key 3) (entry [| 0.5; 0.25 |]);
  let reader = Spectrum.create ~dir () in
  Alcotest.(check bool) "second cache reads the first's entry" true
    (Spectrum.find reader (key 3) <> None)

let corrupt_byte path pos =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let len = (Unix.fstat fd).Unix.st_size in
      let pos = ((pos mod len) + len) mod len in
      ignore (Unix.lseek fd pos Unix.SEEK_SET);
      let b = Bytes.create 1 in
      ignore (Unix.read fd b 0 1);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x40));
      ignore (Unix.lseek fd pos Unix.SEEK_SET);
      ignore (Unix.write fd b 0 1))

let test_disk_corruption_rejected () =
  with_temp_dir @@ fun dir ->
  let c = Spectrum.create ~dir () in
  (* flip a byte at several positions: magic, key, payload, checksum *)
  List.iteri
    (fun i pos ->
      let k = key (100 + i) in
      Spectrum.add c k (entry tricky);
      let path = Spectrum.file_of_key ~dir k in
      corrupt_byte path pos;
      Spectrum.drop_memory c;
      Alcotest.(check bool)
        (Printf.sprintf "corrupt byte at %d rejected" pos)
        true
        (Spectrum.find c k = None);
      Alcotest.(check bool)
        (Printf.sprintf "corrupt file at %d evicted" pos)
        false (Sys.file_exists path);
      (* after recomputation (add), the entry must be served again *)
      Spectrum.add c k (entry tricky);
      Spectrum.drop_memory c;
      Alcotest.(check bool)
        (Printf.sprintf "recomputed entry at %d served" pos)
        true
        (Spectrum.find c k <> None))
    [ 0; 10; 40; -1 ]

let test_disk_truncation_rejected () =
  with_temp_dir @@ fun dir ->
  let c = Spectrum.create ~dir () in
  let k = key 7 in
  Spectrum.add c k (entry tricky);
  let path = Spectrum.file_of_key ~dir k in
  Unix.truncate path 20;
  Spectrum.drop_memory c;
  Alcotest.(check bool) "truncated record rejected" true (Spectrum.find c k = None);
  Alcotest.(check bool) "truncated file evicted" false (Sys.file_exists path)

let test_disk_wrong_key_rejected () =
  (* a record renamed onto another key's path embeds the wrong key and
     must not be served for it *)
  with_temp_dir @@ fun dir ->
  let c = Spectrum.create ~dir () in
  let k1 = key 11 and k2 = key 12 in
  Spectrum.add c k1 (entry [| 1.0 |]);
  let p1 = Spectrum.file_of_key ~dir k1 and p2 = Spectrum.file_of_key ~dir k2 in
  Sys.rename p1 p2;
  Spectrum.drop_memory c;
  Alcotest.(check bool) "stale record rejected" true (Spectrum.find c k2 = None)

(* ------------------------------------------------------------------ *)
(* End to end through the solver                                       *)
(* ------------------------------------------------------------------ *)

let solve ?cache ?on_missing job =
  ignore on_missing;
  Solver.bound_cached
    ?cache:(Some (Option.value cache ~default:Spectrum.disabled))
    ~h:16 ~dense_threshold:24 job

let outcome_bits (r : Solver.batch_result) =
  (r.Solver.outcome.Solver.eigenvalues,
   r.Solver.outcome.Solver.result.Spectral_bound.bound)

let check_identical name cold warm =
  let ev_c, b_c = outcome_bits cold and ev_w, b_w = outcome_bits warm in
  Alcotest.(check bool) (name ^ ": eigenvalues bitwise identical") true
    (bits_equal ev_c ev_w);
  Alcotest.(check bool) (name ^ ": bound bitwise identical") true
    (Int64.equal (Int64.bits_of_float b_c) (Int64.bits_of_float b_w))

let test_solver_memory_hit_identical () =
  List.iter
    (fun (name, g) ->
      let job = Solver.job g ~m:8 in
      let cold = solve job in
      let cache = Spectrum.create () in
      let miss = solve ~cache job in
      let hit = solve ~cache job in
      Alcotest.(check bool) (name ^ ": first is a miss") false miss.Solver.cache_hit;
      Alcotest.(check bool) (name ^ ": second is a hit") true hit.Solver.cache_hit;
      check_identical name cold hit)
    [
      ("fft", Graphio_workloads.Fft.build 4);
      (* n=48 > dense_threshold: exercises the sparse backend *)
      ("er sparse", Er.gnp ~n:48 ~p:0.15 ~seed:5);
      ("er dense path", Er.gnp ~n:20 ~p:0.3 ~seed:6);
    ]

let test_solver_disk_hit_identical () =
  with_temp_dir @@ fun dir ->
  List.iter
    (fun (name, g) ->
      let job = Solver.job ~method_:Solver.Standard g ~m:4 in
      let cold = solve job in
      let cache = Spectrum.create ~dir () in
      let _ = solve ~cache job in
      Spectrum.drop_memory cache;
      let hit = solve ~cache job in
      Alcotest.(check bool) (name ^ ": disk answer is a hit") true
        hit.Solver.cache_hit;
      check_identical name cold hit)
    [
      ("fft std", Graphio_workloads.Fft.build 4);
      ("er std", Er.gnp ~n:40 ~p:0.2 ~seed:9);
    ]

let test_solver_corrupt_disk_recomputes () =
  with_temp_dir @@ fun dir ->
  let g = Er.gnp ~n:30 ~p:0.2 ~seed:11 in
  let job = Solver.job g ~m:8 in
  let cold = solve job in
  let cache = Spectrum.create ~dir () in
  let _ = solve ~cache job in
  (* corrupt the only record on disk, drop memory: the next solve must
     reject it, recompute, and still produce bit-identical results *)
  (match Sys.readdir dir with
  | [||] -> Alcotest.fail "expected a disk record"
  | files -> Array.iter (fun f -> corrupt_byte (Filename.concat dir f) 40) files);
  Spectrum.drop_memory cache;
  let recomputed = solve ~cache job in
  Alcotest.(check bool) "recomputed, not served" false recomputed.Solver.cache_hit;
  check_identical "recomputed" cold recomputed

let test_solver_params_not_conflated () =
  let g = Er.gnp ~n:40 ~p:0.2 ~seed:13 in
  let job = Solver.job g ~m:8 in
  let cache = Spectrum.create () in
  let a = Solver.bound_cached ~cache ~h:16 ~dense_threshold:24 job in
  (* same graph/method/h, different solver knob: must NOT be served from
     the first entry *)
  let b = Solver.bound_cached ~cache ~h:16 ~dense_threshold:200 job in
  Alcotest.(check bool) "different dense_threshold misses" false
    b.Solver.cache_hit;
  ignore a

(* The key schema disk entries are written under: a change to it turns
   every existing disk cache into misses. *)
let test_solver_key_schema () =
  with_temp_dir @@ fun dir ->
  let cache = Spectrum.create ~dir () in
  let h = 16 and dense_threshold = Some 100 in
  let numeric = Graphio_workloads.Matmul.build 3
  and recognized = Graphio_workloads.Fft.build 3 in
  List.iter
    (fun g ->
      ignore
        (Solver.bound_cached ~cache ~h ?dense_threshold (Solver.job g ~m:4)))
    [ numeric; recognized ];
  Spectrum.drop_memory cache;
  let key ~method_tag ~dense_threshold g =
    {
      Spectrum.fingerprint = Dag.fingerprint g;
      method_tag;
      h;
      params =
        Spectrum.params_digest ~dense_threshold ~tol:None ~seed:None
          ~filter_degree:None;
    }
  in
  let tag = Method.cache_char Method.Normalized in
  Alcotest.(check bool) "numeric entry" true
    (Spectrum.find cache (key ~method_tag:tag ~dense_threshold numeric) <> None);
  Alcotest.(check bool) "closed-form entry" true
    (Spectrum.find cache
       (key ~method_tag:(Char.uppercase_ascii tag) ~dense_threshold:None
          recognized)
    <> None)

let prop_batch_warm_equals_cold =
  (* bound_batch over a random job mix: warm (second run, same cache)
     results must be bitwise identical to the cold run's. *)
  QCheck2.Test.make ~name:"warm batch bitwise-equal to cold batch" ~count:15
    QCheck2.Gen.(
      let* seeds = list_size (int_range 1 5) (int_range 0 1000) in
      let* m = int_range 2 32 in
      return (seeds, m))
    (fun (seeds, m) ->
      let jobs =
        Array.of_list
          (List.concat_map
             (fun seed ->
               let g = Er.gnp ~n:(20 + (seed mod 20)) ~p:0.2 ~seed in
               [ Solver.job g ~m; Solver.job ~method_:Solver.Standard g ~m ])
             seeds)
      in
      let run cache = Solver.bound_batch ~cache ~h:12 ~dense_threshold:24 jobs in
      let cold = run Spectrum.disabled in
      let cache = Spectrum.create () in
      let _warmup = run cache in
      let warm = run cache in
      Array.for_all2
        (fun (c : Solver.batch_result) (w : Solver.batch_result) ->
          w.Solver.cache_hit
          && bits_equal c.Solver.outcome.Solver.eigenvalues
               w.Solver.outcome.Solver.eigenvalues
          && Int64.equal
               (Int64.bits_of_float c.Solver.outcome.Solver.result.Spectral_bound.bound)
               (Int64.bits_of_float w.Solver.outcome.Solver.result.Spectral_bound.bound))
        cold warm)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_lru_matches_model; prop_batch_warm_equals_cold ]

let () =
  Alcotest.run "graphio_cache"
    [
      ( "lru",
        [
          Alcotest.test_case "basic eviction order" `Quick test_lru_basic;
          Alcotest.test_case "replace promotes" `Quick test_lru_replace_promotes;
          Alcotest.test_case "zero capacity" `Quick test_lru_zero_capacity;
          Alcotest.test_case "on_evict" `Quick test_lru_on_evict;
        ] );
      ( "memory-tier",
        [
          Alcotest.test_case "roundtrip bitwise" `Quick test_memory_roundtrip;
          Alcotest.test_case "entry bound" `Quick test_memory_entry_bound;
          Alcotest.test_case "key discriminates" `Quick test_key_discriminates;
          Alcotest.test_case "disabled cache" `Quick test_disabled_cache;
          Alcotest.test_case "params digest" `Quick test_params_digest_discriminates;
        ] );
      ( "disk-tier",
        [
          Alcotest.test_case "roundtrip bitwise" `Quick test_disk_roundtrip_bitwise;
          Alcotest.test_case "shared between caches" `Quick test_disk_shared_between_caches;
          Alcotest.test_case "corruption rejected and evicted" `Quick
            test_disk_corruption_rejected;
          Alcotest.test_case "truncation rejected" `Quick test_disk_truncation_rejected;
          Alcotest.test_case "wrong key rejected" `Quick test_disk_wrong_key_rejected;
        ] );
      ( "solver",
        [
          Alcotest.test_case "memory hit identical to cold solve" `Quick
            test_solver_memory_hit_identical;
          Alcotest.test_case "disk hit identical to cold solve" `Quick
            test_solver_disk_hit_identical;
          Alcotest.test_case "corrupt record recomputed" `Quick
            test_solver_corrupt_disk_recomputes;
          Alcotest.test_case "solver params not conflated" `Quick
            test_solver_params_not_conflated;
          Alcotest.test_case "key schema pinned" `Quick test_solver_key_schema;
        ] );
      ("properties", props);
    ]
