(* Corruption corpus for the binary CSR store.

   Oracle: a damaged store file is NEVER half-loaded.  Every corpus entry
   takes a known-good file, applies one class of damage — truncation,
   flipped bytes in each region, version/magic rewrites, checksum-valid
   structural corruption, torn or flipped writes injected through
   lib/fault — and asserts that [Store.load] raises the matching
   structured {!Store.error} constructor (fail closed, not a crash, not a
   wrong graph).

   The checksum-valid entries re-seal the body CRC after patching, so
   they prove the *structural* validation tier (pointer monotonicity,
   index range, acyclicity) independently of the checksum tier. *)

open Graphio_graph
module Store = Graphio_store.Store
module Convert = Graphio_store.Convert
module F = Graphio_fault

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L
let header_len = 28
let crc_len = 8

let fnv1a_bytes acc b pos len =
  let acc = ref acc in
  for i = pos to pos + len - 1 do
    acc :=
      Int64.mul
        (Int64.logxor !acc (Int64.of_int (Char.code (Bytes.get b i))))
        fnv_prime
  done;
  !acc

let read_file path =
  In_channel.with_open_bin path (fun ic ->
      let n = in_channel_length ic in
      let b = Bytes.create n in
      really_input ic b 0 n;
      b)

let write_file path b =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b)

(* Reference graph: labeled, multi-component, rows with several entries
   (so sortedness is checkable), one isolated vertex. *)
let reference () =
  Dag.of_edges ~n:7
    ~labels:[| "src"; ""; "x y"; "100%"; ""; ""; "" |]
    [ (0, 1); (0, 2); (1, 3); (2, 3); (4, 5) ]

let in_tmp_dir f =
  let dir = Filename.temp_file "graphio_store_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> Sys.remove (Filename.concat dir e))
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let with_reference_file f =
  in_tmp_dir (fun dir ->
      let path = Filename.concat dir "ref.gcsr" in
      Store.write path (reference ());
      f path)

let error_of_load path =
  match Store.load path with
  | _ -> Alcotest.fail "corrupt file loaded successfully"
  | exception Store.Error e -> e

let check_error name expected path =
  let got = error_of_load path in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %s" name (Store.error_message got))
    true (expected got)

(* --------------------------- damage helpers --------------------------- *)

let truncate_to path k =
  let b = read_file path in
  write_file path (Bytes.sub b 0 (min k (Bytes.length b)))

let flip_byte path off =
  let b = read_file path in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x40));
  write_file path b

(* Patch a body word (int32, word 0 = first word after the header) and
   re-seal the body CRC so only the structural tier can object. *)
let patch_body_word path word v =
  let b = read_file path in
  Bytes.set_int32_le b (header_len + (4 * word)) (Int32.of_int v);
  let body_len = Bytes.length b - header_len - crc_len in
  Bytes.set_int64_le b
    (Bytes.length b - crc_len)
    (fnv1a_bytes fnv_offset b header_len body_len);
  write_file path b

(* ----------------------------- the corpus ----------------------------- *)

let test_truncated () =
  List.iter
    (fun k ->
      with_reference_file (fun path ->
          truncate_to path k;
          check_error
            (Printf.sprintf "truncated to %d" k)
            (function Store.Truncated _ -> true | _ -> false)
            path))
    [ 0; 5; 10; 27; 40 ]

let test_bad_magic () =
  with_reference_file (fun path ->
      flip_byte path 2;
      check_error "flipped magic byte"
        (function Store.Bad_magic -> true | _ -> false)
        path)

let test_bad_version () =
  with_reference_file (fun path ->
      let b = read_file path in
      Bytes.set b 7 '\x09';
      write_file path b;
      check_error "future version"
        (function Store.Bad_version { found = 9 } -> true | _ -> false)
        path)

let test_header_flip () =
  (* every header byte after the version — the counts and the stored CRC
     itself — must trip the header checksum *)
  List.iter
    (fun off ->
      with_reference_file (fun path ->
          flip_byte path off;
          check_error
            (Printf.sprintf "flipped header byte %d" off)
            (function
              | Store.Checksum_mismatch { region = "header" } -> true
              | _ -> false)
            path))
    [ 8; 13; 16; 20; 27 ]

let test_body_flip () =
  with_reference_file (fun path ->
      let size = Bytes.length (read_file path) in
      List.iter
        (fun off ->
          with_reference_file (fun path ->
              flip_byte path off;
              check_error
                (Printf.sprintf "flipped body byte %d" off)
                (function
                  | Store.Checksum_mismatch { region = "body" } -> true
                  | _ -> false)
                path))
        [ header_len; header_len + 9; size - crc_len; size - 1 ];
      ignore path)

(* Checksums pass; the structure is the lie.  n = 7, m = 5: body words
   0..7 are succ_ptr, words 8..12 are succ_idx. *)
let test_malformed_structure () =
  let cases =
    [
      ("out-of-range index", 8, 12, "range");
      ("non-monotone pointers", 1, 6, "monotone");
      ("self-loop breaks acyclicity", 8, 0, "cycle");
      ("unsorted row", 9, 1, "sorted");
      ("pointer past m", 7, 9, "monotone");
    ]
  in
  List.iter
    (fun (name, word, v, _) ->
      with_reference_file (fun path ->
          patch_body_word path word v;
          check_error name
            (function Store.Malformed _ -> true | _ -> false)
            path))
    cases

(* ------------------------- injected write damage ---------------------- *)

let no_tmp_leak dir =
  Array.iter
    (fun f ->
      if f <> "ref.gcsr" then
        Alcotest.failf "unexpected file %s left in store dir" f)
    (Sys.readdir dir)

let test_torn_write_fails_closed () =
  List.iter
    (fun kind ->
      in_tmp_dir (fun dir ->
          let path = Filename.concat dir "ref.gcsr" in
          F.with_plan
            (Printf.sprintf "store.file.write:kind=%s:seed=7" kind)
            (fun () -> Store.write path (reference ()));
          (* the damaged record is deliberately published: the checksums,
             not the writer, are the trust boundary *)
          match Store.load path with
          | _ ->
              Alcotest.failf "%s-damaged write loaded successfully" kind
          | exception Store.Error e -> (
              match e with
              | Store.Truncated _ | Store.Checksum_mismatch _
              | Store.Bad_magic | Store.Bad_version _ ->
                  ()
              | e ->
                  Alcotest.failf "%s write: unexpected error %s" kind
                    (Store.error_message e))))
    [ "partial"; "flip" ]

let test_failed_write_and_rename () =
  in_tmp_dir (fun dir ->
      let path = Filename.concat dir "ref.gcsr" in
      (match
         F.with_plan "store.file.write" (fun () ->
             Store.write path (reference ()))
       with
      | _ -> Alcotest.fail "injected write failure did not raise"
      | exception Store.Error (Store.Io_error _) -> ());
      Alcotest.(check bool) "no file published" false (Sys.file_exists path);
      (match
         F.with_plan "store.file.rename" (fun () ->
             Store.write path (reference ()))
       with
      | _ -> Alcotest.fail "injected rename failure did not raise"
      | exception Store.Error (Store.Io_error _) -> ());
      Alcotest.(check bool) "no file after failed rename" false
        (Sys.file_exists path);
      no_tmp_leak dir)

let test_injected_read_faults () =
  List.iter
    (fun (plan, expected) ->
      with_reference_file (fun path ->
          F.with_plan plan (fun () ->
              let got = error_of_load path in
              Alcotest.(check bool)
                (Printf.sprintf "%s: %s" plan (Store.error_message got))
                true (expected got))))
    [
      ( "store.file.read",
        function Store.Io_error _ -> true | _ -> false );
      ( "store.file.read:kind=partial",
        function
        | Store.Checksum_mismatch { region = "body" } -> true | _ -> false );
      ( "store.file.read:kind=flip",
        function
        | Store.Checksum_mismatch { region = "body" } -> true | _ -> false );
      ( "store.checksum",
        function
        | Store.Checksum_mismatch { region = "body" } -> true | _ -> false );
    ]

(* ------------------------- converter interop -------------------------- *)

(* The streaming converter and the in-memory writer must produce the
   same bytes — the idempotence and text/binary bitwise differentials
   both rest on this. *)
let test_convert_matches_write () =
  in_tmp_dir (fun dir ->
      let g = reference () in
      let text = Filename.concat dir "g.el" in
      let from_convert = Filename.concat dir "g.gcsr" in
      let from_write = Filename.concat dir "w.gcsr" in
      Edgelist.to_file text g;
      let n, m = Convert.convert ~input:text ~output:from_convert in
      Alcotest.(check int) "n" (Dag.n_vertices g) n;
      Alcotest.(check int) "m" (Dag.n_edges g) m;
      Store.write from_write g;
      Alcotest.(check bool) "byte-identical output" true
        (read_file from_convert = read_file from_write))

(* One grammar table, two surfaces: every row goes through both
   [Edgelist.of_string] and [Convert.convert], which must agree — on the
   graph (fingerprint and labels) when the row is accepted, on the message
   after each surface's prefix when it is rejected. *)
let test_convert_line_errors () =
  let after prefix msg =
    let k = String.length prefix in
    if String.length msg >= k && String.sub msg 0 k = prefix then
      Error (String.sub msg k (String.length msg - k))
    else Alcotest.failf "message %S lacks the prefix %S" msg prefix
  in
  let graph_of_string body =
    match Edgelist.of_string body with
    | g -> Ok g
    | exception Failure msg -> after "Edgelist: " msg
  in
  let graph_of_convert dir body =
    let input = Filename.concat dir "in.el" in
    let output = Filename.concat dir "out.gcsr" in
    Out_channel.with_open_bin input (fun oc -> Out_channel.output_string oc body);
    match Convert.convert ~input ~output with
    | _ -> Ok (Store.to_dag (Store.load output))
    | exception Failure msg ->
        Alcotest.(check bool)
          (Printf.sprintf "no output after %S" msg)
          false (Sys.file_exists output);
        after (input ^ ": ") msg
  in
  List.iter
    (fun (name, body, expected) ->
      in_tmp_dir (fun dir ->
          match (graph_of_string body, graph_of_convert dir body, expected) with
          | Ok a, Ok b, None ->
              Alcotest.(check int64)
                (name ^ ": fingerprint") (Dag.fingerprint a) (Dag.fingerprint b);
              for v = 0 to Dag.n_vertices a - 1 do
                Alcotest.(check (option string))
                  (Printf.sprintf "%s: label %d" name v)
                  (Dag.label a v) (Dag.label b v)
              done
          | Error a, Error b, Some msg ->
              Alcotest.(check string) (name ^ ": of_string") msg a;
              Alcotest.(check string) (name ^ ": convert") msg b
          | a, b, _ ->
              let show = function
                | Ok _ -> "accepted"
                | Error msg -> Printf.sprintf "rejected (%s)" msg
              in
              Alcotest.failf "%s: of_string %s, convert %s, expected %s" name
                (show a) (show b)
                (match expected with None -> "accepted" | Some m -> m)))
    [
      ("bad header", "graphio 2\n", Some "line 1: expected header 'graphio 1'");
      ("empty", "", Some "empty input");
      ("missing sizes", "graphio 1\n", Some "missing size line");
      ("negative sizes", "graphio 1\nn -1 m 0\n", Some "line 2: negative counts");
      ("bad edge", "graphio 1\nn 2 m 1\ne 0\n", Some "line 3: malformed edge");
      ("bare e", "graphio 1\nn 2 m 1\ne\n", Some "line 3: malformed edge");
      ("plus sign", "graphio 1\nn 2 m 1\ne +0 1\n", Some "line 3: malformed edge");
      ("underscore", "graphio 1\nn 2 m 1\ne 0_0 1\n", Some "line 3: malformed edge");
      ( "overflowing id",
        "graphio 1\nn 2 m 1\ne 9223372036854775808 1\n",
        Some "line 3: malformed edge" );
      ("tab separated", "graphio 1\nn 2 m 1\ne\t0\t1\n", None);
      ( "zero-padded id",
        "graphio 1\nn 2 m 1\ne 1 0000000000000000000000000\n",
        None );
      ("trailing text", "graphio 1\nn 3 m 2\ne 0 1 # a\ne  1   2x\n", None);
      ( "labels",
        "graphio 1\n# c\nn 3 m 1\nl 0 a%20b\nl\t2\t\nl 0 c\ne 2 1\n",
        None );
      ( "bad escape",
        "graphio 1\nn 2 m 0\nl 0 a%zz\n",
        Some "line 3: malformed label" );
      ( "label range",
        "graphio 1\nn 2 m 0\nl 7 far\n",
        Some "line 3: label vertex out of range" );
      ( "unknown record",
        "graphio 1\nn 2 m 0\nx 0 1\n",
        Some "line 3: unknown record type" );
      ( "range",
        "graphio 1\nn 2 m 1\ne 0 5\n",
        Some "line 3: edge 0 -> 5: vertex out of range [0, 2)" );
      ( "negative id",
        "graphio 1\nn 2 m 1\ne -1 1\n",
        Some "line 3: edge -1 -> 1: vertex out of range [0, 2)" );
      ( "self-loop",
        "graphio 1\nn 2 m 1\ne 1 1\n",
        Some "line 3: edge 1 -> 1: self-loop" );
      ( "duplicate",
        "graphio 1\nn 2 m 2\ne 0 1\ne 0 1\n",
        Some "line 4: duplicate edge 0 -> 1 (first on line 3)" );
      ( "cycle",
        "graphio 1\nn 3 m 3\ne 0 1\ne 1 2\ne 2 0\n",
        Some "graph has a cycle" );
      ( "count mismatch",
        "graphio 1\nn 2 m 3\ne 0 1\n",
        Some "edge count mismatch (declared 3, found 1)" );
    ]

let () =
  Alcotest.run "graphio_store"
    [
      ( "corpus",
        [
          Alcotest.test_case "truncated" `Quick test_truncated;
          Alcotest.test_case "bad magic" `Quick test_bad_magic;
          Alcotest.test_case "bad version" `Quick test_bad_version;
          Alcotest.test_case "header flips" `Quick test_header_flip;
          Alcotest.test_case "body flips" `Quick test_body_flip;
          Alcotest.test_case "checksum-valid structural damage" `Quick
            test_malformed_structure;
        ] );
      ( "faults",
        [
          Alcotest.test_case "torn and flipped writes fail closed" `Quick
            test_torn_write_fails_closed;
          Alcotest.test_case "failed write and rename leave nothing" `Quick
            test_failed_write_and_rename;
          Alcotest.test_case "injected read faults" `Quick
            test_injected_read_faults;
        ] );
      ( "convert",
        [
          Alcotest.test_case "byte-identical to Store.write" `Quick
            test_convert_matches_write;
          Alcotest.test_case "line-numbered errors" `Quick
            test_convert_line_errors;
        ] );
    ]
