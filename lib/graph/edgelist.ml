let hex = "0123456789ABCDEF"

let percent_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' | '*' | '+' | '(' | ')'
      | '[' | ']' | ',' | '^' | '=' | '/' | '<' | '>' | '@' | ':' ->
          Buffer.add_char buf c
      | c ->
          Buffer.add_char buf '%';
          Buffer.add_char buf hex.[Char.code c lsr 4];
          Buffer.add_char buf hex.[Char.code c land 0xf])
    s;
  Buffer.contents buf

let percent_unescape s =
  let buf = Buffer.create (String.length s) in
  let i = ref 0 in
  let len = String.length s in
  let hex_val c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> failwith "Edgelist: bad percent escape"
  in
  while !i < len do
    (match s.[!i] with
    | '%' ->
        if !i + 2 >= len then failwith "Edgelist: truncated percent escape";
        Buffer.add_char buf
          (Char.chr ((hex_val s.[!i + 1] lsl 4) lor hex_val s.[!i + 2]));
        i := !i + 2
    | c -> Buffer.add_char buf c);
    incr i
  done;
  Buffer.contents buf

let to_string g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "graphio 1\n";
  Buffer.add_string buf
    (Printf.sprintf "n %d m %d\n" (Dag.n_vertices g) (Dag.n_edges g));
  for v = 0 to Dag.n_vertices g - 1 do
    match Dag.label g v with
    | Some l -> Buffer.add_string buf (Printf.sprintf "l %d %s\n" v (percent_escape l))
    | None -> ()
  done;
  Dag.iter_edges g (fun u v ->
      Buffer.add_string buf (Printf.sprintf "e %d %d\n" u v));
  Buffer.contents buf

(* ------------------------------ reader ------------------------------- *)

(* The hot record, ["e U V"]: blanks (spaces or tabs) before each id,
   decimal ids with an optional ['-'], trailing text ignored.  [None] for
   anything else, including an id whose magnitude exceeds [max_int]. *)
let parse_edge line =
  let len = String.length line in
  let pos = ref 1 in
  let skip_blanks () =
    while !pos < len && (line.[!pos] = ' ' || line.[!pos] = '\t') do
      incr pos
    done
  in
  let id () =
    let neg = !pos < len && line.[!pos] = '-' in
    if neg then incr pos;
    let start = !pos and v = ref 0 in
    while !pos < len && line.[!pos] >= '0' && line.[!pos] <= '9' do
      v := (!v * 10) + (Char.code line.[!pos] - Char.code '0');
      incr pos
    done;
    let digits = !pos - start in
    if digits = 0 then raise Exit;
    (* 18 digits cannot pass [max_int]; a longer id is parsed again,
       with the overflow check *)
    let v =
      if digits <= 18 then !v
      else
        match int_of_string_opt (String.sub line start digits) with
        | Some v -> v
        | None -> raise Exit
    in
    if neg then -v else v
  in
  match
    skip_blanks ();
    let u = id () in
    if !pos >= len || (line.[!pos] <> ' ' && line.[!pos] <> '\t') then
      raise Exit;
    skip_blanks ();
    (u, id ())
  with
  | uv -> Some uv
  | exception Exit -> None

(* Two streaming passes over [lines], which replays the input's raw lines
   on every call: pass 1 validates every record, counts out-degrees into
   int32 scratch and keeps the (sparse) labels; pass 2 scatter-fills the
   successor ids.  Peak memory is 16n + 4m bytes of int32 scratch plus
   the labels and one line, independent of the text's size.  Rows are
   then sorted in place and checked by {!Csr32.check}; a repeated edge
   costs one more pass, on the error path only, to name both of its
   lines. *)
let read ?too_large ~prefix lines =
  let fail msg = failwith (prefix ^ msg) in
  let fail_at lineno msg = fail (Printf.sprintf "line %d: %s" lineno msg) in
  let scan ?(on_sizes = fun _ _ _ -> ()) ?on_label on_edge =
    let lineno = ref 0 and saw_header = ref false and sizes = ref None in
    let edges_seen = ref 0 in
    lines (fun raw ->
        incr lineno;
        let line = String.trim raw and lineno = !lineno in
        if line = "" || line.[0] = '#' then ()
        else if not !saw_header then begin
          if line <> "graphio 1" then
            fail_at lineno "expected header 'graphio 1'";
          saw_header := true
        end
        else
          match !sizes with
          | None -> (
              match Scanf.sscanf line "n %d m %d" (fun n m -> (n, m)) with
              | exception (Scanf.Scan_failure _ | End_of_file) ->
                  fail_at lineno "expected 'n <vertices> m <edges>'"
              | n, m ->
                  if n < 0 || m < 0 then fail_at lineno "negative counts";
                  sizes := Some (n, m);
                  on_sizes lineno n m)
          | Some (n, _) -> (
              match line.[0] with
              | 'e' -> (
                  match parse_edge line with
                  | None -> fail_at lineno "malformed edge"
                  | Some (u, v) ->
                      if u < 0 || u >= n || v < 0 || v >= n then
                        fail_at lineno
                          (Printf.sprintf
                             "edge %d -> %d: vertex out of range [0, %d)" u v n);
                      if u = v then
                        fail_at lineno
                          (Printf.sprintf "edge %d -> %d: self-loop" u v);
                      incr edges_seen;
                      on_edge lineno u v)
              | 'l' -> (
                  match on_label with
                  | None -> ()
                  | Some on_label -> (
                      match Scanf.sscanf line "l %d %s" (fun v l -> (v, l)) with
                      | exception (Scanf.Scan_failure _ | End_of_file) ->
                          fail_at lineno "malformed label"
                      | v, l -> (
                          if v < 0 || v >= n then
                            fail_at lineno "label vertex out of range";
                          match percent_unescape l with
                          | l -> on_label v l
                          | exception Failure _ ->
                              fail_at lineno "malformed label")))
              | _ -> fail_at lineno "unknown record type"));
    if not !saw_header then fail "empty input";
    match !sizes with
    | None -> fail "missing size line"
    | Some (n, m) -> (n, m, !edges_seen)
  in
  (* pass 1: sizes, out-degrees, labels *)
  let labels = Hashtbl.create 16 and deg = ref (Csr32.create 0) in
  let n, m, edges_seen =
    scan
      ~on_sizes:(fun lineno n m ->
        if not (Csr32.fits ~n ~m) then begin
          match too_large with
          | Some exn -> raise (exn n m)
          | None ->
              fail_at lineno
                (Printf.sprintf
                   "graph too large for int32 indices (n=%d, m=%d)" n m)
        end;
        deg := Csr32.create (n + 1))
      ~on_label:(Hashtbl.replace labels)
      (fun _ u _ ->
        let d = !deg in
        d.{u} <- Int32.succ d.{u})
  in
  if edges_seen <> m then
    fail
      (Printf.sprintf "edge count mismatch (declared %d, found %d)" m
         edges_seen);
  (* pass 2: prefix-sum the degrees into row pointers, then scatter-fill
     (reusing [deg] as the fill cursor) *)
  let deg = !deg and ptr = Csr32.create (n + 1) and idx = Csr32.create m in
  for v = 0 to n - 1 do
    ptr.{v + 1} <- Int32.add ptr.{v} deg.{v};
    deg.{v} <- ptr.{v}
  done;
  ignore
    (scan (fun _ u v ->
         idx.{Int32.to_int deg.{u}} <- Int32.of_int v;
         deg.{u} <- Int32.succ deg.{u}));
  for v = 0 to n - 1 do
    let lo = Int32.to_int ptr.{v} and hi = Int32.to_int ptr.{v + 1} in
    let sorted = ref true in
    for k = lo + 1 to hi - 1 do
      if idx.{k - 1} > idx.{k} then sorted := false
    done;
    if not !sorted then begin
      let row = Array.init (hi - lo) (fun k -> idx.{lo + k}) in
      Array.sort Int32.compare row;
      Array.iteri (fun k w -> idx.{lo + k} <- w) row
    end
  done;
  let labels = Array.of_seq (Hashtbl.to_seq labels) in
  (* merge sort: a million labels sort measurably faster than with
     [Array.sort]'s heap sort *)
  Array.stable_sort (fun (a, _) (b, _) -> compare a b) labels;
  let csr = { Csr32.n; m; ptr; idx; labels } in
  match Csr32.check csr with
  | None -> csr
  | Some (Csr32.Order (u, v)) ->
      (* rows are sorted, so only a repeated edge breaks their order *)
      let first = ref 0 and second = ref 0 in
      ignore
        (scan (fun lineno eu ev ->
             if eu = u && ev = v && !second = 0 then
               if !first = 0 then first := lineno else second := lineno));
      fail_at !second
        (Printf.sprintf "duplicate edge %d -> %d (first on line %d)" u v !first)
  | Some d -> fail (Csr32.describe d)

let file_lines path f =
  In_channel.with_open_bin path (fun ic ->
      let rec go () =
        match input_line ic with
        | line ->
            f line;
            go ()
        | exception End_of_file -> ()
      in
      go ())

let csr_of_file ?too_large ~prefix path =
  read ?too_large ~prefix (file_lines path)

let of_string text =
  Csr32.to_dag
    (read ~prefix:"Edgelist: " (fun f ->
         List.iter f (String.split_on_char '\n' text)))

let to_file path g =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string g))

let of_file path =
  Csr32.to_dag (csr_of_file ~prefix:(path ^ ": Edgelist: ") path)
