open Graphio_graph
module Fnv1a = Graphio_obs.Fnv1a

type error =
  | Io_error of string
  | Truncated of { expected : int; actual : int }
  | Bad_magic
  | Bad_version of { found : int }
  | Checksum_mismatch of { region : string }
  | Too_large of { n : int; m : int }
  | Malformed of string

exception Error of error

let error_message = function
  | Io_error msg -> Printf.sprintf "store: I/O error: %s" msg
  | Truncated { expected; actual } ->
      Printf.sprintf "store: truncated file (need %d bytes, have %d)" expected
        actual
  | Bad_magic -> "store: not a graphio binary graph (bad magic)"
  | Bad_version { found } ->
      Printf.sprintf "store: unsupported format version %d (expected 1)" found
  | Checksum_mismatch { region } ->
      Printf.sprintf "store: %s checksum mismatch (corrupt file)" region
  | Too_large { n; m } ->
      Printf.sprintf
        "store: graph too large for int32 indices (n=%d, m=%d)" n m
  | Malformed msg -> Printf.sprintf "store: malformed file: %s" msg

let fail e = raise (Error e)

let magic = "GIOCSR"
let version = 1
let header_len = 28
let crc_len = 8

(* --------------------------- fault sites ----------------------------- *)

(* Same discipline as the spectrum cache (lib/cache/spectrum.ml): every
   disk interaction the fail-closed story depends on is injectable, and
   the invariant under any injected outcome is that a record that cannot
   be verified end-to-end is never served. *)
let f_read = Graphio_fault.site "store.file.read"
let f_write = Graphio_fault.site "store.file.write"
let f_rename = Graphio_fault.site "store.file.rename"
let f_checksum = Graphio_fault.site "store.checksum"

let c_loads = Graphio_obs.Metrics.counter "store.loads"
let c_writes = Graphio_obs.Metrics.counter "store.writes"
let c_errors = Graphio_obs.Metrics.counter "store.errors"

(* A loaded store is the CSR view of its mapped index region. *)
type t = Csr32.t

(* ------------------------------ sniffing ------------------------------ *)

let is_store_file file =
  match open_in_bin file with
  | exception Sys_error _ -> false
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match really_input_string ic (String.length magic) with
          | s -> s = magic
          | exception End_of_file -> false)

(* ------------------------------- write ------------------------------- *)

(* The one writer of the record: the header, the body in 64 KiB chunks
   folded into the running FNV-1a as they are flushed, the trailer, then
   an atomic temp+rename publish.  The write fault is drawn once, over the
   whole record: [Fail] models an error before any byte lands;
   [Torn]/[Flip] damage the bytes after they are checksummed and are
   deliberately published (the rename below still runs), because the
   on-disk checksums, not the writer, are what guarantee a corrupt record
   is never served. *)
let write_csr file (g : Csr32.t) =
  let { Csr32.n; m; ptr; idx; labels } = g in
  if not (Csr32.fits ~n ~m) then fail (Too_large { n; m });
  let total =
    Array.fold_left
      (fun acc (_, l) -> acc + 8 + String.length l)
      (header_len + (4 * (n + 1)) + (4 * m) + crc_len)
      labels
  in
  let fault = Graphio_fault.hit ~len:total f_write in
  (match fault with
  | Graphio_fault.Fail ->
      Graphio_obs.Metrics.incr c_errors;
      fail (Io_error "injected write failure")
  | Graphio_fault.Sleep s -> Unix.sleepf s
  | Graphio_fault.Pass | Graphio_fault.Torn _ | Graphio_fault.Flip _ -> ());
  let keep = match fault with Graphio_fault.Torn keep -> keep | _ -> total in
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" file (Unix.getpid ())
      (Domain.self () :> int)
  in
  let oc =
    match open_out_bin tmp with
    | oc -> oc
    | exception Sys_error msg ->
        Graphio_obs.Metrics.incr c_errors;
        fail (Io_error msg)
  in
  (* [emit b len] writes record bytes [!pos, !pos + len) *)
  let pos = ref 0 in
  let emit b len =
    (match fault with
    | Graphio_fault.Flip (off, mask) when off >= !pos && off < !pos + len ->
        let i = off - !pos in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask))
    | _ -> ());
    output oc b 0 (max 0 (min len (keep - !pos)));
    pos := !pos + len
  in
  let write_all () =
    let hdr = Bytes.create header_len in
    Bytes.blit_string magic 0 hdr 0 6;
    Bytes.set hdr 6 '\x00';
    Bytes.set hdr 7 (Char.chr version);
    Bytes.set_int32_le hdr 8 (Int32.of_int n);
    Bytes.set_int32_le hdr 12 (Int32.of_int m);
    Bytes.set_int32_le hdr 16 (Int32.of_int (Array.length labels));
    Bytes.set_int64_le hdr 20 (Fnv1a.bytes Fnv1a.offset hdr 0 20);
    emit hdr header_len;
    let crc = ref Fnv1a.offset and chunk = Bytes.create 65536 and filled = ref 0 in
    let flush () =
      crc := Fnv1a.bytes !crc chunk 0 !filled;
      emit chunk !filled;
      filled := 0
    in
    let put_byte c =
      if !filled = Bytes.length chunk then flush ();
      Bytes.set chunk !filled c;
      incr filled
    in
    let put_word w =
      if !filled + 4 > Bytes.length chunk then flush ();
      Bytes.set_int32_le chunk !filled w;
      filled := !filled + 4
    in
    for v = 0 to n do
      put_word ptr.{v}
    done;
    for k = 0 to m - 1 do
      put_word idx.{k}
    done;
    Array.iter
      (fun (v, l) ->
        put_word (Int32.of_int v);
        put_word (Int32.of_int (String.length l));
        String.iter put_byte l)
      labels;
    flush ();
    let tail = Bytes.create crc_len in
    Bytes.set_int64_le tail 0 !crc;
    emit tail crc_len;
    close_out oc
  in
  (* a failed write or publish must clean up the temp file rather than
     leak it next to the target *)
  let abandon msg =
    (try Sys.remove tmp with Sys_error _ -> ());
    Graphio_obs.Metrics.incr c_errors;
    fail (Io_error msg)
  in
  (match write_all () with
  | () -> ()
  | exception Sys_error msg ->
      close_out_noerr oc;
      abandon msg);
  (match
     (match Graphio_fault.hit f_rename with
     | Graphio_fault.Pass -> ()
     | Graphio_fault.Sleep s -> Unix.sleepf s
     | Graphio_fault.Fail | Graphio_fault.Torn _ | Graphio_fault.Flip _ ->
         raise (Sys_error "injected rename failure"));
     Sys.rename tmp file
   with
  | () -> ()
  | exception Sys_error msg -> abandon msg);
  Graphio_obs.Metrics.incr c_writes

let write file g = write_csr file (Csr32.of_dag g)

(* -------------------------------- load ------------------------------- *)

(* Verify the body checksum by streaming the file once in bounded chunks
   (the injected read faults land here: a torn read hashes a prefix, a
   flipped read hashes a corrupted byte — either way the stored checksum
   disagrees and the load fails closed). *)
let verify_body_crc ic ~size =
  let body_len = size - header_len - crc_len in
  let fault = Graphio_fault.hit ~len:body_len f_read in
  (match fault with
  | Graphio_fault.Fail ->
      Graphio_obs.Metrics.incr c_errors;
      fail (Io_error "injected read failure")
  | Graphio_fault.Sleep s -> Unix.sleepf s
  | _ -> ());
  let readable =
    match fault with Graphio_fault.Torn keep -> keep | _ -> body_len
  in
  let flip =
    match fault with Graphio_fault.Flip (off, mask) -> Some (off, mask) | _ -> None
  in
  seek_in ic header_len;
  let chunk = Bytes.create 65536 in
  let acc = ref Fnv1a.offset in
  let pos = ref 0 in
  (try
     while !pos < readable do
       let want = min (Bytes.length chunk) (readable - !pos) in
       really_input ic chunk 0 want;
       (match flip with
       | Some (off, mask) when off >= !pos && off < !pos + want ->
           let i = off - !pos in
           Bytes.set chunk i
             (Char.chr (Char.code (Bytes.get chunk i) lxor mask))
       | _ -> ());
       acc := Fnv1a.bytes !acc chunk 0 want;
       pos := !pos + want
     done
   with End_of_file | Sys_error _ ->
     Graphio_obs.Metrics.incr c_errors;
     fail (Io_error "short read while verifying"));
  seek_in ic (size - crc_len);
  let tail = Bytes.create crc_len in
  (try really_input ic tail 0 crc_len
   with End_of_file | Sys_error _ ->
     Graphio_obs.Metrics.incr c_errors;
     fail (Io_error "short read while verifying"));
  let stored = Bytes.get_int64_le tail 0 in
  if not (Int64.equal stored !acc) then begin
    Graphio_obs.Metrics.incr c_errors;
    fail (Checksum_mismatch { region = "body" })
  end;
  if Graphio_fault.hit f_checksum <> Graphio_fault.Pass then begin
    (* injected checksum rejection: the record verifies but is treated as
       untrustworthy, exercising the fail-closed path *)
    Graphio_obs.Metrics.incr c_errors;
    fail (Checksum_mismatch { region = "body" })
  end

(* Map (or, on big-endian hosts and mmap failure, read-and-decode) the
   header + index region as int32 words.  The byte layout is
   little-endian, so the zero-copy map is only valid on little-endian
   hosts; the fallback decodes explicitly and works everywhere. *)
let map_words file ~total_words =
  let mapped =
    if Sys.big_endian then None
    else
      match Unix.openfile file [ Unix.O_RDONLY ] 0 with
      | exception Unix.Unix_error _ -> None
      | fd -> (
          match
            Unix.map_file fd Bigarray.int32 Bigarray.c_layout false
              [| total_words |]
          with
          | ga ->
              Unix.close fd;
              Some (Bigarray.array1_of_genarray ga)
          | exception _ ->
              Unix.close fd;
              None)
  in
  match mapped with
  | Some w -> w
  | None -> (
      match open_in_bin file with
      | exception Sys_error msg -> fail (Io_error msg)
      | ic ->
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              let w =
                Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout
                  total_words
              in
              let bytes = Bytes.create (4 * total_words) in
              (try really_input ic bytes 0 (4 * total_words)
               with End_of_file | Sys_error _ ->
                 fail (Io_error "short read while loading"));
              for i = 0 to total_words - 1 do
                w.{i} <- Bytes.get_int32_le bytes (4 * i)
              done;
              w))

(* Structural validation: the checksums prove the bytes are the writer's,
   this proves the writer's claims are a graph. *)
let validate t =
  match Csr32.check t with
  | None -> ()
  | Some d -> fail (Malformed (Csr32.describe d))

let parse_labels ic ~n ~label_count ~lab_off ~lab_len =
  seek_in ic lab_off;
  let bytes = Bytes.create lab_len in
  (try really_input ic bytes 0 lab_len
   with End_of_file | Sys_error _ -> fail (Io_error "short read while loading"));
  let labels = Array.make label_count (0, "") in
  let off = ref 0 in
  let word () =
    if !off + 4 > lab_len then fail (Malformed "label region truncated");
    let w = Int32.to_int (Bytes.get_int32_le bytes !off) in
    off := !off + 4;
    w
  in
  let prev = ref (-1) in
  for i = 0 to label_count - 1 do
    let v = word () in
    let len = word () in
    if v < 0 || v >= n then fail (Malformed "label vertex out of range");
    if v <= !prev then fail (Malformed "labels not ascending");
    prev := v;
    if len < 0 || !off + len > lab_len then
      fail (Malformed "label region truncated");
    labels.(i) <- (v, Bytes.sub_string bytes !off len);
    off := !off + len
  done;
  if !off <> lab_len then fail (Malformed "trailing bytes in label region");
  labels

let load file =
  let ic =
    match open_in_bin file with
    | exception Sys_error msg ->
        Graphio_obs.Metrics.incr c_errors;
        fail (Io_error msg)
    | ic -> ic
  in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let size = in_channel_length ic in
      if size < header_len then fail (Truncated { expected = header_len; actual = size });
      let hdr = Bytes.create header_len in
      (try really_input ic hdr 0 header_len
       with End_of_file | Sys_error _ -> fail (Io_error "short read while loading"));
      if Bytes.sub_string hdr 0 6 <> magic then fail Bad_magic;
      let found =
        (Char.code (Bytes.get hdr 6) lsl 8) lor Char.code (Bytes.get hdr 7)
      in
      if found <> version then fail (Bad_version { found });
      if
        not
          (Int64.equal
             (Bytes.get_int64_le hdr 20)
             (Fnv1a.bytes Fnv1a.offset hdr 0 20))
      then begin
        Graphio_obs.Metrics.incr c_errors;
        fail (Checksum_mismatch { region = "header" })
      end;
      let n = Int32.to_int (Bytes.get_int32_le hdr 8) in
      let m = Int32.to_int (Bytes.get_int32_le hdr 12) in
      let label_count = Int32.to_int (Bytes.get_int32_le hdr 16) in
      if n < 0 || m < 0 || label_count < 0 then
        fail (Malformed "negative counts in header");
      if label_count > n then fail (Malformed "more labels than vertices");
      let idx_end = header_len + (4 * (n + 1)) + (4 * m) in
      let min_size = idx_end + (8 * label_count) + crc_len in
      if size < min_size then
        fail (Truncated { expected = min_size; actual = size });
      verify_body_crc ic ~size;
      let labels =
        parse_labels ic ~n ~label_count ~lab_off:idx_end
          ~lab_len:(size - idx_end - crc_len)
      in
      let words = map_words file ~total_words:(7 + (n + 1) + m) in
      (* the index region as a CSR, viewed in place *)
      let t =
        {
          Csr32.n;
          m;
          ptr = Bigarray.Array1.sub words 7 (n + 1);
          idx = Bigarray.Array1.sub words (8 + n) m;
          labels;
        }
      in
      (match validate t with
      | () -> ()
      | exception Error e ->
          Graphio_obs.Metrics.incr c_errors;
          fail e);
      Graphio_obs.Metrics.incr c_loads;
      t)

(* ---------------------------- graph views ----------------------------- *)

let to_dag = Csr32.to_dag

let component_dags = Component.split_csr
