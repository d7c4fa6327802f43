type key = {
  fingerprint : int64;
  method_tag : char;
  h : int;
  params : int64;
}

type entry = { eigenvalues : float array; dense : bool }

(* Warm-start records deliberately drop [h] from the key: the whole point
   is that a solve at one [h] can seed a solve at another.  One record per
   (fingerprint, method, params) triple, holding the locked Ritz vectors
   of the largest-h solve seen (keep-max-h: a bigger donor block is
   strictly more useful — the consumer truncates or pads as needed). *)
type ritz_key = { fingerprint : int64; method_tag : char; params : int64 }
type ritz = { n : int; h : int; vectors : float array array }

type t = {
  mutex : Mutex.t;
  mem : (key, entry) Lru.t;
  ritz_mem : (ritz_key, ritz) Lru.t;
  dir : string option;
  disabled : bool;
}

(* ------------------------------ metrics ------------------------------ *)

let c_hits = Graphio_obs.Metrics.counter "cache.hits"
let c_misses = Graphio_obs.Metrics.counter "cache.misses"
let c_evictions = Graphio_obs.Metrics.counter "cache.evictions"
let c_disk_hits = Graphio_obs.Metrics.counter "cache.disk_hits"
let c_disk_misses = Graphio_obs.Metrics.counter "cache.disk_misses"
let c_disk_errors = Graphio_obs.Metrics.counter "cache.disk_errors"
let c_disk_writes = Graphio_obs.Metrics.counter "cache.disk_writes"

(* --------------------------- fault sites ----------------------------- *)

(* Chaos battery hooks (inert without a fault plan, see Graphio_fault):
   every disk interaction the cache's correctness story depends on is
   injectable — failed/torn/corrupted reads and writes, failed renames,
   and checksum rejection.  The invariant under any of them: a record
   that cannot be trusted end-to-end is never served; it is evicted and
   recomputed. *)
let f_disk_read = Graphio_fault.site "cache.disk.read"
let f_disk_write = Graphio_fault.site "cache.disk.write"
let f_disk_rename = Graphio_fault.site "cache.disk.rename"
let f_checksum = Graphio_fault.site "cache.checksum"

(* --------------------------- key utilities --------------------------- *)

(* FNV-1a (Graphio_obs.Fnv1a, the hash Dag.fingerprint uses): over a
   record's bytes for its checksum, and over each parameter's eight
   little-endian bytes for the parameter digest. *)
let fnv1a_bytes bytes len =
  Graphio_obs.Fnv1a.bytes Graphio_obs.Fnv1a.offset bytes 0 len

let fnv1a_int64 acc v =
  let acc = ref acc in
  for shift = 0 to 7 do
    acc :=
      Graphio_obs.Fnv1a.step !acc
        (Int64.logand (Int64.shift_right_logical v (shift * 8)) 0xffL)
  done;
  !acc

let params_digest ~dense_threshold ~tol ~seed ~filter_degree =
  let acc = Graphio_obs.Fnv1a.offset in
  let acc =
    fnv1a_int64 acc
      (match dense_threshold with
      | None -> -1L
      | Some d -> Int64.of_int d)
  in
  let acc =
    fnv1a_int64 acc
      (match tol with None -> -1L | Some t -> Int64.bits_of_float t)
  in
  let acc =
    fnv1a_int64 acc (match seed with None -> -1L | Some s -> Int64.of_int s)
  in
  fnv1a_int64 acc
    (match filter_degree with None -> -1L | Some d -> Int64.of_int d)

(* ---------------------------- disk format ---------------------------- *)

(* Record layout (little-endian; version baked into the magic):
     0  magic   "GIOSPC\x00\x01"
     8  fingerprint : int64
    16  params      : int64
    24  method_tag  : byte
    25  dense       : byte (0 | 1)
    26  h           : int32
    30  count       : int32
    34  count * 8 bytes of IEEE-754 bit patterns
    end checksum    : int64 (FNV-1a over bytes [0, end)) *)
let magic = "GIOSPC\x00\x01"
let header_len = 34

let encode (key : key) entry =
  let count = Array.length entry.eigenvalues in
  let len = header_len + (8 * count) + 8 in
  let b = Bytes.create len in
  Bytes.blit_string magic 0 b 0 8;
  Bytes.set_int64_le b 8 key.fingerprint;
  Bytes.set_int64_le b 16 key.params;
  Bytes.set b 24 key.method_tag;
  Bytes.set b 25 (if entry.dense then '\x01' else '\x00');
  Bytes.set_int32_le b 26 (Int32.of_int key.h);
  Bytes.set_int32_le b 30 (Int32.of_int count);
  Array.iteri
    (fun i v ->
      Bytes.set_int64_le b (header_len + (8 * i)) (Int64.bits_of_float v))
    entry.eigenvalues;
  Bytes.set_int64_le b (len - 8) (fnv1a_bytes b (len - 8));
  b

(* Returns [None] for any record that cannot be trusted end-to-end:
   truncated, wrong magic/version, checksum mismatch, or a key that does
   not match the query (a renamed or stale file). *)
let decode (key : key) b =
  let len = Bytes.length b in
  if len < header_len + 8 then None
  else if Bytes.sub_string b 0 8 <> magic then None
  else
    let stored_sum = Bytes.get_int64_le b (len - 8) in
    if not (Int64.equal stored_sum (fnv1a_bytes b (len - 8))) then None
    else if Graphio_fault.hit f_checksum <> Graphio_fault.Pass then
      (* injected checksum rejection: the record verifies but is treated
         as untrustworthy, exercising the evict-and-recompute path *)
      None
    else
      let count = Int32.to_int (Bytes.get_int32_le b 30) in
      if count < 0 || len <> header_len + (8 * count) + 8 then None
      else if
        (not (Int64.equal (Bytes.get_int64_le b 8) key.fingerprint))
        || (not (Int64.equal (Bytes.get_int64_le b 16) key.params))
        || Bytes.get b 24 <> key.method_tag
        || Int32.to_int (Bytes.get_int32_le b 26) <> key.h
      then None
      else
        let dense = Bytes.get b 25 = '\x01' in
        let eigenvalues =
          Array.init count (fun i ->
              Int64.float_of_bits (Bytes.get_int64_le b (header_len + (8 * i))))
        in
        Some { eigenvalues; dense }

let file_of_key ~dir (key : key) =
  Filename.concat dir
    (Printf.sprintf "spec-%016Lx-%c-%d-%016Lx.bin" key.fingerprint
       key.method_tag key.h key.params)

(* Ritz (warm-start) record layout — same discipline as spectrum records
   (versioned magic, embedded key, trailing FNV-1a checksum, temp+rename
   publish), but keyed without [h]:
     0  magic   "GIORTZ\x00\x01"
     8  fingerprint : int64
    16  params      : int64
    24  method_tag  : byte
    25  h           : int32  (block size stored, data not key)
    29  n           : int32  (vector length)
    33  count       : int32  (number of vectors; = h today)
    37  count * n * 8 bytes of IEEE-754 bit patterns, vector-major
    end checksum    : int64 *)
let ritz_magic = "GIORTZ\x00\x01"
let ritz_header_len = 37

let encode_ritz (key : ritz_key) (r : ritz) =
  let count = Array.length r.vectors in
  let len = ritz_header_len + (8 * count * r.n) + 8 in
  let b = Bytes.create len in
  Bytes.blit_string ritz_magic 0 b 0 8;
  Bytes.set_int64_le b 8 key.fingerprint;
  Bytes.set_int64_le b 16 key.params;
  Bytes.set b 24 key.method_tag;
  Bytes.set_int32_le b 25 (Int32.of_int r.h);
  Bytes.set_int32_le b 29 (Int32.of_int r.n);
  Bytes.set_int32_le b 33 (Int32.of_int count);
  Array.iteri
    (fun j v ->
      let base = ritz_header_len + (8 * j * r.n) in
      Array.iteri
        (fun i x -> Bytes.set_int64_le b (base + (8 * i)) (Int64.bits_of_float x))
        v)
    r.vectors;
  Bytes.set_int64_le b (len - 8) (fnv1a_bytes b (len - 8));
  b

let decode_ritz (key : ritz_key) b =
  let len = Bytes.length b in
  if len < ritz_header_len + 8 then None
  else if Bytes.sub_string b 0 8 <> ritz_magic then None
  else
    let stored_sum = Bytes.get_int64_le b (len - 8) in
    if not (Int64.equal stored_sum (fnv1a_bytes b (len - 8))) then None
    else if Graphio_fault.hit f_checksum <> Graphio_fault.Pass then None
    else
      let h = Int32.to_int (Bytes.get_int32_le b 25) in
      let n = Int32.to_int (Bytes.get_int32_le b 29) in
      let count = Int32.to_int (Bytes.get_int32_le b 33) in
      if count < 0 || n < 0 || len <> ritz_header_len + (8 * count * n) + 8 then
        None
      else if
        (not (Int64.equal (Bytes.get_int64_le b 8) key.fingerprint))
        || (not (Int64.equal (Bytes.get_int64_le b 16) key.params))
        || Bytes.get b 24 <> key.method_tag
      then None
      else
        let vectors =
          Array.init count (fun j ->
              let base = ritz_header_len + (8 * j * n) in
              Array.init n (fun i ->
                  Int64.float_of_bits (Bytes.get_int64_le b (base + (8 * i)))))
        in
        Some { n; h; vectors }

let file_of_ritz_key ~dir (key : ritz_key) =
  Filename.concat dir
    (Printf.sprintf "ritz-%016Lx-%c-%016Lx.bin" key.fingerprint key.method_tag
       key.params)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic -> (
      let bytes =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            match really_input_string ic (in_channel_length ic) with
            | s -> Some (Bytes.unsafe_of_string s)
            | exception (End_of_file | Sys_error _) -> None)
      in
      match bytes with
      | None -> None
      | Some b -> (
          (* injectable read path: a failed, torn, or bit-flipped read must
             never propagate past [decode]'s end-to-end checks *)
          match Graphio_fault.hit ~len:(Bytes.length b) f_disk_read with
          | Graphio_fault.Pass -> Some b
          | Graphio_fault.Fail -> None
          | Graphio_fault.Torn keep -> Some (Bytes.sub b 0 keep)
          | Graphio_fault.Flip (off, mask) ->
              let b = Bytes.copy b in
              Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor mask));
              Some b
          | Graphio_fault.Sleep s ->
              Unix.sleepf s;
              Some b))

(* Atomic publish: temp file + rename, so a concurrent reader never sees a
   partial record (it sees the old file or the new one). *)
let write_file path b =
  (* Injectable write path.  [Fail] models open/write errors before any
     byte lands; [Torn]/[Flip] model a crash mid-write or silent media
     corruption — the damaged record is deliberately PUBLISHED (the
     rename below still runs) because the on-disk checksum, not the
     writer, is what guarantees a corrupt record is never served. *)
  let payload =
    match Graphio_fault.hit ~len:(Bytes.length b) f_disk_write with
    | Graphio_fault.Pass -> Some b
    | Graphio_fault.Fail -> None
    | Graphio_fault.Torn keep -> Some (Bytes.sub b 0 keep)
    | Graphio_fault.Flip (off, mask) ->
        let b = Bytes.copy b in
        Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor mask));
        Some b
    | Graphio_fault.Sleep s ->
        Unix.sleepf s;
        Some b
  in
  match payload with
  | None -> false
  | Some b -> (
      let tmp =
        Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ()) (Domain.self () :> int)
      in
      match open_out_bin tmp with
      | exception Sys_error _ -> false
      | oc -> (
          let written =
            Fun.protect
              ~finally:(fun () -> close_out_noerr oc)
              (fun () ->
                match output_bytes oc b with
                | () -> true
                | exception Sys_error _ -> false)
          in
          if not written then begin
            (try Sys.remove tmp with Sys_error _ -> ());
            false
          end
          else
            (* injectable rename: a failed publish must clean up the temp
               file — a leaked temp would accumulate forever in the cache
               directory (asserted by the chaos battery) *)
            match
              (match Graphio_fault.hit f_disk_rename with
              | Graphio_fault.Pass -> ()
              | Graphio_fault.Sleep s -> Unix.sleepf s
              | Graphio_fault.Fail | Graphio_fault.Torn _ | Graphio_fault.Flip _ ->
                  raise (Sys_error "injected rename failure"));
              Sys.rename tmp path
            with
            | () -> true
            | exception Sys_error _ ->
                (try Sys.remove tmp with Sys_error _ -> ());
                false))

(* ----------------------------- lifecycle ----------------------------- *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    | Unix.Unix_error _ -> ()
  end

let create ?(capacity = 128) ?dir () =
  Option.iter mkdir_p dir;
  {
    mutex = Mutex.create ();
    mem =
      Lru.create ~capacity
        ~on_evict:(fun _ _ -> Graphio_obs.Metrics.incr c_evictions)
        ();
    (* Ritz blocks weigh h*n floats each, so the memory tier stays small
       relative to the spectrum tier; the disk tier holds the rest. *)
    ritz_mem = Lru.create ~capacity:(max 2 (capacity / 16)) ();
    dir;
    disabled = false;
  }

let disabled =
  {
    mutex = Mutex.create ();
    mem = Lru.create ~capacity:0 ();
    ritz_mem = Lru.create ~capacity:0 ();
    dir = None;
    disabled = true;
  }

let ambient_cache =
  lazy
    (match Sys.getenv_opt "GRAPHIO_CACHE_DIR" with
    | None | Some "" -> None
    | Some dir ->
        let capacity =
          match Sys.getenv_opt "GRAPHIO_CACHE_CAP" with
          | Some s -> ( match int_of_string_opt s with Some c when c >= 0 -> c | _ -> 128)
          | None -> 128
        in
        Some (create ~capacity ~dir ()))

let ambient () = Lazy.force ambient_cache

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let disk_find t key =
  match t.dir with
  | None -> None
  | Some dir -> (
      let path = file_of_key ~dir key in
      if not (Sys.file_exists path) then begin
        Graphio_obs.Metrics.incr c_disk_misses;
        None
      end
      else
        match read_file path with
        | None ->
            Graphio_obs.Metrics.incr c_disk_errors;
            None
        | Some bytes -> (
            match decode key bytes with
            | Some entry ->
                Graphio_obs.Metrics.incr c_disk_hits;
                Some entry
            | None ->
                (* corrupt or stale: never trusted, evicted, recomputed *)
                Graphio_obs.Metrics.incr c_disk_errors;
                (try Sys.remove path with Sys_error _ -> ());
                None))

(* Debug-level cache events carry the key fingerprint so a request's
   cache interactions line up with its solver.spectrum event in the log. *)
let log_lookup ~tier (key : key) =
  if Graphio_obs.Log.enabled Graphio_obs.Log.Debug then
    Graphio_obs.Log.emit ~level:Graphio_obs.Log.Debug "cache.lookup"
      [
        ( "fingerprint",
          Graphio_obs.Jsonx.String (Printf.sprintf "%016Lx" key.fingerprint) );
        ("tier", Graphio_obs.Jsonx.String tier);
      ]

let find t key =
  if t.disabled then None
  else
    locked t (fun () ->
        match Lru.find t.mem key with
        | Some entry ->
            Graphio_obs.Metrics.incr c_hits;
            log_lookup ~tier:"mem" key;
            Some entry
        | None -> (
            match disk_find t key with
            | Some entry ->
                Graphio_obs.Metrics.incr c_hits;
                log_lookup ~tier:"disk" key;
                Lru.add t.mem key entry;
                Some entry
            | None ->
                Graphio_obs.Metrics.incr c_misses;
                log_lookup ~tier:"miss" key;
                None))

let add t key entry =
  if not t.disabled then
    locked t (fun () ->
        Lru.add t.mem key entry;
        match t.dir with
        | None -> ()
        | Some dir ->
            if write_file (file_of_key ~dir key) (encode key entry) then begin
              Graphio_obs.Metrics.incr c_disk_writes;
              log_lookup ~tier:"disk_write" key
            end
            else begin
              Graphio_obs.Metrics.incr c_disk_errors;
              Graphio_obs.Log.emit ~level:Graphio_obs.Log.Warn
                "cache.disk_write_error"
                [
                  ( "fingerprint",
                    Graphio_obs.Jsonx.String
                      (Printf.sprintf "%016Lx" key.fingerprint) );
                ]
            end)

(* ------------------------- warm-start records ------------------------- *)

let c_ritz_hits = Graphio_obs.Metrics.counter "cache.ritz_hits"
let c_ritz_misses = Graphio_obs.Metrics.counter "cache.ritz_misses"
let c_ritz_writes = Graphio_obs.Metrics.counter "cache.ritz_writes"

let disk_find_ritz t key =
  match t.dir with
  | None -> None
  | Some dir -> (
      let path = file_of_ritz_key ~dir key in
      if not (Sys.file_exists path) then None
      else
        match read_file path with
        | None ->
            Graphio_obs.Metrics.incr c_disk_errors;
            None
        | Some bytes -> (
            match decode_ritz key bytes with
            | Some r -> Some r
            | None ->
                (* same trust policy as spectrum records: corrupt or stale
                   is evicted and recomputed, never served *)
                Graphio_obs.Metrics.incr c_disk_errors;
                (try Sys.remove path with Sys_error _ -> ());
                None))

let find_ritz t key =
  if t.disabled then None
  else
    locked t (fun () ->
        match Lru.find t.ritz_mem key with
        | Some r ->
            Graphio_obs.Metrics.incr c_ritz_hits;
            Some r
        | None -> (
            match disk_find_ritz t key with
            | Some r ->
                Graphio_obs.Metrics.incr c_ritz_hits;
                Lru.add t.ritz_mem key r;
                Some r
            | None ->
                Graphio_obs.Metrics.incr c_ritz_misses;
                None))

let add_ritz t key r =
  if not t.disabled then
    locked t (fun () ->
        (* keep-max-h: only replace a record when the donor block grew.
           The disk tier is consulted so a fresh process never clobbers a
           larger record left by an earlier run. *)
        let existing =
          match Lru.find t.ritz_mem key with
          | Some _ as e -> e
          | None -> disk_find_ritz t key
        in
        let keep =
          match existing with
          | Some ex -> ex.n <> r.n || r.h > ex.h
          | None -> true
        in
        if keep then begin
          Lru.add t.ritz_mem key r;
          match t.dir with
          | None -> ()
          | Some dir ->
              if write_file (file_of_ritz_key ~dir key) (encode_ritz key r)
              then Graphio_obs.Metrics.incr c_ritz_writes
              else Graphio_obs.Metrics.incr c_disk_errors
        end)

let length t = locked t (fun () -> Lru.length t.mem)
let drop_memory t = locked t (fun () -> Lru.clear t.mem)
let capacity t = Lru.capacity t.mem
let dir t = t.dir
