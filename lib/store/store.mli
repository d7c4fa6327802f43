(** Binary CSR-on-disk graph storage.

    The text edgelist tops out far below the million-vertex target: parsing
    holds every line, every edge tuple and a duplicate-detection hashtable
    in memory at once.  This module stores a frozen {!Graphio_graph.Dag.t}
    as its successor CSR directly — int32 indices, little-endian, with a
    checksummed header in the style of the spectrum cache's [GIORTZ]
    records — so loading is one bounded verification pass plus an
    [Unix.map_file] of the index region into a [Bigarray] (no per-edge
    allocation at all).

    {2 Record layout (little-endian)}

    {v
     0  magic    "GIOCSR"            (6 bytes)
     6  version  0x00 0x01           (2 bytes)
     8  n            : int32
    12  m            : int32
    16  label_count  : int32
    20  header_crc   : int64  FNV-1a over bytes [0, 20)
    28  succ_ptr     : (n+1) x int32
        succ_idx     : m x int32     (each row strictly ascending)
        labels       : label_count x { vertex : int32; len : int32; bytes }
                       (ascending vertex order)
    end-8 body_crc   : int64  FNV-1a over bytes [28, end-8)
    v}

    The body starts at byte 28 — a multiple of 4 — so the header plus the
    index region map as one int32 [Bigarray.Array1].  Files are written to
    a temp name and renamed into place (atomic publish), and {e never
    trusted on read}: magic, version, both checksums, pointer monotonicity,
    index range, row sortedness and acyclicity are all verified before a
    single edge is served, and any violation raises a structured {!Error}
    (fail closed — there is no partial load).

    {2 Trust and fault injection}

    The read, write, rename and checksum paths are fault-injection sites
    ([store.file.read], [store.file.write], [store.file.rename],
    [store.checksum]; see {!Graphio_fault}), so the chaos battery can prove
    the fail-closed story end to end: a torn or bit-flipped file is always
    rejected with {!Checksum_mismatch}, never half-loaded. *)

type error =
  | Io_error of string  (** open/read/write failed before any validation *)
  | Truncated of { expected : int; actual : int }
      (** file shorter than the header (or the sizes the header declares) *)
  | Bad_magic  (** first 6 bytes are not ["GIOCSR"] *)
  | Bad_version of { found : int }
      (** recognized magic, unsupported format version *)
  | Checksum_mismatch of { region : string }
      (** ["header"] or ["body"]: stored FNV-1a disagrees with the bytes *)
  | Too_large of { n : int; m : int }
      (** int32 overflow guard: [n + 1] or [m] exceeds [Int32.max_int] *)
  | Malformed of string
      (** checksums pass but the structure is invalid: negative counts,
          non-monotone pointers, out-of-range or unsorted indices, a
          cycle, or an inconsistent label region *)

exception Error of error

val error_message : error -> string
(** One-line rendering, used verbatim in CLI errors ([graphio: ...]). *)

val magic : string
(** The 6-byte magic ["GIOCSR"] (version bytes excluded) — what
    {!is_store_file} sniffs. *)

val is_store_file : string -> bool
(** True iff the file starts with {!magic}.  Unreadable or short files are
    [false] (the caller will surface the real error through whichever
    loader it then picks). *)

type t
(** A loaded, fully verified store.  The index region stays backed by the
    mapped file; accessors read it in place. *)

val write_csr : string -> Graphio_graph.Csr32.t -> unit
(** The one writer of the record: streams it out in 64 KiB chunks with
    running checksums and publishes it atomically (temp file + rename).
    Rows must be strictly ascending and labels in ascending vertex order;
    the graph is written as given, not checked.  Raises {!Error}
    ([Too_large] on int32 overflow, [Io_error] on write failure). *)

val write : string -> Graphio_graph.Dag.t -> unit
(** {!write_csr} of a frozen in-memory graph. *)

val load : string -> t
(** Verify end to end and map.  Raises {!Error} on any defect. *)

val path : t -> string

val n_vertices : t -> int

val n_edges : t -> int

val out_degree : t -> int -> int

val iter_succ : t -> int -> (int -> unit) -> unit

val iter_edges : t -> (int -> int -> unit) -> unit
(** Iterate [(u, v)] in CSR order — identical to
    {!Graphio_graph.Dag.iter_edges} on {!to_dag}. *)

val max_out_degree : t -> int

val label : t -> int -> string option

val fingerprint : t -> int64
(** Equal to [Dag.fingerprint (to_dag t)] without materializing the graph
    — the store round-trips the solver's cache keys exactly. *)

val to_dag : t -> Graphio_graph.Dag.t
(** Materialize as an ordinary in-memory graph (already validated, so no
    re-verification). *)

val components : t -> int array
(** Weakly-connected component id per vertex, in
    {!Graphio_graph.Component.components} order (ids assigned by smallest
    member vertex) — computed by union-find over the mapped edges, without
    materializing the graph. *)

val component_count : t -> int

val component_dags : t -> (Graphio_graph.Dag.t * int array) array
(** Extract every component as its own in-memory graph plus the mapping
    from component-local ids back to store ids, in {!components} order.
    Per-component vertex order is ascending, so this matches
    {!Graphio_graph.Component.split} on {!to_dag} structurally (equal
    fingerprints per part) — the property the text-vs-binary bitwise
    differential rests on.  Total allocation is one in-memory copy of the
    graph, spread across the parts. *)
