(** 64-bit FNV-1a: the one hash behind {!Graphio_graph.Dag.fingerprint},
    the binary store's checksums, the spectrum cache's keys and record
    checksums, and the fault plans' per-site seeds.  Fast and
    well-spread, not cryptographic. *)

val offset : int64
(** The offset basis, [0xcbf29ce484222325]. *)

val step : int64 -> int64 -> int64
(** [step acc v] is [(acc lxor v) * 0x100000001b3] modulo [2^64]: one
    FNV-1a step.  Byte-wise hashing feeds it one byte per step;
    [Dag.fingerprint] feeds it whole 64-bit values. *)

val bytes : int64 -> Bytes.t -> int -> int -> int64
(** [bytes acc b off len] folds bytes [off .. off + len - 1] of [b] into
    [acc], one {!step} per byte. *)

val string : string -> int64
(** The FNV-1a-64 hash of a whole string, from {!offset}. *)
