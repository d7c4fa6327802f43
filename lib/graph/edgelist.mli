(** Plain-text serialization of computation graphs.

    Format (line oriented, [#]-comments allowed):
    {v
    graphio 1
    n <vertices> m <edges>
    [l <vertex> <label>]*
    [e <src> <dst>]*
    v}
    Vertex labels are optional and URL-percent-escaped so they may contain
    spaces.

    One reader serves {!of_string}, {!of_file} and the binary store's
    converter.  Lines are trimmed; blank and [#] lines are skipped.  In
    [e] and [l] records, spaces or tabs separate the fields, each id is
    decimal with an optional leading [-] (no [+], no [_]), and an id
    beyond [max_int] makes the record malformed.  An [e] record's first
    id and an [l] record's id must end at a blank (or, for [l], at the
    end of the line); text after an [e] record's second id is ignored.
    An [l] record's label runs to the next blank, is empty when the line
    ends after the id, and text after it is ignored.  The header and size
    lines are read with [Scanf] (["n %d m %d"]).  The reader checks
    counts, ranges, self-loops, duplicate edges and acyclicity, and every
    message names its line where there is one. *)

val percent_escape : string -> string
(** Escape spaces, [%], and control bytes as [%XX] — how labels are
    encoded on [l] lines. *)

val percent_unescape : string -> string

val to_string : Dag.t -> string

val of_string : string -> Dag.t
(** Raises [Failure ("Edgelist: " ^ msg)] on malformed input, [msg]
    starting [line N: ] where a line is at fault — including out-of-range
    endpoints, self-loops and duplicate edges (the message names both
    offending lines); a cycle is reported without a line. *)

val to_file : string -> Dag.t -> unit

val of_file : string -> Dag.t
(** {!of_string} on the file, streamed rather than read whole; [Failure]
    messages are prefixed with the file path.  Raises [Sys_error] when
    the file cannot be read. *)

val csr_of_file :
  ?too_large:(int -> int -> exn) -> prefix:string -> string -> Csr32.t
(** The reader itself, on a file, in two streaming passes (plus one more,
    on the error path only, to name a duplicate edge's two lines) over
    int32 scratch of [16n + 4m] bytes, labels apart.  Messages are
    [Failure (prefix ^ msg)].  When [n + 1] or [m] passes
    [Int32.max_int], it raises [too_large n m] (by default a [Failure]
    naming the size line) before allocating anything proportional to
    them. *)
