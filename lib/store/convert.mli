(** Streaming text-edgelist → binary CSR converter.

    {!convert} is {!Graphio_graph.Edgelist.csr_of_file}, the same reader
    behind [Edgelist.of_string] and [Edgelist.of_file], composed with
    {!Store.write_csr}, the same writer behind [Store.write].  So it
    accepts exactly the {!Graphio_graph.Edgelist} text format and rejects
    what that rejects, with the same messages.  It never builds the
    graph in memory: two streaming passes over the text (degree count,
    then scatter-fill) into int32 scratch, an in-place row sort, the
    range/self-loop/duplicate/acyclicity checks, and an atomic temp+rename
    publish.  For unlabeled input the scratch is [16n + 4m] bytes (at most
    [12·(n + m)] when [m ≥ n/2]), independent of the text's size; every
    [l] line adds a hashtable entry and its string.

    Errors carry the input path and line number ([path: line N: ...]),
    matching the repo-wide diagnostic convention; duplicate edges are
    reported with both line numbers via an error-path-only rescan.

    The output is deterministic (rows sorted, labels in ascending vertex
    order), so re-converting the same input is byte-identical — the
    idempotence the cram battery pins. *)

val convert : input:string -> output:string -> int * int
(** [convert ~input ~output] returns [(n, m)].  Raises [Failure] with a
    [path: ]-prefixed message on malformed input, [Sys_error] when the
    input cannot be read, and {!Store.Error} ([Too_large] when the graph
    exceeds the int32 index guard, before any allocation proportional to
    it; [Io_error] when the output cannot be published). *)
