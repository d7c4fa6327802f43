(** Runtime (GC) gauges sampled from [Gc.quick_stat].

    {!sample} refreshes the [runtime.gc.*] gauges — heap words, top heap
    words, minor/major collection counts, compactions — in the
    {!Metrics} registry.  Called at metrics exposition time (the server's
    [{"op":"metrics"}], and the CLI's [--metrics]/[--metrics-out] at
    exit); cheap enough to call anywhere ([Gc.quick_stat] does not walk
    the heap). *)

val sample : unit -> unit
