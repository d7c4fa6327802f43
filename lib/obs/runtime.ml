(* Gc.quick_stat is cheap (no heap walk), so sampling on demand — at
   metrics exposition and CLI exit — costs nothing on request paths. *)

let g_heap_words =
  Metrics.gauge ~help:"major heap size in words" "runtime.gc.heap_words"

let g_top_heap_words =
  Metrics.gauge ~help:"largest major heap size reached, in words"
    "runtime.gc.top_heap_words"

let g_minor_collections =
  Metrics.gauge ~help:"minor collections since program start"
    "runtime.gc.minor_collections"

let g_major_collections =
  Metrics.gauge ~help:"major collection cycles since program start"
    "runtime.gc.major_collections"

let g_compactions =
  Metrics.gauge ~help:"heap compactions since program start"
    "runtime.gc.compactions"

let sample () =
  let s = Gc.quick_stat () in
  Metrics.set g_heap_words (float_of_int s.Gc.heap_words);
  Metrics.set g_top_heap_words (float_of_int s.Gc.top_heap_words);
  Metrics.set g_minor_collections (float_of_int s.Gc.minor_collections);
  Metrics.set g_major_collections (float_of_int s.Gc.major_collections);
  Metrics.set g_compactions (float_of_int s.Gc.compactions)
