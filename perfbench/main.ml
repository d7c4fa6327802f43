(* The repository benchmark's entry point:

     main.exe --workload W --seed N --seconds S --trace 0|1

   runs one workload and prints, as the last line of stdout, one JSON
   object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
   the metrics are the end-to-end set of BENCHMARK.json, with --trace 1
   the per-layer set.  The line before it carries diagnostics (the tail's
   percentile and sample count, the host probe).  --small shrinks the
   inputs and --corrupt K falsifies the K-th answer; both exist for the
   benchmark's own test (selftest.py). *)

module Jsonx = Graphio_obs.Jsonx

let workloads =
  [
    ("cold-solve", Cold_solve.run);
    ("sweep-portfolio", Sweep_portfolio.run);
    ("serve-mixed", Serve_mixed.run);
    ("out-of-core", Out_of_core.run);
  ]

let unit_of name =
  let ends s = String.ends_with ~suffix:s name in
  if name = "bounds_per_s" then "1/s"
  else if ends "_mb" then "MB"
  else if ends "_s" then "s"
  else if ends "_ratio" || ends ".share" then "ratio"
  else if name = "store.bytes" then "bytes"
  else "count"

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--small] \
     [--corrupt K]";
  exit 2

let parse_args argv =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and small = ref false and corrupt = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); go rest
    | "--small" :: rest -> small := true; go rest
    | "--corrupt" :: v :: rest -> corrupt := int_of_string_opt v; go rest
    | _ -> usage ()
  in
  go argv;
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace
    when List.mem_assoc workload workloads && seconds > 0.0 ->
      { Common.workload; seed; seconds; trace; small = !small; corrupt = !corrupt }
  | _ -> usage ()

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "ooc-setup" :: rest -> Out_of_core.setup_child rest
  | "ooc-reference" :: rest -> Out_of_core.reference_child rest
  | argv ->
      let args = parse_args argv in
      let ck, metrics, diagnostics = (List.assoc args.Common.workload workloads) args in
      Option.iter
        (fun tr ->
          Util.mkdir_p ".bench_trace";
          Spans.write tr (Filename.concat ".bench_trace" (args.Common.workload ^ ".json")))
        !Common.last_spans;
      let failure =
        match ck.Common.first_failure with
        | None -> Jsonx.Null
        | Some s -> Jsonx.String s
      in
      print_endline
        (Jsonx.to_string
           (Jsonx.Obj
              [
                ("workload", Jsonx.String args.Common.workload);
                ( "diagnostics",
                  Jsonx.Obj
                    (if args.Common.trace then
                       ("exact", Jsonx.List (List.map (fun n -> Jsonx.String n) Common.exact))
                       :: diagnostics
                     else diagnostics) );
                ("first_failure", failure);
              ]));
      print_endline
        (Jsonx.to_string
           (Jsonx.Obj
              [
                ("correct", Jsonx.Bool (ck.Common.failed = 0 && ck.Common.attempted > 0));
                ("attempted", Jsonx.Int ck.Common.attempted);
                ("failed", Jsonx.Int ck.Common.failed);
                ( "metrics",
                  Jsonx.Obj
                    (List.map
                       (fun (name, v) ->
                         ( name,
                           Jsonx.Obj
                             [ ("value", Jsonx.Float v); ("unit", Jsonx.String (unit_of name)) ] ))
                       metrics) );
              ]))
