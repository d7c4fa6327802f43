open Graphio_obs

type source = Spec of string | Edgelist of string

type query = {
  id : Jsonx.t option;
  source : source;
  m : int;
  p : int option;
  method_ : Graphio_core.Solver.method_;
  h : int option;
  timeout_s : float option;
}

type request =
  | Query of query
  | Ping of Jsonx.t option
  | Stats of Jsonx.t option
  | Metrics_op of Jsonx.t option
  | Shutdown of Jsonx.t option

let method_name = Graphio_core.Method.to_string

let backend_name = function
  | Graphio_la.Eigen.Dense -> "dense"
  | Graphio_la.Eigen.Sparse_filtered -> "filtered"

let answer_fields (r : Graphio_core.Solver.batch_result) =
  let open Graphio_core.Solver in
  let j = r.job and o = r.outcome in
  let b = o.result in
  let tier t = Jsonx.String (tier_name t) in
  [
    ("n", Jsonx.Int (Graphio_graph.Dag.n_vertices j.dag));
    ("edges", Jsonx.Int (Graphio_graph.Dag.n_edges j.dag));
    ("m", Jsonx.Int j.m);
    ("p", Jsonx.Int (Option.value j.p ~default:1));
    ("method", Jsonx.String (method_name j.method_));
    ("h", Jsonx.Int (Array.length o.eigenvalues));
    ("bound", Jsonx.Float b.Graphio_core.Spectral_bound.bound);
    ("best_k", Jsonx.Int b.Graphio_core.Spectral_bound.best_k);
    ("best_raw", Jsonx.Float b.Graphio_core.Spectral_bound.best_raw);
    ("backend", Jsonx.String (backend_name o.backend));
    ("tier", tier o.tier);
    ("cache_hit", Jsonx.Bool r.cache_hit);
    ("warm_start", Jsonx.Bool o.warm_start);
    ("wall_s", Jsonx.Float r.wall_s);
  ]
  (* per-component provenance, only when the graph decomposed *)
  @ (if Array.length o.components = 0 then []
     else
       [
         ( "components",
           Jsonx.List
             (Array.to_list
                (Array.map
                   (fun c ->
                     Jsonx.Obj
                       [
                         ("n", Jsonx.Int c.comp_n);
                         ("edges", Jsonx.Int c.comp_edges);
                         ("tier", tier c.comp_tier);
                         ("cache_hit", Jsonx.Bool c.comp_cache_hit);
                       ])
                   o.components)) );
       ])
  (* per-member values and the winner, only on portfolio queries; member
     wall times stay in the OCaml API, only the aggregate is on the wire *)
  @ (if Array.length o.methods = 0 then []
     else
       [
         ( "methods",
           Jsonx.List
             (Array.to_list
                (Array.map
                   (fun mv ->
                     Jsonx.Obj
                       [
                         ("method", Jsonx.String (method_name mv.mv_method));
                         ("bound", Jsonx.Float mv.mv_bound);
                         ("best_k", Jsonx.Int mv.mv_best_k);
                         ("tier", tier mv.mv_tier);
                         ("cache_hit", Jsonx.Bool mv.mv_cache_hit);
                         ("warm_start", Jsonx.Bool mv.mv_warm_start);
                       ])
                   o.methods)) );
       ])
  @
  match o.winner with
  | Some w -> [ ("winner", Jsonx.String (method_name w)) ]
  | None -> []

(* Field accessors that reject wrong types instead of coercing: a request
   with "m":"4" is a client bug worth a clear message, not a guess. *)

exception Bad of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Bad msg)) fmt

let known_fields =
  [ "id"; "op"; "spec"; "edgelist"; "m"; "p"; "method"; "h"; "timeout_s" ]

let get_string name obj =
  match Jsonx.member name obj with
  | None | Some Jsonx.Null -> None
  | Some (Jsonx.String s) -> Some s
  | Some _ -> fail "field %S: expected a string" name

let get_int name obj =
  match Jsonx.member name obj with
  | None | Some Jsonx.Null -> None
  | Some (Jsonx.Int i) -> Some i
  | Some _ -> fail "field %S: expected an integer" name

let get_number name obj =
  match Jsonx.member name obj with
  | None | Some Jsonx.Null -> None
  | Some (Jsonx.Int i) -> Some (float_of_int i)
  | Some (Jsonx.Float f) -> Some f
  | Some _ -> fail "field %S: expected a number" name

let positive name = function
  | Some v when v < 1 -> fail "field %S: expected a positive integer" name
  | v -> v

let parse_query ~id obj =
  (match obj with
  | Jsonx.Obj fields ->
      List.iter
        (fun (k, _) ->
          if not (List.mem k known_fields) then fail "unknown field %S" k)
        fields
  | _ -> fail "expected a JSON object");
  let source =
    match (get_string "spec" obj, get_string "edgelist" obj) with
    | Some s, None -> Spec s
    | None, Some e -> Edgelist e
    | Some _, Some _ -> fail "provide exactly one of \"spec\" or \"edgelist\""
    | None, None -> fail "missing \"spec\" or \"edgelist\""
  in
  let m =
    match positive "m" (get_int "m" obj) with
    | Some m -> m
    | None -> fail "missing field \"m\""
  in
  let p = positive "p" (get_int "p" obj) in
  let h = positive "h" (get_int "h" obj) in
  let method_ =
    match get_string "method" obj with
    | None -> Graphio_core.Solver.Normalized
    | Some s -> (
        match Graphio_core.Method.of_string s with
        | Some m -> m
        | None ->
            fail "field \"method\": expected %s, got %S"
              Graphio_core.Method.expected s)
  in
  let timeout_s =
    match get_number "timeout_s" obj with
    | Some t when not (Float.is_finite t) || t < 0.0 ->
        fail "field \"timeout_s\": expected a non-negative finite number"
    | t -> t
  in
  Query { id; source; m; p; method_; h; timeout_s }

let request_of_line line =
  match Jsonx.of_string line with
  | exception Failure msg -> Error (None, "malformed JSON: " ^ msg)
  | json -> (
      let id = Jsonx.member "id" json in
      match
        match Jsonx.member "op" json with
        | Some (Jsonx.String "ping") -> Ping id
        | Some (Jsonx.String "stats") -> Stats id
        | Some (Jsonx.String "metrics") -> Metrics_op id
        | Some (Jsonx.String "shutdown") -> Shutdown id
        | Some (Jsonx.String other) -> fail "unknown op %S" other
        | Some _ -> fail "field \"op\": expected a string"
        | None -> parse_query ~id json
      with
      | request -> Ok request
      | exception Bad msg -> Error (id, msg))
