(* Process-global fault-injection registry.  Design constraints, in order:

   1. Inert by default: with no plan installed, [hit] is one atomic load.
   2. Deterministic: every decision is drawn from a per-(clause, site)
      splitmix64 stream seeded by the clause seed and the site name, so a
      plan string fully determines the injected-fault sequence given the
      sites' hit order.
   3. Observable: fires increment [fault.injected.<site>] counters
      (registered lazily, so inert processes expose no fault metrics) and
      append to a replay log. *)

type outcome =
  | Pass
  | Fail
  | Torn of int
  | Flip of int * int
  | Sleep of float

exception Injected of string

(* ------------------------------ PRNG -------------------------------- *)

(* splitmix64: tiny, well-mixed, and stable across platforms — decisions
   must not depend on Random's global state or its algorithm version. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9e3779b97f4a7c15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

(* uniform float in [0, 1) from the top 53 bits *)
let draw_float state =
  Int64.to_float (Int64.shift_right_logical (splitmix64 state) 11)
  *. (1.0 /. 9007199254740992.0)

(* uniform int in [0, bound) — bound small here, modulo bias negligible *)
let draw_int state bound =
  if bound <= 0 then 0
  else Int64.to_int (Int64.rem (Int64.shift_right_logical (splitmix64 state) 1)
                       (Int64.of_int bound))

(* ------------------------------ plans ------------------------------- *)

type kind = KError | KPartial | KFlip | KDelay

(* a parsed clause, before it is instantiated against a concrete site *)
type template = {
  pattern : string;  (* exact site name, or a trailing-* prefix wildcard *)
  prob : float;
  nth : int option;
  max_fires : int option;
  seed : int;
  kind : kind;
  delay_ms : float;
}

type plan = { source : string; templates : template list }

let parse source =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let parse_clause clause =
    match String.split_on_char ':' clause |> List.map String.trim with
    | [] | [ "" ] -> fail "fault plan %S: empty clause" source
    | pattern :: settings ->
        if pattern = "" then fail "fault plan %S: clause %S names no site" source clause
        else begin
          let t =
            ref
              {
                pattern;
                prob = 1.0;
                nth = None;
                max_fires = None;
                seed = 0;
                kind = KError;
                delay_ms = 10.0;
              }
          in
          let bad = ref None in
          let set_bad fmt = Printf.ksprintf (fun m -> if !bad = None then bad := Some m) fmt in
          List.iter
            (fun s ->
              match String.index_opt s '=' with
              | None -> set_bad "fault plan %S: expected KEY=VALUE, got %S" source s
              | Some i -> (
                  let key = String.sub s 0 i in
                  let v = String.sub s (i + 1) (String.length s - i - 1) in
                  let int_v name =
                    match int_of_string_opt v with
                    | Some x -> x
                    | None ->
                        set_bad "fault plan %S: %s=%S is not an integer" source name v;
                        0
                  in
                  let float_v name =
                    match float_of_string_opt v with
                    | Some x -> x
                    | None ->
                        set_bad "fault plan %S: %s=%S is not a number" source name v;
                        0.0
                  in
                  match key with
                  | "p" ->
                      let p = float_v "p" in
                      if p < 0.0 || p > 1.0 then
                        set_bad "fault plan %S: p=%S is not in [0, 1]" source v
                      else t := { !t with prob = p }
                  | "nth" ->
                      let n = int_v "nth" in
                      if n < 1 then set_bad "fault plan %S: nth=%S must be >= 1" source v
                      else t := { !t with nth = Some n }
                  | "count" ->
                      let n = int_v "count" in
                      if n < 1 then set_bad "fault plan %S: count=%S must be >= 1" source v
                      else t := { !t with max_fires = Some n }
                  | "seed" -> t := { !t with seed = int_v "seed" }
                  | "ms" ->
                      let m = float_v "ms" in
                      if m < 0.0 then set_bad "fault plan %S: ms=%S must be >= 0" source v
                      else t := { !t with delay_ms = m }
                  | "kind" -> (
                      match v with
                      | "error" -> t := { !t with kind = KError }
                      | "partial" -> t := { !t with kind = KPartial }
                      | "flip" -> t := { !t with kind = KFlip }
                      | "delay" -> t := { !t with kind = KDelay }
                      | _ ->
                          set_bad
                            "fault plan %S: kind=%S is not error|partial|flip|delay"
                            source v)
                  | _ -> set_bad "fault plan %S: unknown key %S in clause %S" source key clause))
            settings;
          match !bad with Some m -> Error m | None -> Ok !t
        end
  in
  let clauses =
    String.split_on_char ',' source |> List.map String.trim
    |> List.filter (fun c -> c <> "")
  in
  if clauses = [] then fail "fault plan %S: no clauses" source
  else
    let rec go acc = function
      | [] -> Ok { source; templates = List.rev acc }
      | c :: rest -> (
          match parse_clause c with
          | Ok t -> go (t :: acc) rest
          | Error m -> Error m)
    in
    go [] clauses

let parse_exn s =
  match parse s with Ok p -> p | Error m -> invalid_arg m

(* ----------------------------- matching ----------------------------- *)

let matches pattern site_name =
  if pattern = site_name then true
  else
    let pl = String.length pattern in
    pl > 0
    && pattern.[pl - 1] = '*'
    && String.length site_name >= pl - 1
    && String.sub site_name 0 (pl - 1) = String.sub pattern 0 (pl - 1)

(* a template instantiated against one concrete site: private counters and
   a private PRNG stream, so wildcard clauses stay per-site deterministic *)
type clause = {
  t : template;
  mutable hits : int;
  mutable fires : int;
  rng : int64 ref;
}

let instantiate site_name t =
  {
    t;
    hits = 0;
    fires = 0;
    rng =
      ref
        (Int64.logxor (Int64.of_int t.seed) (Graphio_obs.Fnv1a.string site_name));
  }

(* ------------------------------ state ------------------------------- *)

type site = {
  s_name : string;
  mutable s_epoch : int;  (* plan generation the bindings below belong to *)
  mutable s_clauses : clause list;
  mutable s_counter : Graphio_obs.Metrics.counter option;
}

let enabled = Atomic.make false
let mutex = Mutex.create ()

(* everything below is guarded by [mutex] *)
let installed : plan option ref = ref None
let epoch = ref 0
let sites : (string, site) Hashtbl.t = Hashtbl.create 32
let log : (string * int * string) list ref = ref []
let log_len = ref 0
let log_cap = 1_000_000
let fired_total = ref 0
let env_consulted = ref false

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let install_locked p =
  installed := Some p;
  incr epoch;
  log := [];
  log_len := 0;
  fired_total := 0;
  Atomic.set enabled true

let clear_locked () =
  installed := None;
  incr epoch;
  log := [];
  log_len := 0;
  fired_total := 0;
  (* a cleared plan also suppresses any later environment consultation:
     an explicit clear means "inert from here on" *)
  env_consulted := true;
  Atomic.set enabled false

let consult_env_locked () =
  if not !env_consulted then begin
    env_consulted := true;
    match Sys.getenv_opt "GRAPHIO_FAULTS" with
    | None | Some "" -> ()
    | Some s -> (
        match parse s with
        | Ok p -> install_locked p
        | Error m -> invalid_arg ("GRAPHIO_FAULTS: " ^ m))
  end

let set p = locked (fun () -> env_consulted := true; install_locked p)
let clear () = locked clear_locked

let plan_string () =
  locked (fun () ->
      consult_env_locked ();
      Option.map (fun p -> p.source) !installed)

let active () =
  Atomic.get enabled
  ||
  locked (fun () ->
      consult_env_locked ();
      !installed <> None)

let with_plan s f =
  let p = parse_exn s in
  let prev = locked (fun () -> consult_env_locked (); !installed) in
  set p;
  Fun.protect
    ~finally:(fun () ->
      locked (fun () ->
          match prev with Some p -> install_locked p | None -> clear_locked ()))
    f

let site s_name =
  if s_name = "" then invalid_arg "Fault.site: empty name";
  locked (fun () ->
      match Hashtbl.find_opt sites s_name with
      | Some s -> s
      | None ->
          let s = { s_name; s_epoch = -1; s_clauses = []; s_counter = None } in
          Hashtbl.add sites s_name s;
          s)

let name s = s.s_name

let injections () = locked (fun () -> List.rev !log)
let injected_total () = locked (fun () -> !fired_total)

(* ------------------------------ firing ------------------------------ *)

let rebind_locked s =
  let templates =
    match !installed with Some p -> p.templates | None -> []
  in
  s.s_clauses <-
    List.filter_map
      (fun t -> if matches t.pattern s.s_name then Some (instantiate s.s_name t) else None)
      templates;
  s.s_epoch <- !epoch

let record_locked s hit_index tag =
  incr fired_total;
  if !log_len < log_cap then begin
    log := (s.s_name, hit_index, tag) :: !log;
    incr log_len
  end;
  let c =
    match s.s_counter with
    | Some c -> c
    | None ->
        let c = Graphio_obs.Metrics.counter ("fault.injected." ^ s.s_name) in
        s.s_counter <- Some c;
        c
  in
  Graphio_obs.Metrics.incr c

let outcome_of_clause c ~len =
  match c.t.kind with
  | KError -> (Fail, "fail")
  | KDelay ->
      let s = c.t.delay_ms /. 1000.0 in
      (Sleep s, Printf.sprintf "sleep:%g" s)
  | KPartial ->
      if len <= 0 then (Fail, "fail")
      else
        let keep = draw_int c.rng len in
        (Torn keep, Printf.sprintf "torn:%d" keep)
  | KFlip ->
      if len <= 0 then (Fail, "fail")
      else
        let off = draw_int c.rng len in
        let mask = 1 + draw_int c.rng 255 in
        (Flip (off, mask), Printf.sprintf "flip:%d:%d" off mask)

let hit_slow ~len s =
  locked (fun () ->
      if s.s_epoch <> !epoch then rebind_locked s;
      (* Every clause sees every hit (its counters and PRNG stream advance
         independently of the others); the first clause in plan order that
         wants to fire decides the outcome. *)
      let winner = ref None in
      List.iter
        (fun c ->
          c.hits <- c.hits + 1;
          let wants_fire =
            (match c.t.max_fires with
            | Some cap -> c.fires < cap
            | None -> true)
            &&
            match c.t.nth with
            | Some n -> c.hits = n
            | None -> c.t.prob >= 1.0 || draw_float c.rng < c.t.prob
          in
          if wants_fire && !winner = None then winner := Some c)
        s.s_clauses;
      match !winner with
      | None -> Pass
      | Some c ->
          c.fires <- c.fires + 1;
          let outcome, tag = outcome_of_clause c ~len in
          record_locked s c.hits tag;
          outcome)

let hit ?(len = 0) s =
  if Atomic.get enabled then hit_slow ~len s
  else if (not !env_consulted) && active () then hit_slow ~len s
  else Pass

let step s =
  match hit s with Pass -> () | _ -> raise (Injected s.s_name)
