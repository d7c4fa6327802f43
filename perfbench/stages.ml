(* Stage-by-stage replay of the bound pipeline through the libraries'
   public functions, for the traced run.

   [Solver.bound], [bound_parts], [bound_batch] and [bound_cached] run
   their stages inside one call, so timing them from outside gives one
   number.  The replay calls the same public functions in the order the
   solver does -- component split, structure recognition, closed-form
   spectra, cache tiers, Laplacian assembly, eigensolve,
   k-maximization, visit profile -- each inside a benchmark span charged
   to its layer.  It uses the solver's defaults, so its answers must
   equal the solver's; the workloads check that they do. *)

open Graphio_graph
module Method = Graphio_core.Method
module Spectrum = Graphio_cache.Spectrum
module Eigen = Graphio_la.Eigen

(* Work the replay saw, summed over the operations that share a tally.
   Pool workers bump it from both domains, hence the atomics. *)
type tally = {
  units : int Atomic.t;  (** spectral units requested *)
  distinct : int Atomic.t;  (** units left after in-batch dedup *)
  cached : int Atomic.t;  (** distinct units the cache answered *)
  recognize_calls : int Atomic.t;
  recognize_hits : int Atomic.t;
  solves : int Atomic.t;  (** numeric eigensolves run *)
  pairs_requested : int Atomic.t;  (** eigenpairs asked of numeric solves *)
  pairs_converged : int Atomic.t;  (** of which converged (all, when dense) *)
}

let tally () =
  let z () = Atomic.make 0 in
  {
    units = z ();
    distinct = z ();
    cached = z ();
    recognize_calls = z ();
    recognize_hits = z ();
    solves = z ();
    pairs_requested = z ();
    pairs_converged = z ();
  }

let bump counter by = ignore (Atomic.fetch_and_add counter by)

(* The per-layer values a tally gives, over [ops] operations. *)
let tally_metrics k ~ops =
  let r a b = Common.ratio (float_of_int (Atomic.get a)) (float_of_int b) in
  let units = Atomic.get k.units in
  [
    ("la.converged_ratio", r k.pairs_converged (Atomic.get k.pairs_requested));
    ("recognize.hit_ratio", r k.recognize_hits (Atomic.get k.recognize_calls));
    ( "core.shared_ratio",
      Common.ratio
        (float_of_int (units - Atomic.get k.distinct + Atomic.get k.cached))
        (float_of_int units) );
    ("core.eigensolves_paid", r k.solves ops);
  ]

(* Eigenvalues per spectrum: the solver's default, as every workload
   calls the solver with it. *)
let h = 100

type ctx = {
  tr : Spans.t;
  op : int;
  cache : Spectrum.t option;  (** [None]: caching off, as in [Solver.bound] *)
  warm_start : bool;
  pool : Graphio_par.Pool.t option;
  k : tally;
}

let ctx ?cache ?pool ?(warm_start = false) ~tally tr ~op =
  { tr; op; cache; warm_start; pool; k = tally }

let span c ~parent ~layer name f =
  Spans.with_ c.tr ~op:c.op ~parent ~layer name f

(* [Solver]'s request: decomposed parts and the members to evaluate. *)
type request = {
  parts : Dag.t array;
  n : int;
  m : int;
  p : int option;
  method_ : Method.t;
}

let members = function
  | Method.Portfolio -> Array.of_list Method.default_portfolio
  | m -> [| m |]

let split c ~parent g =
  if Dag.n_vertices g = 0 then [||]
  else
    let parts =
      span c ~parent ~layer:"graph" "graph.split" (fun _ -> Component.split g)
    in
    if Array.length parts > 1 then Array.map fst parts else [| g |]

let request_of_dag c ~parent ?p ~method_ g ~m =
  let parts = if Dag.n_vertices g = 0 then [| g |] else split c ~parent g in
  { parts; n = Dag.n_vertices g; m; p; method_ }

(* [bound_parts] re-splits every caller-supplied part. *)
let request_of_parts c ~parent ?p ~method_ parts ~m =
  let parts =
    Array.concat (Array.to_list (Array.map (split c ~parent) parts))
  in
  {
    parts;
    n = Array.fold_left (fun acc g -> acc + Dag.n_vertices g) 0 parts;
    m;
    p;
    method_;
  }

let min_degree g =
  let d = ref max_int in
  for v = 0 to Dag.n_vertices g - 1 do
    d := min !d (Dag.degree g v)
  done;
  !d

let theorem5_scale g =
  let dmax = Dag.max_out_degree g in
  if dmax = 0 then 1.0 else 1.0 /. float_of_int dmax

(* The closed-form tier: recognition, then the scale under which the
   family's exact spectrum answers this method (or [None]). *)
let recognize c ~parent ~method_ g =
  bump c.k.recognize_calls 1;
  span c ~parent ~layer:"recognize" "recognize.recognize" (fun _ ->
      match Graphio_recognize.Recognize.recognize g with
      | None -> None
      | Some family -> (
          let scale =
            match (method_ : Method.t) with
            | Standard -> Some (theorem5_scale g)
            | Normalized ->
                Option.map
                  (fun d -> 1.0 /. float_of_int d)
                  (Graphio_recognize.Recognize.uniform_out_degree g)
            | Adjacency | Signless ->
                if Dag.n_vertices g > 0 && min_degree g = Dag.max_degree g then
                  Some (theorem5_scale g)
                else None
            | Visit | Portfolio -> None
          in
          match scale with None -> None | Some s -> Some (family, s)))

let closed_form_values c ~parent family ~scale ~n =
  span c ~parent ~layer:"recognize" "spectra.closed_form" (fun _ ->
      Graphio_spectra.Multiset.smallest
        (Graphio_recognize.Recognize.spectrum family)
        ~h:(min h n)
      |> Array.map (fun l -> scale *. Float.max l 0.0))

let numeric_values c ~parent ~method_ ?init ?pool g =
  let lap =
    span c ~parent ~layer:"graph" "graph.laplacian" (fun _ ->
        match (method_ : Method.t) with
        | Normalized -> Laplacian.normalized g
        | Standard -> Laplacian.standard g
        | Adjacency -> Laplacian.adjacency_shifted g
        | Signless -> Laplacian.signless_shifted g
        | Visit | Portfolio -> invalid_arg "Stages: no spectrum")
  in
  let spec =
    span c ~parent ~layer:"la" "la.eigensolve" (fun _ ->
        Eigen.smallest ~h ?init ~want_vectors:c.warm_start ?pool lap)
  in
  bump c.k.solves 1;
  let want = Array.length spec.Eigen.values in
  bump c.k.pairs_requested want;
  bump c.k.pairs_converged
    (match spec.Eigen.stats with
    | None -> want
    | Some st -> min want st.Eigen.locked);
  let scale =
    match (method_ : Method.t) with
    | Normalized -> 1.0
    | _ -> theorem5_scale g
  in
  let offset =
    match (method_ : Method.t) with
    | Adjacency -> float_of_int (min_degree g - Dag.max_degree g)
    | Signless -> 2.0 *. float_of_int (min_degree g - Dag.max_degree g)
    | _ -> 0.0
  in
  let values =
    if offset = 0.0 then
      Array.map (fun l -> scale *. Float.max l 0.0) spec.Eigen.values
    else
      Array.map (fun l -> scale *. Float.max (l +. offset) 0.0) spec.Eigen.values
  in
  (values, spec)

let no_params =
  Spectrum.params_digest ~dense_threshold:None ~tol:None ~seed:None
    ~filter_degree:None

let cache_find c ~parent key =
  match c.cache with
  | None -> None
  | Some cache ->
      span c ~parent ~layer:"cache" "cache.find" (fun _ -> Spectrum.find cache key)

let cache_add c ~parent key entry =
  match c.cache with
  | None -> ()
  | Some cache ->
      span c ~parent ~layer:"cache" "cache.add" (fun _ ->
          Spectrum.add cache key entry)

(* One unit's spectrum through the same tiers as the solver: closed form
   (cached under the upper-case method tag), else the numeric key, else
   a solve that populates the cache. *)
let spectrum c ~parent ~method_ ~fingerprint ?pool g =
  let n = Dag.n_vertices g in
  if n = 0 then [||]
  else
    let tag = Method.cache_char method_ in
    match recognize c ~parent ~method_ g with
    | Some (family, scale) -> (
        bump c.k.recognize_hits 1;
        let values = closed_form_values c ~parent family ~scale ~n in
        let key =
          {
            Spectrum.fingerprint;
            method_tag = Char.uppercase_ascii tag;
            h;
            params = no_params;
          }
        in
        match cache_find c ~parent key with
        | Some e ->
            bump c.k.cached 1;
            e.Spectrum.eigenvalues
        | None ->
            cache_add c ~parent key { Spectrum.eigenvalues = values; dense = true };
            values)
    | None -> (
        let key = { Spectrum.fingerprint; method_tag = tag; h; params = no_params } in
        match cache_find c ~parent key with
        | Some e ->
            bump c.k.cached 1;
            e.Spectrum.eigenvalues
        | None ->
            let rkey =
              { Spectrum.fingerprint; method_tag = tag; params = no_params }
            in
            let init =
              match c.cache with
              | Some cache when c.warm_start -> (
                  match
                    span c ~parent ~layer:"cache" "cache.find_ritz" (fun _ ->
                        Spectrum.find_ritz cache rkey)
                  with
                  | Some r when r.Spectrum.n = n -> Some r.Spectrum.vectors
                  | _ -> None)
              | _ -> None
            in
            let values, spec = numeric_values c ~parent ~method_ ?init ?pool g in
            let dense = spec.Eigen.backend = Eigen.Dense in
            cache_add c ~parent key { Spectrum.eigenvalues = values; dense };
            (match (c.cache, spec.Eigen.vectors) with
            | Some cache, Some vs
              when c.warm_start && (not dense) && Array.length vs > 0 ->
                span c ~parent ~layer:"cache" "cache.add_ritz" (fun _ ->
                    Spectrum.add_ritz cache rkey
                      { Spectrum.n; h = Array.length vs; vectors = vs })
            | _ -> ());
            values)

(* Theorem-5 rescale of a component to the union's max out-degree. *)
let extra ~method_ parts =
  match (method_ : Method.t) with
  | Normalized -> fun _ -> 1.0
  | _ ->
      let d_union =
        Array.fold_left (fun acc g -> max acc (Dag.max_out_degree g)) 0 parts
      in
      fun g ->
        let d = Dag.max_out_degree g in
        if d = 0 || d = d_union then 1.0
        else float_of_int d /. float_of_int d_union

let kmax c ~parent (rq : request) eigenvalues =
  span c ~parent ~layer:"core" "core.kmax" (fun _ ->
      (Graphio_core.Spectral_bound.compute ~n:rq.n ~m:rq.m ?p:rq.p ~eigenvalues ())
        .Graphio_core.Spectral_bound.bound)

(* Evaluate requests as one batch: spectral units of every member of
   every request are deduplicated by cache key before any eigensolve, the
   distinct ones are solved (concurrently on [c.pool] when there are
   several), then each member's spectrum is merged and maximized.  Visit
   members share one profile per distinct component.  Returns, per
   request, the bound and the per-member bounds. *)
let eval c ~parent (reqs : request array) =
  (* like the solver, fingerprint every unit and every visit part anew *)
  let fingerprint g =
    span c ~parent ~layer:"graph" "graph.fingerprint" (fun _ -> Dag.fingerprint g)
  in
  (* unit keys per request, member and part; distinct units in
     first-occurrence order *)
  let rep_index = Hashtbl.create 64 and reps = ref [] in
  let keys =
    Array.map
      (fun rq ->
        Array.map
          (fun member ->
            if not (Method.is_spectral member) then [||]
            else
              Array.map
                (fun g ->
                  bump c.k.units 1;
                  let key = (fingerprint g, Method.cache_char member) in
                  if not (Hashtbl.mem rep_index key) then begin
                    Hashtbl.add rep_index key (Hashtbl.length rep_index);
                    reps := (key, member, g) :: !reps
                  end;
                  key)
                rq.parts)
          (members rq.method_))
      reqs
  in
  let reps = Array.of_list (List.rev !reps) in
  bump c.k.distinct (Array.length reps);
  let spectra = Array.make (Array.length reps) [||] in
  let solve ?pool ~parent r =
    let (fp, _), member, g = reps.(r) in
    spectra.(r) <- spectrum c ~parent ~method_:member ~fingerprint:fp ?pool g
  in
  (match c.pool with
  | Some pool when Array.length reps > 1 ->
      span c ~parent ~layer:"par" "par.parallel_for" (fun pf ->
          Graphio_par.Pool.parallel_for ~chunk:1 pool ~lo:0
            ~hi:(Array.length reps) (fun r ->
              span c ~parent:pf ~layer:"par" "par.job" (fun job ->
                  solve ~parent:job r)))
  | pool -> Array.iteri (fun r _ -> solve ?pool ~parent r) reps);
  let profiles = Hashtbl.create 16 in
  let profile g =
    let fp = fingerprint g in
    match Hashtbl.find_opt profiles fp with
    | Some prof -> prof
    | None ->
        let prof =
          span c ~parent ~layer:"core" "core.visit_profile" (fun _ ->
              Graphio_core.Visit_bound.profile g)
        in
        Hashtbl.add profiles fp prof;
        prof
  in
  Array.mapi
    (fun ri (rq : request) ->
      let member_bound mi member =
        if Method.is_spectral member then begin
          let ex = extra ~method_:member rq.parts in
          let scaled k g =
            let ev = spectra.(Hashtbl.find rep_index keys.(ri).(mi).(k)) in
            let x = ex g in
            if x = 1.0 then ev else Array.map (fun l -> x *. l) ev
          in
          let eigenvalues =
            match rq.parts with
            | [||] -> [||]
            | [| g |] -> scaled 0 g
            | parts ->
                let merged = Array.concat (Array.to_list (Array.mapi scaled parts)) in
                Array.sort Float.compare merged;
                Array.sub merged 0 (min (min h rq.n) (Array.length merged))
          in
          kmax c ~parent rq eigenvalues
        end
        else begin
          let m_eff = match rq.p with None -> rq.m | Some p -> rq.m * p in
          let total =
            Array.fold_left
              (fun acc g ->
                let prof = profile g in
                acc
                + span c ~parent ~layer:"core" "core.visit_bound" (fun _ ->
                      Graphio_core.Visit_bound.bound_of_profile prof ~m:m_eff))
              0 rq.parts
          in
          float_of_int total
        end
      in
      let values = Array.mapi member_bound (members rq.method_) in
      let best = Array.fold_left Float.max neg_infinity values in
      (best, values))
    reqs
