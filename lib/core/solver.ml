open Graphio_graph
open Graphio_la

type method_ = Method.t =
  | Normalized
  | Standard
  | Adjacency
  | Signless
  | Visit
  | Portfolio

type tier = Closed_form of Graphio_recognize.Recognize.family | Numeric

type component_info = {
  comp_n : int;
  comp_edges : int;
  comp_tier : tier;
  comp_backend : Eigen.backend;
  comp_cache_hit : bool;
  comp_warm_start : bool;
}

(* one portfolio member's value, for provenance reporting *)
type method_value = {
  mv_method : method_;
  mv_bound : float;
  mv_best_k : int;
  mv_best_raw : float;
  mv_tier : tier;
  mv_cache_hit : bool;
  mv_warm_start : bool;
  mv_wall_s : float;
}

type outcome = {
  result : Spectral_bound.t;
  method_ : method_;
  backend : Eigen.backend;
  eigenvalues : float array;
  solve_stats : Eigen.stats option;
  tier : tier;
  warm_start : bool;
  components : component_info array;
  methods : method_value array;
      (* per-member values; non-empty only for [Portfolio] *)
  winner : method_ option;  (* the member behind [result]; [Portfolio] only *)
}

let tier_name = function Closed_form _ -> "closed-form" | Numeric -> "numeric"

let c_bounds = Graphio_obs.Metrics.counter "core.solver.bounds"
let c_closed_form =
  Graphio_obs.Metrics.counter "core.solver.closed_form_hits"
let c_warm_hits = Graphio_obs.Metrics.counter "core.solver.warm_start_hits"
let h_bound_seconds = Graphio_obs.Metrics.histogram "core.solver.bound_seconds"

let min_degree g =
  let n = Dag.n_vertices g in
  if n = 0 then 0
  else begin
    let d = ref max_int in
    for v = 0 to n - 1 do
      d := min !d (Dag.degree g v)
    done;
    !d
  end

(* The constant added to each raw eigenvalue before the 0-clamp.  Zero
   for the two Laplacian methods; for the shifted variants it turns the
   shifted spectrum [nu] into the Weyl surrogate that lower-bounds the
   standard Laplacian spectrum:

   - Adjacency: [L = D - A >= delta I - A = (delta - Delta) I + S_A],
     so [lambda_i(L) >= delta - Delta + nu_i(S_A)];
   - Signless: [L = 2D - Q >= 2 delta I - Q], so
     [lambda_i(L) >= 2 delta - 2 Delta + nu_i(S_Q)].

   A constant offset keeps the sequence ascending, and clamping at 0
   only lowers the (monotone-in-each-eigenvalue) bound — both methods
   stay sound. *)
let surrogate_offset ~method_ g =
  match (method_ : method_) with
  | Normalized | Standard -> 0.0
  | Adjacency -> float_of_int (min_degree g - Dag.max_degree g)
  | Signless -> 2.0 *. float_of_int (min_degree g - Dag.max_degree g)
  | Visit | Portfolio -> 0.0

(* What the evaluation below the public entry points needs besides the
   requests themselves, built once per call: a new setting is one field
   here plus the entry points that expose it. *)
type settings = {
  cache : Graphio_cache.Spectrum.t;
  pool : Graphio_par.Pool.t option;
  on_iteration : Convergence.callback option;
  h : int;
  dense_threshold : int option;
  warm_start : bool;
  closed_form : bool;
}

let defaults =
  {
    cache = Graphio_cache.Spectrum.disabled;
    pool = None;
    on_iteration = None;
    h = 100;
    dense_threshold = None;
    warm_start = false;
    closed_form = true;
  }

let spectrum_full s ~method_ ?init g =
  let laplacian =
    Graphio_obs.Span.with_ "solver.laplacian" (fun () ->
        match method_ with
        | Normalized -> Laplacian.normalized g
        | Standard -> Laplacian.standard g
        | Adjacency -> Laplacian.adjacency_shifted g
        | Signless -> Laplacian.signless_shifted g
        | Visit | Portfolio ->
            invalid_arg
              (Printf.sprintf "Solver.spectrum: method %s has no spectrum"
                 (Method.to_string method_)))
  in
  let spec =
    Graphio_obs.Span.with_ "solver.eigensolve" (fun () ->
        Eigen.smallest ~h:s.h ?dense_threshold:s.dense_threshold ?init
          ~want_vectors:s.warm_start ?on_iteration:s.on_iteration ?pool:s.pool
          laplacian)
  in
  let scale =
    match method_ with
    | Normalized -> 1.0
    | Standard | Adjacency | Signless ->
        let dmax = Dag.max_out_degree g in
        if dmax = 0 then 1.0 else 1.0 /. float_of_int dmax
    | Visit | Portfolio -> 1.0
  in
  let offset = surrogate_offset ~method_ g in
  (* Eigenvectors are unaffected by the Theorem 5 scaling (L and L/dmax
     share them), so the warm-start donor block needs no rescaling. *)
  let values =
    if offset = 0.0 then
      Array.map (fun l -> scale *. Float.max l 0.0) spec.Eigen.values
    else
      Array.map
        (fun l -> scale *. Float.max (l +. offset) 0.0)
        spec.Eigen.values
  in
  (values, spec.Eigen.backend, spec.Eigen.stats, spec.Eigen.vectors)

let spectrum ?(method_ = Normalized) ?(h = 100) g =
  let eigenvalues, backend, _, _ = spectrum_full { defaults with h } ~method_ g in
  (eigenvalues, backend)

(* ------------------------------------------------------------------ *)
(* Closed-form dispatch tier                                           *)

(* When the graph is a recognized Section 5 family, the exact Laplacian
   spectrum comes from {!Graphio_spectra} and no eigensolve runs at all
   (zero matvecs).  [Standard] always applies (the closed forms are the
   standard [L] of the undirected support, scaled here by
   [1/max_out_degree] exactly as [spectrum_full] scales the numeric
   spectrum).  [Normalized] applies only when every vertex with outgoing
   edges shares one out-degree [d]: then [L~ = L/d] exactly; otherwise
   the query falls through to the numeric tier. *)
let closed_form_spectrum ~method_ ~h g =
  match
    Graphio_obs.Span.with_ "solver.recognize" (fun () ->
        Graphio_recognize.Recognize.recognize g)
  with
  | None -> None
  | Some family -> (
      let scale =
        match method_ with
        | Standard ->
            let dmax = Dag.max_out_degree g in
            Some (if dmax = 0 then 1.0 else 1.0 /. float_of_int dmax)
        | Normalized -> (
            match Graphio_recognize.Recognize.uniform_out_degree g with
            | Some d -> Some (1.0 /. float_of_int d)
            | None -> None)
        | Adjacency | Signless ->
            (* the Weyl surrogate offset is [delta - Delta] (twice that for
               signless); on a regular support it vanishes and the
               surrogate spectrum IS the closed-form standard spectrum
               under the Theorem-5 scaling.  Irregular recognized families
               (butterflies, paths, grids) fall through to numeric. *)
            if Dag.n_vertices g > 0 && min_degree g = Dag.max_degree g then begin
              let dmax = Dag.max_out_degree g in
              Some (if dmax = 0 then 1.0 else 1.0 /. float_of_int dmax)
            end
            else None
        | Visit | Portfolio -> None
      in
      match scale with
      | None -> None
      | Some scale ->
          let n = Dag.n_vertices g in
          let eigenvalues =
            Graphio_spectra.Multiset.smallest
              (Graphio_recognize.Recognize.spectrum family) ~h:(min h n)
            |> Array.map (fun l -> scale *. Float.max l 0.0)
          in
          Some (family, eigenvalues))

let record_closed_form ~family ~cache_hit =
  Graphio_obs.Metrics.incr c_closed_form;
  Graphio_obs.Log.emit "solver.closed_form"
    [
      ( "family",
        Graphio_obs.Jsonx.String (Graphio_recognize.Recognize.name family) );
      ("cache_hit", Graphio_obs.Jsonx.Bool cache_hit);
    ]

let bound_of_spectrum ?(h = 100) ?p ~spectrum ~scale ~n ~m () =
  if scale < 0.0 then invalid_arg "Solver.bound_of_spectrum: negative scale";
  let eigenvalues =
    Graphio_spectra.Multiset.smallest spectrum ~h:(min h n)
    |> Array.map (fun l -> scale *. Float.max l 0.0)
  in
  Spectral_bound.compute ~n ~m ?p ~eigenvalues ()

(* Above this many floor segments per run we fall back to the O(1)-per-run
   heuristic: ⌊n/(kp)⌋ takes ~2√(n/p) distinct values, so the cutoff keeps
   the exact path under a few thousand evaluations per run while the
   closed-form giants (butterfly l = 32 has n ≈ 1.4e11) stay cheap. *)
let exact_segment_limit = 1_000_000

let bound_of_spectrum_all_k ?(p = 1) ~spectrum ~scale ~n ~m () =
  if scale < 0.0 then invalid_arg "Solver.bound_of_spectrum_all_k: negative scale";
  if n < 0 then invalid_arg "Solver.bound_of_spectrum_all_k: negative n";
  if m < 0 then invalid_arg "Solver.bound_of_spectrum_all_k: negative m";
  if p < 1 then invalid_arg "Solver.bound_of_spectrum_all_k: p must be >= 1";
  let runs = (spectrum : Graphio_spectra.Multiset.t :> (float * int) array) in
  let k_max = min n (Graphio_spectra.Multiset.total spectrum) in
  (* exact objective at one k (prefix sum supplied by the caller) *)
  let value ~prefix_sum k =
    let segments = float_of_int (n / (k * p)) in
    (segments *. prefix_sum) -. (2.0 *. float_of_int (k * m))
  in
  let best_k = ref 0 and best_raw = ref neg_infinity in
  let consider ~base_sum ~base_count ~lambda k =
    if k >= 2 && k <= k_max && k > base_count then begin
      let prefix_sum = base_sum +. (float_of_int (k - base_count) *. lambda) in
      let v = value ~prefix_sum k in
      if v > !best_raw then begin
        best_raw := v;
        best_k := k
      end
    end
  in
  let exact = n / p <= exact_segment_limit in
  let base_sum = ref 0.0 and base_count = ref 0 in
  Array.iter
    (fun (raw_lambda, mult) ->
      let lambda = scale *. Float.max raw_lambda 0.0 in
      let run_end = !base_count + mult in
      let lo = max 2 (!base_count + 1) in
      let hi = min run_end k_max in
      let consider = consider ~base_sum:!base_sum ~base_count:!base_count ~lambda in
      if exact then begin
        (* Within a floor segment ⌊n/(kp)⌋ = q the objective is linear in
           k, so its maximum over the run sits at a segment endpoint;
           walking the segments intersecting [lo, hi] makes this run's
           maximization exact.  The floor function has O(√(n/p)) segments
           total, so the whole scan is cheap under the gate above. *)
        let k = ref lo in
        while !k <= hi do
          consider !k;
          let q = n / (!k * p) in
          if q = 0 then begin
            (* beyond n/p the objective is just -2kM, decreasing in k *)
            k := hi + 1
          end
          else begin
            let seg_end = min hi (n / (p * q)) in
            consider seg_end;
            k := seg_end + 1
          end
        done
      end
      else if lo <= hi then begin
        (* run boundaries (k = 2 may land mid-run when the first run is a
           multiplicity cluster, hence the clamp in [lo]) *)
        consider lo;
        consider hi;
        (* interior stationary point of the continuous relaxation
           f(k) = (n/(kp)) (S0 + (k - K0) L) - 2kM, maximised at
           k* = sqrt(n (K0 L - S0) / (2 M p)) when that quantity is
           positive *)
        let num =
          float_of_int n *. ((float_of_int !base_count *. lambda) -. !base_sum)
        in
        if num > 0.0 && m > 0 then begin
          let k_star = sqrt (num /. (2.0 *. float_of_int (m * p))) in
          let k0 = int_of_float k_star in
          for k = max lo (k0 - 2) to min hi (k0 + 2) do
            consider k
          done
        end
      end;
      base_sum := !base_sum +. (float_of_int mult *. lambda);
      base_count := run_end)
    runs;
  let best_raw = if !best_k = 0 then 0.0 else !best_raw in
  {
    Spectral_bound.bound = Float.max 0.0 best_raw;
    best_k = !best_k;
    best_raw;
    n;
    m;
    p;
    h = k_max;
  }

(* ------------------------------------------------------------------ *)
(* Spectrum cache plumbing                                             *)

(* The tolerance, seed and filter degree always stay at the eigensolver
   defaults, which [params_digest] encodes as [None]; only the dense
   crossover varies. *)
let cache_key ~method_tag ~dense_threshold ~h dag =
  {
    Graphio_cache.Spectrum.fingerprint = Dag.fingerprint dag;
    method_tag;
    h;
    params =
      Graphio_cache.Spectrum.params_digest ~dense_threshold ~tol:None
        ~seed:None ~filter_degree:None;
  }

let spectrum_key s ~method_ =
  cache_key ~method_tag:(Method.cache_char method_)
    ~dense_threshold:s.dense_threshold ~h:s.h

let ritz_key_of (key : Graphio_cache.Spectrum.key) : Graphio_cache.Spectrum.ritz_key =
  {
    fingerprint = key.Graphio_cache.Spectrum.fingerprint;
    method_tag = key.Graphio_cache.Spectrum.method_tag;
    params = key.Graphio_cache.Spectrum.params;
  }

(* Closed-form entries live under their own keys — the uppercase method
   tag and a canonical parameter digest (the closed form depends on none
   of the numeric solver knobs).  A [--no-closed-form] run therefore never
   reads bits a closed-form run cached, and vice versa: the differential
   battery's two tiers stay independent even under a shared disk cache. *)
let closed_form_key ~h ~method_ =
  cache_key
    ~method_tag:(Char.uppercase_ascii (Method.cache_char method_))
    ~dense_threshold:None ~h

let resolve_cache = function
  | Some cache -> cache
  | None ->
      Option.value
        (Graphio_cache.Spectrum.ambient ())
        ~default:Graphio_cache.Spectrum.disabled

(* Spectrum through the two-tier cache: a hit returns the cached
   eigenvalue array (bitwise identical to the solve that produced it —
   the disk codec round-trips IEEE bit patterns); a miss solves and
   populates both tiers.  [from_cache] tells the caller whether an
   eigensolve was paid.

   With [warm_start], a miss additionally consults the Ritz store under
   the h-less key (fingerprint, method, params): a donor block from a
   solve at a different [h] seeds the new solve's initial subspace
   (truncated or padded by Filtered), and the new solve's locked Ritz
   vectors are stored back under keep-max-h.  A warm-started solve
   converges to the same spectrum within tolerance but takes a different
   FP path than a cold one — the documented, flag-gated relaxation of
   the bitwise-determinism contract (docs/PERFORMANCE.md). *)
let spectrum_cached s ~method_ dag =
  if Dag.n_vertices dag = 0 then ([||], Eigen.Dense, None, false, Numeric, false)
  else
    match
      if s.closed_form then closed_form_spectrum ~method_ ~h:s.h dag else None
    with
    | Some (family, eigenvalues) -> (
        (* the closed form is recomputed (it is cheap and deterministic);
           the cache is still consulted under the closed-form key so a
           repeat query reports a cache hit and a warm disk tier keeps
           replies bitwise-stable across processes *)
        let key = closed_form_key ~h:s.h ~method_ dag in
        match Graphio_cache.Spectrum.find s.cache key with
        | Some e ->
            record_closed_form ~family ~cache_hit:true;
            ( e.Graphio_cache.Spectrum.eigenvalues,
              Eigen.Dense,
              None,
              true,
              Closed_form family,
              false )
        | None ->
            Graphio_cache.Spectrum.add s.cache key
              { Graphio_cache.Spectrum.eigenvalues; dense = true };
            record_closed_form ~family ~cache_hit:false;
            (eigenvalues, Eigen.Dense, None, false, Closed_form family, false))
    | None -> begin
    let key = spectrum_key s ~method_ dag in
    let log_spectrum ~cache_hit ~warm =
      if Graphio_obs.Log.enabled Graphio_obs.Log.Debug then
        Graphio_obs.Log.emit ~level:Graphio_obs.Log.Debug "solver.spectrum"
          [
            ( "fingerprint",
              Graphio_obs.Jsonx.String
                (Printf.sprintf "%016Lx" key.Graphio_cache.Spectrum.fingerprint)
            );
            ( "method",
              Graphio_obs.Jsonx.String
                (String.make 1 (Method.cache_char method_)) );
            ("h", Graphio_obs.Jsonx.Int s.h);
            ("cache_hit", Graphio_obs.Jsonx.Bool cache_hit);
            ("warm_start", Graphio_obs.Jsonx.Bool warm);
          ]
    in
    match Graphio_cache.Spectrum.find s.cache key with
    | Some e ->
        log_spectrum ~cache_hit:true ~warm:false;
        ( e.Graphio_cache.Spectrum.eigenvalues,
          (if e.Graphio_cache.Spectrum.dense then Eigen.Dense
           else Eigen.Sparse_filtered),
          None,
          true,
          Numeric,
          false )
    | None ->
        let rkey = ritz_key_of key in
        let n = Dag.n_vertices dag in
        let init, warm =
          if s.warm_start then
            match Graphio_cache.Spectrum.find_ritz s.cache rkey with
            | Some r when r.Graphio_cache.Spectrum.n = n ->
                Graphio_obs.Metrics.incr c_warm_hits;
                (Some r.Graphio_cache.Spectrum.vectors, true)
            | _ -> (None, false)
          else (None, false)
        in
        let eigenvalues, backend, stats, vectors =
          spectrum_full s ~method_ ?init dag
        in
        Graphio_cache.Spectrum.add s.cache key
          { Graphio_cache.Spectrum.eigenvalues; dense = backend = Eigen.Dense };
        (if s.warm_start then
           match (vectors, backend) with
           | Some vs, Eigen.Sparse_filtered when Array.length vs > 0 ->
               Graphio_cache.Spectrum.add_ritz s.cache rkey
                 { Graphio_cache.Spectrum.n; h = Array.length vs; vectors = vs }
           | _ -> ());
        log_spectrum ~cache_hit:false ~warm;
        (eigenvalues, backend, stats, false, Numeric, warm)
      end

(* ------------------------------------------------------------------ *)
(* Component decomposition                                             *)

(* The Laplacian of a disjoint union is block-diagonal, so its spectrum is
   the multiset union of the per-component spectra.  Each weakly-connected
   component is recognized, solved and cached on its own; [u_extra]
   converts the component's own Theorem-5 scaling [1/d_comp] to the
   union's [1/d_union], so per-component cache entries stay reusable
   across different unions.  Merging the scaled spectra and running one
   k-maximization over the union's [n] reproduces the whole-graph bound
   to eigensolver tolerance (exactly, for closed-form components). *)
type unit_ = { u_dag : Dag.t; u_extra : float }

let split_units ~method_ parts =
  let extra =
    match method_ with
    | Normalized -> fun _ -> 1.0
    | Standard | Adjacency | Signless ->
        (* the rescale is sound for the surrogate variants too: each
           component's scaled surrogate satisfies [s_c <= lambda(L_c)/d_c],
           so [s_c * d_c/d_union <= lambda(L_c)/d_union], and the merged
           multiset stays a pointwise lower bound on the union spectrum
           under the union's Theorem-5 scaling *)
        let d_union =
          Array.fold_left (fun acc g -> max acc (Dag.max_out_degree g)) 0 parts
        in
        fun g ->
          let d = Dag.max_out_degree g in
          if d = 0 || d = d_union then 1.0
          else float_of_int d /. float_of_int d_union
    | Visit | Portfolio ->
        invalid_arg "Solver.split_units: not a spectral method"
  in
  Array.map (fun g -> { u_dag = g; u_extra = extra g }) parts

(* one logical evaluation: the component units whose spectra it merges *)
type eval_item = {
  it_units : unit_ array;
  it_n : int;
  it_m : int;
  it_p : int option;
  it_method : method_;
}

(* The parts a request solves: every weakly-connected component of each
   graph, in order.  A connected graph is its own one part (the same
   physical value, so the undecomposed pipeline is bit-for-bit
   unchanged) and an empty graph has none.  [bound_parts] splits its
   parts again, since a caller-supplied part may itself be disconnected
   (an external decomposer owes us no guarantee); that is a union-find
   pass per connected part, cheap next to any eigensolve, and it unlocks
   per-component closed-form recognition and cache sharing. *)
let split_parts graphs =
  Graphio_obs.Span.with_ "solver.split" (fun () ->
      Array.concat
        (Array.to_list
           (Array.map (fun g -> Array.map fst (Component.split g)) graphs)))

let c_decompositions = Graphio_obs.Metrics.counter "core.solver.decompositions"

let maximize it eigenvalues =
  Graphio_obs.Span.with_ "solver.maximize" (fun () ->
      Spectral_bound.compute ~n:it.it_n ~m:it.it_m ?p:it.it_p ~eigenvalues ())

(* Evaluate items against the cache.  All units of all items are flattened
   and deduplicated by spectrum key before any eigensolve — an M-sweep
   over one graph and the repeated components of a disjoint union share
   work through the same mechanism — and distinct spectra solve
   concurrently on [pool] (a single distinct spectrum instead gives the
   pool to its matvecs).  Returns per-item [(outcome, cache_hit, wall_s)]
   plus the flat unit count and the number of spectra not answered from
   cache, for the batch hit/miss counters. *)
let eval_items s items =
  let n_items = Array.length items in
  let offsets = Array.make (n_items + 1) 0 in
  for i = 0 to n_items - 1 do
    offsets.(i + 1) <- offsets.(i) + Array.length items.(i).it_units
  done;
  let n_flat = offsets.(n_items) in
  let flat_units =
    Array.concat (Array.to_list (Array.map (fun it -> it.it_units) items))
  in
  let flat_method =
    Array.concat
      (Array.to_list
         (Array.map
            (fun it -> Array.map (fun _ -> it.it_method) it.it_units)
            items))
  in
  let keys =
    Array.mapi
      (fun i u -> spectrum_key s ~method_:flat_method.(i) u.u_dag)
      flat_units
  in
  let rep_of_key = Hashtbl.create (max n_flat 16) in
  let reps = ref [] in
  Array.iteri
    (fun i k ->
      if not (Hashtbl.mem rep_of_key k) then begin
        Hashtbl.add rep_of_key k i;
        reps := i :: !reps
      end)
    keys;
  let reps = Array.of_list (List.rev !reps) in
  let n_reps = Array.length reps in
  let spectra =
    Array.make n_reps ([||], Eigen.Dense, None, false, Numeric, false, 0.0)
  in
  let solve s r =
    let u = flat_units.(reps.(r)) in
    let t0 = Graphio_obs.Clock.now_ns () in
    let eigenvalues, backend, stats, from_cache, tier, warm =
      spectrum_cached s ~method_:flat_method.(reps.(r)) u.u_dag
    in
    spectra.(r) <-
      ( eigenvalues,
        backend,
        stats,
        from_cache,
        tier,
        warm,
        Graphio_obs.Clock.elapsed_s t0 )
  in
  (match s.pool with
  | Some pool when n_reps > 1 ->
      let s = { s with pool = None } in
      Graphio_par.Pool.parallel_for ~chunk:1 pool ~lo:0 ~hi:n_reps (fun r ->
          solve s r)
  | _ ->
      for r = 0 to n_reps - 1 do
        solve s r
      done);
  let misses = ref 0 in
  Array.iter
    (fun (_, _, _, from_cache, _, _, _) -> if not from_cache then incr misses)
    spectra;
  let slot_of_rep = Hashtbl.create (max n_reps 16) in
  Array.iteri (fun slot r -> Hashtbl.add slot_of_rep r slot) reps;
  (* Finalize every item in input order: scale each unit's (physically
     shared) spectrum, merge, and run the cheap k-maximization once over
     the union.  The eigensolve wall time is attributed to the item whose
     unit actually paid for it (the first flat occurrence of each key). *)
  let finalize i =
    let it = items.(i) in
    let tstart = Graphio_obs.Clock.now_ns () in
    let nu = Array.length it.it_units in
    if nu = 0 then
      ( {
          result = maximize it [||];
          method_ = it.it_method;
          backend = Eigen.Dense;
          eigenvalues = [||];
          solve_stats = None;
          tier = Numeric;
          warm_start = false;
          components = [||];
          methods = [||];
          winner = None;
        },
        false,
        Graphio_obs.Clock.elapsed_s tstart )
    else begin
      let owned_solve_s = ref 0.0 in
      let urs =
        Array.init nu (fun k ->
            let gi = offsets.(i) + k in
            let rep = Hashtbl.find rep_of_key keys.(gi) in
            let ev, backend, stats, from_cache, tier, warm, solve_s =
              spectra.(Hashtbl.find slot_of_rep rep)
            in
            if rep = gi then owned_solve_s := !owned_solve_s +. solve_s;
            (ev, backend, stats, rep <> gi || from_cache, tier, warm))
      in
      let decomposed = nu > 1 in
      let ev0, backend0, stats0, hit0, tier0, warm0 = urs.(0) in
      let eigenvalues =
        if not decomposed then begin
          let extra = it.it_units.(0).u_extra in
          if extra = 1.0 then ev0 else Array.map (fun l -> extra *. l) ev0
        end
        else begin
          let merged =
            Array.concat
              (Array.to_list
                 (Array.mapi
                    (fun k (ev, _, _, _, _, _) ->
                      let extra = it.it_units.(k).u_extra in
                      if extra = 1.0 then ev
                      else Array.map (fun l -> extra *. l) ev)
                    urs))
          in
          Array.sort Float.compare merged;
          Array.sub merged 0 (min (min s.h it.it_n) (Array.length merged))
        end
      in
      let result = maximize it eigenvalues in
      let backend =
        if not decomposed then backend0
        else if
          Array.exists
            (fun (_, b, _, _, _, _) -> b = Eigen.Sparse_filtered)
            urs
        then Eigen.Sparse_filtered
        else Eigen.Dense
      in
      let tier =
        if not decomposed then tier0
        else if
          Array.exists
            (fun (_, _, _, _, t, _) ->
              match t with Numeric -> true | Closed_form _ -> false)
            urs
        then Numeric
        else tier0
      in
      let solve_stats = if decomposed then None else stats0 in
      let warm =
        if not decomposed then warm0
        else Array.exists (fun (_, _, _, _, _, w) -> w) urs
      in
      let cache_hit =
        if not decomposed then hit0
        else Array.for_all (fun (_, _, _, ch, _, _) -> ch) urs
      in
      let components =
        if not decomposed then [||]
        else
          Array.mapi
            (fun k (_, b, _, ch, t, w) ->
              {
                comp_n = Dag.n_vertices it.it_units.(k).u_dag;
                comp_edges = Dag.n_edges it.it_units.(k).u_dag;
                comp_tier = t;
                comp_backend = b;
                comp_cache_hit = ch;
                comp_warm_start = w;
              })
            urs
      in
      if decomposed then Graphio_obs.Metrics.incr c_decompositions;
      ( {
          result;
          method_ = it.it_method;
          backend;
          eigenvalues;
          solve_stats;
          tier;
          warm_start = warm;
          components;
          methods = [||];
          winner = None;
        },
        cache_hit,
        Graphio_obs.Clock.elapsed_s tstart +. !owned_solve_s )
    end
  in
  (Array.init n_items finalize, n_flat, !misses)

(* ------------------------------------------------------------------ *)
(* Portfolio request layer                                             *)

(* A request is one user-level bound query: its (decomposed) parts plus
   the concrete member methods to evaluate.  Non-portfolio queries are
   single-member requests that reduce to exactly the old pipeline. *)
type request = {
  rq_parts : Dag.t array;
  rq_n : int;
  rq_m : int;
  rq_p : int option;
  rq_method : method_;
  rq_members : method_ array;
}

let members_of ~portfolio method_ =
  match (method_ : method_) with
  | Portfolio ->
      let ms =
        match portfolio with
        | None -> Method.default_portfolio
        | Some ms ->
            if ms = [] then
              invalid_arg "Solver: empty portfolio member list";
            if List.mem Portfolio ms then
              invalid_arg "Solver: portfolio cannot contain itself";
            (* canonicalize: dedup, in the fixed [Method.concrete] order
               (also the deterministic winner tie-break order) *)
            List.filter (fun m -> List.mem m ms) Method.concrete
      in
      Array.of_list ms
  | m -> [| m |]

let request ~portfolio ~method_ ~m ~p parts =
  (* checked before any member runs, so every method rejects it alike *)
  (match p with
  | Some p when p < 1 -> invalid_arg "Solver: p must be >= 1"
  | _ -> ());
  {
    rq_parts = parts;
    rq_n = Array.fold_left (fun acc g -> acc + Dag.n_vertices g) 0 parts;
    rq_m = m;
    rq_p = p;
    rq_method = method_;
    rq_members = members_of ~portfolio method_;
  }

let request_of_dag ~decompose ~portfolio ~method_ ~m ~p g =
  let parts = if decompose then split_parts [| g |] else [||] in
  (* undecomposed, or empty: the graph is the one part *)
  request ~portfolio ~method_ ~m ~p
    (if Array.length parts = 0 then [| g |] else parts)

let h_visit_seconds = Graphio_obs.Metrics.histogram "core.solver.visit_seconds"

(* The visit bound of a (possibly decomposed) request: per-component
   bounds summed — sound because restricting a schedule of the union to
   one component is a feasible schedule of it, so
   [J*(union) >= sum_i J*(G_i)].  On [p] processors the aggregate fast
   memory is [p * M], so the counted-cut excess uses that capacity. *)
let visit_outcome ~profile_of ~n ~m ~p parts =
  let m_eff = match p with None -> m | Some p -> m * p in
  let total =
    Array.fold_left
      (fun acc g ->
        acc + Visit_bound.bound_of_profile (profile_of g) ~m:m_eff)
      0 parts
  in
  let b = float_of_int total in
  let result =
    {
      Spectral_bound.bound = b;
      best_k = 0;
      best_raw = b;
      n;
      m;
      p = (match p with None -> 1 | Some p -> p);
      h = 0;
    }
  in
  let components =
    if Array.length parts <= 1 then [||]
    else
      Array.map
        (fun g ->
          {
            comp_n = Dag.n_vertices g;
            comp_edges = Dag.n_edges g;
            comp_tier = Numeric;
            comp_backend = Eigen.Dense;
            comp_cache_hit = false;
            comp_warm_start = false;
          })
        parts
  in
  {
    result;
    method_ = Visit;
    backend = Eigen.Dense;
    eigenvalues = [||];
    solve_stats = None;
    tier = Numeric;
    warm_start = false;
    components;
    methods = [||];
    winner = None;
  }

let assemble_portfolio rq member_results =
  let nmem = Array.length rq.rq_members in
  let wi = ref 0 in
  for i = 1 to nmem - 1 do
    let o, _, _ = member_results.(i) in
    let ow, _, _ = member_results.(!wi) in
    (* strict: ties keep the earliest member in canonical order *)
    if o.result.Spectral_bound.bound > ow.result.Spectral_bound.bound then
      wi := i
  done;
  let wo, _, _ = member_results.(!wi) in
  let methods =
    Array.map2
      (fun member (o, ch, w) ->
        {
          mv_method = member;
          mv_bound = o.result.Spectral_bound.bound;
          mv_best_k = o.result.Spectral_bound.best_k;
          mv_best_raw = o.result.Spectral_bound.best_raw;
          mv_tier = o.tier;
          mv_cache_hit = ch;
          mv_warm_start = o.warm_start;
          mv_wall_s = w;
        })
      rq.rq_members member_results
  in
  (* portfolio-level cache_hit: every spectral member answered from
     cache (the visit bound is recomputed by design — it depends on M
     and lives outside the spectrum cache) *)
  let cache_hit =
    let any = ref false and all = ref true in
    Array.iteri
      (fun i member ->
        if Method.is_spectral member then begin
          any := true;
          let _, ch, _ = member_results.(i) in
          if not ch then all := false
        end)
      rq.rq_members;
    !any && !all
  in
  let wall =
    Array.fold_left (fun acc (_, _, w) -> acc +. w) 0.0 member_results
  in
  ( { wo with method_ = Portfolio; winner = Some rq.rq_members.(!wi); methods },
    cache_hit,
    wall )

(* Evaluate requests: every spectral member of every request becomes one
   {!eval_item}, and they all share a single {!eval_items} pass — so the
   members of one portfolio query, like the jobs of one batch, dedup
   their eigensolves through the flat key table.  Visit members are
   evaluated combinatorially with per-fingerprint profile memoization
   (the profile is M-independent, so an M-sweep pays for its flow
   computations once). *)
let eval_requests s reqs =
  let items = ref [] and backptr = ref [] in
  Array.iteri
    (fun ri rq ->
      Array.iteri
        (fun mi member ->
          if Method.is_spectral member then begin
            items :=
              {
                it_units = split_units ~method_:member rq.rq_parts;
                it_n = rq.rq_n;
                it_m = rq.rq_m;
                it_p = rq.rq_p;
                it_method = member;
              }
              :: !items;
            backptr := (ri, mi) :: !backptr
          end)
        rq.rq_members)
    reqs;
  let items = Array.of_list (List.rev !items) in
  let backptr = Array.of_list (List.rev !backptr) in
  let spectral_results, n_flat, misses = eval_items s items in
  let by_slot = Hashtbl.create 16 in
  Array.iteri
    (fun i bp -> Hashtbl.replace by_slot bp spectral_results.(i))
    backptr;
  let profile_memo = Hashtbl.create 16 in
  let profile_of g =
    let fp = Dag.fingerprint g in
    match Hashtbl.find_opt profile_memo fp with
    | Some prof -> prof
    | None ->
        let prof =
          Graphio_obs.Span.with_ "solver.visit_profile" (fun () ->
              Graphio_obs.Metrics.time h_visit_seconds (fun () ->
                  Visit_bound.profile g))
        in
        Hashtbl.add profile_memo fp prof;
        prof
  in
  let results =
    Array.mapi
      (fun ri rq ->
        let member_results =
          Array.mapi
            (fun mi member ->
              if Method.is_spectral member then Hashtbl.find by_slot (ri, mi)
              else begin
                let t0 = Graphio_obs.Clock.now_ns () in
                let o =
                  visit_outcome ~profile_of ~n:rq.rq_n ~m:rq.rq_m ~p:rq.rq_p
                    rq.rq_parts
                in
                (o, false, Graphio_obs.Clock.elapsed_s t0)
              end)
            rq.rq_members
        in
        match rq.rq_method with
        | Portfolio -> assemble_portfolio rq member_results
        | _ -> member_results.(0))
      reqs
  in
  (results, n_flat, misses)

(* The plain entry points: one request, timed and spanned as
   [solver.bound].  They keep [defaults.cache], which is [disabled], not
   [ambient]: they never touch a cache (nor move its metrics), while
   in-flight dedup of repeated components still happens through the flat
   key table. *)
let bound_one s make_request =
  Graphio_obs.Metrics.time h_bound_seconds (fun () ->
      Graphio_obs.Span.with_ "solver.bound" (fun () ->
          Graphio_obs.Metrics.incr c_bounds;
          let results, _, _ = eval_requests s [| make_request () |] in
          let outcome, _, _ = results.(0) in
          outcome))

let bound ?(method_ = Normalized) ?portfolio ?(h = 100) ?p ?dense_threshold
    ?pool ?(closed_form = true) ?(decompose = true) g ~m =
  bound_one { defaults with pool; h; dense_threshold; closed_form } (fun () ->
      request_of_dag ~decompose ~portfolio ~method_ ~m ~p g)

let bound_parts ?(method_ = Normalized) ?portfolio ?(h = 100) ?p
    ?(closed_form = true) parts ~m =
  bound_one { defaults with h; closed_form } (fun () ->
      request ~portfolio ~method_ ~m ~p (split_parts parts))

(* ------------------------------------------------------------------ *)
(* Batch driver                                                        *)

type batch_job = {
  dag : Dag.t;
  m : int;
  p : int option;
  method_ : method_;
}

let job ?(method_ = Normalized) ?p dag ~m = { dag; m; p; method_ }

type batch_result = {
  job : batch_job;
  outcome : outcome;
  cache_hit : bool;
  wall_s : float;
}

let c_batch_jobs = Graphio_obs.Metrics.counter "core.solver.batch_jobs"
let c_batch_hits = Graphio_obs.Metrics.counter "core.solver.batch_cache_hits"
let c_batch_misses = Graphio_obs.Metrics.counter "core.solver.batch_cache_misses"
let h_batch_job_seconds =
  Graphio_obs.Metrics.histogram "core.solver.batch_job_seconds"

let request_of_job ~portfolio j =
  request_of_dag ~decompose:true ~portfolio ~method_:j.method_ ~m:j.m ~p:j.p
    j.dag

let bound_batch ?cache ?pool ?portfolio ?(h = 100) ?dense_threshold
    ?(warm_start = false) ?(closed_form = true) jobs =
  Graphio_obs.Span.with_ "solver.bound_batch" (fun () ->
      let s =
        {
          defaults with
          cache = resolve_cache cache;
          pool;
          h;
          dense_threshold;
          warm_start;
          closed_form;
        }
      in
      (* In-batch dedup happens on the flat unit table inside
         {!eval_items}: jobs that share (graph, method, h, params) — the
         typical M- or p-sweep, or the spectral members of portfolio
         jobs — and the repeated components of decomposed jobs pay for
         each eigensolve at most once and share one physical eigenvalue
         array.  Keys hash the graph structure ({!Dag.fingerprint}), so
         structurally equal graphs built independently still share.
         Output is deterministic regardless of pool presence, pool size,
         or cache warmth (bitwise-reproducible parallel matvec, bit-exact
         cache codec). *)
      let results, n_flat, misses =
        eval_requests s (Array.map (request_of_job ~portfolio) jobs)
      in
      Graphio_obs.Metrics.add c_batch_jobs (Array.length jobs);
      Graphio_obs.Metrics.add c_batch_misses misses;
      Graphio_obs.Metrics.add c_batch_hits (n_flat - misses);
      Array.mapi
        (fun i j ->
          let outcome, cache_hit, wall_s = results.(i) in
          Graphio_obs.Metrics.observe h_batch_job_seconds wall_s;
          { job = j; outcome; cache_hit; wall_s })
        jobs)

let bound_cached ?cache ?pool ?portfolio ?(h = 100) ?dense_threshold
    ?(warm_start = false) ?on_iteration ?(closed_form = true) job =
  Graphio_obs.Span.with_ "solver.bound_cached" (fun () ->
      Graphio_obs.Metrics.incr c_bounds;
      let s =
        {
          cache = resolve_cache cache;
          pool;
          on_iteration;
          h;
          dense_threshold;
          warm_start;
          closed_form;
        }
      in
      let t0 = Graphio_obs.Clock.now_ns () in
      let results, _, _ =
        eval_requests s [| request_of_job ~portfolio job |]
      in
      let outcome, cache_hit, _ = results.(0) in
      let wall_s = Graphio_obs.Clock.elapsed_s t0 in
      Graphio_obs.Metrics.observe h_bound_seconds wall_s;
      let fields =
        [
          ("n", Graphio_obs.Jsonx.Int (Dag.n_vertices job.dag));
          ("m", Graphio_obs.Jsonx.Int job.m);
          ( "bound",
            Graphio_obs.Jsonx.Float outcome.result.Spectral_bound.bound );
          ("cache_hit", Graphio_obs.Jsonx.Bool cache_hit);
          ("tier", Graphio_obs.Jsonx.String (tier_name outcome.tier));
          ("warm_start", Graphio_obs.Jsonx.Bool outcome.warm_start);
          ("wall_s", Graphio_obs.Jsonx.Float wall_s);
        ]
      in
      let fields =
        if Array.length outcome.components = 0 then fields
        else
          fields
          @ [
              ( "components",
                Graphio_obs.Jsonx.Int (Array.length outcome.components) );
            ]
      in
      Graphio_obs.Log.emit "solver.bound" fields;
      { job; outcome; cache_hit; wall_s })
