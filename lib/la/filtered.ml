type result = {
  values : float array;
  vectors : float array array option;
  iterations : int;
  matvecs : int;
  converged : bool;
  padded : int;
}

(* Unchecked access: every vector of a solve has length n, and the
   small matrices are b x b. *)
external get : float array -> int -> float = "%array_unsafe_get"
external set : float array -> int -> float -> unit = "%array_unsafe_set"

(* Degree-[d] Chebyshev filter applied to one vector, in place:
   x <- T_d((A - c I)/e) x  with  c = (up + cut)/2, e = (up - cut)/2.
   T_d is <= 1 in magnitude on [cut, up] and grows like
   cosh(d arccosh(|t|)) below cut, so wanted components dominate after
   filtering.  Columns are renormalized when they grow huge; the caller
   re-orthonormalizes afterwards anyway.  The three-term recurrence
   rotates through [bufs], four length-n arrays allocated once per
   solve, and the overflow guard's infinity norm ([Vec.norm_inf]'s fold)
   is folded into the recurrence loop. *)
let chebyshev_apply ~matvec ~matvec_count ~c ~e ~degree bufs x =
  let n = Array.length x in
  let t0 = bufs.(0) and t1 = bufs.(1) and av = bufs.(3) in
  Array.blit x 0 t0 0 n;
  matvec t0 av;
  incr matvec_count;
  for i = 0 to n - 1 do
    set t1 i ((get av i -. (c *. get t0 i)) /. e)
  done;
  let two_e = 2.0 /. e in
  let t0 = ref t0 and t1 = ref t1 and t2 = ref bufs.(2) in
  for _ = 2 to degree do
    matvec !t1 av;
    incr matvec_count;
    let a = !t0 and b = !t1 and out = !t2 in
    let nrm = ref 0.0 in
    for i = 0 to n - 1 do
      let y = (two_e *. (get av i -. (c *. get b i))) -. get a i in
      set out i y;
      nrm := Vec.max_abs !nrm y
    done;
    (* guard against overflow of the unnormalized polynomial *)
    if !nrm > 1e120 then begin
      let s = 1.0 /. !nrm in
      Vec.scale_inplace s out;
      Vec.scale_inplace s b
    end;
    t0 := b;
    t1 := out;
    t2 := a
  done;
  Array.blit !t1 0 x 0 n

(* Two passes of modified Gram-Schmidt against [block.(0 .. j-1)], each
   axpy fused with the next projection's dot: v <- v - c_t b_t, and in
   the same loop c_(t+1) = b_(t+1) . v.  A zero coefficient skips its
   axpy, as [Vec.orthogonalize_against] does. *)
let orthogonalize_prefix block j v =
  if j > 0 then begin
    let n = Array.length v and steps = 2 * j in
    let c = ref (Vec.dot block.(0) v) in
    for t = 0 to steps - 1 do
      let b = block.(t mod j) and nc = -. !c in
      if t + 1 = steps then begin
        if !c <> 0.0 then
          for i = 0 to n - 1 do
            set v i ((nc *. get b i) +. get v i)
          done
      end
      else begin
        let next = block.((t + 1) mod j) in
        if !c <> 0.0 then begin
          let acc = ref 0.0 in
          for i = 0 to n - 1 do
            let y = (nc *. get b i) +. get v i in
            set v i y;
            acc := !acc +. (get next i *. y)
          done;
          c := !acc
        end
        else c := Vec.dot next v
      end
    done
  end

(* Orthonormalize the block in place (two-pass modified Gram-Schmidt);
   columns that collapse are replaced by fresh random directions
   orthogonalized against everything already accepted. *)
let orthonormalize_block rng block =
  let b = Array.length block in
  for j = 0 to b - 1 do
    let rec fix attempts v =
      orthogonalize_prefix block j v;
      let nv = Vec.norm2 v in
      if nv > 1e-10 then begin
        Vec.scale_inplace (1.0 /. nv) v;
        v
      end
      else if attempts <= 0 then begin
        (* keep a deterministic fallback direction *)
        Vec.scale_inplace 0.0 v;
        v.(j mod Array.length v) <- 1.0;
        orthogonalize_prefix block j v;
        Vec.normalize_inplace v;
        v
      end
      else fix (attempts - 1) (Rng.unit_vector rng (Array.length v))
    in
    block.(j) <- fix 3 block.(j)
  done

(* The Rayleigh-Ritz data H = X^T A X and G = (AX)^T AX, row-major b x b,
   four columns at a time: one pass over the vectors forms H and G for
   columns j..j+3 of row i.  Each entry is still one left-to-right dot
   ([Vec.dot]'s order); the upper triangle is computed and mirrored. *)
let gram block ax hm gm =
  let b = Array.length block in
  let n = if b = 0 then 0 else Array.length block.(0) in
  let store i j h g =
    set hm ((i * b) + j) h;
    set hm ((j * b) + i) h;
    set gm ((i * b) + j) g;
    set gm ((j * b) + i) g
  in
  for i = 0 to b - 1 do
    let x = block.(i) and y = ax.(i) in
    let j = ref i in
    while !j + 3 < b do
      let j0 = !j in
      let a0 = ax.(j0) and a1 = ax.(j0 + 1) and a2 = ax.(j0 + 2)
      and a3 = ax.(j0 + 3) in
      let h0 = ref 0.0 and h1 = ref 0.0 and h2 = ref 0.0 and h3 = ref 0.0 in
      let g0 = ref 0.0 and g1 = ref 0.0 and g2 = ref 0.0 and g3 = ref 0.0 in
      for k = 0 to n - 1 do
        let xk = get x k and yk = get y k in
        let c0 = get a0 k and c1 = get a1 k and c2 = get a2 k and c3 = get a3 k in
        h0 := !h0 +. (xk *. c0);
        h1 := !h1 +. (xk *. c1);
        h2 := !h2 +. (xk *. c2);
        h3 := !h3 +. (xk *. c3);
        g0 := !g0 +. (yk *. c0);
        g1 := !g1 +. (yk *. c1);
        g2 := !g2 +. (yk *. c2);
        g3 := !g3 +. (yk *. c3)
      done;
      store i j0 !h0 !g0;
      store i (j0 + 1) !h1 !g1;
      store i (j0 + 2) !h2 !g2;
      store i (j0 + 3) !h3 !g3;
      j := j0 + 4
    done;
    for j = !j to b - 1 do
      store i j (Vec.dot x ax.(j)) (Vec.dot y ax.(j))
    done
  done

let c_matvecs = Graphio_obs.Metrics.counter "la.eigen.matvecs"
let c_restarts = Graphio_obs.Metrics.counter "la.eigen.restarts"
let c_locked = Graphio_obs.Metrics.counter "la.eigen.locked"
let c_padded = Graphio_obs.Metrics.counter "la.eigen.padded"
let g_degree = Graphio_obs.Metrics.gauge "la.eigen.filter_degree"

let min_auto_degree = 4
let max_auto_degree = 80

(* Auto-tuned filter degree for the next sweep.

   Every sweep costs b*(1 + d) matvecs (Rayleigh-Ritz plus filter) and
   the Chebyshev log-damping of the blocking component is linear in d
   (cosh(d arccosh t) for t = (c - theta)/e > 1), so damping per matvec
   is a constant of t: stretching the same total damping over more
   sweeps only adds Rayleigh-Ritz overhead, while overshooting past the
   lock threshold wastes whole multiples of it.  The tuner therefore
   right-sizes each sweep to the damping that remains: solve
   cosh(d arccosh t) = rho for rho = blocking_res / threshold (the decay
   still needed to lock the blocking vector), i.e.
   d = arccosh(2 rho) / arccosh t.

   A correction from the previous sweep absorbs what the
   single-component bound misses (clustered spectra damp slower; interval
   estimates from a random block flatter t): the sweep promised
   rho_pred = cosh(d_prev arccosh t_prev) but delivered r_prev/r, and
   the ratio of the two log-decays rescales the estimate, clamped to
   [0.5, 3].

   Both estimates are unreliable on the first sweep — Ritz values of a
   random block overestimate badly, and a weakly filtered guard zone
   makes the cut selection land inside clusters (collapsing t), so an
   under-sized opening filter sends the whole solve into a thrashing
   regime the single-component bound cannot predict.  The opening filter
   is therefore pinned at [first_degree_cap], the old fixed default,
   which empirically cleans the block enough for the gap scan; each
   subsequent sweep may at most triple its predecessor.  The adaptive
   win comes from the later sweeps: once the blocking residual is close
   to the lock threshold, the remaining damping is small and the
   right-sized closing filters are far shallower than a fixed degree
   keeps paying.

   A warm-started block (seeded from a donor solve's locked Ritz
   vectors) is the exception to the opening pin: its first Rayleigh-Ritz
   already locks a prefix, the guard zone is genuinely separated, and
   the spread estimate is honest — so when anything is locked before the
   first filter, d_need is trusted immediately.

   A residual that grew across a sweep normally asks for a deeper
   filter, but when the spread has also collapsed (t below
   [collapsed_spread]) it is evidence of cluster thrash: the cut sits
   inside an eigenvalue cluster straddling the block boundary, no degree
   separates what the interval cannot, and deep filters only rotate the
   basis and bounce the residual further.  The tuner retreats to the
   opening degree there — frequent Rayleigh-Ritz rounds give the gap
   scan (and ultimately the stall detector) their chance at minimal
   cost.

   The result is clamped to [min_auto_degree, max_auto_degree] and is a
   pure function of the solve trajectory — deterministic for a fixed
   seed and operator (docs/PERFORMANCE.md). *)
let first_degree_cap = 20

let collapsed_spread = 1.05

let auto_degree ~prev ~locked ~blocking_res ~threshold ~c ~e ~theta_block =
  let t = Float.max ((c -. theta_block) /. e) (1.0 +. 1e-9) in
  let rho = Float.max (blocking_res /. Float.max threshold 1e-300) 2.0 in
  let d_need = Float.acosh (4.0 *. rho) /. Float.acosh t in
  let scale, cap =
    match prev with
    | Some (d_prev, t_prev, r_prev)
      when blocking_res > 0.0 && r_prev > 0.0 && Float.is_finite r_prev ->
        let actual = r_prev /. blocking_res in
        if actual > 1.0 then
          let predicted =
            Float.cosh (float_of_int d_prev *. Float.acosh t_prev)
          in
          let scale =
            Float.min 3.0 (Float.max 0.5 (log predicted /. log actual))
          in
          (scale, 3 * d_prev)
        else if t < collapsed_spread then
          (1.0, first_degree_cap) (* cluster thrash: retreat, let RR work *)
        else (3.0, 3 * d_prev) (* residual refused to shrink: filter much deeper *)
    | Some (d_prev, _, _) -> (1.0, 3 * d_prev)
    | None when locked > 0 -> (1.0, max_auto_degree) (* warm start: trust d_need *)
    | None -> (infinity, first_degree_cap) (* pin the opening filter at the cap *)
  in
  let d = int_of_float (Float.ceil (Float.min (d_need *. scale) 1e6)) in
  (max min_auto_degree (min max_auto_degree (min cap d)), t)

let smallest ?(tol = 1e-6) ?(max_iterations = 300) ?(seed = 0x5eed)
    ?(want_vectors = false) ?init ?on_iteration ~matvec ~upper_bound ~n ~h () =
  if n <= 0 then invalid_arg "Filtered.smallest: n must be positive";
  if h <= 0 then invalid_arg "Filtered.smallest: h must be positive";
  if not (Float.is_finite upper_bound) then
    invalid_arg "Filtered.smallest: upper_bound must be finite";
  let h = min h n in
  let guard = max 16 (h / 3) in
  let b = min n (h + guard) in
  let rng = Rng.create seed in
  let matvec_count = ref 0 in
  let up = Float.max upper_bound 1e-300 *. (1.0 +. 1e-10) in
  (* Warm-start: seed leading columns from caller-provided vectors (locked
     Ritz vectors of a related solve).  A larger donor block is truncated
     to [b]; a smaller one is padded with the random tail.  Columns of the
     wrong length are ignored rather than rejected — the donor may come
     from a different graph revision via a stale cache. *)
  let block =
    Array.init b (fun j ->
        match init with
        | Some vs when j < Array.length vs && Array.length vs.(j) = n ->
            Array.copy vs.(j)
        | _ -> Rng.unit_vector rng n)
  in
  orthonormalize_block rng block;
  let ax = Array.init b (fun _ -> Array.make n 0.0) in
  let hm = Array.make (b * b) 0.0 and gm = Array.make (b * b) 0.0 in
  let gs = Array.make b 0.0 in
  let bufs = Array.init 4 (fun _ -> Array.make n 0.0) in
  let theta = ref [||] in
  (* Row j: the coefficients of Ritz vector j in the block's basis. *)
  let ritz = ref [||] in
  let converged_prefix = ref 0 in
  let iterations = ref 0 in
  let threshold = Float.max (tol *. up) 1e-13 in
  let finished = ref false in
  (* Stall detection: giant eigenvalue clusters straddling the block
     boundary (ubiquitous in matmul / hypercube Laplacians) leave the
     filter with no gap to exploit, so boundary copies converge extremely
     slowly.  When the converged prefix stops improving we give up on the
     tail and *pad* it with the last converged Ritz value.  The padding is
     uncertified, not a lower bound: Ritz values are upper bounds on the
     eigenvalues they approximate (Cauchy interlacing), so a padded entry
     can sit above the true lambda_i; it is right (to tolerance) only when
     the cluster is flat.  [padded] reports how many entries this touched; one-sided
     certificates are ROADMAP.md item 1. *)
  (* Checkpoint-based stall detection: every [stall_window] iterations the
     run must either have advanced the converged prefix or have shrunk the
     first blocking residual by at least 2x.  Healthy geometric convergence
     clears that bar easily; the no-gap cluster regime (residual decaying
     by ~1% per iteration) does not and is cut off with padding. *)
  let stall_window = 25 in
  let checkpoint_prefix = ref (-1) in
  let checkpoint_res = ref infinity in
  let stalled = ref false in
  (* (degree, t, blocking residual) of the previous sweep, for the
     observed-decay correction of the auto-tuner. *)
  let prev_sweep = ref None in
  while (not !finished) && !iterations < max_iterations do
    incr iterations;
    (* Rayleigh-Ritz data: AX, H = X^T A X, G = (AX)^T AX. *)
    for j = 0 to b - 1 do
      matvec block.(j) ax.(j);
      incr matvec_count
    done;
    gram block ax hm gm;
    let th, s = Tql.dense_eigensystem ~n:b hm in
    theta := th;
    ritz := s;
    (* Converged prefix by residual norms computed in the small basis:
       ||A y_i - th_i y_i||^2 = s_i^T G s_i - th_i^2  (X orthonormal). *)
    let prefix = ref 0 in
    let stop = ref false in
    let blocking_res = ref 0.0 in
    while (not !stop) && !prefix < min h b do
      let sj = !prefix * b in
      for i = 0 to b - 1 do
        let gi = i * b in
        let acc = ref 0.0 in
        for k2 = 0 to b - 1 do
          acc := !acc +. (get gm (gi + k2) *. get s (sj + k2))
        done;
        set gs i !acc
      done;
      let sgs = ref 0.0 in
      for i = 0 to b - 1 do
        sgs := !sgs +. (get s (sj + i) *. get gs i)
      done;
      let j = !prefix in
      let res2 = Float.max 0.0 (!sgs -. (th.(j) *. th.(j))) in
      let res = sqrt res2 in
      if res <= threshold then incr prefix
      else begin
        blocking_res := res;
        stop := true
      end
    done;
    converged_prefix := !prefix;
    (match on_iteration with
    | None -> ()
    | Some f ->
        f
          {
            Convergence.iteration = !iterations;
            matvecs = !matvec_count;
            locked = !prefix;
            residual = !blocking_res;
          });
    if !iterations mod stall_window = 0 then begin
      if !prefix <= !checkpoint_prefix && !blocking_res > 0.5 *. !checkpoint_res
      then stalled := true
      else begin
        checkpoint_prefix := !prefix;
        checkpoint_res := !blocking_res
      end
    end;
    if !prefix >= h || b >= n || (!stalled && !prefix > 0) then finished := true
    else begin
      (* Filter interval: damp [cut, up] where cut sits just above the
         wanted part of the current Ritz spectrum.  Prefer a genuine gap
         inside the guard zone: if the cut landed inside a multiplicity
         cluster straddling position h, the boundary members would sit on
         the edge of the damped region and never converge — so scan for
         the first guard Ritz value clearly above th.(h-1), falling back
         to the top of the block (weakest but safe filter). *)
      let cut_raw =
        let base = min (b - 1) h in
        let chosen = ref (b - 1) in
        (try
           for j = base to b - 1 do
             if th.(j) -. th.(max 0 (h - 1)) > 1e-4 *. up then begin
               chosen := j;
               raise Exit
             end
           done
         with Exit -> ());
        th.(!chosen)
      in
      let lo = Float.max th.(0) 0.0 in
      let cut = Float.min (Float.max cut_raw (lo +. (1e-6 *. up))) (0.95 *. up) in
      let c = (up +. cut) /. 2.0
      and e = Float.max ((up -. cut) /. 2.0) (1e-12 *. up) in
      let d, t =
        auto_degree ~prev:!prev_sweep ~locked:!prefix
          ~blocking_res:!blocking_res ~threshold ~c ~e ~theta_block:th.(!prefix)
      in
      Graphio_obs.Metrics.set g_degree (float_of_int d);
      if Graphio_obs.Log.enabled Graphio_obs.Log.Debug then
        Graphio_obs.Log.emit ~level:Graphio_obs.Log.Debug "solver.filter_degree"
          [
            ("sweep", Graphio_obs.Jsonx.Int !iterations);
            ("degree", Graphio_obs.Jsonx.Int d);
            ("locked", Graphio_obs.Jsonx.Int !prefix);
            ("residual", Graphio_obs.Jsonx.Float !blocking_res);
            ("spread", Graphio_obs.Jsonx.Float t);
          ];
      prev_sweep := Some (d, t, !blocking_res);
      for j = 0 to b - 1 do
        chebyshev_apply ~matvec ~matvec_count ~c ~e ~degree:d bufs block.(j)
      done;
      orthonormalize_block rng block
    end
  done;
  let take = min h (min b (Array.length !theta)) in
  let full = !converged_prefix >= take || b >= n in
  let padded = if full then 0 else take - max !converged_prefix 0 in
  let values =
    if full || !converged_prefix = 0 then Array.sub !theta 0 take
    else begin
      let filler = !theta.(!converged_prefix - 1) in
      Array.init take (fun i -> if i < !converged_prefix then !theta.(i) else filler)
    end
  in
  let converged = full in
  let vectors =
    if want_vectors then begin
      (* One final rotation X S to materialize the Ritz vectors. *)
      let s = !ritz in
      Some
        (Array.init take (fun j ->
             let y = Array.make n 0.0 in
             for i = 0 to b - 1 do
               let sij = s.((j * b) + i) in
               if sij <> 0.0 then Vec.axpy sij block.(i) y
             done;
             y))
    end
    else None
  in
  let padded = if !converged_prefix = 0 then take else padded in
  Graphio_obs.Metrics.add c_matvecs !matvec_count;
  Graphio_obs.Metrics.add c_restarts !iterations;
  Graphio_obs.Metrics.add c_locked !converged_prefix;
  Graphio_obs.Metrics.add c_padded padded;
  { values; vectors; iterations = !iterations; matvecs = !matvec_count; converged; padded }

let smallest_csr ?tol ?max_iterations ?seed ?want_vectors ?init ?on_iteration
    ?pool m ~h =
  let rows, cols = Csr.dims m in
  if rows <> cols then invalid_arg "Filtered.smallest_csr: matrix not square";
  smallest ?tol ?max_iterations ?seed ?want_vectors ?init ?on_iteration
    ~matvec:(Csr.matvec_fn ?pool m)
    ~upper_bound:(Csr.gershgorin_upper m)
    ~n:rows ~h ()
