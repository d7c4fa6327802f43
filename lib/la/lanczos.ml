type stats = {
  matvecs : int;
  restarts : int;
  locked : int;
}

type result = {
  values : float array;
  vectors : float array array option;
  stats : stats;
  converged : bool;
}

(* Thick-restart Lanczos with locking, implemented as Rayleigh-Ritz on an
   explicitly orthonormalized basis:

   - the active basis V grows one vector at a time; each new vector is the
     fully reorthogonalized complement of A v_last (two Gram-Schmidt
     passes against the locked vectors and V), and the projected matrix
     H = V^T A V is assembled from explicit dot products, so H is exact
     for whatever basis we have — no three-term-recurrence drift, no
     ghost eigenvalues;
   - at the end of a cycle H (dense symmetric, at most [krylov_dim] wide)
     is eigendecomposed and converged Ritz pairs are locked from the
     smallest value upward (a *prefix*, so no smaller eigenvalue can be
     skipped); every lock is verified with an exact residual
     ||A y - theta y|| (one matvec), which keeps locking sound no matter
     how the basis was assembled;
   - the next cycle restarts "thick": it keeps the best unconverged Ritz
     vectors (progress on clustered eigenvalues is never thrown away),
     re-appends the current residual direction, and *injects a few fresh
     random directions*.  The Krylov space of a single start vector
     contains exactly one direction per eigenspace, so multiple
     eigenvalues (ubiquitous in graph Laplacians: hypercube binomials,
     butterfly families) are only discoverable through new random
     directions — the injections make each cycle reach the next few
     copies of every eigenspace;
   - everything locked is deflated by explicit orthogonalization, so the
     iteration converges to the next copy rather than rediscovering the
     old one. *)

let c_matvecs = Graphio_obs.Metrics.counter "la.eigen.matvecs"
let c_restarts = Graphio_obs.Metrics.counter "la.eigen.restarts"
let c_locked = Graphio_obs.Metrics.counter "la.eigen.locked"

let smallest ?(tol = 1e-7) ?(max_restarts = 300) ?krylov_dim ?(seed = 0x5eed)
    ?(want_vectors = false) ?on_iteration ~matvec ~n ~h () =
  if n <= 0 then invalid_arg "Lanczos.smallest: n must be positive";
  if h <= 0 then invalid_arg "Lanczos.smallest: h must be positive";
  let h = min h n in
  let m_cap =
    match krylov_dim with
    | Some m ->
        if m < 2 then invalid_arg "Lanczos.smallest: krylov_dim must be >= 2";
        min m n
    | None -> min n (max 60 ((2 * h) + 20))
  in
  let rng = Rng.create seed in
  let locked_vals = ref [] and locked_vecs = ref [] and locked_count = ref 0 in
  let locked_array = ref [||] in
  let refresh_locked_array () = locked_array := Array.of_list !locked_vecs in
  let matvec_count = ref 0 and cycle_count = ref 0 in
  (* exact residual of the first Ritz pair that failed its lock check this
     cycle; 0 when every inspected pair locked *)
  let blocking_residual = ref 0.0 in
  let breakdown_tol = 1e-10 in
  let basis = Array.make m_cap [||] in
  let hmat = Array.init m_cap (fun _ -> Array.make m_cap 0.0) in
  let bsize = ref 0 in
  let residual = Array.make n 0.0 in
  let residual_norm = ref 0.0 in
  let av = Array.make n 0.0 in
  let apply x =
    matvec x av;
    incr matvec_count
  in
  (* Norm estimate for relative thresholds, refreshed from Ritz values. *)
  let norm_est = ref 1e-300 in
  (* Lock a few eigenpairs beyond [h]: with heavy multiplicities a copy of
     a small eigenvalue can be discovered after a slightly larger value
     has already been locked; the buffer plus the final ascending sort
     makes the reported prefix insensitive to such inversions. *)
  let h_target = min n (h + 8) in
  let finished () = !locked_count >= h_target in
  let space_exhausted = ref false in
  (* Random unit vector orthogonal to locked + current basis; None if the
     complement is numerically exhausted. *)
  let fresh_direction () =
    let rec attempt tries =
      if tries = 0 then None
      else begin
        let v = Rng.unit_vector rng n in
        Vec.orthogonalize_against !locked_array v;
        Vec.orthogonalize_against (Array.sub basis 0 !bsize) v;
        let nv = Vec.norm2 v in
        if nv < 1e-6 then attempt (tries - 1)
        else begin
          Vec.scale_inplace (1.0 /. nv) v;
          Some v
        end
      end
    in
    attempt 4
  in
  (* Append unit vector [v] (orthogonal to locked and basis) and update H
     and the residual of A v. *)
  let extend v =
    let j = !bsize in
    basis.(j) <- v;
    bsize := j + 1;
    apply v;
    for i = 0 to j do
      let d = Vec.dot basis.(i) av in
      hmat.(i).(j) <- d;
      hmat.(j).(i) <- d
    done;
    Array.blit av 0 residual 0 n;
    Vec.orthogonalize_against !locked_array residual;
    Vec.orthogonalize_against (Array.sub basis 0 (j + 1)) residual;
    residual_norm := Vec.norm2 residual
  in
  while (not (finished ())) && (not !space_exhausted) && !cycle_count < max_restarts do
    incr cycle_count;
    blocking_residual := 0.0;
    (* Inject fresh random directions: they open up the next copies of
       multiple eigenvalues (see module comment).  The first cycle starts
       from scratch this way too. *)
    let injections = if !bsize = 0 then 1 else min 8 (max 2 ((h - !locked_count) / 8)) in
    let injected = ref 0 in
    while !injected < injections && !bsize < m_cap && not !space_exhausted do
      (match fresh_direction () with
      | None ->
          space_exhausted := !bsize = 0
          (* with a non-empty basis we may still make progress this cycle *)
      | Some v -> extend v);
      incr injected
    done;
    if (not !space_exhausted) && !bsize > 0 then begin
      (* Grow the basis to the cap, residual-driven. *)
      let growing = ref true in
      while !growing && !bsize < m_cap do
        if !residual_norm >= breakdown_tol then begin
          let v = Vec.scale (1.0 /. !residual_norm) residual in
          extend v
        end
        else begin
          match fresh_direction () with
          | None -> growing := false
          | Some v -> extend v
        end
      done;
      let m = !bsize in
      (* Rayleigh-Ritz on the exact projected matrix. *)
      let hsub = Mat.init m m (fun i j -> hmat.(i).(j)) in
      let theta, s = Tql.symmetric_eigensystem hsub in
      Array.iter (fun t -> norm_est := Float.max !norm_est (Float.abs t)) theta;
      let threshold = Float.max (tol *. !norm_est) 1e-13 in
      let ritz_vector i =
        let y = Array.make n 0.0 in
        for jj = 0 to m - 1 do
          Vec.axpy s.(jj).(i) basis.(jj) y
        done;
        Vec.orthogonalize_against !locked_array y;
        let ny = Vec.norm2 y in
        if ny < 1e-8 then None
        else begin
          Vec.scale_inplace (1.0 /. ny) y;
          Some y
        end
      in
      (* Lock the maximal prefix of ascending Ritz values whose *exact*
         residual passes the threshold. *)
      let prefix = ref 0 in
      let stop = ref false in
      while (not !stop) && !prefix < m && not (finished ()) do
        match ritz_vector !prefix with
        | None ->
            (* Degenerate Ritz vector (fully inside the locked space —
               numerically possible when an eigenvalue is exhausted);
               skip it without locking. *)
            incr prefix
        | Some y ->
            apply y;
            let res = ref 0.0 in
            for i = 0 to n - 1 do
              let d = av.(i) -. (theta.(!prefix) *. y.(i)) in
              res := !res +. (d *. d)
            done;
            let res = sqrt !res in
            if res <= threshold then begin
              locked_vals := theta.(!prefix) :: !locked_vals;
              locked_vecs := y :: !locked_vecs;
              incr locked_count;
              refresh_locked_array ();
              incr prefix
            end
            else begin
              blocking_residual := res;
              stop := true
            end
      done;
      if not (finished ()) then begin
        (* Thick restart: keep the best unconverged Ritz vectors plus the
           residual direction (exactness of H is restored by explicit dot
           products as vectors are appended). *)
        let remaining = h_target - !locked_count in
        let keep = min (min (remaining + 8) (m_cap - 12)) (m - !prefix) in
        let keep = max keep 0 in
        let kept = ref [] in
        let i = ref (!prefix + keep - 1) in
        while !i >= !prefix do
          (match ritz_vector !i with
          | Some y -> kept := (theta.(!i), y) :: !kept
          | None -> ());
          decr i
        done;
        let kept = Array.of_list !kept in
        (* Re-orthonormalize defensively. *)
        let ok = ref [] in
        Array.iter
          (fun (t, y) ->
            Vec.orthogonalize_against !locked_array y;
            Vec.orthogonalize_against (Array.of_list (List.map snd !ok)) y;
            let ny = Vec.norm2 y in
            if ny > 1e-8 then begin
              Vec.scale_inplace (1.0 /. ny) y;
              ok := (t, y) :: !ok
            end)
          kept;
        let kept = Array.of_list (List.rev !ok) in
        let q = Array.length kept in
        Array.iteri
          (fun i (t, y) ->
            basis.(i) <- y;
            for j = 0 to q - 1 do
              hmat.(i).(j) <- (if i = j then t else 0.0)
            done)
          kept;
        bsize := q;
        if q > 0 && !residual_norm >= breakdown_tol then begin
          (* Re-append the residual direction to keep convergence momentum;
             its H couplings are recomputed on append. *)
          let w = Vec.scale (1.0 /. !residual_norm) residual in
          Vec.orthogonalize_against !locked_array w;
          Vec.orthogonalize_against (Array.sub basis 0 q) w;
          let nw = Vec.norm2 w in
          if nw > 1e-8 then begin
            Vec.scale_inplace (1.0 /. nw) w;
            extend w
          end
        end
        else if q = 0 then residual_norm := 0.0
      end
    end;
    match on_iteration with
    | None -> ()
    | Some f ->
        f
          {
            Convergence.iteration = !cycle_count;
            matvecs = !matvec_count;
            locked = !locked_count;
            residual = !blocking_residual;
          }
  done;
  let pairs =
    List.combine !locked_vals !locked_vecs
    |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
    |> Array.of_list
  in
  let take = min h (Array.length pairs) in
  let values = Array.init take (fun i -> fst pairs.(i)) in
  let vectors =
    if want_vectors then Some (Array.init take (fun i -> snd pairs.(i))) else None
  in
  Graphio_obs.Metrics.add c_matvecs !matvec_count;
  Graphio_obs.Metrics.add c_restarts !cycle_count;
  Graphio_obs.Metrics.add c_locked (Array.length pairs);
  {
    values;
    vectors;
    stats =
      { matvecs = !matvec_count; restarts = !cycle_count; locked = Array.length pairs };
    converged = take >= h;
  }

let smallest_csr ?tol ?max_restarts ?krylov_dim ?seed ?want_vectors ?on_iteration
    ?pool m ~h =
  let rows, cols = Csr.dims m in
  if rows <> cols then invalid_arg "Lanczos.smallest_csr: matrix not square";
  smallest ?tol ?max_restarts ?krylov_dim ?seed ?want_vectors ?on_iteration
    ~matvec:(Csr.matvec_fn ?pool m)
    ~n:rows ~h ()
