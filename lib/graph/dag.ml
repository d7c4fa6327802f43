type t = {
  n : int;
  m : int;
  succ_ptr : int array;
  succ_idx : int array;
  pred_ptr : int array;
  pred_idx : int array;
  labels : string option array;
}

(* Kahn count over a frozen graph; shared by Builder.build and the raw
   CSR constructors. *)
let verify_acyclic_exn ~who g =
  let n = g.n in
  let indeg = Array.init n (fun v -> g.pred_ptr.(v + 1) - g.pred_ptr.(v)) in
  let queue = Queue.create () in
  Array.iteri (fun v d -> if d = 0 then Queue.add v queue) indeg;
  let seen = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    incr seen;
    for k = g.succ_ptr.(v) to g.succ_ptr.(v + 1) - 1 do
      let w = g.succ_idx.(k) in
      indeg.(w) <- indeg.(w) - 1;
      if indeg.(w) = 0 then Queue.add w queue
    done
  done;
  if !seen <> n then
    invalid_arg (Printf.sprintf "Dag.%s: graph has a cycle" who)

module Builder = struct

  type t = {
    mutable nv : int;
    mutable edges_rev : (int * int) list;
    mutable ne : int;
    mutable labels_rev : string option list;
    edge_set : (int * int, unit) Hashtbl.t;
  }

  let create ?(capacity_hint = 16) () =
    {
      nv = 0;
      edges_rev = [];
      ne = 0;
      labels_rev = [];
      edge_set = Hashtbl.create (max capacity_hint 16);
    }

  let add_vertex ?label b =
    let id = b.nv in
    b.nv <- id + 1;
    b.labels_rev <- label :: b.labels_rev;
    id

  let add_edge b u v =
    if u < 0 || u >= b.nv || v < 0 || v >= b.nv then
      invalid_arg (Printf.sprintf "Dag.add_edge: vertex out of range (%d -> %d)" u v);
    if u = v then invalid_arg "Dag.add_edge: self-loop";
    if Hashtbl.mem b.edge_set (u, v) then
      invalid_arg (Printf.sprintf "Dag.add_edge: duplicate edge (%d -> %d)" u v);
    Hashtbl.add b.edge_set (u, v) ();
    b.edges_rev <- (u, v) :: b.edges_rev;
    b.ne <- b.ne + 1

  let n_vertices b = b.nv

  let build ?(verify_acyclic = true) b =
    let n = b.nv and m = b.ne in
    let succ_ptr = Array.make (n + 1) 0 and pred_ptr = Array.make (n + 1) 0 in
    List.iter
      (fun (u, v) ->
        succ_ptr.(u + 1) <- succ_ptr.(u + 1) + 1;
        pred_ptr.(v + 1) <- pred_ptr.(v + 1) + 1)
      b.edges_rev;
    for i = 0 to n - 1 do
      succ_ptr.(i + 1) <- succ_ptr.(i + 1) + succ_ptr.(i);
      pred_ptr.(i + 1) <- pred_ptr.(i + 1) + pred_ptr.(i)
    done;
    let succ_idx = Array.make m 0 and pred_idx = Array.make m 0 in
    let succ_fill = Array.copy succ_ptr and pred_fill = Array.copy pred_ptr in
    (* edges_rev is reversed insertion order; filling in that order is fine
       because we sort each adjacency bucket afterwards. *)
    List.iter
      (fun (u, v) ->
        succ_idx.(succ_fill.(u)) <- v;
        succ_fill.(u) <- succ_fill.(u) + 1;
        pred_idx.(pred_fill.(v)) <- u;
        pred_fill.(v) <- pred_fill.(v) + 1)
      b.edges_rev;
    let sort_buckets ptr idx =
      for i = 0 to n - 1 do
        let lo = ptr.(i) and hi = ptr.(i + 1) in
        if hi - lo > 1 then begin
          let seg = Array.sub idx lo (hi - lo) in
          Array.sort compare seg;
          Array.blit seg 0 idx lo (hi - lo)
        end
      done
    in
    sort_buckets succ_ptr succ_idx;
    sort_buckets pred_ptr pred_idx;
    let labels = Array.make n None in
    List.iteri (fun i l -> labels.(n - 1 - i) <- l) b.labels_rev;
    let g = { n; m; succ_ptr; succ_idx; pred_ptr; pred_idx; labels } in
    if verify_acyclic then verify_acyclic_exn ~who:"build" g;
    g
end

let n_vertices g = g.n

let n_edges g = g.m

let check_vertex name g v =
  if v < 0 || v >= g.n then
    invalid_arg (Printf.sprintf "Dag.%s: vertex %d out of range" name v)

let succ g v =
  check_vertex "succ" g v;
  Array.sub g.succ_idx g.succ_ptr.(v) (g.succ_ptr.(v + 1) - g.succ_ptr.(v))

let pred g v =
  check_vertex "pred" g v;
  Array.sub g.pred_idx g.pred_ptr.(v) (g.pred_ptr.(v + 1) - g.pred_ptr.(v))

let iter_succ g v f =
  check_vertex "iter_succ" g v;
  for k = g.succ_ptr.(v) to g.succ_ptr.(v + 1) - 1 do
    f g.succ_idx.(k)
  done

let iter_pred g v f =
  check_vertex "iter_pred" g v;
  for k = g.pred_ptr.(v) to g.pred_ptr.(v + 1) - 1 do
    f g.pred_idx.(k)
  done

let iter_edges g f =
  for u = 0 to g.n - 1 do
    for k = g.succ_ptr.(u) to g.succ_ptr.(u + 1) - 1 do
      f u g.succ_idx.(k)
    done
  done

let fold_edges g ~init ~f =
  let acc = ref init in
  iter_edges g (fun u v -> acc := f !acc u v);
  !acc

(* FNV-1a over (n, m, sorted edge sequence).  The adjacency arrays are a
   canonical representation (buckets sorted at build time), so structurally
   equal graphs — however they were constructed — hash identically.  Used
   as the spectrum-cache key in Solver.bound_batch. *)
let fingerprint g =
  let h = ref Graphio_obs.Fnv1a.offset in
  let mix v = h := Graphio_obs.Fnv1a.step !h v in
  mix (Int64.of_int g.n);
  mix (Int64.of_int g.m);
  iter_edges g (fun u v ->
      mix (Int64.of_int u);
      mix (Int64.of_int v));
  !h

let out_degree g v =
  check_vertex "out_degree" g v;
  g.succ_ptr.(v + 1) - g.succ_ptr.(v)

let in_degree g v =
  check_vertex "in_degree" g v;
  g.pred_ptr.(v + 1) - g.pred_ptr.(v)

let degree g v = out_degree g v + in_degree g v

let max_over g f =
  let best = ref 0 in
  for v = 0 to g.n - 1 do
    best := max !best (f g v)
  done;
  !best

let max_out_degree g = max_over g out_degree

let max_in_degree g = max_over g in_degree

let max_degree g = max_over g degree

let label g v =
  check_vertex "label" g v;
  g.labels.(v)

let sources g =
  Array.of_seq
    (Seq.filter (fun v -> in_degree g v = 0) (Seq.init g.n (fun i -> i)))

let sinks g =
  Array.of_seq
    (Seq.filter (fun v -> out_degree g v = 0) (Seq.init g.n (fun i -> i)))

let has_edge g u v =
  check_vertex "has_edge" g u;
  check_vertex "has_edge" g v;
  let lo = ref g.succ_ptr.(u) and hi = ref (g.succ_ptr.(u + 1) - 1) in
  let found = ref false in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w = g.succ_idx.(mid) in
    if w = v then begin
      found := true;
      lo := !hi + 1
    end
    else if w < v then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let of_edges ?labels ~n edge_list =
  let b = Builder.create ~capacity_hint:(max n 16) () in
  for i = 0 to n - 1 do
    let label = Option.bind labels (fun ls -> if i < Array.length ls then Some ls.(i) else None) in
    ignore (Builder.add_vertex ?label b)
  done;
  List.iter (fun (u, v) -> Builder.add_edge b u v) edge_list;
  Builder.build b

let edges g = List.rev (fold_edges g ~init:[] ~f:(fun acc u v -> (u, v) :: acc))

let reverse g =
  {
    g with
    succ_ptr = g.pred_ptr;
    succ_idx = g.pred_idx;
    pred_ptr = g.succ_ptr;
    pred_idx = g.succ_idx;
  }

let induced_subgraph g vs =
  let n' = Array.length vs in
  let old_to_new = Hashtbl.create n' in
  Array.iteri
    (fun i v ->
      check_vertex "induced_subgraph" g v;
      if Hashtbl.mem old_to_new v then
        invalid_arg "Dag.induced_subgraph: duplicate vertex";
      Hashtbl.add old_to_new v i)
    vs;
  let b = Builder.create ~capacity_hint:n' () in
  Array.iter (fun v -> ignore (Builder.add_vertex ?label:g.labels.(v) b)) vs;
  Array.iteri
    (fun i v ->
      iter_succ g v (fun w ->
          match Hashtbl.find_opt old_to_new w with
          | Some j -> Builder.add_edge b i j
          | None -> ()))
    vs;
  (Builder.build ~verify_acyclic:false b, Array.copy vs)

(* Raw constructor from an already-canonical CSR: every adjacency bucket
   strictly ascending.  Validates everything Builder validates (range,
   self-loops, duplicates — strictness subsumes them — and optionally
   acyclicity) in O(n + m) without the Builder's edge hashtable, and
   keeps the caller's fresh arrays rather than copying them, so
   million-vertex graphs and their components freeze cheaply. *)
let of_sorted_csr ?labels ?(verify_acyclic = true) ~succ_ptr ~succ_idx () =
  let n = Array.length succ_ptr - 1 in
  if n < 0 then invalid_arg "Dag.of_sorted_csr: succ_ptr must be non-empty";
  let m = Array.length succ_idx in
  if succ_ptr.(0) <> 0 || succ_ptr.(n) <> m then
    invalid_arg "Dag.of_sorted_csr: succ_ptr must run from 0 to m";
  for v = 0 to n - 1 do
    let lo = succ_ptr.(v) and hi = succ_ptr.(v + 1) in
    if lo > hi then invalid_arg "Dag.of_sorted_csr: succ_ptr not monotone";
    for k = lo to hi - 1 do
      let w = succ_idx.(k) in
      if w < 0 || w >= n then
        invalid_arg
          (Printf.sprintf "Dag.of_sorted_csr: vertex %d out of range" w);
      if w = v then invalid_arg "Dag.of_sorted_csr: self-loop";
      if k > lo && succ_idx.(k - 1) >= w then
        invalid_arg "Dag.of_sorted_csr: bucket not strictly ascending"
    done
  done;
  let pred_ptr = Array.make (n + 1) 0 in
  Array.iter (fun w -> pred_ptr.(w + 1) <- pred_ptr.(w + 1) + 1) succ_idx;
  for i = 0 to n - 1 do
    pred_ptr.(i + 1) <- pred_ptr.(i + 1) + pred_ptr.(i)
  done;
  let pred_idx = Array.make m 0 in
  let fill = Array.copy pred_ptr in
  (* sources are scanned ascending, so pred buckets come out sorted *)
  for u = 0 to n - 1 do
    for k = succ_ptr.(u) to succ_ptr.(u + 1) - 1 do
      let w = succ_idx.(k) in
      pred_idx.(fill.(w)) <- u;
      fill.(w) <- fill.(w) + 1
    done
  done;
  let labels =
    match labels with
    | Some ls ->
        if Array.length ls <> n then
          invalid_arg "Dag.of_sorted_csr: labels length mismatch";
        ls
    | None -> Array.make n None
  in
  let g = { n; m; succ_ptr; succ_idx; pred_ptr; pred_idx; labels } in
  if verify_acyclic then verify_acyclic_exn ~who:"of_sorted_csr" g;
  g

let disjoint_union a b =
  let n = a.n + b.n and m = a.m + b.m in
  let cat_ptr pa pb =
    Array.init (n + 1) (fun i ->
        if i <= a.n then pa.(i) else a.m + pb.(i - a.n))
  in
  let cat_idx ia ib =
    Array.append ia (Array.map (fun v -> v + a.n) ib)
  in
  {
    n;
    m;
    succ_ptr = cat_ptr a.succ_ptr b.succ_ptr;
    succ_idx = cat_idx a.succ_idx b.succ_idx;
    pred_ptr = cat_ptr a.pred_ptr b.pred_ptr;
    pred_idx = cat_idx a.pred_idx b.pred_idx;
    labels = Array.append a.labels b.labels;
  }

let replicate g ~copies =
  if copies < 1 then invalid_arg "Dag.replicate: copies must be >= 1";
  if copies = 1 || g.n = 0 then g
  else begin
    let n = g.n * copies and m = g.m * copies in
    let rep_ptr ptr eoff_of =
      let out = Array.make (n + 1) 0 in
      for c = 0 to copies - 1 do
        let voff = c * g.n and eoff = eoff_of c in
        for r = 0 to g.n - 1 do
          out.(voff + r) <- eoff + ptr.(r)
        done
      done;
      out.(n) <- m;
      out
    in
    let rep_idx idx =
      let out = Array.make m 0 in
      for c = 0 to copies - 1 do
        let voff = c * g.n and eoff = c * g.m in
        for k = 0 to g.m - 1 do
          out.(eoff + k) <- voff + idx.(k)
        done
      done;
      out
    in
    {
      n;
      m;
      succ_ptr = rep_ptr g.succ_ptr (fun c -> c * g.m);
      succ_idx = rep_idx g.succ_idx;
      pred_ptr = rep_ptr g.pred_ptr (fun c -> c * g.m);
      pred_idx = rep_idx g.pred_idx;
      labels = Array.init n (fun v -> g.labels.(v mod g.n));
    }
  end

let pp fmt g =
  Format.fprintf fmt "dag(n=%d, m=%d)" g.n g.m
