(* A graph read in place, row by row: the successor CSR of a [Dag.t] or
   of a store's mapped [Csr32.t], neither copied into the other's
   layout.  Rows are strictly ascending. *)
type rows = {
  n : int;
  out_degree : int -> int;
  iter_row : int -> (int -> unit) -> unit;
  iter_labels : (int -> string option -> unit) -> unit;
      (** [f v (Some l)] for each labeled vertex [v], ascending *)
}

let of_dag g =
  let n = Dag.n_vertices g in
  {
    n;
    out_degree = Dag.out_degree g;
    iter_row = Dag.iter_succ g;
    iter_labels =
      (fun f ->
        for v = 0 to n - 1 do
          match Dag.label g v with Some _ as l -> f v l | None -> ()
        done);
  }

let of_csr ({ Csr32.n; ptr; idx; labels; _ } : Csr32.t) =
  let first v = Int32.to_int ptr.{v} in
  {
    n;
    out_degree = (fun v -> first (v + 1) - first v);
    iter_row =
      (fun v f ->
        for k = first v to first (v + 1) - 1 do
          f (Int32.to_int idx.{k})
        done);
    iter_labels = (fun f -> Array.iter (fun (v, l) -> f v (Some l)) labels);
  }

(* Union-find with path halving.  A union keeps the smaller root, so
   every parent pointer goes down in vertex order and each root is its
   component's smallest vertex.  The final ascending scan then meets
   every vertex's parent before the vertex itself, and relabels the
   array in place from parents to component ids, assigned in order of
   each component's smallest vertex. *)
let label_components r =
  let parent = Array.init r.n Fun.id in
  let find i =
    let i = ref i in
    while parent.(!i) <> !i do
      parent.(!i) <- parent.(parent.(!i));
      i := parent.(!i)
    done;
    !i
  in
  for u = 0 to r.n - 1 do
    r.iter_row u (fun v ->
        let ru = find u and rv = find v in
        if ru < rv then parent.(rv) <- ru else if rv < ru then parent.(ru) <- rv)
  done;
  let count = ref 0 in
  for v = 0 to r.n - 1 do
    let p = parent.(v) in
    if p = v then begin
      parent.(v) <- !count;
      incr count
    end
    else parent.(v) <- parent.(p)
  done;
  (parent, !count)

(* Each component's vertices keep their relative order (a monotone
   relabel), so every row stays strictly ascending and structurally
   equal components extract to structurally equal, equally
   fingerprinted graphs.  The arrays are fresh and handed to
   [Dag.of_sorted_csr], which keeps them. *)
let extract r comp count =
  let sizes = Array.make count 0 and edges = Array.make count 0 in
  let local = Array.make r.n 0 in
  for v = 0 to r.n - 1 do
    let c = comp.(v) in
    local.(v) <- sizes.(c);
    sizes.(c) <- sizes.(c) + 1;
    edges.(c) <- edges.(c) + r.out_degree v
  done;
  let members = Array.map (fun s -> Array.make s 0) sizes in
  let ptrs = Array.map (fun s -> Array.make (s + 1) 0) sizes in
  let idxs = Array.map (fun e -> Array.make e 0) edges in
  let filled = Array.make count 0 and c = ref 0 in
  let put w =
    let c = !c in
    idxs.(c).(filled.(c)) <- local.(w);
    filled.(c) <- filled.(c) + 1
  in
  for v = 0 to r.n - 1 do
    c := comp.(v);
    members.(!c).(local.(v)) <- v;
    r.iter_row v put;
    ptrs.(!c).(local.(v) + 1) <- filled.(!c)
  done;
  let labels = Array.make count [||] in
  r.iter_labels (fun v l ->
      let c = comp.(v) in
      if Array.length labels.(c) = 0 then labels.(c) <- Array.make sizes.(c) None;
      labels.(c).(local.(v)) <- l);
  Array.init count (fun c ->
      let labels = if Array.length labels.(c) = 0 then None else Some labels.(c) in
      ( Dag.of_sorted_csr ?labels ~verify_acyclic:false ~succ_ptr:ptrs.(c)
          ~succ_idx:idxs.(c) (),
        members.(c) ))

let components g = fst (label_components (of_dag g))

let count g = snd (label_components (of_dag g))

let is_connected g = count g <= 1

let split g =
  let r = of_dag g in
  let comp, count = label_components r in
  if count = 1 then [| (g, Array.init r.n Fun.id) |] else extract r comp count

let split_csr c =
  let r = of_csr c in
  let comp, count = label_components r in
  extract r comp count
