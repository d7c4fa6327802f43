type words = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  n : int;
  m : int;
  ptr : words;
  idx : words;
  labels : (int * string) array;
}

let fits ~n ~m =
  let max = Int32.to_int Int32.max_int in
  n + 1 <= max && m <= max

let create len : words =
  let a = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout len in
  Bigarray.Array1.fill a 0l;
  a

type defect = Offsets | Target of int * int | Order of int * int | Cycle

let check { n; m; ptr; idx; _ } =
  let exception Found of defect in
  try
    if ptr.{0} <> 0l then raise (Found Offsets);
    for v = 0 to n - 1 do
      let lo = Int32.to_int ptr.{v} and hi = Int32.to_int ptr.{v + 1} in
      (* [hi > m] first: a pointer past the index region must not be
         followed into it *)
      if lo > hi || hi > m then raise (Found Offsets);
      for k = lo to hi - 1 do
        let w = Int32.to_int idx.{k} in
        if w < 0 || w >= n || w = v then raise (Found (Target (v, w)));
        if k > lo && Int32.to_int idx.{k - 1} >= w then
          raise (Found (Order (v, w)))
      done
    done;
    if Int32.to_int ptr.{n} <> m then raise (Found Offsets);
    let indeg = create n and queue = create n in
    for k = 0 to m - 1 do
      let w = Int32.to_int idx.{k} in
      indeg.{w} <- Int32.succ indeg.{w}
    done;
    let head = ref 0 and tail = ref 0 in
    for v = 0 to n - 1 do
      if indeg.{v} = 0l then begin
        queue.{!tail} <- Int32.of_int v;
        incr tail
      end
    done;
    while !head < !tail do
      let v = Int32.to_int queue.{!head} in
      incr head;
      for k = Int32.to_int ptr.{v} to Int32.to_int ptr.{v + 1} - 1 do
        let w = Int32.to_int idx.{k} in
        indeg.{w} <- Int32.pred indeg.{w};
        if indeg.{w} = 0l then begin
          queue.{!tail} <- Int32.of_int w;
          incr tail
        end
      done
    done;
    if !tail <> n then Some Cycle else None
  with Found d -> Some d

let describe = function
  | Offsets -> "succ_ptr does not run monotonically from 0 to m"
  | Target (v, w) when v = w -> Printf.sprintf "self-loop at vertex %d" v
  | Target (_, w) -> Printf.sprintf "edge target %d out of range" w
  | Order (v, _) -> Printf.sprintf "row %d not strictly ascending" v
  | Cycle -> "graph has a cycle"

let of_dag g =
  let n = Dag.n_vertices g and m = Dag.n_edges g in
  let ptr = create (n + 1) and idx = create m in
  let k = ref 0 and labels = ref [] in
  for v = 0 to n - 1 do
    Dag.iter_succ g v (fun w ->
        idx.{!k} <- Int32.of_int w;
        incr k);
    ptr.{v + 1} <- Int32.of_int !k;
    Option.iter (fun l -> labels := (v, l) :: !labels) (Dag.label g v)
  done;
  { n; m; ptr; idx; labels = Array.of_list (List.rev !labels) }

let to_dag t =
  let succ_ptr = Array.init (t.n + 1) (fun v -> Int32.to_int t.ptr.{v}) in
  let succ_idx = Array.init t.m (fun k -> Int32.to_int t.idx.{k}) in
  let labels =
    if Array.length t.labels = 0 then None
    else begin
      let ls = Array.make t.n None in
      Array.iter (fun (v, l) -> ls.(v) <- Some l) t.labels;
      Some ls
    end
  in
  Dag.of_sorted_csr ?labels ~verify_acyclic:false ~succ_ptr ~succ_idx ()
