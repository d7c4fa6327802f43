type t = {
  rows : int;
  cols : int;
  row_ptr : int array;
  col_idx : int array;
  values : float array;
}

let dims m = (m.rows, m.cols)

let nnz m = Array.length m.values

let of_triplets_array ~rows ~cols triplets =
  if rows < 0 || cols < 0 then invalid_arg "Csr.of_triplets: negative dimension";
  Array.iter
    (fun (i, j, _) ->
      if i < 0 || i >= rows || j < 0 || j >= cols then
        invalid_arg
          (Printf.sprintf "Csr.of_triplets: entry (%d,%d) out of %dx%d" i j rows cols))
    triplets;
  let triplets = Array.copy triplets in
  Array.sort
    (fun (i1, j1, _) (i2, j2, _) ->
      match compare i1 i2 with 0 -> compare j1 j2 | c -> c)
    triplets;
  (* merge duplicates *)
  let merged_i = ref [] and merged_j = ref [] and merged_v = ref [] in
  let count = ref 0 in
  let push i j v =
    merged_i := i :: !merged_i;
    merged_j := j :: !merged_j;
    merged_v := v :: !merged_v;
    incr count
  in
  let m = Array.length triplets in
  let idx = ref 0 in
  while !idx < m do
    let i, j, _ = triplets.(!idx) in
    let acc = ref 0.0 in
    while
      !idx < m
      &&
      let i', j', _ = triplets.(!idx) in
      i' = i && j' = j
    do
      let _, _, v = triplets.(!idx) in
      acc := !acc +. v;
      incr idx
    done;
    push i j !acc
  done;
  let n = !count in
  let is = Array.make n 0 and js = Array.make n 0 and vs = Array.make n 0.0 in
  let rec fill k li lj lv =
    match (li, lj, lv) with
    | i :: li', j :: lj', v :: lv' ->
        is.(k) <- i;
        js.(k) <- j;
        vs.(k) <- v;
        fill (k - 1) li' lj' lv'
    | [], [], [] -> ()
    | _ -> assert false
  in
  fill (n - 1) !merged_i !merged_j !merged_v;
  let row_ptr = Array.make (rows + 1) 0 in
  Array.iter (fun i -> row_ptr.(i + 1) <- row_ptr.(i + 1) + 1) is;
  for i = 0 to rows - 1 do
    row_ptr.(i + 1) <- row_ptr.(i + 1) + row_ptr.(i)
  done;
  { rows; cols; row_ptr; col_idx = js; values = vs }

let of_triplets ~rows ~cols triplets =
  of_triplets_array ~rows ~cols (Array.of_list triplets)

let of_dense a =
  let rows, cols = Mat.dims a in
  let triplets = ref [] in
  for i = rows - 1 downto 0 do
    for j = cols - 1 downto 0 do
      if a.(i).(j) <> 0.0 then triplets := (i, j, a.(i).(j)) :: !triplets
    done
  done;
  of_triplets ~rows ~cols !triplets

let to_dense m =
  let out = Mat.create m.rows m.cols in
  for i = 0 to m.rows - 1 do
    for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      out.(i).(m.col_idx.(k)) <- out.(i).(m.col_idx.(k)) +. m.values.(k)
    done
  done;
  out

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Csr.get: index out of range";
  let lo = ref m.row_ptr.(i) and hi = ref (m.row_ptr.(i + 1) - 1) in
  let result = ref 0.0 in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = m.col_idx.(mid) in
    if c = j then begin
      result := m.values.(mid);
      lo := !hi + 1
    end
    else if c < j then lo := mid + 1
    else hi := mid - 1
  done;
  !result

(* Hot-path instrumentation is counters only (one unboxed increment per
   call): the matvec is the inner loop of every sparse eigensolve, so no
   span, no clock read, no allocation may happen here. *)
let c_matvecs = Graphio_obs.Metrics.counter "la.csr.matvecs"
let c_flops = Graphio_obs.Metrics.counter "la.csr.fma_flops"

(* One row is always accumulated left-to-right by a single participant, so
   the parallel path is bitwise identical to the sequential one: chunking
   decides only which domain owns a row, never the FP summation order
   within it (docs/PARALLELISM.md). *)
let row_range m x y lo hi =
  for i = lo to hi - 1 do
    let acc = ref 0.0 in
    for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      acc := !acc +. (m.values.(k) *. x.(m.col_idx.(k)))
    done;
    y.(i) <- !acc
  done

let matvec_into ?pool m x y =
  if Array.length x <> m.cols || Array.length y <> m.rows then
    invalid_arg "Csr.matvec: dimension mismatch";
  Graphio_obs.Metrics.incr c_matvecs;
  Graphio_obs.Metrics.add c_flops (Array.length m.values);
  match pool with
  | None -> row_range m x y 0 m.rows
  | Some pool ->
      (* chunk by rows; the per-index body is one whole row *)
      Graphio_par.Pool.parallel_for pool ~lo:0 ~hi:m.rows (fun i ->
          row_range m x y i (i + 1))

let matvec ?pool m x =
  let y = Array.make m.rows 0.0 in
  matvec_into ?pool m x y;
  y

(* Unboxed Bigarray mirror of the CSR layout.  Values stay float64; the
   two index arrays drop to int32, halving index-memory traffic on the
   matvec, and every access in the inner loop is unchecked.  The per-row
   accumulation is the same left-to-right order as [row_range] above, so
   both kernels produce bitwise-identical results (docs/PERFORMANCE.md). *)
module Ba = struct
  type mat = {
    rows : int;
    cols : int;
    row_ptr : (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t;
    col_idx : (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t;
    values : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
  }

  let dims m = (m.rows, m.cols)
  let nnz m = Bigarray.Array1.dim m.values
  let int32_limit = Int32.to_int Int32.max_int

  let of_csr (m : t) =
    let n = Array.length m.values in
    if n > int32_limit then
      invalid_arg
        (Printf.sprintf
           "Csr.Ba.of_csr: %d stored entries overflow int32 indexing (max %d)"
           n int32_limit);
    if m.cols > int32_limit then
      invalid_arg
        (Printf.sprintf
           "Csr.Ba.of_csr: %d columns overflow int32 indexing (max %d)" m.cols
           int32_limit);
    let row_ptr =
      Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (m.rows + 1)
    in
    let col_idx = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout n in
    let values = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
    for i = 0 to m.rows do
      Bigarray.Array1.unsafe_set row_ptr i (Int32.of_int m.row_ptr.(i))
    done;
    for k = 0 to n - 1 do
      Bigarray.Array1.unsafe_set col_idx k (Int32.of_int m.col_idx.(k));
      Bigarray.Array1.unsafe_set values k m.values.(k)
    done;
    { rows = m.rows; cols = m.cols; row_ptr; col_idx; values }

  let row_range m x y lo hi =
    for i = lo to hi - 1 do
      let k0 = Int32.to_int (Bigarray.Array1.unsafe_get m.row_ptr i) in
      let k1 = Int32.to_int (Bigarray.Array1.unsafe_get m.row_ptr (i + 1)) in
      let acc = ref 0.0 in
      for k = k0 to k1 - 1 do
        let j = Int32.to_int (Bigarray.Array1.unsafe_get m.col_idx k) in
        acc :=
          !acc
          +. (Bigarray.Array1.unsafe_get m.values k *. Array.unsafe_get x j)
      done;
      Array.unsafe_set y i !acc
    done

  (* Sequential cache block: a fixed row count, so chunk geometry is a
     function of the row count alone — the same contract the pool keeps. *)
  let block_rows = 256

  let matvec_into ?pool m x y =
    if Array.length x <> m.cols || Array.length y <> m.rows then
      invalid_arg "Csr.Ba.matvec: dimension mismatch";
    Graphio_obs.Metrics.incr c_matvecs;
    Graphio_obs.Metrics.add c_flops (nnz m);
    match pool with
    | None ->
        let i = ref 0 in
        while !i < m.rows do
          row_range m x y !i (min m.rows (!i + block_rows));
          i := !i + block_rows
        done
    | Some pool ->
        Graphio_par.Pool.parallel_for pool ~lo:0 ~hi:m.rows (fun i ->
            row_range m x y i (i + 1))

  let matvec ?pool m x =
    let y = Array.make m.rows 0.0 in
    matvec_into ?pool m x y;
    y
end

(* Convert once: the Bigarray conversion happens a single time per solve,
   not per matvec. *)
let matvec_fn ?pool m =
  let ba = Ba.of_csr m in
  fun x y -> Ba.matvec_into ?pool ba x y

let scale c m = { m with values = Array.map (fun v -> c *. v) m.values }

let transpose m =
  let triplets = ref [] in
  for i = m.rows - 1 downto 0 do
    for k = m.row_ptr.(i + 1) - 1 downto m.row_ptr.(i) do
      triplets := (m.col_idx.(k), i, m.values.(k)) :: !triplets
    done
  done;
  of_triplets ~rows:m.cols ~cols:m.rows !triplets

let is_symmetric ?(tol = 1e-12) m =
  m.rows = m.cols
  &&
  let ok = ref true in
  for i = 0 to m.rows - 1 do
    for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      let j = m.col_idx.(k) in
      if Float.abs (m.values.(k) -. get m j i) > tol then ok := false
    done
  done;
  !ok

let prune ?(tol = 0.0) m =
  let triplets = ref [] in
  for i = m.rows - 1 downto 0 do
    for k = m.row_ptr.(i + 1) - 1 downto m.row_ptr.(i) do
      if Float.abs m.values.(k) > tol then
        triplets := (i, m.col_idx.(k), m.values.(k)) :: !triplets
    done
  done;
  of_triplets ~rows:m.rows ~cols:m.cols !triplets

let gershgorin_upper m =
  let best = ref 0.0 in
  for i = 0 to m.rows - 1 do
    let radius = ref 0.0 in
    for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      radius := !radius +. Float.abs m.values.(k)
    done;
    if !radius > !best then best := !radius
  done;
  !best

let row_iter m i f =
  if i < 0 || i >= m.rows then invalid_arg "Csr.row_iter: row out of range";
  for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
    f m.col_idx.(k) m.values.(k)
  done

let pp fmt m =
  Format.fprintf fmt "@[<v>csr %dx%d (nnz=%d)@," m.rows m.cols (nnz m);
  for i = 0 to min (m.rows - 1) 19 do
    Format.fprintf fmt "row %d:" i;
    row_iter m i (fun j v -> Format.fprintf fmt " (%d,%g)" j v);
    Format.fprintf fmt "@,"
  done;
  if m.rows > 20 then Format.fprintf fmt "...@,";
  Format.fprintf fmt "@]"
