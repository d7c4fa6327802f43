type backend = Dense | Sparse_filtered

type stats = {
  matvecs : int;
  iterations : int;
  locked : int;
  padded : int;
}

type spectrum = {
  values : float array;
  backend : backend;
  exact : bool;
  stats : stats option;
  vectors : float array array option;
}

let default_dense_threshold = 1024

let c_dense = Graphio_obs.Metrics.counter "la.eigen.dense_solves"
let c_sparse = Graphio_obs.Metrics.counter "la.eigen.sparse_solves"

let dense ~h spectrum =
  Graphio_obs.Span.with_ "eigen.dense" (fun () ->
      let values = spectrum () in
      Graphio_obs.Metrics.incr c_dense;
      let take = min h (Array.length values) in
      {
        values = Array.sub values 0 take;
        backend = Dense;
        exact = true;
        stats = None;
        vectors = None;
      })

let smallest_dense ?(h = 100) a =
  let rows, cols = Mat.dims a in
  if rows <> cols then invalid_arg "Eigen.smallest_dense: matrix not square";
  dense ~h (fun () -> Tql.symmetric_eigenvalues a)

(* The CSR's lower triangle, the only one the Householder reduction reads,
   in one row-major array.  Entries accumulate from 0 as [Csr.to_dense]
   does, so the array holds the bits of that dense matrix's lower
   triangle. *)
let dense_of_lower (m : Csr.t) =
  let n = m.Csr.rows in
  let a = Array.make (n * n) 0.0 in
  for i = 0 to n - 1 do
    for k = m.Csr.row_ptr.(i) to m.Csr.row_ptr.(i + 1) - 1 do
      let j = m.Csr.col_idx.(k) in
      if j <= i then a.((i * n) + j) <- a.((i * n) + j) +. m.Csr.values.(k)
    done
  done;
  a

let smallest ?(h = 100) ?(dense_threshold = default_dense_threshold) ?tol ?seed
    ?init ?want_vectors ?on_iteration ?pool m =
  let rows, cols = Csr.dims m in
  if rows <> cols then invalid_arg "Eigen.smallest: matrix not square";
  if rows = 0 then
    { values = [||]; backend = Dense; exact = true; stats = None; vectors = None }
  else if rows <= dense_threshold then begin
    if not (Csr.is_symmetric ~tol:1e-8 m) then
      invalid_arg "Eigen.smallest: matrix not symmetric";
    dense ~h (fun () -> Tql.dense_eigenvalues ~n:rows (dense_of_lower m))
  end
  else
    Graphio_obs.Span.with_ "eigen.filtered" (fun () ->
        (* Chebyshev-filtered block subspace iteration: the block captures
           whole eigenspace clusters at once, which graph-Laplacian
           multiplicities demand (see Filtered).  [tol] stays relative; the
           default 1e-5 keeps eigenvalue errors far below anything visible in
           an I/O bound while shortening the convergence tail on clustered
           spectra. *)
        let tol = match tol with Some t -> t | None -> 1e-5 in
        let result =
          Filtered.smallest_csr ?seed ?init ?want_vectors ?on_iteration ?pool
            ~tol m ~h
        in
        Graphio_obs.Metrics.incr c_sparse;
        {
          values = result.Filtered.values;
          backend = Sparse_filtered;
          exact = false;
          stats =
            Some
              {
                matvecs = result.Filtered.matvecs;
                iterations = result.Filtered.iterations;
                locked =
                  Array.length result.Filtered.values - result.Filtered.padded;
                padded = result.Filtered.padded;
              };
          vectors = result.Filtered.vectors;
        })
