(* Reference answers for the spectral and visit bounds, computed outside
   the timed region.  Numeric spectra come from the dense eigensolver on
   the dense form of each method's matrix, so they check the sparse
   assembly, the filtered eigensolver and the closed forms the timed path
   uses; the merge over components, the Theorem-5 scaling and the Weyl
   offsets are written out here from their definitions. *)

open Graphio_graph
module Method = Graphio_core.Method
module Eigen = Graphio_la.Eigen

let h = Stages.h

(* The graph's weakly-connected components, as the solver decomposes it. *)
let parts g =
  if Dag.n_vertices g = 0 then [||]
  else
    match Component.split g with
    | [| _ |] -> [| g |]
    | split -> Array.map fst split

let dense_matrix ~method_ g =
  match (method_ : Method.t) with
  | Normalized -> Laplacian.normalized_dense g
  | Standard -> Laplacian.standard_dense g
  | Adjacency -> Graphio_la.Csr.to_dense (Laplacian.adjacency_shifted g)
  | Signless -> Graphio_la.Csr.to_dense (Laplacian.signless_shifted g)
  | Visit | Portfolio -> invalid_arg "Reference: no spectrum"

(* One component's values: [lambda] of the Laplacians; [delta - Delta +
   nu] of the adjacency surrogate and [2 (delta - Delta) + nu] of the
   signless one (Weyl), clamped at 0; all but the normalized method scaled
   by 1 / (the union's max out-degree). *)
let component_values ~method_ ~d_union g =
  let raw = (Eigen.smallest_dense ~h (dense_matrix ~method_ g)).Eigen.values in
  let gap = float_of_int (Stages.min_degree g - Dag.max_degree g) in
  let offset =
    match (method_ : Method.t) with
    | Adjacency -> gap
    | Signless -> 2.0 *. gap
    | _ -> 0.0
  in
  let scale =
    if method_ = Method.Normalized || d_union = 0 then 1.0 else 1.0 /. float_of_int d_union
  in
  Array.map (fun l -> scale *. Float.max (l +. offset) 0.0) raw

(* The smallest [h] values of the union of the components' spectra. *)
let spectrum ~method_ g =
  let parts = parts g in
  let d_union = Array.fold_left (fun acc p -> max acc (Dag.max_out_degree p)) 0 parts in
  let all =
    Array.concat (Array.to_list (Array.map (component_values ~method_ ~d_union) parts))
  in
  Array.sort Float.compare all;
  Array.sub all 0 (min h (Array.length all))

(* Solver tolerance: 1e-6 of the Gershgorin bound per eigenvalue, summed
   over at most n values. *)
let tolerance g = 1e-6 *. 2.0 *. float_of_int (Dag.max_degree g * Dag.n_vertices g)

let spectral_bound ~method_ ?p g ~m =
  (Graphio_core.Spectral_bound.compute ~n:(Dag.n_vertices g) ~m ?p
     ~eigenvalues:(spectrum ~method_ g) ())
    .Graphio_core.Spectral_bound.bound

(* The visit bound of a graph at every fast-memory size in [ms], with
   whether it passed its min-cut check: the per-component sum of
   [Visit_bound] at that size, each component of at most 256 vertices
   (where the visit profile includes the full singleton sweep) required
   to dominate the convex min-cut bound, which [Convex_mincut] computes
   without the visit profiler. *)
let visit_bounds g ~ms =
  let profiled =
    Array.map
      (fun p ->
        let wave =
          if Dag.n_vertices p <= 256 then Some (Graphio_flow.Convex_mincut.max_wavefront p)
          else None
        in
        (Graphio_core.Visit_bound.profile p, wave))
      (parts g)
  in
  List.map
    (fun m ->
      let total, sound =
        Array.fold_left
          (fun (acc, sound) (prof, wave) ->
            let v = Graphio_core.Visit_bound.bound_of_profile prof ~m in
            let above_cut =
              match wave with
              | None -> true
              | Some w -> v >= Graphio_flow.Convex_mincut.bound_of_wavefront w ~m
            in
            (acc + v, sound && above_cut))
          (0, true) profiled
      in
      (m, (float_of_int total, sound)))
    ms
