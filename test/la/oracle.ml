(* The dense eigensolver as it stood on nested arrays, kept verbatim as
   the oracle for the flat kernels in lib/la: EISPACK tred2 reading the
   lower triangle of a [float array array], and tqli rotating the columns
   of the Householder accumulation.  The flat kernels must reproduce
   every value here bit for bit. *)

open Graphio_la

type t = {
  d : float array;
  e : float array;
  q : Mat.t option;
}

(* Householder tridiagonalization following the classic tred2 routine
   (Numerical Recipes / EISPACK lineage).  The working matrix [z] is
   destroyed; when [with_q] is set it ends up holding the orthogonal
   accumulation Q with A = Q T Q^T. *)
let reduce ?(with_q = false) a =
  let rows, cols = Mat.dims a in
  if rows <> cols then invalid_arg "Tridiag.reduce: matrix not square";
  if not (Mat.is_symmetric ~tol:1e-8 a) then
    invalid_arg "Tridiag.reduce: matrix not symmetric";
  let n = rows in
  let z = Mat.copy a in
  let d = Array.make n 0.0 and e = Array.make n 0.0 in
  if n = 0 then { d; e; q = (if with_q then Some [||] else None) }
  else begin
    for i = n - 1 downto 1 do
      let l = i - 1 in
      let h = ref 0.0 and scale = ref 0.0 in
      if l > 0 then begin
        for k = 0 to l do
          scale := !scale +. Float.abs z.(i).(k)
        done;
        if !scale = 0.0 then e.(i) <- z.(i).(l)
        else begin
          for k = 0 to l do
            z.(i).(k) <- z.(i).(k) /. !scale;
            h := !h +. (z.(i).(k) *. z.(i).(k))
          done;
          let f = z.(i).(l) in
          let g = if f >= 0.0 then -.sqrt !h else sqrt !h in
          e.(i) <- !scale *. g;
          h := !h -. (f *. g);
          z.(i).(l) <- f -. g;
          let fsum = ref 0.0 in
          for j = 0 to l do
            if with_q then z.(j).(i) <- z.(i).(j) /. !h;
            let g = ref 0.0 in
            for k = 0 to j do
              g := !g +. (z.(j).(k) *. z.(i).(k))
            done;
            for k = j + 1 to l do
              g := !g +. (z.(k).(j) *. z.(i).(k))
            done;
            e.(j) <- !g /. !h;
            fsum := !fsum +. (e.(j) *. z.(i).(j))
          done;
          let hh = !fsum /. (!h +. !h) in
          for j = 0 to l do
            let f = z.(i).(j) in
            let g = e.(j) -. (hh *. f) in
            e.(j) <- g;
            for k = 0 to j do
              z.(j).(k) <- z.(j).(k) -. ((f *. e.(k)) +. (g *. z.(i).(k)))
            done
          done
        end
      end
      else e.(i) <- z.(i).(l);
      d.(i) <- !h
    done;
    if with_q then d.(0) <- 0.0;
    e.(0) <- 0.0;
    for i = 0 to n - 1 do
      if with_q then begin
        if d.(i) <> 0.0 then
          for j = 0 to i - 1 do
            let g = ref 0.0 in
            for k = 0 to i - 1 do
              g := !g +. (z.(i).(k) *. z.(k).(j))
            done;
            for k = 0 to i - 1 do
              z.(k).(j) <- z.(k).(j) -. (!g *. z.(k).(i))
            done
          done;
        d.(i) <- z.(i).(i);
        z.(i).(i) <- 1.0;
        for j = 0 to i - 1 do
          z.(j).(i) <- 0.0;
          z.(i).(j) <- 0.0
        done
      end
      else d.(i) <- z.(i).(i)
    done;
    { d; e; q = (if with_q then Some z else None) }
  end

let pythag a b = Float.hypot a b

(* Implicit-shift QL with Wilkinson shift, following the classic tqli
   routine.  [d] and [e] are mutated in place; [e] uses the tqli internal
   convention after the initial left-shift ([e.(i)] couples rows i,i+1).
   [z], when present, accumulates the rotations applied column-wise. *)
let solve_inplace d e (z : Mat.t option) =
  let n = Array.length d in
  if Array.length e <> n then invalid_arg "Tql: d/e length mismatch";
  if n > 1 then begin
    for i = 1 to n - 1 do
      e.(i - 1) <- e.(i)
    done;
    e.(n - 1) <- 0.0;
    let eps = epsilon_float in
    for l = 0 to n - 1 do
      let iter = ref 0 in
      let finished = ref false in
      while not !finished do
        (* Find the first m >= l where the off-diagonal is negligible. *)
        let m = ref l in
        let searching = ref true in
        while !searching && !m < n - 1 do
          let dd = Float.abs d.(!m) +. Float.abs d.(!m + 1) in
          if Float.abs e.(!m) <= eps *. dd then searching := false
          else incr m
        done;
        if !m = l then finished := true
        else begin
          incr iter;
          if !iter > 50 then raise (Tql.No_convergence l);
          let g0 = (d.(l + 1) -. d.(l)) /. (2.0 *. e.(l)) in
          let r0 = pythag g0 1.0 in
          let g = ref (d.(!m) -. d.(l) +. (e.(l) /. (g0 +. Float.copy_sign r0 g0))) in
          let s = ref 1.0 and c = ref 1.0 and p = ref 0.0 in
          let i = ref (!m - 1) in
          let underflow = ref false in
          while !i >= l && not !underflow do
            let f = !s *. e.(!i) in
            let b = !c *. e.(!i) in
            let r = pythag f !g in
            e.(!i + 1) <- r;
            if r = 0.0 then begin
              d.(!i + 1) <- d.(!i + 1) -. !p;
              e.(!m) <- 0.0;
              underflow := true
            end
            else begin
              s := f /. r;
              c := !g /. r;
              let gg = d.(!i + 1) -. !p in
              let rr = ((d.(!i) -. gg) *. !s) +. (2.0 *. !c *. b) in
              p := !s *. rr;
              d.(!i + 1) <- gg +. !p;
              g := (!c *. rr) -. b;
              (match z with
              | Some z ->
                  let ii = !i in
                  for k = 0 to n - 1 do
                    let f = z.(k).(ii + 1) in
                    z.(k).(ii + 1) <- (!s *. z.(k).(ii)) +. (!c *. f);
                    z.(k).(ii) <- (!c *. z.(k).(ii)) -. (!s *. f)
                  done
              | None -> ());
              decr i
            end
          done;
          if not !underflow then begin
            d.(l) <- d.(l) -. !p;
            e.(l) <- !g;
            e.(!m) <- 0.0
          end
        end
      done
    done
  end

let sort_permutation d =
  let n = Array.length d in
  let idx = Array.init n (fun i -> i) in
  Array.sort (fun a b -> Float.compare d.(a) d.(b)) idx;
  idx

let eigensystem ~d ~e ?z () =
  let n = Array.length d in
  let z = match z with Some z -> Mat.copy z | None -> Mat.identity n in
  let zr, zc = Mat.dims z in
  if zc <> n then invalid_arg "Tql.eigensystem: z column count mismatch";
  let d = Array.copy d and e = Array.copy e in
  solve_inplace d e (Some z);
  let idx = sort_permutation d in
  let values = Array.init n (fun j -> d.(idx.(j))) in
  let vectors = Mat.init zr n (fun i j -> z.(i).(idx.(j))) in
  (values, vectors)


let symmetric_eigenvalues a =
  let { d; e; _ } = reduce a in
  Tql.eigenvalues ~d ~e

let symmetric_eigensystem a =
  match reduce ~with_q:true a with
  | { d; e; q = Some z } -> eigensystem ~d ~e ~z ()
  | { q = None; _ } -> assert false
