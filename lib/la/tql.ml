external get : float array -> int -> float = "%array_unsafe_get"
external set : float array -> int -> float -> unit = "%array_unsafe_set"

exception No_convergence of int

let pythag a b = Float.hypot a b

(* Implicit-shift QL with Wilkinson shift, following the classic tqli
   routine.  [d] and [e] are mutated in place; [e] uses the tqli internal
   convention after the initial left-shift ([e.(i)] couples rows i,i+1).
   [zt], when present, is the n x n row-major transpose of the matrix
   tqli rotates column-wise: each rotation mixes two of its contiguous
   rows. *)
let solve_inplace d e (zt : float array option) =
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
          if !iter > 50 then raise (No_convergence l);
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
              (match zt with
              | Some z ->
                  let s = !s and c = !c in
                  let r0 = !i * n and r1 = (!i + 1) * n in
                  for k = 0 to n - 1 do
                    let f = get z (r1 + k) and x = get z (r0 + k) in
                    set z (r1 + k) ((s *. x) +. (c *. f));
                    set z (r0 + k) ((c *. x) -. (s *. f))
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

let eigenvalues ~d ~e =
  let d = Array.copy d and e = Array.copy e in
  solve_inplace d e None;
  Array.sort Float.compare d;
  d

let dense_eigenvalues ~n a =
  let d, e = Tridiag.reduce ~with_q:false ~n a in
  eigenvalues ~d ~e

let dense_eigensystem ~n a =
  let d, e = Tridiag.reduce ~with_q:true ~n a in
  solve_inplace d e (Some a);
  let idx = sort_permutation d in
  let values = Array.init n (fun j -> d.(idx.(j))) in
  let vectors = Array.make (n * n) 0.0 in
  Array.iteri (fun j src -> Array.blit a (src * n) vectors (j * n) n) idx;
  (values, vectors)

(* The lower triangle of a dense symmetric matrix, the only triangle the
   reduction reads, in one row-major array. *)
let flat_of_mat a =
  let n, cols = Mat.dims a in
  if n <> cols then invalid_arg "Tql: matrix not square";
  if not (Mat.is_symmetric ~tol:1e-8 a) then invalid_arg "Tql: matrix not symmetric";
  let f = Array.make (n * n) 0.0 in
  for i = 0 to n - 1 do
    Array.blit a.(i) 0 f (i * n) (i + 1)
  done;
  (n, f)

let symmetric_eigenvalues a =
  let n, f = flat_of_mat a in
  dense_eigenvalues ~n f

let symmetric_eigensystem a =
  let n, f = flat_of_mat a in
  let values, vectors = dense_eigensystem ~n f in
  (values, Mat.init n n (fun i j -> vectors.((j * n) + i)))
