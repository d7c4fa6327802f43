let create n = Array.make n 0.0

let init = Array.init

let copy = Array.copy

let check_same_length name x y =
  if Array.length x <> Array.length y then
    invalid_arg
      (Printf.sprintf "Vec.%s: length mismatch (%d vs %d)" name
         (Array.length x) (Array.length y))

let dot x y =
  check_same_length "dot" x y;
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

let norm2 x =
  (* Scaled to avoid overflow/underflow for extreme magnitudes.  A plain
     loop, so the two accumulators stay unboxed. *)
  let scale = ref 0.0 and ssq = ref 1.0 in
  for i = 0 to Array.length x - 1 do
    let xi = x.(i) in
    if xi <> 0.0 then begin
      let absxi = Float.abs xi in
      if !scale < absxi then begin
        let r = !scale /. absxi in
        ssq := 1.0 +. (!ssq *. r *. r);
        scale := absxi
      end
      else begin
        let r = absxi /. !scale in
        ssq := !ssq +. (r *. r)
      end
    end
  done;
  !scale *. sqrt !ssq

(* With acc's sign bit clear, both operands have a clear sign bit, so
   Float.max's signed-zero test (two C calls to [sign_bit] per element)
   can never fire; what is left is this comparison, which propagates NaN
   exactly as Float.max does. *)
let max_abs acc x =
  let z = Float.abs x in
  if z > acc || z <> z then z else acc

let norm_inf x =
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    acc := max_abs !acc x.(i)
  done;
  !acc

let scale a x = Array.map (fun xi -> a *. xi) x

let scale_inplace a x =
  for i = 0 to Array.length x - 1 do
    x.(i) <- a *. x.(i)
  done

let add x y =
  check_same_length "add" x y;
  Array.init (Array.length x) (fun i -> x.(i) +. y.(i))

let sub x y =
  check_same_length "sub" x y;
  Array.init (Array.length x) (fun i -> x.(i) -. y.(i))

let axpy a x y =
  check_same_length "axpy" x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- (a *. x.(i)) +. y.(i)
  done

let normalize x =
  let n = norm2 x in
  if n <= 0.0 then invalid_arg "Vec.normalize: zero vector";
  scale (1.0 /. n) x

let normalize_inplace x =
  let n = norm2 x in
  if n <= 0.0 then invalid_arg "Vec.normalize_inplace: zero vector";
  scale_inplace (1.0 /. n) x

let orthogonalize_against basis v =
  let pass () =
    Array.iter
      (fun b ->
        let c = dot b v in
        if c <> 0.0 then axpy (-.c) b v)
      basis
  in
  pass ();
  pass ()

let sum x = Array.fold_left ( +. ) 0.0 x

let max_elt x =
  if Array.length x = 0 then invalid_arg "Vec.max_elt: empty";
  Array.fold_left Float.max x.(0) x

let min_elt x =
  if Array.length x = 0 then invalid_arg "Vec.min_elt: empty";
  Array.fold_left Float.min x.(0) x

let approx_equal ?(tol = 1e-9) x y =
  Array.length x = Array.length y
  &&
  let ok = ref true in
  for i = 0 to Array.length x - 1 do
    if Float.abs (x.(i) -. y.(i)) > tol then ok := false
  done;
  !ok

let pp fmt x =
  Format.fprintf fmt "[|%a|]"
    (Format.pp_print_list
       ~pp_sep:(fun f () -> Format.fprintf f "; ")
       (fun f v -> Format.fprintf f "%g" v))
    (Array.to_list x)
