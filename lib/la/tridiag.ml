external get : float array -> int -> float = "%array_unsafe_get"
external set : float array -> int -> float -> unit = "%array_unsafe_set"

(* Householder tridiagonalization in the classic tred2 form (Numerical
   Recipes / EISPACK lineage), on one row-major n x n array of which it
   reads and updates only the lower triangle, as tred2 does.

   Step i reflects row i against the leading i x i block.  tred2 forms
   each row dot g_j = sum_k A_jk u_k from row j left of the diagonal and
   then column j below it, a strided walk.  Here the dots are formed a
   row at a time in the symmetric matrix-vector form: row j adds its
   entries left of the diagonal into g_j and, scaled by u_j, into the
   g_k of the columns it crosses.  Rows go in increasing order, so every
   g_j receives the same products in the same order as tred2's sum, and
   every inner loop is contiguous.  Step i's rank-2 update of a row is
   fused with step i-1's dots over the same row, so each step streams
   the triangle once.

   Every value computed is the one tred2 computes on nested arrays, bit
   for bit (test/la keeps that routine as the oracle). *)
let reduce ~with_q ~n a =
  if n < 0 || Array.length a <> n * n then
    invalid_arg "Tridiag.reduce: array is not n x n";
  let d = Array.make n 0.0 and e = Array.make n 0.0 in
  if n > 1 then begin
    (* [q]: step i's p_j, then q_j; [dots]: the next step's row dots. *)
    let q = Array.make n 0.0 and dots = Array.make n 0.0 in
    (* Form step i's Householder vector u in row i and set e.(i) and the
       step's h (in d.(i)); false when there is nothing to reflect. *)
    let prepare i =
      let l = i - 1 and row = i * n in
      let scale = ref 0.0 in
      if l > 0 then
        for k = 0 to l do
          scale := !scale +. Float.abs (get a (row + k))
        done;
      if l = 0 || !scale = 0.0 then begin
        e.(i) <- get a (row + l);
        false
      end
      else begin
        let scale = !scale and h = ref 0.0 in
        for k = 0 to l do
          let x = get a (row + k) /. scale in
          set a (row + k) x;
          h := !h +. (x *. x)
        done;
        let f = get a (row + l) in
        let g = if f >= 0.0 then -.sqrt !h else sqrt !h in
        e.(i) <- scale *. g;
        d.(i) <- !h -. (f *. g);
        set a (row + l) (f -. g);
        true
      end
    in
    (* Step i's dots, A u over the leading i x i block, u in row i. *)
    let row_dots i =
      let u = i * n in
      for j = 0 to i - 1 do
        let r = j * n and uj = get a (u + j) in
        let acc = ref 0.0 in
        for k = 0 to j - 1 do
          let x = get a (r + k) in
          acc := !acc +. (x *. get a (u + k));
          set dots k (get dots k +. (x *. uj))
        done;
        set dots j (!acc +. (get a (r + j) *. uj))
      done
    in
    let reflect = ref (prepare (n - 1)) in
    if !reflect then row_dots (n - 1);
    for i = n - 1 downto 1 do
      let l = i - 1 and u = i * n in
      if !reflect then begin
        let h = d.(i) in
        let fsum = ref 0.0 in
        for j = 0 to l do
          let p = dots.(j) /. h in
          q.(j) <- p;
          fsum := !fsum +. (p *. get a (u + j))
        done;
        let hh = !fsum /. (h +. h) in
        for j = 0 to l do
          q.(j) <- q.(j) -. (hh *. get a (u + j))
        done;
        let update_row j =
          let r = j * n and f = get a (u + j) and g = q.(j) in
          for k = 0 to j do
            set a (r + k)
              (get a (r + k) -. ((f *. get q k) +. (g *. get a (u + k))))
          done
        in
        (* Row l first: it is the next step's Householder row. *)
        update_row l;
        reflect := l > 0 && prepare l;
        if !reflect then begin
          let v = l * n in
          for j = 0 to l - 1 do
            let r = j * n and f = get a (u + j) and g = q.(j) in
            let vj = get a (v + j) and acc = ref 0.0 in
            for k = 0 to j - 1 do
              let x = get a (r + k) -. ((f *. get q k) +. (g *. get a (u + k))) in
              set a (r + k) x;
              acc := !acc +. (x *. get a (v + k));
              set dots k (get dots k +. (x *. vj))
            done;
            let x = get a (r + j) -. ((f *. get q j) +. (g *. get a (u + j))) in
            set a (r + j) x;
            set dots j (!acc +. (x *. vj))
          done
        end
        else
          for j = 0 to l - 1 do
            update_row j
          done
      end
      else begin
        reflect := l > 0 && prepare l;
        if !reflect then row_dots l
      end
    done;
    if with_q then begin
      (* Accumulate Q in place, transposed: Qt's row j is Q's column j,
         so the update of each column of Q is one contiguous row.  The
         Householder vectors stay in their rows until their step; the
         vector v = u / h that tred2 keeps in column i is formed in [q],
         and the upper triangle is working space. *)
      let v = q in
      for i = 0 to n - 1 do
        let u = i * n in
        let h = d.(i) in
        if h <> 0.0 then begin
          for k = 0 to i - 1 do
            set v k (get a (u + k) /. h)
          done;
          for j = 0 to i - 1 do
            let r = j * n in
            let g = ref 0.0 in
            for k = 0 to i - 1 do
              g := !g +. (get a (u + k) *. get a (r + k))
            done;
            let g = !g in
            for k = 0 to i - 1 do
              set a (r + k) (get a (r + k) -. (g *. get v k))
            done
          done
        end;
        d.(i) <- get a (u + i);
        set a (u + i) 1.0;
        for j = 0 to i - 1 do
          set a ((j * n) + i) 0.0;
          set a (u + j) 0.0
        done
      done
    end
    else
      for i = 0 to n - 1 do
        d.(i) <- get a ((i * n) + i)
      done
  end
  else if n = 1 then begin
    d.(0) <- a.(0);
    if with_q then a.(0) <- 1.0
  end;
  (d, e)
