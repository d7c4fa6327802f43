(** Implicit-shift QL eigensolver for symmetric tridiagonal matrices.

    Second half of the dense symmetric eigenpath (the classic [tqli]
    routine): given the tridiagonal [d]/[e] produced by {!Tridiag.reduce},
    computes all eigenvalues, and optionally eigenvectors by rotating the
    Householder accumulation [Q] into the eigenvectors of the original
    matrix.  The dense entry points take the matrix as one row-major
    [float array] ({!dense_eigenvalues}, {!dense_eigensystem}) or as a
    {!Mat.t}. *)

exception No_convergence of int
(** Raised (with the stuck row index) if an eigenvalue fails to converge in
    50 implicit QL sweeps — practically unreachable for real symmetric
    input. *)

val eigenvalues : d:float array -> e:float array -> float array
(** [eigenvalues ~d ~e] returns all eigenvalues in ascending order.
    [d] is the diagonal (length [n]); [e] the sub-diagonal with [e.(0)]
    ignored (the {!Tridiag.reduce} convention).  Inputs are not mutated. *)

val dense_eigenvalues : n:int -> float array -> float array
(** [dense_eigenvalues ~n a]: the full spectrum, ascending, of the
    symmetric [n x n] matrix whose lower triangle is held by the
    row-major [a] (Householder + QL; the upper triangle is never read).
    [a] is destroyed. *)

val dense_eigensystem : n:int -> float array -> float array * float array
(** [dense_eigensystem ~n a] is [(values, vectors)]: the ascending
    spectrum of [a] (as for {!dense_eigenvalues}) and an [n x n] row-major
    array whose row [j] is the unit eigenvector for [values.(j)].  [a] is
    destroyed. *)

val symmetric_eigenvalues : Mat.t -> float array
(** Full spectrum of a dense symmetric matrix (Householder + QL), ascending.
    Raises [Invalid_argument] if the matrix is not square, or not
    symmetric to within [1e-8]; only its lower triangle is read. *)

val symmetric_eigensystem : Mat.t -> float array * Mat.t
(** Full eigendecomposition of a dense symmetric matrix; vectors in columns,
    aligned with the ascending eigenvalues.  Same checks as
    {!symmetric_eigenvalues}. *)
