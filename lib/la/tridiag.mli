(** Householder reduction of a real symmetric matrix to tridiagonal form.

    This is the first half of the dense symmetric eigensolver (the classic
    [tred2] reduction): a symmetric [n x n] matrix [A] is transformed by a
    sequence of Householder reflections into a symmetric tridiagonal matrix
    with diagonal [d] and sub-diagonal [e], optionally accumulating the
    orthogonal transformation [Q] such that [A = Q T Qᵀ].

    The matrix is one row-major [float array], of which the reduction
    reads and updates only the lower triangle, as [tred2] does; every
    inner loop walks a contiguous row.  It computes bit for bit what
    [tred2] computes on a nested-array matrix (docs/PERFORMANCE.md,
    "Dense kernels"). *)

val reduce : with_q:bool -> n:int -> float array -> float array * float array
(** [reduce ~with_q ~n a] tridiagonalizes the symmetric [n x n] matrix
    whose lower triangle is held by the row-major [a], in place, and
    returns [(d, e)]: the diagonal, and the sub-diagonal with [e.(0) = 0].
    The upper triangle of [a] is never read.  With [~with_q:true], [a]
    holds [Qᵀ] on return (row [j] of [a] is column [j] of [Q]);
    otherwise its contents are destroyed.  Raises [Invalid_argument] if
    [a] does not have [n * n] entries. *)
