(** Dense vector operations on [float array].

    All functions are allocation-explicit: operations suffixed with
    [_inplace] mutate their first argument, everything else returns a fresh
    array.  Dimensions are validated and mismatches raise [Invalid_argument]. *)

val create : int -> float array
(** Zero vector of the given length. *)

val init : int -> (int -> float) -> float array

val copy : float array -> float array

val dot : float array -> float array -> float
(** Inner product; lengths must agree. *)

val norm2 : float array -> float
(** Euclidean norm, computed with overflow-safe scaling. *)

val norm_inf : float array -> float
(** Largest absolute value; [0.] on the empty vector; NaN if any entry
    is NaN. *)

val max_abs : float -> float -> float
(** [max_abs acc x] is [Float.max acc (Float.abs x)], bit for bit, for
    every [acc] whose sign bit is clear — as is every value of a fold
    that starts from [0.].  It is the step of {!norm_inf}, without
    [Float.max]'s signed-zero tests. *)

val scale : float -> float array -> float array

val scale_inplace : float -> float array -> unit

val add : float array -> float array -> float array

val sub : float array -> float array -> float array

val axpy : float -> float array -> float array -> unit
(** [axpy a x y] sets [y <- a*x + y]. *)

val normalize : float array -> float array
(** Unit-norm copy; raises [Invalid_argument] on the zero vector. *)

val normalize_inplace : float array -> unit

val orthogonalize_against : float array array -> float array -> unit
(** [orthogonalize_against basis v] removes from [v] (in place) its
    components along each vector of [basis] using two passes of classical
    Gram–Schmidt ("twice is enough").  The basis vectors are assumed
    orthonormal. *)

val sum : float array -> float

val max_elt : float array -> float
(** Maximum element; raises on empty input. *)

val min_elt : float array -> float

val approx_equal : ?tol:float -> float array -> float array -> bool
(** Component-wise comparison with absolute tolerance (default [1e-9]). *)

val pp : Format.formatter -> float array -> unit
