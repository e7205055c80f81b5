(** One-dimensional root finding.

    The rate-equilibrium and market-share computations of the public-option
    model all reduce to solving [f x = 0] for a monotone (possibly only
    piecewise-continuous) [f] on a known bracket.  Bisection is therefore the
    workhorse; Brent's method is provided for smooth problems. *)

type outcome = {
  root : float;  (** best estimate of the root *)
  value : float;  (** [f root] *)
  iterations : int;  (** iterations actually performed *)
  converged : bool;  (** whether the tolerance was met *)
}

val default_tol : float
(** Absolute tolerance on the abscissa used when [?tol] is omitted. *)

val default_max_iter : int
(** Iteration cap used when [?max_iter] is omitted. *)

exception No_bracket of string
(** Raised when the supplied interval does not bracket a sign change. *)

val bisect :
  ?tol:float -> ?max_iter:int -> f:(float -> float) -> lo:float -> hi:float ->
  unit -> outcome
(** [bisect ~f ~lo ~hi ()] finds a root of [f] in [[lo, hi]].  Requires
    [f lo] and [f hi] to have opposite (or zero) signs; raises
    {!No_bracket} otherwise.  Robust to discontinuities: converges to a
    point where [f] changes sign. *)

val brent :
  ?tol:float -> ?max_iter:int -> ?f_lo:float -> ?f_hi:float ->
  f:(float -> float) -> lo:float -> hi:float -> unit -> outcome
(** Brent's method (inverse quadratic interpolation + secant + bisection
    safeguard).  Same bracketing contract as {!bisect}; faster on smooth
    functions.

    [f_lo] and [f_hi] are [f lo] and [f hi] when the caller has already
    evaluated them; [f] is then not called there again.  Given the exact
    values, the outcome is bit for bit that of a call without them. *)

val find_monotone_level :
  ?tol:float -> ?max_iter:int -> f:(float -> float) -> level:float ->
  lo:float -> hi:float -> unit -> outcome
(** [find_monotone_level ~f ~level ~lo ~hi ()] solves [f x = level] for a
    non-decreasing [f].  If [f hi <= level] returns [hi]; if [f lo >= level]
    returns [lo]; otherwise bisection.  This never raises and is the
    primitive used by the rate-equilibrium solver (Theorem 1). *)
