(** Structure-of-arrays CP population (DESIGN.md §12).

    The record representation ({!Cp.t} arrays) boxes every CP behind a
    pointer and a demand closure; at the million-CP tier that layout is
    the bottleneck — cache-hostile traversals and a closure call per
    demand evaluation.  This module stores a population as five unboxed
    [float array] columns ([alpha], [theta_hat], [beta], [v], [phi]),
    with the array index serving as the CP's identity, and restricts
    demands to the exponential family [d(omega) = exp (-beta (1/omega -
    1))] that every ensemble in the paper draws from.

    {b Equivalence invariant.}  Every evaluation here replicates the
    record path's float operations in the same order, so for any
    population representable both ways the SoA solvers and the record
    solvers are bit-identical; [test/test_soa.ml] enforces this
    differentially.  {!of_cps} / {!to_cps} convert losslessly (records
    with non-exponential demands are rejected). *)

type t = Soa_columns.t
(** An immutable SoA population.  Its columns live in a module private
    to this library: outside it [t] is abstract, and inside it the
    equilibrium market aliases the columns rather than copying them. *)

val make :
  alpha:float array -> theta_hat:float array -> beta:float array ->
  v:float array -> phi:float array -> t
(** Build a population from equal-length columns.  Validates the same
    domains as {!Cp.make} ([alpha] in (0, 1], [theta_hat > 0], [beta >=
    0], [v >= 0], [phi >= 0]); the columns are adopted, not copied. *)

val length : t -> int

val alpha : t -> int -> float
val theta_hat : t -> int -> float
val beta : t -> int -> float
val v : t -> int -> float
val phi : t -> int -> float

val of_cps : Cp.t array -> t
(** Columnise a record population.  [Invalid_argument] if any CP's
    demand is outside the exponential family (its [Demand.beta] is
    [None]); record ids are dropped — the SoA identity is the index. *)

val to_cps : t -> Cp.t array
(** Materialise records (with [id = index]).  Intended for small-n
    differential tests and interop, not for the large-n hot path. *)

val get : t -> int -> Cp.t
(** The single CP at an index, as a record. *)

val concat : t array -> t
(** Concatenate populations in array order (chunk assembly of the
    streaming generators); O(total size), no re-validation. *)

val demand_curve : beta:float -> float -> float
(** The exponential-family curve [d(omega) = exp (-beta (1/omega - 1))]
    on a throughput ratio, clamped into [0, 1] — {!Demand.exponential}'s
    arithmetic inlined (bit-identical, no closure); the solver's hot
    loop evaluates this directly from the [beta] column. *)

val demand_at : t -> int -> float -> float
(** [demand_at t i theta]: demand of CP [i] at throughput [theta]
    (clamped into [0, theta_hat]); bit-identical to {!Cp.demand_at}. *)

val rho : t -> int -> theta:float -> float
(** Per-user per-capita throughput [d_i(theta) * theta]. *)

val lambda_per_capita : t -> int -> theta:float -> float
(** [alpha_i * rho_i(theta)]. *)

val lambda_hat_per_capita : t -> int -> float
(** [alpha_i * theta_hat_i]. *)

val saturation_nu : t -> float
(** [sum_i alpha_i theta_hat_i], accumulated in index order —
    bit-identical to [Ensemble.saturation_nu] on the record form. *)

val total_value : t -> float
(** [sum_i phi_i alpha_i theta_hat_i], accumulated in index order. *)
