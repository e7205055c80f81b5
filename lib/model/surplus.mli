(** Welfare accounting (Sec. II-C, III-A).

    Per-capita consumer surplus (Eq. 2):
    [Phi = sum_i phi_i alpha_i d_i(theta_i) theta_i];
    per-capita ISP surplus from a charged class:
    [Psi = c * sum_{i in P} alpha_i d_i(theta_i) theta_i]. *)

val consumer : Cp.t array -> Equilibrium.solution -> float
(** [Phi] of a (sub)system and its rate equilibrium.  Arrays must be
    positionally aligned. *)

val consumer_soa : Cp_soa.t -> Equilibrium.solution -> float
(** {!consumer} over a structure-of-arrays population (same index-order
    accumulation, hence bit-identical to the record form on equal
    populations); pairs with {!Equilibrium.solve_soa}. *)

val consumer_at : nu:float -> Cp.t array -> float
(** Solve the system under max-min then evaluate [consumer]. *)

val isp : c:float -> Cp.t array -> Equilibrium.solution -> float
(** [Psi] collected at price [c >= 0] from the given (premium) subsystem. *)

val cp_utilities : c:float -> Cp.t array -> Equilibrium.solution -> float array
(** Per-CP utility [ (v_i - c) * alpha_i * rho_i ] for members of a class
    charged at [c] (Eq. 4; pass [c = 0.] for the ordinary class).  The
    factor [M] is omitted throughout, consistent with per-capita
    accounting. *)

val utilization : nu:float -> Equilibrium.solution -> float
(** Fraction of capacity carried: [per_capita_rate / nu] clamped to
    [[0, 1]]; defined as [1.] when [nu = 0]. *)

val aggregate_rate : Cp.t array -> Equilibrium.solution -> float
(** Per-capita aggregate throughput [sum alpha_i rho_i] (sanity mirror of
    [solution.per_capita_rate], recomputed from the profile). *)
