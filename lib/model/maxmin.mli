(** Max-min fair allocation (Sec. II-D.2).

    The AIMD dynamics of TCP yield, to first approximation, a max-min fair
    split of the bottleneck among flows [Chiu & Jain]; the paper adopts
    max-min as its working mechanism.  Max-min is the [alpha -> infinity]
    member of the alpha-proportional-fair family and, with homogeneous
    flows, has the common-cap form [theta_i = min (theta_hat_i, cap)].
    With unit weights every member of that family coincides with max-min
    for homogeneous flows, so it is the one allocation the model
    carries. *)

val mechanism : Alloc.t
(** The max-min fair mechanism; satisfies Axioms 1-4 under Assumption 1. *)

val solve : nu:float -> Cp.t array -> Equilibrium.solution
(** Direct entry point, identical to [mechanism.solve]. *)
