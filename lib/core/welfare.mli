(** Welfare decomposition across all three parties.

    The paper optimises consumer surplus; regulators and the related work
    it cites (Sidak's consumer-welfare approach, Economides-Tag) also
    weigh ISP revenue and content-provider profit.  This module
    decomposes any game outcome into the three per-capita surpluses

    - consumer: [Phi = sum phi_i alpha_i rho_i] (Eq. 2),
    - ISP:      [Psi = c * lambda_P] (the premium-class revenue),
    - CP:       [sum_i (v_i - c 1{i in P}) alpha_i rho_i] (Eq. 4 summed),

    whose sum is the total per-capita welfare.  Note the ISP and CP terms
    are a pure transfer of [c * lambda_P]: total welfare equals
    [sum (phi_i + v_i) alpha_i rho_i], so differentiation affects it only
    through the allocation.

    Per regulatory regime, {!Public_option.compare_regimes} carries this
    decomposition of the very outcome it reports: who pays for each
    regime's consumer gains. *)

type t = {
  consumer : float;
  isp : float;
  cp : float;
  total : float;
}

val zero : t
val add : t -> t -> t
val scale : float -> t -> t

val of_outcome : Po_model.Cp.t array -> Cp_game.outcome -> t
(** Decompose a single-ISP outcome (per capita of that ISP's
    consumers). *)

val of_duopoly : Po_model.Cp.t array -> Duopoly.equilibrium -> t
(** Population-weighted decomposition across both ISPs (per capita of the
    whole population). *)

val of_oligopoly : Po_model.Cp.t array -> Oligopoly.equilibrium -> t
(** Population-weighted decomposition across all ISPs. *)

val pp : Format.formatter -> t -> unit
