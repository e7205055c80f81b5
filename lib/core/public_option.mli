(** Regime comparison: the paper's headline experiment (Sec. III-E, IV-A,
    Sec. VI).

    For a fixed consumer population and total per-capita capacity [nu],
    compare the per-capita consumer surplus achieved under:

    - {b unregulated monopoly}: one ISP holds all capacity and plays its
      revenue-optimal [(kappa, c)];
    - {b network-neutral regulation}: the monopolist is forced to [(0, 0)];
    - {b public option}: a slice of the capacity is carved out for a
      Public Option ISP playing [(0, 0)]; the commercial ISP keeps the
      rest and picks the strategy that maximises its {e market share}
      (which, by Theorem 5, also maximises consumer surplus).

    Theorem 5 and the surrounding analysis predict the ordering

    {v Phi(public option) >= Phi(neutral) >= Phi(unregulated) v}

    with the neutral-regulation value equal to [Phi(nu, N)] because two
    neutral ISPs in migration equilibrium replicate a single neutral
    network (Lemma 4). *)

type regime_result = {
  label : string;
  phi : float;  (** population per-capita consumer surplus *)
  psi : float;  (** commercial ISP(s) premium revenue per total capita *)
  commercial_strategy : Strategy.t option;
  (** the strategy the commercial ISP ends up playing, when there is one *)
  market_share : float option;
  (** the commercial ISP's consumer share, when a Public Option competes *)
}

type regime = {
  result : regime_result;
  welfare : Welfare.t;
  (** three-party decomposition of the outcome [result] reports
      ({!Welfare.of_outcome}, or {!Welfare.of_duopoly} for the public
      option) *)
}

val unregulated :
  levels:int -> points:int -> nu:float -> Po_model.Cp.t array -> regime_result
(** [levels]/[points] control the monopolist's revenue search
    ({!Monopoly.optimal_strategy}). *)

val neutral : nu:float -> Po_model.Cp.t array -> regime_result

val public_option :
  ?po_share:float -> levels:int -> points:int -> nu:float ->
  Po_model.Cp.t array -> regime_result
(** [po_share] (default [0.5]) is the fraction of total capacity given to
    the Public Option ISP; [levels]/[points] control the commercial ISP's
    best-response grid ({!Duopoly.best_response_market_share}). *)

val compare_regimes :
  ?pool:Po_par.Pool.t -> ?budget:Po_sup.Budget.t -> ?po_share:float ->
  levels:int -> points:int -> nu:float -> Po_model.Cp.t array ->
  regime list
(** All three regimes, in the order unregulated, neutral, public option,
    each solved once and projected both ways.  This is the one place the
    three regime solves are composed: the [regimes] and [welfare] queries,
    [ponet regimes]/[ponet welfare], the welfare figure and [claims] all
    read it.

    [pool] runs the three regimes as three pool tasks; the values are
    pool-invariant.  [budget] is checked before each regime starts — a
    search already running is not interrupted — so an expired budget
    raises [Deadline_exceeded] (or [Cancelled]) and never changes a
    completed result.  Under a pool each task checks on its own worker
    and the pool re-raises the typed error in the caller. *)

val check_ordering : regime_result list -> (unit, string) result
(** Audit the Theorem-5 ordering on the [result]s of {!compare_regimes},
    allowing a small numerical slack. *)
