(** Duopoly with consumer migration (Sec. IV-A).

    Two ISPs share a consumer population of (normalised) size 1 and total
    per-capita capacity [nu]; ISP [I] holds capacity share [gamma_i] and
    plays [s_I], ISP [J] holds [1 - gamma_i] and plays [s_J] (a Public
    Option plays [(0,0)]).  Consumers migrate towards the ISP delivering
    higher per-capita consumer surplus until surpluses equalise
    (Assumption 5); with market share [m] for ISP [I], per-capita
    capacities are [nu_I = gamma_i nu / m] and
    [nu_J = (1-gamma_i) nu / (1-m)].

    [Phi_I(m)] is non-increasing in [m] and [Phi_J(m)] non-decreasing
    (Theorem 2), so the equal-surplus condition is solved by bisection;
    corner equilibria ([m = 0] or [1]) arise when one ISP dominates at any
    split. *)

type config = {
  nu : float;  (** total per-capita capacity [mu / M] *)
  gamma_i : float;  (** ISP I's capacity share, in [(0, 1)] *)
  strategy_i : Strategy.t;
  strategy_j : Strategy.t;
}

val config :
  ?gamma_i:float -> ?strategy_j:Strategy.t -> nu:float ->
  strategy_i:Strategy.t -> unit -> config
(** [gamma_i] defaults to [0.5] (the paper's equal-capacity setting);
    [strategy_j] defaults to the Public Option. *)

type equilibrium = {
  m_i : float;  (** ISP I's market share *)
  nu_i : float;
      (** ISP I's per-capita capacity [gamma_i nu / m_i], capped at the
          finite stand-in [4 nu_sat + 1] for an (almost) empty ISP, where
          [nu_sat] is the population's unconstrained per-capita demand;
          the cap is what [m_i = 0] gets *)
  nu_j : float;
  outcome_i : Cp_game.outcome;  (** CP game at ISP I (at the equilibrium split) *)
  outcome_j : Cp_game.outcome;
  phi : float;  (** population per-capita consumer surplus
                    [m Phi_I + (1-m) Phi_J] (equal to both in the interior) *)
  psi_i : float;  (** ISP I's surplus per head of the {e total} population *)
  psi_j : float;
  interior : bool;  (** whether the equilibrium is interior (equal surplus) *)
}

val solve : ?tol:float -> config -> Po_model.Cp.t array -> equilibrium
(** Find the migration equilibrium.  [tol] (default [1e-6]) is on the
    market share. *)

val ensure_converged :
  ?context:(string * string) list -> equilibrium -> equilibrium
(** Identity when both ISPs' CP-game outcomes converged; otherwise
    {!Cp_game.ensure_converged}'s [Non_convergence], with an [isp] frame
    naming the ISP after the caller's [context]. *)

val market_share : floor:float -> config -> Po_model.Cp.t array -> float
(** ISP I's equilibrium market share at {!solve}'s default [tol]:
    [(solve config cps).m_i] bit for bit when it is [> floor], without the
    final re-solve of both CP games that {!solve} spends on the rest of
    the record.

    [floor] is a value the share has to beat to matter ([neg_infinity]
    asks for the exact share).  The migration bisection answers the midpoint of its final
    bracket, so the share never exceeds the current bracket's upper end.
    Once that end is [<= floor] the share cannot beat [floor]: the
    search stops and returns the upper end, a value [<= floor] rather
    than the share.  With [floor >= 1] it returns [1.] without solving.
    Whenever the share is [> floor] the result is exact.  This is the
    floor contract of {!Po_num.Optimize.refine_grid_max2_floor}. *)

val price_sweep :
  ?pool:Po_par.Pool.t -> ?kappa_i:float -> config:config -> cs:float array ->
  Po_model.Cp.t array -> equilibrium array
(** Sweep ISP I's premium price, re-solving the migration equilibrium at
    each point (Fig. 7 generator).  [kappa_i] (default 1) overrides the
    kappa in [config.strategy_i].  Points are independent solves, so
    [pool] parallelises them with bit-identical results. *)

val capacity_sweep :
  ?pool:Po_par.Pool.t -> config:config -> nus:float array ->
  Po_model.Cp.t array -> equilibrium array
(** Sweep the total per-capita capacity (Fig. 8 generator); [pool] as in
    {!price_sweep}. *)

val best_response_market_share :
  ?levels:int -> ?points:int -> config:config -> Po_model.Cp.t array ->
  Strategy.t * equilibrium
(** ISP I's market-share-maximising strategy against [config.strategy_j]
    (grid refinement over the strategy square, [levels] default 2,
    [points] default 9), with a full {!solve} at that strategy.

    Grid points are scored by {!market_share} with the search's floor —
    the best share found so far — so a point stops its migration
    bisection once its bracket shows it cannot beat that share, and only
    the winner is solved in full.  Under the floor contract of
    {!Po_num.Optimize.refine_grid_max2_floor} the answer is bit-identical
    to scoring every point with [(solve cfg cps).m_i]: same strategy,
    same tie-break, same equilibrium. *)

val best_response_consumer_surplus :
  ?levels:int -> ?points:int -> config:config -> Po_model.Cp.t array ->
  Strategy.t * equilibrium
(** ISP I's strategy maximising the population consumer surplus — the
    benchmark Theorem 5 compares against. *)

val check_theorem5 :
  ?tol:float -> ?strategies:Strategy.t array -> config:config ->
  Po_model.Cp.t array -> (unit, string) result
(** Audit Theorem 5 on a strategy sample: when ISP J is a Public Option,
    any strategy with (weakly) larger market share for ISP I also yields
    (weakly, within [tol]) larger consumer surplus than strategies with
    smaller shares — i.e. share maximisation and surplus maximisation
    coincide at the top. *)
