(** Oligopolistic ISP competition (Sec. IV-B).

    A set of ISPs with capacity shares [gamma_I] (summing to 1) and
    strategies [s_I] compete for consumers; consumers equalise per-capita
    surplus across ISPs (Definition 4).  Key results reproduced:

    - Lemma 4: homogeneous strategies give market shares proportional to
      capacity shares;
    - Theorem 6 / Corollary 1: market-share best responses are
      [epsilon]-best responses for consumer surplus, with [epsilon] the
      largest downward jump of the rivals' surplus curves (Eq. 9).

    The equal-surplus equilibrium is computed by bisecting the common
    surplus level [Phi*]: each ISP's surplus-vs-capacity curve is sampled
    once (warm-started) and inverted, giving the share it would hold at a
    candidate [Phi*]; the level is adjusted until shares sum to one. *)

type isp = {
  label : string;
  gamma : float;  (** capacity share, in (0, 1] *)
  strategy : Strategy.t;
}

type config = { nu : float; isps : isp array }

val config : nu:float -> isp array -> config
(** Validates: at least one ISP, every [gamma > 0], shares summing to 1
    within [1e-9]. *)

val homogeneous :
  ?gammas:float array -> nu:float -> n:int -> strategy:Strategy.t -> unit ->
  config
(** [n] ISPs playing the same strategy; [gammas] defaults to equal
    shares. *)

type equilibrium = {
  shares : float array;  (** market share per ISP (sums to 1) *)
  nus : float array;  (** per-capita capacity per ISP at the equilibrium *)
  phis : float array;  (** per-capita consumer surplus per ISP *)
  phi_star : float;  (** the common surplus level *)
  outcomes : Cp_game.outcome array;
  psis : float array;  (** ISP surplus per head of the total population *)
  over_provisioned : bool;
  (** [true] when total capacity lets every ISP deliver its maximum
      surplus; shares are then set proportionally to the capacity each
      would need at saturation. *)
}

val solve :
  ?pool:Po_par.Pool.t -> ?curve_points:int -> ?prices:float array -> config ->
  Po_model.Cp.t array -> equilibrium
(** [pool] parallelises the surplus-curve sampling across fixed chunks of
    warm-start chains without changing the result
    ({!Monopoly.capacity_sweep}).
    [curve_points] (default 140) controls the sampling of each ISP's
    surplus curve.  [prices] (default all zero) are consumer-side
    subscription prices in surplus units, one per ISP; consumers then
    equalise {e net} surplus [Phi_I - p_I] (Sec. VI discusses ISPs
    subsidising consumer fees from CP-side revenue — a negative price).
    [equilibrium.phi_star] is the common net level; [phis] stay gross.

    Every CP-game solve feeding the equilibrium — the surplus-curve
    samples and the final per-ISP outcomes — travels the typed error
    channel: a non-converged solve raises [Po_guard.Po_error.Error]
    with its sweep/stage context frames (DESIGN.md §10). *)

val best_response :
  ?pool:Po_par.Pool.t -> ?levels:int -> ?points:int -> ?curve_points:int ->
  i:int -> config -> Po_model.Cp.t array -> Strategy.t * equilibrium
(** ISP [i]'s market-share-maximising strategy against the others' fixed
    strategies (grid refinement). *)

val market_share_nash :
  ?pool:Po_par.Pool.t -> ?rounds:int -> ?strategies:Strategy.t array ->
  ?curve_points:int -> config -> Po_model.Cp.t array ->
  config * equilibrium * bool
(** Best-response dynamics over a finite strategy menu (default a coarse
    grid): ISPs revise in round-robin order until no ISP can improve its
    share, or [rounds] (default 10) passes elapse.  Returns the final
    profile, its equilibrium, and whether the dynamics converged —
    a (menu-restricted) market-share Nash equilibrium per Definition 6. *)

val check_lemma4 : ?tol:float -> config -> Po_model.Cp.t array -> (unit, string) result
(** For a homogeneous-strategy config, audit that equilibrium shares equal
    capacity shares within [tol] (default [5e-3]). *)

type alignment_audit = {
  share_best : Strategy.t;  (** strategy maximising ISP [i]'s market share *)
  surplus_best : Strategy.t;  (** strategy maximising the common surplus *)
  phi_deficit : float;
  (** [max_s Phi*(s) - Phi*(share_best)] — how much surplus share-chasing
      sacrifices (Theorem 6 bounds this by the rivals' epsilon) *)
  share_deficit : float;
  (** [max_s m(s) - m(surplus_best)] — how much share surplus-chasing
      sacrifices *)
  epsilon_rivals : float;
  (** measured largest downward jump of the rivals' surplus curves *)
}

val theorem6_audit :
  ?pool:Po_par.Pool.t -> ?strategies:Strategy.t array ->
  ?epsilon_nus:float array -> i:int -> config -> Po_model.Cp.t array ->
  alignment_audit
(** Evaluate the Theorem 6 alignment empirically over a strategy sample for
    ISP [i].  [epsilon_nus] is the capacity grid used to measure the
    rivals' surplus-curve jumps (defaults to 120 points spanning
    saturation). *)
