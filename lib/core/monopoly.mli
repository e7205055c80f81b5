(** Monopolistic ISP analysis (Sec. III).

    A single last-mile ISP with per-capita capacity [nu] picks
    [s_I = (kappa, c)] to maximise its premium revenue
    [Psi = c * lambda_P / M]; the CPs then play the second-stage game.
    The section's analytical findings reproduced here:

    - Theorem 4: [s = (kappa, c)] is dominated by [(1, c)] — the
      unregulated monopolist starves the free class;
    - with abundant capacity the revenue-optimal price under-utilises the
      link and depresses consumer surplus (Fig. 4/5), motivating either
      network-neutral regulation or the Public Option. *)

type price_point = {
  c : float;
  psi : float;  (** per-capita ISP surplus at this price *)
  phi : float;  (** per-capita consumer surplus at this price *)
  premium_count : int;
  premium_load : float;  (** per-capita traffic carried by the premium class *)
  utilization : float;  (** carried fraction of total capacity [nu] *)
}

val point_of_outcome : Cp_game.outcome -> price_point
(** Project a CP-game outcome to the monopoly sweep observables. *)

val price_sweep :
  ?pool:Po_par.Pool.t -> ?chunk_size:int -> ?kappa:float -> nu:float ->
  cs:float array -> Po_model.Cp.t array -> price_point array
(** Sweep the premium price at fixed [kappa] (default 1, the dominant
    choice), warm-starting each CP-game solve from the previous price's
    partition within fixed chunks ({!Po_par.Pool.chain_map}; Fig. 4
    generator).  [pool] parallelises across chunks without changing the
    result. *)

val capacity_sweep :
  ?pool:Po_par.Pool.t -> ?chunk_size:int -> strategy:Strategy.t ->
  nus:float array -> Po_model.Cp.t array -> Cp_game.outcome array
(** Sweep per-capita capacity at a fixed strategy with chunked warm
    starts (Fig. 5 generator); same contract as {!price_sweep}. *)

val optimal_price :
  ?kappa:float -> ?levels:int -> ?points:int -> nu:float ->
  Po_model.Cp.t array -> price_point
(** Revenue-maximising price at fixed [kappa] by multilevel grid refinement
    over [[0, max_i v_i]]. *)

val optimal_strategy :
  ?levels:int -> ?points:int -> nu:float -> Po_model.Cp.t array ->
  Strategy.t * Cp_game.outcome
(** Revenue-maximising [(kappa, c)] over the full strategy square. *)

type regime =
  | Unregulated  (** the ISP plays its revenue-optimal strategy *)
  | Neutral  (** regulation imposes [(0, 0)] *)
  | Capped of float  (** regulation caps [kappa]; ISP optimises below the cap *)
  | Fixed of Strategy.t  (** the ISP is committed to a given strategy *)

val regime_outcome : nu:float -> regime -> Po_model.Cp.t array -> Cp_game.outcome
(** Equilibrium outcome of the CP game under each regulatory regime.
    Grid probes during strategy optimisation are best-effort; the
    returned outcome itself may carry [converged = false] — use
    {!Cp_game.ensure_converged} to reject that case. *)

val check_theorem4 :
  ?tol:float -> nu:float -> c:float -> kappas:float array ->
  Po_model.Cp.t array -> (unit, string) result
(** Audit Theorem 4 numerically: at price [c], no [kappa] in the list
    earns more revenue than [kappa = 1]. *)
