(** Sizing the Public Option (Sec. VI discussion).

    The paper argues the Public Option works as a {e safety net}: "the
    more ISPs competing in a market, the less capacity we need to deploy
    for the Public Option to be effective", and even a slice comparable
    to the market share the monopolist cannot afford to lose (their
    example: 10%) suffices, because its mere existence re-aligns the
    commercial ISP with consumer surplus.

    This module quantifies that claim: sweep the capacity share carved
    out for the Public Option, let the commercial ISP best-respond for
    market share at each point, and compare the resulting consumer
    surplus against the two regulatory baselines. *)

type point = {
  po_share : float;  (** capacity share given to the Public Option *)
  commercial_strategy : Strategy.t;  (** the commercial ISP's best response *)
  commercial_share : float;  (** its equilibrium market share *)
  phi : float;  (** population per-capita consumer surplus *)
  psi_commercial : float;  (** commercial ISP revenue per total capita *)
}

val sweep :
  ?pool:Po_par.Pool.t -> levels:int -> points:int -> nu:float ->
  po_shares:float array -> Po_model.Cp.t array -> point array
(** One {!Public_option.public_option} regime per Public-Option share
    (so each reported equilibrium is checked for convergence);
    [levels]/[points] control the commercial ISP's best-response grid (as
    in {!Duopoly.best_response_market_share}).  Shares are independent
    solves, so [pool] parallelises them with bit-identical results. *)

type effectiveness = {
  sweep : point array;
  phi_unregulated : float;  (** the no-PO monopoly baseline *)
  phi_neutral : float;  (** the neutrality-regulation baseline *)
  minimum_effective_share : float option;
  (** smallest swept share whose [phi] already (weakly) beats neutral
      regulation — the paper predicts this is small *)
}

val effectiveness :
  ?pool:Po_par.Pool.t -> ?slack:float -> levels:int -> points:int ->
  nu:float -> po_shares:float array -> Po_model.Cp.t array -> effectiveness
(** Full comparison; [slack] (default 1e-3, relative) is the tolerance on
    "beats neutral regulation". *)
