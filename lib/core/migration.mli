(** Explicit consumer-migration dynamics (Assumption 5).

    The equilibrium solvers in {!Duopoly} and {!Oligopoly} jump straight to
    the equal-surplus fixed point; this module simulates the migration
    {e process} itself — consumers flow from ISPs offering lower per-capita
    surplus towards those offering higher — and is used to demonstrate
    that the process converges to the same equilibria (and to study speeds
    and transients).

    The update is a replicator-style rule: with shares [m_I] and surpluses
    [Phi_I], mean surplus [avg = sum m_I Phi_I],

    {v m_I <- m_I * (1 + eta * (Phi_I - avg) / scale) v}

    followed by renormalisation; [scale] is the current maximum surplus
    (or 1 when all surpluses vanish), making [eta] a dimensionless step
    size. *)

type state = {
  shares : float array;
  phis : float array;  (** per-ISP per-capita consumer surplus at these shares *)
  time : int;
}

val init : Oligopoly.config -> Po_model.Cp.t array -> state
(** Start from shares proportional to capacity. *)

val init_with : shares:float array -> Oligopoly.config -> Po_model.Cp.t array -> state
(** Start from given shares (positive, summing to 1 within [1e-9]). *)

val step :
  ?eta:float -> Oligopoly.config -> Po_model.Cp.t array -> state -> state
(** One migration step ([eta] defaults to [0.5]).  Shares are floored at
    [1e-6] before renormalisation so an ISP can always win consumers
    back. *)

val run :
  ?eta:float -> ?tol:float -> ?max_steps:int -> Oligopoly.config ->
  Po_model.Cp.t array -> state -> state * bool
(** Iterate until the largest surplus spread [max Phi - min Phi] falls
    below [tol] (default [1e-4] relative to the max surplus) or
    [max_steps] (default 500) elapse.  Returns the final state and whether
    the spread converged. *)

val surplus_spread : state -> float
(** [max phis - min phis]. *)

val run_continuous :
  ?dt:float -> ?tol:float -> ?max_steps:int -> Oligopoly.config ->
  Po_model.Cp.t array -> state -> state * bool
(** The continuous-time replicator form of Assumption 5,

    {v dm_I/dt = m_I * (Phi_I - avg) / scale v}

    integrated with classical RK4 ([dt] defaults to [0.2], renormalising
    onto the simplex after every step).  Stops when the surplus spread
    falls below [tol] (default [1e-4], relative to the max surplus) or
    after [max_steps] (default 2000) RK4 steps.  Converges to the same
    equal-surplus equilibria as {!run}; exposed to study trajectories and
    adjustment speeds without step-size artefacts. *)
