(** Explicit ODE integration (classical Runge-Kutta).

    Used for the continuous-time form of the consumer-migration dynamics
    (replicator equations) and available to any experiment that needs a
    smooth trajectory. *)

val rk4_step :
  f:(t:float -> float array -> float array) -> t:float -> dt:float ->
  float array -> float array
(** One classical fourth-order Runge-Kutta step for [y' = f t y].  The
    derivative must preserve the state dimension (checked). *)

val integrate :
  f:(t:float -> float array -> float array) -> t0:float -> t1:float ->
  steps:int -> y0:float array -> (float * float array) array
(** Fixed-step RK4 trajectory from [t0] to [t1] ([steps >= 1] intervals);
    returns the [steps + 1] sample points including both endpoints. *)

val integrate_to :
  ?post:(float array -> float array) ->
  f:(t:float -> float array -> float array) -> t0:float -> t1:float ->
  steps:int -> float array -> float array
(** Endpoint only.  [post] (default identity) is applied after every step
    — e.g. a renormalisation keeping the state on the simplex, which is
    how the replicator dynamics guard against drift. *)

val integrate_until :
  ?post:(float array -> float array) -> ?max_steps:int ->
  f:(t:float -> float array -> float array) -> dt:float ->
  stop:(float array -> bool) -> float array -> float array * bool
(** Step until [stop] holds (returns [(state, true)]) or [max_steps]
    (default 10000) elapse ([(state, false)]). *)
