(** The request → solve → result core shared by the daemon and the
    one-shot CLI (DESIGN.md §14).

    {!eval} is a pure function of the query: the optional budget can
    abort a computation (typed [Deadline_exceeded] / [Cancelled]) but
    never changes a completed result, so the daemon's cache can store
    rendered responses and serve them byte-identically, and [ponet
    query] answers with exactly the bytes the daemon would produce. *)

type outcome = {
  nu : float;  (** per-capita capacity of the compared market *)
  n_cps : int;
  regimes : Po_core.Public_option.regime list;
      (** unregulated, neutral, public option — {!Po_core.Public_option.compare_regimes} order *)
}
(** One regime comparison, rendered two ways: the [regimes] query (and
    [ponet regimes]) reads each regime's [result], the [welfare] query
    (and [ponet welfare]) its three-party [welfare] decomposition. *)

val scenario_market :
  Request.scenario -> Po_model.Cp.t array * float
(** Materialise a request scenario: the paper ensemble at the request's
    seed, and [nu = nu_frac * saturation_nu] — the same construction as
    [Po_experiments.Common.ensemble] plus the CLI's [--capacity]
    convention. *)

val regimes :
  ?budget:Po_sup.Budget.t -> ?pool:Po_par.Pool.t -> sc:Request.scenario ->
  po_share:float -> levels:int -> points:int -> unit -> outcome
(** The paper's headline regime comparison on the request's market:
    {!Po_core.Public_option.compare_regimes}, which checks [budget]
    before each of the three regime solves.  Both queries ([regimes],
    [welfare]) and both CLI tables are rendered from this.  [pool] runs
    the three regimes in parallel (values are pool-invariant); the
    daemon always omits it: a solve running inside a pool worker must
    not re-enter the pool. *)

val parallel_safe : Request.query -> bool
(** Whether the query may be evaluated inside a parallel batch on the
    domain pool.  Figure generation mutates the process-wide sweep
    scope, so [Fig_point] (and the trivially cheap [Stats]) must run
    serially in the dispatcher. *)

val eval :
  ?budget:Po_sup.Budget.t -> Request.query -> (Po_obs.Json.t, Request.error)
  result
(** Evaluate one query.  Typed solver/supervision failures come back as
    structured {!Request.error}s carrying a [("query", name)] context
    frame — never an exception, never a dropped response. *)

val eval_parallel :
  ?budget:Po_sup.Budget.t -> Request.query -> (Po_obs.Json.t, Request.error)
  result
(** {!eval} restricted to the {!parallel_safe} queries — the dispatch a
    pool worker runs.  Its static call graph cannot reach the figure
    layer's process-wide sweep scope (polint R7 checks this), which is
    what makes batching on the domain pool sound.  A non-parallel-safe
    query answers a typed [invalid_scenario] error. *)
