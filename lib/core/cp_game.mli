(** The second-stage CP game (Sec. III-B to III-D).

    Given an ISP strategy [s = (kappa, c)] and the ISP's per-capita
    capacity [nu], every CP simultaneously chooses the ordinary class
    (capacity [(1-kappa) nu], free) or the premium class (capacity
    [kappa nu], charged [c] per unit traffic).  A CP's payoff is
    [v_i lambda_i] in the ordinary class and [(v_i - c) lambda_i] in the
    premium class (Eq. 4).

    Two solution concepts are implemented:

    - {b competitive equilibrium} (Definition 3): CPs are
      throughput-takers (Assumption 3) — under max-min fairness a CP
      estimates its achievable throughput in a class from the class's
      current water level, [theta~ = min (theta_hat, cap)].  This is the
      concept the paper evaluates numerically and the default solver here.
    - {b Nash equilibrium} (Definition 2): deviations are evaluated
      ex-post, re-solving the target class with the deviator included.

    Ties are broken toward the ordinary class throughout, as in the
    paper. *)

type solution_concept =
  | Competitive of float
      (** Definition 3, satisfied up to the given relative eps (0 when the
          strict iteration converged).  With finitely many CPs an exact
          competitive equilibrium need not exist — a marginal CP's own
          membership can move a class's water level past its indifference
          point — so the solver settles for an eps-equilibrium. *)
  | Expost_nash
      (** Definition 2: no CP gains by switching when the deviation is
          evaluated ex-post (deviator included).  The solver falls back to
          this concept when throughput-taking refuses to settle, which
          happens only in small populations where single CPs carry a
          macroscopic share of a class's load. *)

type outcome = {
  strategy : Strategy.t;
  nu : float;  (** the ISP's per-capita capacity during this game *)
  partition : Partition.t;
  theta : float array;  (** per-CP achievable throughput (full population) *)
  rho : float array;  (** per-CP per-user per-capita throughput [d theta] *)
  cap_ordinary : float;  (** ordinary-class water level; 0 when no capacity *)
  cap_premium : float;
  lambda_ordinary : float;  (** per-capita traffic carried by the ordinary class *)
  lambda_premium : float;  (** per-capita traffic carried by the premium class *)
  phi : float;  (** per-capita consumer surplus (Eq. 2) across both classes *)
  psi : float;  (** per-capita ISP surplus [c * lambda_premium] *)
  converged : bool;
  iterations : int;
  concept : solution_concept;
  (** which equilibrium notion this outcome satisfies; audit
      [Competitive eps] with [check_competitive ~rel_tol:eps] and
      [Expost_nash] with [check_nash] *)
}

val class_solution :
  nu_class:float -> Po_model.Cp.t array -> Po_model.Equilibrium.solution
(** Max-min rate equilibrium of one service class; a class with zero
    capacity yields zero throughput (cap 0) even when empty. *)

val outcome_of_partition :
  nu:float -> strategy:Strategy.t -> Po_model.Cp.t array -> Partition.t ->
  outcome
(** Evaluate rates and welfare at a {e fixed} partition (no equilibrium
    search); [converged] is [true], [iterations] 0. *)

val default_hysteresis : float
(** Relative switching threshold of the tolerant solver phase ([1e-3]):
    with finitely many CPs a marginal CP's own membership can move a
    class's water level past its indifference point, so an {e exact}
    competitive equilibrium need not exist; the solver then settles for an
    eps-equilibrium in which no CP can gain more than this fraction of its
    utility by switching. *)

val solve :
  ?budget:Po_sup.Budget.t -> ?init:Partition.t -> ?max_iter:int ->
  nu:float -> strategy:Strategy.t -> Po_model.Cp.t array -> outcome
(** Competitive equilibrium via simultaneous best-response iteration with
    cycle detection; on a cycle the solver falls back to one-CP-at-a-time
    (asynchronous) updates, which dampen the overshoot.  [init] warm-starts
    the partition (useful along parameter sweeps); the default start is the
    affordable set [{i : v_i > c}] (or all-ordinary when [kappa = 0]).
    [max_iter] (default 200) bounds simultaneous rounds; asynchronous
    passes are bounded separately.  [converged = false] flags a best-effort
    outcome.

    Internally the search runs on an {e engine} that memoises class
    water levels by partition key and warm-starts every class re-solve
    after a single-CP move from a one-sided bracket around the previous
    water level (the level moves monotonically when one CP enters or
    leaves; DESIGN.md §9).  Class re-solves pass member indices to
    {!Po_model.Equilibrium.subset_level} on the population's market and
    build no solution arrays; those are materialised only for the outcome
    and the Nash pass, and kept in the memo with the entrant estimates
    read at each partition.  An entrant estimate at a level that
    saturates the CP reads the market's cached rate (DESIGN.md §16).  All
    of these are bit-transparent, so {!solve} agrees with
    {!solve_reference} bit for bit.

    [budget] is a [Po_sup.Budget] deadline/cancellation token
    (DESIGN.md §13), checked cooperatively at the start of every
    simultaneous round and every asynchronous/tolerant/Nash pass; on
    expiry the search raises a typed [Deadline_exceeded] (or
    [Cancelled]) stamped with the solver frames rather than hanging.
    A budget never changes the outcome of a search that completes. *)

val solve_market :
  ?budget:Po_sup.Budget.t -> ?init:Partition.t -> ?max_iter:int ->
  nu:float -> strategy:Strategy.t -> Po_model.Equilibrium.market -> outcome
(** {!solve} on the market's population.  [solve ... cps] is
    [solve_market ... (Equilibrium.market cps)]: the engine's class
    re-solves read the market (DESIGN.md §16), so a search that solves
    many games on one population builds it once and passes it to each.
    Bit-identical to {!solve} on [Equilibrium.market_cps market]. *)

val solve_reference :
  ?init:Partition.t -> ?max_iter:int -> nu:float -> strategy:Strategy.t ->
  Po_model.Cp.t array -> outcome
(** {!solve} on the differential-testing engine: every class re-solve goes
    through {!Po_model.Equilibrium.solve_reference}, cold, with no caches
    and no bracket hints.  [test_perf_kernel] pins {!solve} to this bit for
    bit. *)

val check_competitive :
  ?tol:float -> ?rel_tol:float -> nu:float -> strategy:Strategy.t ->
  Po_model.Cp.t array -> Partition.t -> (unit, int * string) result
(** Audit Definition 3 at a partition: no CP prefers the other class under
    throughput-taking estimates by more than [tol] (absolute, default
    [1e-9]) plus [rel_tol] (relative to its current utility, default 0 —
    pass {!default_hysteresis} to audit the solver's eps-equilibria).
    Stops at the first violation and returns its CP index alongside the
    message. *)

val check_nash :
  ?tol:float -> nu:float -> strategy:Strategy.t -> Po_model.Cp.t array ->
  Partition.t -> (unit, int * string) result
(** Audit Definition 2 at a partition: deviations evaluated ex-post with
    the deviator included in the target class.  Stops at the first
    violation and returns its CP index alongside the message. *)

val solve_nash :
  ?budget:Po_sup.Budget.t -> ?init:Partition.t -> ?max_rounds:int ->
  nu:float -> strategy:Strategy.t -> Po_model.Cp.t array -> outcome
(** Nash equilibrium search by asynchronous ex-post best responses
    (round-robin).  Converges when a full pass makes no move.  Runs on the
    same caching/warm-starting engine as {!solve}. *)

val solve_nash_reference :
  ?init:Partition.t -> ?max_rounds:int -> nu:float -> strategy:Strategy.t ->
  Po_model.Cp.t array -> outcome
(** {!solve_nash} on the cold reference engine (see {!solve_reference}). *)

val ensure_converged : ?context:(string * string) list -> outcome -> outcome
(** Identity on a converged outcome; raises [Po_guard.Po_error.Error]
    with kind [Non_convergence] (stamped with the solver name, [nu] and
    the strategy, plus the caller's [context] frames) on a best-effort
    one — the guard call sites use so that a dropped [converged] flag
    can never silently feed a figure (DESIGN.md §10). *)

