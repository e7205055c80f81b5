(** The system rate equilibrium (Theorem 1).

    The interplay between a rate-allocation mechanism and the demand
    functions pins down a unique throughput profile.  Under max-min
    fairness, the paper's working mechanism (Sec. II-D), the allocation
    has the {e common-cap} form

    {v theta_i = min (theta_hat_i, cap) v}

    for a scalar [cap >= 0]: every flow is throttled at the same water
    level, and flows whose unconstrained throughput lies below the level
    are unconstrained.  The equilibrium cap solves the work-conservation
    equation (Axiom 2)

    {v sum_i alpha_i d_i(theta_i(cap)) theta_i(cap) = min (nu, sum_i alpha_i theta_hat_i) v}

    whose left side is continuous and non-decreasing in [cap] under
    Assumption 1, so root-finding converges to the unique solution.

    {b One store, one path (DESIGN.md §9, §12 and §16).}  Every solve
    runs on a {!market}: the population's per-CP constants as unboxed
    float columns by population index, its sort order by saturation
    threshold [theta_hat_i], and each CP's saturated demand and
    aggregate term, computed once.  {!solve} builds a market from
    records, {!solve_soa} from {!Cp_soa.t} columns (allocating no
    record), and a CP game builds one per population and re-solves
    subsets of it ({!solve_subset}).  All of them then take one path:
    the members' sorted context (filtered from the market's order, or
    that order as is for the whole population), the water level, and
    one materialiser.  An uncongested {!solve} or {!solve_soa} needs no
    level, so its market is built without the sort.

    The context prefix-sums the saturated contributions, so every
    aggregate evaluation is a binary search plus a loop over the
    unsaturated tail only, evaluating exponential-family demands inline
    with no closure call.  The root is located in two stages: a binary
    search over the threshold grid pins the canonical segment containing
    the sign change, then Brent runs inside it, to the absolute
    tolerance [1e-12] on the level.  Because the segment is canonical, a
    [?bracket] hint (or its absence) can only change {e how fast} the
    segment is found, never the segment itself — warm-started solves are
    bit-identical to cold ones, and both are bit-identical to
    {!solve_reference}, which deliberately keeps boxed records and
    closure-based demand evaluation.

    All quantities are per-capita ([nu = mu / M]); Lemma 1 (independence of
    scale) is then true by construction, and absolute systems [(M, mu)] are
    handled by dividing ({!Alloc.solve_absolute}). *)

type solution = {
  theta : float array;  (** achievable throughput per CP *)
  demand : float array;  (** [d_i theta_i] *)
  rho : float array;  (** per-user per-capita throughput [d_i theta_i * theta_i] (Eq. 5) *)
  per_capita_rate : float;  (** [lambda_N / M = sum_i alpha_i rho_i] *)
  congested : bool;  (** whether [nu < sum_i alpha_i theta_hat_i] *)
  cap : float;  (** the water level; [infinity] when unconstrained *)
}

val empty : solution
(** Equilibrium of a system with no CPs. *)

val solve :
  ?budget:Po_sup.Budget.t -> ?bracket:float * float -> nu:float -> Cp.t array ->
  solution
(** Compute the max-min rate equilibrium of the per-capita system
    [(nu, cps)]: {!solve_subset} over every index of the population's
    market.  [nu >= 0].

    [bracket] is a warm-start hint [(lo, hi)] for the water level,
    typically the previous solve's cap padded to the known side of a
    monotone perturbation; a hint that does not straddle the root is
    detected in two probes and discarded, and {e any} hint — valid,
    invalid, or absent — yields bit-identical output.

    Failure travels the typed error channel (DESIGN.md §10): an
    unbracketable work-conservation equation raises
    [Po_guard.Po_error.Error] with kind [No_bracket], and a Brent run
    that exhausts its iteration budget raises kind [Non_convergence]
    instead of silently returning the last iterate.  Context frames
    carry the solver name, [nu] and the population size.

    [budget] is a [Po_sup.Budget] deadline/cancellation token
    (DESIGN.md §13), checked cooperatively at every aggregate
    evaluation — i.e. at each iteration of the segment search and of
    Brent — and surfacing as kind [Deadline_exceeded] or [Cancelled]
    with the same context frames.  A budget never changes a completed
    solve's output. *)

val solve_soa : nu:float -> Cp_soa.t -> solution
(** {!solve} over a structure-of-arrays population, through a market
    built straight from its columns: no [Cp.t] records are allocated
    anywhere on the solve path, which is what lets the n = 10^6 tier run
    with bounded memory.  Bit-identical to [solve ~nu (Cp_soa.to_cps
    soa)] on every input (test/test_soa.ml); same error taxonomy and
    observability counters. *)

type market
(** One population's per-CP constants, built once and read by every
    solve over its members (DESIGN.md §16): the alpha, theta_hat and
    exponential-family beta columns, the (theta_hat, index) sort order,
    and each CP's saturated demand [d(theta_hat)], rate
    [rho = d(theta_hat) theta_hat] and aggregate term [alpha rho].
    Immutable, so one market may be shared across domains. *)

val market : Cp.t array -> market
(** Build the market of a population: one sort and one demand evaluation
    per CP. *)

val market_cps : market -> Cp.t array
(** The population the market was built from. *)

val saturated_rho : market -> int -> float
(** [saturated_rho m i] is CP [i]'s rate at its own [theta_hat]:
    bit for bit [Cp.rho cp ~theta:cp.theta_hat]. *)

val subset_level :
  ?bracket:float * float -> nu:float -> market -> int array -> bool * float
(** [subset_level ~nu m members] is the water level of the CPs at the
    given population indices, as [(congested, cap)]: the two fields of
    {!solve_subset}'s solution, and nothing else is built.  [cap] is
    infinite when the members are uncongested or there are none.
    [members] must be strictly ascending population indices
    ([Invalid_argument] otherwise).  The sorted context comes from one
    pass over the market's order and columns — no sort, and no demand
    evaluation for saturated terms.  Same segment search, error
    taxonomy and counters as {!solve}. *)

val of_cap_subset : market -> int array -> congested:bool -> float -> solution
(** [of_cap_subset m members ~congested cap] materialises the members'
    solution at water level [cap]: throughputs, demands and rates in
    [members] order (saturated members take the market's cached values)
    and their per-capita rate.  No solve and no counter. *)

val solve_subset :
  ?bracket:float * float -> nu:float -> market -> int array -> solution
(** [solve_subset ~nu m members] is {!of_cap_subset} at {!subset_level}:
    the equilibrium of the CPs at the given population indices, bit for
    bit [solve ?bracket ~nu (Array.map (Array.get (market_cps m))
    members)] (and so {!solve_reference}); the solution's arrays follow
    [members]. *)

val solve_reference : nu:float -> Cp.t array -> solution
(** The retained differential-testing reference: identical segment
    search and Brent call, but every aggregate evaluation walks all [n]
    CP records with no prefix table and no bracket narrowing ever
    applies, and the solution at that level comes from the record
    formula [theta_i = min theta_hat_i cap] on the records alone, not
    from {!of_cap_subset}.  {!solve} must agree with it bit for bit on
    every input; the [test_perf_kernel] suite enforces this. *)
