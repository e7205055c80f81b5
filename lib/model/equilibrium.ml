type solution = {
  theta : float array;
  demand : float array;
  rho : float array;
  per_capita_rate : float;
  congested : bool;
  cap : float;
}

let empty =
  { theta = [||]; demand = [||]; rho = [||]; per_capita_rate = 0.;
    congested = false; cap = Float.infinity }

let unit_weights n = Array.make n 1.

let check_weights_n n weights =
  if Array.length weights <> n then
    invalid_arg "Equilibrium: weights length mismatch";
  Array.iter
    (fun w -> if w <= 0. then invalid_arg "Equilibrium: weight <= 0")
    weights

let check_weights cps weights = check_weights_n (Array.length cps) weights

(* Observability counters (DESIGN.md §11).  All are incremented once
   per logical solve/decision, independent of which domain runs the
   solve, so snapshots are jobs-invariant; disarmed they cost one
   atomic load each. *)
let m_solves = Po_obs.Metrics.counter "equilibrium.solves"

let m_iterations = Po_obs.Metrics.counter "equilibrium.iterations"

let m_uncongested = Po_obs.Metrics.counter "equilibrium.uncongested"

let m_hint_used = Po_obs.Metrics.counter "equilibrium.bracket_hint_used"

let m_hint_discarded = Po_obs.Metrics.counter "equilibrium.bracket_hint_discarded"

let theta_at_cap (cp : Cp.t) w cap =
  if Float.equal cap Float.infinity then cp.Cp.theta_hat
  else Float.min cp.Cp.theta_hat (w *. cap)

let theta_at_cap_col th w cap =
  if Float.equal cap Float.infinity then th else Float.min th (w *. cap)

let aggregate_at_cap ?weights ~cap cps =
  let weights =
    match weights with
    | Some w ->
        check_weights cps w;
        w
    | None -> unit_weights (Array.length cps)
  in
  let acc = ref 0. in
  Array.iteri
    (fun i cp ->
      let theta = theta_at_cap cp weights.(i) cap in
      acc := !acc +. Cp.lambda_per_capita cp ~theta)
    cps;
  !acc

let of_cap cps weights ~congested cap =
  let n = Array.length cps in
  let theta = Array.init n (fun i -> theta_at_cap cps.(i) weights.(i) cap) in
  let demand = Array.init n (fun i -> Cp.demand_at cps.(i) theta.(i)) in
  let rho = Array.init n (fun i -> demand.(i) *. theta.(i)) in
  let per_capita_rate =
    let acc = ref 0. in
    Array.iteri (fun i cp -> acc := !acc +. (cp.Cp.alpha *. rho.(i))) cps;
    !acc
  in
  { theta; demand; rho; per_capita_rate; congested; cap }

let of_cap_soa soa weights ~congested cap =
  let n = Cp_soa.length soa in
  let theta =
    Array.init n (fun i ->
        theta_at_cap_col (Cp_soa.theta_hat soa i) weights.(i) cap)
  in
  let demand = Array.init n (fun i -> Cp_soa.demand_at soa i theta.(i)) in
  let rho = Array.init n (fun i -> demand.(i) *. theta.(i)) in
  let per_capita_rate =
    let acc = ref 0. in
    for i = 0 to n - 1 do
      acc := !acc +. (Cp_soa.alpha soa i *. rho.(i))
    done;
    !acc
  in
  { theta; demand; rho; per_capita_rate; congested; cap }

(* ------------------------------------------------------------------ *)
(* Sorted-prefix solver context (structure-of-arrays, DESIGN.md §12)  *)
(* ------------------------------------------------------------------ *)

(* The water-filling aggregate sum_i alpha_i d_i(theta_i(cap)) theta_i(cap)
   splits at any cap into two populations: CPs whose saturation threshold
   theta_hat_i / w_i lies at or below the water level contribute the
   {e constant} alpha_i d_i(theta_hat_i) theta_hat_i, the rest contribute a
   cap-dependent term.  Presorting by threshold turns the constant part
   into one binary search plus one prefix-sum lookup, so each evaluation
   costs O(log n + #unsaturated) instead of O(n); in paper ensembles the
   water level sits above most thresholds, leaving a short tail.

   Since the million-CP tier (DESIGN.md §12) the context stores the
   sorted population as unboxed float {e columns} rather than boxed
   [Cp.t] records: the tail loop touches flat arrays only, and for the
   exponential demand family the curve is evaluated inline from the
   [beta] column with no closure call.  Every float operation replicates
   the record path's sequence exactly, so the column evaluator is
   bit-identical to the retained record-based reference evaluator; the
   accumulation order is the sorted one (saturated prefix first, then
   the unsaturated tail) in both.  See DESIGN.md §9 and §12. *)
type demand_col =
  | Dexp of float array
      (* per-sorted-position beta of the exponential family *)
  | Dfun of Demand.t array  (* general demands, one closure per position *)

type context = {
  thresholds : float array;  (* ascending theta_hat_i / w_i *)
  sat : float array;  (* contribution of sorted CP s once saturated *)
  sat_prefix : float array;  (* sat_prefix.(k) = left fold of sat.(0..k-1) *)
  s_alpha : float array;  (* sorted alpha column *)
  s_theta_hat : float array;  (* sorted theta_hat column *)
  s_weights : float array;  (* sorted weight column *)
  s_demand : demand_col;  (* sorted demand parameters *)
}

(* Sort order by (key, original index): ties are ordered by original
   index so the accumulation order — and with it every downstream bit —
   is independent of the sort algorithm. *)
let sort_order keys =
  let order = Array.init (Array.length keys) Fun.id in
  Array.sort
    (fun i j ->
      let c = Float.compare keys.(i) keys.(j) in
      if c <> 0 then c else Int.compare i j)
    order;
  order

(* Demand value of sorted position [s] at a clamped throughput ratio
   [omega]; the [Dexp] arm inlines [Demand.exponential]'s curve
   (bit-identical — see Cp_soa.demand_curve), the [Dfun] arm calls the
   stored closure exactly as the record path did. *)
let demand_value demand s omega =
  match demand with
  | Dexp betas -> Cp_soa.demand_curve ~beta:betas.(s) omega
  | Dfun demands -> Demand.eval demands.(s) omega

(* One cap-dependent tail term: exactly [Cp.lambda_per_capita cp
   ~theta:(theta_at_cap cp w cap)] of the record path, rebuilt from
   columns — same clamps, same operation order. *)
let tail_term ctx s cap =
  let th = ctx.s_theta_hat.(s) in
  let theta0 = theta_at_cap_col th ctx.s_weights.(s) cap in
  (* [Cp.cap_theta]'s clamp, idempotent here but kept for bit parity. *)
  let theta = Float.min (Float.max theta0 0.) th in
  let d = demand_value ctx.s_demand s (theta /. th) in
  ctx.s_alpha.(s) *. (d *. theta)

let build_context ~n ~alpha ~theta_hat ~weights ~demand =
  let keys = Array.init n (fun i -> theta_hat i /. weights.(i)) in
  let order = sort_order keys in
  let ctx =
    { thresholds = Array.map (Array.get keys) order; sat = [||];
      sat_prefix = [||]; s_alpha = Array.map alpha order;
      s_theta_hat = Array.map theta_hat order;
      s_weights = Array.map (Array.get weights) order; s_demand = demand order }
  in
  (* Saturated contribution = the tail term at an infinite water level
     (theta pinned to theta_hat), exactly the record path's
     [Cp.lambda_per_capita cp ~theta:theta_hat]. *)
  let sat = Array.init n (fun s -> tail_term ctx s Float.infinity) in
  let sat_prefix = Array.make (n + 1) 0. in
  for s = 0 to n - 1 do
    sat_prefix.(s + 1) <- sat_prefix.(s) +. sat.(s)
  done;
  { ctx with sat; sat_prefix }

let context ?weights cps =
  let n = Array.length cps in
  let weights =
    match weights with
    | Some w ->
        check_weights cps w;
        w
    | None -> unit_weights n
  in
  (* The exponential family gets the closure-free column evaluator; any
     other demand keeps its closure (both arms are bit-identical to the
     record path, the Dexp one is just faster). *)
  let all_exponential =
    Array.for_all (fun (cp : Cp.t) -> Option.is_some (Demand.beta cp.Cp.demand))
      cps
  in
  let demand order =
    if all_exponential then
      Dexp
        (Array.map
           (fun i ->
             match Demand.beta cps.(i).Cp.demand with
             | Some b -> b
             | None -> 0. (* unreachable: all_exponential *))
           order)
    else Dfun (Array.map (fun i -> cps.(i).Cp.demand) order)
  in
  build_context ~n
    ~alpha:(fun i -> cps.(i).Cp.alpha)
    ~theta_hat:(fun i -> cps.(i).Cp.theta_hat)
    ~weights ~demand

let context_soa ?weights soa =
  let n = Cp_soa.length soa in
  let weights =
    match weights with
    | Some w ->
        check_weights_n n w;
        w
    | None -> unit_weights n
  in
  build_context ~n
    ~alpha:(Cp_soa.alpha soa)
    ~theta_hat:(Cp_soa.theta_hat soa)
    ~weights
    ~demand:(fun order ->
      Dexp (Array.map (fun i -> Cp_soa.beta soa i) order))

(* Number of sorted CPs whose threshold is <= cap (first sorted position
   strictly above the water level). *)
let saturated_count thresholds cap =
  let lo = ref 0 and hi = ref (Array.length thresholds) in
  while !hi > !lo do
    let mid = (!lo + !hi) / 2 in
    if thresholds.(mid) <= cap then lo := mid + 1 else hi := mid
  done;
  !lo

(* Optimized evaluator: prefix-sum lookup + unsaturated tail over flat
   columns. *)
let aggregate_sorted ctx ~cap =
  let n = Array.length ctx.thresholds in
  let k = saturated_count ctx.thresholds cap in
  let acc = ref ctx.sat_prefix.(k) in
  (match ctx.s_demand with
  | Dexp betas ->
      (* Hot loop of the large-n tier: flat float-array reads and one
         inlined curve evaluation per unsaturated CP. *)
      for s = k to n - 1 do
        let th = ctx.s_theta_hat.(s) in
        let theta0 = theta_at_cap_col th ctx.s_weights.(s) cap in
        let theta = Float.min (Float.max theta0 0.) th in
        let d = Cp_soa.demand_curve ~beta:betas.(s) (theta /. th) in
        acc := !acc +. (ctx.s_alpha.(s) *. (d *. theta))
      done
  | Dfun _ ->
      for s = k to n - 1 do
        acc := !acc +. tail_term ctx s cap
      done);
  !acc

(* ------------------------------------------------------------------ *)
(* Canonical segment search                                           *)
(* ------------------------------------------------------------------ *)

(* Between two consecutive thresholds the saturated set is fixed, so the
   root of g(cap) = aggregate(cap) - nu lives in a canonical segment:
   the one bracketed by the last grid point with g < 0 and the first
   with g >= 0 over the grid 0, t_1, ..., t_n.  Locating that segment by
   binary search over the monotone predicate g(x_k) < 0 — optionally
   narrowed by a caller-supplied bracket hint — and only then running
   Brent inside it keeps the final root-finding call {e independent} of
   how the segment was found: any valid hint yields bit-identical
   results, which is what lets the CP game warm-start aggressively
   without breaking determinism.

   The search never evaluates a grid point twice, and hands the values
   it holds at the final segment's ends to Brent, which would otherwise
   evaluate them again.  A one-sided hint — [(cap, infinity)] for a
   level that can only rise, [(0, cap)] for one that can only fall, the
   two the CP game produces — gallops from its finite end, so a level
   that moved by a few thresholds costs a few probes, not a bisection of
   the whole grid.  Neither changes the segment or the values Brent is
   given, so neither changes a bit of the result.

   [aggregate] closes over its own population data (column context or
   the reference's record context); only [thresholds] is needed here. *)
let congested_cap ~thresholds ~aggregate ~bracket ~tol ~nu =
  let n = Array.length thresholds in
  let grid_point k = if k = 0 then 0. else thresholds.(k - 1) in
  let g cap = aggregate ~cap -. nu in
  (* g(0) = -nu exactly — every term of the aggregate is d_i(0) *. 0. = 0.
     — so the zero-capacity check needs no O(n) evaluation. *)
  if Float.equal nu 0. then
    { Po_num.Roots.root = 0.; value = 0.; iterations = 0; converged = true }
  else begin
    let g_n = g (grid_point n) in
    if g_n < 0. then
      (* Can only happen for demands violating d(1) = 1 (Assumption 1):
         even a level saturating every CP falls short of nu.  The seed
         solver raised [Roots.No_bracket] here; the condition now
         travels the typed error channel instead (same taxonomy case,
         DESIGN.md §10). *)
      Po_guard.Po_error.fail
        (Po_guard.Po_error.No_bracket
           (Printf.sprintf
              "Equilibrium.solve: aggregate at cap_max falls short of nu=%g"
              nu));
    (* The segment sought is [lo, lo + 1] with g(x_lo) < 0 <= g(x_hi);
       every probe narrows [lo, hi] towards it and keeps the value it
       computed.  g(x_0) = -nu < 0 holds without an evaluation. *)
    let lo = ref 0 and hi = ref n in
    let g_lo = ref None and g_hi = ref (Some g_n) in
    let below k =
      let v = g (grid_point k) in
      if v < 0. then begin
        lo := k;
        g_lo := Some v;
        true
      end
      else begin
        hi := k;
        g_hi := Some v;
        false
      end
    in
    (match bracket with
    | None -> ()
    | Some (b_lo, b_hi) ->
        (* A hint that provably straddles the sign change narrows the
           search to its grid points; one that does not is discarded
           after at most two probes (which still narrow it). *)
        let b_lo = Float.max b_lo 0. in
        let b_hi = Float.min b_hi (grid_point n) in
        let k_lo = saturated_count thresholds b_lo in
        (* Smallest k with grid_point k >= b_hi. *)
        let k_hi = min n (saturated_count thresholds b_hi + 1) in
        if
          b_lo < b_hi && Float.is_finite b_lo && k_lo < k_hi
          && (k_lo = 0 || below k_lo)
          && (k_hi = n || not (below k_hi))
        then begin
          Po_obs.Metrics.incr m_hint_used;
          (* Gallop from the finite end of a one-sided hint. *)
          let step = ref 1 in
          if k_hi = n && k_lo > 0 then
            while !lo + !step < !hi && below (!lo + !step) do
              step := 2 * !step
            done
          else if k_lo = 0 && k_hi < n then
            while !hi - !step > !lo && not (below (!hi - !step)) do
              step := 2 * !step
            done
        end
        else Po_obs.Metrics.incr m_hint_discarded);
    while !hi - !lo > 1 do
      ignore (below ((!lo + !hi) / 2))
    done;
    Po_num.Roots.brent ~tol ~max_iter:200 ?f_lo:!g_lo ?f_hi:!g_hi ~f:g
      ~lo:(grid_point !lo) ~hi:(grid_point !hi) ()
  end

(* Shared congested-solve flow: fault site, context frames, the segment
   search, and the convergence check.  Returns the water level.

   [budget] is the cooperative deadline/cancellation check of the
   supervision layer (DESIGN.md §13): every aggregate evaluation is one
   iteration of the segment search or of Brent, so checking inside the
   closure bounds the time between checks by a single O(log n + tail)
   evaluation.  [None] costs nothing.  The frames are built only on the
   way out of a failure: formatting [nu] costs about a microsecond,
   which a small class solve cannot afford on every call. *)
let solve_congested ?budget ~thresholds ~aggregate ~bracket ~tol ~nu ~n () =
  let aggregate =
    match budget with
    | None -> aggregate
    | Some b ->
        fun ~cap ->
          Po_sup.Budget.check b;
          aggregate ~cap
  in
  let frames () =
    [ ("solver", "equilibrium"); ("nu", Printf.sprintf "%.17g" nu);
      ("cps", string_of_int n) ]
  in
  (* Armed fault site solver@k: the k-th guarded solve reports
     non-convergence, exercising the whole propagation path without
     needing a pathological input. *)
  if Po_guard.Faultinject.fire Po_guard.Faultinject.Solver ~key:0 then
    Po_guard.Po_error.fail
      ~context:(("injected", "solver") :: frames ())
      (Po_guard.Po_error.Non_convergence
         { residual = Float.infinity; iterations = 0 });
  let outcome =
    Po_guard.Po_error.with_context frames (fun () ->
        congested_cap ~thresholds ~aggregate ~bracket ~tol ~nu)
  in
  (* The seed discarded [converged] and used the last iterate; a
     water level that silently missed its tolerance would poison
     every welfare number downstream, so surface it. *)
  Po_obs.Metrics.add m_iterations outcome.Po_num.Roots.iterations;
  if not outcome.Po_num.Roots.converged then
    Po_guard.Po_error.fail ~context:(frames ())
      (Po_guard.Po_error.Non_convergence
         { residual = Float.abs outcome.Po_num.Roots.value;
           iterations = outcome.Po_num.Roots.iterations });
  outcome.Po_num.Roots.root

(* The congested solve on a sorted-prefix context: every column front
   end ([solve], [solve_soa], [solve_subset]) goes through here. *)
let solve_context ?budget ~context ~bracket ~tol ~nu ~n () =
  solve_congested ?budget ~thresholds:context.thresholds
    ~aggregate:(fun ~cap -> aggregate_sorted context ~cap)
    ~bracket ~tol ~nu ~n ()

let default_tol = 1e-12

let solve ?budget ?context:ctx ?bracket ?weights ?(tol = default_tol) ~nu cps =
  if nu < 0. then invalid_arg "Equilibrium.solve: nu < 0";
  let n = Array.length cps in
  if n = 0 then empty
  else begin
    Po_obs.Metrics.incr m_solves;
    let weights =
      match weights with
      | Some w ->
          check_weights cps w;
          w
      | None -> unit_weights n
    in
    let unconstrained =
      Array.fold_left (fun acc cp -> acc +. Cp.lambda_hat_per_capita cp) 0. cps
    in
    if nu >= unconstrained then begin
      Po_obs.Metrics.incr m_uncongested;
      of_cap cps weights ~congested:false Float.infinity
    end
    else begin
      let context =
        match ctx with Some c -> c | None -> context ~weights cps
      in
      of_cap cps weights ~congested:true
        (solve_context ?budget ~context ~bracket ~tol ~nu ~n ())
    end
  end

let solve_soa ?budget ?context:ctx ?bracket ?weights ?(tol = default_tol) ~nu
    soa =
  if nu < 0. then invalid_arg "Equilibrium.solve_soa: nu < 0";
  let n = Cp_soa.length soa in
  if n = 0 then empty
  else begin
    Po_obs.Metrics.incr m_solves;
    let weights =
      match weights with
      | Some w ->
          check_weights_n n w;
          w
      | None -> unit_weights n
    in
    let unconstrained =
      let acc = ref 0. in
      for i = 0 to n - 1 do
        acc := !acc +. Cp_soa.lambda_hat_per_capita soa i
      done;
      !acc
    in
    if nu >= unconstrained then begin
      Po_obs.Metrics.incr m_uncongested;
      of_cap_soa soa weights ~congested:false Float.infinity
    end
    else begin
      let context =
        match ctx with Some c -> c | None -> context_soa ~weights soa
      in
      of_cap_soa soa weights ~congested:true
        (solve_context ?budget ~context ~bracket ~tol ~nu ~n ())
    end
  end

(* ------------------------------------------------------------------ *)
(* Market context: one population, many class solves (DESIGN.md §16)  *)
(* ------------------------------------------------------------------ *)

(* A CP game re-solves its two classes thousands of times, and every
   class is a subset of one fixed population.  The market holds what a
   class solve would otherwise recompute per member on every call: the
   population's (theta_hat, index) order and each CP's saturated values.
   All unit weights, so a threshold is theta_hat itself
   ([theta_hat /. 1.] and [1. *. cap] are exact).

   Immutable once built: one market is shared by every solve of a search
   and, through the pools, by several domains at once, so
   [subset_context] allocates its scratch per call. *)
type market = {
  cps : Cp.t array;
  order : int array;  (* population indices by (theta_hat, index) *)
  (* Columns by population index: *)
  theta_hat : float array;
  alpha : float array;
  sat_term : float array;  (* alpha d(theta_hat) theta_hat *)
  sat_demand : float array;  (* d(theta_hat) = [Cp.demand_at cp theta_hat] *)
  sat_rho : float array;  (* sat_demand *. theta_hat *)
  beta : float array;  (* exponential-family beta; nan for other demands *)
  unit : float array;  (* n ones: the weight column of every subset *)
}

let market cps =
  let theta_hat = Array.map (fun (cp : Cp.t) -> cp.Cp.theta_hat) cps in
  let alpha = Array.map (fun (cp : Cp.t) -> cp.Cp.alpha) cps in
  let sat_demand =
    Array.map (fun (cp : Cp.t) -> Cp.demand_at cp cp.Cp.theta_hat) cps
  in
  let sat_rho = Array.mapi (fun i d -> d *. theta_hat.(i)) sat_demand in
  { cps; order = sort_order theta_hat; theta_hat; alpha; sat_demand; sat_rho;
    sat_term = Array.mapi (fun i r -> alpha.(i) *. r) sat_rho;
    beta =
      Array.map
        (fun (cp : Cp.t) ->
          Option.value (Demand.beta cp.Cp.demand) ~default:Float.nan)
        cps;
    unit = unit_weights (Array.length cps) }

let market_cps m = m.cps

let saturated_rho m i = m.sat_rho.(i)

(* The context [context] would build on the member array, in one pass
   over the market's columns: members are in ascending population index,
   so filtering the population order yields exactly [sort_order] of the
   member array (one member needs no filtering), and the cached saturated
   terms are the values [tail_term] computes at an infinite level.  At
   unit weights a threshold is theta_hat itself, so the two columns are
   one array. *)
let subset_context m members =
  let k = Array.length members in
  let s_theta_hat = Array.make k 0. in
  let s_alpha = Array.make k 0. in
  let sat = Array.make k 0. in
  let sat_prefix = Array.make (k + 1) 0. in
  let betas = Array.make k 0. in
  let order = if k = 1 then members else Array.make k 0 in
  let exponential = ref true in
  let place s i =
    s_theta_hat.(s) <- m.theta_hat.(i);
    s_alpha.(s) <- m.alpha.(i);
    let b = m.beta.(i) in
    if Float.is_nan b then exponential := false;
    betas.(s) <- b;
    sat.(s) <- m.sat_term.(i);
    sat_prefix.(s + 1) <- sat_prefix.(s) +. sat.(s)
  in
  if k = 1 then place 0 members.(0)
  else begin
    let mark = Bytes.make (Array.length m.cps) '\000' in
    for p = 0 to k - 1 do
      Bytes.set mark members.(p) '\001'
    done;
    let s = ref 0 in
    for r = 0 to Array.length m.order - 1 do
      let i = m.order.(r) in
      if Bytes.get mark i <> '\000' then begin
        order.(!s) <- i;
        place !s i;
        incr s
      end
    done
  end;
  { thresholds = s_theta_hat; sat; sat_prefix; s_alpha; s_theta_hat;
    s_weights = m.unit;
    s_demand =
      (if !exponential then Dexp betas
       else Dfun (Array.map (fun i -> m.cps.(i).Cp.demand) order)) }

(* [of_cap] on the members at unit weights: a member saturated at [cap]
   (theta_hat <= cap, always at an infinite level) takes its cached
   values, the same expressions [of_cap] evaluates. *)
let of_cap_subset m members ~congested cap =
  let k = Array.length members in
  let theta = Array.make k 0. in
  let demand = Array.make k 0. in
  let rho = Array.make k 0. in
  let per_capita_rate = ref 0. in
  Array.iteri
    (fun p i ->
      let cp = m.cps.(i) in
      if cp.Cp.theta_hat <= cap then begin
        theta.(p) <- cp.Cp.theta_hat;
        demand.(p) <- m.sat_demand.(i);
        rho.(p) <- m.sat_rho.(i)
      end
      else begin
        let t = theta_at_cap cp 1. cap in
        let d = Cp.demand_at cp t in
        theta.(p) <- t;
        demand.(p) <- d;
        rho.(p) <- d *. t
      end;
      per_capita_rate := !per_capita_rate +. (cp.Cp.alpha *. rho.(p)))
    members;
  { theta; demand; rho; per_capita_rate = !per_capita_rate; congested; cap }

let subset_level ?bracket ~nu m members =
  if nu < 0. then invalid_arg "Equilibrium.solve_subset: nu < 0";
  let n = Array.length m.cps in
  let unconstrained = ref 0. in
  Array.iteri
    (fun p i ->
      if i < 0 || i >= n || (p > 0 && i <= members.(p - 1)) then
        invalid_arg
          "Equilibrium.solve_subset: members not ascending population indices";
      unconstrained := !unconstrained +. (m.alpha.(i) *. m.theta_hat.(i)))
    members;
  let k = Array.length members in
  if k = 0 then (false, Float.infinity)
  else begin
    Po_obs.Metrics.incr m_solves;
    if nu >= !unconstrained then begin
      Po_obs.Metrics.incr m_uncongested;
      (false, Float.infinity)
    end
    else
      ( true,
        solve_context ~context:(subset_context m members) ~bracket
          ~tol:default_tol ~nu ~n:k () )
  end

let solve_subset ?bracket ~nu m members =
  let congested, cap = subset_level ?bracket ~nu m members in
  of_cap_subset m members ~congested cap

(* ------------------------------------------------------------------ *)
(* Record-based reference solver (retained, DESIGN.md §9 and §12)     *)
(* ------------------------------------------------------------------ *)

(* The reference path deliberately keeps boxed [Cp.t] records and walks
   all [n] of them on every aggregate evaluation, deriving each term
   through the record accessors with no prefix table and no inlined
   demand curve.  It is the anchor of the bit-identity contract: the
   column paths above must agree with it bit for bit on every input
   (test/test_perf_kernel.ml, test/test_soa.ml). *)
type reference_context = {
  r_thresholds : float array;
  r_sat : float array;
  r_cps : Cp.t array;
  r_weights : float array;
}

let reference_context weights cps =
  let n = Array.length cps in
  let keys = Array.init n (fun i -> cps.(i).Cp.theta_hat /. weights.(i)) in
  let order = sort_order keys in
  let r_cps = Array.map (fun i -> cps.(i)) order in
  let r_weights = Array.map (fun i -> weights.(i)) order in
  let r_thresholds = Array.map (fun i -> keys.(i)) order in
  let r_sat =
    Array.map
      (fun (cp : Cp.t) -> Cp.lambda_per_capita cp ~theta:cp.Cp.theta_hat)
      r_cps
  in
  { r_thresholds; r_sat; r_cps; r_weights }

(* Reference evaluator: same branch condition and accumulation order as
   [aggregate_sorted] — the saturated CPs form a prefix of the sorted
   order and [sat_prefix] folds exactly their [sat] values — so the two
   are bit-identical by construction. *)
let aggregate_sorted_reference rctx ~cap =
  let n = Array.length rctx.r_thresholds in
  let acc = ref 0. in
  for s = 0 to n - 1 do
    let cp = rctx.r_cps.(s) in
    if rctx.r_thresholds.(s) <= cap then acc := !acc +. rctx.r_sat.(s)
    else begin
      let theta = theta_at_cap cp rctx.r_weights.(s) cap in
      acc := !acc +. Cp.lambda_per_capita cp ~theta
    end
  done;
  !acc

let solve_reference ?weights ?(tol = default_tol) ~nu cps =
  if nu < 0. then invalid_arg "Equilibrium.solve: nu < 0";
  let n = Array.length cps in
  if n = 0 then empty
  else begin
    Po_obs.Metrics.incr m_solves;
    let weights =
      match weights with
      | Some w ->
          check_weights cps w;
          w
      | None -> unit_weights n
    in
    let unconstrained =
      Array.fold_left (fun acc cp -> acc +. Cp.lambda_hat_per_capita cp) 0. cps
    in
    if nu >= unconstrained then begin
      Po_obs.Metrics.incr m_uncongested;
      of_cap cps weights ~congested:false Float.infinity
    end
    else begin
      let rctx = reference_context weights cps in
      let cap =
        solve_congested ~thresholds:rctx.r_thresholds
          ~aggregate:(fun ~cap -> aggregate_sorted_reference rctx ~cap)
          ~bracket:None ~tol ~nu ~n ()
      in
      of_cap cps weights ~congested:true cap
    end
  end

let solve_absolute ?budget ?weights ?tol ~m ~mu cps =
  if m <= 0. then invalid_arg "Equilibrium.solve_absolute: m <= 0";
  if mu < 0. then invalid_arg "Equilibrium.solve_absolute: mu < 0";
  solve ?budget ?weights ?tol ~nu:(mu /. m) cps

let theta_for sol i =
  if i < 0 || i >= Array.length sol.theta then
    invalid_arg "Equilibrium.theta_for: index out of bounds";
  sol.theta.(i)
