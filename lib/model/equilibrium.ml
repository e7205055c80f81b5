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

let default_tol = 1e-12

(* Observability counters (DESIGN.md §11).  All are incremented once
   per logical solve/decision, independent of which domain runs the
   solve, so snapshots are jobs-invariant; disarmed they cost one
   atomic load each. *)
let m_solves = Po_obs.Metrics.counter "equilibrium.solves"

let m_iterations = Po_obs.Metrics.counter "equilibrium.iterations"

let m_uncongested = Po_obs.Metrics.counter "equilibrium.uncongested"

let m_hint_used = Po_obs.Metrics.counter "equilibrium.bracket_hint_used"

let m_hint_discarded = Po_obs.Metrics.counter "equilibrium.bracket_hint_discarded"

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

(* ------------------------------------------------------------------ *)
(* The market: one population's columns (DESIGN.md §12 and §16)       *)
(* ------------------------------------------------------------------ *)

(* Every solve runs on a market: the population's per-CP constants as
   unboxed float columns by population index, its (theta_hat, index)
   sort order, and each CP's saturated values.  A CP game builds one
   market per population and re-solves subsets of it thousands of times;
   [solve] and [solve_soa] build one for a single solve over every
   index.

   The records stay beside the columns: [cps] is what [market] was built
   from, read only for the closures of non-exponential demands, and
   empty for a market built from [Cp_soa] columns (whose demands are all
   exponential), which aliases those columns and allocates no record.
   Such a market never leaves this module, so [market_cps] only ever
   sees record markets.

   Immutable once built: one market is shared by every solve of a search
   and, through the pools, by several domains at once, so
   [subset_context] allocates its scratch per call.

   A market built for one uncongested solve is {e unsorted}: it has no
   [order] and no [sat_term], which only [subset_context] reads, and the
   materialiser needs neither.  It never leaves this module either. *)
type market = {
  cps : Cp.t array;  (* the records; [||] for a column-built market *)
  order : int array;  (* population indices by (theta_hat, index); [||]
                         when unsorted *)
  theta_hat : float array;  (* the saturation thresholds *)
  alpha : float array;
  beta : float array;  (* exponential-family beta; nan for other demands *)
  sat_demand : float array;  (* d(theta_hat) = [Cp.demand_at cp theta_hat] *)
  sat_term : float array;  (* alpha *. (sat_demand *. theta_hat) *)
}

(* [Cp.demand_at] of CP [i] from the columns: the exponential family
   inlines [Demand.exponential]'s curve from the beta column
   (bit-identical — see Cp_soa.demand_curve), any other demand calls its
   closure exactly as the record path does. *)
let demand_at m i theta =
  let b = m.beta.(i) in
  if Float.is_nan b then Cp.demand_at m.cps.(i) theta
  else
    let th = m.theta_hat.(i) in
    Cp_soa.demand_curve ~beta:b (Float.min (Float.max theta 0.) th /. th)

let build_market ~sorted ~cps ~alpha ~theta_hat ~beta =
  let m =
    { cps; order = (if sorted then sort_order theta_hat else [||]);
      theta_hat; alpha; beta; sat_demand = [||]; sat_term = [||] }
  in
  let sat_demand = Array.mapi (fun i th -> demand_at m i th) theta_hat in
  { m with
    sat_demand;
    sat_term =
      (if sorted then
         Array.mapi (fun i d -> alpha.(i) *. (d *. theta_hat.(i))) sat_demand
       else [||]) }

let market_of_cps ~sorted cps =
  build_market ~sorted ~cps
    ~alpha:(Array.map (fun (cp : Cp.t) -> cp.Cp.alpha) cps)
    ~theta_hat:(Array.map (fun (cp : Cp.t) -> cp.Cp.theta_hat) cps)
    ~beta:
      (Array.map
         (fun (cp : Cp.t) ->
           Option.value (Demand.beta cp.Cp.demand) ~default:Float.nan)
         cps)

let market cps = market_of_cps ~sorted:true cps

let market_cps m = m.cps

(* A saturated CP's rate, [Cp.rho cp ~theta:theta_hat]. *)
let saturated_rho m i = m.sat_demand.(i) *. m.theta_hat.(i)

(* ------------------------------------------------------------------ *)
(* Sorted-prefix solver context (structure-of-arrays, DESIGN.md §12)  *)
(* ------------------------------------------------------------------ *)

(* The water-filling aggregate sum_i alpha_i d_i(theta_i(cap)) theta_i(cap)
   splits at any cap into two populations: CPs whose saturation threshold
   theta_hat_i lies at or below the water level contribute the
   {e constant} alpha_i d_i(theta_hat_i) theta_hat_i, the rest contribute a
   cap-dependent term.  Presorting by threshold turns the constant part
   into one binary search plus one prefix-sum lookup, so each evaluation
   costs O(log n + #unsaturated) instead of O(n); in paper ensembles the
   water level sits above most thresholds, leaving a short tail.

   The context stores the sorted members as unboxed float {e columns}:
   the tail loop touches flat arrays only, and for the exponential
   demand family the curve is evaluated inline from the [beta] column
   with no closure call.  Every float operation replicates the record
   path's sequence exactly, so the column evaluator is bit-identical to
   the retained record-based reference evaluator; the accumulation order
   is the sorted one (saturated prefix first, then the unsaturated tail)
   in both.  See DESIGN.md §9 and §12. *)
type demand_col =
  | Dexp of float array
      (* per-sorted-position beta of the exponential family *)
  | Dfun of Demand.t array  (* general demands, one closure per position *)

type context = {
  s_theta_hat : float array;  (* ascending theta_hat: the thresholds *)
  sat_prefix : float array;  (* left fold of the first k saturated terms *)
  s_alpha : float array;  (* sorted alpha column *)
  s_demand : demand_col;  (* sorted demand parameters *)
}

(* The context of the members (strictly ascending population indices),
   in one pass over the market's order and columns: filtering the
   population order yields exactly the (theta_hat, index) order of the
   members, and the cached saturated terms are the tail terms of
   [aggregate_sorted] at an infinite level.  The whole population takes the
   market's order as is, and one member needs no filtering. *)
let subset_context m members =
  let k = Array.length members in
  let n = Array.length m.order in
  let s_theta_hat = Array.make k 0. in
  let s_alpha = Array.make k 0. in
  let sat_prefix = Array.make (k + 1) 0. in
  let betas = Array.make k 0. in
  let exponential = ref true in
  let place s i =
    s_theta_hat.(s) <- m.theta_hat.(i);
    s_alpha.(s) <- m.alpha.(i);
    let b = m.beta.(i) in
    if Float.is_nan b then exponential := false;
    betas.(s) <- b;
    sat_prefix.(s + 1) <- sat_prefix.(s) +. m.sat_term.(i)
  in
  let order =
    if k = n then begin
      Array.iteri place m.order;
      m.order
    end
    else if k = 1 then begin
      place 0 members.(0);
      members
    end
    else begin
      let order = Array.make k 0 in
      let mark = Bytes.make n '\000' in
      for p = 0 to k - 1 do
        Bytes.set mark members.(p) '\001'
      done;
      let s = ref 0 in
      for r = 0 to n - 1 do
        let i = m.order.(r) in
        if Bytes.get mark i <> '\000' then begin
          order.(!s) <- i;
          place !s i;
          incr s
        end
      done;
      order
    end
  in
  { s_theta_hat; sat_prefix; s_alpha;
    s_demand =
      (if !exponential then Dexp betas
       else Dfun (Array.map (fun i -> m.cps.(i).Cp.demand) order)) }

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
   columns.  Each tail term is exactly [Cp.lambda_per_capita cp
   ~theta:(min theta_hat cap)] of the record path, rebuilt from
   columns — same clamps, same operation order; the [Dexp] arm inlines
   [Demand.exponential]'s curve, the [Dfun] arm calls the stored closure
   exactly as the record path does. *)
let aggregate_sorted ctx ~cap =
  let n = Array.length ctx.s_theta_hat in
  let k = saturated_count ctx.s_theta_hat cap in
  let acc = ref ctx.sat_prefix.(k) in
  for s = k to n - 1 do
    let th = ctx.s_theta_hat.(s) in
    (* [Cp.cap_theta]'s clamp, idempotent here but kept for bit parity. *)
    let theta = Float.min (Float.max (Float.min th cap) 0.) th in
    let d =
      match ctx.s_demand with
      | Dexp betas -> Cp_soa.demand_curve ~beta:betas.(s) (theta /. th)
      | Dfun demands -> Demand.eval demands.(s) (theta /. th)
    in
    acc := !acc +. (ctx.s_alpha.(s) *. (d *. theta))
  done;
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
   the reference's record context); only [thresholds] is needed here.
   The absolute tolerance on the water level is [default_tol]. *)
let congested_cap ~thresholds ~aggregate ~bracket ~nu =
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
    Po_num.Roots.brent ~tol:default_tol ~max_iter:200 ?f_lo:!g_lo
      ?f_hi:!g_hi ~f:g ~lo:(grid_point !lo) ~hi:(grid_point !hi) ()
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
let solve_congested ?budget ~thresholds ~aggregate ~bracket ~nu ~n () =
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
        congested_cap ~thresholds ~aggregate ~bracket ~nu)
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

(* ------------------------------------------------------------------ *)
(* The solve path: market -> context -> level -> materialiser         *)
(* ------------------------------------------------------------------ *)

(* The level of the members of [m], as [(congested, cap)]: validation,
   counters, and the congested solve on their sorted context. *)
let level ?budget ?bracket ~nu m members =
  if nu < 0. then invalid_arg "Equilibrium.solve_subset: nu < 0";
  let n = Array.length m.theta_hat in
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
    else begin
      let context = subset_context m members in
      ( true,
        solve_congested ?budget ~thresholds:context.s_theta_hat
          ~aggregate:(fun ~cap -> aggregate_sorted context ~cap)
          ~bracket ~nu ~n:k () )
    end
  end

let subset_level ?bracket ~nu m members = level ?bracket ~nu m members

(* The one materialiser: the members' throughputs, demands and rates at
   water level [cap], in [members] order, where a member has throughput
   [min theta_hat cap].  A member with [theta_hat <= cap] (every member
   at an infinite level) is saturated and takes the market's cached
   values, the same expressions evaluated once.  Any other member runs
   at [cap]. *)
let of_cap_subset m members ~congested cap =
  let k = Array.length members in
  let theta = Array.make k 0. in
  let demand = Array.make k 0. in
  let rho = Array.make k 0. in
  let per_capita_rate = ref 0. in
  Array.iteri
    (fun p i ->
      let th = m.theta_hat.(i) in
      if th <= cap then begin
        theta.(p) <- th;
        demand.(p) <- m.sat_demand.(i);
        rho.(p) <- saturated_rho m i
      end
      else begin
        let d = demand_at m i cap in
        theta.(p) <- cap;
        demand.(p) <- d;
        rho.(p) <- d *. cap
      end;
      per_capita_rate := !per_capita_rate +. (m.alpha.(i) *. rho.(p)))
    members;
  { theta; demand; rho; per_capita_rate = !per_capita_rate; congested; cap }

let solve_members ?budget ?bracket ~nu m members =
  let congested, cap = level ?budget ?bracket ~nu m members in
  of_cap_subset m members ~congested cap

let solve_subset ?bracket ~nu m members = solve_members ?bracket ~nu m members

(* A solve over every index of a market built for it.  [unconstrained]
   is the population's aggregate at an infinite level, summed in index
   order exactly as [level] sums it: when [level] will find the solve
   uncongested the market is built unsorted, so the solve costs no sort. *)
let solve_all ?budget ?bracket ~nu ~unconstrained build =
  let m = build ~sorted:(not (nu >= unconstrained)) in
  solve_members ?budget ?bracket ~nu m
    (Array.init (Array.length m.theta_hat) Fun.id)

let solve ?budget ?bracket ~nu cps =
  if nu < 0. then invalid_arg "Equilibrium.solve: nu < 0";
  solve_all ?budget ?bracket ~nu
    ~unconstrained:
      (Array.fold_left (fun acc cp -> acc +. Cp.lambda_hat_per_capita cp) 0. cps)
    (fun ~sorted -> market_of_cps ~sorted cps)

let solve_soa ~nu (soa : Cp_soa.t) =
  if nu < 0. then invalid_arg "Equilibrium.solve_soa: nu < 0";
  let unconstrained = ref 0. in
  for i = 0 to soa.n - 1 do
    unconstrained := !unconstrained +. Cp_soa.lambda_hat_per_capita soa i
  done;
  solve_all ~nu ~unconstrained:!unconstrained (fun ~sorted ->
      build_market ~sorted ~cps:[||] ~alpha:soa.alpha ~theta_hat:soa.theta_hat
        ~beta:soa.beta)

(* ------------------------------------------------------------------ *)
(* Record-based reference solver (retained, DESIGN.md §9 and §12)     *)
(* ------------------------------------------------------------------ *)

(* The reference level deliberately keeps boxed [Cp.t] records and walks
   all [n] of them on every aggregate evaluation, deriving each term
   through the record accessors with no prefix table and no inlined
   demand curve.  It is the anchor of the bit-identity contract: the
   column path above must find the same level bit for bit on every input
   (test/test_perf_kernel.ml, test/test_soa.ml).  It materialises the
   solution at that level on its own, by the record formula, so the same
   tests check the market's materialiser too. *)
type reference_context = {
  r_thresholds : float array;
  r_sat : float array;
  r_cps : Cp.t array;
}

let reference_context cps =
  let theta_hat (cp : Cp.t) = cp.Cp.theta_hat in
  let r_cps = Array.map (Array.get cps) (sort_order (Array.map theta_hat cps)) in
  let r_thresholds = Array.map theta_hat r_cps in
  let r_sat =
    Array.map
      (fun (cp : Cp.t) -> Cp.lambda_per_capita cp ~theta:cp.Cp.theta_hat)
      r_cps
  in
  { r_thresholds; r_sat; r_cps }

(* Reference evaluator: same branch condition and accumulation order as
   [aggregate_sorted] — the saturated CPs form a prefix of the sorted
   order and [sat_prefix] folds exactly their saturated terms — so the
   two are bit-identical by construction. *)
let aggregate_sorted_reference rctx ~cap =
  let n = Array.length rctx.r_thresholds in
  let acc = ref 0. in
  for s = 0 to n - 1 do
    let cp = rctx.r_cps.(s) in
    if rctx.r_thresholds.(s) <= cap then acc := !acc +. rctx.r_sat.(s)
    else begin
      let theta = Float.min cp.Cp.theta_hat cap in
      acc := !acc +. Cp.lambda_per_capita cp ~theta
    end
  done;
  !acc

(* The record formula from the records alone, by population index:
   [theta_i = min theta_hat_i cap], [d_i = Cp.demand_at],
   [rho_i = d_i theta_i], and the rate [sum_i alpha_i rho_i] summed in
   index order. *)
let reference_solution cps ~congested cap =
  let theta = Array.map (fun (cp : Cp.t) -> Float.min cp.Cp.theta_hat cap) cps in
  let demand = Array.mapi (fun i cp -> Cp.demand_at cp theta.(i)) cps in
  let rho = Array.mapi (fun i d -> d *. theta.(i)) demand in
  let per_capita_rate = ref 0. in
  Array.iteri
    (fun i (cp : Cp.t) ->
      per_capita_rate := !per_capita_rate +. (cp.Cp.alpha *. rho.(i)))
    cps;
  { theta; demand; rho; per_capita_rate = !per_capita_rate; congested; cap }

let solve_reference ~nu cps =
  if nu < 0. then invalid_arg "Equilibrium.solve: nu < 0";
  let n = Array.length cps in
  if n = 0 then empty
  else begin
    Po_obs.Metrics.incr m_solves;
    let unconstrained =
      Array.fold_left (fun acc cp -> acc +. Cp.lambda_hat_per_capita cp) 0. cps
    in
    let congested, cap =
      if nu >= unconstrained then begin
        Po_obs.Metrics.incr m_uncongested;
        (false, Float.infinity)
      end
      else begin
        let rctx = reference_context cps in
        ( true,
          solve_congested ~thresholds:rctx.r_thresholds
            ~aggregate:(fun ~cap -> aggregate_sorted_reference rctx ~cap)
            ~bracket:None ~nu ~n () )
      end
    in
    reference_solution cps ~congested cap
  end
