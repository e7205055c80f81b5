open Po_model

let log_src = Logs.Src.create "po.cp_game" ~doc:"CP-game equilibrium solver"

module Log = (val Logs.src_log log_src : Logs.LOG)

type solution_concept =
  | Competitive of float
  | Expost_nash

(* Observability counters (DESIGN.md §11).  Every increment is tied to
   a logical step of one game solve — a pure function of that solve's
   inputs — so totals are jobs-invariant; disarmed each costs one
   atomic load. *)
let m_solves = Po_obs.Metrics.counter "cp_game.solves"

let m_sync_rounds = Po_obs.Metrics.counter "cp_game.sync_rounds"

let m_async_passes = Po_obs.Metrics.counter "cp_game.async_passes"

let m_nash_passes = Po_obs.Metrics.counter "cp_game.nash_passes"

let m_moves = Po_obs.Metrics.counter "cp_game.moves"

let m_class_hits = Po_obs.Metrics.counter "cp_game.class_memo_hits"

let m_class_misses = Po_obs.Metrics.counter "cp_game.class_memo_misses"

type outcome = {
  strategy : Strategy.t;
  nu : float;
  partition : Partition.t;
  theta : float array;
  rho : float array;
  cap_ordinary : float;
  cap_premium : float;
  lambda_ordinary : float;
  lambda_premium : float;
  phi : float;
  psi : float;
  converged : bool;
  iterations : int;
  concept : solution_concept;
}

let zero_class_solution n =
  (* Zero capacity throttles everyone to zero, including the view an
     entrant would take of the class. *)
  { Equilibrium.theta = Array.make n 0.; demand = Array.make n 0.;
    rho = Array.make n 0.; per_capita_rate = 0.; congested = n > 0;
    cap = 0. }

let class_solution ~nu_class cps =
  if nu_class < 0. then invalid_arg "Cp_game.class_solution: nu_class < 0";
  if Float.equal nu_class 0. then zero_class_solution (Array.length cps)
  else Equilibrium.solve ~nu:nu_class cps

(* Water level an entrant perceives (Assumption 3): the class's current cap,
   0 when it has no capacity. *)
let entrant_cap ~nu_class (sol : Equilibrium.solution) =
  if Float.equal nu_class 0. then 0. else sol.Equilibrium.cap

let rho_at_cap (cp : Cp.t) cap =
  let theta = Float.min cp.Cp.theta_hat (Float.max cap 0.) in
  Cp.rho cp ~theta

let class_capacities ~nu ~strategy =
  let kappa = Strategy.kappa strategy in
  ((1. -. kappa) *. nu, kappa *. nu)

(* ------------------------------------------------------------------ *)
(* Solver engine                                                      *)
(* ------------------------------------------------------------------ *)

(* One engine lives for the duration of one equilibrium search.  It owns

   - the equilibrium kernels.  A class re-solve by member index yields
     the class's water level only ({!Equilibrium.subset_level} on the
     population's market): under throughput taking (Assumption 3) a CP
     chooses its class from the two levels alone, so best-response passes
     read nothing else.  The solution arrays are materialised
     ({!Equilibrium.of_cap_subset}) only for the outcome and for the Nash
     pass, which reads each CP's own rate.  Solo-entrant solves go through
     the market as one-member classes, ex-post deviations to
     {!Equilibrium.solve}; the reference engine sends all of them to the
     retained {!Equilibrium.solve_reference} for differential testing
     (which ignores bracket hints and the market),
   - the market's cached saturated rates, which an occupied class whose
     level saturates a CP hands to that CP's entrant estimate,
   - a partition-keyed memo of class levels — the phases of the search
     revisit partitions (cycle iterates, the finishing
     [outcome_of_partition], quiescent passes), and a class re-solve is
     a pure function of the membership.  Each entry also keeps what was
     read at its levels: the two solutions once materialised, and every
     entrant estimate once computed,
   - per-class warm-start brackets: when a single CP moves, the donor
     class's water level can only rise and the recipient's only fall,
     so the next re-solve starts from a one-sided interval around the
     previous level.

   All of these are bit-transparent: caches replay pure results, and
   bracket hints cannot change {!Equilibrium.solve}'s output (see
   equilibrium.mli),
   so an engine with everything enabled matches the reference engine bit
   for bit — test/test_perf_kernel.ml holds it to that. *)

(* The memo entry of one partition.  [cap_o] and [cap_p] are the
   entrant caps (0 in a class without capacity).  [estimates] holds the
   entrant estimate of CP [i] for the ordinary class at [i] and for the
   premium class at [n + i], nan until first read; it is allocated on
   the first read. *)
type entry = {
  congested_o : bool;
  cap_o : float;
  congested_p : bool;
  cap_p : float;
  mutable solutions : (Equilibrium.solution * Equilibrium.solution) option;
  mutable estimates : float array;
}

type engine = {
  class_level :
    bracket:(float * float) option -> nu:float -> int array -> bool * float;
  materialise :
    nu:float -> int array -> congested:bool -> float -> Equilibrium.solution;
  solo : nu:float -> int -> float;  (* CP [i]'s rate alone in a class *)
  kernel :
    bracket:(float * float) option -> nu:float -> Cp.t array ->
    Equilibrium.solution;
  saturated_rho : (int -> float) option;
  (* R2-audit (no directive needed; only find_opt/add/mem/replace): the class memo is a pure memo
     used through find_opt/replace only, never iterated, so Hashtbl order
     cannot reach any result. *)
  class_memo : (string, entry) Hashtbl.t option;
  mutable hint_o : (float * float) option;
  mutable hint_p : (float * float) option;
}

let optimized_engine market =
  { class_level =
      (fun ~bracket ~nu members ->
        Equilibrium.subset_level ?bracket ~nu market members);
    materialise =
      (fun ~nu:_ members ~congested cap ->
        Equilibrium.of_cap_subset market members ~congested cap);
    solo =
      (fun ~nu i ->
        (Equilibrium.solve_subset ~nu market [| i |]).Equilibrium.rho.(0));
    kernel = (fun ~bracket ~nu cps -> Equilibrium.solve ?bracket ~nu cps);
    saturated_rho = Some (Equilibrium.saturated_rho market);
    class_memo = Some (Hashtbl.create 64); hint_o = None; hint_p = None }

let reference_engine cps =
  let kernel ~bracket:_ ~nu cps = Equilibrium.solve_reference ~nu cps in
  let solve ~nu members =
    Equilibrium.solve_reference ~nu (Array.map (Array.get cps) members)
  in
  { class_level =
      (fun ~bracket:_ ~nu members ->
        let sol = solve ~nu members in
        (sol.Equilibrium.congested, sol.Equilibrium.cap));
    materialise = (fun ~nu members ~congested:_ _ -> solve ~nu members);
    solo = (fun ~nu i -> (solve ~nu [| i |]).Equilibrium.rho.(0));
    kernel; saturated_rho = None; class_memo = None; hint_o = None;
    hint_p = None }

(* [(congested, cap)] of one class: the fields of {!class_solution}. *)
let class_level_eng eng ~premium ~nu_class members =
  if Float.equal nu_class 0. then (Array.length members > 0, 0.)
  else begin
    let bracket = if premium then eng.hint_p else eng.hint_o in
    if premium then eng.hint_p <- None else eng.hint_o <- None;
    eng.class_level ~bracket ~nu:nu_class members
  end

(* Both class levels at a partition, memoised on the membership key
   (with a fixed population the key pins both member sets). *)
let class_levels eng ~nu_o ~nu_p partition =
  let compute () =
    let congested_o, cap_o =
      class_level_eng eng ~premium:false ~nu_class:nu_o
        (Partition.ordinary_indices partition)
    in
    let congested_p, cap_p =
      class_level_eng eng ~premium:true ~nu_class:nu_p
        (Partition.premium_indices partition)
    in
    { congested_o; cap_o; congested_p; cap_p; solutions = None;
      estimates = [||] }
  in
  match eng.class_memo with
  | None -> compute ()
  | Some memo -> (
      let key = Partition.key partition in
      match Hashtbl.find_opt memo key with
      | Some entry ->
          Po_obs.Metrics.incr m_class_hits;
          entry
      | None ->
          Po_obs.Metrics.incr m_class_misses;
          let entry = compute () in
          Hashtbl.replace memo key entry;
          entry)

(* Both class solutions of a memo entry, materialised on first use. *)
let class_solutions eng ~nu_o ~nu_p partition entry =
  match entry.solutions with
  | Some pair -> pair
  | None ->
      let solution ~nu_class members ~congested cap =
        if Float.equal nu_class 0. then
          zero_class_solution (Array.length members)
        else eng.materialise ~nu:nu_class members ~congested cap
      in
      let pair =
        ( solution ~nu_class:nu_o
            (Partition.ordinary_indices partition)
            ~congested:entry.congested_o entry.cap_o,
          solution ~nu_class:nu_p
            (Partition.premium_indices partition)
            ~congested:entry.congested_p entry.cap_p )
      in
      entry.solutions <- Some pair;
      pair

(* Record that CP [i] just moved: the class it left can only see its
   water level rise, the class it joined can only see it fall.  [cap_o]
   and [cap_p] are the entrant caps {e before} the move; non-finite or
   zero levels (empty, uncongested or capacity-less classes) carry no
   information and leave the next solve cold. *)
let note_move eng ~to_premium ~cap_o ~cap_p =
  let one_sided ~rising cap =
    if Float.is_finite cap && cap > 0. then
      Some (if rising then (cap, Float.infinity) else (0., cap))
    else None
  in
  if to_premium then begin
    eng.hint_o <- one_sided ~rising:true cap_o;
    eng.hint_p <- one_sided ~rising:false cap_p
  end
  else begin
    eng.hint_o <- one_sided ~rising:false cap_o;
    eng.hint_p <- one_sided ~rising:true cap_p
  end

(* Throughput-taking estimate (Assumption 3) of the per-user rate a CP
   expects in a class whose current water level is [cap].  An {e empty}
   class has no level to take — its cap is formally infinite, which would
   lure every CP simultaneously and destabilise the iteration — so the
   entrant anticipates its own solo equilibrium there instead.

   A level at or above the CP's theta_hat saturates it: [rho_at_cap]
   then evaluates its demand at theta_hat, which the market has cached
   under its population index [i]. *)
let estimate_rho eng ~nu_class ~occupied cap i (cp : Cp.t) =
  if Float.equal nu_class 0. then 0.
  else if occupied then
    match eng.saturated_rho with
    | Some saturated when cap >= cp.Cp.theta_hat -> saturated i
    | Some _ | None -> rho_at_cap cp cap
  else eng.solo ~nu:nu_class i

(* [estimate_rho] at a memo entry's levels, kept in the entry: the
   occupancy and the level are functions of the entry's partition, so a
   revisited partition replays its estimates. *)
let entry_estimate eng entry ~premium ~nu_class ~occupied i cp ~n =
  if Array.length entry.estimates = 0 then
    entry.estimates <- Array.make (2 * n) Float.nan;
  let slot = if premium then n + i else i in
  let rho = entry.estimates.(slot) in
  if Float.is_nan rho then begin
    let cap = if premium then entry.cap_p else entry.cap_o in
    let rho = estimate_rho eng ~nu_class ~occupied cap i cp in
    entry.estimates.(slot) <- rho;
    rho
  end
  else rho

let outcome_of_partition_eng eng ~nu ~strategy cps partition =
  if nu < 0. then invalid_arg "Cp_game.outcome_of_partition: nu < 0";
  let n = Array.length cps in
  if Partition.size partition <> n then
    invalid_arg "Cp_game.outcome_of_partition: partition size mismatch";
  let nu_o, nu_p = class_capacities ~nu ~strategy in
  let entry = class_levels eng ~nu_o ~nu_p partition in
  let sol_o, sol_p = class_solutions eng ~nu_o ~nu_p partition entry in
  let ordinary = Partition.ordinary_members partition cps in
  let premium = Partition.premium_members partition cps in
  let theta = Array.make n 0. and rho = Array.make n 0. in
  let fill indices (sol : Equilibrium.solution) =
    Array.iteri
      (fun pos idx ->
        theta.(idx) <- sol.Equilibrium.theta.(pos);
        rho.(idx) <- sol.Equilibrium.rho.(pos))
      indices
  in
  fill (Partition.ordinary_indices partition) sol_o;
  fill (Partition.premium_indices partition) sol_p;
  let phi =
    Surplus.consumer ordinary sol_o +. Surplus.consumer premium sol_p
  in
  let lambda_premium = sol_p.Equilibrium.per_capita_rate in
  { strategy; nu; partition; theta; rho; cap_ordinary = entry.cap_o;
    cap_premium = entry.cap_p;
    lambda_ordinary = sol_o.Equilibrium.per_capita_rate; lambda_premium;
    phi; psi = Strategy.c strategy *. lambda_premium; converged = true;
    iterations = 0; concept = Competitive 0. }

let outcome_of_partition ~nu ~strategy cps partition =
  outcome_of_partition_eng
    (optimized_engine (Equilibrium.market cps))
    ~nu ~strategy cps partition

(* One simultaneous best-response round: every CP re-decides against the
   current water levels.  Returns the new membership vector. *)
let simultaneous_round eng ~nu ~strategy cps partition =
  Po_obs.Metrics.incr m_sync_rounds;
  let nu_o, nu_p = class_capacities ~nu ~strategy in
  let c = Strategy.c strategy in
  let entry = class_levels eng ~nu_o ~nu_p partition in
  let occupied_o = Partition.ordinary_count partition > 0 in
  let occupied_p = Partition.premium_count partition > 0 in
  let n = Array.length cps in
  Partition.of_premium_indicator
    (Array.mapi
       (fun i (cp : Cp.t) ->
         let u_ordinary =
           cp.Cp.v
           *. entry_estimate eng entry ~premium:false ~nu_class:nu_o
                ~occupied:occupied_o i cp ~n
         in
         let u_premium =
           (cp.Cp.v -. c)
           *. entry_estimate eng entry ~premium:true ~nu_class:nu_p
                ~occupied:occupied_p i cp ~n
         in
         u_premium > u_ordinary)
       cps)

let default_hysteresis = 1e-3

(* Asynchronous pass: CPs re-decide one at a time in index order.  Water
   levels are cached and recomputed only after a CP actually moves — with
   warm-start brackets recording which way each level can go — so a
   quiescent pass costs two class solves total.  [hysteresis] is a relative
   switching threshold: a CP moves only when the other class improves its
   utility by that margin — the finite-population analogue of the
   throughput-taking assumption, without which a marginal CP whose own
   membership shifts the water level past its indifference point would
   flip for ever.  Returns the partition and whether any CP moved. *)
let asynchronous_pass ?(hysteresis = 0.) eng ~nu ~strategy cps partition =
  Po_obs.Metrics.incr m_async_passes;
  let nu_o, nu_p = class_capacities ~nu ~strategy in
  let c = Strategy.c strategy in
  let current = ref partition in
  let moved = ref false in
  (* Occupancy is tracked incrementally: recounting the premium class for
     every CP made each pass quadratic in the population and dominated the
     whole solve at n = 1000. *)
  let n_total = Partition.size partition in
  let n_premium = ref (Partition.premium_count partition) in
  let levels = ref None in
  let current_levels () =
    match !levels with
    | Some entry -> entry
    | None ->
        let entry = class_levels eng ~nu_o ~nu_p !current in
        levels := Some entry;
        entry
  in
  for i = 0 to Array.length cps - 1 do
    let entry = current_levels () in
    let occupied_o = n_total - !n_premium > 0 in
    let occupied_p = !n_premium > 0 in
    let cp = cps.(i) in
    let v = cp.Cp.v in
    let u_ordinary =
      v
      *. entry_estimate eng entry ~premium:false ~nu_class:nu_o
           ~occupied:occupied_o i cp ~n:n_total
    in
    let u_premium =
      (v -. c)
      *. entry_estimate eng entry ~premium:true ~nu_class:nu_p
           ~occupied:occupied_p i cp ~n:n_total
    in
    let in_premium = Partition.in_premium !current i in
    let margin u = Float.abs u *. hysteresis in
    let wants_premium =
      if in_premium then u_premium >= u_ordinary -. margin u_premium
      else u_premium > u_ordinary +. margin u_ordinary
    in
    if wants_premium <> in_premium then begin
      Po_obs.Metrics.incr m_moves;
      current := Partition.move !current i ~premium:wants_premium;
      n_premium := !n_premium + (if wants_premium then 1 else -1);
      moved := true;
      note_move eng ~to_premium:wants_premium ~cap_o:entry.cap_o
        ~cap_p:entry.cap_p;
      levels := None
    end
  done;
  (!current, !moved)

(* Cooperative deadline/cancellation check of the supervision layer
   (DESIGN.md §13), placed at the phase boundaries of the search — the
   start of every simultaneous round, asynchronous/tolerant pass and
   Nash pass — so an expiring budget surfaces as a typed error carrying
   the solver frames, never as a hang mid-phase. *)
let check_budget budget ~nu ~strategy =
  match budget with
  | None -> ()
  | Some b ->
      Po_guard.Po_error.with_context
        (fun () ->
          [ ("solver", "cp_game"); ("nu", Printf.sprintf "%.17g" nu);
            ("strategy", Strategy.to_string strategy) ])
        (fun () -> Po_sup.Budget.check b)

let default_init ~strategy cps =
  if Float.equal (Strategy.kappa strategy) 0. then
    Partition.all_ordinary (Array.length cps)
  else
    let c = Strategy.c strategy in
    Partition.of_premium_indicator (Array.map (fun cp -> cp.Cp.v > c) cps)

(* Ex-post per-capita throughput a deviator obtains in a target class.
   Joining can only push the target's water level down, so the target's
   current cap (when finite) bounds the re-solve from above. *)
let expost_rho eng ~nu_class ~cap_hint members cp =
  if Float.equal nu_class 0. then 0.
  else begin
    let bracket =
      if Float.is_finite cap_hint && cap_hint > 0. then Some (0., cap_hint)
      else None
    in
    let sol =
      eng.kernel ~bracket ~nu:nu_class (Array.append members [| cp |])
    in
    sol.Equilibrium.rho.(Array.length members)
  end

(* Position of every CP inside its class's member array — shared by the
   Nash pass and audits, replacing the per-CP linear rediscovery that
   made each pass quadratic. *)
let class_positions partition =
  let n = Partition.size partition in
  let pos = Array.make n 0 in
  let next_o = ref 0 and next_p = ref 0 in
  for i = 0 to n - 1 do
    if Partition.in_premium partition i then begin
      pos.(i) <- !next_p;
      incr next_p
    end
    else begin
      pos.(i) <- !next_o;
      incr next_o
    end
  done;
  pos

(* Actual per-capita throughput of CP [i] inside its own class. *)
let own_rho partition positions (sol_o : Equilibrium.solution)
    (sol_p : Equilibrium.solution) i =
  let sol = if Partition.in_premium partition i then sol_p else sol_o in
  sol.Equilibrium.rho.(positions.(i))

let solve_nash_eng eng ?budget ?init ?(max_rounds = 100) ~nu ~strategy cps =
  if nu < 0. then invalid_arg "Cp_game.solve_nash: nu < 0";
  let init =
    match init with Some p -> p | None -> default_init ~strategy cps
  in
  let nu_o, nu_p = class_capacities ~nu ~strategy in
  let c = Strategy.c strategy in
  let pass partition =
    check_budget budget ~nu ~strategy;
    Po_obs.Metrics.incr m_nash_passes;
    let current = ref partition in
    let moved = ref false in
    (* Class membership, solutions and the index->position map change
       only when a CP moves; between moves every deviation check reuses
       them. *)
    let state = ref None in
    let current_state () =
      match !state with
      | Some s -> s
      | None ->
          let ordinary = Partition.ordinary_members !current cps in
          let premium = Partition.premium_members !current cps in
          let entry = class_levels eng ~nu_o ~nu_p !current in
          let sol_o, sol_p = class_solutions eng ~nu_o ~nu_p !current entry in
          let s =
            (ordinary, premium, entry, sol_o, sol_p, class_positions !current)
          in
          state := Some s;
          s
    in
    for i = 0 to Array.length cps - 1 do
      let ordinary, premium, entry, sol_o, sol_p, positions =
        current_state ()
      in
      let rho_own = own_rho !current positions sol_o sol_p i in
      let cp = cps.(i) in
      let v = cp.Cp.v in
      let wants_premium =
        if Partition.in_premium !current i then
          let rho_dev =
            expost_rho eng ~nu_class:nu_o ~cap_hint:entry.cap_o ordinary cp
          in
          (v -. c) *. rho_own > v *. rho_dev
        else
          let rho_dev =
            expost_rho eng ~nu_class:nu_p ~cap_hint:entry.cap_p premium cp
          in
          (v -. c) *. rho_dev > v *. rho_own
      in
      if wants_premium <> Partition.in_premium !current i then begin
        Po_obs.Metrics.incr m_moves;
        current := Partition.move !current i ~premium:wants_premium;
        moved := true;
        note_move eng ~to_premium:wants_premium ~cap_o:entry.cap_o
          ~cap_p:entry.cap_p;
        state := None
      end
    done;
    (!current, !moved)
  in
  let rec loop partition round =
    if round >= max_rounds then
      { (outcome_of_partition_eng eng ~nu ~strategy cps partition) with
        converged = false; iterations = round; concept = Expost_nash }
    else
      let partition', moved = pass partition in
      if not moved then
        { (outcome_of_partition_eng eng ~nu ~strategy cps partition') with
          converged = true; iterations = round + 1; concept = Expost_nash }
      else loop partition' (round + 1)
  in
  loop init 0

let solve_nash ?budget ?init ?max_rounds ~nu ~strategy cps =
  solve_nash_eng
    (optimized_engine (Equilibrium.market cps))
    ?budget ?init ?max_rounds ~nu ~strategy cps

let solve_eng eng ?budget ?init ?(max_iter = 200) ~nu ~strategy cps =
  if nu < 0. then invalid_arg "Cp_game.solve: nu < 0";
  Po_obs.Metrics.incr m_solves;
  let init =
    match init with Some p -> p | None -> default_init ~strategy cps
  in
  if Partition.size init <> Array.length cps then
    invalid_arg "Cp_game.solve: init partition size mismatch";
  (* R2-audit (no directive needed; only find_opt/add/mem/replace): cycle-detection set over partition keys;
     only mem/add are used, nothing is ever iterated, so Hashtbl order
     cannot influence which partition the solver settles on. *)
  let seen = Hashtbl.create 64 in
  let finish ?(tolerance = 0.) partition ~converged ~iterations =
    { (outcome_of_partition_eng eng ~nu ~strategy cps partition) with
      converged; iterations; concept = Competitive tolerance }
  in
  (* Phase 3: tolerant asynchronous passes.  A quiescent pass at threshold
     [h] is an eps-competitive equilibrium with eps = h.  The threshold
     escalates geometrically every few passes because the displacement one
     CP causes to a class's water level — the force behind persistent
     flipping — scales with 1/|class| and can exceed any fixed margin. *)
  let rec tolerant partition rounds_used passes =
    check_budget budget ~nu ~strategy;
    if passes > 60 then begin
      (* Throughput-taking best responses refuse to settle: with few CPs a
         single provider can be a large fraction of a class's load, and a
         competitive equilibrium need not exist at all.  Ex-post (Nash)
         best responses are well defined at any population size, and the
         paper treats both concepts as interchangeable equilibria. *)
      Log.debug (fun m ->
          m "tolerant phase exhausted at nu=%g %s; falling back to ex-post \
             Nash" nu
            (Strategy.to_string strategy));
      let nash = solve_nash_eng eng ?budget ~init:partition ~nu ~strategy cps in
      { nash with
        iterations = rounds_used + passes + nash.iterations }
    end
    else
      let hysteresis =
        default_hysteresis *. (2. ** float_of_int (passes / 6))
      in
      let partition', moved =
        asynchronous_pass ~hysteresis eng ~nu ~strategy cps partition
      in
      if not moved then
        finish ~tolerance:hysteresis partition' ~converged:true
          ~iterations:(rounds_used + passes + 1)
      else tolerant partition' rounds_used (passes + 1)
  in
  (* Phase 2: strict asynchronous damping after a cycle; if marginal CPs
     keep flipping (their own membership moves the water level past their
     indifference point), fall through to the tolerant phase. *)
  let rec async partition rounds_used passes =
    check_budget budget ~nu ~strategy;
    if passes > 8 then tolerant partition (rounds_used + passes) 0
    else
      let partition', moved =
        asynchronous_pass eng ~nu ~strategy cps partition
      in
      if not moved then
        finish partition' ~converged:true ~iterations:(rounds_used + passes + 1)
      else async partition' rounds_used (passes + 1)
  in
  (* Phase 1: fast simultaneous rounds with cycle detection.  On a cycle,
     continue from the cycle iterate with the larger premium class: cycles
     typically alternate with a degenerate near-empty class (whose infinite
     entrant estimate lures everyone back in), and the populous iterate is
     the one near the equilibrium, sparing the asynchronous phase most of
     its one-CP-at-a-time walk. *)
  let rec sync partition previous n =
    check_budget budget ~nu ~strategy;
    if n >= max_iter then finish partition ~converged:false ~iterations:n
    else begin
      let key = Partition.key partition in
      if Hashtbl.mem seen key then begin
        Log.debug (fun m ->
            m "cycle detected after %d simultaneous rounds at nu=%g %s" n nu
              (Strategy.to_string strategy));
        let start =
          match previous with
          | Some p
            when Partition.premium_count p
                 > Partition.premium_count partition ->
              p
          | _ -> partition
        in
        async start n 0
      end
      else begin
        Hashtbl.add seen key ();
        let partition' = simultaneous_round eng ~nu ~strategy cps partition in
        if Partition.equal partition partition' then
          finish partition' ~converged:true ~iterations:(n + 1)
        else sync partition' (Some partition) (n + 1)
      end
    end
  in
  sync init None 0

let solve_market ?budget ?init ?max_iter ~nu ~strategy market =
  solve_eng (optimized_engine market) ?budget ?init ?max_iter ~nu ~strategy
    (Equilibrium.market_cps market)

let solve ?budget ?init ?max_iter ~nu ~strategy cps =
  solve_market ?budget ?init ?max_iter ~nu ~strategy (Equilibrium.market cps)

let solve_reference ?init ?max_iter ~nu ~strategy cps =
  solve_eng (reference_engine cps) ?init ?max_iter ~nu ~strategy cps

let solve_nash_reference ?init ?max_rounds ~nu ~strategy cps =
  solve_nash_eng (reference_engine cps) ?init ?max_rounds ~nu ~strategy cps

(* ------------------------------------------------------------------ *)
(* Typed error channel (DESIGN.md §10)                                *)
(* ------------------------------------------------------------------ *)

let ensure_converged ?(context = []) outcome =
  if outcome.converged then outcome
  else
    Po_guard.Po_error.fail
      ~context:
        (context
        @ [ ("solver", "cp_game");
            ("nu", Printf.sprintf "%.17g" outcome.nu);
            ("strategy", Strategy.to_string outcome.strategy) ])
      (Po_guard.Po_error.Non_convergence
         { residual =
             (match outcome.concept with
             | Competitive eps -> eps
             | Expost_nash -> Float.nan);
           iterations = outcome.iterations })

(* ------------------------------------------------------------------ *)
(* Equilibrium audits                                                 *)
(* ------------------------------------------------------------------ *)

(* The audits solve classes with {!class_solution} and take solo and
   ex-post rates from one cold reference engine per audit: no memos, and
   its kernel ignores bracket hints. *)

let check_competitive ?(tol = 1e-9) ?(rel_tol = 0.) ~nu ~strategy cps
    partition =
  let nu_o, nu_p = class_capacities ~nu ~strategy in
  let c = Strategy.c strategy in
  let sol_o =
    class_solution ~nu_class:nu_o (Partition.ordinary_members partition cps)
  in
  let sol_p =
    class_solution ~nu_class:nu_p (Partition.premium_members partition cps)
  in
  let cap_o = entrant_cap ~nu_class:nu_o sol_o in
  let cap_p = entrant_cap ~nu_class:nu_p sol_p in
  let occupied_o = Partition.ordinary_count partition > 0 in
  let occupied_p = Partition.premium_count partition > 0 in
  let eng = reference_engine cps in
  let n = Array.length cps in
  let rec scan i =
    if i >= n then Ok ()
    else begin
      let cp = cps.(i) in
      let u_ordinary =
        cp.Cp.v
        *. estimate_rho eng ~nu_class:nu_o ~occupied:occupied_o cap_o i cp
      in
      let u_premium =
        (cp.Cp.v -. c)
        *. estimate_rho eng ~nu_class:nu_p ~occupied:occupied_p cap_p i cp
      in
      (* Ties (within the slack) are acceptable in either class; only a
         clear preference for the other class is a violation. *)
      if Partition.in_premium partition i then
        if u_premium < u_ordinary -. tol -. (rel_tol *. Float.abs u_premium)
        then
          Error
            ( i,
              Printf.sprintf "CP %d in premium but u_p=%g < u_o=%g" i
                u_premium u_ordinary )
        else scan (i + 1)
      else if u_premium > u_ordinary +. tol +. (rel_tol *. Float.abs u_ordinary)
      then
        Error
          ( i,
            Printf.sprintf "CP %d in ordinary but u_p=%g > u_o=%g" i
              u_premium u_ordinary )
      else scan (i + 1)
    end
  in
  scan 0

let check_nash ?(tol = 1e-9) ~nu ~strategy cps partition =
  let nu_o, nu_p = class_capacities ~nu ~strategy in
  let c = Strategy.c strategy in
  let ordinary = Partition.ordinary_members partition cps in
  let premium = Partition.premium_members partition cps in
  let sol_o = class_solution ~nu_class:nu_o ordinary in
  let sol_p = class_solution ~nu_class:nu_p premium in
  let positions = class_positions partition in
  let eng = reference_engine cps in
  let n = Array.length cps in
  let rec scan i =
    if i >= n then Ok ()
    else begin
      let cp = cps.(i) in
      let rho_own = own_rho partition positions sol_o sol_p i in
      if Partition.in_premium partition i then begin
        (* Deviating to ordinary: evaluated with i included there. *)
        let rho_dev =
          expost_rho eng ~nu_class:nu_o ~cap_hint:Float.nan ordinary cp
        in
        let u_stay = (cp.Cp.v -. c) *. rho_own in
        let u_dev = cp.Cp.v *. rho_dev in
        if u_stay < u_dev -. tol then
          Error
            ( i,
              Printf.sprintf
                "CP %d in premium gains by leaving (stay=%g, deviate=%g)" i
                u_stay u_dev )
        else scan (i + 1)
      end
      else begin
        let rho_dev =
          expost_rho eng ~nu_class:nu_p ~cap_hint:Float.nan premium cp
        in
        let u_stay = cp.Cp.v *. rho_own in
        let u_dev = (cp.Cp.v -. c) *. rho_dev in
        if u_dev > u_stay +. tol then
          Error
            ( i,
              Printf.sprintf
                "CP %d in ordinary strictly gains by joining premium \
                 (stay=%g, deviate=%g)"
                i u_stay u_dev )
        else scan (i + 1)
      end
    end
  in
  scan 0
