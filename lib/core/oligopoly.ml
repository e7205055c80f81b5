open Po_model

type isp = {
  label : string;
  gamma : float;
  strategy : Strategy.t;
}

type config = { nu : float; isps : isp array }

let config ~nu isps =
  if nu < 0. then invalid_arg "Oligopoly.config: nu < 0";
  if Array.length isps = 0 then invalid_arg "Oligopoly.config: no ISPs";
  let total = Array.fold_left (fun acc i -> acc +. i.gamma) 0. isps in
  Array.iter
    (fun i -> if i.gamma <= 0. then invalid_arg "Oligopoly.config: gamma <= 0")
    isps;
  if Float.abs (total -. 1.) > 1e-9 then
    invalid_arg "Oligopoly.config: capacity shares must sum to 1";
  { nu; isps }

let homogeneous ?gammas ~nu ~n ~strategy () =
  if n <= 0 then invalid_arg "Oligopoly.homogeneous: n <= 0";
  let gammas =
    match gammas with
    | Some g ->
        if Array.length g <> n then
          invalid_arg "Oligopoly.homogeneous: gammas length mismatch";
        g
    | None -> Array.make n (1. /. float_of_int n)
  in
  config ~nu
    (Array.init n (fun i ->
         { label = Printf.sprintf "isp-%d" i; gamma = gammas.(i); strategy }))

type equilibrium = {
  shares : float array;
  nus : float array;
  phis : float array;
  phi_star : float;
  outcomes : Cp_game.outcome array;
  psis : float array;
  over_provisioned : bool;
}

let unconstrained_nu cps =
  Array.fold_left (fun acc cp -> acc +. Cp.lambda_hat_per_capita cp) 0. cps

(* Sampled, monotonised surplus-vs-capacity curve of one ISP strategy. *)
type curve = { nus : float array; phis : float array (* cumulative max *) }

let surplus_curve ?pool ?chunk_size ~curve_points ~nu_sat ~strategy cps =
  let nu_hi = (4. *. nu_sat) +. 1. in
  let nus = Po_num.Grid.linspace 0. nu_hi curve_points in
  (* The hand-rolled warm-start loop this used to carry is now the
     general chunked-chain sweep, so the curve parallelises across chunks
     with the same chain structure on any pool. *)
  let phis =
    Array.map
      (fun (o : Cp_game.outcome) -> o.Cp_game.phi)
      (Monopoly.capacity_sweep ?pool ?chunk_size ~strategy ~nus cps)
  in
  for i = 1 to Array.length phis - 1 do
    phis.(i) <- Float.max phis.(i) phis.(i - 1)
  done;
  { nus; phis }

(* Smallest sampled capacity delivering surplus >= level (linear
   interpolation inside the bracketing segment); None when the strategy
   cannot deliver [level] at any capacity. *)
let capacity_for_level curve level =
  let n = Array.length curve.nus in
  if level <= curve.phis.(0) then Some curve.nus.(0)
  else if level > curve.phis.(n - 1) then None
  else begin
    let idx = ref 1 in
    while curve.phis.(!idx) < level do
      incr idx
    done;
    let i = !idx in
    let y0 = curve.phis.(i - 1) and y1 = curve.phis.(i) in
    if Float.equal y1 y0 then Some curve.nus.(i)
    else
      Some
        (curve.nus.(i - 1)
        +. ((curve.nus.(i) -. curve.nus.(i - 1)) *. (level -. y0)
            /. (y1 -. y0)))
  end

let solve_given_curves ~nu_sat ~curves ?prices config cps =
  let n = Array.length config.isps in
  let prices =
    match prices with
    | None -> Array.make n 0.
    | Some p ->
        if Array.length p <> n then
          invalid_arg "Oligopoly.solve: prices length mismatch";
        p
  in
  (* Share ISP i would hold if consumers demanded a common {e net} surplus
     level (gross surplus minus the ISP's consumer-side price; a negative
     price is a subsidy). *)
  let share_at level i =
    let gross = level +. prices.(i) in
    if gross <= 0. then Float.infinity
    else
      match capacity_for_level curves.(i) gross with
      | None -> 0.
      | Some nu_i ->
          if nu_i <= 0. then Float.infinity
          else config.isps.(i).gamma *. config.nu /. nu_i
  in
  let total_share level =
    let acc = ref 0. in
    for i = 0 to n - 1 do
      acc := !acc +. share_at level i
    done;
    !acc
  in
  let phi_max =
    let acc = ref 0. in
    Array.iteri
      (fun i (c : curve) ->
        acc := Float.max !acc (c.phis.(Array.length c.phis - 1) -. prices.(i)))
      curves;
    Float.max !acc 0.
  in
  let over_provisioned = phi_max <= 0. || total_share phi_max >= 1. in
  let phi_star, raw_shares =
    if over_provisioned then begin
      (* Everyone can deliver the max; split in proportion to the capacity
         each ISP would need at saturation. *)
      let at_max = Array.init n (fun i -> share_at phi_max i) in
      let finite =
        Array.map (fun s -> if Float.is_finite s then s else 1.) at_max
      in
      let total = Array.fold_left ( +. ) 0. finite in
      let shares =
        if total <= 0. then Array.make n (1. /. float_of_int n)
        else Array.map (fun s -> s /. total) finite
      in
      (phi_max, shares)
    end
    else begin
      (* total_share is decreasing in the level; bisect total = 1. *)
      let lo = ref 1e-12 and hi = ref phi_max in
      for _ = 1 to 100 do
        let mid = 0.5 *. (!lo +. !hi) in
        if total_share mid >= 1. then lo := mid else hi := mid
      done;
      let level = 0.5 *. (!lo +. !hi) in
      let shares = Array.init n (fun i -> share_at level i) in
      let shares =
        Array.map (fun s -> if Float.is_finite s then s else 1.) shares
      in
      let total = Array.fold_left ( +. ) 0. shares in
      let shares =
        if total <= 0. then Array.make n (1. /. float_of_int n)
        else Array.map (fun s -> s /. total) shares
      in
      (level, shares)
    end
  in
  let nu_big = (4. *. nu_sat) +. 1. in
  let nus =
    Array.init n (fun i ->
        if raw_shares.(i) <= 1e-12 then nu_big
        else
          Float.min nu_big
            (config.isps.(i).gamma *. config.nu /. raw_shares.(i)))
  in
  let market = Equilibrium.market cps in
  let outcomes =
    Array.init n (fun i ->
        Cp_game.ensure_converged
          ~context:
            [ ("stage", "oligopoly"); ("isp", config.isps.(i).label) ]
          (Cp_game.solve_market ~nu:nus.(i) ~strategy:config.isps.(i).strategy
             market))
  in
  let phis = Array.map (fun (o : Cp_game.outcome) -> o.Cp_game.phi) outcomes in
  let psis =
    Array.init n (fun i -> raw_shares.(i) *. outcomes.(i).Cp_game.psi)
  in
  { shares = raw_shares; nus; phis; phi_star; outcomes; psis;
    over_provisioned }

let solve ?pool ?(curve_points = 140) ?prices config cps =
  let nu_sat = Float.max (unconstrained_nu cps) 1e-9 in
  let curves =
    Array.map
      (fun isp ->
        surplus_curve ?pool ~curve_points ~nu_sat ~strategy:isp.strategy cps)
      config.isps
  in
  solve_given_curves ~nu_sat ~curves ?prices config cps

(* The surplus curve of a strategy is independent of the rival profile, so
   searches over a strategy menu cache one curve per strategy. *)
(* R2-audit (no directive needed; only find_opt/add/mem/replace): the curve cache is keyed by
   Strategy.to_string and only ever read back through find_opt/add; it is
   never iterated, so Hashtbl order cannot reach any result. *)
let cached_solve ?pool ~curve_points ~nu_sat ~cache config cps =
  let curves =
    Array.map
      (fun isp ->
        let key = Strategy.to_string isp.strategy in
        match Hashtbl.find_opt cache key with
        | Some curve -> curve
        | None ->
            let curve =
              surplus_curve ?pool ~curve_points ~nu_sat ~strategy:isp.strategy
                cps
            in
            Hashtbl.add cache key curve;
            curve)
      config.isps
  in
  solve_given_curves ~nu_sat ~curves config cps

let max_revenue_price cps =
  Array.fold_left (fun acc (cp : Cp.t) -> Float.max acc cp.Cp.v) 0. cps

let with_strategy config i strategy =
  { config with
    isps =
      Array.mapi
        (fun j isp -> if j = i then { isp with strategy } else isp)
        config.isps }

let best_response ?pool ?(levels = 2) ?(points = 7) ?curve_points ~i config
    cps =
  if i < 0 || i >= Array.length config.isps then
    invalid_arg "Oligopoly.best_response: ISP index out of bounds";
  let hi_c = Float.max (max_revenue_price cps) 1e-9 in
  let share kappa c =
    let cfg = with_strategy config i (Strategy.make ~kappa ~c) in
    (solve ?pool ?curve_points cfg cps).shares.(i)
  in
  let best =
    Po_num.Optimize.refine_grid_max2 ~levels ~points ~f:share ~lo1:0. ~hi1:1.
      ~lo2:0. ~hi2:hi_c ()
  in
  let strategy =
    Strategy.make ~kappa:best.Po_num.Optimize.x1 ~c:best.Po_num.Optimize.x2
  in
  (strategy, solve ?pool ?curve_points (with_strategy config i strategy) cps)

let market_share_nash ?pool ?(rounds = 10) ?strategies ?(curve_points = 90)
    config cps =
  let menu =
    match strategies with
    | Some s ->
        if Array.length s = 0 then
          invalid_arg "Oligopoly.market_share_nash: empty strategy menu";
        s
    | None ->
        Strategy.grid
          ~kappas:(Po_num.Grid.linspace 0. 1. 3)
          ~cs:
            (Po_num.Grid.linspace 0.
               (Float.max (max_revenue_price cps) 1e-9)
               4)
          ()
  in
  let n = Array.length config.isps in
  let nu_sat = Float.max (unconstrained_nu cps) 1e-9 in
  (* R2-audit (no directive needed; only find_opt/add/mem/replace): per-search curve cache, find_opt/add
     only (see cached_solve); never iterated. *)
  let cache = Hashtbl.create 16 in
  let solve_cached cfg =
    cached_solve ?pool ~curve_points ~nu_sat ~cache cfg cps
  in
  let current = ref config in
  let converged = ref false in
  let round = ref 0 in
  while (not !converged) && !round < rounds do
    incr round;
    let moved = ref false in
    for i = 0 to n - 1 do
      let base_share = (solve_cached !current).shares.(i) in
      let best_s = ref (!current).isps.(i).strategy in
      let best_share = ref base_share in
      Array.iter
        (fun s ->
          if not (Strategy.equal s !best_s) then begin
            let share = (solve_cached (with_strategy !current i s)).shares.(i) in
            if share > !best_share +. 1e-9 then begin
              best_s := s;
              best_share := share
            end
          end)
        menu;
      if not (Strategy.equal !best_s (!current).isps.(i).strategy) then begin
        current := with_strategy !current i !best_s;
        moved := true
      end
    done;
    if not !moved then converged := true
  done;
  (!current, solve_cached !current, !converged)

let check_lemma4 ?(tol = 5e-3) config cps =
  let s0 = config.isps.(0).strategy in
  Array.iter
    (fun isp ->
      if not (Strategy.equal isp.strategy s0) then
        invalid_arg "Oligopoly.check_lemma4: strategies are not homogeneous")
    config.isps;
  let eq = solve config cps in
  let bad = ref None in
  Array.iteri
    (fun i isp ->
      if Option.is_none !bad && Float.abs (eq.shares.(i) -. isp.gamma) > tol
      then bad := Some (i, isp.gamma, eq.shares.(i)))
    config.isps;
  match !bad with
  | None -> Ok ()
  | Some (i, gamma, share) ->
      Error
        (Printf.sprintf
           "lemma 4 violated: ISP %d has capacity share %g but market \
            share %g"
           i gamma share)

type alignment_audit = {
  share_best : Strategy.t;
  surplus_best : Strategy.t;
  phi_deficit : float;
  share_deficit : float;
  epsilon_rivals : float;
}

let theorem6_audit ?pool ?strategies ?epsilon_nus ~i config cps =
  if i < 0 || i >= Array.length config.isps then
    invalid_arg "Oligopoly.theorem6_audit: ISP index out of bounds";
  let menu =
    match strategies with
    | Some s -> s
    | None ->
        Strategy.grid
          ~kappas:(Po_num.Grid.linspace 0. 1. 4)
          ~cs:
            (Po_num.Grid.linspace 0.
               (Float.max (max_revenue_price cps) 1e-9)
               4)
          ()
  in
  let nu_sat = Float.max (unconstrained_nu cps) 1e-9 in
  (* R2-audit (no directive needed; only find_opt/add/mem/replace): per-audit curve cache, find_opt/add only
     (see cached_solve); never iterated. *)
  let cache = Hashtbl.create 16 in
  let evaluated =
    Array.map
      (fun s ->
        let eq =
          cached_solve ?pool ~curve_points:120 ~nu_sat ~cache
            (with_strategy config i s) cps
        in
        (s, eq.shares.(i), eq.phi_star))
      menu
  in
  let argmax proj =
    Array.fold_left
      (fun ((_, _, _) as acc) ((_, _, _) as r) ->
        if proj r > proj acc then r else acc)
      evaluated.(0) evaluated
  in
  let share_best, _, phi_at_share_best = argmax (fun (_, m, _) -> m) in
  let surplus_best, m_at_surplus_best, _ = argmax (fun (_, _, p) -> p) in
  let _, _, max_phi = argmax (fun (_, _, p) -> p) in
  let _, max_share, _ = argmax (fun (_, m, _) -> m) in
  let epsilon_nus =
    match epsilon_nus with
    | Some g -> g
    | None -> Po_num.Grid.linspace 0. ((4. *. nu_sat) +. 1.) 120
  in
  let epsilon_rivals =
    let eps = ref 0. in
    Array.iteri
      (fun j isp ->
        if j <> i then begin
          let phis =
            Metrics.phi_curve ?pool ~strategy:isp.strategy ~nus:epsilon_nus
              cps
          in
          eps := Float.max !eps (Po_num.Stats.max_downward_gap phis)
        end)
      config.isps;
    !eps
  in
  { share_best; surplus_best;
    phi_deficit = Float.max 0. (max_phi -. phi_at_share_best);
    share_deficit = Float.max 0. (max_share -. m_at_surplus_best);
    epsilon_rivals }
