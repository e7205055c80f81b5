open Po_model

type config = {
  nu : float;
  gamma_i : float;
  strategy_i : Strategy.t;
  strategy_j : Strategy.t;
}

let config ?(gamma_i = 0.5) ?(strategy_j = Strategy.public_option) ~nu
    ~strategy_i () =
  if nu < 0. then invalid_arg "Duopoly.config: nu < 0";
  if not (gamma_i > 0. && gamma_i < 1.) then
    invalid_arg "Duopoly.config: gamma_i outside (0, 1)";
  { nu; gamma_i; strategy_i; strategy_j }

type equilibrium = {
  m_i : float;
  nu_i : float;
  nu_j : float;
  outcome_i : Cp_game.outcome;
  outcome_j : Cp_game.outcome;
  phi : float;
  psi_i : float;
  psi_j : float;
  interior : bool;
}

let unconstrained_nu cps =
  Array.fold_left (fun acc cp -> acc +. Cp.lambda_hat_per_capita cp) 0. cps

(* Per-capita capacity of an ISP holding capacity share [gamma] and market
   share [m]; an (almost) empty ISP is effectively unconstrained, which we
   represent with a finite capacity comfortably above saturation. *)
let isp_nu ~nu ~gamma ~nu_sat m =
  if m <= 1e-12 then (4. *. nu_sat) +. 1.
  else Float.min (((4. *. nu_sat) +. 1.)) (gamma *. nu /. m)

(* The two ISPs' CP games at a split [m], each warm-started from its own
   previous call's partition: the evaluation chain of one migration
   solve.  Both ISPs serve the one population of [market]. *)
let games config market =
  let nu_sat = unconstrained_nu (Equilibrium.market_cps market) in
  let game ~gamma ~strategy =
    let warm = ref None in
    fun m ->
      let nu = isp_nu ~nu:config.nu ~gamma ~nu_sat m in
      let o = Cp_game.solve_market ?init:!warm ~nu ~strategy market in
      warm := Some o.Cp_game.partition;
      (nu, o)
  in
  let eval_i = game ~gamma:config.gamma_i ~strategy:config.strategy_i in
  let eval_j =
    let g = game ~gamma:(1. -. config.gamma_i) ~strategy:config.strategy_j in
    fun m -> g (1. -. m)
  in
  (eval_i, eval_j)

(* The bisection core shared by [solve] and [market_share]: the
   equilibrium share and whether it is interior.  The answer always lies
   in [[0, hi]] for the current bracket end [hi] — bisection answers the
   midpoint of its final bracket — so once [hi <= floor] the share is
   known not to beat [floor] and the core stops, answering [hi]
   instead. *)
let split ~tol ~floor (eval_i, eval_j) =
  let gap m =
    let _, oi = eval_i m and _, oj = eval_j m in
    oi.Cp_game.phi -. oj.Cp_game.phi
  in
  let m_lo = 1e-9 and m_hi = 1. -. 1e-9 in
  if 1. <= floor then (1., false)
  else if gap m_lo <= 0. then (0., false)
  else if gap m_hi >= 0. then (1., false)
  else
    (* gap is non-increasing in m: bisect the sign change. *)
    let rec bisect lo hi n =
      if hi <= floor then (hi, false)
      else if hi -. lo <= tol || n > 80 then (0.5 *. (lo +. hi), true)
      else
        let mid = 0.5 *. (lo +. hi) in
        if gap mid > 0. then bisect mid hi (n + 1) else bisect lo mid (n + 1)
    in
    bisect m_lo m_hi 0

let default_tol = 1e-6

let solve_market ?(tol = default_tol) config market =
  let ((eval_i, eval_j) as games) = games config market in
  let m, interior = split ~tol ~floor:neg_infinity games in
  let nu_i, outcome_i = eval_i m in
  let nu_j, outcome_j = eval_j m in
  let phi_i = outcome_i.Cp_game.phi and phi_j = outcome_j.Cp_game.phi in
  { m_i = m; nu_i; nu_j; outcome_i; outcome_j;
    phi = (m *. phi_i) +. ((1. -. m) *. phi_j);
    psi_i = m *. outcome_i.Cp_game.psi;
    psi_j = (1. -. m) *. outcome_j.Cp_game.psi;
    interior }

let solve ?tol config cps = solve_market ?tol config (Equilibrium.market cps)

let ensure_converged ?(context = []) eq =
  let check isp =
    Cp_game.ensure_converged ~context:(context @ [ ("isp", isp) ])
  in
  { eq with
    outcome_i = check "i" eq.outcome_i;
    outcome_j = check "j" eq.outcome_j }

let share_market ~floor config market =
  fst (split ~tol:default_tol ~floor (games config market))

let market_share ~floor config cps =
  share_market ~floor config (Equilibrium.market cps)

(* Each sweep point is an independent [solve] (the warm-start refs above
   live inside a single solve), so the points can be evaluated on a pool
   in any order without changing a single bit of the result; the market
   they share is immutable. *)
let price_sweep ?pool ?(kappa_i = 1.) ~config:cfg ~cs cps =
  let market = Equilibrium.market cps in
  Po_par.Pool.maybe_map pool
    (fun c ->
      let cfg = { cfg with strategy_i = Strategy.make ~kappa:kappa_i ~c } in
      solve_market cfg market)
    cs

let capacity_sweep ?pool ~config:cfg ~nus cps =
  let market = Equilibrium.market cps in
  Po_par.Pool.maybe_map pool (fun nu -> solve_market { cfg with nu } market) nus

let max_revenue_price cps =
  Array.fold_left (fun acc (cp : Cp.t) -> Float.max acc cp.Cp.v) 0. cps

(* The grid search over ISP I's strategy square, on one market.
   [value ~floor cfg market] scores the configuration with [strategy_i]
   in place, under the floor contract of
   [Po_num.Optimize.refine_grid_max2_floor]; only the winning strategy
   gets a full [solve]. *)
let best_response ~value ?(levels = 2) ?(points = 9) ~config:cfg cps =
  let market = Equilibrium.market cps in
  let hi_c = Float.max (max_revenue_price cps) 1e-9 in
  let with_strategy strategy_i = { cfg with strategy_i } in
  let best =
    Po_num.Optimize.refine_grid_max2_floor ~levels ~points
      ~f:(fun ~floor kappa c ->
        value ~floor (with_strategy (Strategy.make ~kappa ~c)) market)
      ~lo1:0. ~hi1:1. ~lo2:0. ~hi2:hi_c ()
  in
  let strategy =
    Strategy.make ~kappa:best.Po_num.Optimize.x1 ~c:best.Po_num.Optimize.x2
  in
  (strategy, solve_market (with_strategy strategy) market)

let best_response_market_share ?levels ?points ~config cps =
  best_response ~value:share_market ?levels ?points ~config cps

let best_response_consumer_surplus ?levels ?points ~config cps =
  best_response
    ~value:(fun ~floor:_ cfg market -> (solve_market cfg market).phi)
    ?levels ?points ~config cps

let check_theorem5 ?(tol = 1e-3) ?strategies ~config:cfg cps =
  let strategies =
    match strategies with
    | Some s -> s
    | None ->
        Strategy.grid
          ~kappas:(Po_num.Grid.linspace 0. 1. 5)
          ~cs:(Po_num.Grid.linspace 0. (Float.max (max_revenue_price cps) 1e-9) 5)
          ()
  in
  if not (Strategy.is_public_option cfg.strategy_j) then
    invalid_arg "Duopoly.check_theorem5: ISP J must be the Public Option";
  let market = Equilibrium.market cps in
  let results =
    Array.map
      (fun s ->
        let eq = solve_market { cfg with strategy_i = s } market in
        (s, eq.m_i, eq.phi))
      strategies
  in
  let _, _, best_phi =
    Array.fold_left
      (fun ((_, _, bphi) as acc) ((_, _, phi) as r) ->
        if phi > bphi then r else acc)
      results.(0) results
  in
  let share_max_s, _, share_max_phi =
    Array.fold_left
      (fun ((_, bm, _) as acc) ((_, m, _) as r) -> if m > bm then r else acc)
      results.(0) results
  in
  if share_max_phi < best_phi -. tol then
    Error
      (Printf.sprintf
         "theorem 5 violated: share-maximising %s yields Phi=%g < max \
          Phi=%g"
         (Strategy.to_string share_max_s) share_max_phi best_phi)
  else Ok ()
