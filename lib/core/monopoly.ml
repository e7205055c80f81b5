open Po_model

type price_point = {
  c : float;
  psi : float;
  phi : float;
  premium_count : int;
  premium_load : float;
  utilization : float;
}

let point_of_outcome (o : Cp_game.outcome) =
  { c = Strategy.c o.Cp_game.strategy;
    psi = o.Cp_game.psi;
    phi = o.Cp_game.phi;
    premium_count = Partition.premium_count o.Cp_game.partition;
    premium_load = o.Cp_game.lambda_premium;
    utilization =
      (if o.Cp_game.nu <= 0. then 1.
       else
         (o.Cp_game.lambda_ordinary +. o.Cp_game.lambda_premium)
         /. o.Cp_game.nu) }

let warm_init (prev : Cp_game.outcome option) =
  Option.map (fun (o : Cp_game.outcome) -> o.Cp_game.partition) prev

(* Every search and sweep below solves its games on one market, built
   once (DESIGN.md §16); it is immutable, so pooled chains share it. *)

let price_sweep ?pool ?chunk_size ?(kappa = 1.) ~nu ~cs cps =
  let market = Equilibrium.market cps in
  Array.map point_of_outcome
    (Po_par.Pool.chain_map ?chunk_size pool
       ~step:(fun prev c ->
         let strategy = Strategy.make ~kappa ~c in
         Cp_game.ensure_converged ~context:[ ("sweep", "price") ]
           (Cp_game.solve_market ?init:(warm_init prev) ~nu ~strategy market))
       cs)

let capacity_sweep ?pool ?chunk_size ~strategy ~nus cps =
  let market = Equilibrium.market cps in
  Po_par.Pool.chain_map ?chunk_size pool
    ~step:(fun prev nu ->
      Cp_game.ensure_converged ~context:[ ("sweep", "capacity") ]
        (Cp_game.solve_market ?init:(warm_init prev) ~nu ~strategy market))
    nus

let max_revenue_price cps =
  Array.fold_left (fun acc (cp : Cp.t) -> Float.max acc cp.Cp.v) 0. cps

let optimal_price ?(kappa = 1.) ?(levels = 3) ?(points = 41) ~nu cps =
  let market = Equilibrium.market cps in
  let hi = Float.max (max_revenue_price cps) 1e-9 in
  let revenue c =
    let strategy = Strategy.make ~kappa ~c in
    (Cp_game.solve_market ~nu ~strategy market).Cp_game.psi
  in
  let best = Po_num.Optimize.refine_grid_max ~levels ~points ~f:revenue ~lo:0. ~hi () in
  let strategy = Strategy.make ~kappa ~c:best.Po_num.Optimize.x in
  point_of_outcome (Cp_game.solve_market ~nu ~strategy market)

(* The revenue-maximising strategy over [0, kappa_hi] x [0, max v] on
   one market. *)
let best_strategy ~levels ~points ~kappa_hi ~nu market =
  let hi = Float.max (max_revenue_price (Equilibrium.market_cps market)) 1e-9 in
  let revenue kappa c =
    let strategy = Strategy.make ~kappa ~c in
    (Cp_game.solve_market ~nu ~strategy market).Cp_game.psi
  in
  let best =
    Po_num.Optimize.refine_grid_max2 ~levels ~points ~f:revenue ~lo1:0.
      ~hi1:kappa_hi ~lo2:0. ~hi2:hi ()
  in
  let strategy =
    Strategy.make ~kappa:best.Po_num.Optimize.x1 ~c:best.Po_num.Optimize.x2
  in
  (strategy, Cp_game.solve_market ~nu ~strategy market)

let optimal_strategy ?(levels = 3) ?(points = 17) ~nu cps =
  best_strategy ~levels ~points ~kappa_hi:1. ~nu (Equilibrium.market cps)

type regime =
  | Unregulated
  | Neutral
  | Capped of float
  | Fixed of Strategy.t

let regime_outcome ~nu regime cps =
  match regime with
  | Neutral -> Cp_game.solve ~nu ~strategy:Strategy.public_option cps
  | Fixed strategy -> Cp_game.solve ~nu ~strategy cps
  | Unregulated ->
      let _, outcome = optimal_strategy ~nu cps in
      outcome
  | Capped kappa_cap ->
      if kappa_cap < 0. || kappa_cap > 1. then
        invalid_arg "Monopoly.regime_outcome: kappa cap outside [0, 1]";
      snd
        (best_strategy ~levels:3 ~points:13 ~kappa_hi:kappa_cap ~nu
           (Equilibrium.market cps))

let check_theorem4 ?(tol = 1e-6) ~nu ~c ~kappas cps =
  let market = Equilibrium.market cps in
  let revenue kappa =
    (Cp_game.solve_market ~nu ~strategy:(Strategy.make ~kappa ~c) market)
      .Cp_game.psi
  in
  let full = revenue 1. in
  let rec scan i =
    if i >= Array.length kappas then Ok ()
    else begin
      let psi = revenue kappas.(i) in
      if psi > full +. tol then
        Error
          (Printf.sprintf
             "theorem 4 violated at nu=%g c=%g: Psi(kappa=%g)=%g > \
              Psi(1)=%g"
             nu c kappas.(i) psi full)
      else scan (i + 1)
    end
  in
  scan 0
