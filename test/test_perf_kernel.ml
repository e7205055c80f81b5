(* Differential tests for the optimized water-filling kernel (DESIGN.md
   §9): the sorted-prefix Equilibrium solver and the caching/warm-started
   CP-game engine must be bit-identical to the retained reference
   implementations on every input — random ensembles, levels at a
   threshold, degenerate classes, bracket hints good and bad — and every
   figure in the registry must be reproduced identically for any jobs
   count. *)

open Po_model
open Po_core

let quick name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

(* Bit-level float equality: the contract is "bit-identical", not
   "close". *)
let check_bits name a b =
  if Int64.bits_of_float a <> Int64.bits_of_float b then
    Alcotest.failf "%s: %h <> %h" name a b

let check_bits_array name a b =
  Alcotest.(check int) (name ^ " length") (Array.length a) (Array.length b);
  Array.iteri (fun i x -> check_bits (Printf.sprintf "%s.(%d)" name i) x b.(i)) a

let check_solution name (a : Equilibrium.solution) (b : Equilibrium.solution) =
  check_bits_array (name ^ " theta") a.Equilibrium.theta b.Equilibrium.theta;
  check_bits_array (name ^ " demand") a.Equilibrium.demand b.Equilibrium.demand;
  check_bits_array (name ^ " rho") a.Equilibrium.rho b.Equilibrium.rho;
  check_bits (name ^ " per_capita_rate") a.Equilibrium.per_capita_rate
    b.Equilibrium.per_capita_rate;
  check_bits (name ^ " cap") a.Equilibrium.cap b.Equilibrium.cap;
  Alcotest.(check bool)
    (name ^ " congested")
    a.Equilibrium.congested b.Equilibrium.congested

let ensemble ?(n = 60) seed = Po_workload.Ensemble.paper_ensemble ~n ~seed ()

let nu_grid cps =
  let sat = Po_workload.Ensemble.saturation_nu cps in
  [ 0.; 1e-6; 0.05 *. sat; 0.3 *. sat; 0.7 *. sat; 0.99 *. sat; sat;
    1.5 *. sat ]

(* ------------------------------------------------------------------ *)
(* Equilibrium: optimized vs reference                                 *)
(* ------------------------------------------------------------------ *)

let test_eq_differential_random () =
  List.iter
    (fun seed ->
      let cps = ensemble seed in
      List.iter
        (fun nu ->
          check_solution
            (Printf.sprintf "seed=%d nu=%g" seed nu)
            (Equilibrium.solve ~nu cps)
            (Equilibrium.solve_reference ~nu cps))
        (nu_grid cps))
    [ 1; 2; 3; 17; 99 ]

let test_eq_market_reuse () =
  (* One market solved at many nus over every index is the cp_game usage
     pattern; it must not leak state between nus. *)
  let cps = ensemble ~n:50 7 in
  let market = Equilibrium.market cps in
  let all = Array.init (Array.length cps) Fun.id in
  List.iter
    (fun nu ->
      check_solution
        (Printf.sprintf "market nu=%g" nu)
        (Equilibrium.solve_subset ~nu market all)
        (Equilibrium.solve_reference ~nu cps))
    (nu_grid cps)

let test_eq_bracket_hints_transparent () =
  (* Any hint — tight, sloppy, not containing the root, reversed,
     non-finite — must yield the bit-identical solution. *)
  let cps = ensemble ~n:45 11 in
  let sat = Po_workload.Ensemble.saturation_nu cps in
  let nu = 0.4 *. sat in
  let cold = Equilibrium.solve ~nu cps in
  let root = cold.Equilibrium.cap in
  List.iter
    (fun (label, bracket) ->
      check_solution
        ("bracket " ^ label)
        (Equilibrium.solve ~bracket ~nu cps)
        cold)
    [ ("tight", (root *. 0.99, root *. 1.01));
      ("one-sided lo", (root *. 0.5, Float.infinity));
      ("one-sided hi", (0., root *. 2.));
      ("above root", (root *. 2., root *. 3.));
      ("below root", (0., root *. 0.5));
      ("reversed", (root *. 2., root *. 0.5));
      ("negative", (-3., -1.));
      ("nan", (Float.nan, Float.nan));
      ("exact degenerate", (root, root)) ]

let test_eq_all_saturated () =
  (* nu >= unconstrained throughput: the uncongested branch, cap
     infinite. *)
  let cps = ensemble ~n:30 13 in
  let unconstrained =
    Array.fold_left (fun acc cp -> acc +. Cp.lambda_hat_per_capita cp) 0. cps
  in
  List.iter
    (fun nu ->
      let sol = Equilibrium.solve ~nu cps in
      Alcotest.(check bool)
        (Printf.sprintf "uncongested at nu=%g" nu)
        false sol.Equilibrium.congested;
      check_bits "cap is infinite" Float.infinity sol.Equilibrium.cap;
      check_solution
        (Printf.sprintf "all-saturated nu=%g" nu)
        sol
        (Equilibrium.solve_reference ~nu cps))
    [ unconstrained; unconstrained *. 1.5; unconstrained +. 100. ]

let test_eq_single_cp () =
  let cp =
    Cp.make ~id:0 ~alpha:0.7 ~theta_hat:2.5
      ~demand:(Demand.exponential ~beta:4.) ~v:0.5 ()
  in
  List.iter
    (fun nu ->
      check_solution
        (Printf.sprintf "single cp nu=%g" nu)
        (Equilibrium.solve ~nu [| cp |])
        (Equilibrium.solve_reference ~nu [| cp |]))
    [ 0.; 0.1; 0.5; 1.; 1.74; 2. ]

let test_eq_threshold_ties () =
  (* Identical theta_hat / w thresholds: the sort must break ties by
     original index so accumulation order — and the bits — are pinned. *)
  let tied =
    Array.init 12 (fun i ->
        Cp.make ~id:i ~alpha:(0.3 +. (0.05 *. float_of_int (i mod 5)))
          ~theta_hat:2.
          ~demand:(Demand.exponential ~beta:(0.5 +. float_of_int (i mod 4)))
          ())
  in
  List.iter
    (fun nu ->
      check_solution
        (Printf.sprintf "ties nu=%g" nu)
        (Equilibrium.solve ~nu tied)
        (Equilibrium.solve_reference ~nu tied))
    [ 0.; 0.5; 1.; 2.; 4.; 8. ]

let test_eq_empty_and_zero () =
  check_solution "empty population"
    (Equilibrium.solve ~nu:3. [||])
    (Equilibrium.solve_reference ~nu:3. [||]);
  let cps = ensemble ~n:20 29 in
  let zero = Equilibrium.solve ~nu:0. cps in
  check_bits "zero capacity pins cap to 0" 0. zero.Equilibrium.cap;
  Array.iteri
    (fun i theta -> check_bits (Printf.sprintf "theta.(%d)" i) 0. theta)
    zero.Equilibrium.theta;
  check_solution "zero capacity" zero (Equilibrium.solve_reference ~nu:0. cps)

(* ------------------------------------------------------------------ *)
(* Market context: class solves by member index (DESIGN.md §16)        *)
(* ------------------------------------------------------------------ *)

(* Random populations over the demand families.  Each CP draws its
   family from [families] (one family, or all of them for a mixed
   population, whose subsets may or may not be all-exponential), and its
   theta_hat from a coarse grid so that threshold ties are common. *)
type family = Exponential | Linear | Power | Affine_floor | Inelastic

let population ~families ~n seed =
  let rng = Po_prng.Splitmix.of_int seed in
  let u lo hi = Po_prng.Splitmix.uniform rng ~lo ~hi in
  Array.init n (fun id ->
      let demand =
        match families.(Po_prng.Splitmix.int rng (Array.length families)) with
        | Exponential -> Demand.exponential ~beta:(u 0. 4.)
        | Linear -> Demand.linear
        | Power -> Demand.power ~gamma:(u 0.3 2.5)
        | Affine_floor -> Demand.affine_floor ~floor:(u 0. 0.8)
        | Inelastic -> Demand.inelastic
      in
      Cp.make ~id ~alpha:(u 0.05 1.)
        ~theta_hat:(0.5 *. float_of_int (1 + Po_prng.Splitmix.int rng 8))
        ~demand ~v:(u 0. 1.) ~phi:(u 0. 1.) ())

let kinds =
  [ ("exponential", [| Exponential |]); ("linear", [| Linear |]);
    ("power", [| Power |]); ("affine_floor", [| Affine_floor |]);
    ("inelastic", [| Inelastic |]);
    ("mixed", [| Exponential; Linear; Power; Affine_floor; Inelastic |]) ]

(* Ascending member-index subsets: empty, single, full, every CP tied at
   the most common theta_hat, and random halves. *)
let subsets rng cps =
  let n = Array.length cps in
  let where pred = Array.of_list (List.filter pred (List.init n Fun.id)) in
  let count th =
    Array.fold_left
      (fun k (cp : Cp.t) -> if Float.equal cp.Cp.theta_hat th then k + 1 else k)
      0 cps
  in
  let commonest =
    Array.fold_left
      (fun best (cp : Cp.t) ->
        if count cp.Cp.theta_hat > count best then cp.Cp.theta_hat else best)
      cps.(0).Cp.theta_hat cps
  in
  [ ("empty", [||]); ("single", [| n / 2 |]); ("full", Array.init n Fun.id);
    ("tied", where (fun i -> Float.equal cps.(i).Cp.theta_hat commonest)) ]
  @ List.init 3 (fun k ->
        ( Printf.sprintf "random%d" k,
          where (fun _ -> Po_prng.Splitmix.bool rng) ))

let test_market_subsets () =
  List.iter
    (fun (kind, families) ->
      List.iter
        (fun seed ->
          let cps = population ~families ~n:40 seed in
          let market = Equilibrium.market cps in
          let rng = Po_prng.Splitmix.of_int (seed + 1000) in
          List.iter
            (fun (label, members) ->
              let member_cps = Array.map (Array.get cps) members in
              let unconstrained =
                Array.fold_left
                  (fun acc cp -> acc +. Cp.lambda_hat_per_capita cp)
                  0. member_cps
              in
              List.iter
                (fun nu ->
                  let name =
                    Printf.sprintf "%s seed=%d %s nu=%g" kind seed label nu
                  in
                  let cold = Equilibrium.solve ~nu member_cps in
                  check_solution (name ^ " reference") cold
                    (Equilibrium.solve_reference ~nu member_cps);
                  check_solution name
                    (Equilibrium.solve_subset ~nu market members) cold;
                  let cap = cold.Equilibrium.cap in
                  List.iter
                    (fun (hint, bracket) ->
                      check_solution
                        (Printf.sprintf "%s bracket %s" name hint)
                        (Equilibrium.solve_subset ~bracket ~nu market members)
                        (Equilibrium.solve ~bracket ~nu member_cps))
                    [ ("tight", (cap *. 0.99, cap *. 1.01));
                      ("rising", (cap *. 0.5, Float.infinity));
                      ("falling", (0., cap *. 2.));
                      ("wrong side", (cap *. 2., cap *. 3.)) ])
                [ 0.; 0.1 *. unconstrained; 0.5 *. unconstrained;
                  0.95 *. unconstrained; unconstrained;
                  1.5 *. unconstrained +. 1. ])
            (subsets rng cps))
        [ 3; 8 ])
    kinds

(* The hints the CP game hands out after a move are one-sided:
   [(cap, infinity)] for a class whose level can only rise and
   [(0, cap)] for one whose level can only fall.  Placed at, just below
   and just above every threshold of the population — whether the root
   lies on the hinted side or not — each must give the cold solution bit
   for bit, on the record front end and on a market subset. *)
let test_one_sided_hints_every_threshold () =
  List.iter
    (fun (kind, families) ->
      let cps = population ~families ~n:30 5 in
      let market = Equilibrium.market cps in
      let members =
        Array.of_list
          (List.filter (fun i -> i mod 3 <> 1) (List.init 30 Fun.id))
      in
      let member_cps = Array.map (Array.get cps) members in
      let unconstrained =
        Array.fold_left
          (fun acc cp -> acc +. Cp.lambda_hat_per_capita cp)
          0. member_cps
      in
      let positions =
        List.concat_map
          (fun (cp : Cp.t) ->
            let t = cp.Cp.theta_hat in
            [ Float.pred t; t; Float.succ t ])
          (Array.to_list member_cps)
        @ [ 1e-9; 1e9 ]
      in
      List.iter
        (fun nu ->
          let cold = Equilibrium.solve ~nu member_cps in
          check_solution
            (Printf.sprintf "%s nu=%g subset cold" kind nu)
            (Equilibrium.solve_subset ~nu market members)
            cold;
          List.iter
            (fun t ->
              List.iter
                (fun (side, bracket) ->
                  let name =
                    Printf.sprintf "%s nu=%g %s hint at %h" kind nu side t
                  in
                  check_solution (name ^ " record")
                    (Equilibrium.solve ~bracket ~nu member_cps)
                    cold;
                  check_solution (name ^ " subset")
                    (Equilibrium.solve_subset ~bracket ~nu market members)
                    cold)
                [ ("rising", (t, Float.infinity)); ("falling", (0., t)) ])
            positions)
        [ 0.05 *. unconstrained; 0.4 *. unconstrained;
          0.9 *. unconstrained ])
    kinds

(* A level exactly at a saturation threshold: CP [a] saturates at
   theta_hat 1, and nu is the aggregate at cap = 1, summed as the solver
   sums it (saturated prefix, then the tail), so the segment search
   lands on the grid point itself.  [a] must then come out saturated,
   and the solution must match the reference's record formula
   [min theta_hat cap] bit for bit. *)
let test_eq_level_at_threshold () =
  List.iter
    (fun (kind, demand) ->
      let a =
        Cp.make ~id:0 ~alpha:1. ~theta_hat:1.
          ~demand:(Demand.exponential ~beta:1.) ()
      in
      let b = Cp.make ~id:1 ~alpha:0.5 ~theta_hat:2. ~demand () in
      let cap = a.Cp.theta_hat in
      let nu =
        (0. +. Cp.lambda_per_capita a ~theta:cap)
        +. Cp.lambda_per_capita b ~theta:cap
      in
      let sol = Equilibrium.solve ~nu [| a; b |] in
      check_bits (kind ^ " level at the threshold") cap sol.Equilibrium.cap;
      check_bits (kind ^ " saturated theta") a.Cp.theta_hat
        sol.Equilibrium.theta.(0);
      check_bits (kind ^ " saturated rho")
        (Cp.rho a ~theta:a.Cp.theta_hat)
        sol.Equilibrium.rho.(0);
      check_solution
        ("level at a threshold " ^ kind)
        sol
        (Equilibrium.solve_reference ~nu [| a; b |]))
    [ ("exponential", Demand.exponential ~beta:2.); ("mixed", Demand.linear) ]

let test_market_rejects_bad_members () =
  let market = Equilibrium.market (population ~families:[| Linear |] ~n:5 1) in
  List.iter
    (fun members ->
      Alcotest.check_raises "not ascending"
        (Invalid_argument
           "Equilibrium.solve_subset: members not ascending population indices")
        (fun () -> ignore (Equilibrium.solve_subset ~nu:1. market members)))
    [ [| 2; 1 |]; [| 1; 1 |]; [| 5 |]; [| -1 |] ]

(* ------------------------------------------------------------------ *)
(* CP game: caching/warm-started engine vs cold reference engine       *)
(* ------------------------------------------------------------------ *)

let check_outcome name (a : Cp_game.outcome) (b : Cp_game.outcome) =
  Alcotest.(check string)
    (name ^ " partition")
    (Partition.key a.Cp_game.partition)
    (Partition.key b.Cp_game.partition);
  check_bits_array (name ^ " theta") a.Cp_game.theta b.Cp_game.theta;
  check_bits_array (name ^ " rho") a.Cp_game.rho b.Cp_game.rho;
  check_bits (name ^ " cap_o") a.Cp_game.cap_ordinary b.Cp_game.cap_ordinary;
  check_bits (name ^ " cap_p") a.Cp_game.cap_premium b.Cp_game.cap_premium;
  check_bits (name ^ " lambda_o") a.Cp_game.lambda_ordinary
    b.Cp_game.lambda_ordinary;
  check_bits (name ^ " lambda_p") a.Cp_game.lambda_premium
    b.Cp_game.lambda_premium;
  check_bits (name ^ " phi") a.Cp_game.phi b.Cp_game.phi;
  check_bits (name ^ " psi") a.Cp_game.psi b.Cp_game.psi;
  Alcotest.(check bool) (name ^ " converged") a.Cp_game.converged
    b.Cp_game.converged;
  Alcotest.(check int) (name ^ " iterations") a.Cp_game.iterations
    b.Cp_game.iterations

let game_points cps =
  let sat = Po_workload.Ensemble.saturation_nu cps in
  [ (0.5, 0.3, 0.2 *. sat); (0.3, 0.6, 0.5 *. sat); (0.8, 0.2, 0.05 *. sat);
    (1., 0.5, 0.4 *. sat); (0., 0.3, 0.3 *. sat); (0.6, 0.4, 1.2 *. sat) ]

let test_game_differential () =
  List.iter
    (fun seed ->
      let cps = ensemble ~n:50 seed in
      List.iter
        (fun (kappa, c, nu) ->
          let strategy = Strategy.make ~kappa ~c in
          check_outcome
            (Printf.sprintf "seed=%d (%g,%g,nu=%g)" seed kappa c nu)
            (Cp_game.solve ~nu ~strategy cps)
            (Cp_game.solve_reference ~nu ~strategy cps))
        (game_points cps))
    [ 4; 42 ];
  (* Every demand family, each game cold and warm-started from another
     game's partition and from a random one. *)
  List.iter
    (fun (kind, families) ->
      let cps = population ~families ~n:30 (String.length kind) in
      let rng = Po_prng.Splitmix.of_int 77 in
      let random_init =
        Partition.of_premium_indicator
          (Array.init (Array.length cps) (fun _ -> Po_prng.Splitmix.bool rng))
      in
      let previous = ref random_init in
      List.iter
        (fun (kappa, c, nu) ->
          let strategy = Strategy.make ~kappa ~c in
          let cold = Cp_game.solve ~nu ~strategy cps in
          check_outcome
            (Printf.sprintf "%s (%g,%g,nu=%g)" kind kappa c nu)
            cold
            (Cp_game.solve_reference ~nu ~strategy cps);
          List.iter
            (fun (start, init) ->
              check_outcome
                (Printf.sprintf "%s (%g,%g,nu=%g) from %s" kind kappa c nu
                   start)
                (Cp_game.solve ~init ~nu ~strategy cps)
                (Cp_game.solve_reference ~init ~nu ~strategy cps))
            [ ("previous game", !previous); ("random", random_init) ];
          previous := cold.Cp_game.partition)
        (game_points cps))
    kinds

let test_game_differential_small () =
  (* Tiny populations exercise the tolerant phase and the Nash fallback,
     where the engine's caches see the most reuse. *)
  List.iter
    (fun n ->
      let cps = ensemble ~n (100 + n) in
      List.iter
        (fun (kappa, c, nu) ->
          let strategy = Strategy.make ~kappa ~c in
          check_outcome
            (Printf.sprintf "n=%d (%g,%g,nu=%g)" n kappa c nu)
            (Cp_game.solve ~nu ~strategy cps)
            (Cp_game.solve_reference ~nu ~strategy cps))
        (game_points cps))
    [ 1; 2; 3; 7 ]

let test_game_nash_differential () =
  let cps = ensemble ~n:25 8 in
  List.iter
    (fun (kappa, c, nu) ->
      let strategy = Strategy.make ~kappa ~c in
      check_outcome
        (Printf.sprintf "nash (%g,%g,nu=%g)" kappa c nu)
        (Cp_game.solve_nash ~nu ~strategy cps)
        (Cp_game.solve_nash_reference ~nu ~strategy cps))
    (game_points cps)

let test_game_zero_capacity () =
  let cps = ensemble ~n:15 31 in
  let strategy = Strategy.make ~kappa:0.5 ~c:0.3 in
  check_outcome "nu=0"
    (Cp_game.solve ~nu:0. ~strategy cps)
    (Cp_game.solve_reference ~nu:0. ~strategy cps)

(* One market serves a whole search: a sequence of games on it must each
   match a fresh reference solve, so nothing carries over between solves,
   and the same games mapped over a pool — the market shared by every
   domain — must equal the serial run. *)
let test_market_reuse () =
  let cps =
    population ~families:[| Exponential; Linear; Power; Affine_floor |] ~n:40
      12
  in
  let market = Equilibrium.market cps in
  let sat =
    Array.fold_left (fun acc cp -> acc +. Cp.lambda_hat_per_capita cp) 0. cps
  in
  let points =
    Array.of_list
      (List.concat_map
         (fun (kappa, c, frac) ->
           [ (kappa, c, frac *. sat); (1. -. kappa, c /. 2., frac *. sat) ])
         [ (0.5, 0.3, 0.2); (0.9, 0.6, 0.5); (0.3, 0.2, 0.05);
           (1., 0.5, 0.4); (0., 0.3, 0.3); (0.6, 0.4, 1.2) ])
  in
  let solve (kappa, c, nu) =
    Cp_game.solve_market ~nu ~strategy:(Strategy.make ~kappa ~c) market
  in
  let serial = Array.map solve points in
  Array.iteri
    (fun i (kappa, c, nu) ->
      check_outcome
        (Printf.sprintf "reused market (%g,%g,nu=%g)" kappa c nu)
        serial.(i)
        (Cp_game.solve_reference ~nu ~strategy:(Strategy.make ~kappa ~c) cps))
    points;
  List.iter
    (fun domains ->
      Po_par.Pool.with_pool ~domains (fun pool ->
          Array.iteri
            (fun i o ->
              check_outcome
                (Printf.sprintf "jobs %d point %d" domains i)
                serial.(i) o)
            (Po_par.Pool.maybe_map (Some pool) solve points)))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Chained sweeps: chunk layout independent of the pool                *)
(* ------------------------------------------------------------------ *)

let test_chain_map_matches_serial () =
  let input = Array.init 103 (fun i -> float_of_int i /. 7.) in
  let step prev x =
    match prev with None -> x | Some p -> (0.5 *. p) +. x
  in
  let serial = Po_par.Pool.chain_map None ~step input in
  List.iter
    (fun domains ->
      Po_par.Pool.with_pool ~domains (fun pool ->
          check_bits_array
            (Printf.sprintf "chain_map %d domains" domains)
            serial
            (Po_par.Pool.chain_map (Some pool) ~step input)))
    [ 1; 2; 8 ];
  (* Chunk boundaries: with chunk_size 10, element 10 starts a fresh
     chain and must not see element 9. *)
  let chunked = Po_par.Pool.chain_map ~chunk_size:10 None ~step input in
  check_bits "chunk restart" input.(10) chunked.(10)

let test_monopoly_sweeps_pool_invariant () =
  let cps = ensemble ~n:40 3 in
  let sat = Po_workload.Ensemble.saturation_nu cps in
  let cs = Po_num.Grid.linspace 0. 1. 23 in
  let nus = Po_num.Grid.linspace 1e-3 (2. *. sat) 23 in
  let strategy = Strategy.make ~kappa:0.5 ~c:0.3 in
  let prices = Monopoly.price_sweep ~nu:(0.4 *. sat) ~cs cps in
  let caps = Monopoly.capacity_sweep ~strategy ~nus cps in
  Po_par.Pool.with_pool ~domains:4 (fun pool ->
      Array.iteri
        (fun i (p : Monopoly.price_point) ->
          check_bits
            (Printf.sprintf "price psi.(%d)" i)
            p.Monopoly.psi
            (Monopoly.price_sweep ~pool ~nu:(0.4 *. sat) ~cs cps).(i)
              .Monopoly.psi)
        prices;
      Array.iteri
        (fun i (o : Cp_game.outcome) ->
          check_outcome
            (Printf.sprintf "capacity point %d" i)
            o
            (Monopoly.capacity_sweep ~pool ~strategy ~nus cps).(i))
        caps)

(* ------------------------------------------------------------------ *)
(* Figure registry: every figure identical for any jobs count          *)
(* ------------------------------------------------------------------ *)

let series_of_figure (figure : Po_experiments.Common.figure) =
  List.concat_map
    (fun (panel, series) ->
      List.map
        (fun s ->
          ( panel ^ "/" ^ Po_report.Series.label s,
            (Po_report.Series.xs s, Po_report.Series.ys s) ))
        series)
    figure.Po_experiments.Common.panels

let slow_test_registry_jobs_invariant () =
  List.iter
    (fun (entry : Po_experiments.Registry.entry) ->
      let at jobs =
        series_of_figure
          (entry.Po_experiments.Registry.generate
             ~params:{ Po_experiments.Common.quick_params with jobs }
             ())
      in
      let reference = at 1 and got = at 3 in
      Alcotest.(check int)
        (entry.Po_experiments.Registry.id ^ " series count")
        (List.length reference) (List.length got);
      List.iter2
        (fun (name, (xs, ys)) (name', (xs', ys')) ->
          let name = entry.Po_experiments.Registry.id ^ "/" ^ name in
          Alcotest.(check string) (name ^ " label") name
            (entry.Po_experiments.Registry.id ^ "/" ^ name');
          check_bits_array (name ^ " xs") xs xs';
          check_bits_array (name ^ " ys") ys ys')
        reference got)
    Po_experiments.Registry.entries

let () =
  Alcotest.run "po_perf_kernel"
    [ ( "equilibrium",
        [ quick "random ensembles bit-identical" test_eq_differential_random;
          quick "level at a saturation threshold" test_eq_level_at_threshold;
          quick "market reuse" test_eq_market_reuse;
          quick "bracket hints are transparent"
            test_eq_bracket_hints_transparent;
          quick "all-saturated ensembles" test_eq_all_saturated;
          quick "single CP" test_eq_single_cp;
          quick "threshold ties" test_eq_threshold_ties;
          quick "empty and zero capacity" test_eq_empty_and_zero;
          quick "market subsets bit-identical" test_market_subsets;
          quick "market rejects bad members"
            test_market_rejects_bad_members;
          quick "one-sided hints at every threshold"
            test_one_sided_hints_every_threshold ] );
      ( "cp_game",
        [ quick "random ensembles bit-identical" test_game_differential;
          quick "small populations bit-identical"
            test_game_differential_small;
          quick "nash solver bit-identical" test_game_nash_differential;
          quick "zero capacity" test_game_zero_capacity;
          quick "one market reused, serial and pooled" test_market_reuse ] );
      ( "sweeps",
        [ quick "chain_map pool-invariant" test_chain_map_matches_serial;
          quick "monopoly sweeps pool-invariant"
            test_monopoly_sweeps_pool_invariant ] );
      ( "figures",
        [ slow "whole registry identical at jobs 1/3"
            slow_test_registry_jobs_invariant ] ) ]
