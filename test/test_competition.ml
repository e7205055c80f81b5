(* Tests for the competition layer (lib/core): duopoly with a Public
   Option (Sec. IV-A, Theorem 5), oligopoly (Sec. IV-B, Lemma 4,
   Theorem 6), migration dynamics (Assumption 5), discontinuity metrics
   (Eq. 9) and the regime comparison facade. *)

open Po_core

let quick name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f
let prop t = QCheck_alcotest.to_alcotest t
let check_close tol = Alcotest.(check (float tol))

let ensemble ?(n = 80) seed = Po_workload.Ensemble.paper_ensemble ~n ~seed ()
let saturation = Po_workload.Ensemble.saturation_nu

(* ------------------------------------------------------------------ *)
(* Duopoly                                                            *)
(* ------------------------------------------------------------------ *)

let test_duopoly_config_validation () =
  Alcotest.check_raises "gamma out of range"
    (Invalid_argument "Duopoly.config: gamma_i outside (0, 1)") (fun () ->
      ignore
        (Duopoly.config ~gamma_i:1. ~nu:10.
           ~strategy_i:Strategy.public_option ()))

let test_duopoly_symmetric_neutral_splits_evenly () =
  (* Two identical neutral ISPs must split the market in half, and each
     side then looks like the whole system (Lemma 4 for n = 2). *)
  let cps = ensemble 31 in
  let nu = 0.5 *. saturation cps in
  let cfg = Duopoly.config ~nu ~strategy_i:Strategy.public_option () in
  let eq = Duopoly.solve cfg cps in
  check_close 1e-3 "half market" 0.5 eq.Duopoly.m_i;
  let whole = Cp_game.solve ~nu ~strategy:Strategy.public_option cps in
  check_close
    (0.01 *. whole.Cp_game.phi)
    "phi equals single-network phi" whole.Cp_game.phi eq.Duopoly.phi

let test_duopoly_interior_equalises_surplus () =
  let cps = ensemble 37 in
  let nu = 0.4 *. saturation cps in
  let cfg =
    Duopoly.config ~nu ~strategy_i:(Strategy.make ~kappa:1. ~c:0.3) ()
  in
  let eq = Duopoly.solve cfg cps in
  Alcotest.(check bool) "interior" true eq.Duopoly.interior;
  let phi_i = eq.Duopoly.outcome_i.Cp_game.phi in
  let phi_j = eq.Duopoly.outcome_j.Cp_game.phi in
  check_close (0.02 *. Float.max phi_i 1.) "equal surplus" phi_i phi_j

let test_duopoly_extreme_price_loses_market () =
  (* c_I >= max v: no CP joins ISP I's only class (kappa=1), consumers all
     flee to the Public Option. *)
  let cps = ensemble 41 in
  let nu = 0.4 *. saturation cps in
  let cfg =
    Duopoly.config ~nu ~strategy_i:(Strategy.make ~kappa:1. ~c:1.) ()
  in
  let eq = Duopoly.solve cfg cps in
  check_close 1e-6 "zero share" 0. eq.Duopoly.m_i;
  Alcotest.(check bool) "corner" false eq.Duopoly.interior;
  (* The population surplus is then the Public Option serving everyone on
     half the capacity. *)
  let po_alone =
    Cp_game.solve ~nu:(0.5 *. nu) ~strategy:Strategy.public_option cps
  in
  check_close
    (0.01 *. po_alone.Cp_game.phi)
    "phi = PO alone" po_alone.Cp_game.phi eq.Duopoly.phi

let test_duopoly_moderate_price_keeps_market () =
  let cps = ensemble 43 in
  let nu = 0.3 *. saturation cps in
  let cfg =
    Duopoly.config ~nu ~strategy_i:(Strategy.make ~kappa:1. ~c:0.2) ()
  in
  let eq = Duopoly.solve cfg cps in
  Alcotest.(check bool)
    (Printf.sprintf "m_I=%.3f above 0.4" eq.Duopoly.m_i)
    true (eq.Duopoly.m_i > 0.4);
  Alcotest.(check bool) "collects revenue" true (eq.Duopoly.psi_i > 0.)

let test_duopoly_capacity_share_matters () =
  (* A neutral ISP with a bigger pipe takes a proportionally bigger
     market (Lemma 4 with asymmetric capacity). *)
  let cps = ensemble 47 in
  let nu = 0.4 *. saturation cps in
  let cfg =
    Duopoly.config ~gamma_i:0.7 ~nu ~strategy_i:Strategy.public_option ()
  in
  let eq = Duopoly.solve cfg cps in
  check_close 0.01 "share = capacity share" 0.7 eq.Duopoly.m_i

let slow_test_duopoly_theorem5 () =
  let cps = ensemble ~n:60 53 in
  let nu = 0.5 *. saturation cps in
  let cfg =
    Duopoly.config ~nu ~strategy_i:(Strategy.make ~kappa:1. ~c:0.3) ()
  in
  let neutral_phi =
    (Cp_game.solve ~nu ~strategy:Strategy.public_option cps).Cp_game.phi
  in
  match Duopoly.check_theorem5 ~tol:(0.03 *. neutral_phi) ~config:cfg cps with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_duopoly_theorem5_requires_public_option () =
  let cps = ensemble 59 in
  let cfg =
    Duopoly.config ~nu:10.
      ~strategy_i:(Strategy.make ~kappa:1. ~c:0.3)
      ~strategy_j:(Strategy.make ~kappa:0.5 ~c:0.5)
      ()
  in
  Alcotest.check_raises "rejects non-PO rival"
    (Invalid_argument
       "Duopoly.check_theorem5: ISP J must be the Public Option") (fun () ->
      ignore (Duopoly.check_theorem5 ~config:cfg cps))

(* The exhaustive best-response search the pruned one replaced, kept as
   the oracle: the multilevel grid refinement with its whole first grid
   scanned twice, scoring every point with a full migration solve. *)
let oracle_grid_max2 ~f ~grid1 ~grid2 =
  let best = ref (grid1.(0), grid2.(0), f grid1.(0) grid2.(0)) in
  Array.iter
    (fun x1 ->
      Array.iter
        (fun x2 ->
          let v = f x1 x2 in
          let _, _, bv = !best in
          if v > bv then best := (x1, x2, v))
        grid2)
    grid1;
  !best

let oracle_refine_grid_max2 ~levels ~points ~f ~hi2 =
  let scan lo1 hi1 lo2 hi2 =
    oracle_grid_max2 ~f
      ~grid1:(Po_num.Grid.linspace lo1 hi1 points)
      ~grid2:(Po_num.Grid.linspace lo2 hi2 points)
  in
  let rec loop lo1 hi1 lo2 hi2 level ((_, _, bv) as best) =
    if level = 0 then best
    else
      let ((_, _, lv) as local) = scan lo1 hi1 lo2 hi2 in
      let ((b1, b2, _) as best) = if lv > bv then local else best in
      let s1 = (hi1 -. lo1) /. float_of_int (points - 1) in
      let s2 = (hi2 -. lo2) /. float_of_int (points - 1) in
      loop
        (Float.max lo1 (b1 -. s1)) (Float.min hi1 (b1 +. s1))
        (Float.max lo2 (b2 -. s2)) (Float.min hi2 (b2 +. s2))
        (level - 1) best
  in
  loop 0. 1. 0. hi2 levels (scan 0. 1. 0. hi2)

let oracle_best_response_market_share ~levels ~points ~config:cfg cps =
  let max_v =
    Array.fold_left (fun acc (cp : Po_model.Cp.t) -> Float.max acc cp.Po_model.Cp.v) 0. cps
  in
  let hi_c = Float.max max_v 1e-9 in
  let share kappa c =
    (Duopoly.solve { cfg with Duopoly.strategy_i = Strategy.make ~kappa ~c } cps)
      .Duopoly.m_i
  in
  let kappa, c, _ = oracle_refine_grid_max2 ~levels ~points ~f:share ~hi2:hi_c in
  let strategy = Strategy.make ~kappa ~c in
  (strategy, Duopoly.solve { cfg with Duopoly.strategy_i = strategy } cps)

let po_config ~po_share ~nu =
  Duopoly.config ~gamma_i:(1. -. po_share) ~nu
    ~strategy_i:Strategy.public_option ()

let bits_equal name a b =
  Alcotest.(check int64) name (Int64.bits_of_float a) (Int64.bits_of_float b)

let slow_test_best_response_matches_oracle () =
  List.iter
    (fun (n, seed, po_share, levels, points) ->
      let cps = ensemble ~n seed in
      let cfg = po_config ~po_share ~nu:(0.85 *. saturation cps) in
      let s, eq = Duopoly.best_response_market_share ~levels ~points ~config:cfg cps in
      let s', eq' = oracle_best_response_market_share ~levels ~points ~config:cfg cps in
      let case = Printf.sprintf "n=%d seed=%d share=%g" n seed po_share in
      Alcotest.(check bool)
        (case ^ ": strategy " ^ Strategy.to_string s ^ " vs "
       ^ Strategy.to_string s')
        true (Strategy.equal s s');
      bits_equal (case ^ ": m_i") eq'.Duopoly.m_i eq.Duopoly.m_i;
      bits_equal (case ^ ": phi") eq'.Duopoly.phi eq.Duopoly.phi;
      bits_equal (case ^ ": psi_i") eq'.Duopoly.psi_i eq.Duopoly.psi_i)
    (List.concat_map
       (fun (n, seed) ->
         List.map
           (fun po_share ->
             if n = 12 && seed = 7 then (n, seed, po_share, 3, 5)
             else (n, seed, po_share, 2, 9))
           [ 0.3; 0.5; 0.7 ])
       [ (12, 1); (12, 7); (20, 1); (20, 7) ])

(* The pruned search stays well under the oracle's CP-game solve count on
   a fixed market (about a fifth of it at the serve defaults). *)
let test_best_response_solve_count () =
  let cps = ensemble ~n:20 1003 in
  let cfg = po_config ~po_share:0.5 ~nu:(0.85 *. saturation cps) in
  let solves f =
    Po_obs.Metrics.reset ();
    Po_obs.Metrics.arm ();
    Fun.protect ~finally:Po_obs.Metrics.disarm (fun () ->
        ignore (f ());
        Option.value ~default:0
          (List.assoc_opt "cp_game.solves" (Po_obs.Metrics.counters ())))
  in
  let pruned =
    solves (fun () ->
        Duopoly.best_response_market_share ~levels:2 ~points:9 ~config:cfg cps)
  in
  let oracle =
    solves (fun () ->
        oracle_best_response_market_share ~levels:2 ~points:9 ~config:cfg cps)
  in
  if not (pruned > 0 && 2 * pruned < oracle) then
    Alcotest.failf "pruned search made %d CP-game solves, oracle %d" pruned
      oracle

(* [market_share] is [solve]'s share bit for bit above the floor, and
   never more than the floor below it. *)
let prop_market_share_floor =
  QCheck.Test.make ~name:"market_share keeps the floor contract" ~count:12
    QCheck.(triple (float_bound_inclusive 1.) (float_bound_inclusive 1.)
              (float_range (-0.1) 1.1))
    (fun (kappa, c, floor) ->
      let cps = ensemble ~n:20 141 in
      let cfg =
        { (po_config ~po_share:0.5 ~nu:(0.85 *. saturation cps)) with
          Duopoly.strategy_i = Strategy.make ~kappa ~c }
      in
      let m = (Duopoly.solve cfg cps).Duopoly.m_i in
      let exact = Duopoly.market_share ~floor:neg_infinity cfg cps in
      let bounded = Duopoly.market_share ~floor cfg cps in
      Int64.equal (Int64.bits_of_float exact) (Int64.bits_of_float m)
      && (if m > floor then
            Int64.equal (Int64.bits_of_float bounded) (Int64.bits_of_float m)
          else bounded <= floor))

(* ------------------------------------------------------------------ *)
(* Oligopoly                                                          *)
(* ------------------------------------------------------------------ *)

let test_oligopoly_config_validation () =
  Alcotest.check_raises "shares must sum to 1"
    (Invalid_argument "Oligopoly.config: capacity shares must sum to 1")
    (fun () ->
      ignore
        (Oligopoly.config ~nu:10.
           [| { Oligopoly.label = "a"; gamma = 0.5;
                strategy = Strategy.public_option };
              { Oligopoly.label = "b"; gamma = 0.6;
                strategy = Strategy.public_option } |]))

let test_oligopoly_lemma4_neutral () =
  let cps = ensemble 61 in
  let cfg =
    Oligopoly.homogeneous ~gammas:[| 0.5; 0.3; 0.2 |]
      ~nu:(0.5 *. saturation cps) ~n:3 ~strategy:Strategy.public_option ()
  in
  match Oligopoly.check_lemma4 ~tol:0.01 cfg cps with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_oligopoly_lemma4_non_neutral () =
  let cps = ensemble 67 in
  let cfg =
    Oligopoly.homogeneous ~gammas:[| 0.6; 0.4 |] ~nu:(0.4 *. saturation cps)
      ~n:2
      ~strategy:(Strategy.make ~kappa:0.5 ~c:0.3)
      ()
  in
  match Oligopoly.check_lemma4 ~tol:0.02 cfg cps with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_oligopoly_lemma4_rejects_heterogeneous () =
  let cps = ensemble 71 in
  let cfg =
    Oligopoly.config ~nu:10.
      [| { Oligopoly.label = "a"; gamma = 0.5;
           strategy = Strategy.public_option };
         { Oligopoly.label = "b"; gamma = 0.5;
           strategy = Strategy.make ~kappa:1. ~c:0.3 } |]
  in
  Alcotest.check_raises "needs homogeneous strategies"
    (Invalid_argument
       "Oligopoly.check_lemma4: strategies are not homogeneous") (fun () ->
      ignore (Oligopoly.check_lemma4 cfg cps))

let test_oligopoly_shares_sum_to_one () =
  let cps = ensemble 73 in
  let cfg =
    Oligopoly.config ~nu:(0.5 *. saturation cps)
      [| { Oligopoly.label = "a"; gamma = 0.4;
           strategy = Strategy.public_option };
         { Oligopoly.label = "b"; gamma = 0.35;
           strategy = Strategy.make ~kappa:0.8 ~c:0.3 };
         { Oligopoly.label = "c"; gamma = 0.25;
           strategy = Strategy.make ~kappa:0.4 ~c:0.6 } |]
  in
  let eq = Oligopoly.solve cfg cps in
  check_close 1e-6 "sum 1" 1. (Array.fold_left ( +. ) 0. eq.Oligopoly.shares);
  Array.iter
    (fun m -> Alcotest.(check bool) "non-negative" true (m >= 0.))
    eq.Oligopoly.shares

let test_oligopoly_equalises_surplus () =
  let cps = ensemble 79 in
  let cfg =
    Oligopoly.config ~nu:(0.4 *. saturation cps)
      [| { Oligopoly.label = "a"; gamma = 0.5;
           strategy = Strategy.public_option };
         { Oligopoly.label = "b"; gamma = 0.5;
           strategy = Strategy.make ~kappa:1. ~c:0.25 } |]
  in
  let eq = Oligopoly.solve cfg cps in
  Alcotest.(check bool) "interior shares" true
    (eq.Oligopoly.shares.(0) > 0.01 && eq.Oligopoly.shares.(1) > 0.01);
  let spread = Float.abs (eq.Oligopoly.phis.(0) -. eq.Oligopoly.phis.(1)) in
  Alcotest.(check bool)
    (Printf.sprintf "surpluses near-equal (spread %g vs Phi* %g)" spread
       eq.Oligopoly.phi_star)
    true
    (spread <= 0.05 *. Float.max eq.Oligopoly.phi_star 1e-9)

let test_oligopoly_hopeless_isp_gets_nothing () =
  (* kappa=1 with an unaffordable price delivers zero surplus at any
     capacity; that ISP's share must vanish. *)
  let cps = ensemble 83 in
  let cfg =
    Oligopoly.config ~nu:(0.5 *. saturation cps)
      [| { Oligopoly.label = "dead"; gamma = 0.5;
           strategy = Strategy.make ~kappa:1. ~c:1. };
         { Oligopoly.label = "alive"; gamma = 0.5;
           strategy = Strategy.public_option } |]
  in
  let eq = Oligopoly.solve cfg cps in
  check_close 1e-6 "dead ISP has no customers" 0. eq.Oligopoly.shares.(0);
  check_close 1e-6 "survivor takes all" 1. eq.Oligopoly.shares.(1)

let test_oligopoly_over_provisioned () =
  let cps = ensemble 89 in
  let cfg =
    Oligopoly.homogeneous ~nu:(4. *. saturation cps) ~n:2
      ~strategy:Strategy.public_option ()
  in
  let eq = Oligopoly.solve cfg cps in
  Alcotest.(check bool) "flagged over-provisioned" true
    eq.Oligopoly.over_provisioned;
  check_close 1e-6 "shares still sum to 1" 1.
    (Array.fold_left ( +. ) 0. eq.Oligopoly.shares)

let slow_test_oligopoly_duopoly_agree () =
  (* The generic level-bisection solver and the dedicated duopoly
     bisection must agree on the same instance. *)
  let cps = ensemble ~n:60 97 in
  let nu = 0.4 *. saturation cps in
  let strategy_i = Strategy.make ~kappa:1. ~c:0.3 in
  let duo = Duopoly.solve (Duopoly.config ~nu ~strategy_i ()) cps in
  let olig =
    Oligopoly.solve
      (Oligopoly.config ~nu
         [| { Oligopoly.label = "i"; gamma = 0.5; strategy = strategy_i };
            { Oligopoly.label = "j"; gamma = 0.5;
              strategy = Strategy.public_option } |])
      cps
  in
  check_close 0.02 "same market share" duo.Duopoly.m_i
    olig.Oligopoly.shares.(0)

(* ------------------------------------------------------------------ *)
(* Migration dynamics                                                 *)
(* ------------------------------------------------------------------ *)

let two_isp_config cps frac =
  Oligopoly.config ~nu:(frac *. saturation cps)
    [| { Oligopoly.label = "i"; gamma = 0.5;
         strategy = Strategy.make ~kappa:1. ~c:0.3 };
       { Oligopoly.label = "j"; gamma = 0.5;
         strategy = Strategy.public_option } |]

let test_migration_init_validation () =
  let cps = ensemble 101 in
  let cfg = two_isp_config cps 0.4 in
  Alcotest.check_raises "shares must sum to 1"
    (Invalid_argument "Migration.init_with: shares must sum to 1") (fun () ->
      ignore (Migration.init_with ~shares:[| 0.5; 0.4 |] cfg cps))

let test_migration_converges_to_equal_surplus () =
  let cps = ensemble ~n:50 103 in
  let cfg = two_isp_config cps 0.4 in
  let state0 = Migration.init_with ~shares:[| 0.85; 0.15 |] cfg cps in
  let final, converged =
    Migration.run ~tol:2e-2 ~max_steps:400 cfg cps state0
  in
  Alcotest.(check bool) "converged" true converged;
  let eq = Oligopoly.solve cfg cps in
  check_close 0.05 "agrees with equal-surplus solver"
    eq.Oligopoly.shares.(0) final.Migration.shares.(0)

let test_migration_shares_stay_normalised () =
  let cps = ensemble ~n:50 107 in
  let cfg = two_isp_config cps 0.4 in
  let state = ref (Migration.init cfg cps) in
  for _ = 1 to 10 do
    state := Migration.step cfg cps !state
  done;
  check_close 1e-9 "sum 1" 1.
    (Array.fold_left ( +. ) 0. !state.Migration.shares)

let slow_test_migration_continuous_matches_discrete () =
  (* The RK4 replicator must land on the same equal-surplus equilibrium
     as the discrete map and the direct solver. *)
  let cps = ensemble ~n:50 211 in
  let cfg = two_isp_config cps 0.4 in
  let state0 = Migration.init_with ~shares:[| 0.8; 0.2 |] cfg cps in
  let final, converged =
    Migration.run_continuous ~dt:0.3 ~tol:2e-2 ~max_steps:600 cfg cps state0
  in
  Alcotest.(check bool) "converged" true converged;
  let eq = Oligopoly.solve cfg cps in
  check_close 0.05 "continuous agrees with the solver"
    eq.Oligopoly.shares.(0) final.Migration.shares.(0)

let test_migration_equalised_is_fixed_point () =
  (* Starting from equal surplus (two identical neutral ISPs at equal
     shares), migration should not move the shares. *)
  let cps = ensemble ~n:50 109 in
  let cfg =
    Oligopoly.homogeneous ~nu:(0.4 *. saturation cps) ~n:2
      ~strategy:Strategy.public_option ()
  in
  let state0 = Migration.init cfg cps in
  let state1 = Migration.step cfg cps state0 in
  check_close 1e-6 "no movement" state0.Migration.shares.(0)
    state1.Migration.shares.(0)

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

let test_metrics_epsilon_neutral_is_zero () =
  (* Under a neutral strategy nobody re-equilibrates, so Phi(nu) is
     non-decreasing and epsilon = 0 (Theorem 2). *)
  let cps = ensemble 113 in
  let nus = Po_num.Grid.linspace 0.5 (saturation cps) 25 in
  check_close 1e-9 "epsilon 0" 0.
    (Metrics.epsilon ~strategy:Strategy.public_option ~nus cps)

let test_metrics_epsilon_nonneutral_small () =
  let cps = ensemble ~n:120 127 in
  let nus = Po_num.Grid.linspace 0.5 (saturation cps) 30 in
  let strategy = Strategy.make ~kappa:0.5 ~c:0.3 in
  let eps = Metrics.epsilon ~strategy ~nus cps in
  let phis = Metrics.phi_curve ~strategy ~nus cps in
  let scale = Po_num.Stats.max phis in
  Alcotest.(check bool)
    (Printf.sprintf "drops exist but are small (eps=%g, max Phi=%g)" eps
       scale)
    true
    (eps >= 0. && eps < 0.2 *. scale)

let test_metrics_alignment_gap () =
  let xs = [| 0.1; 0.5; 0.4 |] and ys = [| 1.; 2.; 3. |] in
  (* Pair (x=0.5, y=2) vs (x=0.4, y=3): ys.(1) <= ys.(2) and the x gap is
     0.1. *)
  check_close 1e-9 "gap" 0.1 (Metrics.alignment_gap ~xs ~ys);
  check_close 1e-9 "aligned data has zero gap" 0.
    (Metrics.alignment_gap ~xs:[| 1.; 2. |] ~ys:[| 1.; 2. |])

let test_metrics_psi_curve () =
  let cps = ensemble 131 in
  let nus = Po_num.Grid.linspace 1. 10. 5 in
  let psis =
    Metrics.psi_curve ~strategy:(Strategy.make ~kappa:1. ~c:0.2) ~nus cps
  in
  (* Saturated regime: Psi = c * nu exactly. *)
  Array.iteri
    (fun k psi ->
      check_close (0.02 *. nus.(k)) "psi = c nu" (0.2 *. nus.(k)) psi)
    psis

(* ------------------------------------------------------------------ *)
(* Public_option facade                                               *)
(* ------------------------------------------------------------------ *)

let slow_test_regime_comparison () =
  let cps = ensemble ~n:80 137 in
  let nu = 0.85 *. saturation cps in
  let results =
    List.map
      (fun r -> r.Public_option.result)
      (Public_option.compare_regimes ~levels:2 ~points:7 ~nu cps)
  in
  Alcotest.(check int) "three regimes" 3 (List.length results);
  (match Public_option.check_ordering results with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let neutral = List.nth results 1 in
  check_close 1e-9 "neutral collects nothing" 0. neutral.Public_option.psi

let test_check_ordering_detects_violation () =
  let fake label phi =
    { Public_option.label; phi; psi = 0.; commercial_strategy = None;
      market_share = None }
  in
  match
    Public_option.check_ordering
      [ fake "unregulated monopoly" 10.;
        fake "network-neutral regulation" 3.;
        fake "public option (share 0.5)" 5. ]
  with
  | Ok () -> Alcotest.fail "should reject neutral < unregulated"
  | Error _ -> ()

let prop_duopoly_share_in_unit_interval =
  QCheck.Test.make ~name:"duopoly market shares stay in [0, 1]" ~count:12
    QCheck.(pair (float_bound_inclusive 1.) (float_range 0.1 0.9))
    (fun (c, nu_frac) ->
      let cps = ensemble ~n:40 139 in
      let nu = nu_frac *. saturation cps in
      let cfg =
        Duopoly.config ~nu ~strategy_i:(Strategy.make ~kappa:1. ~c) ()
      in
      let eq = Duopoly.solve cfg cps in
      eq.Duopoly.m_i >= 0. && eq.Duopoly.m_i <= 1.)

let () =
  Alcotest.run "po_competition"
    [ ( "duopoly",
        [ quick "config validation" test_duopoly_config_validation;
          quick "symmetric neutral split" test_duopoly_symmetric_neutral_splits_evenly;
          quick "interior equalises surplus" test_duopoly_interior_equalises_surplus;
          quick "extreme price loses market" test_duopoly_extreme_price_loses_market;
          quick "moderate price keeps market" test_duopoly_moderate_price_keeps_market;
          quick "capacity share matters" test_duopoly_capacity_share_matters;
          slow "theorem 5" slow_test_duopoly_theorem5;
          quick "theorem 5 guard" test_duopoly_theorem5_requires_public_option;
          slow "best response matches oracle" slow_test_best_response_matches_oracle;
          quick "best response solve count" test_best_response_solve_count;
          prop prop_market_share_floor;
          prop prop_duopoly_share_in_unit_interval ] );
      ( "oligopoly",
        [ quick "config validation" test_oligopoly_config_validation;
          quick "lemma 4 neutral" test_oligopoly_lemma4_neutral;
          quick "lemma 4 non-neutral" test_oligopoly_lemma4_non_neutral;
          quick "lemma 4 guard" test_oligopoly_lemma4_rejects_heterogeneous;
          quick "shares sum to one" test_oligopoly_shares_sum_to_one;
          quick "equalises surplus" test_oligopoly_equalises_surplus;
          quick "hopeless ISP" test_oligopoly_hopeless_isp_gets_nothing;
          quick "over-provisioned" test_oligopoly_over_provisioned;
          slow "agrees with duopoly" slow_test_oligopoly_duopoly_agree ] );
      ( "migration",
        [ quick "init validation" test_migration_init_validation;
          slow "converges to equal surplus" test_migration_converges_to_equal_surplus;
          quick "shares normalised" test_migration_shares_stay_normalised;
          slow "continuous matches discrete" slow_test_migration_continuous_matches_discrete;
          quick "equalised is fixed point" test_migration_equalised_is_fixed_point ] );
      ( "metrics",
        [ quick "epsilon neutral" test_metrics_epsilon_neutral_is_zero;
          quick "epsilon non-neutral" test_metrics_epsilon_nonneutral_small;
          quick "alignment gap" test_metrics_alignment_gap;
          quick "psi curve" test_metrics_psi_curve ] );
      ( "regimes",
        [ slow "comparison and ordering" slow_test_regime_comparison;
          quick "ordering detects violation" test_check_ordering_detects_violation ] ) ]
