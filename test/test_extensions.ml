(* Tests for the extension modules: Public-Option sizing, welfare
   decomposition, investment incentives, consumer-side pricing
   (subsidies), the M/M/1 ablation, and the RED queue discipline. *)

open Po_core

let quick name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f
let check_close tol = Alcotest.(check (float tol))

let ensemble ?(n = 80) seed = Po_workload.Ensemble.paper_ensemble ~n ~seed ()
let saturation = Po_workload.Ensemble.saturation_nu

(* ------------------------------------------------------------------ *)
(* Po_sizing                                                          *)
(* ------------------------------------------------------------------ *)

let slow_test_sizing_small_share_effective () =
  let cps = ensemble ~n:60 7 in
  let nu = 0.85 *. saturation cps in
  let eff =
    Po_sizing.effectiveness ~levels:1 ~points:7 ~nu
      ~po_shares:[| 0.1; 0.3; 0.5 |] cps
  in
  (match eff.Po_sizing.minimum_effective_share with
  | Some share ->
      Alcotest.(check bool)
        (Printf.sprintf "a small share (%.2f) suffices" share)
        true (share <= 0.3)
  | None -> Alcotest.fail "no effective Public Option share found");
  (* Each equilibrium must beat the unregulated baseline. *)
  Array.iter
    (fun (p : Po_sizing.point) ->
      Alcotest.(check bool)
        (Printf.sprintf "PO share %.2f beats unregulated" p.Po_sizing.po_share)
        true
        (p.Po_sizing.phi >= eff.Po_sizing.phi_unregulated -. 1e-6))
    eff.Po_sizing.sweep

let test_sizing_rejects_bad_share () =
  let cps = ensemble 7 in
  Alcotest.check_raises "share out of range"
    (Invalid_argument "Po_sizing.sweep: share outside (0, 1)") (fun () ->
      ignore
        (Po_sizing.sweep ~levels:1 ~points:5 ~nu:10. ~po_shares:[| 1. |] cps))

(* ------------------------------------------------------------------ *)
(* Welfare                                                            *)
(* ------------------------------------------------------------------ *)

let test_welfare_components_sum () =
  let cps = ensemble 11 in
  let o =
    Cp_game.solve ~nu:(0.4 *. saturation cps)
      ~strategy:(Strategy.make ~kappa:0.6 ~c:0.3) cps
  in
  let w = Welfare.of_outcome cps o in
  check_close 1e-9 "total = parts" w.Welfare.total
    (w.Welfare.consumer +. w.Welfare.isp +. w.Welfare.cp)

let test_welfare_neutral_isp_zero () =
  let cps = ensemble 13 in
  let o =
    Cp_game.solve ~nu:(0.4 *. saturation cps)
      ~strategy:Strategy.public_option cps
  in
  let w = Welfare.of_outcome cps o in
  check_close 1e-9 "neutral ISP earns nothing" 0. w.Welfare.isp

let test_welfare_transfer_neutrality () =
  (* Fix the allocation (same partition, same rates): charging c shifts
     welfare from CPs to the ISP but leaves the total unchanged. *)
  let cps = ensemble 17 in
  let nu = 0.4 *. saturation cps in
  let strategy = Strategy.make ~kappa:0.6 ~c:0.3 in
  let o = Cp_game.solve ~nu ~strategy cps in
  let w = Welfare.of_outcome cps o in
  let free =
    Cp_game.outcome_of_partition ~nu
      ~strategy:(Strategy.make ~kappa:0.6 ~c:0.)
      cps o.Cp_game.partition
  in
  let w_free = Welfare.of_outcome cps free in
  check_close 1e-9 "same allocation, same total" w_free.Welfare.total
    w.Welfare.total;
  check_close 1e-9 "transfer equals the revenue"
    (w_free.Welfare.cp -. w.Welfare.cp)
    w.Welfare.isp

let test_welfare_arithmetic () =
  let a = { Welfare.consumer = 1.; isp = 2.; cp = 3.; total = 6. } in
  let b = Welfare.scale 2. a in
  check_close 1e-12 "scale" 12. b.Welfare.total;
  let c = Welfare.add a b in
  check_close 1e-12 "add" 18. c.Welfare.total

let slow_test_welfare_duopoly_weighting () =
  let cps = ensemble ~n:60 19 in
  let nu = 0.4 *. saturation cps in
  let cfg =
    Duopoly.config ~nu ~strategy_i:(Strategy.make ~kappa:1. ~c:0.3) ()
  in
  let eq = Duopoly.solve cfg cps in
  let w = Welfare.of_duopoly cps eq in
  check_close 1e-6 "consumer component matches population Phi"
    eq.Duopoly.phi w.Welfare.consumer;
  check_close 1e-6 "isp component matches population Psi"
    (eq.Duopoly.psi_i +. eq.Duopoly.psi_j)
    w.Welfare.isp

let test_welfare_regime_projections () =
  (* One regime comparison carries both projections, so each welfare row
     decomposes the very outcome its regime result reports. *)
  let cps = ensemble ~n:25 23 in
  let nu = 0.85 *. saturation cps in
  let regimes = Public_option.compare_regimes ~levels:1 ~points:5 ~nu cps in
  Alcotest.(check (list string)) "three rows in the published order"
    [ "unregulated monopoly"; "network-neutral regulation";
      "public option (share 0.5)" ]
    (List.map (fun r -> r.Public_option.result.Public_option.label) regimes);
  let bits = Int64.bits_of_float in
  List.iter
    (fun { Public_option.result = r; welfare = w } ->
      let label = r.Public_option.label in
      if String.starts_with ~prefix:"public option" label then
        check_close
          (1e-6 *. Float.max 1. (Float.abs r.Public_option.phi))
          (label ^ ": consumer = Phi") r.Public_option.phi w.Welfare.consumer
      else begin
        (* One Cp_game.outcome feeds both projections. *)
        Alcotest.(check int64) (label ^ ": consumer bits = Phi bits")
          (bits r.Public_option.phi) (bits w.Welfare.consumer);
        Alcotest.(check int64) (label ^ ": isp bits = Psi bits")
          (bits r.Public_option.psi) (bits w.Welfare.isp)
      end;
      Alcotest.(check bool) (label ^ ": components non-negative") true
        (w.Welfare.consumer >= 0. && w.Welfare.isp >= 0. && w.Welfare.cp >= 0.))
    regimes

(* ------------------------------------------------------------------ *)
(* Investment                                                         *)
(* ------------------------------------------------------------------ *)

let slow_test_investment_monopoly_saturation () =
  (* Choi-Kim price effect: the optimal premium price falls with capacity
     and the optimised revenue saturates — the marginal return of
     investment vanishes for the monopolist. *)
  let cps = ensemble ~n:100 29 in
  let sat = saturation cps in
  let curve =
    Investment.monopoly_revenue_curve ~levels:2 ~points:15
      ~nus:[| 0.3 *. sat; 0.6 *. sat; 1.2 *. sat |] cps
  in
  let price i = curve.(i).Investment.optimal_price in
  Alcotest.(check bool)
    (Printf.sprintf "optimal price falls (%.2f -> %.2f)" (price 0) (price 2))
    true
    (price 2 < price 0);
  Alcotest.(check bool) "early expansion pays" true
    (Investment.monopoly_expansion_profitable ~levels:2 ~points:15
       ~nu_lo:(0.3 *. sat) ~nu_hi:(0.6 *. sat) cps);
  Alcotest.(check bool) "late expansion no longer pays" false
    (Investment.monopoly_expansion_profitable ~levels:2 ~points:15
       ~nu_lo:(0.6 *. sat) ~nu_hi:(1.2 *. sat) cps)

let slow_test_investment_duopoly_decline () =
  (* Against a Public Option, ISP I's optimised revenue genuinely declines
     past its peak (the paper's Fig. 7 inversion). *)
  let cps = ensemble ~n:60 29 in
  let sat = saturation cps in
  let curve =
    Investment.duopoly_revenue_curve ~levels:1 ~points:9
      ~nus:[| 0.45 *. sat; 0.9 *. sat |] cps
  in
  Alcotest.(check bool)
    (Printf.sprintf "revenue declines with expansion (%.2f -> %.2f)"
       curve.(0).Investment.psi curve.(1).Investment.psi)
    true
    (curve.(1).Investment.psi < curve.(0).Investment.psi)

let slow_test_investment_competition_share () =
  let cps = ensemble ~n:60 31 in
  let curve =
    Investment.competition_share_curve ~nu:(0.5 *. saturation cps)
      ~gammas:[| 0.25; 0.5; 0.75 |] cps
  in
  Array.iter
    (fun (p : Investment.competition_point) ->
      check_close 0.02
        (Printf.sprintf "share tracks capacity at gamma=%g" p.Investment.gamma)
        p.Investment.gamma p.Investment.market_share)
    curve

(* ------------------------------------------------------------------ *)
(* Consumer-side pricing (Oligopoly ?prices)                          *)
(* ------------------------------------------------------------------ *)

let test_prices_shift_market () =
  (* Two identical neutral ISPs: a positive consumer price on ISP 0 must
     cost it market share; a symmetric price changes nothing. *)
  let cps = ensemble 37 in
  let cfg =
    Oligopoly.homogeneous ~nu:(0.4 *. saturation cps) ~n:2
      ~strategy:Strategy.public_option ()
  in
  let base = Oligopoly.solve cfg cps in
  check_close 1e-3 "symmetric baseline" 0.5 base.Oligopoly.shares.(0);
  let phi_scale = base.Oligopoly.phi_star in
  let taxed =
    Oligopoly.solve ~prices:[| 0.2 *. phi_scale; 0. |] cfg cps
  in
  Alcotest.(check bool)
    (Printf.sprintf "priced ISP loses share (%.3f < 0.5)"
       taxed.Oligopoly.shares.(0))
    true
    (taxed.Oligopoly.shares.(0) < 0.5 -. 0.02);
  let both =
    Oligopoly.solve ~prices:[| 0.1 *. phi_scale; 0.1 *. phi_scale |] cfg cps
  in
  check_close 0.02 "symmetric prices keep the split" 0.5
    both.Oligopoly.shares.(0)

let test_subsidy_attracts_consumers () =
  let cps = ensemble 41 in
  let cfg =
    Oligopoly.homogeneous ~nu:(0.4 *. saturation cps) ~n:2
      ~strategy:Strategy.public_option ()
  in
  let base = Oligopoly.solve cfg cps in
  let subsidised =
    Oligopoly.solve ~prices:[| -0.2 *. base.Oligopoly.phi_star; 0. |] cfg cps
  in
  Alcotest.(check bool)
    (Printf.sprintf "subsidised ISP gains share (%.3f > 0.5)"
       subsidised.Oligopoly.shares.(0))
    true
    (subsidised.Oligopoly.shares.(0) > 0.5 +. 0.02)

let test_prices_length_guard () =
  let cps = ensemble 43 in
  let cfg =
    Oligopoly.homogeneous ~nu:10. ~n:2 ~strategy:Strategy.public_option ()
  in
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Oligopoly.solve: prices length mismatch") (fun () ->
      ignore (Oligopoly.solve ~prices:[| 0. |] cfg cps))

(* ------------------------------------------------------------------ *)
(* M/M/1 ablation                                                     *)
(* ------------------------------------------------------------------ *)

let three_cp () = Po_workload.Scenario.three_cp_priced ()

let test_mm1_fixed_point_consistency () =
  let cps = three_cp () in
  let sol = Po_model.Mm1.solve ~nu:3. cps in
  (* lambda = offered load at the fixed-point quality. *)
  let offered =
    Array.to_list cps
    |> List.mapi (fun i (cp : Po_model.Cp.t) ->
           cp.Po_model.Cp.alpha *. sol.Po_model.Mm1.demand.(i)
           *. cp.Po_model.Cp.theta_hat)
    |> List.fold_left ( +. ) 0.
  in
  check_close 1e-6 "fixed point" offered sol.Po_model.Mm1.lambda;
  Alcotest.(check bool) "stable below capacity" true
    (sol.Po_model.Mm1.lambda < 3.);
  Alcotest.(check bool) "no collapse" false sol.Po_model.Mm1.collapse

let test_mm1_monotone_in_capacity () =
  let cps = three_cp () in
  let prev = ref (-1.) in
  List.iter
    (fun nu ->
      let phi =
        Po_model.Mm1.consumer_surplus cps (Po_model.Mm1.solve ~nu cps)
      in
      if phi < !prev -. 1e-9 then
        Alcotest.failf "M/M/1 welfare decreased at nu=%g" nu;
      prev := phi)
    [ 0.5; 1.; 2.; 4.; 8.; 16. ]

let test_mm1_collapse_with_inelastic_demand () =
  (* Fully inelastic users never back off: offered load above capacity
     means open-loop collapse. *)
  let cps =
    [| Po_model.Cp.make ~id:0 ~alpha:1. ~theta_hat:5.
         ~demand:Po_model.Demand.inelastic () |]
  in
  let sol = Po_model.Mm1.solve ~nu:2. cps in
  Alcotest.(check bool) "collapse flagged" true sol.Po_model.Mm1.collapse;
  Alcotest.(check bool) "infinite delay" true
    (Float.equal sol.Po_model.Mm1.delay Float.infinity)

let test_mm1_quality_bounds () =
  let cps = three_cp () in
  List.iter
    (fun nu ->
      let sol = Po_model.Mm1.solve ~nu cps in
      let q = sol.Po_model.Mm1.quality in
      if q < 0. || q > 1. then Alcotest.failf "quality %g outside [0,1]" q)
    [ 0.5; 2.; 10. ]

let test_mm1_validation () =
  Alcotest.check_raises "nu <= 0" (Invalid_argument "Mm1.solve: nu <= 0")
    (fun () -> ignore (Po_model.Mm1.solve ~nu:0. (three_cp ())))

(* ------------------------------------------------------------------ *)
(* RED                                                                *)
(* ------------------------------------------------------------------ *)

let red_policy =
  Po_netsim.Link.Red { min_th = 2.; max_th = 6.; max_p = 0.5; weight = 1. }

let test_red_validation () =
  Alcotest.check_raises "thresholds"
    (Invalid_argument "Link.create: RED thresholds must satisfy 0 < min < max")
    (fun () ->
      ignore
        (Po_netsim.Link.create
           ~policy:
             (Po_netsim.Link.Red
                { min_th = 5.; max_th = 5.; max_p = 0.5; weight = 1. })
           ~capacity:1. ~buffer:10 ()))

let test_red_early_drops () =
  let l =
    Po_netsim.Link.create ~policy:red_policy ~capacity:100. ~buffer:100 ()
  in
  (* Fill past max_th with weight 1 so the EWMA is the instantaneous
     occupancy; then a roll below max_p must early-drop. *)
  for i = 0 to 6 do
    ignore (Po_netsim.Link.offer ~drop_roll:1.0 l ~now:0. ~flow_id:i)
  done;
  (match Po_netsim.Link.offer ~drop_roll:0.0 l ~now:0. ~flow_id:9 with
  | Po_netsim.Link.Dropped -> ()
  | _ -> Alcotest.fail "expected an early drop above max_th");
  Alcotest.(check int) "early drop counted" 1 (Po_netsim.Link.early_drops l)

let test_red_accepts_below_min_th () =
  let l =
    Po_netsim.Link.create ~policy:red_policy ~capacity:100. ~buffer:100 ()
  in
  (match Po_netsim.Link.offer ~drop_roll:0.0 l ~now:0. ~flow_id:0 with
  | Po_netsim.Link.Accepted _ -> ()
  | Po_netsim.Link.Dropped -> Alcotest.fail "empty queue must accept");
  Alcotest.(check int) "no early drops" 0 (Po_netsim.Link.early_drops l)

let test_red_ramp_probabilistic () =
  let l =
    Po_netsim.Link.create ~policy:red_policy ~capacity:100. ~buffer:100 ()
  in
  (* Occupancy 4 = halfway up the ramp: p = 0.25. *)
  for i = 0 to 3 do
    ignore (Po_netsim.Link.offer ~drop_roll:1.0 l ~now:0. ~flow_id:i)
  done;
  (match Po_netsim.Link.offer ~drop_roll:0.2 l ~now:0. ~flow_id:8 with
  | Po_netsim.Link.Dropped -> ()
  | _ -> Alcotest.fail "roll below ramp probability must drop");
  match Po_netsim.Link.offer ~drop_roll:0.9 l ~now:0. ~flow_id:9 with
  | Po_netsim.Link.Accepted _ -> ()
  | Po_netsim.Link.Dropped -> Alcotest.fail "roll above ramp probability must accept"

let slow_test_red_simulation_matches_model () =
  let cps = Po_workload.Scenario.three_cp () in
  let r =
    Po_netsim.Validate.compare
      ~queue_policy:
        (Po_netsim.Link.Red
           { min_th = 15.; max_th = 90.; max_p = 0.1; weight = 0.02 })
      ~nu:2.5 cps
  in
  Alcotest.(check bool)
    (Printf.sprintf "max rel err %.3f < 0.3 under RED"
       r.Po_netsim.Validate.max_relative_error)
    true
    (r.Po_netsim.Validate.max_relative_error < 0.3)

let () =
  Alcotest.run "po_extensions"
    [ ( "po_sizing",
        [ slow "small share effective" slow_test_sizing_small_share_effective;
          quick "rejects bad share" test_sizing_rejects_bad_share ] );
      ( "welfare",
        [ quick "components sum" test_welfare_components_sum;
          quick "neutral isp zero" test_welfare_neutral_isp_zero;
          quick "transfer neutrality" test_welfare_transfer_neutrality;
          quick "arithmetic" test_welfare_arithmetic;
          slow "duopoly weighting" slow_test_welfare_duopoly_weighting;
          quick "regime projections" test_welfare_regime_projections ] );
      ( "investment",
        [ slow "monopoly saturation" slow_test_investment_monopoly_saturation;
          slow "duopoly decline" slow_test_investment_duopoly_decline;
          slow "competition share" slow_test_investment_competition_share ] );
      ( "consumer pricing",
        [ quick "prices shift market" test_prices_shift_market;
          quick "subsidy attracts" test_subsidy_attracts_consumers;
          quick "length guard" test_prices_length_guard ] );
      ( "mm1",
        [ quick "fixed point" test_mm1_fixed_point_consistency;
          quick "monotone in capacity" test_mm1_monotone_in_capacity;
          quick "collapse" test_mm1_collapse_with_inelastic_demand;
          quick "quality bounds" test_mm1_quality_bounds;
          quick "validation" test_mm1_validation ] );
      ( "red",
        [ quick "validation" test_red_validation;
          quick "early drops" test_red_early_drops;
          quick "accepts below min_th" test_red_accepts_below_min_th;
          quick "probabilistic ramp" test_red_ramp_probabilistic;
          slow "simulation matches model" slow_test_red_simulation_matches_model ] ) ]
