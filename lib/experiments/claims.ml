open Po_core

type check = {
  claim : string;
  passed : bool;
  detail : string;
}

let of_result ~claim = function
  | Ok () -> { claim; passed = true; detail = "ok" }
  | Error detail -> { claim; passed = false; detail }

(* The claim audits are statements about equilibria, not about scale; a
   few hundred CPs keep them fast while preserving every regime. *)
let audit_ensemble params cap =
  let params = { params with Common.n_cps = min params.Common.n_cps cap } in
  (Common.ensemble params, Po_workload.Ensemble.saturation_nu (Common.ensemble params))

let theorem4 ?(params = Common.default_params) () =
  let cps, sat = audit_ensemble params 300 in
  let kappas = [| 0.; 0.25; 0.5; 0.75; 0.9 |] in
  let combos =
    [ (0.15 *. sat, 0.2); (0.15 *. sat, 0.5); (0.5 *. sat, 0.2);
      (0.5 *. sat, 0.5); (0.9 *. sat, 0.35) ]
  in
  let rec scan = function
    | [] -> Ok ()
    | (nu, c) :: rest -> (
        match Monopoly.check_theorem4 ~tol:1e-6 ~nu ~c ~kappas cps with
        | Ok () -> scan rest
        | Error _ as e -> e)
  in
  of_result ~claim:"Theorem 4: kappa=1 revenue-dominates" (scan combos)

let theorem5 ?(params = Common.default_params) () =
  let cps, sat = audit_ensemble params 120 in
  let cfg =
    Duopoly.config ~nu:(0.5 *. sat)
      ~strategy_i:(Strategy.make ~kappa:1. ~c:0.3)
      ()
  in
  let neutral_phi =
    (Cp_game.ensure_converged
       ~context:[ ("claim", "theorem5") ]
       (Cp_game.solve ~nu:(0.5 *. sat) ~strategy:Strategy.public_option cps))
      .Cp_game.phi
  in
  of_result
    ~claim:"Theorem 5: share-maximising strategy maximises Phi (duopoly)"
    (Duopoly.check_theorem5 ~tol:(0.03 *. neutral_phi) ~config:cfg cps)

let lemma4 ?(params = Common.default_params) () =
  let cps, sat = audit_ensemble params 200 in
  let cfg =
    Oligopoly.config ~nu:(0.5 *. sat)
      [| { Oligopoly.label = "a"; gamma = 0.5;
           strategy = Strategy.make ~kappa:0.4 ~c:0.35 };
         { Oligopoly.label = "b"; gamma = 0.3;
           strategy = Strategy.make ~kappa:0.4 ~c:0.35 };
         { Oligopoly.label = "c"; gamma = 0.2;
           strategy = Strategy.make ~kappa:0.4 ~c:0.35 } |]
  in
  of_result ~claim:"Lemma 4: homogeneous strategies give shares = gammas"
    (Oligopoly.check_lemma4 ~tol:0.02 cfg cps)

let theorem6 ?(params = Common.default_params) () =
  let cps, sat = audit_ensemble params 120 in
  let cfg =
    Oligopoly.config ~nu:(0.45 *. sat)
      [| { Oligopoly.label = "i"; gamma = 0.5;
           strategy = Strategy.public_option };
         { Oligopoly.label = "j"; gamma = 0.5;
           strategy = Strategy.make ~kappa:0.7 ~c:0.3 } |]
  in
  let audit = Oligopoly.theorem6_audit ~i:0 cfg cps in
  let eq =
    Po_guard.Po_error.with_context
      (fun () -> [ ("claim", "theorem6") ])
      (fun () -> Oligopoly.solve cfg cps)
  in
  let scale = Float.max eq.Oligopoly.phi_star 1e-9 in
  let slack = audit.Oligopoly.epsilon_rivals +. (0.05 *. scale) in
  let passed = audit.Oligopoly.phi_deficit <= slack in
  { claim = "Theorem 6: share best-response is eps-best for Phi";
    passed;
    detail =
      Printf.sprintf
        "phi_deficit=%.4g vs epsilon_rivals=%.4g (+5%% slack %.4g); \
         share_best=%s surplus_best=%s"
        audit.Oligopoly.phi_deficit audit.Oligopoly.epsilon_rivals slack
        (Strategy.to_string audit.Oligopoly.share_best)
        (Strategy.to_string audit.Oligopoly.surplus_best) }

let corollary1 ?(params = Common.default_params) () =
  (* A market-share Nash equilibrium (over a strategy menu) must also be
     a consumer-surplus eps-Nash equilibrium, with eps bounded by the
     rivals' Eq.-9 discontinuity plus solver slack. *)
  let cps, sat = audit_ensemble params 60 in
  let menu =
    Strategy.grid ~kappas:[| 0.; 0.6; 1. |] ~cs:[| 0.2; 0.5 |] ()
  in
  let cfg =
    Oligopoly.homogeneous ~nu:(0.5 *. sat) ~n:2
      ~strategy:Strategy.public_option ()
  in
  (* Dynamics still moving after [rounds] passes are no equilibrium to
     audit: they fail through the typed error channel, claim named. *)
  let rounds = 4 in
  let nash_cfg, nash_eq =
    Po_guard.Po_error.with_context
      (fun () -> [ ("claim", "corollary1") ])
      (fun () ->
        (* polint: allow R8 -- the converged flag is matched right here:
           false raises Non_convergence *)
        match Oligopoly.market_share_nash ~rounds ~strategies:menu cfg cps with
        | nash_cfg, nash_eq, true -> (nash_cfg, nash_eq)
        | _, _, false ->
            Po_guard.Po_error.fail
              ~context:[ ("stage", "market_share_nash") ]
              (Po_guard.Po_error.Non_convergence
                 { residual = Float.nan; iterations = rounds }))
  in
  let phi_star = nash_eq.Oligopoly.phi_star in
  let worst = ref 0. in
  Array.iteri
    (fun i _ ->
      Array.iter
        (fun s ->
          if not (Strategy.equal s nash_cfg.Oligopoly.isps.(i).Oligopoly.strategy)
          then begin
            let isps = Array.copy nash_cfg.Oligopoly.isps in
            isps.(i) <- { (isps.(i)) with Oligopoly.strategy = s };
            let eq' =
              Po_guard.Po_error.with_context
                (fun () -> [ ("claim", "corollary1") ])
                (fun () ->
                  Oligopoly.solve ~curve_points:90
                    { nash_cfg with Oligopoly.isps } cps)
            in
            worst := Float.max !worst (eq'.Oligopoly.phi_star -. phi_star)
          end)
        menu)
    nash_cfg.Oligopoly.isps;
  let slack = 0.08 *. Float.max phi_star 1e-9 in
  let passed = !worst <= slack in
  { claim = "Corollary 1: market-share Nash is a consumer-surplus eps-Nash";
    passed;
    detail =
      Printf.sprintf
        "largest Phi* gain from a unilateral deviation: %.4g (allowed \
         slack %.4g, Phi*=%.4g)"
        !worst slack phi_star }

let regime_ordering ?(params = Common.default_params) () =
  let cps, sat = audit_ensemble params 150 in
  (* The neutral >= unregulated leg of the ordering is the paper's
     abundant-capacity claim; at scarce capacity the paper itself notes
     price discrimination can help consumers (Sec. III-E). *)
  let nu = 0.85 *. sat in
  let results =
    List.map
      (fun r -> r.Public_option.result)
      (Public_option.compare_regimes ~nu ~levels:2 ~points:7 cps)
  in
  let detail =
    String.concat "; "
      (List.map
         (fun (r : Public_option.regime_result) ->
           Printf.sprintf "%s: Phi=%.4g" r.Public_option.label
             r.Public_option.phi)
         results)
  in
  match Public_option.check_ordering results with
  | Ok () ->
      { claim = "Regime ordering: Phi(PO) >= Phi(neutral) >= Phi(unreg)";
        passed = true; detail }
  | Error e ->
      { claim = "Regime ordering: Phi(PO) >= Phi(neutral) >= Phi(unreg)";
        passed = false; detail = detail ^ " | " ^ e }

let tcp_maxmin ?(params = Common.default_params) () =
  ignore params;
  let cps = Po_workload.Scenario.three_cp () in
  let report = Po_netsim.Validate.compare ~nu:2.5 cps in
  let passed = report.Po_netsim.Validate.max_relative_error < 0.25 in
  { claim = "AIMD simulation matches max-min model (3-CP, congested)";
    passed;
    detail =
      Printf.sprintf "max relative error %.3f, mean %.3f, utilization %.3f"
        report.Po_netsim.Validate.max_relative_error
        report.Po_netsim.Validate.mean_relative_error
        report.Po_netsim.Validate.utilization }

let all ?params () =
  Common.with_figure_scope "claims" (fun () ->
      [ theorem4 ?params (); theorem5 ?params (); lemma4 ?params ();
        theorem6 ?params (); corollary1 ?params (); regime_ordering ?params ();
        tcp_maxmin ?params () ])

let render checks =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "== Claim audits ==\n";
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "[%s] %s\n        %s\n"
           (if c.passed then "PASS" else "FAIL")
           c.claim c.detail))
    checks;
  Buffer.contents buf
