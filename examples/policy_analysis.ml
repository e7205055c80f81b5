(* Policy analysis: the regulator's view.

   Combines the extension modules into the analysis a policy shop would
   actually run on a market: (1) compare the regulatory regimes on
   consumer surplus, (2) decompose welfare to see who pays, (3) size the
   Public Option, (4) check what competition alone would deliver.

   Run with: dune exec examples/policy_analysis.exe *)

open Po_core

let () =
  let cps = Po_workload.Ensemble.paper_ensemble ~n:100 ~seed:2026 () in
  let sat = Po_workload.Ensemble.saturation_nu cps in
  let nu = 0.85 *. sat in
  Format.printf
    "market: %d CPs, per-capita capacity %.1f (85%% of saturation — the \
     abundant regime where the monopoly misalignment bites)@."
    (Array.length cps) nu;

  (* 1. Who does each regime serve? *)
  Format.printf "@.[1] welfare decomposition per regime@.";
  Format.printf "    %-34s %10s %10s %10s %10s@." "regime" "consumer" "isp"
    "cp" "total";
  List.iter
    (fun { Public_option.result; welfare = w } ->
      Format.printf "    %-34s %10.3f %10.3f %10.3f %10.3f@."
        result.Public_option.label w.Welfare.consumer w.Welfare.isp
        w.Welfare.cp w.Welfare.total)
    (Public_option.compare_regimes ~levels:2 ~points:7 ~nu cps);

  (* 2. How much capacity must the Public Option control? *)
  Format.printf "@.[2] sizing the Public Option@.";
  let eff =
    Po_sizing.effectiveness ~levels:2 ~points:7 ~nu
      ~po_shares:[| 0.1; 0.3; 0.5 |] cps
  in
  Format.printf "    baselines: Phi(unregulated) = %.3f, Phi(neutral \
                 regulation) = %.3f@."
    eff.Po_sizing.phi_unregulated eff.Po_sizing.phi_neutral;
  Array.iter
    (fun (p : Po_sizing.point) ->
      Format.printf
        "    PO share %4.2f -> Phi = %8.3f  (commercial plays %s, keeps \
         %.0f%% of consumers)@."
        p.Po_sizing.po_share p.Po_sizing.phi
        (Strategy.to_string p.Po_sizing.commercial_strategy)
        (100. *. p.Po_sizing.commercial_share))
    eff.Po_sizing.sweep;
  (match eff.Po_sizing.minimum_effective_share with
  | Some share ->
      Format.printf
        "    => a %.0f%% public slice already beats full neutrality \
         regulation (the paper's Sec. VI conjecture)@."
        (100. *. share)
  | None -> Format.printf "    => no swept share sufficed (unexpected)@.");

  (* 3. Or just let more ISPs in? *)
  Format.printf "@.[3] competition instead of regulation@.";
  let menu =
    Strategy.grid ~kappas:[| 0.; 0.5; 1. |] ~cs:[| 0.1; 0.3; 0.6 |] ()
  in
  List.iter
    (fun n ->
      let cfg =
        Oligopoly.homogeneous ~nu ~n ~strategy:Strategy.public_option ()
      in
      let _, eq, converged =
        Oligopoly.market_share_nash ~rounds:3 ~strategies:menu cfg cps
      in
      Format.printf
        "    %d ISPs: market-share Nash Phi* = %8.3f%s@." n
        eq.Oligopoly.phi_star
        (if converged then "" else "  (dynamics hit the round cap)"))
    [ 2; 3 ];
  let neutral =
    (Cp_game.solve ~nu ~strategy:Strategy.public_option cps).Cp_game.phi
  in
  Format.printf "    full-neutral benchmark: %.3f@." neutral;

  (* 4. Subsidies: can a commercial ISP buy back the market? *)
  Format.printf "@.[4] consumer-side subsidy (Sec. VI discussion)@.";
  let cfg =
    Oligopoly.config ~nu
      [| { Oligopoly.label = "commercial"; gamma = 0.5;
           strategy = Strategy.make ~kappa:1. ~c:0.4 };
         { Oligopoly.label = "public-option"; gamma = 0.5;
           strategy = Strategy.public_option } |]
  in
  let base = Oligopoly.solve cfg cps in
  Format.printf "    no subsidy:     commercial share %.3f (Phi* = %.3f)@."
    base.Oligopoly.shares.(0) base.Oligopoly.phi_star;
  List.iter
    (fun frac ->
      let subsidy = frac *. base.Oligopoly.phi_star in
      let eq = Oligopoly.solve ~prices:[| -.subsidy; 0. |] cfg cps in
      Format.printf "    subsidy %6.2f: commercial share %.3f@." subsidy
        eq.Oligopoly.shares.(0))
    [ 0.1; 0.3; 0.6 ];
  Format.printf
    "    a deep enough consumer-side subsidy funded by CP-side revenue \
     buys the market back even for a consumer-hostile strategy — the \
     regulatory watch-point Sec. VI raises@."
