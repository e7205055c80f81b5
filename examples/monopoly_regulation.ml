(* Monopoly analysis (paper Sec. III): sweep the monopolist's price, find
   its revenue-optimal strategy at scarce and abundant capacity, and show
   where regulation helps consumers.

   Run with: dune exec examples/monopoly_regulation.exe *)

open Po_core

let () =
  let cps = Po_workload.Ensemble.paper_ensemble ~n:400 ~seed:7 () in
  let saturation = Po_workload.Ensemble.saturation_nu cps in
  Format.printf "population: %d CPs, saturation nu = %.1f@."
    (Array.length cps) saturation;

  (* Price sweep at kappa = 1 (the dominant choice, Theorem 4). *)
  let nu_scarce = 0.15 *. saturation in
  let nu_abundant = 0.85 *. saturation in
  List.iter
    (fun (name, nu) ->
      Format.printf "@.price sweep at %s capacity (nu = %.1f):@." name nu;
      Format.printf "  %-6s %-10s %-10s %-9s %-6s@." "c" "Psi" "Phi"
        "premium" "util";
      let cs = Po_num.Grid.linspace 0. 1. 11 in
      Array.iter
        (fun (p : Monopoly.price_point) ->
          Format.printf "  %-6.2f %-10.3f %-10.3f %-9d %-6.2f@."
            p.Monopoly.c p.Monopoly.psi p.Monopoly.phi
            p.Monopoly.premium_count p.Monopoly.utilization)
        (Monopoly.price_sweep ~kappa:1. ~nu ~cs cps))
    [ ("scarce", nu_scarce); ("abundant", nu_abundant) ];

  (* The revenue-optimal strategy and what it does to consumers. *)
  let strategy, outcome = Monopoly.optimal_strategy ~nu:nu_abundant cps in
  Format.printf "@.revenue-optimal strategy at abundant capacity: %s@."
    (Strategy.to_string strategy);
  Format.printf "  Psi = %.3f, Phi = %.3f@." outcome.Cp_game.psi
    outcome.Cp_game.phi;

  (* Compare regulatory regimes, including a kappa cap (the Shetty-style
     tool the paper discusses) and the Public Option. *)
  Format.printf "@.regimes at abundant capacity:@.";
  List.iter
    (fun { Public_option.result = r; _ } ->
      Format.printf "  %-34s Phi = %8.3f  Psi = %8.3f%s@."
        r.Public_option.label r.Public_option.phi r.Public_option.psi
        (match r.Public_option.commercial_strategy with
        | Some s -> "  (plays " ^ Strategy.to_string s ^ ")"
        | None -> ""))
    (Public_option.compare_regimes ~nu:nu_abundant ~levels:2 ~points:9 cps);
  let capped = Monopoly.regime_outcome ~nu:nu_abundant (Monopoly.Capped 0.3) cps in
  Format.printf "  %-34s Phi = %8.3f  Psi = %8.3f@." "kappa capped at 0.3"
    capped.Cp_game.phi capped.Cp_game.psi
