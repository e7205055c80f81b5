type regime_result = {
  label : string;
  phi : float;
  psi : float;
  commercial_strategy : Strategy.t option;
  market_share : float option;
}

let unregulated ?(levels = 3) ?(points = 13) ~nu cps =
  let strategy, outcome = Monopoly.optimal_strategy ~levels ~points ~nu cps in
  let outcome =
    Cp_game.ensure_converged ~context:[ ("regime", "unregulated") ] outcome
  in
  { label = "unregulated monopoly";
    phi = outcome.Cp_game.phi;
    psi = outcome.Cp_game.psi;
    commercial_strategy = Some strategy;
    market_share = None }

let neutral ~nu cps =
  let outcome =
    Cp_game.ensure_converged ~context:[ ("regime", "neutral") ]
      (Cp_game.solve ~nu ~strategy:Strategy.public_option cps)
  in
  { label = "network-neutral regulation";
    phi = outcome.Cp_game.phi;
    psi = outcome.Cp_game.psi;
    commercial_strategy = Some Strategy.public_option;
    market_share = None }

let public_option ?(po_share = 0.5) ?(levels = 2) ?(points = 9) ~nu cps =
  if not (po_share > 0. && po_share < 1.) then
    invalid_arg "Public_option.public_option: po_share outside (0, 1)";
  let cfg =
    Duopoly.config ~gamma_i:(1. -. po_share) ~nu
      ~strategy_i:Strategy.public_option ()
  in
  let strategy, eq = Duopoly.best_response_market_share ~levels ~points ~config:cfg cps in
  let eq =
    Duopoly.ensure_converged ~context:[ ("regime", "public_option") ] eq
  in
  { label = Printf.sprintf "public option (share %g)" po_share;
    phi = eq.Duopoly.phi;
    psi = eq.Duopoly.psi_i;
    commercial_strategy = Some strategy;
    market_share = Some eq.Duopoly.m_i }

let compare_regimes ?po_share ?levels ?points ~nu cps =
  [ unregulated ?levels ?points ~nu cps;
    neutral ~nu cps;
    public_option ?po_share ?levels ?points ~nu cps ]

let check_ordering results =
  let find prefix =
    List.find_opt
      (fun r ->
        String.length r.label >= String.length prefix
        && String.sub r.label 0 (String.length prefix) = prefix)
      results
  in
  match (find "unregulated", find "network-neutral", find "public option") with
  | Some u, Some n, Some p ->
      let tol = 1e-6 +. (1e-3 *. Float.max 1. p.phi) in
      if p.phi < n.phi -. tol then
        Error
          (Printf.sprintf "public option Phi=%g below neutral Phi=%g" p.phi
             n.phi)
      else if n.phi < u.phi -. tol then
        Error
          (Printf.sprintf "neutral Phi=%g below unregulated Phi=%g" n.phi
             u.phi)
      else Ok ()
  | _ -> Error "check_ordering: missing regimes in input"
