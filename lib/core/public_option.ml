type regime_result = {
  label : string;
  phi : float;
  psi : float;
  commercial_strategy : Strategy.t option;
  market_share : float option;
}

type regime = {
  result : regime_result;
  welfare : Welfare.t;
}

(* Each regime is solved by one function that projects the outcome it
   reports twice: the [regime_result] and its welfare decomposition. *)

let single_isp ~label ~strategy cps (outcome : Cp_game.outcome) =
  { result =
      { label; phi = outcome.Cp_game.phi; psi = outcome.Cp_game.psi;
        commercial_strategy = Some strategy; market_share = None };
    welfare = Welfare.of_outcome cps outcome }

let solve_unregulated ~levels ~points ~nu cps =
  let strategy, outcome = Monopoly.optimal_strategy ~levels ~points ~nu cps in
  single_isp ~label:"unregulated monopoly" ~strategy cps
    (Cp_game.ensure_converged ~context:[ ("regime", "unregulated") ] outcome)

let solve_neutral ~nu cps =
  single_isp ~label:"network-neutral regulation"
    ~strategy:Strategy.public_option cps
    (Cp_game.ensure_converged ~context:[ ("regime", "neutral") ]
       (Cp_game.solve ~nu ~strategy:Strategy.public_option cps))

let solve_public_option ~po_share ~levels ~points ~nu cps =
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
  { result =
      { label = Printf.sprintf "public option (share %g)" po_share;
        phi = eq.Duopoly.phi;
        psi = eq.Duopoly.psi_i;
        commercial_strategy = Some strategy;
        market_share = Some eq.Duopoly.m_i };
    welfare = Welfare.of_duopoly cps eq }

let unregulated ~levels ~points ~nu cps =
  (solve_unregulated ~levels ~points ~nu cps).result

let neutral ~nu cps = (solve_neutral ~nu cps).result

let public_option ?(po_share = 0.5) ~levels ~points ~nu cps =
  (solve_public_option ~po_share ~levels ~points ~nu cps).result

let compare_regimes ?pool ?budget ?(po_share = 0.5) ~levels ~points ~nu cps =
  (* The regimes are independent solves; evaluate them as three pool
     tasks, keeping the published order. *)
  Array.to_list
    (Po_par.Pool.maybe_map pool
       (fun solve ->
         Po_sup.Budget.check_opt budget;
         solve ())
       [| (fun () -> solve_unregulated ~levels ~points ~nu cps);
          (fun () -> solve_neutral ~nu cps);
          (fun () -> solve_public_option ~po_share ~levels ~points ~nu cps) |])

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
