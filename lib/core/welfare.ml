open Po_model

type t = {
  consumer : float;
  isp : float;
  cp : float;
  total : float;
}

let zero = { consumer = 0.; isp = 0.; cp = 0.; total = 0. }

let add a b =
  { consumer = a.consumer +. b.consumer;
    isp = a.isp +. b.isp;
    cp = a.cp +. b.cp;
    total = a.total +. b.total }

let scale k a =
  { consumer = k *. a.consumer; isp = k *. a.isp; cp = k *. a.cp;
    total = k *. a.total }

let of_outcome cps (o : Cp_game.outcome) =
  if Array.length cps <> Array.length o.Cp_game.rho then
    invalid_arg "Welfare.of_outcome: CP array mismatch";
  let c = Strategy.c o.Cp_game.strategy in
  let cp_surplus = ref 0. in
  Array.iteri
    (fun i (cp : Cp.t) ->
      let price =
        if Partition.in_premium o.Cp_game.partition i then c else 0.
      in
      cp_surplus :=
        !cp_surplus +. ((cp.Cp.v -. price) *. cp.Cp.alpha *. o.Cp_game.rho.(i)))
    cps;
  let consumer = o.Cp_game.phi and isp = o.Cp_game.psi in
  { consumer; isp; cp = !cp_surplus; total = consumer +. isp +. !cp_surplus }

let of_duopoly cps (eq : Duopoly.equilibrium) =
  let m = eq.Duopoly.m_i in
  add
    (scale m (of_outcome cps eq.Duopoly.outcome_i))
    (scale (1. -. m) (of_outcome cps eq.Duopoly.outcome_j))

let of_oligopoly cps (eq : Oligopoly.equilibrium) =
  let acc = ref zero in
  Array.iteri
    (fun i outcome ->
      acc := add !acc (scale eq.Oligopoly.shares.(i) (of_outcome cps outcome)))
    eq.Oligopoly.outcomes;
  !acc

let regime_table ?pool ?(po_share = 0.5) ?(levels = 2) ?(points = 9) ~nu cps =
  let unregulated () =
    let _, outcome = Monopoly.optimal_strategy ~levels ~points ~nu cps in
    let outcome =
      Cp_game.ensure_converged ~context:[ ("regime", "unregulated") ] outcome
    in
    ("unregulated monopoly", of_outcome cps outcome)
  in
  let neutral () =
    let outcome =
      Cp_game.ensure_converged ~context:[ ("regime", "neutral") ]
        (Cp_game.solve ~nu ~strategy:Strategy.public_option cps)
    in
    ("network-neutral regulation", of_outcome cps outcome)
  in
  let public_option () =
    let cfg =
      Duopoly.config ~gamma_i:(1. -. po_share) ~nu
        ~strategy_i:Strategy.public_option ()
    in
    let _, eq = Duopoly.best_response_market_share ~levels ~points ~config:cfg cps in
    let eq =
      Duopoly.ensure_converged ~context:[ ("regime", "public_option") ] eq
    in
    (Printf.sprintf "public option (share %g)" po_share, of_duopoly cps eq)
  in
  (* The regimes are independent solves; evaluate them as three pool
     tasks, keeping the published order. *)
  Array.to_list
    (Po_par.Pool.maybe_map pool
       (fun regime -> regime ())
       [| unregulated; neutral; public_option |])

let pp fmt t =
  Format.fprintf fmt
    "@[<h>consumer %.4g + isp %.4g + cp %.4g = %.4g@]" t.consumer t.isp t.cp
    t.total
