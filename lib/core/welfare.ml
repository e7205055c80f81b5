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

let pp fmt t =
  Format.fprintf fmt
    "@[<h>consumer %.4g + isp %.4g + cp %.4g = %.4g@]" t.consumer t.isp t.cp
    t.total
