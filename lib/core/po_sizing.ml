type point = {
  po_share : float;
  commercial_strategy : Strategy.t;
  commercial_share : float;
  phi : float;
  psi_commercial : float;
}

let sweep ?pool ~levels ~points ~nu ~po_shares cps =
  Po_par.Pool.maybe_map pool
    (fun po_share ->
      if not (po_share > 0. && po_share < 1.) then
        invalid_arg "Po_sizing.sweep: share outside (0, 1)";
      let r = Public_option.public_option ~po_share ~levels ~points ~nu cps in
      (* The public-option regime always reports the commercial ISP's
         strategy and share. *)
      { po_share;
        commercial_strategy = Option.get r.Public_option.commercial_strategy;
        commercial_share = Option.get r.Public_option.market_share;
        phi = r.Public_option.phi;
        psi_commercial = r.Public_option.psi })
    po_shares

type effectiveness = {
  sweep : point array;
  phi_unregulated : float;
  phi_neutral : float;
  minimum_effective_share : float option;
}

let effectiveness ?pool ?(slack = 1e-3) ~levels ~points ~nu ~po_shares cps =
  let swept = sweep ?pool ~levels ~points ~nu ~po_shares cps in
  let unregulated = Public_option.unregulated ~levels ~points ~nu cps in
  let neutral = Public_option.neutral ~nu cps in
  let phi_neutral = neutral.Public_option.phi in
  let minimum_effective_share =
    Array.fold_left
      (fun acc p ->
        match acc with
        | Some _ -> acc
        | None ->
            if p.phi >= phi_neutral *. (1. -. slack) then Some p.po_share
            else None)
      None swept
  in
  { sweep = swept;
    phi_unregulated = unregulated.Public_option.phi;
    phi_neutral;
    minimum_effective_share }
