open Po_core

let generate ?(params = Common.default_params) () =
  let params = { params with Common.n_cps = min params.Common.n_cps 100 } in
  let cps = Common.ensemble params in
  let sat = Po_workload.Ensemble.saturation_nu cps in
  let nu = 0.85 *. sat in
  let menu =
    Strategy.grid
      ~kappas:[| 0.; 0.5; 1. |]
      ~cs:[| 0.1; 0.3; 0.6 |]
      ()
  in
  let counts = [| 1; 2; 3; 4 |] in
  let results =
    Array.map
      (fun n ->
        if n = 1 then begin
          (* A single unregulated ISP: pick the revenue-best strategy from
             the same menu so the comparison is apples to apples. *)
          let best =
            Array.fold_left
              (fun acc s ->
                let o = Cp_game.solve ~nu ~strategy:s cps in
                match acc with
                | Some (_, best_o)
                  when best_o.Cp_game.psi >= o.Cp_game.psi ->
                    acc
                | _ -> Some (s, o))
              None menu
          in
          match best with
          | Some (_, o) ->
              (* The winning outcome feeds the figure, so its converged
                 flag must hold — it used to be hard-coded true here. *)
              let o =
                Cp_game.ensure_converged
                  ~context:[ ("figure", "nisp"); ("isps", "1") ] o
              in
              (o.Cp_game.phi, o.Cp_game.converged)
          | None -> (0., false)
        end
        else begin
          let cfg =
            Oligopoly.homogeneous ~nu ~n ~strategy:Strategy.public_option ()
          in
          let _, eq, converged =
            Oligopoly.market_share_nash ~rounds:4 ~strategies:menu cfg cps
          in
          (eq.Oligopoly.phi_star, converged)
        end)
      counts
  in
  let xs = Array.map float_of_int counts in
  let neutral_phi =
    (Cp_game.ensure_converged
       ~context:[ ("figure", "nisp") ]
       (Cp_game.solve ~nu ~strategy:Strategy.public_option cps))
      .Cp_game.phi
  in
  { Common.id = "nisp";
    title = "Equilibrium consumer surplus vs number of competing ISPs";
    x_label = "isps";
    panels =
      [ ( "Phi",
          [ Po_report.Series.make ~label:"market-share Nash" ~xs
              ~ys:(Array.map fst results);
            Po_report.Series.make ~label:"full-neutral benchmark" ~xs
              ~ys:(Array.map (fun _ -> neutral_phi) xs) ] ) ];
    notes =
      ([ "n = 1 is the unregulated monopoly (menu-restricted optimum); \
          n >= 2 are market-share Nash equilibria via best-response \
          dynamics over the same strategy menu";
         "competition closes most of the gap to the neutral benchmark \
          without regulation — Sec. VI's 'more ISPs, less need for a \
          public option'" ]
      @ Array.to_list
          (Array.mapi
             (fun i (_, converged) ->
               Printf.sprintf "n=%d best-response dynamics %s" counts.(i)
                 (if converged then "converged" else "hit the round cap"))
             results)) }
