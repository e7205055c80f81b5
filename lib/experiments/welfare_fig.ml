open Po_core

let generate ?(params = Common.default_params) () =
  let params = { params with Common.n_cps = min params.Common.n_cps 150 } in
  let cps = Common.ensemble params in
  let sat = Po_workload.Ensemble.saturation_nu cps in
  let nu = 0.85 *. sat in
  let regimes =
    Array.of_list
      (Public_option.compare_regimes ?pool:(Common.pool params) ~levels:2
         ~points:7 ~nu cps)
  in
  (* Encode the regimes on an index axis: 1 = unregulated, 2 = neutral,
     3 = public option. *)
  let xs = Array.mapi (fun i _ -> float_of_int (i + 1)) regimes in
  let series proj label =
    Po_report.Series.make ~label ~xs
      ~ys:(Array.map (fun r -> proj r.Public_option.welfare) regimes)
  in
  let labels =
    List.mapi
      (fun i { Public_option.result; _ } ->
        Printf.sprintf "x=%d: %s" (i + 1) result.Public_option.label)
      (Array.to_list regimes)
  in
  { Common.id = "welfare";
    title = "Three-party welfare decomposition per regulatory regime";
    x_label = "regime";
    panels =
      [ ( "decomposition",
          [ series (fun w -> w.Welfare.consumer) "consumer";
            series (fun w -> w.Welfare.isp) "isp";
            series (fun w -> w.Welfare.cp) "cp";
            series (fun w -> w.Welfare.total) "total" ] ) ];
    notes =
      labels
      @ [ "the ISP's premium revenue is a transfer from CPs: total \
           welfare moves only through the allocation";
          "the public option regime recovers (nearly all of) the \
           neutral regime's consumer surplus while letting the \
           commercial ISP keep some CP-side revenue" ] }
