open Po_model

let generate ?(params = Common.default_params) () =
  (* Two decades of population growth above the configured scale, log
     spaced; quick params (120 CPs) top out at 12k, the paper's scale
     (1000) at 100k.  Capacity is anchored to each population's own
     saturation point so every size sits in the same congestion regime. *)
  let base = max 10 params.Common.n_cps in
  let sizes = [| base; 3 * base; 10 * base; 30 * base; 100 * base |] in
  let fracs = [| 0.3; 0.6 |] in
  let rows =
    Array.map
      (fun n ->
        let soa =
          Po_workload.Ensemble.paper_ensemble_soa ~n
            ?pool:(Common.pool params) ~seed:params.Common.seed ()
        in
        let sat = Cp_soa.saturation_nu soa in
        let fn = float_of_int n in
        Array.map
          (fun frac ->
            (* A solver failure at one population size must not
               masquerade as a figure-level crash without its scale
               attached. *)
            let sol =
              Po_guard.Po_error.with_context
                (fun () -> [ ("n", string_of_int n) ])
                (fun () -> Equilibrium.solve_soa ~nu:(frac *. sat) soa)
            in
            ( sol.Equilibrium.cap,
              sol.Equilibrium.per_capita_rate /. fn,
              Surplus.consumer_soa soa sol /. fn ))
          fracs)
      sizes
  in
  let xs = Array.map float_of_int sizes in
  let panel proj name =
    ( name,
      Array.to_list
        (Array.mapi
           (fun k frac ->
             Po_report.Series.make
               ~label:(Printf.sprintf "nu=%.1f*sat" frac)
               ~xs
               ~ys:(Array.map (fun row -> proj row.(k)) rows))
           fracs) )
  in
  { Common.id = "xl";
    title =
      "Scale tier: equilibrium cap, per-CP rate and surplus vs population \
       size (SoA solver)";
    x_label = "n (CPs, log spaced)";
    panels =
      [ panel (fun (cap, _, _) -> cap) "cap";
        panel (fun (_, rate, _) -> rate) "rate_per_cp";
        panel (fun (_, _, phi) -> phi) "Phi_per_cp" ];
    notes =
      [ "per-CP quantities self-average: the iid ensemble makes cap, \
         rate/n and Phi/n converge as n grows, so the paper's 1000-CP \
         evaluation is already near the large-population limit";
        "populations are nested prefixes of one split-stream draw \
         (DESIGN.md §12), so successive sizes differ only by the CPs \
         appended, not by resampling";
        "every point is a single cold SoA solve; the xl bench tier \
         (bench --xl) pins the O(n log n) cost of these solves up to \
         n = 10^6" ] }
