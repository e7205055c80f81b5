(* Tests for the ecosystem model (lib/model): demand families, CPs, the
   rate-equilibrium solver (Theorem 1 / Lemma 1), allocation mechanisms
   and the paper's axioms, and welfare accounting. *)

open Po_model

let quick name f = Alcotest.test_case name `Quick f
let prop t = QCheck_alcotest.to_alcotest t
let check_float = Alcotest.(check (float 1e-9))
let check_close tol = Alcotest.(check (float tol))

let three_cp () = Po_workload.Scenario.three_cp ()

let small_ensemble seed =
  Po_workload.Ensemble.paper_ensemble ~n:60 ~seed ()

(* ------------------------------------------------------------------ *)
(* Demand                                                             *)
(* ------------------------------------------------------------------ *)

let test_demand_exponential_shape () =
  let d = Demand.exponential ~beta:5. in
  check_float "full throughput" 1. (Demand.eval d 1.);
  check_float "zero throughput" 0. (Demand.eval d 0.);
  (* Paper: at beta = 5 a 10% throughput drop roughly halves demand. *)
  check_close 0.05 "half demand at omega = 0.9" 0.57 (Demand.eval d 0.9)

let test_demand_exponential_ordering () =
  let weak = Demand.exponential ~beta:0.1 in
  let strong = Demand.exponential ~beta:10. in
  List.iter
    (fun omega ->
      if Demand.eval strong omega > Demand.eval weak omega +. 1e-12 then
        Alcotest.failf "sensitive demand should be lower at omega=%g" omega)
    [ 0.1; 0.3; 0.5; 0.7; 0.9 ]

let test_demand_beta_zero_inelastic () =
  let d = Demand.exponential ~beta:0. in
  check_float "always 1" 1. (Demand.eval d 0.3)

let test_demand_clamps () =
  let d = Demand.linear in
  check_float "clamps above" 1. (Demand.eval d 7.);
  check_float "clamps below" 0. (Demand.eval d (-2.))

let test_demand_eval_throughput () =
  let d = Demand.linear in
  check_float "normalises by theta_hat" 0.5
    (Demand.eval_throughput d ~theta_hat:10. 5.)

let test_demand_families_satisfy_assumption1 () =
  List.iter
    (fun d ->
      match Demand.check_assumption1 d with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    [ Demand.exponential ~beta:0.5; Demand.exponential ~beta:10.;
      Demand.inelastic; Demand.linear; Demand.power ~gamma:2.;
      Demand.affine_floor ~floor:0.25 ]

let test_step_demand_fails_assumption1 () =
  match Demand.check_assumption1 (Demand.step ~threshold:0.5) with
  | Ok () -> Alcotest.fail "step demand should fail the continuity audit"
  | Error _ -> ()

let test_decreasing_custom_fails () =
  let bad = Demand.of_fun ~name:"bad" (fun omega -> 1. -. (0.5 *. omega)) in
  match Demand.check_assumption1 bad with
  | Ok () -> Alcotest.fail "decreasing demand should fail"
  | Error _ -> ()

let prop_exponential_monotone =
  QCheck.Test.make ~name:"exponential demand is non-decreasing" ~count:200
    QCheck.(triple (float_range 0. 10.) (float_bound_inclusive 1.) (float_bound_inclusive 1.))
    (fun (beta, w1, w2) ->
      let lo = Float.min w1 w2 and hi = Float.max w1 w2 in
      let d = Demand.exponential ~beta in
      Demand.eval d lo <= Demand.eval d hi +. 1e-12)

(* ------------------------------------------------------------------ *)
(* Cp                                                                 *)
(* ------------------------------------------------------------------ *)

let test_cp_validation () =
  let demand = Demand.inelastic in
  Alcotest.check_raises "alpha 0" (Invalid_argument "Cp.make: alpha outside (0, 1]")
    (fun () -> ignore (Cp.make ~id:0 ~alpha:0. ~theta_hat:1. ~demand ()));
  Alcotest.check_raises "alpha > 1" (Invalid_argument "Cp.make: alpha outside (0, 1]")
    (fun () -> ignore (Cp.make ~id:0 ~alpha:1.5 ~theta_hat:1. ~demand ()));
  Alcotest.check_raises "theta_hat 0" (Invalid_argument "Cp.make: theta_hat <= 0")
    (fun () -> ignore (Cp.make ~id:0 ~alpha:0.5 ~theta_hat:0. ~demand ()))

let test_cp_rho_caps () =
  let cp = Cp.google 0 in
  check_float "rho at cap" 1. (Cp.rho cp ~theta:5.);
  check_float "lambda_hat" 1. (Cp.lambda_hat_per_capita cp)

let test_cp_updates () =
  let cp = Cp.with_phi (Cp.with_v (Cp.google 0) 0.7) 0.2 in
  check_float "v" 0.7 cp.Cp.v;
  check_float "phi" 0.2 cp.Cp.phi

let test_archetypes_match_paper () =
  let g = Cp.google 0 and n = Cp.netflix 1 and s = Cp.skype 2 in
  check_float "google alpha" 1. g.Cp.alpha;
  check_float "google theta_hat" 1. g.Cp.theta_hat;
  check_float "netflix alpha" 0.3 n.Cp.alpha;
  check_float "netflix theta_hat" 10. n.Cp.theta_hat;
  check_float "skype alpha" 0.5 s.Cp.alpha;
  check_float "skype theta_hat" 3. s.Cp.theta_hat

(* ------------------------------------------------------------------ *)
(* Equilibrium (Theorem 1, Lemma 1)                                   *)
(* ------------------------------------------------------------------ *)

let test_equilibrium_unconstrained () =
  let cps = three_cp () in
  let sol = Equilibrium.solve ~nu:100. cps in
  Alcotest.(check bool) "not congested" false sol.Equilibrium.congested;
  Array.iteri
    (fun i (cp : Cp.t) ->
      check_float "theta = theta_hat" cp.Cp.theta_hat sol.Equilibrium.theta.(i))
    cps

let test_equilibrium_work_conservation () =
  let cps = three_cp () in
  List.iter
    (fun nu ->
      let sol = Equilibrium.solve ~nu cps in
      check_close 1e-6
        (Printf.sprintf "aggregate = nu at nu=%g" nu)
        nu sol.Equilibrium.per_capita_rate)
    [ 0.5; 1.; 2.; 3.; 5. ]

let test_equilibrium_zero_capacity () =
  let sol = Equilibrium.solve ~nu:0. (three_cp ()) in
  Array.iter (fun th -> check_float "zero throughput" 0. th) sol.Equilibrium.theta;
  Alcotest.(check bool) "congested" true sol.Equilibrium.congested

let test_equilibrium_empty_population () =
  let sol = Equilibrium.solve ~nu:5. [||] in
  check_float "no rate" 0. sol.Equilibrium.per_capita_rate

let test_equilibrium_matches_paper_fig3 () =
  (* At saturation (nu = 5.5) everyone is unconstrained. *)
  let cps = three_cp () in
  let sol = Equilibrium.solve ~nu:5.5 cps in
  check_close 1e-6 "google" 1. sol.Equilibrium.theta.(0);
  check_close 1e-3 "netflix" 10. sol.Equilibrium.theta.(1);
  check_close 1e-6 "skype" 3. sol.Equilibrium.theta.(2)

let test_equilibrium_demand_ordering () =
  (* The paper's Fig. 3 observation: google's demand recovers first, then
     skype, netflix last. *)
  let cps = three_cp () in
  let recovered i =
    let rec scan nu =
      if nu > 7. then 7.
      else if (Equilibrium.solve ~nu cps).Equilibrium.demand.(i) > 0.9 then nu
      else scan (nu +. 0.05)
    in
    scan 0.05
  in
  let g = recovered 0 and n = recovered 1 and s = recovered 2 in
  Alcotest.(check bool)
    (Printf.sprintf "google (%.2f) < skype (%.2f) < netflix (%.2f)" g s n)
    true
    (g < s && s < n)

let test_solve_absolute_scale_invariance () =
  let cps = three_cp () in
  let a = Alloc.solve_absolute Maxmin.mechanism ~m:100. ~mu:250. cps in
  let b = Alloc.solve_absolute Maxmin.mechanism ~m:4000. ~mu:10000. cps in
  Array.iteri
    (fun i th -> check_close 1e-9 "same theta" th b.Equilibrium.theta.(i))
    a.Equilibrium.theta

let prop_equilibrium_monotone_in_nu =
  QCheck.Test.make ~name:"theta is non-decreasing in nu (Lemma 1)" ~count:60
    QCheck.(pair (float_range 0.1 5.) (float_range 0.1 5.))
    (fun (nu1, nu2) ->
      let lo = Float.min nu1 nu2 and hi = Float.max nu1 nu2 in
      let cps = three_cp () in
      let a = Equilibrium.solve ~nu:lo cps in
      let b = Equilibrium.solve ~nu:hi cps in
      Array.for_all2
        (fun x y -> x <= y +. 1e-7)
        a.Equilibrium.theta b.Equilibrium.theta)

let prop_equilibrium_unique_from_any_ensemble =
  QCheck.Test.make
    ~name:"work conservation holds across random ensembles (Theorem 1)"
    ~count:40
    QCheck.(pair small_int (float_range 0.5 30.))
    (fun (seed, nu) ->
      let cps = small_ensemble seed in
      let sol = Equilibrium.solve ~nu cps in
      let saturation = Po_workload.Ensemble.saturation_nu cps in
      let expected = Float.min nu saturation in
      Float.abs (sol.Equilibrium.per_capita_rate -. expected)
      <= 1e-5 *. Float.max 1. expected)

(* ------------------------------------------------------------------ *)
(* Alloc axioms                                                       *)
(* ------------------------------------------------------------------ *)

let audit_nus = Po_num.Grid.linspace 0.2 8. 12

let test_maxmin_satisfies_axioms () =
  match Alloc.check_all Maxmin.mechanism ~nus:audit_nus (three_cp ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_axiom_checker_catches_violations () =
  (* A mechanism that over-allocates violates Axiom 1; one that wastes
     capacity violates Axiom 2. *)
  let greedy =
    { Alloc.name = "greedy";
      solve =
        (fun ~nu cps ->
          ignore nu;
          let n = Array.length cps in
          let theta = Array.map (fun (cp : Cp.t) -> 2. *. cp.Cp.theta_hat) cps in
          { Equilibrium.theta; demand = Array.make n 1.;
            rho = Array.copy theta; per_capita_rate = 0.; congested = false;
            cap = Float.infinity }) }
  in
  (match Alloc.check_axiom1 greedy ~nu:1. (three_cp ()) with
  | Ok () -> Alcotest.fail "axiom 1 violation not caught"
  | Error _ -> ());
  let lazy_mech =
    { Alloc.name = "lazy";
      solve =
        (fun ~nu cps ->
          ignore nu;
          let n = Array.length cps in
          { Equilibrium.theta = Array.make n 0.; demand = Array.make n 0.;
            rho = Array.make n 0.; per_capita_rate = 0.; congested = true;
            cap = 0. }) }
  in
  match Alloc.check_axiom2 lazy_mech ~nu:1. (three_cp ()) with
  | Ok () -> Alcotest.fail "axiom 2 violation not caught"
  | Error _ -> ()

let test_axiom3_checker_catches_nonmonotone () =
  (* Throughput that shrinks with capacity must be flagged. *)
  let perverse =
    { Alloc.name = "perverse";
      solve =
        (fun ~nu cps ->
          let n = Array.length cps in
          let theta = Array.make n (1. /. (1. +. nu)) in
          { Equilibrium.theta; demand = Array.make n 1.;
            rho = Array.copy theta; per_capita_rate = 0.; congested = true;
            cap = 0. }) }
  in
  match Alloc.check_axiom3 perverse ~nus:[| 1.; 2. |] (three_cp ()) with
  | Ok () -> Alcotest.fail "axiom 3 violation not caught"
  | Error _ -> ()

let prop_maxmin_axiom2_random =
  QCheck.Test.make ~name:"max-min work conservation on random ensembles"
    ~count:30
    QCheck.(pair small_int (float_range 0.2 20.))
    (fun (seed, nu) ->
      match Alloc.check_axiom2 Maxmin.mechanism ~nu (small_ensemble seed) with
      | Ok () -> true
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Surplus (Theorem 2)                                                *)
(* ------------------------------------------------------------------ *)

let priced () = Po_workload.Scenario.three_cp_priced ()

let test_surplus_formula () =
  let cps = priced () in
  let sol = Equilibrium.solve ~nu:10. cps in
  (* Unconstrained: Phi = sum phi alpha theta_hat. *)
  let expected =
    Array.fold_left
      (fun acc (cp : Cp.t) -> acc +. (cp.Cp.phi *. cp.Cp.alpha *. cp.Cp.theta_hat))
      0. cps
  in
  check_close 1e-6 "unconstrained Phi" expected (Surplus.consumer cps sol)

let test_surplus_monotone_theorem2 () =
  let cps = priced () in
  let prev = ref (-1.) in
  List.iter
    (fun nu ->
      let phi = Surplus.consumer_at ~nu cps in
      if phi < !prev -. 1e-9 then
        Alcotest.failf "Phi decreased at nu=%g" nu;
      prev := phi)
    [ 0.2; 0.5; 1.; 2.; 3.; 4.; 5.; 6. ]

let test_surplus_strictly_increasing_when_congested () =
  let cps = priced () in
  let a = Surplus.consumer_at ~nu:1. cps in
  let b = Surplus.consumer_at ~nu:2. cps in
  Alcotest.(check bool) "strict increase below saturation" true (b > a)

let test_isp_surplus () =
  let cps = priced () in
  let sol = Equilibrium.solve ~nu:10. cps in
  let expected = 0.5 *. sol.Equilibrium.per_capita_rate in
  check_close 1e-9 "Psi = c * carried" expected (Surplus.isp ~c:0.5 cps sol)

let test_cp_utilities_sign () =
  let cps = priced () in
  let sol = Equilibrium.solve ~nu:10. cps in
  let utilities = Surplus.cp_utilities ~c:0.6 cps sol in
  (* google v=0.8 > 0.6 gains; skype v=0.2 < 0.6 loses. *)
  Alcotest.(check bool) "google gains" true (utilities.(0) > 0.);
  Alcotest.(check bool) "skype loses" true (utilities.(2) < 0.)

let test_utilization () =
  let cps = priced () in
  let sol = Equilibrium.solve ~nu:2. cps in
  check_close 1e-6 "full when congested" 1. (Surplus.utilization ~nu:2. sol);
  let sol = Equilibrium.solve ~nu:100. cps in
  Alcotest.(check bool) "partial when unconstrained" true
    (Surplus.utilization ~nu:100. sol < 1.)

let test_surplus_alignment_guard () =
  let cps = priced () in
  let sol = Equilibrium.solve ~nu:2. cps in
  Alcotest.check_raises "mismatched arrays"
    (Invalid_argument "Surplus: solution does not match CP array") (fun () ->
      ignore (Surplus.consumer [| Cp.google 0 |] sol))

let prop_phi_nondecreasing_random =
  QCheck.Test.make
    ~name:"Phi non-decreasing in nu on random ensembles (Theorem 2)"
    ~count:30
    QCheck.(triple small_int (float_range 0.5 20.) (float_range 0.5 20.))
    (fun (seed, nu1, nu2) ->
      let lo = Float.min nu1 nu2 and hi = Float.max nu1 nu2 in
      let cps = small_ensemble seed in
      Surplus.consumer_at ~nu:lo cps
      <= Surplus.consumer_at ~nu:hi cps +. 1e-7)

let () =
  Alcotest.run "po_model"
    [ ( "demand",
        [ quick "exponential shape" test_demand_exponential_shape;
          quick "beta ordering" test_demand_exponential_ordering;
          quick "beta=0 inelastic" test_demand_beta_zero_inelastic;
          quick "clamps" test_demand_clamps;
          quick "eval_throughput" test_demand_eval_throughput;
          quick "families pass assumption 1" test_demand_families_satisfy_assumption1;
          quick "step fails assumption 1" test_step_demand_fails_assumption1;
          quick "decreasing custom fails" test_decreasing_custom_fails;
          prop prop_exponential_monotone ] );
      ( "cp",
        [ quick "validation" test_cp_validation;
          quick "rho caps" test_cp_rho_caps;
          quick "updates" test_cp_updates;
          quick "archetypes" test_archetypes_match_paper ] );
      ( "equilibrium",
        [ quick "unconstrained" test_equilibrium_unconstrained;
          quick "work conservation" test_equilibrium_work_conservation;
          quick "zero capacity" test_equilibrium_zero_capacity;
          quick "empty population" test_equilibrium_empty_population;
          quick "fig3 saturation" test_equilibrium_matches_paper_fig3;
          quick "fig3 demand ordering" test_equilibrium_demand_ordering;
          quick "scale invariance" test_solve_absolute_scale_invariance;
          prop prop_equilibrium_monotone_in_nu;
          prop prop_equilibrium_unique_from_any_ensemble ] );
      ( "alloc",
        [ quick "max-min axioms" test_maxmin_satisfies_axioms;
          quick "checker catches violations" test_axiom_checker_catches_violations;
          quick "checker catches non-monotone" test_axiom3_checker_catches_nonmonotone;
          prop prop_maxmin_axiom2_random ] );
      ( "surplus",
        [ quick "formula" test_surplus_formula;
          quick "monotone (Theorem 2)" test_surplus_monotone_theorem2;
          quick "strict under congestion" test_surplus_strictly_increasing_when_congested;
          quick "isp surplus" test_isp_surplus;
          quick "cp utilities sign" test_cp_utilities_sign;
          quick "utilization" test_utilization;
          quick "alignment guard" test_surplus_alignment_guard;
          prop prop_phi_nondecreasing_random ] ) ]
