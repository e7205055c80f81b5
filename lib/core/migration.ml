open Po_model

type state = {
  shares : float array;
  phis : float array;
  time : int;
}

let unconstrained_nu cps =
  Array.fold_left (fun acc cp -> acc +. Cp.lambda_hat_per_capita cp) 0. cps

let phis_at (config : Oligopoly.config) cps shares =
  let nu_sat = Float.max (unconstrained_nu cps) 1e-9 in
  let nu_big = (4. *. nu_sat) +. 1. in
  let market = Equilibrium.market cps in
  Array.mapi
    (fun i (isp : Oligopoly.isp) ->
      let nu_i =
        if shares.(i) <= 1e-12 then nu_big
        else Float.min nu_big (isp.Oligopoly.gamma *. config.Oligopoly.nu /. shares.(i))
      in
      (Cp_game.ensure_converged
         ~context:[ ("stage", "migration"); ("isp", isp.Oligopoly.label) ]
         (Cp_game.solve_market ~nu:nu_i ~strategy:isp.Oligopoly.strategy
            market))
        .Cp_game.phi)
    config.Oligopoly.isps

let init_with ~shares config cps =
  let n = Array.length config.Oligopoly.isps in
  if Array.length shares <> n then
    invalid_arg "Migration.init_with: shares length mismatch";
  Array.iter
    (fun m -> if m <= 0. then invalid_arg "Migration.init_with: share <= 0")
    shares;
  let total = Array.fold_left ( +. ) 0. shares in
  if Float.abs (total -. 1.) > 1e-9 then
    invalid_arg "Migration.init_with: shares must sum to 1";
  { shares = Array.copy shares; phis = phis_at config cps shares; time = 0 }

let init config cps =
  let shares =
    Array.map (fun (isp : Oligopoly.isp) -> isp.Oligopoly.gamma)
      config.Oligopoly.isps
  in
  init_with ~shares config cps

let step ?(eta = 0.5) config cps state =
  if eta <= 0. then invalid_arg "Migration.step: eta <= 0";
  let n = Array.length state.shares in
  let avg =
    let acc = ref 0. in
    for i = 0 to n - 1 do
      acc := !acc +. (state.shares.(i) *. state.phis.(i))
    done;
    !acc
  in
  let scale = Float.max (Array.fold_left Float.max 0. state.phis) 1e-12 in
  let updated =
    Array.mapi
      (fun i m ->
        let growth = 1. +. (eta *. (state.phis.(i) -. avg) /. scale) in
        Float.max 1e-6 (m *. Float.max 0. growth))
      state.shares
  in
  let total = Array.fold_left ( +. ) 0. updated in
  let shares = Array.map (fun m -> m /. total) updated in
  { shares; phis = phis_at config cps shares; time = state.time + 1 }

let surplus_spread state =
  if Array.length state.phis = 0 then 0.
  else
    Array.fold_left Float.max state.phis.(0) state.phis
    -. Array.fold_left Float.min state.phis.(0) state.phis

let run ?eta ?(tol = 1e-4) ?(max_steps = 500) config cps state =
  let scale st =
    Float.max (Array.fold_left Float.max 0. st.phis) 1e-12
  in
  let rec loop st steps =
    if surplus_spread st <= tol *. scale st then (st, true)
    else if steps >= max_steps then (st, false)
    else loop (step ?eta config cps st) (steps + 1)
  in
  loop state 0

let run_continuous ?(dt = 0.2) ?(tol = 1e-4) ?(max_steps = 2000) config cps
    state =
  let n = Array.length state.shares in
  let steps_taken = ref 0 in
  let derivative ~t:_ shares =
    let phis = phis_at config cps shares in
    let avg =
      let acc = ref 0. in
      for i = 0 to n - 1 do
        acc := !acc +. (shares.(i) *. phis.(i))
      done;
      !acc
    in
    let scale = Float.max (Array.fold_left Float.max 0. phis) 1e-12 in
    Array.mapi (fun i m -> m *. (phis.(i) -. avg) /. scale) shares
  in
  (* Keep the state strictly inside the simplex: an extinct ISP could
     never win consumers back, whereas real consumers re-evaluate. *)
  let renormalise shares =
    let floored = Array.map (Float.max 1e-6) shares in
    let total = Array.fold_left ( +. ) 0. floored in
    Array.map (fun m -> m /. total) floored
  in
  let stop shares =
    let phis = phis_at config cps shares in
    let spread =
      Array.fold_left Float.max phis.(0) phis
      -. Array.fold_left Float.min phis.(0) phis
    in
    incr steps_taken;
    spread <= tol *. Float.max (Array.fold_left Float.max 0. phis) 1e-12
  in
  let shares, converged =
    Po_num.Ode.integrate_until ~post:renormalise ~max_steps ~f:derivative ~dt
      ~stop state.shares
  in
  ( { shares; phis = phis_at config cps shares;
      time = state.time + !steps_taken },
    converged )
