let check_aligned cps (sol : Equilibrium.solution) =
  if Array.length cps <> Array.length sol.Equilibrium.theta then
    invalid_arg "Surplus: solution does not match CP array"

let consumer cps sol =
  check_aligned cps sol;
  let acc = ref 0. in
  Array.iteri
    (fun i (cp : Cp.t) ->
      acc := !acc +. (cp.Cp.phi *. cp.Cp.alpha *. sol.Equilibrium.rho.(i)))
    cps;
  !acc

let consumer_soa soa sol =
  let n = Cp_soa.length soa in
  if n <> Array.length sol.Equilibrium.theta then
    invalid_arg "Surplus: solution does not match CP array";
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc :=
      !acc
      +. (Cp_soa.phi soa i *. Cp_soa.alpha soa i *. sol.Equilibrium.rho.(i))
  done;
  !acc

let consumer_at ~nu cps = consumer cps (Maxmin.solve ~nu cps)

let isp ~c cps sol =
  if c < 0. then invalid_arg "Surplus.isp: c < 0";
  check_aligned cps sol;
  let acc = ref 0. in
  Array.iteri
    (fun i (cp : Cp.t) ->
      acc := !acc +. (cp.Cp.alpha *. sol.Equilibrium.rho.(i)))
    cps;
  c *. !acc

let cp_utilities ~c cps sol =
  if c < 0. then invalid_arg "Surplus.cp_utilities: c < 0";
  check_aligned cps sol;
  Array.mapi
    (fun i (cp : Cp.t) ->
      (cp.Cp.v -. c) *. cp.Cp.alpha *. sol.Equilibrium.rho.(i))
    cps

let utilization ~nu sol =
  if nu < 0. then invalid_arg "Surplus.utilization: nu < 0";
  if Float.equal nu 0. then 1.
  else Float.min 1. (Float.max 0. (sol.Equilibrium.per_capita_rate /. nu))

let aggregate_rate cps sol =
  check_aligned cps sol;
  let acc = ref 0. in
  Array.iteri
    (fun i (cp : Cp.t) ->
      acc := !acc +. (cp.Cp.alpha *. sol.Equilibrium.rho.(i)))
    cps;
  !acc
