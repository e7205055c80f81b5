(* Structure-of-arrays CP population (DESIGN.md §12).

   One float column per attribute, all demands drawn from the
   exponential family d(omega) = exp (-beta (1/omega - 1)) parameterised
   by the [beta] column — the family every ensemble in the paper uses.
   Index [i] of every column describes the same CP, and the index
   doubles as the CP's identity (the record representation's [id]).

   The demand arithmetic below replicates {!Demand.exponential} and
   {!Cp.demand_at} operation for operation, so a column evaluation is
   bit-identical to the boxed-record path; test/test_soa.ml pins it. *)

type t = Soa_columns.t = {
  n : int;
  alpha : float array;
  theta_hat : float array;
  beta : float array;
  v : float array;
  phi : float array;
}

let length t = t.n

let make ~alpha ~theta_hat ~beta ~v ~phi =
  let n = Array.length alpha in
  if
    Array.length theta_hat <> n || Array.length beta <> n
    || Array.length v <> n || Array.length phi <> n
  then invalid_arg "Cp_soa.make: column length mismatch";
  for i = 0 to n - 1 do
    if not (alpha.(i) > 0. && alpha.(i) <= 1.) then
      invalid_arg "Cp_soa.make: alpha outside (0, 1]";
    if theta_hat.(i) <= 0. then invalid_arg "Cp_soa.make: theta_hat <= 0";
    if beta.(i) < 0. then invalid_arg "Cp_soa.make: beta < 0";
    if v.(i) < 0. then invalid_arg "Cp_soa.make: v < 0";
    if phi.(i) < 0. then invalid_arg "Cp_soa.make: phi < 0"
  done;
  { n; alpha; theta_hat; beta; v; phi }

let alpha t i = t.alpha.(i)
let theta_hat t i = t.theta_hat.(i)
let beta t i = t.beta.(i)
let v t i = t.v.(i)
let phi t i = t.phi.(i)

(* ------------------------------------------------------------------ *)
(* Record interop                                                     *)
(* ------------------------------------------------------------------ *)

let of_cps cps =
  let n = Array.length cps in
  let col f = Array.init n (fun i -> f cps.(i)) in
  let beta =
    Array.init n (fun i ->
        match Demand.beta cps.(i).Cp.demand with
        | Some b -> b
        | None ->
            invalid_arg
              (Printf.sprintf
                 "Cp_soa.of_cps: CP %d has non-exponential demand %s" i
                 (Demand.name cps.(i).Cp.demand)))
  in
  make
    ~alpha:(col (fun cp -> cp.Cp.alpha))
    ~theta_hat:(col (fun cp -> cp.Cp.theta_hat))
    ~beta
    ~v:(col (fun cp -> cp.Cp.v))
    ~phi:(col (fun cp -> cp.Cp.phi))

let get t i =
  if i < 0 || i >= t.n then invalid_arg "Cp_soa.get: index out of bounds";
  Cp.make ~id:i ~alpha:t.alpha.(i) ~theta_hat:t.theta_hat.(i)
    ~demand:(Demand.exponential ~beta:t.beta.(i))
    ~v:t.v.(i) ~phi:t.phi.(i) ()

let to_cps t = Array.init t.n (get t)

let concat parts =
  let n = Array.fold_left (fun acc p -> acc + p.n) 0 parts in
  let col f =
    let out = Array.make n 0. in
    let off = ref 0 in
    Array.iter
      (fun p ->
        Array.blit (f p) 0 out !off p.n;
        off := !off + p.n)
      parts;
    out
  in
  (* Parts were validated at construction. *)
  { n;
    alpha = col (fun p -> p.alpha);
    theta_hat = col (fun p -> p.theta_hat);
    beta = col (fun p -> p.beta);
    v = col (fun p -> p.v);
    phi = col (fun p -> p.phi) }

(* ------------------------------------------------------------------ *)
(* Demand evaluation (bit-identical to the record path)               *)
(* ------------------------------------------------------------------ *)

(* [Demand.exponential]'s curve, inlined: the operation sequence —
   clamp, reciprocal, cutoff, [exp] — is exactly the closure's, so the
   result bits match the record path on every input. *)
let demand_curve ~beta omega =
  let omega = if omega < 0. then 0. else if omega > 1. then 1. else omega in
  if omega <= 0. then if Float.equal beta 0. then 1. else 0.
  else begin
    let exponent = -.beta *. ((1. /. omega) -. 1.) in
    if exponent < -60. then 0. else exp exponent
  end

(* [Cp.cap_theta]: clamp a throughput into [0, theta_hat]. *)
let cap_theta t i theta =
  Float.min (Float.max theta 0.) t.theta_hat.(i)

let demand_at t i theta =
  demand_curve ~beta:t.beta.(i) (cap_theta t i theta /. t.theta_hat.(i))

let rho t i ~theta =
  let theta = cap_theta t i theta in
  demand_at t i theta *. theta

let lambda_per_capita t i ~theta = t.alpha.(i) *. rho t i ~theta
let lambda_hat_per_capita t i = t.alpha.(i) *. t.theta_hat.(i)

(* ------------------------------------------------------------------ *)
(* Population aggregates                                              *)
(* ------------------------------------------------------------------ *)

let saturation_nu t =
  let acc = ref 0. in
  for i = 0 to t.n - 1 do
    acc := !acc +. (t.alpha.(i) *. t.theta_hat.(i))
  done;
  !acc

let total_value t =
  let acc = ref 0. in
  for i = 0 to t.n - 1 do
    acc := !acc +. (t.phi.(i) *. t.alpha.(i) *. t.theta_hat.(i))
  done;
  !acc
