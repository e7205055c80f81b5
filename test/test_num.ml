(* Unit and property tests for the numerics substrate (lib/num). *)

open Po_num

let check_float = Alcotest.(check (float 1e-9))
let check_close tol = Alcotest.(check (float tol))

(* ------------------------------------------------------------------ *)
(* Roots                                                              *)
(* ------------------------------------------------------------------ *)

let test_bisect_linear () =
  let r = Roots.bisect ~f:(fun x -> x -. 3.) ~lo:0. ~hi:10. () in
  Alcotest.(check bool) "converged" true r.Roots.converged;
  check_float "root" 3. r.Roots.root

let test_bisect_cubic () =
  let r = Roots.bisect ~f:(fun x -> (x ** 3.) -. 2.) ~lo:0. ~hi:2. () in
  check_close 1e-8 "cube root of 2" (2. ** (1. /. 3.)) r.Roots.root

let test_bisect_endpoint_root () =
  let r = Roots.bisect ~f:(fun x -> x) ~lo:0. ~hi:1. () in
  check_float "root at endpoint" 0. r.Roots.root

let test_bisect_no_bracket () =
  Alcotest.check_raises "same sign raises"
    (Roots.No_bracket "Roots.bisect: f(0)=1 and f(1)=2 have same sign")
    (fun () -> ignore (Roots.bisect ~f:(fun x -> x +. 1.) ~lo:0. ~hi:1. ()))

let test_bisect_discontinuous () =
  (* Sign change across a jump: bisection still localises it. *)
  let f x = if x < Float.pi then -1. else 1. in
  let r = Roots.bisect ~f ~lo:0. ~hi:10. () in
  check_close 1e-8 "jump location" Float.pi r.Roots.root

let test_brent_polynomial () =
  let f x = ((x -. 1.) *. (x -. 4.)) +. 0.5 in
  let r = Roots.brent ~f ~lo:0. ~hi:2. () in
  Alcotest.(check bool) "converged" true r.Roots.converged;
  check_close 1e-8 "residual small" 0. r.Roots.value

let test_brent_matches_bisect () =
  let f x = exp x -. 5. in
  let b = Roots.bisect ~tol:1e-12 ~f ~lo:0. ~hi:3. () in
  let br = Roots.brent ~tol:1e-12 ~f ~lo:0. ~hi:3. () in
  check_close 1e-9 "same root" b.Roots.root br.Roots.root

let test_brent_fewer_evals () =
  let count = ref 0 in
  let f x =
    incr count;
    (x *. x) -. 2.
  in
  ignore (Roots.brent ~tol:1e-12 ~f ~lo:0. ~hi:2. ());
  let brent_evals = !count in
  count := 0;
  ignore (Roots.bisect ~tol:1e-12 ~f ~lo:0. ~hi:2. ());
  Alcotest.(check bool)
    (Printf.sprintf "brent (%d) cheaper than bisect (%d)" brent_evals !count)
    true
    (brent_evals < !count)

let test_monotone_level_interior () =
  let r =
    Roots.find_monotone_level ~f:sqrt ~level:2. ~lo:0. ~hi:100. ()
  in
  check_close 1e-8 "sqrt x = 2" 4. r.Roots.root

let test_monotone_level_clamps () =
  let f x = x in
  let low = Roots.find_monotone_level ~f ~level:(-1.) ~lo:0. ~hi:1. () in
  check_float "clamps below" 0. low.Roots.root;
  let high = Roots.find_monotone_level ~f ~level:5. ~lo:0. ~hi:1. () in
  check_float "clamps above" 1. high.Roots.root

let prop_monotone_level_solves =
  QCheck.Test.make ~name:"find_monotone_level solves monotone equations"
    ~count:200
    QCheck.(pair (float_bound_exclusive 1.) (float_bound_exclusive 10.))
    (fun (a, b) ->
      let a = a +. 0.1 and b = b +. 0.1 in
      let f x = (a *. x) +. (x ** 3.) in
      let level = f b *. 0.5 in
      let r = Roots.find_monotone_level ~f ~level ~lo:0. ~hi:b () in
      Float.abs (f r.Roots.root -. level) < 1e-6 *. (1. +. level))

(* Brent handed the endpoint values it would compute itself returns the
   same outcome bit for bit, with two fewer calls of [f] (none fewer when
   it stops at an endpoint root before any iteration). *)
let prop_brent_known_endpoints =
  QCheck.Test.make ~name:"brent ~f_lo ~f_hi equals plain brent" ~count:300
    QCheck.(
      quad (float_range 0.1 5.) (float_range (-3.) 3.) (float_range 0. 4.)
        (float_range 0.01 6.))
    (fun (a, r, lo_off, width) ->
      let calls = ref 0 in
      let f x =
        incr calls;
        (a *. (x -. r)) +. (0.3 *. Float.sin (x -. r) *. (x -. r))
      in
      let lo = r -. lo_off and hi = r -. lo_off +. width in
      let run ?f_lo ?f_hi () =
        try Some (Roots.brent ?f_lo ?f_hi ~f ~lo ~hi ())
        with Roots.No_bracket _ -> None
      in
      let plain = run () in
      let plain_calls = !calls in
      let f_lo = f lo and f_hi = f hi in
      calls := 0;
      let known = run ~f_lo ~f_hi () in
      let same (p : Roots.outcome) (k : Roots.outcome) =
        Int64.equal (Int64.bits_of_float p.Roots.root)
          (Int64.bits_of_float k.Roots.root)
        && Int64.equal (Int64.bits_of_float p.Roots.value)
             (Int64.bits_of_float k.Roots.value)
        && p.Roots.iterations = k.Roots.iterations
        && Bool.equal p.Roots.converged k.Roots.converged
      in
      match (plain, known) with
      | None, None -> !calls = 0 && plain_calls = 2
      | Some p, Some k -> same p k && !calls = plain_calls - 2
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Grid                                                               *)
(* ------------------------------------------------------------------ *)

let test_linspace_basic () =
  let g = Grid.linspace 0. 1. 5 in
  Alcotest.(check int) "length" 5 (Array.length g);
  check_float "first" 0. g.(0);
  check_float "last" 1. g.(4);
  check_float "middle" 0.5 g.(2)

let test_linspace_single () =
  let g = Grid.linspace 7. 9. 1 in
  Alcotest.(check int) "length" 1 (Array.length g);
  check_float "value" 7. g.(0)

let test_linspace_exact_endpoint () =
  let g = Grid.linspace 0. 0.3 7 in
  check_float "endpoint exact" 0.3 g.(6)

let test_logspace () =
  let g = Grid.logspace 1. 100. 3 in
  check_close 1e-9 "geometric middle" 10. g.(1)

let test_logspace_rejects_nonpositive () =
  Alcotest.check_raises "rejects 0"
    (Invalid_argument "Grid.logspace: bounds must be > 0") (fun () ->
      ignore (Grid.logspace 0. 1. 3))

let test_arange () =
  let g = Grid.arange 0. 1. 0.25 in
  Alcotest.(check int) "length" 4 (Array.length g);
  check_float "last below stop" 0.75 g.(3)

let test_midpoints () =
  let m = Grid.midpoints [| 0.; 2.; 6. |] in
  Alcotest.(check int) "length" 2 (Array.length m);
  check_float "first" 1. m.(0);
  check_float "second" 4. m.(1)

let test_index_of_nearest () =
  let g = [| 0.; 1.; 2.; 3. |] in
  Alcotest.(check int) "nearest to 1.4" 1 (Grid.index_of_nearest g 1.4);
  Alcotest.(check int) "nearest to -5" 0 (Grid.index_of_nearest g (-5.));
  Alcotest.(check int) "tie goes low" 0 (Grid.index_of_nearest g 0.5)

let prop_linspace_monotone =
  QCheck.Test.make ~name:"linspace is strictly increasing" ~count:100
    QCheck.(pair (float_range (-100.) 100.) (int_range 2 50))
    (fun (a, n) ->
      let g = Grid.linspace a (a +. 10.) n in
      let ok = ref true in
      for i = 1 to n - 1 do
        if g.(i) <= g.(i - 1) then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Optimize                                                           *)
(* ------------------------------------------------------------------ *)

let test_refine_grid_max () =
  let f x = -.((x -. 0.137) ** 2.) in
  let r = Optimize.refine_grid_max ~levels:5 ~f ~lo:0. ~hi:1. () in
  check_close 1e-4 "refined argmax" 0.137 r.Optimize.x

let test_refine_grid_max_discontinuous () =
  (* A step objective: refinement still finds the top shelf. *)
  let f x = if x > 0.8 then 2. else if x > 0.3 then 1. else 0. in
  let r = Optimize.refine_grid_max ~f ~lo:0. ~hi:1. () in
  check_float "top shelf value" 2. r.Optimize.fx

let test_refine_grid_max2 () =
  let f x y = -.((x -. 0.3) ** 2.) -. ((y -. 0.7) ** 2.) in
  let r =
    Optimize.refine_grid_max2 ~levels:4 ~f ~lo1:0. ~hi1:1. ~lo2:0. ~hi2:1. ()
  in
  check_close 1e-3 "x" 0.3 r.Optimize.x1;
  check_close 1e-3 "y" 0.7 r.Optimize.x2

(* Every distinct grid point is evaluated once: a refinement costs
   levels x points^d calls. *)
let test_grid_call_counts () =
  let calls = ref 0 in
  let f1 x = incr calls; -.((x -. 0.37) ** 2.) in
  let f2 x y = incr calls; -.((x -. 0.3) ** 2.) -. ((y -. 0.7) ** 2.) in
  let count name expected run =
    calls := 0;
    ignore (run ());
    Alcotest.(check int) name expected !calls
  in
  count "refine_grid_max2 levels 2 points 9" 162 (fun () ->
      Optimize.refine_grid_max2 ~levels:2 ~points:9 ~f:f2 ~lo1:0. ~hi1:1.
        ~lo2:0. ~hi2:1. ());
  count "refine_grid_max2 levels 3 points 13" 507 (fun () ->
      Optimize.refine_grid_max2 ~levels:3 ~points:13 ~f:f2 ~lo1:0. ~hi1:1.
        ~lo2:0. ~hi2:2. ());
  count "refine_grid_max levels 3 points 41" 123 (fun () ->
      Optimize.refine_grid_max ~levels:3 ~points:41 ~f:f1 ~lo:0. ~hi:1. ())

(* On a plateau the first maximiser in scan order wins, and a later
   level's equal value does not displace it. *)
let test_refine_grid_max2_first_tie () =
  let r =
    Optimize.refine_grid_max2 ~levels:3 ~points:9
      ~f:(fun x _ -> if x >= 0.5 then 1. else 0.)
      ~lo1:0. ~hi1:1. ~lo2:0. ~hi2:1. ()
  in
  check_float "first x on the plateau" 0.5 r.Optimize.x1;
  check_float "first y" 0. r.Optimize.x2

(* The floor contract: an objective that answers anything <= floor for
   the points that cannot beat it yields the exact objective's point and
   value, bit for bit.  The objective has few levels, so ties abound, and
   the stand-in answer varies between the floor itself, just below it,
   and [neg_infinity]. *)
let prop_floor_contract =
  QCheck.Test.make ~name:"refine_grid_max2_floor keeps the exact answer"
    ~count:200
    QCheck.(triple small_nat (int_range 1 3) (int_range 3 9))
    (fun (seed, levels, points) ->
      let exact x y =
        Float.of_int
          (((truncate (x *. 997.) * 31) + (truncate (y *. 991.) * 17) + seed)
           mod 5)
      in
      let calls = ref 0 in
      let pruned ~floor x y =
        incr calls;
        let v = exact x y in
        if v > floor then v
        else
          match (!calls + seed) mod 3 with
          | 0 -> floor
          | 1 -> floor -. 1.
          | _ -> neg_infinity
      in
      let a =
        Optimize.refine_grid_max2 ~levels ~points ~f:exact ~lo1:0. ~hi1:1.
          ~lo2:0. ~hi2:2. ()
      in
      let b =
        Optimize.refine_grid_max2_floor ~levels ~points ~f:pruned ~lo1:0.
          ~hi1:1. ~lo2:0. ~hi2:2. ()
      in
      let bits = Int64.bits_of_float in
      Int64.equal (bits a.Optimize.x1) (bits b.Optimize.x1)
      && Int64.equal (bits a.Optimize.x2) (bits b.Optimize.x2)
      && Int64.equal (bits a.Optimize.f12) (bits b.Optimize.f12))

(* ------------------------------------------------------------------ *)
(* Stats                                                              *)
(* ------------------------------------------------------------------ *)

let test_mean_variance () =
  let xs = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check_float "mean" 5. (Stats.mean xs);
  check_close 1e-9 "sample variance" (32. /. 7.) (Stats.variance xs)

let test_variance_degenerate () =
  check_float "single sample" 0. (Stats.variance [| 42. |]);
  check_float "empty" 0. (Stats.variance [||])

let test_quantiles () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  check_float "median interpolates" 2.5 (Stats.median xs);
  check_float "q0" 1. (Stats.quantile xs 0.);
  check_float "q1" 4. (Stats.quantile xs 1.);
  check_float "q25" 1.75 (Stats.quantile xs 0.25)

(* Regression for the polint R1 fix: quantile sorts with Float.compare,
   which totally orders nan (first), so quantiles of data containing nan
   are a function of the multiset alone, not of the input order.  The
   old polymorphic-compare sort gave order-dependent answers on nan. *)
let test_quantile_nan_order_independent () =
  let a = [| Float.nan; 3.; 1.; 2. |] in
  let b = [| 3.; 2.; Float.nan; 1. |] in
  let c = [| 1.; Float.nan; 2.; 3. |] in
  (* nan sorts first: sorted = [nan; 1; 2; 3], median = (1 + 2) / 2. *)
  check_float "median of shuffle a" 1.5 (Stats.median a);
  check_float "median of shuffle b" 1.5 (Stats.median b);
  check_float "median of shuffle c" 1.5 (Stats.median c);
  check_float "q1 unaffected by leading nan" 3. (Stats.quantile a 1.);
  check_float "nan-free data unchanged" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |])

let test_summarize () =
  let s = Stats.summarize [| 3.; 1.; 2. |] in
  Alcotest.(check int) "n" 3 s.Stats.n;
  check_float "min" 1. s.Stats.min;
  check_float "max" 3. s.Stats.max;
  check_float "median" 2. s.Stats.median

let test_pearson () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  check_close 1e-9 "perfect correlation" 1.
    (Stats.pearson xs (Array.map (fun x -> (2. *. x) +. 1.) xs));
  check_close 1e-9 "perfect anticorrelation" (-1.)
    (Stats.pearson xs (Array.map (fun x -> -.x) xs));
  check_float "constant series" 0. (Stats.pearson xs [| 1.; 1.; 1.; 1. |])

let test_weighted_mean () =
  check_float "weighted" 2.75
    (Stats.weighted_mean ~values:[| 2.; 5. |] ~weights:[| 3.; 1. |])

let test_max_downward_gap () =
  check_float "monotone has none" 0. (Stats.max_downward_gap [| 1.; 2.; 3. |]);
  check_float "single drop" 2. (Stats.max_downward_gap [| 1.; 3.; 1.; 4. |]);
  check_float "drop from running max" 4.
    (Stats.max_downward_gap [| 5.; 2.; 1.; 6. |]);
  check_float "short array" 0. (Stats.max_downward_gap [| 1. |])

let prop_quantile_bounds =
  QCheck.Test.make ~name:"quantiles lie within [min, max]" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 30) (float_range (-50.) 50.)) (float_bound_inclusive 1.))
    (fun (l, q) ->
      let xs = Array.of_list l in
      let v = Stats.quantile xs q in
      v >= Stats.min xs -. 1e-9 && v <= Stats.max xs +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Ode                                                                *)
(* ------------------------------------------------------------------ *)

let test_ode_exponential_decay () =
  (* y' = -y, y(0) = 1: y(1) = 1/e.  RK4 at dt = 0.1 is accurate to
     ~1e-6. *)
  let f ~t:_ y = [| -.y.(0) |] in
  let y = Ode.integrate_to ~f ~t0:0. ~t1:1. ~steps:10 [| 1. |] in
  check_close 1e-6 "1/e" (exp (-1.)) y.(0)

let test_ode_harmonic_oscillator () =
  (* (x, v)' = (v, -x): energy x^2 + v^2 is conserved; x(2pi) = x(0). *)
  let f ~t:_ y = [| y.(1); -.y.(0) |] in
  let y =
    Ode.integrate_to ~f ~t0:0. ~t1:(2. *. Float.pi) ~steps:200 [| 1.; 0. |]
  in
  check_close 1e-4 "period closes in x" 1. y.(0);
  check_close 1e-4 "period closes in v" 0. y.(1)

let test_ode_trajectory_shape () =
  let f ~t:_ y = [| 1. +. (0. *. y.(0)) |] in
  let traj = Ode.integrate ~f ~t0:0. ~t1:1. ~steps:4 ~y0:[| 0. |] in
  Alcotest.(check int) "steps + 1 samples" 5 (Array.length traj);
  let t_last, y_last = traj.(4) in
  check_close 1e-12 "final time" 1. t_last;
  check_close 1e-9 "integrates dy = dt" 1. y_last.(0)

let test_ode_post_applied () =
  (* Renormalisation after every step keeps the state on the simplex even
     though the raw dynamics drift off it. *)
  let f ~t:_ y = Array.map (fun _ -> 1.) y in
  let post y =
    let total = Array.fold_left ( +. ) 0. y in
    Array.map (fun v -> v /. total) y
  in
  let y = Ode.integrate_to ~post ~f ~t0:0. ~t1:1. ~steps:7 [| 0.2; 0.8 |] in
  check_close 1e-12 "stays normalised" 1. (y.(0) +. y.(1))

let test_ode_until () =
  let f ~t:_ y = [| -.y.(0) |] in
  let y, converged =
    Ode.integrate_until ~f ~dt:0.1 ~stop:(fun y -> y.(0) < 0.5) [| 1. |]
  in
  Alcotest.(check bool) "converged" true converged;
  Alcotest.(check bool) "crossed threshold" true (y.(0) < 0.5);
  let _, gave_up =
    Ode.integrate_until ~max_steps:3 ~f ~dt:0.1
      ~stop:(fun y -> y.(0) < 0.)
      [| 1. |]
  in
  Alcotest.(check bool) "cap respected" false gave_up

let test_ode_dimension_guard () =
  Alcotest.check_raises "dimension change"
    (Invalid_argument "Ode: derivative changed dimension") (fun () ->
      ignore (Ode.rk4_step ~f:(fun ~t:_ _ -> [| 0. |]) ~t:0. ~dt:0.1 [| 0.; 0. |]))

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let prop t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "po_num"
    [ ( "roots",
        [ quick "bisect linear" test_bisect_linear;
          quick "bisect cubic" test_bisect_cubic;
          quick "bisect endpoint" test_bisect_endpoint_root;
          quick "bisect no bracket" test_bisect_no_bracket;
          quick "bisect discontinuous" test_bisect_discontinuous;
          quick "brent polynomial" test_brent_polynomial;
          quick "brent matches bisect" test_brent_matches_bisect;
          quick "brent fewer evals" test_brent_fewer_evals;
          quick "monotone level interior" test_monotone_level_interior;
          quick "monotone level clamps" test_monotone_level_clamps;
          prop prop_monotone_level_solves;
          prop prop_brent_known_endpoints ] );
      ( "grid",
        [ quick "linspace basic" test_linspace_basic;
          quick "linspace single" test_linspace_single;
          quick "linspace endpoint" test_linspace_exact_endpoint;
          quick "logspace" test_logspace;
          quick "logspace rejects" test_logspace_rejects_nonpositive;
          quick "arange" test_arange;
          quick "midpoints" test_midpoints;
          quick "index of nearest" test_index_of_nearest;
          prop prop_linspace_monotone ] );
      ( "optimize",
        [ quick "refine grid" test_refine_grid_max;
          quick "refine grid discontinuous" test_refine_grid_max_discontinuous;
          quick "refine grid 2d" test_refine_grid_max2;
          quick "grid call counts" test_grid_call_counts;
          quick "refine grid 2d ties" test_refine_grid_max2_first_tie;
          prop prop_floor_contract ] );
      ( "stats",
        [ quick "mean variance" test_mean_variance;
          quick "variance degenerate" test_variance_degenerate;
          quick "quantiles" test_quantiles;
          quick "quantile nan order-independence"
            test_quantile_nan_order_independent;
          quick "summarize" test_summarize;
          quick "pearson" test_pearson;
          quick "weighted mean" test_weighted_mean;
          quick "max downward gap" test_max_downward_gap;
          prop prop_quantile_bounds ] );
      ( "ode",
        [ quick "exponential decay" test_ode_exponential_decay;
          quick "harmonic oscillator" test_ode_harmonic_oscillator;
          quick "trajectory shape" test_ode_trajectory_shape;
          quick "post applied" test_ode_post_applied;
          quick "integrate until" test_ode_until;
          quick "dimension guard" test_ode_dimension_guard ] ) ]
