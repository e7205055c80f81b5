(* Differential tests for the structure-of-arrays tier (DESIGN.md §12):
   the column solvers must be bit-identical to the record solvers on
   every input — random ensembles, heterogeneous archetype mixes,
   threshold ties, saturated and degenerate populations — the streaming
   chunked ensemble generator must reproduce the serial record draw bit
   for bit at any chunk size and jobs count, and the n = 10^5 tier must
   complete with bounded scratch. *)

open Po_model
open Po_core

let quick name f = Alcotest.test_case name `Quick f

(* Bit-level float equality: the contract is "bit-identical", not
   "close". *)
let check_bits name a b =
  if Int64.bits_of_float a <> Int64.bits_of_float b then
    Alcotest.failf "%s: %h <> %h" name a b

let check_bits_array name a b =
  Alcotest.(check int) (name ^ " length") (Array.length a) (Array.length b);
  Array.iteri (fun i x -> check_bits (Printf.sprintf "%s.(%d)" name i) x b.(i)) a

let check_solution name (a : Equilibrium.solution) (b : Equilibrium.solution) =
  check_bits_array (name ^ " theta") a.Equilibrium.theta b.Equilibrium.theta;
  check_bits_array (name ^ " demand") a.Equilibrium.demand b.Equilibrium.demand;
  check_bits_array (name ^ " rho") a.Equilibrium.rho b.Equilibrium.rho;
  check_bits (name ^ " per_capita_rate") a.Equilibrium.per_capita_rate
    b.Equilibrium.per_capita_rate;
  check_bits (name ^ " cap") a.Equilibrium.cap b.Equilibrium.cap;
  Alcotest.(check bool)
    (name ^ " congested")
    a.Equilibrium.congested b.Equilibrium.congested

let check_outcome name (a : Cp_game.outcome) (b : Cp_game.outcome) =
  Alcotest.(check string)
    (name ^ " partition")
    (Partition.key a.Cp_game.partition)
    (Partition.key b.Cp_game.partition);
  check_bits_array (name ^ " theta") a.Cp_game.theta b.Cp_game.theta;
  check_bits_array (name ^ " rho") a.Cp_game.rho b.Cp_game.rho;
  check_bits (name ^ " cap_o") a.Cp_game.cap_ordinary b.Cp_game.cap_ordinary;
  check_bits (name ^ " cap_p") a.Cp_game.cap_premium b.Cp_game.cap_premium;
  check_bits (name ^ " lambda_o") a.Cp_game.lambda_ordinary
    b.Cp_game.lambda_ordinary;
  check_bits (name ^ " lambda_p") a.Cp_game.lambda_premium
    b.Cp_game.lambda_premium;
  check_bits (name ^ " phi") a.Cp_game.phi b.Cp_game.phi;
  check_bits (name ^ " psi") a.Cp_game.psi b.Cp_game.psi;
  Alcotest.(check bool) (name ^ " converged") a.Cp_game.converged
    b.Cp_game.converged;
  Alcotest.(check int) (name ^ " iterations") a.Cp_game.iterations
    b.Cp_game.iterations

let check_columns name soa soa' =
  let n = Cp_soa.length soa in
  Alcotest.(check int) (name ^ " length") n (Cp_soa.length soa');
  for i = 0 to n - 1 do
    let cell col get =
      check_bits
        (Printf.sprintf "%s %s.(%d)" name col i)
        (get soa i) (get soa' i)
    in
    cell "alpha" Cp_soa.alpha;
    cell "theta_hat" Cp_soa.theta_hat;
    cell "beta" Cp_soa.beta;
    cell "v" Cp_soa.v;
    cell "phi" Cp_soa.phi
  done

let ensemble ?(n = 60) seed = Po_workload.Ensemble.paper_ensemble ~n ~seed ()

let nu_grid sat =
  [ 0.; 1e-6; 0.05 *. sat; 0.3 *. sat; 0.7 *. sat; 0.99 *. sat; sat;
    1.5 *. sat ]

(* Both record solvers and the SoA solver at every nu: three-way bit
   identity, not just SoA-vs-reference. *)
let check_population name cps =
  let soa = Cp_soa.of_cps cps in
  let sat = Po_workload.Ensemble.saturation_nu cps in
  List.iter
    (fun nu ->
      let name = Printf.sprintf "%s nu=%g" name nu in
      let from_soa = Equilibrium.solve_soa ~nu soa in
      check_solution (name ^ " soa/ref") from_soa
        (Equilibrium.solve_reference ~nu cps);
      check_solution (name ^ " soa/opt") from_soa (Equilibrium.solve ~nu cps))
    (nu_grid sat)

(* ------------------------------------------------------------------ *)
(* Equilibrium: SoA vs record                                         *)
(* ------------------------------------------------------------------ *)

let test_eq_random () =
  List.iter
    (fun (seed, n) ->
      check_population (Printf.sprintf "seed=%d n=%d" seed n) (ensemble ~n seed))
    [ (1, 1); (2, 2); (3, 7); (11, 40); (12, 137); (13, 400); (14, 2000) ]

let test_eq_archetype_mixes () =
  (* Heterogeneous hand-built populations: the three paper archetypes
     interleaved with random CPs, in several proportions. *)
  List.iter
    (fun (seed, n) ->
      let random = ensemble ~n seed in
      let cps =
        Array.init n (fun i ->
            match i mod 5 with
            | 0 -> Cp.google i
            | 1 -> Cp.netflix i
            | 2 -> Cp.skype i
            | _ -> random.(i))
      in
      check_population (Printf.sprintf "mix seed=%d n=%d" seed n) cps)
    [ (21, 12); (22, 60); (23, 301) ]

let test_eq_ties () =
  (* Identical CPs produce exact threshold ties; the sorted order then
     depends on the index tie-break, which both representations must
     share. *)
  let base = ensemble ~n:8 31 in
  let cps =
    Array.init 64 (fun i ->
        let cp = base.(i mod 8) in
        Cp.make ~id:i ~alpha:cp.Cp.alpha ~theta_hat:cp.Cp.theta_hat
          ~demand:cp.Cp.demand ~v:cp.Cp.v ~phi:cp.Cp.phi ())
  in
  check_population "ties" cps

let test_eq_degenerate () =
  (* beta = 0 (throughput-insensitive demand, the curve's omega <= 0
     branch), extreme alpha/theta_hat spreads, and a single CP. *)
  let flat =
    Array.init 17 (fun i ->
        Cp.make ~id:i ~alpha:1. ~theta_hat:(float_of_int (1 + (i mod 3)))
          ~demand:(Demand.exponential ~beta:0.)
          ~v:0.5 ~phi:1. ())
  in
  check_population "beta=0" flat;
  let spread =
    Array.init 33 (fun i ->
        Cp.make ~id:i
          ~alpha:(if i mod 2 = 0 then 1e-9 else 1.)
          ~theta_hat:(if i mod 3 = 0 then 1e-6 else 1e6)
          ~demand:(Demand.exponential ~beta:(float_of_int (i mod 11)))
          ~v:(float_of_int i /. 33.)
          ~phi:(float_of_int (i mod 7))
          ())
  in
  check_population "spread" spread;
  check_population "single" (ensemble ~n:1 77)

let test_eq_market_reuse () =
  (* One market of the record population solved at many nus over every
     index; each must match the reference and the column solve. *)
  let cps = ensemble ~n:90 51 in
  let soa = Cp_soa.of_cps cps in
  let market = Equilibrium.market cps in
  let all = Array.init (Array.length cps) Fun.id in
  let sat = Po_workload.Ensemble.saturation_nu cps in
  List.iter
    (fun nu ->
      let name = Printf.sprintf "market reuse nu=%g" nu in
      let from_market = Equilibrium.solve_subset ~nu market all in
      check_solution (name ^ " ref") from_market
        (Equilibrium.solve_reference ~nu cps);
      check_solution (name ^ " soa") from_market (Equilibrium.solve_soa ~nu soa))
    (nu_grid sat)

let test_surplus () =
  let cps = ensemble ~n:50 61 in
  let soa = Cp_soa.of_cps cps in
  let sat = Po_workload.Ensemble.saturation_nu cps in
  check_bits "saturation_nu" (Cp_soa.saturation_nu soa) sat;
  check_bits "total_value" (Cp_soa.total_value soa)
    (Po_workload.Ensemble.total_value cps);
  let sol = Equilibrium.solve ~nu:(0.4 *. sat) cps in
  check_bits "consumer" (Surplus.consumer_soa soa sol)
    (Surplus.consumer cps sol)

(* ------------------------------------------------------------------ *)
(* CP game: column-stored populations vs record engines               *)
(* ------------------------------------------------------------------ *)

(* The game runs on records only; a column population reaches it through
   [Cp_soa.to_cps] (as the xl bench does).  The round trip must leave
   every outcome bit-identical to the game on the original records. *)

let game_points sat =
  [ (0.3, 0.2, 0.5 *. sat); (0.5, 0.5, 0.2 *. sat); (0.8, 1.5, 0.05 *. sat);
    (0., 0., 0.5 *. sat) ]

let test_game_differential () =
  List.iter
    (fun (seed, n) ->
      let cps = ensemble ~n seed in
      let from_soa = Cp_soa.to_cps (Cp_soa.of_cps cps) in
      let sat = Po_workload.Ensemble.saturation_nu cps in
      List.iter
        (fun (kappa, c, nu) ->
          let strategy = Strategy.make ~kappa ~c in
          let name = Printf.sprintf "seed=%d n=%d (%g,%g,nu=%g)" seed n kappa c nu in
          let soa_outcome = Cp_game.solve ~nu ~strategy from_soa in
          check_outcome (name ^ " soa/ref") soa_outcome
            (Cp_game.solve_reference ~nu ~strategy cps);
          check_outcome (name ^ " soa/opt") soa_outcome
            (Cp_game.solve ~nu ~strategy cps))
        (game_points sat))
    [ (4, 30); (42, 90) ]

let test_game_nash_differential () =
  let cps = ensemble ~n:14 43 in
  let from_soa = Cp_soa.to_cps (Cp_soa.of_cps cps) in
  let sat = Po_workload.Ensemble.saturation_nu cps in
  List.iter
    (fun (kappa, c, nu) ->
      let strategy = Strategy.make ~kappa ~c in
      check_outcome
        (Printf.sprintf "nash (%g,%g,nu=%g)" kappa c nu)
        (Cp_game.solve_nash ~nu ~strategy from_soa)
        (Cp_game.solve_nash_reference ~nu ~strategy cps))
    (game_points sat)

(* ------------------------------------------------------------------ *)
(* Streaming ensemble generation                                      *)
(* ------------------------------------------------------------------ *)

let test_ensemble_columns () =
  (* The chunked SoA draw must reproduce the serial record draw bit for
     bit, for both phi settings and chunk sizes that divide n, exceed n,
     and leave ragged tails. *)
  List.iter
    (fun phi ->
      List.iter
        (fun seed ->
          let n = 157 in
          let records =
            Cp_soa.of_cps (Po_workload.Ensemble.paper_ensemble ~n ~phi ~seed ())
          in
          List.iter
            (fun chunk ->
              check_columns
                (Printf.sprintf "seed=%d chunk=%d" seed chunk)
                records
                (Po_workload.Ensemble.paper_ensemble_soa ~n ~phi ~chunk ~seed
                   ()))
            [ 1; 7; 64; 157; 1000 ])
        [ 9; 10 ])
    [ Po_workload.Ensemble.Coupled_to_beta; Po_workload.Ensemble.Independent ]

let test_ensemble_jobs_invariant () =
  (* Chunk generation on a pool of any size yields the same columns as
     the serial draw. *)
  let n = 211 and seed = 19 in
  let serial = Po_workload.Ensemble.paper_ensemble_soa ~n ~chunk:32 ~seed () in
  List.iter
    (fun jobs ->
      let pool = Po_par.Pool.create ~domains:jobs () in
      Fun.protect
        ~finally:(fun () -> Po_par.Pool.shutdown pool)
        (fun () ->
          check_columns
            (Printf.sprintf "jobs=%d" jobs)
            serial
            (Po_workload.Ensemble.paper_ensemble_soa ~n ~chunk:32 ~pool ~seed
               ())))
    [ 1; 3 ]

let test_ensemble_fold_streams () =
  (* Folding chunk-wise visits every id exactly once, in order, and the
     chunks are the very rows of the assembled population; an index-order
     accumulation across chunks is bit-identical to the whole-population
     one. *)
  let n = 401 and seed = 23 in
  let whole = Po_workload.Ensemble.paper_ensemble_soa ~n ~seed () in
  let next, sum =
    Po_workload.Ensemble.fold_paper_chunks ~n ~chunk:100 ~seed
      ~init:(0, 0.)
      ~f:(fun (next, sum) ~first_id chunk ->
        Alcotest.(check int) "chunk starts at next id" next first_id;
        let sum = ref sum in
        for k = 0 to Cp_soa.length chunk - 1 do
          let i = first_id + k in
          check_bits
            (Printf.sprintf "row %d" i)
            (Cp_soa.alpha chunk k) (Cp_soa.alpha whole i);
          check_bits
            (Printf.sprintf "phi %d" i)
            (Cp_soa.phi chunk k) (Cp_soa.phi whole i);
          sum := !sum +. (Cp_soa.alpha chunk k *. Cp_soa.theta_hat chunk k)
        done;
        (first_id + Cp_soa.length chunk, !sum))
      ()
  in
  Alcotest.(check int) "all ids visited" n next;
  check_bits "streamed saturation_nu" sum (Cp_soa.saturation_nu whole)

(* ------------------------------------------------------------------ *)
(* Large-n smoke                                                      *)
(* ------------------------------------------------------------------ *)

let test_large_n_smoke () =
  (* n = 10^5: generation + one congested solve must complete well within
     a bounded heap — the population is 5 float columns (~4 MB), and the
     solver allocates O(n) beyond it.  A record population of this size
     would be ~10x that; the budget below fails if the SoA path ever
     regresses into materialising records. *)
  let n = 100_000 in
  let soa = Po_workload.Ensemble.paper_ensemble_soa ~n ~seed:7 () in
  let sat = Cp_soa.saturation_nu soa in
  let before = Gc.quick_stat () in
  let sol = Equilibrium.solve_soa ~nu:(0.3 *. sat) soa in
  let after = Gc.quick_stat () in
  Alcotest.(check bool) "congested" true sol.Equilibrium.congested;
  if not (Float.is_finite sol.Equilibrium.cap && sol.Equilibrium.cap > 0.) then
    Alcotest.failf "cap not positive finite: %h" sol.Equilibrium.cap;
  Alcotest.(check int) "theta rows" n (Array.length sol.Equilibrium.theta);
  (* Peak-heap growth, not cumulative allocation: the solve's transient
     scratch (boxed accumulators in the aggregate loops) is reclaimed by
     the minor collector and never accumulates.  What must stay O(n) is
     the live footprint — the market (3 columns beside the population's
     own), the member indices, the context (4 sorted columns) and the
     solution (3 columns), ~11n words.  40n words of
     headroom catches any regression that retains per-iteration state or
     materialises boxed records alongside the columns. *)
  let heap_growth = after.Gc.top_heap_words - before.Gc.top_heap_words in
  if heap_growth > 40 * n then
    Alcotest.failf "solve grew the heap by %d words (> 40n)" heap_growth

let () =
  Alcotest.run "po_soa"
    [ ( "equilibrium",
        [ quick "random ensembles bit-identical" test_eq_random;
          quick "archetype mixes bit-identical" test_eq_archetype_mixes;
          quick "threshold ties" test_eq_ties;
          quick "degenerate populations" test_eq_degenerate;
          quick "market reuse" test_eq_market_reuse;
          quick "surplus and aggregates" test_surplus ] );
      ( "cp_game",
        [ quick "competitive solver bit-identical" test_game_differential;
          quick "nash solver bit-identical" test_game_nash_differential ] );
      ( "ensemble",
        [ quick "chunked columns match serial records" test_ensemble_columns;
          quick "jobs-invariant generation" test_ensemble_jobs_invariant;
          quick "streaming fold covers the population"
            test_ensemble_fold_streams ] );
      ( "scale", [ quick "n=100000 bounded-memory solve" test_large_n_smoke ] )
    ]
