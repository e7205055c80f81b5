(* Benchmark & reproduction harness.

   Two jobs:

   1. {b Figure regeneration} — every data figure of the paper (2, 3, 4,
      5, 7, 8, the appendix 9-12) plus the [tcp] extension is regenerated
      through [Po_experiments.Registry], printed as tables + ASCII plots,
      and written as CSV under [results/].  The claim audits (Theorems 4,
      5, 6, Lemma 4, the regime ordering, the AIMD-vs-max-min match) run
      afterwards.

   2. {b Micro-benchmarks} — Bechamel timings of the load-bearing kernels
      (rate-equilibrium solve, CP-game solve cold/warm, duopoly migration
      equilibrium, oligopoly equal-surplus solve, packet simulation,
      ensemble generation), one [Test.make] per kernel.

   3. {b Parallel speedup} — every grid-sweep figure regenerated with
      [jobs = 1] and [jobs = recommended_domain_count], wall-clock per
      figure and the speedup ratio (the outputs are bit-identical by
      po_par's determinism contract; this section measures, it does not
      re-verify).

   4. {b xl scale tier} — wall-clock scaling of the structure-of-arrays
      solver stack (DESIGN.md §12) at n = 10^4, 10^5, 10^6: streaming
      ensemble generation, column-market build, cold equilibrium solve, and
      the CP game up to 10^5, with fitted log-log scaling exponents
      (expect ~1 for the O(n log n) kernels).  [--xl-smoke] is the CI
      variant: one n = 10^5 population generated on the hardened pool
      and solved from several workers, pass/fail only.

   5. {b chaos smoke tier} — the supervised-execution contract
      (DESIGN.md §13) driven end to end: fig4/fig5 regenerated under
      injected transient faults with retries and byte-compared against
      the fault-free render at jobs 1 and 4, the circuit breaker's
      degraded serial path, and a typed deadline failure; the check
      list, warnings and a metrics snapshot land in results/chaos.json.

   Usage: dune exec bench/main.exe [-- --quick | --figures-only |
   --bench-only | --par-only | --xl | --xl-smoke | --chaos-smoke] *)

open Bechamel

let results_dir = "results"

(* ------------------------------------------------------------------ *)
(* Figure regeneration                                                *)
(* ------------------------------------------------------------------ *)

let regenerate_figures ~params () =
  List.iter
    (fun (entry : Po_experiments.Registry.entry) ->
      let t0 = Unix.gettimeofday () in
      let figure = entry.Po_experiments.Registry.generate ~params () in
      let dt = Unix.gettimeofday () -. t0 in
      print_string (Po_experiments.Common.render ~plots:true figure);
      let written = Po_experiments.Common.csv_files ~dir:results_dir figure in
      Printf.printf "[%s] regenerated in %.1f s; CSV: %s\n\n"
        entry.Po_experiments.Registry.id dt
        (String.concat ", " written))
    Po_experiments.Registry.entries

(* ------------------------------------------------------------------ *)
(* Serial vs parallel sweep timings                                   *)
(* ------------------------------------------------------------------ *)

(* The figures whose generators evaluate a (kappa, c) / capacity / share
   grid through the domain pool. *)
let sweep_figure_ids =
  [ "fig4"; "fig5"; "fig7"; "fig8"; "posize"; "welfare"; "invest" ]

let time_figure ~params entry =
  let t0 = Unix.gettimeofday () in
  ignore (entry.Po_experiments.Registry.generate ~params ());
  Unix.gettimeofday () -. t0

let run_par_bench ~params () =
  (* Measure a real pool of at least 2 domains even when the machine
     recommends 1: the speedup rows must exist for the §11 regression
     gate to diff (speedup ~1.0x on a single core is itself the honest
     reading — the pool must not *cost* anything), and the pool path
     gets exercised either way. *)
  let jobs = max 2 (Po_par.Pool.default_domains ()) in
  Printf.printf
    "== Sweep speedup: serial vs %d domains (%d CPs, %d-point sweeps) ==\n"
    jobs params.Po_experiments.Common.n_cps
    params.Po_experiments.Common.sweep_points;
  let speedups = ref [] in
  Printf.printf "  %-8s %10s %10s %9s\n" "figure" "serial(s)" "par(s)"
    "speedup";
  List.iter
    (fun id ->
      match Po_experiments.Registry.find id with
      | None -> Printf.printf "  %-8s missing from the registry!\n" id
      | Some entry ->
          let serial =
            time_figure
              ~params:{ params with Po_experiments.Common.jobs = 1 }
              entry
          in
          let parallel =
            time_figure ~params:{ params with Po_experiments.Common.jobs }
              entry
          in
          let speedup =
            if parallel > 0. then serial /. parallel else Float.nan
          in
          speedups := (id, serial, parallel, speedup) :: !speedups;
          Printf.printf "  %-8s %10.2f %10.2f %8.2fx\n" id serial parallel
            speedup)
    sweep_figure_ids;
  print_newline ();
  (jobs, List.rev !speedups)

let run_claims ~params () =
  let checks = Po_experiments.Claims.all ~params () in
  print_string (Po_experiments.Claims.render checks);
  List.for_all (fun c -> c.Po_experiments.Claims.passed) checks

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks                                                   *)
(* ------------------------------------------------------------------ *)

let kernels () =
  let open Po_core in
  let cps1000 = Po_workload.Ensemble.paper_ensemble ~n:1000 ~seed:42 () in
  let cps100 = Po_workload.Ensemble.paper_ensemble ~n:100 ~seed:42 () in
  let strategy = Strategy.make ~kappa:0.5 ~c:0.3 in
  let warm = (Cp_game.solve ~nu:120. ~strategy cps1000).Cp_game.partition in
  let duo_cfg =
    Duopoly.config ~nu:25. ~strategy_i:(Strategy.make ~kappa:1. ~c:0.3) ()
  in
  let olig_cfg =
    Oligopoly.homogeneous ~gammas:[| 0.6; 0.4 |] ~nu:25. ~n:2 ~strategy ()
  in
  let sim_specs =
    [| { Po_netsim.Sim.flows = 6; rate_cap = 800.; rtt = 0.04; demand = None };
       { Po_netsim.Sim.flows = 4; rate_cap = 2400.; rtt = 0.04;
         demand = None } |]
  in
  let sim_cfg =
    { (Po_netsim.Sim.default_config ~capacity:4000. ~specs:sim_specs) with
      warmup = 0.5; measure = 1. }
  in
  [ Test.make ~name:"equilibrium_solve_1000cp"
      (Staged.stage (fun () ->
           ignore (Po_model.Equilibrium.solve ~nu:120. cps1000)));
    Test.make ~name:"equilibrium_solve_reference_1000cp"
      (Staged.stage (fun () ->
           ignore (Po_model.Equilibrium.solve_reference ~nu:120. cps1000)));
    Test.make ~name:"cp_game_solve_cold_1000cp"
      (Staged.stage (fun () ->
           ignore (Cp_game.solve ~nu:120. ~strategy cps1000)));
    Test.make ~name:"cp_game_solve_reference_1000cp"
      (Staged.stage (fun () ->
           ignore (Cp_game.solve_reference ~nu:120. ~strategy cps1000)));
    Test.make ~name:"cp_game_solve_warm_1000cp"
      (Staged.stage (fun () ->
           ignore (Cp_game.solve ~init:warm ~nu:120. ~strategy cps1000)));
    Test.make ~name:"duopoly_solve_100cp"
      (Staged.stage (fun () -> ignore (Duopoly.solve duo_cfg cps100)));
    Test.make ~name:"oligopoly_solve_100cp"
      (Staged.stage (fun () ->
           ignore (Oligopoly.solve ~curve_points:60 olig_cfg cps100)));
    Test.make ~name:"netsim_run_1.5s_horizon"
      (Staged.stage (fun () -> ignore (Po_netsim.Sim.run sim_cfg)));
    Test.make ~name:"ensemble_generate_1000cp"
      (Staged.stage (fun () ->
           ignore (Po_workload.Ensemble.paper_ensemble ~n:1000 ~seed:7 ())));
    (* polint's parsetree stage over lib/, serial and fanned out on a
       po_par pool — the outputs are byte-identical by construction
       (test_lint's jobs-invariance test verifies; this row measures).
       Parsing serializes on the compiler's global lexer state and the
       jobs row pays pool spin-up per run, so the parallel row is the
       honest cost of `--jobs` at lib/-tree scale, not a speedup claim. *)
    Test.make ~name:"polint_parsetree_lib_serial"
      (Staged.stage (fun () ->
           ignore (Po_lint.Lint.lint_tree ~root:"." [ "lib" ])));
    Test.make ~name:"polint_parsetree_lib_jobs4"
      (Staged.stage (fun () ->
           ignore (Po_lint.Lint.lint_tree ~root:"." ~jobs:4 [ "lib" ]))) ]

let run_microbenchmarks () =
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 1.0) ~stabilize:false ()
  in
  let grouped = Test.make_grouped ~name:"kernels" (kernels ()) in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let analyzed = Analyze.all ols instance raw in
  print_endline "== Micro-benchmarks (monotonic clock, OLS ns/run) ==";
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      let ns =
        match Analyze.OLS.estimates result with
        | Some (t :: _) -> t
        | _ -> Float.nan
      in
      rows := (name, ns) :: !rows)
    analyzed;
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) !rows in
  List.iter
    (fun (name, ns) ->
      Printf.printf "  %-40s %12.0f ns/run  (%.3f ms)\n" name ns (ns /. 1e6))
    rows;
  print_newline ();
  rows

(* ------------------------------------------------------------------ *)
(* xl scale tier (DESIGN.md §12)                                      *)
(* ------------------------------------------------------------------ *)

(* Hand-rolled JSON: kernel names are [a-z0-9_./] so no escaping is
   needed, and floats print finitely via %.1f/%.4f ([NaN] speedups are
   emitted as null). *)
let json_float ?(decimals = 1) v =
  if Float.is_finite v then Printf.sprintf "%.*f" decimals v else "null"

(* Least-squares slope of log(seconds) against log(n): ~1 for the
   O(n log n) kernels (the log factor adds a few hundredths over two
   decades), ~2 would flag an accidental quadratic path. *)
let fit_exponent points =
  let xs = List.map (fun (n, _) -> log (float_of_int n)) points in
  let ys = List.map (fun (_, t) -> log t) points in
  let m = float_of_int (List.length points) in
  let sum = List.fold_left ( +. ) 0. in
  let sx = sum xs and sy = sum ys in
  let sxx = sum (List.map (fun x -> x *. x) xs) in
  let sxy = sum (List.map2 ( *. ) xs ys) in
  (m *. sxy -. (sx *. sy)) /. (m *. sxx -. (sx *. sx))

let xl_sizes = [ 10_000; 100_000; 1_000_000 ]

(* The CP game multiplies each population solve by the best-response
   iteration count; 10^6 is out of a bench's time budget, the scaling
   exponent is readable from two decades. *)
let xl_game_cutoff = 100_000

(* Median, min and max wall time of three cold runs: one cold run at
   n = 10^6 swings by tens of percent with host load, so a cell is a
   median with its spread beside it. *)
let time_cell f =
  let times =
    Array.init 3 (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (Sys.opaque_identity (f ()));
        Unix.gettimeofday () -. t0)
  in
  Array.sort Float.compare times;
  (times.(1), times.(0), times.(2))

let run_xl_bench () =
  print_endline "== xl tier: structure-of-arrays scaling (wall clock) ==";
  Printf.printf "  %-28s %10s %12s %17s\n" "kernel" "n" "median(s)"
    "min-max(s)";
  let strategy = Po_core.Strategy.make ~kappa:0.5 ~c:0.3 in
  let rows = ref [] in
  let row name n ((median, lo, hi) as cell) =
    rows := (name, n, cell) :: !rows;
    Printf.printf "  %-28s %10d %12.4f %10.4f-%.4f\n%!" name n median lo hi
  in
  List.iter
    (fun n ->
      row "ensemble_generate_soa" n
        (time_cell (fun () ->
             Po_workload.Ensemble.paper_ensemble_soa ~n ~seed:42 ()));
      let soa = Po_workload.Ensemble.paper_ensemble_soa ~n ~seed:42 () in
      let sat = Po_model.Cp_soa.saturation_nu soa in
      (* Above saturation the solve is an unsorted column market (one
         demand evaluation per CP, no sort) plus one pass copying the
         cached saturated values: no context and no root finding. *)
      row "equilibrium_uncongested_soa" n
        (time_cell (fun () ->
             Po_model.Equilibrium.solve_soa ~nu:(2. *. sat) soa));
      row "equilibrium_solve_soa" n
        (time_cell (fun () ->
             Po_model.Equilibrium.solve_soa ~nu:(0.3 *. sat) soa));
      if n <= xl_game_cutoff then begin
        (* The CP game runs on records; convert outside the timed thunk. *)
        let cps = Po_model.Cp_soa.to_cps soa in
        row "cp_game_solve" n
          (time_cell (fun () ->
               Po_core.Cp_game.solve ~nu:(0.3 *. sat) ~strategy cps))
      end)
    xl_sizes;
  let rows = List.rev !rows in
  let exponents =
    List.filter_map
      (fun kernel ->
        let points =
          List.filter_map
            (fun (name, n, (median, _, _)) ->
              if String.equal name kernel then Some (n, median) else None)
            rows
        in
        if List.length points >= 2 then Some (kernel, fit_exponent points)
        else None)
      [ "ensemble_generate_soa"; "equilibrium_uncongested_soa";
        "equilibrium_solve_soa"; "cp_game_solve" ]
  in
  print_newline ();
  print_endline "  fitted scaling exponents (log t ~ e log n):";
  List.iter
    (fun (kernel, e) -> Printf.printf "  %-28s %8.3f\n" kernel e)
    exponents;
  print_newline ();
  (rows, exponents)

let write_xl_json ~rows ~exponents =
  let path = Filename.concat results_dir "bench_xl.json" in
  let row_lines =
    List.map
      (fun (name, n, (median, lo, hi)) ->
        Printf.sprintf
          "    {\"name\": \"%s\", \"n\": %d, \"seconds\": %s, \"min_s\": \
           %s, \"max_s\": %s}"
          name n
          (json_float ~decimals:4 median)
          (json_float ~decimals:4 lo)
          (json_float ~decimals:4 hi))
      rows
  in
  let exp_lines =
    List.map
      (fun (kernel, e) ->
        Printf.sprintf "    {\"kernel\": \"%s\", \"exponent\": %s}" kernel
          (json_float ~decimals:3 e))
      exponents
  in
  Po_report.Writer.write_atomic ~path
    (Printf.sprintf
       "{\n\
       \  \"schema\": \"po-bench-xl-v1\",\n\
       \  \"rows\": [\n%s\n  ],\n\
       \  \"fitted_exponents\": [\n%s\n  ]\n\
        }\n"
       (String.concat ",\n" row_lines)
       (String.concat ",\n" exp_lines));
  Printf.printf "xl scaling results written to %s\n\n" path

(* CI smoke: generate n = 10^5 on the fault-hardened pool, then solve
   from several pool workers, each capturing typed errors — the whole
   large-n stack (jump-chunked generation, column context, typed error
   channel) exercised under domains in a few seconds. *)
let run_xl_smoke () =
  print_endline "== xl smoke: n=100000 SoA solves on the hardened pool ==";
  let n = 100_000 in
  let t0 = Unix.gettimeofday () in
  let pool = Po_par.Pool.create ~domains:(Po_par.Pool.default_domains ()) () in
  let outcome =
    Fun.protect
      ~finally:(fun () -> Po_par.Pool.shutdown pool)
      (fun () ->
        let soa = Po_workload.Ensemble.paper_ensemble_soa ~n ~pool ~seed:42 () in
        let sat = Po_model.Cp_soa.saturation_nu soa in
        Po_par.Pool.parallel_init pool 3 (fun k ->
            let nu = float_of_int (1 + k) *. 0.25 *. sat in
            Po_guard.Po_error.capture (fun () ->
                Po_model.Equilibrium.solve_soa ~nu soa)))
  in
  let ok =
    Array.for_all
      (function
        | Ok sol -> sol.Po_model.Equilibrium.congested
        | Error e ->
            Printf.printf "  solve failed: %s\n"
              (Po_guard.Po_error.to_string e);
            false)
      outcome
  in
  Printf.printf "  %d CPs generated + %d solves in %.2f s: %s\n\n" n
    (Array.length outcome)
    (Unix.gettimeofday () -. t0)
    (if ok then "OK" else "FAILED");
  ok

(* ------------------------------------------------------------------ *)
(* Chaos smoke: supervised sweeps under injected faults               *)
(* ------------------------------------------------------------------ *)

(* CI chaos tier (DESIGN.md §13): regenerate fig4/fig5 under injected
   transient faults with retries armed and byte-compare against the
   fault-free render at jobs 1 and 4; then drive the circuit breaker's
   degraded serial path under a persistent crash, and an expired
   deadline's typed failure.  The check list, the warnings and a
   metrics snapshot land in results/chaos.json for CI artifact
   upload. *)
let run_chaos_smoke () =
  print_endline "== chaos smoke: supervised sweeps under injected faults ==";
  Po_obs.Metrics.arm ();
  let base = { Po_experiments.Common.quick_params with jobs = 1 } in
  let checks = ref [] in
  let record name passed =
    Printf.printf "  %-48s %s\n%!" name (if passed then "ok" else "FAILED");
    checks := (name, passed) :: !checks
  in
  let figure_text id params =
    match Po_experiments.Registry.find id with
    | None -> invalid_arg ("chaos smoke: unknown figure " ^ id)
    | Some entry ->
        Po_experiments.Common.render ~plots:false
          (entry.Po_experiments.Registry.generate ~params ())
  in
  let flaky_spec =
    { Po_guard.Faultinject.solver = None; worker = None; write = None;
      timeout = None; slow = None; flaky = Some (1, 2) }
  in
  let worker_spec = { flaky_spec with flaky = None; worker = Some 1 } in
  let cleans =
    List.map (fun id -> (id, figure_text id base)) [ "fig4"; "fig5" ]
  in
  (* Transient faults absorbed by retries: byte-identical to the clean
     run for any worker count (the retry replays the same chunk-index
     coordinate, split PRNG stream and warm-start chain). *)
  List.iter
    (fun (id, clean) ->
      List.iter
        (fun jobs ->
          Po_guard.Faultinject.arm flaky_spec;
          let faulted =
            figure_text id
              { base with jobs; sup = Po_sup.Supervise.v ~retries:3 () }
          in
          Po_guard.Faultinject.disarm ();
          record
            (Printf.sprintf "%s flaky retries byte-identical (jobs %d)" id
               jobs)
            (String.equal clean faulted))
        [ 1; 4 ])
    cleans;
  (* A persistent crash trips the breaker; degradation completes the
     figure serially with a warning instead of failing it. *)
  let clean4 = List.assoc "fig4" cleans in
  let warnings_before = Po_guard.Warnings.count () in
  Po_guard.Faultinject.arm worker_spec;
  let degraded =
    figure_text "fig4"
      { base with
        sup = Po_sup.Supervise.v ~retries:1 ~breaker_threshold:2 () }
  in
  Po_guard.Faultinject.disarm ();
  record "fig4 breaker degrades and stays byte-identical"
    (String.equal clean4 degraded);
  record "breaker trip emitted a warning"
    (Po_guard.Warnings.count () > warnings_before);
  (* An expired budget surfaces as the typed deadline error at the next
     chunk boundary -- the run fails fast, it never hangs. *)
  let budget = Po_sup.Budget.start ~deadline:0.002 () in
  Po_obs.Clock.sleep_s 0.01;
  (match
     Po_guard.Po_error.capture (fun () ->
         figure_text "fig4" { base with sup = Po_sup.Supervise.v ~budget () })
   with
  | Error
      { Po_guard.Po_error.kind = Po_guard.Po_error.Deadline_exceeded _; _ }
    ->
      record "expired deadline fails typed" true
  | Error _ | Ok _ -> record "expired deadline fails typed" false);
  let checks = List.rev !checks in
  let ok = List.for_all snd checks in
  let path = Filename.concat results_dir "chaos.json" in
  Po_report.Writer.write_atomic ~path
    (Po_obs.Json.to_string
       (Po_obs.Json.Obj
          [ ("schema", Po_obs.Json.String "po-chaos-v1");
            ("passed", Po_obs.Json.Bool ok);
            ( "checks",
              Po_obs.Json.List
                (List.map
                   (fun (name, passed) ->
                     Po_obs.Json.Obj
                       [ ("name", Po_obs.Json.String name);
                         ("passed", Po_obs.Json.Bool passed) ])
                   checks) );
            ( "warnings",
              Po_obs.Json.Obj
                [ ( "count",
                    Po_obs.Json.Number
                      (float_of_int (Po_guard.Warnings.count ())) );
                  ( "messages",
                    Po_obs.Json.List
                      (List.map
                         (fun m -> Po_obs.Json.String m)
                         (Po_guard.Warnings.drain ())) ) ] );
            ("metrics", Po_obs.Metrics.snapshot_json ()) ])
    ^ "\n");
  Printf.printf "chaos results written to %s\n\n" path;
  ok

(* ------------------------------------------------------------------ *)
(* Machine-readable benchmark output                                  *)
(* ------------------------------------------------------------------ *)

let write_bench_json ~kernels ~jobs ~speedups =
  let path = Filename.concat results_dir "bench.json" in
  let kernel_rows =
    List.map
      (fun (name, ns) ->
        Printf.sprintf "    {\"name\": \"%s\", \"ns_per_run\": %s}" name
          (json_float ns))
      kernels
  in
  let speedup_rows =
    List.map
      (fun (id, serial, parallel, speedup) ->
        Printf.sprintf
          "    {\"figure\": \"%s\", \"serial_s\": %s, \"parallel_s\": %s, \
           \"speedup\": %s}"
          id
          (json_float ~decimals:4 serial)
          (json_float ~decimals:4 parallel)
          (json_float ~decimals:4 speedup))
      speedups
  in
  Po_report.Writer.write_atomic ~path
    (Printf.sprintf
       "{\n\
       \  \"schema\": \"po-bench-v1\",\n\
       \  \"jobs\": %d,\n\
       \  \"kernels\": [\n%s\n  ],\n\
       \  \"sweep_speedup\": [\n%s\n  ]\n\
        }\n"
       jobs
       (String.concat ",\n" kernel_rows)
       (String.concat ",\n" speedup_rows));
  Printf.printf "machine-readable benchmark results written to %s\n\n" path

(* ------------------------------------------------------------------ *)
(* Entry point                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let quick = Array.exists (( = ) "--quick") Sys.argv in
  let figures_only = Array.exists (( = ) "--figures-only") Sys.argv in
  let bench_only = Array.exists (( = ) "--bench-only") Sys.argv in
  let par_only = Array.exists (( = ) "--par-only") Sys.argv in
  let xl = Array.exists (( = ) "--xl") Sys.argv in
  let xl_smoke = Array.exists (( = ) "--xl-smoke") Sys.argv in
  let chaos_smoke = Array.exists (( = ) "--chaos-smoke") Sys.argv in
  if chaos_smoke then exit (if run_chaos_smoke () then 0 else 1);
  if xl_smoke then exit (if run_xl_smoke () then 0 else 1);
  if xl then begin
    let rows, exponents = run_xl_bench () in
    write_xl_json ~rows ~exponents;
    exit 0
  end;
  (* The full paper scale (n = 1000, 33-point sweeps) takes several
     minutes end to end; the default here trades sweep resolution for a
     bench that completes in about a minute while preserving every
     qualitative shape.  Use the ponet CLI for full-resolution runs.
     Figure regeneration itself runs on every recommended domain —
     po_par guarantees the output does not depend on the worker count. *)
  let params =
    if quick then Po_experiments.Common.quick_params
    else
      { Po_experiments.Common.n_cps = 400; seed = 42; sweep_points = 17;
        jobs = 1; checkpoint = None; sup = Po_sup.Supervise.default }
  in
  let params =
    { params with
      Po_experiments.Common.jobs = Po_par.Pool.default_domains () }
  in
  let ok = ref true in
  if par_only then ignore (run_par_bench ~params ())
  else begin
    if not bench_only then begin
      Printf.printf
        "Reproduction harness: %d CPs, %d-point sweeps (%s, %d domains)\n\n"
        params.Po_experiments.Common.n_cps
        params.Po_experiments.Common.sweep_points
        (if quick then "quick" else "standard")
        params.Po_experiments.Common.jobs;
      regenerate_figures ~params ();
      ok := run_claims ~params ()
    end;
    if not figures_only then begin
      let kernels = run_microbenchmarks () in
      (* The sweep-speedup section runs in every benching mode —
         [--bench-only] used to skip it and emit an empty array, which
         starved the regression gate of its sweep rows. *)
      let jobs, speedups = run_par_bench ~params () in
      write_bench_json ~kernels ~jobs ~speedups
    end
  end;
  if not !ok then begin
    prerr_endline "claim audits FAILED";
    exit 1
  end
