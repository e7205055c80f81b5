(* The benchmark program: one seeded workload, either timed (end-to-end
   metrics) or traced (per-layer metrics), with its outputs checked
   outside the timed region.  The last line of stdout is the result
   object; a provenance object precedes it.  See README.md. *)

open Pb_util

(* Every workload reports every metric of the mode it runs in; a layer
   the workload bypasses reads 0.  BENCHMARK.json lists the same names
   and units (run.py --smoke checks that). *)
let end_to_end =
  [ ("setup_s", "s"); ("query_p50_ms", "ms"); ("throughput_qps", "1/s");
    ("peak_rss_mb", "MB") ]

let per_layer =
  [ (* regime search: regimes_cold *)
    ("engine.eval_ms", "ms"); ("engine.scenario_market_ms", "ms");
    ("public_option.unregulated_ms", "ms"); ("public_option.neutral_ms", "ms");
    ("public_option.public_option_ms", "ms"); ("public_option.share", "ratio");
    ("trace.span_coverage", "ratio"); ("duopoly.solve_ms", "ms");
    ("response.render_us", "us"); ("cp_game.solves_per_query", "count");
    ("cp_game.solves_unregulated", "count"); ("cp_game.solves_neutral", "count");
    ("cp_game.solves_public_option", "count");
    ("equilibrium.solves_per_query", "count");
    ("equilibrium.iterations_per_solve", "ratio");
    ("cp_game.class_memo_hit_ratio", "ratio");
    ("cp_game.class_memo_lookups_per_query", "count");
    ("cp_game.solo_memo_hit_ratio", "ratio");
    ("cp_game.solo_memo_lookups_per_query", "count");
    ("equilibrium.bracket_hint_ratio", "ratio");
    ("equilibrium.bracket_hints_per_query", "count");
    (* serving: serve_hot *)
    ("request.parse_us", "us"); ("cache.lookup_us", "us");
    ("engine.eval_miss_equilibrium_ms", "ms");
    ("engine.eval_miss_surplus_ms", "ms");
    ("ensemble.generate_ms", "ms"); ("equilibrium.solve_ms", "ms");
    ("server.overhead_us", "us"); ("serve.cache_hit_ratio", "ratio");
    ("serve.cache_lookups", "count"); ("serve.evals", "count");
    ("server.hol_stalls", "count"); ("server.hol_stall_ms", "ms");
    ("serve.query_p99_ms", "ms");
    (* figures *)
    ("fig4.generate_s", "s"); ("fig5.generate_s", "s"); ("fig7.generate_s", "s");
    ("figure.render_ms", "ms"); ("pool.chunks_computed", "count");
    ("pool.chunk_busy_s", "s"); ("pool.utilization", "ratio");
    ("pool.speedup", "ratio"); ("fig4.equilibrium_solves", "count");
    ("fig4.cp_game_solves", "count"); ("fig5.equilibrium_solves", "count");
    ("fig5.cp_game_solves", "count"); ("fig7.equilibrium_solves", "count");
    ("fig7.cp_game_solves", "count");
    (* the traced run's own end-to-end reading: minus the untraced one,
       the tracing overhead *)
    ("traced.query_p50_ms", "ms"); ("traced.throughput_qps", "1/s") ]

let workloads =
  [ ("regimes_cold", (Pb_regimes.setup, Pb_regimes.run));
    ("serve_hot", ((fun (_ : config) -> ()), Pb_serve.run));
    ("figures", (Pb_figures.setup, Pb_figures.run)) ]

(* Lay [values] out on the canonical list; a name outside it is a bug. *)
let fill canonical values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name canonical) then
        failwith ("metric not in the canonical list: " ^ name))
    values;
  List.map
    (fun (name, unit) ->
      let v = Option.value ~default:0. (List.assoc_opt name values) in
      (name, (if Float.is_finite v then v else 0.), unit))
    canonical

let num_i i = Json.Number (float_of_int i)

let result_json ~correct o metrics =
  Json.Obj
    [ ("correct", Json.Bool correct);
      ("attempted", num_i o.attempted);
      ("failed", num_i o.failed);
      ("metrics",
       Json.Obj
         (List.map
            (fun (name, v, unit) ->
              (name, Json.Obj [ ("value", Json.Number v); ("unit", Json.String unit) ]))
            metrics)) ]

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let ponet = ref "_build/default/bin/ponet.exe" and out = ref "perfbench/out" in
  let describe = ref "unknown" and smoke = ref false and corrupt = ref false in
  let probe = ref false in
  let spec =
    [ ("--workload", Arg.Set_string workload,
       "NAME regimes_cold, serve_hot or figures");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 per-layer instead of end-to-end metrics");
      ("--ponet", Arg.Set_string ponet, "PATH the ponet executable");
      ("--out", Arg.Set_string out, "DIR scratch directory");
      ("--describe", Arg.Set_string describe, "STR source version, for provenance");
      ("--smoke", Arg.Set smoke, " tiny sizes (the benchmark's self-test)");
      ("--corrupt", Arg.Set corrupt, " damage one output before checking it");
      ("--probe-setup", Arg.Set probe, " do the set-up, print ready and exit") ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "pobench --workload NAME --seed N --seconds S --trace 0|1";
  let cfg =
    { seed = !seed; seconds = !seconds; traced = !trace = 1; smoke = !smoke;
      corrupt = !corrupt; ponet = !ponet; out = !out;
      nproc = Po_par.Pool.default_domains (); setup_runs = 15 }
  in
  match List.assoc_opt !workload workloads with
  | None ->
      prerr_endline ("pobench: unknown workload " ^ !workload);
      exit 2
  | Some (setup, _) when !probe ->
      setup cfg;
      print_endline "ready"
  | Some (_, run) ->
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      Po_report.Writer.mkdir_p cfg.out;
      if cfg.traced then begin
        Trace.arm ();
        Metrics.arm ()
      end;
      let steal0 = host_steal_s () in
      let o = run cfg in
      let steal = host_steal_s () -. steal0 in
      Trace.disarm ();
      Metrics.disarm ();
      let failures =
        o.failures
        @
        if o.failed > 0 then [ Printf.sprintf "%d operations failed" o.failed ]
        else []
      in
      let correct = List.is_empty failures in
      let metrics =
        if cfg.traced then fill per_layer o.layers else fill end_to_end o.e2e
      in
      let provenance =
        Json.Obj
          [ ("workload", Json.String !workload); ("seed", num_i cfg.seed);
            ("seconds", Json.Number cfg.seconds); ("trace", num_i !trace);
            ("smoke", Json.Bool cfg.smoke); ("nproc", num_i cfg.nproc);
            ("ocaml_version", Json.String Sys.ocaml_version);
            ("git_describe", Json.String !describe);
            ("host_steal_s", Json.Number steal);
            ("samples", Json.Obj (List.map (fun (k, n) -> (k, num_i n)) o.samples));
            ("failures",
             Json.List
               (List.map
                  (fun f -> Json.String f)
                  (List.filteri (fun i _ -> i < 20) failures))) ]
      in
      let result = result_json ~correct o metrics in
      let tag = Printf.sprintf "%s-trace%d" !workload !trace in
      if cfg.traced then
        Trace.export ~other:[ ("provenance", provenance) ]
          ~path:(Filename.concat cfg.out ("trace-" ^ !workload ^ ".json"))
          ();
      Po_report.Writer.write_atomic
        ~path:(Filename.concat cfg.out ("result-" ^ tag ^ ".json"))
        (Json.to_string (Json.Obj [ ("provenance", provenance); ("result", result) ]));
      List.iteri
        (fun i f -> if i < 10 then prerr_endline ("pobench: check failed: " ^ f))
        failures;
      print_endline
        (Json.to_string ~indent:0 (Json.Obj [ ("provenance", provenance) ]));
      print_endline (Json.to_string ~indent:0 result);
      exit (if correct then 0 else 1)
