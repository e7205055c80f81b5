(* ponet: command-line driver for the public-option reproduction.

   Subcommands:
     ponet list                     enumerate reproducible experiments
     ponet fig <id> [...]           regenerate a figure (table/plot/CSV)
     ponet claims                   run the theorem audits
     ponet regimes [...]            compare regulatory regimes
     ponet simulate [...]           run the AIMD bottleneck simulation
     ponet bench-diff <a> <b>       gate on benchmark regressions
     ponet serve [...]              long-lived scenario-query daemon
     ponet query <json>             answer one request without a daemon
     ponet loadgen [...]            seeded load generator for the daemon *)

open Cmdliner

(* Every flag takes its default from [Common.default_params] (the
   paper's scale), so the CLI and the library can never drift apart —
   except [--jobs], whose default is the hardware parallelism: output is
   identical for any jobs value, so there is no reason to leave cores
   idle interactively. *)
let params_term =
  let default = Po_experiments.Common.default_params in
  let n_cps =
    Arg.(
      value
      & opt int default.Po_experiments.Common.n_cps
      & info [ "n"; "cps" ] ~docv:"N"
          ~doc:"Ensemble size (number of CPs); the paper uses 1000.")
  in
  let seed =
    Arg.(
      value
      & opt int default.Po_experiments.Common.seed
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"PRNG seed; every figure is bit-reproducible from it.")
  in
  let points =
    Arg.(
      value
      & opt int default.Po_experiments.Common.sweep_points
      & info [ "points" ] ~docv:"P"
          ~doc:"Sweep resolution (points per axis); the paper uses 33.")
  in
  let jobs =
    Arg.(
      value
      & opt int (Po_par.Pool.default_domains ())
      & info [ "j"; "jobs" ] ~docv:"JOBS"
          ~doc:
            "Worker domains for sweep evaluation.  $(docv)=1 runs the \
             serial path; any value produces byte-identical output (the \
             parallel engine is deterministic), so the default is the \
             machine's recommended domain count.")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECS"
          ~doc:
            "Wall-clock budget for the whole run.  Checked cooperatively \
             at chunk and solver iteration boundaries; on expiry the run \
             fails with a typed deadline error (and a resume hint when \
             checkpointing is on) instead of hanging.")
  in
  let retries =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Re-run a crashed or timed-out sweep chunk up to $(docv) \
             times before giving up.  Chunks are pure functions of their \
             index, so a retried run is byte-identical to a fault-free \
             one.")
  in
  let no_degrade =
    Arg.(
      value & flag
      & info [ "no-degrade" ]
          ~doc:
            "Fail the figure when the chunk circuit breaker opens instead \
             of falling back to serial in-caller evaluation.")
  in
  let chunk_timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "chunk-timeout" ] ~docv:"SECS"
          ~doc:
            "Watchdog limit per sweep chunk: a chunk whose evaluation \
             exceeds $(docv) seconds raises a retryable chunk-timeout \
             error.")
  in
  let make n_cps seed sweep_points jobs deadline retries no_degrade
      chunk_timeout =
    let sup =
      match
        Po_guard.Po_error.capture (fun () ->
            let budget =
              Option.map
                (fun d -> Po_sup.Budget.start ~deadline:d ())
                deadline
            in
            Po_sup.Supervise.v ?budget ~retries ~degrade:(not no_degrade)
              ?chunk_timeout ())
      with
      | Ok sup -> sup
      | Error e ->
          Printf.eprintf "ponet: %s\n" (Po_guard.Po_error.to_string e);
          exit 2
    in
    { Po_experiments.Common.n_cps; seed; sweep_points; jobs = max 1 jobs;
      checkpoint = None; sup }
  in
  Term.(
    const make $ n_cps $ seed $ points $ jobs $ deadline $ retries
    $ no_degrade $ chunk_timeout)

let list_cmd =
  let run () =
    List.iter
      (fun (e : Po_experiments.Registry.entry) ->
        Printf.printf "%-6s %s\n" e.Po_experiments.Registry.id
          e.Po_experiments.Registry.description)
      Po_experiments.Registry.entries
  in
  Cmd.v (Cmd.info "list" ~doc:"List reproducible experiments")
    Term.(const run $ const ())

let fig_cmd =
  let id =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ID" ~doc:"Figure id (see 'ponet list').")
  in
  let csv_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR" ~doc:"Also write CSV files under $(docv).")
  in
  let no_plots =
    Arg.(value & flag & info [ "no-plots" ] ~doc:"Skip the ASCII plots.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Replay the sweep chunks an interrupted run journalled under \
             the checkpoint directory instead of recomputing them.  The \
             resumed figure is byte-identical to an uninterrupted run, \
             for any $(b,--jobs) on either side.")
  in
  let checkpoint_dir =
    Arg.(
      value
      & opt string ".ponet-checkpoints"
      & info [ "checkpoint-dir" ] ~docv:"DIR"
          ~doc:"Where sweep checkpoint journals live.")
  in
  let no_checkpoint =
    Arg.(
      value & flag
      & info [ "no-checkpoint" ]
          ~doc:"Disable sweep checkpointing for this run.")
  in
  let inject =
    Arg.(
      value
      & opt (some string) None
      & info [ "inject" ] ~docv:"SPEC"
          ~doc:
            "Arm deterministic fault injection, e.g. \
             $(b,solver@3,worker@1,write@2,timeout@1,slow@2,flaky@3:2): \
             fail the k-th solver call, the chunk with logical index k \
             (as a crash, a watchdog timeout, an over-limit sleep, or n \
             transient crashes for $(b,flaky@k:n)), or the k-th atomic \
             write.  Chunk indices are pure functions of the sweep \
             geometry, so an injected fault fires at the same place for \
             any $(b,--jobs).  Sites named here override the same site \
             in $(b,PONET_INJECT); sites the flag leaves unset fall back \
             to the environment spec.")
  in
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Arm the tracer and export a Chrome trace-event JSON of this \
             run to $(docv) (open in chrome://tracing or Perfetto).  The \
             figure output itself is unchanged.")
  in
  let metrics_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Arm the metrics registry and export a JSON snapshot \
             (counters, gauges, histograms) plus the run manifest to \
             $(docv).  Counter values are identical for any $(b,--jobs).")
  in
  let run id params csv_dir no_plots resume checkpoint_dir no_checkpoint
      inject trace_file metrics_file =
    (* [--inject] wins per site; [PONET_INJECT] fills the sites the flag
       leaves unset (Faultinject.merge).  Both specs must parse even
       when one ends up fully shadowed. *)
    let parse_spec ~origin spec =
      match Po_guard.Faultinject.parse spec with
      | Ok spec -> spec
      | Error msg ->
          Printf.eprintf "ponet fig: bad %s spec: %s\n" origin msg;
          exit 2
    in
    let env_spec =
      Option.map
        (parse_spec ~origin:"PONET_INJECT")
        (Sys.getenv_opt "PONET_INJECT")
    in
    let flag_spec = Option.map (parse_spec ~origin:"--inject") inject in
    (match (env_spec, flag_spec) with
    | None, None -> Po_guard.Faultinject.disarm ()
    | Some spec, None | None, Some spec -> Po_guard.Faultinject.arm spec
    | Some base, Some override ->
        Po_guard.Faultinject.arm (Po_guard.Faultinject.merge ~base ~override));
    let observing = trace_file <> None || metrics_file <> None in
    if trace_file <> None then Po_obs.Trace.arm ();
    if observing then Po_obs.Metrics.arm ();
    let params =
      { params with
        Po_experiments.Common.checkpoint =
          (if no_checkpoint then None
           else
             Some { Po_experiments.Common.dir = checkpoint_dir; resume }) }
    in
    match Po_experiments.Registry.find id with
    | None ->
        Printf.eprintf "unknown figure id %S; try 'ponet list'\n" id;
        exit 1
    | Some entry -> (
        let t0 = if observing then Po_obs.Clock.now_s () else 0. in
        (* Manifest provenance: enough to tell two exports apart
           (DESIGN.md §11). *)
        let export_observations () =
          if observing then begin
            let manifest =
              Po_obs.Manifest.make ~figure:id
                ~params_hash:
                  (Po_obs.Manifest.params_hash
                     ~n_cps:params.Po_experiments.Common.n_cps
                     ~seed:params.Po_experiments.Common.seed
                     ~sweep_points:params.Po_experiments.Common.sweep_points)
                ~jobs:params.Po_experiments.Common.jobs
                ~wall_s:(Po_obs.Clock.now_s () -. t0)
                ~warnings:(Po_guard.Warnings.count ())
                ()
            in
            let manifest_json = Po_obs.Manifest.to_json manifest in
            (match trace_file with
            | None -> ()
            | Some path ->
                Po_obs.Trace.export
                  ~other:[ ("manifest", manifest_json) ]
                  ~path ();
                Printf.printf "wrote trace to %s\n" path);
            match metrics_file with
            | None -> ()
            | Some path ->
                Po_report.Writer.write_atomic ~path
                  (Po_obs.Json.to_string
                     (Po_obs.Json.Obj
                        [ ("schema", Po_obs.Json.String "po-metrics-v1");
                          ("manifest", manifest_json);
                          ("metrics", Po_obs.Metrics.snapshot_json ()) ])
                  ^ "\n");
                Printf.printf "wrote metrics to %s\n" path
          end
        in
        match
          Po_guard.Po_error.capture (fun () ->
              let figure = entry.Po_experiments.Registry.generate ~params () in
              print_string
                (Po_experiments.Common.render ~plots:(not no_plots) figure);
              match csv_dir with
              | None -> ()
              | Some dir ->
                  let written = Po_experiments.Common.csv_files ~dir figure in
                  List.iter (Printf.printf "wrote %s\n") written)
        with
        | Ok () -> export_observations ()
        | Error e ->
            (* A failed run still exports whatever it observed — that is
               when a trace is most useful. *)
            export_observations ();
            Printf.eprintf "ponet fig: %s\n" (Po_guard.Po_error.to_string e);
            (if not no_checkpoint then
               Printf.eprintf
                 "ponet fig: completed chunks are journalled under %s; \
                  re-run with --resume to pick up where this run stopped\n"
                 checkpoint_dir);
            exit 1)
  in
  Cmd.v
    (Cmd.info "fig" ~doc:"Regenerate one of the paper's figures")
    Term.(
      const run $ id $ params_term $ csv_dir $ no_plots $ resume
      $ checkpoint_dir $ no_checkpoint $ inject $ trace_file $ metrics_file)

let claims_cmd =
  let run params =
    let checks = Po_experiments.Claims.all ~params () in
    print_string (Po_experiments.Claims.render checks);
    if List.exists (fun c -> not c.Po_experiments.Claims.passed) checks then
      exit 1
  in
  Cmd.v
    (Cmd.info "claims" ~doc:"Audit the paper's theorems numerically")
    Term.(const run $ params_term)

let regimes_cmd =
  let nu_frac =
    Arg.(
      value
      & opt float Po_serve.Request.default_scenario.Po_serve.Request.nu_frac
      & info [ "capacity" ] ~docv:"FRAC"
          ~doc:"Per-capita capacity as a fraction of saturation.")
  in
  let po_share =
    Arg.(
      value & opt float Po_serve.Request.default_po_share
      & info [ "po-share" ] ~docv:"S"
          ~doc:"Capacity share carved out for the Public Option ISP.")
  in
  (* The solve goes through [Po_serve.Engine] — the same code path the
     daemon batches — at the query defaults, so this table and a daemon
     [regimes] answer can never disagree. *)
  let run params nu_frac po_share =
    let sc =
      { Po_serve.Request.n_cps = params.Po_experiments.Common.n_cps;
        seed = params.Po_experiments.Common.seed; nu_frac }
    in
    let out =
      Po_serve.Engine.regimes ~sc ~po_share
        ~levels:Po_serve.Request.default_levels
        ~points:Po_serve.Request.default_points ()
    in
    Printf.printf "%d CPs, nu = %.2f (%.0f%% of saturation)\n"
      out.Po_serve.Engine.n_cps out.Po_serve.Engine.nu (100. *. nu_frac);
    List.iter
      (fun { Po_core.Public_option.result = r; _ } ->
        Printf.printf "  %-34s Phi = %10.4f  Psi = %10.4f%s%s\n"
          r.Po_core.Public_option.label r.Po_core.Public_option.phi
          r.Po_core.Public_option.psi
          (match r.Po_core.Public_option.commercial_strategy with
          | Some s -> "  strategy " ^ Po_core.Strategy.to_string s
          | None -> "")
          (match r.Po_core.Public_option.market_share with
          | Some m -> Printf.sprintf "  m_I=%.4f" m
          | None -> ""))
      out.Po_serve.Engine.regimes
  in
  Cmd.v
    (Cmd.info "regimes" ~doc:"Compare regulatory regimes on one market")
    Term.(const run $ params_term $ nu_frac $ po_share)

let welfare_cmd =
  let nu_frac =
    Arg.(
      value
      & opt float Po_serve.Request.default_scenario.Po_serve.Request.nu_frac
      & info [ "capacity" ] ~docv:"FRAC"
          ~doc:"Per-capita capacity as a fraction of saturation.")
  in
  (* The regime search of a daemon [welfare] answer: its defaults, so
     the two print the same decomposition. *)
  let run params nu_frac =
    let sc =
      { Po_serve.Request.n_cps = params.Po_experiments.Common.n_cps;
        seed = params.Po_experiments.Common.seed; nu_frac }
    in
    let out =
      Po_serve.Engine.regimes
        ?pool:(Po_experiments.Common.pool params)
        ~sc ~po_share:Po_serve.Request.default_po_share
        ~levels:Po_serve.Request.default_levels
        ~points:Po_serve.Request.default_points ()
    in
    Printf.printf "%d CPs, nu = %.2f (%.0f%% of saturation)\n"
      out.Po_serve.Engine.n_cps out.Po_serve.Engine.nu (100. *. nu_frac);
    Printf.printf "%-34s %12s %12s %12s %12s\n" "regime" "consumer" "isp"
      "cp" "total";
    List.iter
      (fun { Po_core.Public_option.result; welfare = w } ->
        Printf.printf "%-34s %12.4f %12.4f %12.4f %12.4f\n"
          result.Po_core.Public_option.label w.Po_core.Welfare.consumer
          w.Po_core.Welfare.isp w.Po_core.Welfare.cp w.Po_core.Welfare.total)
      out.Po_serve.Engine.regimes
  in
  Cmd.v
    (Cmd.info "welfare"
       ~doc:"Three-party welfare decomposition per regulatory regime")
    Term.(const run $ params_term $ nu_frac)

let ensemble_cmd =
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the population CSV here.")
  in
  let heavy =
    Arg.(
      value & flag
      & info [ "heavy-tailed" ]
          ~doc:"Draw the Zipf/Pareto ensemble instead of the paper's \
                uniform one.")
  in
  let run params heavy out =
    let cps =
      if heavy then
        Po_workload.Ensemble.heavy_tailed_ensemble
          ~n:params.Po_experiments.Common.n_cps
          ?pool:(Po_experiments.Common.pool params)
          ~seed:params.Po_experiments.Common.seed ()
      else Po_experiments.Common.ensemble params
    in
    match Po_workload.Io.write_file ~path:out cps with
    | Ok () ->
        Printf.printf "wrote %d CPs to %s (saturation nu = %.2f)\n"
          (Array.length cps) out
          (Po_workload.Ensemble.saturation_nu cps)
    | Error e ->
        prerr_endline e;
        exit 1
  in
  Cmd.v
    (Cmd.info "ensemble"
       ~doc:"Draw a CP population and archive it as CSV")
    Term.(const run $ params_term $ heavy $ out)

let lint_cmd =
  let paths =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"PATH"
          ~doc:
            "Files or directories to lint (default: the standard source \
             roots lib bin bench test examples).")
  in
  let allowlist =
    Arg.(
      value
      & opt (some string) None
      & info [ "allowlist" ] ~docv:"FILE"
          ~doc:
            "Per-rule allowlist file (default: polint.allow when \
             present).")
  in
  let typed =
    Arg.(
      value & flag
      & info [ "typed" ]
          ~doc:
            "Also run the typed-tree rules (R7-R10) over the .cmt files \
             of the last dune build.")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Lint files on N domains of a po_par pool; output is \
             identical for any N.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the polint-v1 JSON envelope.")
  in
  let run paths allowlist typed jobs json =
    match
      Po_lint.Lint.run ?allowlist_path:allowlist ~paths ~typed ?jobs ()
    with
    | Error msg ->
        prerr_endline ("ponet lint: " ^ msg);
        exit 2
    | Ok r -> (
        List.iter
          (fun note -> Printf.eprintf "ponet lint: note: %s\n" note)
          r.Po_lint.Lint.typed_notes;
        match r.Po_lint.Lint.diagnostics with
        | [] -> if json then print_endline (Po_lint.Diagnostic.list_to_json [])
        | diags ->
            if json then print_endline (Po_lint.Diagnostic.list_to_json diags)
            else
              List.iter
                (fun d -> print_endline (Po_lint.Diagnostic.to_string d))
                diags;
            Printf.eprintf "ponet lint: %d violation%s\n" (List.length diags)
              (if List.length diags = 1 then "" else "s");
            let meta (d : Po_lint.Diagnostic.t) =
              match d.Po_lint.Diagnostic.rule with
              | "parse" | "suppress" -> true
              | _ -> false
            in
            exit (if List.exists meta diags then 2 else 1))
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run polint, the determinism & float-safety linter, over the \
          source tree")
    Term.(const run $ paths $ allowlist $ typed $ jobs $ json)

let bench_diff_cmd =
  let baseline =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"BASELINE" ~doc:"Baseline po-bench-v1 JSON file.")
  in
  let current =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"CURRENT" ~doc:"Current po-bench-v1 JSON file.")
  in
  let max_slowdown =
    Arg.(
      value
      & opt float Po_obs.Bench_diff.default_thresholds.max_slowdown_pct
      & info [ "max-slowdown" ] ~docv:"PCT"
          ~doc:"Fail when a kernel's ns_per_run grows by more than $(docv)%.")
  in
  let max_speedup_drop =
    Arg.(
      value
      & opt float Po_obs.Bench_diff.default_thresholds.max_speedup_drop_pct
      & info [ "max-speedup-drop" ] ~docv:"PCT"
          ~doc:
            "Fail when a figure's parallel speedup drops by more than \
             $(docv)%.")
  in
  let report =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:"Also write the comparison table to $(docv).")
  in
  let run baseline current max_slowdown_pct max_speedup_drop_pct report =
    let thresholds =
      { Po_obs.Bench_diff.max_slowdown_pct; max_speedup_drop_pct }
    in
    match
      Po_obs.Bench_diff.compare_files ~thresholds ~baseline ~current ()
    with
    | Error msg ->
        Printf.eprintf "ponet bench-diff: %s\n" msg;
        exit 2
    | Ok r ->
        let table = Po_obs.Bench_diff.render r in
        print_string table;
        (match report with
        | None -> ()
        | Some path -> Po_report.Writer.write_atomic ~path table);
        if Po_obs.Bench_diff.has_regression r then exit 1
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare two po-bench-v1 benchmark files and fail on regressions"
       ~man:
         [ `S Manpage.s_description;
           `P
             "Compares the benchmark JSON emitted by the bench runner \
              ($(b,bench/main.ml --bench-only), written to \
              results/bench.json) against a committed baseline.  Exits 1 \
              when any kernel slows down or any sweep speedup drops past \
              its threshold, 2 on unreadable or non-po-bench-v1 input." ])
    Term.(
      const run $ baseline $ current $ max_slowdown $ max_speedup_drop
      $ report)

let simulate_cmd =
  let nu =
    Arg.(
      value & opt float 2.5
      & info [ "nu" ] ~docv:"NU" ~doc:"Per-capita capacity (model units).")
  in
  let churn =
    Arg.(value & flag & info [ "churn" ] ~doc:"Enable demand churn.")
  in
  let run nu churn =
    let cps = Po_workload.Scenario.three_cp () in
    let r = Po_netsim.Validate.compare ~with_churn:churn ~nu cps in
    Printf.printf
      "AIMD vs max-min at nu=%.2f (utilization %.3f, max err %.3f)\n" nu
      r.Po_netsim.Validate.utilization
      r.Po_netsim.Validate.max_relative_error;
    Array.iter
      (fun (c : Po_netsim.Validate.cp_comparison) ->
        Printf.printf "  %-8s flows=%2d sim=%10.1f model=%10.1f err=%.3f\n"
          c.Po_netsim.Validate.label c.Po_netsim.Validate.flows
          c.Po_netsim.Validate.simulated_rate
          c.Po_netsim.Validate.predicted_rate
          c.Po_netsim.Validate.relative_error)
      r.Po_netsim.Validate.per_cp
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Run the packet-level AIMD simulation against the model")
    Term.(const run $ nu $ churn)

let serve_cmd =
  let default = Po_serve.Server.default_config in
  let socket =
    Arg.(
      value & opt string default.Po_serve.Server.socket_path
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix-domain socket to listen on (a stale file is replaced).")
  in
  let domains =
    Arg.(
      value & opt int default.Po_serve.Server.domains
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for batch evaluation; answers are \
             byte-identical for any value.")
  in
  let queue =
    Arg.(
      value & opt int default.Po_serve.Server.queue_capacity
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Admission queue bound; requests beyond it are shed with a \
             typed 'overloaded' response.")
  in
  let batch =
    Arg.(
      value & opt int default.Po_serve.Server.batch_max
      & info [ "batch" ] ~docv:"N"
          ~doc:"Maximum requests drained per dispatch round.")
  in
  let cache =
    Arg.(
      value & opt int default.Po_serve.Server.cache_capacity
      & info [ "cache" ] ~docv:"N"
          ~doc:"Solve-cache entries (LRU); 0 disables caching.")
  in
  let deadline =
    Arg.(
      value & opt (some float) default.Po_serve.Server.default_deadline_s
      & info [ "default-deadline" ] ~docv:"SECS"
          ~doc:
            "Budget applied to requests that carry no deadline_s of \
             their own.")
  in
  let max_bytes =
    Arg.(
      value & opt int default.Po_serve.Server.max_request_bytes
      & info [ "max-request-bytes" ] ~docv:"N"
          ~doc:"Reject (and close) request lines longer than $(docv).")
  in
  let access_log =
    Arg.(
      value & opt (some string) None
      & info [ "access-log" ] ~docv:"FILE"
          ~doc:"Append one JSON line per request to $(docv).")
  in
  let snapshot =
    Arg.(
      value & opt (some string) None
      & info [ "snapshot" ] ~docv:"FILE"
          ~doc:
            "Export a po-serve-metrics-v1 document (metrics snapshot \
             plus run manifest) to $(docv) on graceful shutdown.")
  in
  let hold =
    Arg.(
      value & opt float 0.
      & info [ "hold" ] ~docv:"SECS"
          ~doc:
            "Testing hook: pause the dispatcher $(docv) seconds before \
             each batch, so overload behaviour can be exercised \
             deterministically.")
  in
  let run socket_path domains queue_capacity batch_max cache_capacity
      default_deadline_s max_request_bytes access_log snapshot_path hold_s =
    let cfg =
      { Po_serve.Server.socket_path; domains = max 1 domains;
        queue_capacity = max 1 queue_capacity; batch_max = max 1 batch_max;
        cache_capacity; default_deadline_s; max_request_bytes;
        access_log; snapshot_path; hold_s }
    in
    Printf.printf "ponet serve: listening on %s (domains=%d queue=%d)\n"
      cfg.Po_serve.Server.socket_path cfg.Po_serve.Server.domains
      cfg.Po_serve.Server.queue_capacity;
    (* The line must be visible before the blocking accept loop: CI and
       scripts wait for it to know the socket is ready. *)
    flush stdout;
    (match Po_serve.Server.run cfg with
    | () -> ()
    | exception Unix.Unix_error (e, fn, arg) ->
        Printf.eprintf "ponet serve: %s: %s %s\n" (Unix.error_message e) fn
          arg;
        exit 1);
    Printf.printf "ponet serve: drained and stopped\n"
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the long-lived scenario-query daemon"
       ~man:
         [ `S Manpage.s_description;
           `P
             "Listens on a Unix-domain socket for newline-delimited JSON \
              requests (equilibrium, surplus, regime comparison, welfare, \
              figure points), batches them onto a domain pool, answers \
              repeats from an LRU solve cache byte-identically, and sheds \
              load past the admission bound with typed 'overloaded' \
              responses.  SIGTERM/SIGINT drain every admitted request \
              before the process exits." ])
    Term.(
      const run $ socket $ domains $ queue $ batch $ cache $ deadline
      $ max_bytes $ access_log $ snapshot $ hold)

let query_cmd =
  let line =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"REQUEST"
          ~doc:
            "One wire-protocol JSON request line, e.g. \
             '{\"query\":\"regimes\",\"params\":{\"n_cps\":100}}'.")
  in
  (* Exactly the daemon's pipeline — parse, budget, [Engine.eval],
     render — minus the socket: the printed line is byte-identical to
     the daemon's answer for the same request. *)
  let run line =
    match Po_serve.Request.of_line line with
    | Error e ->
        print_endline (Po_serve.Request.response_line (Error e));
        exit 1
    | Ok req ->
        let budget =
          Option.map
            (fun d -> Po_sup.Budget.start ~deadline:d ())
            req.Po_serve.Request.deadline_s
        in
        let resp =
          Po_serve.Engine.eval ?budget req.Po_serve.Request.query
        in
        print_endline (Po_serve.Request.response_line resp);
        (match resp with Ok _ -> () | Error _ -> exit 1)
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Answer one serve-protocol request without a daemon")
    Term.(const run $ line)

let loadgen_cmd =
  let default = Po_serve.Loadgen.default_config in
  let socket =
    Arg.(
      value & opt string default.Po_serve.Loadgen.socket_path
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Socket of the daemon under load.")
  in
  let requests =
    Arg.(
      value & opt int default.Po_serve.Loadgen.requests
      & info [ "n"; "requests" ] ~docv:"N"
          ~doc:"Total requests across all clients.")
  in
  let clients =
    Arg.(
      value & opt int default.Po_serve.Loadgen.clients
      & info [ "clients" ] ~docv:"N" ~doc:"Concurrent connections.")
  in
  let seed =
    Arg.(
      value & opt int default.Po_serve.Loadgen.seed
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Root seed of the request stream; equal seeds send equal \
             per-client request sequences.")
  in
  let scenarios =
    Arg.(
      value & opt int default.Po_serve.Loadgen.scenarios
      & info [ "scenarios" ] ~docv:"N"
          ~doc:
            "Distinct scenario pool size; repeats exercise the daemon's \
             solve cache.")
  in
  let deadline =
    Arg.(
      value & opt (some float) default.Po_serve.Loadgen.deadline_s
      & info [ "deadline" ] ~docv:"SECS"
          ~doc:"Per-request deadline attached to every solve query.")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the po-serve-v1 report to $(docv).")
  in
  let run socket_path requests clients seed scenarios deadline_s out_path =
    let cfg =
      { Po_serve.Loadgen.socket_path; requests; clients; seed; scenarios;
        deadline_s; out_path }
    in
    match Po_serve.Loadgen.run cfg with
    | exception Unix.Unix_error (e, fn, arg) ->
        Printf.eprintf "ponet loadgen: %s: %s %s\n" (Unix.error_message e)
          fn arg;
        exit 1
    | s ->
        Printf.printf
          "sent %d  ok %d  errors %d  protocol-errors %d\n\
           p50 %.2f ms  p99 %.2f ms  max %.2f ms\n\
           %.1f req/s over %.2f s\n"
          s.Po_serve.Loadgen.sent s.Po_serve.Loadgen.ok
          s.Po_serve.Loadgen.errors s.Po_serve.Loadgen.protocol_errors
          s.Po_serve.Loadgen.p50_ms s.Po_serve.Loadgen.p99_ms
          s.Po_serve.Loadgen.max_ms s.Po_serve.Loadgen.throughput_rps
          s.Po_serve.Loadgen.wall_s;
        List.iter
          (fun (k, v) -> Printf.printf "  %-24s %d\n" k v)
          s.Po_serve.Loadgen.server_counters;
        (match out_path with
        | Some path -> Printf.printf "wrote %s\n" path
        | None -> ());
        if s.Po_serve.Loadgen.protocol_errors > 0 then begin
          (match s.Po_serve.Loadgen.first_protocol_error with
          | Some msg -> Printf.eprintf "ponet loadgen: %s\n" msg
          | None -> ());
          exit 1
        end
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Run the deterministic seeded load generator against a daemon")
    Term.(
      const run $ socket $ requests $ clients $ seed $ scenarios $ deadline
      $ out)

let () =
  let doc =
    "reproduction of 'The Public Option: a Non-regulatory Alternative to \
     Network Neutrality' (Ma & Misra, CoNEXT 2011)"
  in
  let info = Cmd.info "ponet" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; fig_cmd; claims_cmd; regimes_cmd; welfare_cmd;
            ensemble_cmd; simulate_cmd; lint_cmd; bench_diff_cmd; serve_cmd;
            query_cmd; loadgen_cmd ]))
