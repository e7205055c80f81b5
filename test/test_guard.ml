(* Fault-tolerance suite (DESIGN.md §10): the typed error channel, the
   deterministic fault-injection sites, the hardened pool's failure
   semantics, the crash-safe writer, and jobs-invariance of checkpoint
   journals across an injected crash and resume. *)

open Po_guard

let with_disarm f = Fun.protect ~finally:(fun () -> Faultinject.disarm ()) f
let spec ?solver ?worker ?write ?timeout ?slow ?flaky () =
  { Faultinject.solver; worker; write; timeout; slow; flaky }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let fresh_dir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) name in
  if Sys.file_exists dir then rm_rf dir;
  dir

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* ------------------------------------------------------------------ *)
(* Po_error                                                           *)
(* ------------------------------------------------------------------ *)

let test_error_context () =
  let e =
    Po_error.v
      ~context:[ ("figure", "fig4"); ("chunk", "3") ]
      (Po_error.Non_convergence { residual = 0.5; iterations = 7 })
  in
  Alcotest.(check string)
    "context frames render"
    "did not converge after 7 iterations (residual 0.5) [figure=fig4 chunk=3]"
    (Po_error.to_string e);
  (match
     Po_error.capture (fun () ->
         Po_error.with_context
           (fun () -> [ ("outer", "a") ])
           (fun () ->
             Po_error.fail ~context:[ ("inner", "b") ]
               (Po_error.No_bracket "x")))
   with
  | Error { context = [ ("outer", "a"); ("inner", "b") ]; _ } -> ()
  | Error e -> Alcotest.failf "wrong frames: %s" (Po_error.to_string e)
  | Ok () -> Alcotest.fail "expected a typed error");
  Alcotest.(check bool)
    "capture passes values through" true
    (Po_error.capture (fun () -> true) = Ok true);
  match Po_error.capture (fun () -> failwith "raw") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "capture must not swallow untyped exceptions"

(* ------------------------------------------------------------------ *)
(* Faultinject                                                        *)
(* ------------------------------------------------------------------ *)

let test_spec_parse () =
  (match Faultinject.parse "solver@3,worker@1" with
  | Ok { solver = Some 3; worker = Some 1; write = None; _ } -> ()
  | Ok s -> Alcotest.failf "mis-parsed: %s" (Faultinject.to_string s)
  | Error e -> Alcotest.fail e);
  (match Faultinject.parse " write@2 " with
  | Ok { write = Some 2; solver = None; worker = None; _ } -> ()
  | Ok s -> Alcotest.failf "mis-parsed: %s" (Faultinject.to_string s)
  | Error e -> Alcotest.fail e);
  (match Faultinject.parse "worker@0" with
  | Ok { worker = Some 0; _ } -> ()
  | Ok s -> Alcotest.failf "mis-parsed: %s" (Faultinject.to_string s)
  | Error e -> Alcotest.fail e);
  (match Faultinject.parse "timeout@2,slow@1,flaky@3:2" with
  | Ok { timeout = Some 2; slow = Some 1; flaky = Some (3, 2); _ } -> ()
  | Ok s -> Alcotest.failf "mis-parsed: %s" (Faultinject.to_string s)
  | Error e -> Alcotest.fail e);
  let rejects s =
    match Faultinject.parse s with
    | Ok _ -> Alcotest.failf "accepted bad spec %S" s
    | Error _ -> ()
  in
  rejects "";
  rejects "solver@0";
  rejects "write@-1";
  rejects "disk@3";
  rejects "solver";
  rejects "solver@x";
  rejects "timeout@-1";
  rejects "slow@x";
  rejects "flaky@1";
  rejects "flaky@1:0";
  rejects "flaky@-1:2";
  rejects "flaky@1:2:3"

let test_spec_roundtrip () =
  let s = spec ~solver:2 ~worker:0 ~write:5 ~timeout:1 ~slow:3 ~flaky:(2, 4) () in
  match Faultinject.parse (Faultinject.to_string s) with
  | Ok s' ->
      Alcotest.(check string)
        "round trip" (Faultinject.to_string s) (Faultinject.to_string s')
  | Error e -> Alcotest.fail e

let test_fire_counters () =
  with_disarm (fun () ->
      Alcotest.(check bool)
        "disarmed never fires" false
        (Faultinject.fire Faultinject.Solver ~key:0);
      Faultinject.arm (spec ~solver:2 ~worker:4 ());
      Alcotest.(check bool)
        "solver call 1 of 2 passes" false
        (Faultinject.fire Faultinject.Solver ~key:0);
      Alcotest.(check bool)
        "solver call 2 of 2 fires" true
        (Faultinject.fire Faultinject.Solver ~key:0);
      Alcotest.(check bool)
        "solver fires exactly once" false
        (Faultinject.fire Faultinject.Solver ~key:0);
      Alcotest.(check bool)
        "worker keyed by chunk index, not a counter" true
        (Faultinject.fire Faultinject.Worker ~key:4);
      Alcotest.(check bool)
        "other chunks pass" false
        (Faultinject.fire Faultinject.Worker ~key:3);
      Faultinject.arm (spec ~solver:1 ());
      Alcotest.(check bool)
        "re-arming resets the counters" true
        (Faultinject.fire Faultinject.Solver ~key:0))

(* ------------------------------------------------------------------ *)
(* Solver fault site through the model layer                          *)
(* ------------------------------------------------------------------ *)

let test_solver_site () =
  with_disarm (fun () ->
      let cps = Po_workload.Scenario.three_cp () in
      (* nu = 0.01 is deep in the congested regime for this scenario
         (fig3 sweeps it from exactly there), so the solve reaches the
         guarded path. *)
      let solve () =
        Po_error.capture (fun () -> Po_model.Equilibrium.solve ~nu:0.01 cps)
      in
      (match solve () with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "disarmed solve failed: %s" (Po_error.to_string e));
      Faultinject.arm (spec ~solver:1 ());
      match solve () with
      | Error
          { kind = Po_error.Non_convergence _;
            context = ("injected", "solver") :: _
          } ->
          ()
      | Error e -> Alcotest.failf "wrong error: %s" (Po_error.to_string e)
      | Ok _ -> Alcotest.fail "armed solver site did not fire")

(* The frames a failed congested solve carries: [solver], [nu] printed
   with %.17g (so the exact capacity round-trips) and [cps], in that
   order — for an injected fault (after its "injected" frame) and for a
   demand curve whose saturated aggregate falls short of nu
   ([No_bracket]). *)
let test_solver_frames () =
  let frames nu n =
    [ ("solver", "equilibrium"); ("nu", Printf.sprintf "%.17g" nu);
      ("cps", string_of_int n) ]
  in
  let check_frames name expected = function
    | Error { Po_error.context; _ } ->
        Alcotest.(check (list (pair string string))) name expected context
    | Ok _ -> Alcotest.failf "%s: expected a typed error" name
  in
  with_disarm (fun () ->
      let cps = Po_workload.Scenario.three_cp () in
      let nu = 0.1 /. 3. in
      Faultinject.arm (spec ~solver:1 ());
      check_frames "injected fault"
        (("injected", "solver") :: frames nu 3)
        (Po_error.capture (fun () -> Po_model.Equilibrium.solve ~nu cps)));
  let half = Po_model.Demand.of_fun ~name:"half" (fun _ -> 0.5) in
  let cps =
    Array.init 4 (fun id ->
        Po_model.Cp.make ~id ~alpha:1.
          ~theta_hat:(1. +. float_of_int id)
          ~demand:half ())
  in
  (* The saturated aggregate is 0.5 * 10; nu = 7 lies between it and the
     unconstrained 10, so the solve is congested and cannot bracket. *)
  let nu = 7. +. 1e-13 in
  let result =
    Po_error.capture (fun () -> Po_model.Equilibrium.solve ~nu cps)
  in
  (match result with
  | Error { Po_error.kind = Po_error.No_bracket _; _ } -> ()
  | _ -> Alcotest.fail "expected No_bracket");
  check_frames "no bracket" (frames nu 4) result;
  (* Members with theta_hat 1, 2 and 4: saturated 3.5, unconstrained 7. *)
  let nu = 5. +. 1e-13 in
  let market = Po_model.Equilibrium.market cps in
  check_frames "no bracket, market subset" (frames nu 3)
    (Po_error.capture (fun () ->
         Po_model.Equilibrium.solve_subset ~nu market [| 0; 1; 3 |]))

(* The CP game at a boundary: a spent iteration budget is a best-effort
   outcome that [ensure_converged] under [capture] turns into a typed
   Non_convergence, and a domain error is the raw solver's
   [Invalid_argument]. *)
let test_cp_game_boundary () =
  let open Po_core in
  let cps = Po_workload.Ensemble.paper_ensemble ~n:10 ~seed:3 () in
  let nu = 0.3 *. Po_workload.Ensemble.saturation_nu cps in
  let strategy = Strategy.make ~kappa:0.5 ~c:0.3 in
  let non_convergence name solve =
    match Po_error.capture (fun () -> Cp_game.ensure_converged (solve ())) with
    | Error { Po_error.kind = Po_error.Non_convergence _; context } -> (
        match List.assoc_opt "solver" context with
        | Some "cp_game" -> ()
        | _ -> Alcotest.failf "%s: no solver=cp_game frame" name)
    | Error e -> Alcotest.failf "%s: wrong error: %s" name (Po_error.to_string e)
    | Ok _ -> Alcotest.failf "%s: expected Non_convergence" name
  in
  non_convergence "solve ~max_iter:0" (fun () ->
      Cp_game.solve ~max_iter:0 ~nu ~strategy cps);
  non_convergence "solve_nash ~max_rounds:0" (fun () ->
      Cp_game.solve_nash ~max_rounds:0 ~nu ~strategy cps);
  Alcotest.check_raises "solve nu < 0"
    (Invalid_argument "Cp_game.solve: nu < 0") (fun () ->
      ignore (Cp_game.solve ~nu:(-1.) ~strategy cps));
  Alcotest.check_raises "solve_nash nu < 0"
    (Invalid_argument "Cp_game.solve_nash: nu < 0") (fun () ->
      ignore (Cp_game.solve_nash ~nu:(-1.) ~strategy cps))

(* ------------------------------------------------------------------ *)
(* Hardened pool                                                      *)
(* ------------------------------------------------------------------ *)

let test_injected_worker_crash () =
  with_disarm (fun () ->
      Po_par.Pool.with_pool ~domains:3 (fun pool ->
          Faultinject.arm (spec ~worker:2 ());
          (* 40 elements in chunks of 4: logical chunk 2 dies, whatever
             the worker count. *)
          (match
             Po_error.capture (fun () ->
                 Po_par.Pool.chain_map ~chunk_size:4 (Some pool)
                   ~step:(fun _ x -> x * 2)
                   (Array.init 40 Fun.id))
           with
          | Error { kind = Po_error.Worker_crash { chunk = 2; _ }; context }
            ->
              Alcotest.(check bool)
                "injected frame present" true
                (List.mem ("injected", "worker") context)
          | Error e -> Alcotest.failf "wrong error: %s" (Po_error.to_string e)
          | Ok _ -> Alcotest.fail "armed worker site did not fire");
          Faultinject.disarm ();
          (* No deadlock, and the pool is reusable after the failure. *)
          Alcotest.(check (array int))
            "pool alive after injected crash"
            (Array.init 40 (fun i -> i * 2))
            (Po_par.Pool.chain_map ~chunk_size:4 (Some pool)
               ~step:(fun _ x -> x * 2)
               (Array.init 40 Fun.id))))

let test_typed_error_passthrough () =
  (* A typed error raised inside mapped work keeps its own kind and gains
     the logical chunk frame; it is not double-wrapped as Worker_crash. *)
  Po_par.Pool.with_pool ~domains:3 (fun pool ->
      match
        Po_error.capture (fun () ->
            Po_par.Pool.chunk_map ~chunk_size:4 (Some pool)
              ~f:(fun x ->
                if x = 9 then
                  Po_error.fail
                    (Po_error.Non_convergence { residual = 1.; iterations = 3 })
                else x)
              (Array.init 40 Fun.id))
      with
      | Error
          { kind = Po_error.Non_convergence { iterations = 3; _ }; context }
        ->
          Alcotest.(check bool)
            "chunk frame stamped" true
            (List.mem ("chunk", "2") context)
      | Error e -> Alcotest.failf "wrong error: %s" (Po_error.to_string e)
      | Ok _ -> Alcotest.fail "typed error did not propagate")

let test_spawn_degradation () =
  (* Ask for far more domains than the runtime can host: create must
     degrade to however many workers spawned, warn once through
     Po_guard.Warnings, and still run work correctly. *)
  let warnings = ref [] in
  Warnings.set_handler (fun msg -> warnings := msg :: !warnings);
  Fun.protect
    ~finally:(fun () -> Warnings.set_handler prerr_endline)
    (fun () ->
      Po_par.Pool.with_pool ~domains:100_000 (fun pool ->
          Alcotest.(check bool)
            "pool degraded below the request" true
            (Po_par.Pool.domains pool < 100_000);
          Alcotest.(check bool)
            "degradation warned" true
            (List.exists (has_prefix "Pool.create") !warnings);
          Alcotest.(check (array int))
            "degraded pool still maps correctly"
            (Array.init 100 (fun i -> i + 1))
            (Po_par.Pool.parallel_map pool
               (fun x -> x + 1)
               (Array.init 100 Fun.id))))

(* ------------------------------------------------------------------ *)
(* Crash-safe writer                                                  *)
(* ------------------------------------------------------------------ *)

let test_write_atomic () =
  with_disarm (fun () ->
      let dir = fresh_dir "po_guard_writer" in
      let path = Filename.concat dir (Filename.concat "deep" "out.txt") in
      Po_report.Writer.write_atomic ~path "first";
      Alcotest.(check string) "written whole" "first" (read_file path);
      Faultinject.arm (spec ~write:1 ());
      (match
         Po_error.capture (fun () -> Po_report.Writer.write_atomic ~path "torn")
       with
      | Error { kind = Po_error.Io_failure _; _ } -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Po_error.to_string e)
      | Ok () -> Alcotest.fail "armed write site did not fire");
      (* The fault fires inside the crash window (temp written, rename
         pending): the destination must still hold the old content. *)
      Alcotest.(check string)
        "old content survives a failed write" "first" (read_file path);
      Faultinject.disarm ();
      Po_report.Writer.write_atomic ~path "second";
      Alcotest.(check string) "writer recovers" "second" (read_file path))

(* ------------------------------------------------------------------ *)
(* Checkpoint / resume                                                *)
(* ------------------------------------------------------------------ *)

let bits = Array.map Int64.bits_of_float

let check_bits msg expected got =
  Alcotest.(check (array int64)) msg (bits expected) (bits got)

module Common = Po_experiments.Common

(* Warm-start-sensitive step: each value depends on the previous one
   within its chunk, so replayed chunks must be bit-exact for the whole
   sweep to be. *)
let chained_step prev x =
  (0.5 *. Option.value prev ~default:1.) +. sqrt (x +. 1.)

let test_checkpoint_resume_jobs_invariant () =
  with_disarm (fun () ->
      let dir = fresh_dir "po_guard_ck" in
      let xs = Array.init 33 float_of_int in
      let ck resume = Some { Common.dir; resume } in
      let clean =
        Common.with_figure_scope "guardck" (fun () ->
            Common.sweep_chained ~chunk_size:4
              { Common.quick_params with checkpoint = None }
              ~step:chained_step xs)
      in
      (* Interrupted run on 2 domains: chunk 5 crashes; chunks claimed
         before it complete and journal. *)
      Faultinject.arm (spec ~worker:5 ());
      (match
         Po_error.capture (fun () ->
             Common.with_figure_scope "guardck" (fun () ->
                 Common.sweep_chained ~chunk_size:4
                   { Common.quick_params with jobs = 2; checkpoint = ck false }
                   ~step:chained_step xs))
       with
      | Error { kind = Po_error.Worker_crash { chunk = 5; _ }; _ } -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Po_error.to_string e)
      | Ok _ -> Alcotest.fail "armed worker site did not fire");
      Faultinject.disarm ();
      Alcotest.(check bool)
        "journal survives the crash" true
        (Array.exists (has_prefix "guardck") (Sys.readdir dir));
      (* Resume on 1 domain: journalled chunks replay, the rest compute
         fresh; the sweep must equal the uninterrupted run bit for bit
         even though the two runs used different worker counts. *)
      let fresh_calls = ref 0 in
      let counted prev x =
        incr fresh_calls;
        chained_step prev x
      in
      let resumed =
        Common.with_figure_scope "guardck" (fun () ->
            Common.sweep_chained ~chunk_size:4
              { Common.quick_params with jobs = 1; checkpoint = ck true }
              ~step:counted xs)
      in
      check_bits "resumed sweep bit-identical" clean resumed;
      Alcotest.(check bool)
        "journalled chunks were not recomputed" true
        (!fresh_calls < Array.length xs);
      Alcotest.(check bool)
        "the crashed chunk was recomputed" true (!fresh_calls >= 4);
      (* Success removes the figure's journals. *)
      Alcotest.(check bool)
        "journals cleaned after success" false
        (Array.exists (has_prefix "guardck") (Sys.readdir dir)))

let test_corrupt_journal_recomputes () =
  with_disarm (fun () ->
      let dir = fresh_dir "po_guard_ck_corrupt" in
      let xs = Array.init 12 float_of_int in
      let params resume =
        { Common.quick_params with checkpoint = Some { Common.dir; resume } }
      in
      let clean =
        Common.with_figure_scope "guardbad" (fun () ->
            Common.sweep_chained ~chunk_size:4 (params false)
              ~step:chained_step xs)
      in
      (* Crash on chunk 1 to leave a real journal (chunk 0 completed),
         then vandalise its tail: a garbage line, a v2 line with a wrong
         digest, one with a wrong length prefix, and a torn half-line.
         Loading must stop at the first bad line, warn, physically
         truncate the file to the surviving prefix, and recompute the
         lost chunks. *)
      Faultinject.arm (spec ~worker:1 ());
      (match
         Po_error.capture (fun () ->
             Common.with_figure_scope "guardbad" (fun () ->
                 Common.sweep_chained ~chunk_size:4 (params false)
                   ~step:chained_step xs))
       with
      | Error { kind = Po_error.Worker_crash { chunk = 1; _ }; _ } -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Po_error.to_string e)
      | Ok _ -> Alcotest.fail "armed worker site did not fire");
      Faultinject.disarm ();
      let journal =
        match
          Array.find_opt (has_prefix "guardbad") (Sys.readdir dir)
        with
        | Some f -> Filename.concat dir f
        | None -> Alcotest.fail "no journal left by the crashed run"
      in
      let good_prefix = read_file journal in
      let oc =
        open_out_gen [ Open_append; Open_binary ] 0o644 journal
      in
      output_string oc
        "not a journal line\n\
         v2 1 4 0123456789abcdef 0102\n\
         v2 2 8 0000000000000000 0102\n\
         v2 2";
      close_out oc;
      let warnings_before = Warnings.count () in
      (* Resume with a crash armed on the last chunk: the load truncates
         the journal, chunk 1 recomputes and re-journals, chunk 2
         crashes — leaving the rewritten journal behind for
         inspection. *)
      Faultinject.arm (spec ~worker:2 ());
      (match
         Po_error.capture (fun () ->
             Common.with_figure_scope "guardbad" (fun () ->
                 Common.sweep_chained ~chunk_size:4 (params true)
                   ~step:chained_step xs))
       with
      | Error { kind = Po_error.Worker_crash { chunk = 2; _ }; _ } -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Po_error.to_string e)
      | Ok _ -> Alcotest.fail "armed worker site did not fire");
      Faultinject.disarm ();
      Alcotest.(check bool)
        "torn tail was reported" true
        (Warnings.count () > warnings_before);
      (* The load rewrote the journal to its valid prefix before the
         resumed sweep appended the recomputed chunk, so the surviving
         file starts with exactly the prefix and holds no wreckage. *)
      let rewritten = read_file journal in
      Alcotest.(check bool)
        "journal was truncated to the valid prefix" true
        (String.length rewritten >= String.length good_prefix
        && String.sub rewritten 0 (String.length good_prefix) = good_prefix);
      let contains_garbage =
        let needle = "not a journal line" in
        let n = String.length needle and m = String.length rewritten in
        let rec scan i =
          i + n <= m && (String.sub rewritten i n = needle || scan (i + 1))
        in
        scan 0
      in
      Alcotest.(check bool) "no garbage survives the rewrite" false
        contains_garbage;
      let resumed =
        Common.with_figure_scope "guardbad" (fun () ->
            Common.sweep_chained ~chunk_size:4 (params true)
              ~step:chained_step xs)
      in
      check_bits "corrupt journal entries fall back to recompute" clean
        resumed)

(* ------------------------------------------------------------------ *)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "po_guard"
    [ ("po_error", [ quick "context frames" test_error_context ]);
      ( "faultinject",
        [ quick "spec parse" test_spec_parse;
          quick "spec round trip" test_spec_roundtrip;
          quick "fire semantics" test_fire_counters;
          quick "solver site" test_solver_site;
          quick "solver error frames" test_solver_frames;
          quick "cp game boundary" test_cp_game_boundary ] );
      ( "pool",
        [ quick "injected worker crash" test_injected_worker_crash;
          quick "typed error passthrough" test_typed_error_passthrough;
          quick "spawn degradation" test_spawn_degradation ] );
      ("writer", [ quick "atomic write" test_write_atomic ]);
      ( "checkpoint",
        [ quick "resume is jobs-invariant"
            test_checkpoint_resume_jobs_invariant;
          quick "corrupt journal recomputes" test_corrupt_journal_recomputes
        ] ) ]
