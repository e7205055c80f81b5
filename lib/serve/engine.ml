(* The request -> solve -> result core shared by the daemon and the
   one-shot CLI (DESIGN.md §14).

   Everything here is a pure function of the query (plus the optional
   budget, which can only abort a computation, never change its value):
   the daemon batches calls to [eval] onto the domain pool, the CLI
   calls it once, and both produce bit-identical JSON for the same
   query.  The scenario construction deliberately mirrors
   [Po_experiments.Common.ensemble]: the paper ensemble drawn at the
   request's seed, with capacity expressed as a fraction of the
   population's saturation capacity. *)

module Json = Po_obs.Json

let m_evals = Po_obs.Metrics.counter "serve.evals"

type outcome = {
  nu : float;
  n_cps : int;
  regimes : Po_core.Public_option.regime list;
}

let scenario_market (sc : Request.scenario) =
  let cps =
    Po_workload.Ensemble.paper_ensemble ~n:sc.Request.n_cps
      ~seed:sc.Request.seed ()
  in
  let nu = sc.Request.nu_frac *. Po_workload.Ensemble.saturation_nu cps in
  (cps, nu)

(* [pool] exists for the one-shot CLI path; the daemon always omits it —
   a regime solve running inside a pool worker must not re-enter the
   pool (Po_par.Pool is not re-entrant). *)
let regimes ?budget ?pool ~(sc : Request.scenario) ~po_share ~levels ~points
    () =
  let cps, nu = scenario_market sc in
  { nu;
    n_cps = Array.length cps;
    regimes =
      Po_core.Public_option.compare_regimes ?pool ?budget ~po_share ~levels
        ~points ~nu cps }

(* ------------------------------------------------------------------ *)
(* JSON renderings                                                    *)
(* ------------------------------------------------------------------ *)

let strategy_json (s : Po_core.Strategy.t) =
  Json.Obj
    [ ("kappa", Json.Number (Po_core.Strategy.kappa s));
      ("c", Json.Number (Po_core.Strategy.c s)) ]

let regime_result_json (r : Po_core.Public_option.regime_result) =
  Json.Obj
    [ ("label", Json.String r.Po_core.Public_option.label);
      ("phi", Json.Number r.Po_core.Public_option.phi);
      ("psi", Json.Number r.Po_core.Public_option.psi);
      ("strategy",
       match r.Po_core.Public_option.commercial_strategy with
       | None -> Json.Null
       | Some s -> strategy_json s);
      ("market_share",
       match r.Po_core.Public_option.market_share with
       | None -> Json.Null
       | Some m -> Json.Number m) ]

(* The two renderings of one [outcome]: the [regimes] answer reads each
   regime's result, the [welfare] answer its decomposition. *)
let regimes_json o =
  Json.Obj
    [ ("n_cps", Json.Number (float_of_int o.n_cps));
      ("nu", Json.Number o.nu);
      ("regimes",
       Json.List
         (List.map
            (fun r -> regime_result_json r.Po_core.Public_option.result)
            o.regimes)) ]

let welfare_json o =
  Json.Obj
    [ ("n_cps", Json.Number (float_of_int o.n_cps));
      ("nu", Json.Number o.nu);
      ("rows",
       Json.List
         (List.map
            (fun { Po_core.Public_option.result; welfare = t } ->
              Json.Obj
                [ ("regime", Json.String result.Po_core.Public_option.label);
                  ("consumer", Json.Number t.Po_core.Welfare.consumer);
                  ("isp", Json.Number t.Po_core.Welfare.isp);
                  ("cp", Json.Number t.Po_core.Welfare.cp);
                  ("total", Json.Number t.Po_core.Welfare.total) ])
            o.regimes)) ]

let solution_json ~n_cps ~nu (sol : Po_model.Equilibrium.solution) =
  Json.Obj
    [ ("n_cps", Json.Number (float_of_int n_cps));
      ("nu", Json.Number nu);
      ("cap", Json.Number sol.Po_model.Equilibrium.cap);
      ("congested", Json.Bool sol.Po_model.Equilibrium.congested);
      ("per_capita_rate", Json.Number sol.Po_model.Equilibrium.per_capita_rate);
      ("utilization",
       Json.Number (Po_model.Surplus.utilization ~nu sol)) ]

let series_json s =
  Json.Obj
    [ ("label", Json.String (Po_report.Series.label s));
      ("xs",
       Json.List
         (Array.to_list
            (Array.map (fun v -> Json.Number v) (Po_report.Series.xs s))));
      ("ys",
       Json.List
         (Array.to_list
            (Array.map (fun v -> Json.Number v) (Po_report.Series.ys s)))) ]

let figure_json (fg : Po_experiments.Common.figure) =
  Json.Obj
    [ ("id", Json.String fg.Po_experiments.Common.id);
      ("title", Json.String fg.Po_experiments.Common.title);
      ("x_label", Json.String fg.Po_experiments.Common.x_label);
      ("panels",
       Json.List
         (List.map
            (fun (name, series) ->
              Json.Obj
                [ ("name", Json.String name);
                  ("series", Json.List (List.map series_json series)) ])
            fg.Po_experiments.Common.panels));
      ("notes",
       Json.List
         (List.map (fun n -> Json.String n) fg.Po_experiments.Common.notes))
    ]

(* ------------------------------------------------------------------ *)
(* Dispatch                                                           *)
(* ------------------------------------------------------------------ *)

(* Figure generation runs through [Common.with_figure_scope], whose
   sweep-scope state is a process-wide ref — safe from exactly one
   domain at a time.  The daemon therefore evaluates [Fig_point] (and
   the trivially cheap [Stats]) serially in the dispatcher, never
   inside a parallel batch. *)
let parallel_safe = function
  | Request.Fig_point _ | Request.Stats -> false
  | Request.Ping | Request.Equilibrium _ | Request.Surplus _
  | Request.Regimes _ | Request.Welfare _ ->
      true

(* The parallel-safe dispatch: everything here touches only solve-local
   state, so pool workers may run it concurrently.  [Stats] and
   [Fig_point] are deliberately NOT handled — the daemon routes them to
   the serial path, and keeping them out of this function makes that
   invariant structural: the closure a pool worker runs cannot reach
   the figure layer's process-wide sweep scope even in its static call
   graph (polint R7 verifies exactly that). *)
let eval_safe_exn ?budget query =
  Po_obs.Metrics.incr m_evals;
  match query with
  | Request.Ping -> Json.Obj [ ("pong", Json.Bool true) ]
  | Request.Equilibrium sc ->
      Po_sup.Budget.check_opt budget;
      let cps, nu = scenario_market sc in
      solution_json ~n_cps:(Array.length cps) ~nu
        (Po_model.Equilibrium.solve ?budget ~nu cps)
  | Request.Surplus sc ->
      Po_sup.Budget.check_opt budget;
      let cps, nu = scenario_market sc in
      let sol = Po_model.Equilibrium.solve ?budget ~nu cps in
      Json.Obj
        [ ("n_cps", Json.Number (float_of_int (Array.length cps)));
          ("nu", Json.Number nu);
          ("phi", Json.Number (Po_model.Surplus.consumer cps sol));
          ("per_capita_rate",
           Json.Number sol.Po_model.Equilibrium.per_capita_rate);
          ("utilization", Json.Number (Po_model.Surplus.utilization ~nu sol))
        ]
  | Request.Regimes { sc; po_share; levels; points } ->
      regimes_json (regimes ?budget ~sc ~po_share ~levels ~points ())
  | Request.Welfare { sc; po_share; levels; points } ->
      welfare_json (regimes ?budget ~sc ~po_share ~levels ~points ())
  | Request.Stats | Request.Fig_point _ ->
      (* Unreachable from the daemon (the dispatcher routes these
         serially through [eval]); typed, not an assert, so a misuse
         still answers the wire. *)
      Po_guard.Po_error.fail
        (Po_guard.Po_error.Invalid_scenario
           (Request.query_name query ^ " is not parallel-safe"))

(* The full dispatch, for the serial paths (dispatcher-inline and the
   one-shot CLI). *)
let eval_exn ?budget query =
  match query with
  | Request.Stats ->
      Po_obs.Metrics.incr m_evals;
      Json.Obj
        [ ("counters",
           Json.Obj
             (List.map
                (fun (name, v) -> (name, Json.Number (float_of_int v)))
                (Po_obs.Metrics.counters ()))) ]
  | Request.Fig_point { fig; n_cps; seed; sweep_points } -> (
      Po_obs.Metrics.incr m_evals;
      Po_sup.Budget.check_opt budget;
      match Po_experiments.Registry.find fig with
      | None ->
          Po_guard.Po_error.fail
            (Po_guard.Po_error.Invalid_scenario
               (Printf.sprintf "unknown figure id %S" fig))
      | Some entry ->
          let params =
            { Po_experiments.Common.n_cps; seed; sweep_points; jobs = 1;
              checkpoint = None;
              sup = Po_sup.Supervise.v ?budget () }
          in
          figure_json (entry.Po_experiments.Registry.generate ~params ()))
  | ( Request.Ping | Request.Equilibrium _ | Request.Surplus _
    | Request.Regimes _ | Request.Welfare _ ) as q ->
      eval_safe_exn ?budget q

let wrap dispatch ?budget query =
  match
    Po_guard.Po_error.capture (fun () ->
        Po_guard.Po_error.with_context
          (fun () -> [ ("query", Request.query_name query) ])
          (fun () -> dispatch ?budget query))
  with
  | Ok json -> Ok json
  | Error e -> Error (Request.error_of_po e)
  | exception exn ->
      (* [capture] only catches typed errors; anything else must still
         become a structured response — an exception escaping here would
         kill a pool worker (Worker_crash in the dispatcher) and with it
         the daemon's dispatch loop. *)
      Error
        (Request.error
           ~context:[ ("query", Request.query_name query) ]
           "internal_error" (Printexc.to_string exn))

let eval ?budget query = wrap eval_exn ?budget query

let eval_parallel ?budget query = wrap eval_safe_exn ?budget query
