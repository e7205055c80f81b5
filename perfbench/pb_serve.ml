(* serve_hot, against a live `ponet serve --jobs nproc` at its default
   settings: nproc connections, closed loop, of light queries (ping,
   equilibrium, surplus) over a bounded seeded scenario pool.  The first
   request for each of the pool's queries is a cold miss; every later
   one hits the solve cache.

   After the run, every reply is checked byte for byte against the
   in-process answer to its line (Request.of_line, Engine.eval,
   Request.response_line); the distinct lines are answered on a pool of
   nproc domains.  The traced run instead replays the whole stream in
   send order through the daemon's own layers (Request.of_line, Cache,
   Engine.eval, Request.response_line), serially, which gives each
   request its in-process cost, against which the client round trip
   shows the server's own overhead and head-of-line waits. *)

open Pb_util
module Request = Po_serve.Request
module Splitmix = Po_prng.Splitmix

let line_of query =
  Json.to_string ~indent:0 (Request.to_json { Request.query; deadline_s = None })

let scenario n seed =
  { Request.n_cps = n; seed; nu_frac = Request.default_scenario.Request.nu_frac }

let light_sizes cfg = if cfg.smoke then [| 50; 100 |] else [| 100; 1000; 10000 |]

(* Scenarios in the pool, cycling through the market sizes.  Its 64
   cacheable queries fit the daemon's default cache (256 entries), so a
   run never evicts. *)
let pool_size cfg = if cfg.smoke then 6 else 32

(* The seeded light stream: Loadgen.draw_request's query mix with its
   regime queries left out (of six requests, on average one ping, three
   equilibrium and two surplus queries), each over a scenario drawn
   uniformly from the pool.  The seed picks the populations and the
   draws.  The traffic of a real deployment is not known; this mix is
   the daemon's own load generator's.  Whatever the seed, a run makes
   the same 64 cold misses, a third of them at each size, early on; the
   rest of it is the hit path. *)
let light_stream cfg =
  let rng = Splitmix.of_int cfg.seed in
  let sizes = light_sizes cfg in
  let pool =
    Array.init (pool_size cfg) (fun i ->
        scenario sizes.(i mod Array.length sizes) ((cfg.seed * 1000) + i))
  in
  let ping = line_of Request.Ping in
  let equilibrium = Array.map (fun sc -> line_of (Request.Equilibrium sc)) pool in
  let surplus = Array.map (fun sc -> line_of (Request.Surplus sc)) pool in
  fun () ->
    match Splitmix.int rng 6 with
    | 0 -> ping
    | k ->
        let lines = if k <= 3 then equilibrium else surplus in
        lines.(Splitmix.int rng (Array.length pool))

type sent = {
  line : string;
  reply : string;
  latency : float;  (* client round trip, s *)
  done_at : float;  (* when the reply came in, s from the start of the run *)
}

type replayed = {
  expected : string;  (* the in-process answer *)
  cost : float;  (* in-process time of parse + lookup (+ eval + render), s *)
  hit : bool;
}

(* Per-layer times of the replay. *)
type replay_times = {
  render : float list;  (* s, misses *)
  miss : (string * float) list;  (* query name, eval time in s *)
  parse_us : float;  (* mean per call *)
  lookup_us : float;  (* mean per call *)
}

(* Mean time of one call of [f], in µs, from one batch over [xs]: a
   single call takes about a microsecond, the clock's resolution. *)
let per_call_us name f xs =
  let _, t = layer name (fun () -> List.iter (fun x -> ignore (f x)) xs) in
  1e6 *. ratio t (float_of_int (List.length xs))

let replay sent =
  let cache =
    Po_serve.Cache.create
      ~capacity:Po_serve.Server.default_config.Po_serve.Server.cache_capacity
  in
  let render = ref [] and miss = ref [] and keys = ref [] in
  let solve (req : Request.t) =
    let name = Request.query_name req.Request.query in
    let resp, t_eval =
      layer ("engine.eval." ^ name) (fun () -> Po_serve.Engine.eval req.Request.query)
    in
    let line, t_render =
      layer "response.render" (fun () -> Request.response_line resp)
    in
    (resp, line, t_eval, t_render, name)
  in
  let one s =
    let parsed, t_parse = layer "request.parse" (fun () -> Request.of_line s.line) in
    match parsed with
    | Error e ->
        { expected = Request.response_line (Error e); cost = t_parse; hit = false }
    | Ok req -> (
        match Request.cache_key req with
        | None ->
            let _, line, t_eval, t_render, _ = solve req in
            { expected = line; cost = t_parse +. t_eval +. t_render; hit = false }
        | Some key -> (
            keys := key :: !keys;
            let found, t_lookup =
              layer "cache.lookup" (fun () -> Po_serve.Cache.find cache key)
            in
            match found with
            | Some line -> { expected = line; cost = t_parse +. t_lookup; hit = true }
            | None ->
                let resp, line, t_eval, t_render, name = solve req in
                (match resp with
                | Ok _ -> Po_serve.Cache.add cache key line
                | Error _ -> ());
                render := t_render :: !render;
                miss := (name, t_eval) :: !miss;
                { expected = line;
                  cost = t_parse +. t_lookup +. t_eval +. t_render;
                  hit = false }))
  in
  let r = List.map one sent in
  ( r,
    { render = !render;
      miss = !miss;
      parse_us =
        per_call_us "request.parse_batch" Request.of_line
          (List.map (fun s -> s.line) sent);
      lookup_us = per_call_us "cache.lookup_batch" (Po_serve.Cache.find cache) !keys } )

(* The untraced check: the in-process answer to each line sent, the
   distinct lines evaluated in parallel. *)
let expected_answers cfg sent =
  let index = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      if not (Hashtbl.mem index s.line) then
        Hashtbl.add index s.line (Hashtbl.length index))
    sent;
  let distinct = Array.make (Hashtbl.length index) "" in
  Hashtbl.iter (fun line i -> distinct.(i) <- line) index;
  let answer line =
    Request.response_line
      (match Request.of_line line with
      | Error e -> Error e
      | Ok req -> Po_serve.Engine.eval_parallel req.Request.query)
  in
  let answers =
    Po_par.Pool.with_pool ~domains:cfg.nproc (fun pool ->
        Po_par.Pool.parallel_map pool answer distinct)
  in
  List.map
    (fun s ->
      { expected = answers.(Hashtbl.find index s.line); cost = 0.; hit = false })
    sent

(* A light request waited behind other work when its round trip exceeds
   its in-process cost by more than this. *)
let hol_threshold_s = 0.010

(* Length of a throughput window, s. *)
let window_s = 0.5

(* Requests answered per second: the median over the run's whole
   [window_s] windows.  A burst of interference from other work on the
   host, or the run's early cold misses, slows a few windows and moves
   the median little.  A window's rate runs from its first reply to its
   last. *)
let windowed_qps cfg sent =
  let n = max 1 (int_of_float (cfg.seconds /. window_s)) in
  let count = Array.make n 0 in
  let first = Array.make n infinity and last = Array.make n neg_infinity in
  List.iter
    (fun s ->
      let w = int_of_float (s.done_at /. window_s) in
      if w < n then begin
        count.(w) <- count.(w) + 1;
        first.(w) <- Float.min first.(w) s.done_at;
        last.(w) <- Float.max last.(w) s.done_at
      end)
    sent;
  median
    (List.init n (fun w ->
         if count.(w) < 2 then 0.
         else float_of_int (count.(w) - 1) /. (last.(w) -. first.(w))))

(* Ensemble generation and one equilibrium solve, standalone, for the
   first few distinct scenarios of the largest light size: the cold-miss
   cost a population cache would remove. *)
let population_costs cfg sent =
  let n_max = Array.fold_left max 0 (light_sizes cfg) in
  let scenarios =
    List.sort_uniq compare
      (List.filter_map
         (fun s ->
           match Request.of_line s.line with
           | Ok { Request.query = Request.Equilibrium sc | Request.Surplus sc; _ }
             when sc.Request.n_cps = n_max ->
               Some sc.Request.seed
           | Ok _ | Error _ -> None)
         sent)
  in
  List.filteri (fun i _ -> i < 16) scenarios
  |> List.map (fun seed ->
         let cps, t_gen =
           layer "ensemble.generate" (fun () ->
               Po_workload.Ensemble.paper_ensemble ~n:n_max ~seed ())
         in
         let nu =
           Request.default_scenario.Request.nu_frac
           *. Po_workload.Ensemble.saturation_nu cps
         in
         let _, t_solve =
           layer "equilibrium.solve" (fun () -> Po_model.Equilibrium.solve ~nu cps)
         in
         (t_gen, t_solve))

let run cfg =
  let d, setup_s = Pb_daemon.start cfg in
  let log = ref [] in
  let t_start = now () in
  let next = light_stream cfg in
  let stream =
    { Pb_daemon.next =
        (fun () ->
          if now () -. t_start >= cfg.seconds then None else Some (next ()));
      on_reply =
        (fun line reply latency ->
          log := { line; reply; latency; done_at = now () -. t_start } :: !log) }
  in
  Pb_daemon.drive d (List.init cfg.nproc (fun _ -> stream));
  let rss = peak_rss_mb (string_of_int d.Pb_daemon.pid) in
  let counters = Pb_daemon.stats d in
  Pb_daemon.stop d;
  let sent = List.rev !log in
  let sent =
    match sent with
    | s :: rest when cfg.corrupt -> { s with reply = s.reply ^ " " } :: rest
    | _ -> sent
  in
  (* Outside the timed region: every reply must equal, byte for byte,
     the in-process answer to the same line. *)
  let replayed, times =
    if cfg.traced then
      let r, t = replay sent in
      (r, Some t)
    else (expected_answers cfg sent, None)
  in
  let failed = ref 0 in
  List.iter2
    (fun s r ->
      (match Request.response_of_line s.reply with
      | Ok (Ok _) -> ()
      | Ok (Error _) | Error _ -> incr failed);
      check (String.equal s.reply r.expected)
        (Printf.sprintf
           "daemon reply to %s differs from in-process Engine.eval" s.line))
    sent replayed;
  let pairs = List.combine sent replayed in
  let latency_ms = List.map (fun s -> 1000. *. s.latency) sent in
  let qps = windowed_qps cfg sent in
  let layers =
    match times with
    | None -> []
    | Some times ->
        let stalls =
          List.filter_map
            (fun (s, r) ->
              let wait = s.latency -. r.cost in
              if wait > hol_threshold_s then Some wait else None)
            pairs
        in
        let overhead_us =
          List.filter_map
            (fun (s, r) ->
              if r.hit then Some (1e6 *. (s.latency -. r.cost)) else None)
            pairs
        in
        let miss_ms name =
          1000.
          *. median
               (List.filter_map
                  (fun (q, t) -> if q = name then Some t else None)
                  times.miss)
        in
        let stat name =
          Option.value ~default:0. (List.assoc_opt name counters)
        in
        let lookups = stat "serve.cache_hits" +. stat "serve.cache_misses" in
        let pop = population_costs cfg sent in
        [ ("request.parse_us", times.parse_us);
          ("cache.lookup_us", times.lookup_us);
          ("engine.eval_miss_equilibrium_ms", miss_ms "equilibrium");
          ("engine.eval_miss_surplus_ms", miss_ms "surplus");
          ("ensemble.generate_ms", 1000. *. median (List.map fst pop));
          ("equilibrium.solve_ms", 1000. *. median (List.map snd pop));
          ("response.render_us", 1e6 *. median times.render);
          ("server.overhead_us", median overhead_us);
          ("serve.cache_hit_ratio", ratio (stat "serve.cache_hits") lookups);
          ("serve.cache_lookups", lookups);
          ("serve.evals", stat "serve.evals");
          ("server.hol_stalls", float_of_int (List.length stalls));
          ("server.hol_stall_ms", 1000. *. sum stalls);
          ("serve.query_p99_ms", quantile latency_ms 0.99);
          ("traced.query_p50_ms", median latency_ms);
          ("traced.throughput_qps", qps) ]
  in
  { attempted = List.length sent;
    failed = !failed;
    failures = take_failures ();
    e2e =
      [ ("setup_s", setup_s);
        ("query_p50_ms", median latency_ms);
        ("throughput_qps", qps);
        ("peak_rss_mb", rss) ];
    layers;
    samples =
      [ ("requests", List.length sent);
        ("above_p99", count_above latency_ms 0.99);
        ("distinct_lines",
         List.length
           (List.sort_uniq String.compare (List.map (fun s -> s.line) sent)));
        ("connections", cfg.nproc);
        ("setup_runs", cfg.setup_runs) ] }
