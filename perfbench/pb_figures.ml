(* figures: fig4, fig5 and fig7 at 400 CPs and 17 points, at the paper's
   seed, generated through Po_experiments.Registry on a pool of nproc
   domains and rendered, as `ponet fig` does.  Paper scale (1000 CPs, 33
   points) takes 9 s a set, too few sets for a steady median in a run;
   the seed stays fixed because set cost varied 2x between seeds.
   Outside the timed region the set is generated again serially
   (jobs = 1), and the renders must be byte-identical; the traced run
   reports the pool speedup against that serial set. *)

open Pb_util
module Common = Po_experiments.Common

let ids = [ "fig4"; "fig5"; "fig7" ]

let params cfg ~jobs =
  { Common.default_params with
    jobs;
    n_cps = (if cfg.smoke then 60 else 400);
    sweep_points = (if cfg.smoke then 9 else 17) }

(* The domain pool the figures run on. *)
let setup cfg = ignore (Common.pool (params cfg ~jobs:cfg.nproc))

type figure_run = {
  id : string;
  render : string;
  t_gen : float;
  t_render : float;
  snap : (string * Metrics.value) list;  (* metrics of the generation *)
}

let figure_set cfg ~jobs =
  let params = params cfg ~jobs in
  List.map
    (fun id ->
      let entry = Option.get (Po_experiments.Registry.find id) in
      let (fg, t_gen), snap =
        with_metrics (fun () ->
            layer (id ^ ".generate") (fun () ->
                entry.Po_experiments.Registry.generate ~params ()))
      in
      let render, t_render = layer "figure.render" (fun () -> Common.render fg) in
      { id; render; t_gen; t_render; snap })
    ids

let run cfg =
  let setup_s = setup_median cfg "figures" in
  setup cfg;
  let t_start = now () in
  let rec sets acc =
    let set, dt = timed (fun () -> figure_set cfg ~jobs:cfg.nproc) in
    let acc = (set, dt) :: acc in
    if now () -. t_start < cfg.seconds then sets acc else List.rev acc
  in
  let runs = sets [] in
  let elapsed = now () -. t_start in
  let rss = peak_rss_mb "self" in
  let first = fst (List.hd runs) in
  let serial, _ = timed (fun () -> figure_set cfg ~jobs:1) in
  let renders set = List.map (fun f -> f.render) set in
  let expected = renders serial in
  List.iteri
    (fun k (set, _) ->
      let got = renders set in
      let got =
        if cfg.corrupt && k = 0 then
          List.mapi (fun i r -> if i = 0 then r ^ " " else r) got
        else got
      in
      List.iter2
        (fun f (a, b) ->
          check (String.equal a b)
            (Printf.sprintf "%s at jobs=%d differs from the jobs=1 render"
               f.id cfg.nproc))
        set (List.combine got expected))
    runs;
  (* Times are medians over the sets; counters are the same in every
     set, so the first set's are reported. *)
  let sets_of = List.map fst runs in
  let med f = median (List.map f sets_of) in
  let gen set = sum (List.map (fun f -> f.t_gen) set) in
  let busy set = sum (List.map (fun f -> histogram_sum f.snap "pool.chunk_s") set) in
  let per_figure =
    List.concat_map
      (fun f ->
        [ (f.id ^ ".generate_s",
           med (fun set -> (List.find (fun g -> g.id = f.id) set).t_gen));
          (f.id ^ ".equilibrium_solves", counter f.snap "equilibrium.solves");
          (f.id ^ ".cp_game_solves", counter f.snap "cp_game.solves") ])
      first
  in
  let set_times = List.map snd runs in
  let sets_done = float_of_int (List.length runs) in
  { attempted = List.length ids * List.length runs;
    failed = 0;
    failures = take_failures ();
    e2e =
      [ ("setup_s", setup_s);
        ("query_p50_ms", 1000. *. median set_times);
        ("throughput_qps", sets_done /. elapsed);
        ("peak_rss_mb", rss) ];
    layers =
      (if not cfg.traced then []
       else
         per_figure
         @ [ ("figure.render_ms",
              1000. *. med (fun set -> sum (List.map (fun f -> f.t_render) set)));
             ("pool.chunks_computed",
              sum (List.map (fun f -> counter f.snap "pool.chunks_computed") first));
             ("pool.chunk_busy_s", med busy);
             ("pool.utilization",
              med (fun set -> ratio (busy set) (gen set *. float_of_int cfg.nproc)));
             ("pool.speedup", ratio (gen serial) (med gen));
             ("traced.query_p50_ms", 1000. *. median set_times);
             ("traced.throughput_qps", sets_done /. elapsed) ]);
    samples =
      [ ("figure_sets", List.length runs);
        ("figures", List.length ids * List.length runs);
        ("jobs", cfg.nproc); ("setup_runs", cfg.setup_runs) ] }
