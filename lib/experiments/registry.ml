type entry = {
  id : string;
  description : string;
  generate : ?params:Common.params -> unit -> Common.figure;
}

(* Every generator runs inside its figure scope (checkpoint journals,
   DESIGN.md §10) and stamps typed errors with the figure id. *)
let guarded entry =
  { entry with
    generate =
      (fun ?params () ->
        Common.with_figure_scope entry.id (fun () ->
            Po_guard.Po_error.with_context
              (fun () -> [ ("figure", entry.id) ])
              (fun () -> entry.generate ?params ()))) }

let entries =
  [ { id = "fig2"; description = "demand family d(omega) for various beta";
      generate = (fun ?params () -> Fig02.generate ?params ()) };
    { id = "fig3";
      description = "3-CP throughput & demand vs capacity under max-min";
      generate = (fun ?params () -> Fig03.generate ?params ()) };
    { id = "fig4"; description = "monopoly Psi & Phi vs price c (kappa=1)";
      generate = (fun ?params () -> Fig04.generate ?params ()) };
    { id = "fig5";
      description = "monopoly Psi & Phi vs capacity, strategy grid";
      generate = (fun ?params () -> Fig05.generate ?params ()) };
    { id = "fig7";
      description = "duopoly vs Public Option: m_I, Psi_I, Phi vs c_I";
      generate = (fun ?params () -> Fig07.generate ?params ()) };
    { id = "fig8";
      description = "duopoly vs Public Option across capacity, strategy grid";
      generate = (fun ?params () -> Fig08.generate ?params ()) };
    { id = "fig9"; description = "appendix: fig4's Phi, independent phi";
      generate = (fun ?params () -> Appendix.fig9 ?params ()) };
    { id = "fig10"; description = "appendix: fig5's Phi, independent phi";
      generate = (fun ?params () -> Appendix.fig10 ?params ()) };
    { id = "fig11"; description = "appendix: fig7, independent phi";
      generate = (fun ?params () -> Appendix.fig11 ?params ()) };
    { id = "fig12"; description = "appendix: fig8, independent phi";
      generate = (fun ?params () -> Appendix.fig12 ?params ()) };
    { id = "tcp";
      description = "extension: AIMD simulation vs max-min model";
      generate = (fun ?params () -> Tcp_fig.generate ?params ()) };
    { id = "posize";
      description = "extension: how much capacity the Public Option needs";
      generate = (fun ?params () -> Po_sizing_fig.generate ?params ()) };
    { id = "welfare";
      description = "extension: three-party welfare decomposition per regime";
      generate = (fun ?params () -> Welfare_fig.generate ?params ()) };
    { id = "invest";
      description = "extension: capacity-investment incentives";
      generate = (fun ?params () -> Invest_fig.generate ?params ()) };
    { id = "mm1";
      description = "ablation: closed-loop max-min vs open-loop M/M/1";
      generate = (fun ?params () -> Mm1_fig.generate ?params ()) };
    { id = "pmp";
      description = "extension: per-class packet validation of game outcomes";
      generate = (fun ?params () -> Pmp_fig.generate ?params ()) };
    { id = "red";
      description = "ablation: droptail vs RED queueing";
      generate = (fun ?params () -> Red_fig.generate ?params ()) };
    { id = "hetero";
      description = "ablation: heavy-tailed (Zipf/Pareto) workload";
      generate = (fun ?params () -> Hetero_fig.generate ?params ()) };
    { id = "nisp";
      description = "extension: consumer surplus vs number of ISPs";
      generate = (fun ?params () -> Nisp_fig.generate ?params ()) };
    { id = "tandem";
      description = "extension: tandem backbone+last-mile vs single bottleneck";
      generate = (fun ?params () -> Tandem_fig.generate ?params ()) };
    { id = "xl";
      description = "scale tier: equilibrium & surplus vs population size (SoA)";
      generate = (fun ?params () -> Xl_fig.generate ?params ()) } ]
  |> List.map guarded

let find id = List.find_opt (fun e -> e.id = id) entries
let ids () = List.map (fun e -> e.id) entries
