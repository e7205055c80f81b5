(* Shared plumbing of the benchmark: the run configuration, timing with
   trace spans, order statistics, process memory, metric snapshots and
   the per-workload outcome. *)

module Json = Po_obs.Json
module Metrics = Po_obs.Metrics
module Trace = Po_obs.Trace

type config = {
  seed : int;
  seconds : float;  (* length of the timed phase *)
  traced : bool;  (* per-layer metrics instead of end-to-end ones *)
  smoke : bool;  (* tiny sizes, for the benchmark's own self-test *)
  corrupt : bool;  (* damage one output before checking it (self-test) *)
  ponet : string;  (* the ponet executable the daemon workloads spawn *)
  out : string;  (* scratch directory: sockets, logs, traces, results *)
  nproc : int;
  setup_runs : int;  (* set-ups per run; setup_s is their median *)
}

(* What a workload reports.  [e2e] and [layers] name metrics of the
   canonical lists in pobench.ml; a layer the workload bypasses is
   simply absent and reads 0. *)
type outcome = {
  attempted : int;
  failed : int;  (* error or unparsable answers *)
  failures : string list;  (* output checks that did not hold *)
  e2e : (string * float) list;
  layers : (string * float) list;
  samples : (string * int) list;  (* operation counts behind each statistic *)
}

let now = Po_obs.Clock.now_s

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* [f] inside a trace span named after the layer it calls into, with its
   wall time in seconds.  Disarmed, the span costs one atomic load. *)
let layer name f = timed (fun () -> Trace.with_span name f)

(* ------------------------------------------------------------------ *)
(* Order statistics                                                   *)
(* ------------------------------------------------------------------ *)

(* Linear-interpolation quantile, [q] in [0, 1]; 0 on an empty sample,
   so a layer a workload never reaches reads 0. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

let sum xs = List.fold_left ( +. ) 0. xs

(* Samples strictly above the [q]-quantile: the count behind a tail
   percentile. *)
let count_above xs q =
  let v = quantile xs q in
  List.length (List.filter (fun x -> x > v) xs)

let ratio a b = if b > 0. then a /. b else 0.

(* ------------------------------------------------------------------ *)
(* Processes                                                          *)
(* ------------------------------------------------------------------ *)

(* Peak resident set ([VmHWM]) of a process in MiB; [pid] is a process
   id or ["self"]. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> failwith ("no VmHWM for process " ^ pid)
        | line -> (
            match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
            | kb -> float_of_int kb /. 1024.
            | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
                scan ())
      in
      scan ())

(* CPU time the hypervisor gave to other guests, summed over this
   host's CPUs, in seconds: the "steal" column of /proc/stat (in
   USER_HZ = 100 ticks).  Shared hosts steal in bursts, and a run that
   overlaps one reads slow whatever the code does. *)
let host_steal_s () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line -> (
      match String.split_on_char ' ' line |> List.filter (( <> ) "") with
      | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ ->
          float_of_string steal /. 100.
      | _ -> 0.)
  | None -> 0.
  | exception Sys_error _ -> 0.

(* Re-run this executable in its set-up-probe mode and time it from the
   spawn to the "ready" line it prints once the workload's set-up is
   done: process start, runtime and library initialisation, set-up. *)
let probe_setup cfg workload =
  let argv =
    Array.of_list
      ([ Sys.executable_name; "--probe-setup"; "--workload"; workload;
         "--seed"; string_of_int cfg.seed ]
      @ if cfg.smoke then [ "--smoke" ] else [])
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid = Unix.create_process argv.(0) argv Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = In_channel.input_line ic in
  let dt = now () -. t0 in
  close_in ic;
  match (line, Unix.waitpid [] pid) with
  | Some "ready", (_, Unix.WEXITED 0) -> dt
  | _ -> failwith ("set-up probe failed for " ^ workload)

let setup_median cfg workload =
  median (List.init cfg.setup_runs (fun _ -> probe_setup cfg workload))

(* ------------------------------------------------------------------ *)
(* Metric snapshots                                                   *)
(* ------------------------------------------------------------------ *)

(* Run [f] from zeroed metrics and return what it accumulated (metrics
   move only when armed, i.e. in the traced run). *)
let with_metrics f =
  Metrics.reset ();
  let v = f () in
  (v, Metrics.snapshot ())

let counter snap name =
  match List.assoc_opt name snap with
  | Some (Metrics.Counter c) -> float_of_int c
  | Some (Metrics.Gauge _ | Metrics.Histogram _) | None -> 0.

let histogram_sum snap name =
  match List.assoc_opt name snap with
  | Some (Metrics.Histogram { sum; _ }) -> sum
  | Some (Metrics.Counter _ | Metrics.Gauge _) | None -> 0.

(* Failed output checks, in the order found. *)
let failures : string list ref = ref []

let check ok msg = if not ok then failures := msg :: !failures

let take_failures () =
  let f = List.rev !failures in
  failures := [];
  f
