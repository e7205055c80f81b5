(* A live `ponet serve` process, and a closed-loop client that drives
   any number of connections to it from one thread through
   [Unix.select]. *)

open Pb_util
module Lineio = Po_serve.Lineio

type t = { pid : int; socket : string; log : string }

let live = ref []

(* A daemon must never outlive the benchmark, whatever path exits. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let connect socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

let round_trip fd line =
  Lineio.write_line fd line;
  match Lineio.read_line (Lineio.reader fd) with
  | Lineio.Line reply -> reply
  | Lineio.Eof | Lineio.Oversized -> failwith "daemon closed the connection"

let pong =
  Po_serve.Request.response_line (Ok (Json.Obj [ ("pong", Json.Bool true) ]))

let spawned = ref 0

(* Start a daemon and return it with its set-up time: from the spawn to
   the answer to its first ping. *)
let spawn cfg =
  incr spawned;
  let name = Printf.sprintf "serve-%d-%d" (Unix.getpid ()) !spawned in
  let socket = Filename.concat cfg.out (name ^ ".sock") in
  let log = Filename.concat cfg.out (name ^ ".log") in
  let log_fd =
    Unix.openfile log
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let argv =
    [| cfg.ponet; "serve"; "--socket"; socket; "--jobs"; string_of_int cfg.nproc |]
  in
  let t0 = now () in
  let pid = Unix.create_process cfg.ponet argv Unix.stdin log_fd log_fd in
  Unix.close log_fd;
  live := pid :: !live;
  let rec await () =
    match connect socket with
    | Some fd -> fd
    | None ->
        if now () -. t0 > 60. then failwith ("daemon did not start; see " ^ log);
        Unix.sleepf 0.0005;
        await ()
  in
  let fd = await () in
  let reply = round_trip fd {|{"query":"ping"}|} in
  let setup = now () -. t0 in
  Unix.close fd;
  if not (String.equal reply pong) then
    failwith ("daemon answered its first ping with " ^ reply);
  ({ pid; socket; log }, setup)

let stop d =
  Unix.kill d.pid Sys.sigterm;
  let _, status = Unix.waitpid [] d.pid in
  live := List.filter (fun p -> p <> d.pid) !live;
  match status with
  | Unix.WEXITED 0 -> Po_report.Writer.remove_if_exists d.log
  | _ -> failwith ("daemon did not drain cleanly; see " ^ d.log)

(* Set a daemon up [cfg.setup_runs] times and keep the last one running;
   the set-up time is the median. *)
let start cfg =
  let rec go k times =
    let d, s = spawn cfg in
    if k <= 1 then (d, median (s :: times))
    else begin
      stop d;
      go (k - 1) (s :: times)
    end
  in
  go cfg.setup_runs []

(* The daemon's own counters, through a [stats] query. *)
let stats d =
  match connect d.socket with
  | None -> failwith "cannot connect to the daemon"
  | Some fd -> (
      let reply =
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () -> round_trip fd {|{"query":"stats"}|})
      in
      match Po_serve.Request.response_of_line reply with
      | Ok (Ok json) -> (
          match Json.member "counters" json with
          | Some (Json.Obj kvs) ->
              List.filter_map
                (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float v))
                kvs
          | Some _ | None -> [])
      | Ok (Error _) | Error _ -> [])

(* ------------------------------------------------------------------ *)
(* Closed-loop client                                                 *)
(* ------------------------------------------------------------------ *)

type stream = {
  next : unit -> string option;  (* the next request line; [None] ends it *)
  on_reply : string -> string -> float -> unit;
      (* request, reply, round trip in seconds *)
}

type conn = {
  fd : Unix.file_descr;
  stream : stream;
  pending : Buffer.t;
  mutable inflight : (string * float) option;
}

(* Drive each stream over a connection of its own: a connection sends
   its next request only once the reply to the previous one is in.
   Returns when every stream has ended and every reply has arrived. *)
let drive d streams =
  let conns =
    List.map
      (fun stream ->
        match connect d.socket with
        | Some fd -> { fd; stream; pending = Buffer.create 1024; inflight = None }
        | None -> failwith "cannot connect to the daemon")
      streams
  in
  let chunk = Bytes.create 65536 in
  let send c =
    match c.stream.next () with
    | None -> ()
    | Some line ->
        let t0 = now () in
        Lineio.write_line c.fd line;
        c.inflight <- Some (line, t0)
  in
  let receive c =
    match c.inflight with
    | None -> ()
    | Some (line, t0) -> (
        let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
        if n = 0 then failwith "daemon closed a client connection";
        Buffer.add_subbytes c.pending chunk 0 n;
        let s = Buffer.contents c.pending in
        match String.index_opt s '\n' with
        | None -> ()
        | Some i ->
            let latency = now () -. t0 in
            (* One request is outstanding per connection, so nothing
               follows the newline. *)
            Buffer.clear c.pending;
            c.inflight <- None;
            c.stream.on_reply line (String.sub s 0 i) latency;
            send c)
  in
  List.iter send conns;
  let rec loop () =
    match List.filter (fun c -> Option.is_some c.inflight) conns with
    | [] -> ()
    | busy ->
        let ready =
          match Unix.select (List.map (fun c -> c.fd) busy) [] [] (-1.) with
          | r, _, _ -> r
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
        in
        List.iter (fun c -> if List.mem c.fd ready then receive c) busy;
        loop ()
  in
  Fun.protect
    ~finally:(fun () -> List.iter (fun c -> Unix.close c.fd) conns)
    loop
