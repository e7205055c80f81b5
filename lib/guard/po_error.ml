type kind =
  | No_bracket of string
  | Non_convergence of { residual : float; iterations : int }
  | Invalid_scenario of string
  | Worker_crash of { chunk : int; exn : exn }
  | Io_failure of { path : string; reason : string }
  | Deadline_exceeded of { elapsed : float; budget : float }
  | Chunk_timeout of { chunk : int; elapsed : float; limit : float }
  | Cancelled of string

type t = { kind : kind; context : (string * string) list }

exception Error of t

let v ?(context = []) kind = { kind; context }
let fail ?context kind = raise (Error (v ?context kind))
let with_context frames f =
  try f ()
  with Error e ->
    let bt = Printexc.get_raw_backtrace () in
    Printexc.raise_with_backtrace
      (Error { e with context = frames () @ e.context })
      bt

let capture f = try Ok (f ()) with Error e -> Result.error e

let kind_to_string = function
  | No_bracket msg -> Printf.sprintf "no bracket: %s" msg
  | Non_convergence { residual; iterations } ->
      Printf.sprintf "did not converge after %d iterations (residual %g)"
        iterations residual
  | Invalid_scenario msg -> Printf.sprintf "invalid scenario: %s" msg
  | Worker_crash { chunk; exn } ->
      Printf.sprintf "worker crashed on chunk %d: %s" chunk
        (Printexc.to_string exn)
  | Io_failure { path; reason } ->
      Printf.sprintf "io failure on %s: %s" path reason
  | Deadline_exceeded { elapsed; budget } ->
      Printf.sprintf "deadline exceeded: %.3fs elapsed of a %.3fs budget"
        elapsed budget
  | Chunk_timeout { chunk; elapsed; limit } ->
      Printf.sprintf "chunk %d timed out: %.3fs elapsed past a %.3fs limit"
        chunk elapsed limit
  | Cancelled reason -> Printf.sprintf "cancelled: %s" reason

let to_string e =
  match e.context with
  | [] -> kind_to_string e.kind
  | frames ->
      Printf.sprintf "%s [%s]" (kind_to_string e.kind)
        (String.concat " "
           (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) frames))
