(** The typed error channel of the solver/sweep stack (DESIGN.md §10).

    Every recoverable failure of the numeric and game layers is a value
    of {!t}: an error {!kind} plus a list of {e context frames} — ordered
    key/value pairs ("figure", "fig4"; "chunk", "3"; "cps", "1000";
    "seed", "42") attached as the error climbs out of the layer that
    produced it.  Solvers raise {!Error}; a boundary (the CLI, the serve
    engine) catches it once with {!capture} and hands back
    [(_, t) result].

    The taxonomy is deliberately small: a failure either comes from
    root-finding ([No_bracket]), from an iteration that ran out of budget
    ([Non_convergence]), from inputs outside the model's domain
    ([Invalid_scenario]), from a worker domain dying mid-sweep
    ([Worker_crash]), from the filesystem ([Io_failure]), or from the
    supervision layer (DESIGN.md §13): a wall-clock budget ran out
    ([Deadline_exceeded]), a chunk overran its watchdog limit
    ([Chunk_timeout] — the retryable one), or a cancellation token fired
    ([Cancelled]).  Anything else is a programming error and stays an
    ordinary exception. *)

type kind =
  | No_bracket of string
      (** a root-finder could not bracket a sign change (the
          {!Po_num.Roots.No_bracket} payload verbatim) *)
  | Non_convergence of { residual : float; iterations : int }
      (** an iteration hit its cap; [residual] is the last step size /
          defect (solver-specific, [nan] when meaningless) *)
  | Invalid_scenario of string
      (** inputs outside the model's domain (bad supervision settings,
          an unknown figure, ...) *)
  | Worker_crash of { chunk : int; exn : exn }
      (** a pool worker died evaluating the given chunk; [exn] is the
          original exception *)
  | Io_failure of { path : string; reason : string }
      (** a filesystem operation failed; the target is never left
          half-written (lib/report's atomic writer) *)
  | Deadline_exceeded of { elapsed : float; budget : float }
      (** a [Po_sup.Budget] deadline expired at a cooperative check
          point (chunk boundary, solver iteration); [elapsed] is the
          wall time since the budget started, [budget] the allowance.
          Never retried: the whole run is out of time. *)
  | Chunk_timeout of { chunk : int; elapsed : float; limit : float }
      (** the watchdog flagged sweep chunk [chunk] as stuck: its wall
          time passed [limit].  Transient by classification
          ([Po_sup.Supervise.retryable]) — the chunk re-runs under a
          retry policy. *)
  | Cancelled of string
      (** a [Po_sup.Budget] cancellation token fired; the payload is the
          token's reason.  Never retried. *)

type t = {
  kind : kind;
  context : (string * string) list;
      (** outermost frame first, e.g. [("figure", "fig4"); ("chunk", "3")] *)
}

exception Error of t
(** The carrier used by layers whose signatures cannot return [result]. *)

val v : ?context:(string * string) list -> kind -> t

val fail : ?context:(string * string) list -> kind -> 'a
(** [fail kind] raises {!Error}. *)

val with_context : (unit -> (string * string) list) -> (unit -> 'a) -> 'a
(** [with_context frames f] runs [f]; if it raises {!Error}, re-raises
    it with [frames ()] prepended (backtrace preserved).  The frames are
    built only when an error passes through, so a hot solve that formats
    them (["nu"] printed with [%.17g]) pays nothing when it succeeds.
    Every other exception passes through untouched. *)

val capture : (unit -> 'a) -> ('a, t) result
(** Run a thunk, catching {!Error} — the bridge from the raising world
    to the [result] world.  Other exceptions pass through. *)

val kind_to_string : kind -> string

val to_string : t -> string
(** ["equilibrium solver did not converge ... [figure=fig4 chunk=3]"] —
    one line, context frames bracketed at the end. *)
