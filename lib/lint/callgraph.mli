(** Cross-module value-level call graph over loaded typed trees.

    One node per top-level value binding (nested modules and functor
    bodies included), named by canonical dotted path
    (["Po_model.Monopoly.price_sweep"]).  Dune's module mangling and
    top-level module aliases — including functor applications — are
    resolved during construction, so within-unit and cross-unit
    references to the same value land on the same node.  Alongside the
    edges, each node carries the facts the typed rules (R7-R10) consume:
    shared-state mutations, pool-combinator call sites with their
    closure roots, float-instantiated polymorphic comparisons,
    discarded results, applications returning convergence evidence,
    and whether the node applies a span wrapper, an
    [ensure_converged]-style check or a metrics emitter. *)

type mutation = {
  mut_loc : Location.t;
  what : string;  (** e.g. ["Hashtbl.replace"], ["mutable field x <-"] *)
}

type pool_call = {
  pc_loc : Location.t;
  combinator : string;  (** ["parallel_map"], ["chain_map"], ... *)
  closure_roots : (string * Location.t) list;
      (** top-level values referenced from the closure arguments — the
          reachability roots of the domain-safety rule *)
  closure_mutations : mutation list;
      (** shared-state writes directly inside the closure arguments
          (captured locals included) *)
}

type compare_site = {
  cs_loc : Location.t;
  op : string;
  ty_rendered : string;
}

type discard = { d_loc : Location.t; d_what : string }

type node = {
  id : string;
  file : string;  (** repo-relative *)
  line : int;
  col : int;
  mutable edges : (string * Location.t) list;
  mutable applied : (string * Location.t) list;
  mutable evidence_applied : (string * Location.t) list;
      (** the applications in [applied] whose result carries convergence
          evidence: a record with a [converged : bool] field, or a tuple
          or array with such a record or a [bool] as a direct member —
          the evidence of the error-discard rule *)
  mutable mutations : mutation list;
  mutable pool_calls : pool_call list;
  mutable has_span : bool;
  mutable has_ensure : bool;
  mutable metric_emits : Location.t list;
  mutable compare_sites : compare_site list;
  mutable discards : discard list;
}

type t

val build : Cmt_loader.unit_info list -> t
(** Two passes: collect binders, module aliases and type declarations
    for every unit first (so resolution never depends on load order),
    then scan each binding body for edges and rule facts. *)

val nodes : t -> node list
(** All nodes, ordered by (file, line, id) — deterministic regardless
    of hashing or load order. *)

val find : t -> string -> node option

val resolve_value_name : t -> string -> string option
(** Canonical value name to node id (they differ for secondary binders
    of a tuple pattern and line-qualified shadowed bindings). *)

val callers : t -> string -> string list
(** Node ids holding an edge to the given node (self-edges excluded) —
    the indegree test of the span-hygiene rule. *)

val reach_with_parents :
  t -> skip:(string -> bool) -> roots:string list -> (string, string option) Hashtbl.t
(** BFS over all edges from [roots] (names resolved leniently; unknown
    names ignored).  Nodes satisfying [skip] are neither entered nor
    expanded.  The result maps every reached node id to its BFS parent
    ([None] for roots) — feed it to {!chain} for witnesses. *)

val frame : t -> string -> string
(** ["Id (file:line)"] for witness chains; the bare id if unknown. *)

val chain : t -> parents:(string, string option) Hashtbl.t -> string -> string list
(** Root-first witness chain for a reached node, rendered with
    {!frame}. *)
