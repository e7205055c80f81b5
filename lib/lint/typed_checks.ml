(* The interprocedural rules (R7-R10), evaluated over the call graph.

   Everything here consumes the per-node facts Callgraph extracted; no
   typed-tree traversal happens at this layer, which keeps each rule
   small enough to read against its DESIGN.md entry. *)

let line_col (loc : Location.t) =
  ( loc.Location.loc_start.Lexing.pos_lnum,
    loc.Location.loc_start.Lexing.pos_cnum
    - loc.Location.loc_start.Lexing.pos_bol )

let diag ?witness ~(node : Callgraph.node option) ~file ~loc ~rule message =
  ignore node;
  let line, col = line_col loc in
  Diagnostic.v ?witness ~file ~line ~col ~rule:(Rule.to_string rule) ~message ()

(* ------------------------------ R7 ------------------------------ *)

(* Shared mutable state reachable from a closure handed to a Po_par.Pool
   combinator.  Two sources: writes directly inside the closure whose
   target the closure does not bind (captured or global — either way the
   write happens on several domains), and writes in any function
   reachable from the values the closure references. *)
let r7 g =
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  let emit ~witness ~file ~loc what detail =
    if Rule.applies_to Rule.R7 ~file then begin
      let line, col = line_col loc in
      if not (Hashtbl.mem seen (file, line, col)) then begin
        Hashtbl.add seen (file, line, col) ();
        out :=
          diag ~witness ~node:None ~file ~loc ~rule:Rule.R7
            (Printf.sprintf
               "%s on shared mutable state %s: make it domain-local, use \
                Atomic, key it by Domain.DLS, or allowlist with a \
                justification"
               what detail)
          :: !out
      end
    end
  in
  List.iter
    (fun (n : Callgraph.node) ->
      List.iter
        (fun (pc : Callgraph.pool_call) ->
          let pc_line, _ = line_col pc.pc_loc in
          let call_frame =
            Printf.sprintf "Pool.%s call in %s (%s:%d)" pc.combinator n.id
              n.file pc_line
          in
          List.iter
            (fun (m : Callgraph.mutation) ->
              emit
                ~witness:[ call_frame; "closure body" ]
                ~file:n.file ~loc:m.mut_loc m.what
                (Printf.sprintf "captured by a closure passed to Pool.%s"
                   pc.combinator))
            pc.closure_mutations;
          let parents =
            Callgraph.reach_with_parents g
              ~skip:(fun _ -> false)
              ~roots:(List.map fst pc.closure_roots)
          in
          (* deterministic order: walk nodes in graph order, not hash
             order *)
          List.iter
            (fun (m_node : Callgraph.node) ->
              if Hashtbl.mem parents m_node.id then
                List.iter
                  (fun (m : Callgraph.mutation) ->
                    emit
                      ~witness:
                        (call_frame
                        :: Callgraph.chain g ~parents m_node.id)
                      ~file:m_node.file ~loc:m.mut_loc m.what
                      (Printf.sprintf
                         "in %s, reachable from a closure passed to \
                          Pool.%s"
                         m_node.id pc.combinator))
                  m_node.mutations)
            (Callgraph.nodes g))
        n.pool_calls)
    (Callgraph.nodes g);
  List.rev !out

(* ------------------------------ R8 ------------------------------ *)

(* Discarded convergence evidence.  (a) applying a function whose result
   carries a [converged] flag (Callgraph's [evidence_applied]) — exempt
   when the callee already runs an ensure_converged-style check, or the
   calling node does; (b) result values dropped outright ([ignore],
   [let _ =], wildcard [Error _] arms; [Error _ as e] is propagation and
   was never recorded).

   Sub-rule (a) only watches figure/experiment/driver code: inside the
   solver layer, threading the outcome record (with its
   iteration/residual evidence) IS the contract.  A solver that raises a
   typed error on every failure returns no evidence and is never
   flagged; only best-effort answers carry [converged]. *)
let consumes_solver_results file =
  String.starts_with ~prefix:"lib/experiments/" file
  || String.starts_with ~prefix:"bin/" file

let r8 g =
  let out = ref [] in
  List.iter
    (fun (n : Callgraph.node) ->
      if Rule.applies_to Rule.R8 ~file:n.file then begin
        if (not n.has_ensure) && consumes_solver_results n.file then
          List.iter
            (fun (name, loc) ->
              match
                Option.bind (Callgraph.resolve_value_name g name)
                  (Callgraph.find g)
              with
              | Some callee when not callee.has_ensure ->
                  out :=
                    diag ~node:(Some n) ~file:n.file ~loc ~rule:Rule.R8
                      (Printf.sprintf
                         "call to %s drops its convergence evidence; wrap \
                          the outcome in ensure_converged or raise a typed \
                          error on converged = false"
                         name)
                    :: !out
              | _ -> ())
            n.evidence_applied;
        List.iter
          (fun (d : Callgraph.discard) ->
            out :=
              diag ~node:(Some n) ~file:n.file ~loc:d.d_loc ~rule:Rule.R8
                (d.d_what
               ^ ": handle the payload or propagate with 'Error _ as e'")
              :: !out)
          n.discards
      end)
    (Callgraph.nodes g);
  List.rev !out

(* ------------------------------ R9 ------------------------------ *)

let r9 g =
  let out = ref [] in
  List.iter
    (fun (n : Callgraph.node) ->
      if Rule.applies_to Rule.R9 ~file:n.file then
        List.iter
          (fun (cs : Callgraph.compare_site) ->
            out :=
              diag ~node:(Some n) ~file:n.file ~loc:cs.cs_loc ~rule:Rule.R9
                (Printf.sprintf
                   "polymorphic %s instantiated at %s, which contains \
                    float: NaN breaks the total order; use Float.compare \
                    / Float.equal or compare on an explicit key"
                   cs.op cs.ty_rendered)
              :: !out)
          n.compare_sites)
    (Callgraph.nodes g);
  List.rev !out

(* ------------------------------ R10 ----------------------------- *)

(* A node is covered when it opens a span itself, or when it hands a
   span-opening function around without calling it (the registry's
   [guarded] wrapper pattern: the span is applied dynamically through a
   record field, invisible to static edges). *)
let covered g (n : Callgraph.node) =
  n.has_span
  ||
  let applied_names =
    List.sort_uniq String.compare (List.map fst n.applied)
  in
  List.exists
    (fun (name, _) ->
      (not (List.mem name applied_names))
      &&
      match Callgraph.resolve_value_name g name with
      | Some id -> (
          match Callgraph.find g id with
          | Some m -> m.has_span
          | None -> false)
      | None -> false)
    n.edges

let r10 g =
  let out = ref [] in
  List.iter
    (fun (n : Callgraph.node) ->
      if
        Rule.applies_to Rule.R10 ~file:n.file
        && Callgraph.callers g n.id = []
        && not (covered g n)
      then begin
        let parents =
          Callgraph.reach_with_parents g
            ~skip:(fun id ->
              match Callgraph.find g id with
              | Some m -> covered g m
              | None -> false)
            ~roots:[ n.id ]
        in
        let emitter =
          List.find_opt
            (fun (m : Callgraph.node) ->
              Hashtbl.mem parents m.id && m.metric_emits <> [])
            (Callgraph.nodes g)
        in
        match emitter with
        | Some m ->
            let loc =
              { Location.none with
                Location.loc_start =
                  { Lexing.pos_fname = n.file; pos_lnum = n.line;
                    pos_bol = 0; pos_cnum = n.col } }
            in
            out :=
              diag
                ~witness:(Callgraph.chain g ~parents m.id)
                ~node:(Some n) ~file:n.file ~loc ~rule:Rule.R10
                (Printf.sprintf
                   "entry point %s emits metrics (via %s) with no figure \
                    scope on the path: wrap it in Trace.with_span or \
                    Common.with_figure_scope, or register it so the \
                    registry's guard applies"
                   n.id m.id)
              :: !out
        | None -> ()
      end)
    (Callgraph.nodes g);
  List.rev !out

let run g = List.concat [ r7 g; r8 g; r9 g; r10 g ]
