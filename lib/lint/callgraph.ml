(* Cross-module value-level call graph over the loaded typed trees.

   Each top-level value binding (including bindings inside nested
   modules and functor bodies) becomes a node named by its canonical
   dotted path, e.g. "Po_model.Monopoly.price_sweep".  One traversal per
   unit records, per node, everything the typed rules need:

   - [edges]: every resolved reference to another top-level value, with
     the reference location.  Reachability (R7/R10) follows all edges,
     not just application heads — a function passed as an argument is a
     function that will run.
   - [mutations]: writes to state the node does not own — ref
     assignment, Hashtbl/Buffer/Queue/Stack updates, mutable record
     fields — where the target is not bound inside the node.  Atomic
     operations are never recorded (that is the sanctioned primitive),
     [Domain.DLS]-derived targets and [Mutex.protect] bodies are
     exempt.
   - [pool_calls]: call sites of the Po_par.Pool combinators, with the
     values referenced by their closure arguments (the reachability
     roots of R7) and any shared mutation inside the closures
     themselves.
   - [compare_sites]: uses of the polymorphic comparison family whose
     instantiated argument type contains [float] (R9's evidence).
   - [discards]: result values dropped via [ignore], [let _ =] or a
     wildcard [Error _] match arm (R8's evidence; [Error _ as e] is
     propagation and exempt).
   - [evidence_applied]: applications whose result carries convergence
     evidence, a [converged] flag (R8's other evidence).
   - flags: does the node apply a span wrapper, an
     [ensure_converged]-style check, a metrics emitter?

   Name resolution undoes dune's module mangling (both "Lib__Mod" unit
   names and references through generated alias modules land on
   "Lib.Mod"), follows top-level [module M = ...] aliases including
   functor applications, and uses binder stamps for within-unit
   references, so internal and external references to the same value
   unify on one node id. *)

type mutation = {
  mut_loc : Location.t;
  what : string;  (* human description, e.g. "Hashtbl.replace" *)
}

type pool_call = {
  pc_loc : Location.t;
  combinator : string;  (* "parallel_map", "chain_map", ... *)
  closure_roots : (string * Location.t) list;
      (* top-level values referenced from the closure arguments *)
  closure_mutations : mutation list;
      (* shared-state writes directly inside the closure arguments *)
}

type compare_site = {
  cs_loc : Location.t;
  op : string;  (* "compare", "=", "min", ... *)
  ty_rendered : string;  (* the offending argument type, for the message *)
}

type discard = { d_loc : Location.t; d_what : string }

type node = {
  id : string;
  file : string;
  line : int;
  col : int;
  mutable edges : (string * Location.t) list;
  mutable applied : (string * Location.t) list;  (* subset: application heads *)
  mutable evidence_applied : (string * Location.t) list;
      (* subset of [applied]: the result carries a [converged] flag *)
  mutable mutations : mutation list;
  mutable pool_calls : pool_call list;
  mutable has_span : bool;
  mutable has_ensure : bool;
  mutable metric_emits : Location.t list;
  mutable compare_sites : compare_site list;
  mutable discards : discard list;
}

type t = {
  nodes : (string, node) Hashtbl.t;
  order : string list;  (* node ids sorted by (file, line, id) *)
  values : (string, string) Hashtbl.t;  (* any top-level value name -> node id *)
  callers : (string, string list) Hashtbl.t;  (* node id -> caller node ids *)
}

(* ------------------------- naming -------------------------- *)

let join = String.concat "."

let last_two name =
  match List.rev (String.split_on_char '.' name) with
  | a :: b :: _ -> Some (b, a)
  | _ -> None

let last_one name =
  match List.rev (String.split_on_char '.' name) with
  | a :: _ -> Some a
  | [] -> None

let strip_stdlib name =
  match String.index_opt name '.' with
  | Some 6 when String.starts_with ~prefix:"Stdlib." name ->
      String.sub name 7 (String.length name - 7)
  | _ -> name

(* head ident and member path, outermost first:
   Po_core.Cp_game.solve -> (Po_core, ["Cp_game"; "solve"]) *)
let rec split_path p =
  match p with
  | Path.Pident id -> (id, [])
  | Path.Pdot (p, s) ->
      let id, tail = split_path p in
      (id, tail @ [ s ])
  | Path.Papply (p, _) -> split_path p
  | Path.Pextra_ty (p, _) -> split_path p

(* ------------------------- builder -------------------------- *)

type builder = {
  b_nodes : (string, node) Hashtbl.t;
  b_values : (string, string) Hashtbl.t;
  b_aliases : (string, string list) Hashtbl.t;
      (* joined module path -> canonical parts it stands for *)
  b_decls : (string, Types.type_declaration) Hashtbl.t;
      (* canonical type name (or "Unit/ident_stamp[.member]") -> decl *)
}

type unit_ctx = {
  info : Cmt_loader.unit_info;
  binders : (string, string) Hashtbl.t;  (* Ident.unique_name -> node id *)
  modstamps : (string, string list) Hashtbl.t;
      (* Ident.unique_name of a module -> canonical parts *)
  mutable bodies : (node * Typedtree.expression) list;
}

let resolve_alias b parts =
  let rec rewrite depth parts =
    if depth > 8 then parts
    else
      let rec try_prefix rev_pre post =
        match post with
        | [] -> None
        | seg :: rest -> (
            let rev_pre = seg :: rev_pre in
            match try_prefix rev_pre rest with
            | Some _ as r -> r  (* longest prefix wins *)
            | None -> (
                let prefix = List.rev rev_pre in
                match Hashtbl.find_opt b.b_aliases (join prefix) with
                | Some target when target <> prefix -> Some (target @ rest)
                | _ -> None))
      in
      match try_prefix [] parts with
      | Some parts' -> rewrite (depth + 1) parts'
      | None -> parts
  in
  rewrite 0 parts

let canonical_module_parts b ctx p =
  let head, tail = split_path p in
  let parts =
    if Ident.global head then
      Cmt_loader.canonical_of_modname (Ident.name head) @ tail
    else
      match Hashtbl.find_opt ctx.modstamps (Ident.unique_name head) with
      | Some parts -> parts @ tail
      | None -> Ident.name head :: tail
  in
  resolve_alias b parts

(* A value reference: [None] means a local (let-bound, parameter) that
   is no edge; otherwise the canonical dotted name. *)
let resolve_value b ctx p =
  let head, tail = split_path p in
  if Ident.global head then
    Some (join (resolve_alias b (Cmt_loader.canonical_of_modname (Ident.name head) @ tail)))
  else
    match Hashtbl.find_opt ctx.modstamps (Ident.unique_name head) with
    | Some parts -> Some (join (resolve_alias b (parts @ tail)))
    | None -> (
        match tail with
        | [] -> (
            match Hashtbl.find_opt ctx.binders (Ident.unique_name head) with
            | Some node_id -> Some node_id
            | None -> None)
        | _ ->
            (* through an unresolved local module (e.g. a functor
               parameter): keep a best-effort name; it matches no node
               and resolves to nothing, which is the right amount of
               conservatism. *)
            Some (join (Ident.name head :: tail)))

(* ---------------------- detector tables --------------------- *)

let pool_combinators =
  [ "parallel_map"; "maybe_map"; "parallel_init"; "chunk_map"; "chain_map";
    "map_reduce"; "run_chunks" ]

let is_pool_combinator name =
  match last_two name with
  | Some ("Pool", c) -> if List.mem c pool_combinators then Some c else None
  | _ -> None

let metric_ops = [ "incr"; "add"; "set"; "observe"; "time_s" ]

let is_metric_emit name =
  match last_two name with
  | Some ("Metrics", op) -> List.mem op metric_ops
  | _ -> false

let is_span_wrapper name =
  match last_one name with
  | Some ("with_span" | "with_figure_scope") -> true
  | _ -> false

let is_ensure name =
  match last_one name with Some "ensure_converged" -> true | _ -> false

let is_dls_get name =
  match last_two name with Some ("DLS", "get") -> true | _ -> false

let is_mutex_protect name =
  match last_two name with Some ("Mutex", "protect") -> true | _ -> false

(* Writes to the containers the domain-safety rule tracks.  Atomic is
   deliberately absent (that is the sanctioned escape hatch); Array is
   deliberately absent too — disjoint-index writes into a preallocated
   array are the pool's own result-collection idiom and ownership of
   indices is beyond a static rule. *)
let mutators =
  [ (":=", "ref assignment (:=)");
    ("incr", "incr on a ref");
    ("decr", "decr on a ref");
    ("Hashtbl.replace", "Hashtbl.replace");
    ("Hashtbl.add", "Hashtbl.add");
    ("Hashtbl.remove", "Hashtbl.remove");
    ("Hashtbl.reset", "Hashtbl.reset");
    ("Hashtbl.clear", "Hashtbl.clear");
    ("Hashtbl.filter_map_inplace", "Hashtbl.filter_map_inplace");
    ("Buffer.add_string", "Buffer.add_string");
    ("Buffer.add_char", "Buffer.add_char");
    ("Buffer.add_bytes", "Buffer.add_bytes");
    ("Buffer.add_substring", "Buffer.add_substring");
    ("Buffer.add_buffer", "Buffer.add_buffer");
    ("Buffer.clear", "Buffer.clear");
    ("Buffer.reset", "Buffer.reset");
    ("Buffer.truncate", "Buffer.truncate");
    ("Queue.push", "Queue.push");
    ("Queue.add", "Queue.add");
    ("Queue.pop", "Queue.pop");
    ("Queue.take", "Queue.take");
    ("Queue.clear", "Queue.clear");
    ("Queue.transfer", "Queue.transfer");
    ("Stack.push", "Stack.push");
    ("Stack.pop", "Stack.pop");
    ("Stack.clear", "Stack.clear") ]

let mutator_of name = List.assoc_opt (strip_stdlib name) mutators

(* Polymorphic comparison family.  The structural members are flagged
   wherever they are instantiated at a float-bearing type; the ordering
   operators only when abstracted ([List.sort (<) ...]) — a direct
   [x < y] on floats is specialized by the compiler to the IEEE
   primitive and is fine. *)
let compare_ops_any = [ "compare"; "="; "<>"; "=="; "!="; "min"; "max" ]
let compare_ops_ref_only = [ "<"; ">"; "<="; ">=" ]

(* ------------------------- type tests ----------------------- *)

let rec render_type b ctx ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) -> render_path b ctx p
  | Types.Tconstr (p, args, _) ->
      String.concat " "
        [ String.concat ", " (List.map (render_type b ctx) args);
          render_path b ctx p ]
  | Types.Ttuple tys ->
      String.concat " * " (List.map (render_type b ctx) tys)
  | Types.Tarrow (_, a, r, _) ->
      render_type b ctx a ^ " -> " ^ render_type b ctx r
  | Types.Tvar (Some v) -> "'" ^ v
  | Types.Tvar None -> "'_"
  | _ -> "_"

and render_path b ctx p =
  let head, tail = split_path p in
  if Ident.global head then
    join (resolve_alias b (Cmt_loader.canonical_of_modname (Ident.name head) @ tail))
  else
    match Hashtbl.find_opt ctx.modstamps (Ident.unique_name head) with
    | Some parts -> join (resolve_alias b (parts @ tail))
    | None -> join (Ident.name head :: tail)

let decl_keys b ctx p =
  let head, tail = split_path p in
  if Ident.global head then
    [ join (resolve_alias b (Cmt_loader.canonical_of_modname (Ident.name head) @ tail)) ]
  else
    let stamped =
      ctx.info.Cmt_loader.modname ^ "/" ^ Ident.unique_name head
      ^ (match tail with [] -> "" | _ -> "." ^ join tail)
    in
    match Hashtbl.find_opt ctx.modstamps (Ident.unique_name head) with
    | Some parts -> [ join (resolve_alias b (parts @ tail)); stamped ]
    | None -> [ stamped ]

(* Whether [hit] holds of [ty] or of a type inside it.  Abbreviations
   are always expanded.  [deep] searches every component at any depth
   (type arguments, tuple members, record fields, constructor
   arguments); otherwise only the direct members of a tuple or array
   at the top are searched.  [hit ~top p decl] sees each type
   constructor with its declaration when one is loaded; [top] tells the
   type asked about (or an expansion of it) from a member. *)
let rec type_exists b ctx ~deep ~hit ~top visited depth ty =
  if depth > 24 then false
  else
    let id = Types.get_id ty in
    if List.mem id !visited then false
    else begin
      visited := id :: !visited;
      let same = type_exists b ctx ~deep ~hit ~top visited (depth + 1) in
      let member =
        type_exists b ctx ~deep ~hit ~top:false visited (depth + 1)
      in
      match Types.get_desc ty with
      | Types.Tconstr (p, args, _) ->
          let decl =
            List.find_map (Hashtbl.find_opt b.b_decls) (decl_keys b ctx p)
          in
          hit ~top p decl
          || (match decl with
             | Some d ->
                 Option.fold ~none:false ~some:same d.Types.type_manifest
                 || (deep && decl_exists member d)
             | None -> false)
          || (deep || (top && Path.same p Predef.path_array))
             && List.exists member args
      | Types.Ttuple tys -> (deep || top) && List.exists member tys
      | Types.Tpoly (ty, _) -> same ty
      | _ -> false
    end

and decl_exists member (d : Types.type_declaration) =
  match d.Types.type_kind with
  | Types.Type_record (lds, _) ->
      List.exists (fun ld -> member ld.Types.ld_type) lds
  | Types.Type_variant (cds, _) ->
      List.exists
        (fun cd ->
          match cd.Types.cd_args with
          | Types.Cstr_tuple tys -> List.exists member tys
          | Types.Cstr_record lds ->
              List.exists (fun ld -> member ld.Types.ld_type) lds)
        cds
  | _ -> false

let type_contains_float b ctx ty =
  type_exists b ctx ~deep:true ~top:true (ref []) 0 ty
    ~hit:(fun ~top:_ p _ -> Path.same p Predef.path_float)

let is_bool ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) -> Path.same p Predef.path_bool
  | _ -> false

(* R8's evidence: the value is a record with a [converged : bool] field,
   or a tuple or array with such a record or a [bool] as a direct
   member.  Record fields are not searched, so an aggregate that holds
   outcomes (a duopoly or oligopoly equilibrium) is no evidence itself. *)
let carries_evidence b ctx ty =
  type_exists b ctx ~deep:false ~top:true (ref []) 0 ty
    ~hit:(fun ~top p decl ->
      ((not top) && Path.same p Predef.path_bool)
      ||
      match decl with
      | Some { Types.type_kind = Types.Type_record (lds, _); _ } ->
          List.exists
            (fun ld ->
              String.equal (Ident.name ld.Types.ld_id) "converged"
              && is_bool ld.Types.ld_type)
            lds
      | _ -> false)

(* --------------------- pass 1: skeleton --------------------- *)

let new_node b ~file ~(loc : Location.t) id_parts =
  let base = join id_parts in
  let id =
    if Hashtbl.mem b.b_nodes base then
      (* top-level shadowing: keep both, the later one under a
         line-qualified id (stamp-based references still resolve). *)
      Printf.sprintf "%s:%d" base loc.Location.loc_start.Lexing.pos_lnum
    else base
  in
  let n =
    { id; file;
      line = loc.Location.loc_start.Lexing.pos_lnum;
      col =
        loc.Location.loc_start.Lexing.pos_cnum
        - loc.Location.loc_start.Lexing.pos_bol;
      edges = []; applied = []; evidence_applied = []; mutations = [];
      pool_calls = [];
      has_span = false; has_ensure = false; metric_emits = [];
      compare_sites = []; discards = [] }
  in
  Hashtbl.replace b.b_nodes id n;
  n

(* [result] is an ordinary Stdlib type, not a Predef one; matching the
   path's last component also follows [type t = (a, b) result] aliases
   that keep the name. *)
let is_result_ty ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> String.equal (Path.last p) "result"
  | _ -> false

let rec collect_structure b ctx path (str : Typedtree.structure) =
  List.iter (collect_item b ctx path) str.Typedtree.str_items

and collect_item b ctx path item =
  let open Typedtree in
  match item.str_desc with
  | Tstr_value (_, vbs) -> List.iter (collect_vb b ctx path) vbs
  | Tstr_module mb -> collect_module b ctx path mb
  | Tstr_recmodule mbs -> List.iter (collect_module b ctx path) mbs
  | Tstr_type (_, decls) -> List.iter (collect_typedecl b ctx path) decls
  | Tstr_eval (e, _) ->
      let loc = item.str_loc in
      let n =
        new_node b ~file:ctx.info.Cmt_loader.file ~loc
          (path @ [ Printf.sprintf "(init:%d)" loc.Location.loc_start.Lexing.pos_lnum ])
      in
      ctx.bodies <- (n, e) :: ctx.bodies
  | Tstr_include { incl_mod; _ } -> (
      match incl_mod.mod_desc with
      | Tmod_structure s -> collect_structure b ctx path s
      | _ -> ())
  | _ -> ()

and collect_vb b ctx path vb =
  let open Typedtree in
  let ids = pat_bound_idents vb.vb_pat in
  let name_parts =
    match ids with
    | id :: _ -> path @ [ Ident.name id ]
    | [] ->
        path
        @ [ Printf.sprintf "(bind:%d)"
              vb.vb_loc.Location.loc_start.Lexing.pos_lnum ]
  in
  let n = new_node b ~file:ctx.info.Cmt_loader.file ~loc:vb.vb_loc name_parts in
  List.iter
    (fun id ->
      Hashtbl.replace ctx.binders (Ident.unique_name id) n.id;
      Hashtbl.replace b.b_values (join (path @ [ Ident.name id ])) n.id)
    ids;
  (match ids with
  | [] when is_result_ty vb.vb_expr.exp_type ->
      n.discards <-
        { d_loc = vb.vb_loc;
          d_what = "result value discarded by a wildcard binding" }
        :: n.discards
  | _ -> ());
  ctx.bodies <- (n, vb.vb_expr) :: ctx.bodies

and collect_module b ctx path mb =
  let open Typedtree in
  let name = Option.value mb.mb_name.Location.txt ~default:"_" in
  let path' = path @ [ name ] in
  Option.iter
    (fun id -> Hashtbl.replace ctx.modstamps (Ident.unique_name id) path')
    mb.mb_id;
  collect_modexpr b ctx path' mb.mb_expr

and collect_modexpr b ctx path me =
  let open Typedtree in
  match me.mod_desc with
  | Tmod_structure s -> collect_structure b ctx path s
  | Tmod_constraint (me, _, _, _) -> collect_modexpr b ctx path me
  | Tmod_functor (param, body) ->
      (match param with
      | Named (id_opt, _, mty) -> harvest_param_types b ctx id_opt mty
      | Unit -> ());
      collect_modexpr b ctx path body
  | Tmod_ident (p, _) ->
      let target = canonical_module_parts b ctx p in
      if target <> path then Hashtbl.replace b.b_aliases (join path) target
  | Tmod_apply (f, _, _) -> (
      (* [module M = F (X)]: route M's members to the functor body's
         nodes — shape-accurate enough for reachability and witnesses. *)
      match f.mod_desc with
      | Tmod_ident (p, _) ->
          let target = canonical_module_parts b ctx p in
          if target <> path then Hashtbl.replace b.b_aliases (join path) target
      | _ -> ())
  | Tmod_apply_unit f -> (
      match f.mod_desc with
      | Tmod_ident (p, _) ->
          let target = canonical_module_parts b ctx p in
          if target <> path then Hashtbl.replace b.b_aliases (join path) target
      | _ -> ())
  | Tmod_unpack _ -> ()

and collect_typedecl b ctx path (td : Typedtree.type_declaration) =
  let name = Ident.name td.Typedtree.typ_id in
  Hashtbl.replace b.b_decls (join (path @ [ name ])) td.Typedtree.typ_type;
  Hashtbl.replace b.b_decls
    (ctx.info.Cmt_loader.modname ^ "/" ^ Ident.unique_name td.Typedtree.typ_id)
    td.Typedtree.typ_type

and harvest_param_types b ctx id_opt (mty : Typedtree.module_type) =
  (* Type abbreviations in a functor parameter's signature ([X : sig
     type t = float end]): register them under the parameter's stamp so
     [X.t] inside the body resolves for the float test. *)
  match (id_opt, mty.Typedtree.mty_desc) with
  | Some pid, Typedtree.Tmty_signature sg ->
      List.iter
        (fun (si : Typedtree.signature_item) ->
          match si.Typedtree.sig_desc with
          | Typedtree.Tsig_type (_, tds) ->
              List.iter
                (fun (td : Typedtree.type_declaration) ->
                  Hashtbl.replace b.b_decls
                    (ctx.info.Cmt_loader.modname ^ "/"
                    ^ Ident.unique_name pid ^ "."
                    ^ Ident.name td.Typedtree.typ_id)
                    td.Typedtree.typ_type)
                tds
          | _ -> ())
        sg.Typedtree.sig_items
  | _ -> ()

(* --------------------- pass 2: node facts ------------------- *)

type facts = {
  mutable f_edges : (string * Location.t) list;
  mutable f_applied : (string * Location.t) list;
  mutable f_evidence_applied : (string * Location.t) list;
  mutable f_mutations : mutation list;
  mutable f_pool_calls : pool_call list;
  mutable f_has_span : bool;
  mutable f_has_ensure : bool;
  mutable f_metric_emits : Location.t list;
  mutable f_compare_sites : compare_site list;
  mutable f_discards : discard list;
}

let fresh_facts () =
  { f_edges = []; f_applied = []; f_evidence_applied = []; f_mutations = [];
    f_pool_calls = [];
    f_has_span = false; f_has_ensure = false; f_metric_emits = [];
    f_compare_sites = []; f_discards = [] }

let loc_key (loc : Location.t) =
  (loc.Location.loc_start.Lexing.pos_lnum,
   loc.Location.loc_start.Lexing.pos_cnum - loc.Location.loc_start.Lexing.pos_bol)

let is_funarg ty =
  match Types.get_desc ty with
  | Types.Tarrow _ -> true
  | Types.Tconstr (p, [ t ], _) when Path.same p Predef.path_option -> (
      match Types.get_desc t with Types.Tarrow _ -> true | _ -> false)
  | _ -> false

let rec scan_expr b ctx (root : Typedtree.expression) : facts =
  let open Typedtree in
  let f = fresh_facts () in
  let bound = Hashtbl.create 64 in
  (* character spans of Mutex.protect bodies: writes inside them are
     lock-protected, not data races *)
  let protected_spans = ref [] in
  (* application-head locations, to tell an applied [<] (specialized,
     fine) from an abstracted one (generic compare, flagged) *)
  let head_locs = Hashtbl.create 16 in
  let in_protected (loc : Location.t) =
    let c = loc.Location.loc_start.Lexing.pos_cnum in
    List.exists (fun (a, z) -> a <= c && c <= z) !protected_spans
  in
  let resolve_head (e : expression) =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> resolve_value b ctx p
    | _ -> None
  in
  let rec head_shared (e : expression) =
    match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) ->
        not (Hashtbl.mem bound (Ident.unique_name id))
    | Texp_ident (_, _, _) -> true
    | Texp_field (e, _, _) -> head_shared e
    | Texp_apply (hd, _) -> (
        match resolve_head hd with
        | Some name when is_dls_get name -> false
        | _ -> true)
    | Texp_let (_, _, e) | Texp_sequence (_, e) -> head_shared e
    | _ -> true
  in
  let record_mutation into what (site : Location.t) target =
    if head_shared target && not (in_protected site) then
      into := { mut_loc = site; what } :: !into
  in
  let muts_acc = ref [] in
  let bind_pat : type k. k general_pattern -> unit =
   fun p ->
    List.iter
      (fun id -> Hashtbl.replace bound (Ident.unique_name id) ())
      (pat_bound_idents p)
  in
  let expr_hook (sub : Tast_iterator.iterator) (e : expression) =
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> (
        match resolve_value b ctx p with
        | None -> ()
        | Some name ->
            f.f_edges <- (name, e.exp_loc) :: f.f_edges;
            let op = strip_stdlib name in
            let interesting =
              List.mem op compare_ops_any
              || (List.mem op compare_ops_ref_only
                 && not (Hashtbl.mem head_locs (loc_key e.exp_loc)))
            in
            if interesting then (
              match Types.get_desc e.exp_type with
              | Types.Tarrow (_, t1, _, _) when type_contains_float b ctx t1 ->
                  f.f_compare_sites <-
                    { cs_loc = e.exp_loc; op;
                      ty_rendered = render_type b ctx t1 }
                    :: f.f_compare_sites
              | _ -> ()))
    | Texp_apply (hd, args) -> (
        Hashtbl.replace head_locs (loc_key hd.exp_loc) ();
        match resolve_head hd with
        | None -> ()
        | Some name ->
            f.f_applied <- (name, e.exp_loc) :: f.f_applied;
            if carries_evidence b ctx e.exp_type then
              f.f_evidence_applied <-
                (name, e.exp_loc) :: f.f_evidence_applied;
            if is_span_wrapper name then f.f_has_span <- true;
            if is_ensure name then f.f_has_ensure <- true;
            if is_metric_emit name then
              f.f_metric_emits <- e.exp_loc :: f.f_metric_emits;
            if is_mutex_protect name then
              protected_spans :=
                (e.exp_loc.Location.loc_start.Lexing.pos_cnum,
                 e.exp_loc.Location.loc_end.Lexing.pos_cnum)
                :: !protected_spans;
            (match mutator_of name with
            | Some what -> (
                match
                  List.find_opt
                    (fun (lbl, arg) ->
                      lbl = Asttypes.Nolabel && Option.is_some arg)
                    args
                with
                | Some (_, Some target) ->
                    record_mutation muts_acc what e.exp_loc target
                | _ -> ())
            | None -> ());
            if String.equal (strip_stdlib name) "ignore" then (
              match args with
              | [ (_, Some arg) ] when is_result_ty arg.exp_type ->
                  f.f_discards <-
                    { d_loc = e.exp_loc;
                      d_what = "result value discarded via ignore" }
                    :: f.f_discards
              | _ -> ());
            (match is_pool_combinator name with
            | None -> ()
            | Some comb ->
                let roots = ref [] and cmuts = ref [] in
                List.iter
                  (fun (_, arg) ->
                    match arg with
                    | Some a when is_funarg a.exp_type ->
                        let sub_facts = scan_expr b ctx a in
                        roots := sub_facts.f_edges @ !roots;
                        cmuts := sub_facts.f_mutations @ !cmuts
                    | _ -> ())
                  args;
                f.f_pool_calls <-
                  { pc_loc = e.exp_loc; combinator = comb;
                    closure_roots = List.rev !roots;
                    closure_mutations = List.rev !cmuts }
                  :: f.f_pool_calls))
    | Texp_setfield (target, _, ld, _) ->
        record_mutation muts_acc
          (Printf.sprintf "mutable field %s <-" ld.Types.lbl_name)
          e.exp_loc target
    | Texp_for (id, _, _, _, _, _) ->
        Hashtbl.replace bound (Ident.unique_name id) ()
    | Texp_letmodule (id_opt, _, _, me, _) ->
        Option.iter
          (fun id ->
            match me.mod_desc with
            | Tmod_ident (p, _) ->
                Hashtbl.replace ctx.modstamps (Ident.unique_name id)
                  (canonical_module_parts b ctx p)
            | _ -> ())
          id_opt
    | Texp_match (_, cases, _) ->
        List.iter
          (fun (c : computation case) ->
            match c.c_lhs.pat_desc with
            | Tpat_value v -> (
                let p = (v :> value general_pattern) in
                match p.pat_desc with
                | Tpat_construct (_, cstr, [ arg ], _)
                  when String.equal cstr.Types.cstr_name "Error"
                       && is_result_ty p.pat_type -> (
                    match arg.pat_desc with
                    | Tpat_any ->
                        f.f_discards <-
                          { d_loc = p.pat_loc;
                            d_what =
                              "error payload discarded by wildcard Error \
                               arm" }
                          :: f.f_discards
                    | _ -> ())
                | _ -> ())
            | _ -> ())
          cases
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let pat_hook : type k.
      Tast_iterator.iterator -> k general_pattern -> unit =
   fun sub p ->
    bind_pat p;
    Tast_iterator.default_iterator.pat sub p
  in
  let vb_hook (sub : Tast_iterator.iterator) (vb : value_binding) =
    (match vb.vb_pat.pat_desc with
    | Tpat_any when is_result_ty vb.vb_expr.exp_type ->
        f.f_discards <-
          { d_loc = vb.vb_loc;
            d_what = "result value discarded by a wildcard binding" }
          :: f.f_discards
    | _ -> ());
    Tast_iterator.default_iterator.value_binding sub vb
  in
  let iter =
    { Tast_iterator.default_iterator with
      expr = expr_hook;
      pat = pat_hook;
      value_binding = vb_hook }
  in
  iter.expr iter root;
  (* Mutex.protect spans are discovered while walking; the walk visits
     the combinator application before its argument closures, so the
     span list is complete by the time each write inside is tested. *)
  f.f_mutations <-
    List.rev (List.filter (fun m -> not (in_protected m.mut_loc)) !muts_acc);
  f.f_edges <- List.rev f.f_edges;
  f.f_applied <- List.rev f.f_applied;
  f.f_evidence_applied <- List.rev f.f_evidence_applied;
  f.f_pool_calls <- List.rev f.f_pool_calls;
  f.f_metric_emits <- List.rev f.f_metric_emits;
  f.f_compare_sites <- List.rev f.f_compare_sites;
  f.f_discards <- List.rev f.f_discards;
  f

(* -------------------------- build --------------------------- *)

let build (units : Cmt_loader.unit_info list) : t =
  let b =
    { b_nodes = Hashtbl.create 512;
      b_values = Hashtbl.create 512;
      b_aliases = Hashtbl.create 64;
      b_decls = Hashtbl.create 256 }
  in
  let ctxs =
    List.map
      (fun info ->
        let ctx =
          { info; binders = Hashtbl.create 64;
            modstamps = Hashtbl.create 16; bodies = [] }
        in
        collect_structure b ctx info.Cmt_loader.canonical
          info.Cmt_loader.structure;
        ctx)
      units
  in
  List.iter
    (fun ctx ->
      List.iter
        (fun (n, body) ->
          let facts = scan_expr b ctx body in
          n.edges <- facts.f_edges;
          n.applied <- facts.f_applied;
          n.evidence_applied <- facts.f_evidence_applied;
          n.mutations <- n.mutations @ facts.f_mutations;
          n.pool_calls <- facts.f_pool_calls;
          n.has_span <- facts.f_has_span;
          n.has_ensure <- facts.f_has_ensure;
          n.metric_emits <- facts.f_metric_emits;
          n.compare_sites <- facts.f_compare_sites;
          n.discards <- n.discards @ facts.f_discards)
        (List.rev ctx.bodies))
    ctxs;
  let order =
    (* polint: allow R2 -- the collected list is fully sorted below;
       the fold order cannot reach the result *)
    Hashtbl.fold (fun _ n acc -> n :: acc) b.b_nodes []
    |> List.sort (fun a b ->
           match String.compare a.file b.file with
           | 0 -> (
               match Int.compare a.line b.line with
               | 0 -> String.compare a.id b.id
               | c -> c)
           | c -> c)
    |> List.map (fun n -> n.id)
  in
  let callers = Hashtbl.create 256 in
  List.iter
    (fun id ->
      match Hashtbl.find_opt b.b_nodes id with
      | None -> ()
      | Some n ->
          List.sort_uniq String.compare (List.map fst n.edges)
          |> List.iter (fun target ->
                 if
                   (not (String.equal target n.id))
                   && Hashtbl.mem b.b_nodes target
                 then
                   Hashtbl.replace callers target
                     (n.id
                     :: Option.value
                          (Hashtbl.find_opt callers target)
                          ~default:[])))
    order;
  { nodes = b.b_nodes; order; values = b.b_values; callers }

(* ------------------------- queries -------------------------- *)

let find t id = Hashtbl.find_opt t.nodes id

let resolve_value_name t name =
  match Hashtbl.find_opt t.values name with
  | Some id -> Some id
  | None -> if Hashtbl.mem t.nodes name then Some name else None

let nodes t = List.filter_map (find t) t.order

let callers t id = Option.value (Hashtbl.find_opt t.callers id) ~default:[]

let reach_with_parents t ~skip ~roots =
  let parents = Hashtbl.create 64 in
  let q = Queue.create () in
  List.iter
    (fun r ->
      match resolve_value_name t r with
      | Some id when not (Hashtbl.mem parents id) ->
          if not (skip id) then begin
            Hashtbl.replace parents id None;
            Queue.add id q
          end
      | _ -> ())
    roots;
  while not (Queue.is_empty q) do
    let id = Queue.pop q in
    match find t id with
    | None -> ()
    | Some n ->
        List.iter
          (fun (target, _) ->
            match resolve_value_name t target with
            | Some tid
              when (not (Hashtbl.mem parents tid)) && not (skip tid) ->
                Hashtbl.replace parents tid (Some id);
                Queue.add tid q
            | _ -> ())
          n.edges
  done;
  parents

let frame t id =
  match find t id with
  | Some n -> Printf.sprintf "%s (%s:%d)" n.id n.file n.line
  | None -> id

let chain t ~parents id =
  let rec up acc id =
    match Hashtbl.find_opt parents id with
    | Some (Some parent) -> up (id :: acc) parent
    | Some None | None -> id :: acc
  in
  List.map (frame t) (up [] id)
