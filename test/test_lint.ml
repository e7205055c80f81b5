(* Fixture-driven tests for po_lint: embedded snippets that must trigger
   each rule R1-R6, clean snippets that must not, suppression-comment and
   allowlist handling, typed-tree fixtures for the interprocedural rules
   R7-R10 (type-checked in process against the repo's real libraries),
   call-graph unit tests, and whole-tree runs asserting the repository
   itself lints clean under both stages. *)

open Po_lint

let rules_found diags =
  List.sort_uniq String.compare
    (List.map (fun d -> d.Diagnostic.rule) diags)

let check_rules msg expected diags =
  Alcotest.(check (list string)) msg expected (rules_found diags)

let lint ?(file = "lib/fixture/snippet.ml") ?has_mli src =
  Lint.lint_source ~file ?has_mli src

(* ------------------------------------------------------------------ *)
(* R1: polymorphic compare / float equality                           *)
(* ------------------------------------------------------------------ *)

let test_r1_bare_compare () =
  check_rules "Array.sort compare flagged" [ "R1" ]
    (lint "let f xs = Array.sort compare xs");
  check_rules "Stdlib.compare flagged" [ "R1" ]
    (lint "let c = Stdlib.compare");
  check_rules "List.sort_uniq compare flagged" [ "R1" ]
    (lint "let f xs = List.sort_uniq compare xs")

let test_r1_float_equality () =
  check_rules "= on float literal" [ "R1" ] (lint "let f x = x = 1.0");
  check_rules "<> on float literal" [ "R1" ] (lint "let f x = x <> 0.5");
  check_rules "= on float annotation" [ "R1" ]
    (lint "let f x y = (x : float) = y");
  check_rules "= on infinity" [ "R1" ]
    (lint "let f x = x = Float.infinity");
  check_rules "= on nan is flagged" [ "R1" ] (lint "let f x = x = nan");
  check_rules "= on float arithmetic" [ "R1" ]
    (lint "let f x y = x = y +. 1.")

let test_r1_clean () =
  check_rules "Float.compare is the fix" []
    (lint "let f xs = Array.sort Float.compare xs");
  check_rules "Float.equal is the fix" []
    (lint "let f x = Float.equal x 1.0");
  check_rules "int equality untouched" [] (lint "let f n = n = 1");
  check_rules "string equality untouched" []
    (lint {|let f s = s = "x"|});
  check_rules "module-qualified compare untouched" []
    (lint "let f a b = String.compare a b");
  check_rules "defining a compare is not using one" []
    (lint "let compare a b = Float.compare a b")

(* ------------------------------------------------------------------ *)
(* R2: nondeterminism sources                                         *)
(* ------------------------------------------------------------------ *)

let test_r2_sources () =
  check_rules "Random.self_init" [ "R2" ]
    (lint "let () = Random.self_init ()");
  check_rules "Random.int (ambient state)" [ "R2" ]
    (lint "let f () = Random.int 10");
  check_rules "Sys.time" [ "R2" ] (lint "let t () = Sys.time ()");
  check_rules "Unix.gettimeofday" [ "R2" ]
    (lint "let t () = Unix.gettimeofday ()");
  check_rules "Hashtbl.iter" [ "R2" ]
    (lint "let f h = Hashtbl.iter (fun _ v -> ignore v) h");
  check_rules "Hashtbl.fold" [ "R2" ]
    (lint "let dump h acc = Hashtbl.fold (fun _ v l -> v :: l) h acc")

let test_r2_whitelisted_cache_ops () =
  check_rules "find_opt/add caches are fine" []
    (lint
       "let memo h k f = match Hashtbl.find_opt h k with Some v -> v | \
        None -> let v = f k in Hashtbl.add h k v; v");
  check_rules "explicit Random.State is fine" []
    (lint "let f st = Random.State.int st 10")

let test_r2_exempt_under_test () =
  check_rules "R2 does not apply under test/" []
    (lint ~file:"test/fixture.ml" "let t () = Sys.time ()");
  check_rules "R1 still applies under test/" [ "R1" ]
    (lint ~file:"test/fixture.ml" "let f x = x = 1.0")

(* ------------------------------------------------------------------ *)
(* R3: exception swallowing                                           *)
(* ------------------------------------------------------------------ *)

let test_r3 () =
  check_rules "with _ ->" [ "R3" ]
    (lint "let f g = try g () with _ -> 0");
  check_rules "with _ -> () " [ "R3" ]
    (lint "let f g = try g () with _ -> ()");
  check_rules "wildcard among specific handlers" [ "R3" ]
    (lint "let f g = try g () with Not_found -> 1 | _ -> 0");
  check_rules "specific handler is fine" []
    (lint "let f g = try g () with Not_found -> 0")

(* ------------------------------------------------------------------ *)
(* R4: console output inside lib/                                     *)
(* ------------------------------------------------------------------ *)

let test_r4 () =
  check_rules "Printf.printf in lib/" [ "R4" ]
    (lint ~file:"lib/core/fixture.ml" {|let f () = Printf.printf "x"|});
  check_rules "print_string in lib/" [ "R4" ]
    (lint ~file:"lib/core/fixture.ml" {|let f () = print_string "x"|});
  check_rules "Format.printf in lib/" [ "R4" ]
    (lint ~file:"lib/core/fixture.ml" {|let f () = Format.printf "x"|});
  check_rules "Printf.sprintf is pure, fine" []
    (lint ~file:"lib/core/fixture.ml" {|let f () = Printf.sprintf "x"|});
  (* The daemon layer is NOT an output layer: its access log must go
     through Po_report.Writer, so raw console output in lib/serve is a
     violation like anywhere else in lib/. *)
  check_rules "print in the serve daemon layer" [ "R4" ]
    (lint ~file:"lib/serve/fixture.ml" {|let f () = print_endline "access"|});
  check_rules "eprintf in the serve daemon layer" [ "R4" ]
    (lint ~file:"lib/serve/fixture.ml" {|let f () = Printf.eprintf "x"|});
  check_rules "printing from bin/ is fine" []
    (lint ~file:"bin/fixture.ml" {|let f () = print_string "x"|});
  check_rules "lib/report is the output layer, exempt" []
    (lint ~file:"lib/report/fixture.ml" {|let f () = print_string "x"|})

(* ------------------------------------------------------------------ *)
(* R5: missing .mli                                                   *)
(* ------------------------------------------------------------------ *)

let test_r5 () =
  check_rules "lib module without .mli" [ "R5" ]
    (lint ~file:"lib/core/fixture.ml" ~has_mli:false "let x = 1");
  check_rules "lib module with .mli" []
    (lint ~file:"lib/core/fixture.ml" ~has_mli:true "let x = 1");
  check_rules "bin module needs no .mli" []
    (lint ~file:"bin/fixture.ml" ~has_mli:false "let x = 1")

(* ------------------------------------------------------------------ *)
(* R6: raw file writes                                                *)
(* ------------------------------------------------------------------ *)

let test_r6 () =
  check_rules "open_out in lib/" [ "R6" ]
    (lint ~file:"lib/core/fixture.ml" {|let f p = open_out p|});
  check_rules "open_out_bin in bin/" [ "R6" ]
    (lint ~file:"bin/fixture.ml" {|let f p = open_out_bin p|});
  check_rules "open_out_gen in bench/" [ "R6" ]
    (lint ~file:"bench/fixture.ml"
       {|let f p = open_out_gen [ Open_append ] 0o644 p|});
  check_rules "Sys.mkdir" [ "R6" ]
    (lint ~file:"lib/core/fixture.ml" {|let f p = Sys.mkdir p 0o755|});
  check_rules "Unix.mkdir" [ "R6" ]
    (lint ~file:"bin/fixture.ml" {|let f p = Unix.mkdir p 0o755|});
  check_rules "open_in is a read, fine" []
    (lint ~file:"lib/core/fixture.ml" {|let f p = open_in p|});
  check_rules "lib/report is the writer layer, exempt" []
    (lint ~file:"lib/report/fixture.ml" {|let f p = open_out p|});
  check_rules "test/ writes fixtures freely" []
    (lint ~file:"test/fixture.ml" {|let f p = open_out p|})

(* ------------------------------------------------------------------ *)
(* Suppression comments                                               *)
(* ------------------------------------------------------------------ *)

let test_suppression_same_line () =
  check_rules "trailing allow comment silences" []
    (lint
       "let t () = Sys.time () (* polint: allow R2 -- fixture needs the \
        clock *)")

let test_suppression_line_above () =
  check_rules "allow comment above silences" []
    (lint
       "(* polint: allow R2 -- fixture needs the clock *)\n\
        let t () = Sys.time ()")

let test_suppression_wrong_rule () =
  check_rules "allow for another rule does not silence" [ "R2" ]
    (lint
       "let t () = Sys.time () (* polint: allow R1 -- wrong rule on \
        purpose *)")

let test_suppression_out_of_range () =
  check_rules "allow two lines up does not silence" [ "R2" ]
    (lint
       "(* polint: allow R2 -- too far away *)\n\
        let unrelated = 1\n\
        let t () = Sys.time ()")

let test_suppression_multiple_rules () =
  check_rules "one comment may allow several rules" []
    (lint ~file:"lib/core/fixture.ml"
       "(* polint: allow R2, R4 -- fixture exercises both *)\n\
        let t () = Printf.printf \"%f\" (Sys.time ())")

let test_suppression_malformed () =
  check_rules "missing justification is reported" [ "R2"; "suppress" ]
    (lint "let t () = Sys.time () (* polint: allow R2 *)");
  check_rules "missing rule id is reported" [ "R2"; "suppress" ]
    (lint "let t () = Sys.time () (* polint: allow because reasons *)");
  check_rules "unknown directive is reported" [ "suppress" ]
    (lint "let x = 1 (* polint: ignore R2 *)")

let test_suppression_unknown_rule_id () =
  (* 'allow R99' names a rule that does not exist: a parse diagnostic
     (drivers exit 2), never a silent no-op justification word. *)
  check_rules "unknown rule id in a directive is a parse error"
    [ "R2"; "suppress" ]
    (lint "let t () = Sys.time () (* polint: allow R99 -- typo *)");
  check_rules "known alongside unknown still reports" [ "suppress" ]
    (lint "let x = 1 (* polint: allow R1, R99 -- typo *)")

(* ------------------------------------------------------------------ *)
(* Allowlist                                                          *)
(* ------------------------------------------------------------------ *)

let allowlist_exn text =
  match Suppress.allowlist_of_string ~src:"inline" text with
  | Ok a -> a
  | Error e -> Alcotest.fail e

let test_allowlist_exact_file () =
  let allowlist =
    allowlist_exn "R2 lib/fixture/snippet.ml fixture is exempt\n"
  in
  check_rules "exact path exempts" []
    (Lint.lint_source ~file:"lib/fixture/snippet.ml" ~allowlist
       "let t () = Sys.time ()");
  check_rules "other files stay covered" [ "R2" ]
    (Lint.lint_source ~file:"lib/fixture/other.ml" ~allowlist
       "let t () = Sys.time ()")

let test_allowlist_subtree () =
  let allowlist = allowlist_exn "R4 lib/fixture/ whole subtree exempt\n" in
  check_rules "subtree prefix exempts" []
    (Lint.lint_source ~file:"lib/fixture/deep/mod.ml" ~allowlist
       {|let f () = print_string "x"|});
  check_rules "exempts only the listed rule" [ "R2" ]
    (Lint.lint_source ~file:"lib/fixture/deep/mod.ml" ~allowlist
       "let t () = Sys.time ()")

let test_allowlist_rejects_garbage () =
  (match Suppress.allowlist_of_string ~src:"inline" "R99 foo.ml reason\n" with
  | Ok _ -> Alcotest.fail "unknown rule id accepted"
  | Error _ -> ());
  match Suppress.allowlist_of_string ~src:"inline" "R2 foo.ml\n" with
  | Ok _ -> Alcotest.fail "entry without justification accepted"
  | Error _ -> ()

let test_allowlist_typed_rules_accepted () =
  (* R7-R10 are first-class catalogue entries: allowlist lines naming
     them parse and match. *)
  let allowlist = allowlist_exn "R7 lib/fixture/racy.ml fixture reason\n" in
  Alcotest.(check bool) "R7 entry parsed and matches" true
    (Suppress.allows allowlist ~rule:Rule.R7 ~file:"lib/fixture/racy.ml")

let test_allowlist_comments_and_blanks () =
  let allowlist =
    allowlist_exn "# header\n\nR2 bench/x.ml reason text # trailing\n"
  in
  Alcotest.(check bool) "entry parsed" true
    (Suppress.allows allowlist ~rule:Rule.R2 ~file:"bench/x.ml")

(* ------------------------------------------------------------------ *)
(* Parse failures                                                     *)
(* ------------------------------------------------------------------ *)

let test_parse_error_reported () =
  check_rules "unparsable file yields a parse diagnostic" [ "parse" ]
    (lint "let let let")

(* ------------------------------------------------------------------ *)
(* JSON rendering                                                     *)
(* ------------------------------------------------------------------ *)

let test_json_envelope () =
  let diags = lint "let f x = x = 1.0" in
  let json = Diagnostic.list_to_json diags in
  let has_fragment frag =
    let fl = String.length frag and jl = String.length json in
    let rec scan i =
      i + fl <= jl && (String.equal (String.sub json i fl) frag || scan (i + 1))
    in
    scan 0
  in
  Alcotest.(check bool)
    "schema tag" true
    (has_fragment {|"schema":"polint-v1"|});
  Alcotest.(check bool) "count field" true (has_fragment {|"count":1|});
  Alcotest.(check bool) "rule field" true (has_fragment {|"rule":"R1"|});
  Alcotest.(check bool)
    "file field" true
    (has_fragment {|"file":"lib/fixture/snippet.ml"|})

(* ------------------------------------------------------------------ *)
(* Typed-stage fixtures (R7-R10)                                      *)
(* ------------------------------------------------------------------ *)

(* Tests run from _build/default/test; the checkout is the topmost
   ancestor directory that carries a dune-project (the _build mirror has
   one too, hence "topmost"). *)
let repo_root () =
  let rec climb dir best =
    let best =
      if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
      else best
    in
    let parent = Filename.dirname dir in
    if String.equal parent dir then best else climb parent best
  in
  climb (Sys.getcwd ()) None

let repo_root_exn () =
  match repo_root () with
  | Some root -> root
  | None -> Alcotest.fail "no dune-project found above the test cwd"

(* The .objs/byte directories of the current build: cmi load path for
   in-process type checking of fixtures that reference the repo's real
   libraries (Po_par, Po_obs, ...). *)
let fixture_load_dirs =
  lazy
    (let root = repo_root_exn () in
     let build = Filename.concat (Filename.concat root "_build") "default" in
     let out = ref [] in
     let rec walk dir =
       match Sys.readdir dir with
       | entries ->
           Array.sort String.compare entries;
           Array.iter
             (fun entry ->
               let path = Filename.concat dir entry in
               if Sys.is_directory path then
                 if Filename.check_suffix entry ".objs" then begin
                   let byte = Filename.concat path "byte" in
                   if Sys.file_exists byte && Sys.is_directory byte then
                     out := byte :: !out
                 end
                 else walk path)
             entries
       | exception Sys_error _ -> ()
     in
     walk (Filename.concat build "lib");
     List.rev !out)

let typecheck ~file source =
  Cmt_loader.typecheck_impl ~load_dirs:(Lazy.force fixture_load_dirs) ~file
    source

let typed_lint ?rules ?allowlist ~file source =
  Lint.lint_typed_units ?rules ?allowlist [ typecheck ~file source ]

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i =
    i + nl <= hl
    && (String.equal (String.sub hay i nl) needle || scan (i + 1))
  in
  scan 0

let witness_mentions needle (d : Diagnostic.t) =
  List.exists (contains ~needle) d.Diagnostic.witness

(* R7: a closure handed to a Pool combinator writes shared state. *)

let test_r7_direct_capture () =
  let diags =
    typed_lint ~file:"lib/fixture/racy.ml"
      "let table : (int, int) Hashtbl.t = Hashtbl.create 8\n\
       let racy pool xs =\n\
      \  Po_par.Pool.parallel_map pool (fun x -> Hashtbl.replace table x x; \
       x) xs\n"
  in
  check_rules "direct captured write flagged" [ "R7" ] diags;
  let d = List.hd diags in
  Alcotest.(check bool)
    "witness names the pool call site" true
    (witness_mentions "Pool.parallel_map call in Racy.racy" d);
  Alcotest.(check bool)
    "message names the mutation" true
    (contains ~needle:"Hashtbl.replace" d.Diagnostic.message)

let test_r7_reachable_mutation () =
  let diags =
    typed_lint ~file:"lib/fixture/racy2.ml"
      "let table : (int, int) Hashtbl.t = Hashtbl.create 8\n\
       let bump x = Hashtbl.replace table x x\n\
       let indirect pool xs =\n\
      \  Po_par.Pool.parallel_map pool (fun x -> bump x; x) xs\n"
  in
  check_rules "write one call away still flagged" [ "R7" ] diags;
  let d = List.hd diags in
  Alcotest.(check int) "flagged at the mutating line" 2 d.Diagnostic.line;
  Alcotest.(check bool)
    "witness chain passes through the helper" true
    (witness_mentions "Racy2.bump" d)

let test_r7_atomic_and_serial_clean () =
  check_rules "Atomic counters are domain-safe" []
    (typed_lint ~file:"lib/fixture/atomics.ml"
       "let hits = Atomic.make 0\n\
        let fine pool xs =\n\
       \  Po_par.Pool.parallel_map pool (fun x -> Atomic.incr hits; x) xs\n");
  check_rules "the same write outside any pool closure is fine" []
    (typed_lint ~file:"lib/fixture/serial.ml"
       "let table : (int, int) Hashtbl.t = Hashtbl.create 8\n\
        let serial xs = Array.map (fun x -> Hashtbl.replace table x x; x) \
        xs\n")

let test_r7_scope_and_suppression () =
  (* R7 does not apply under test/ . *)
  check_rules "test/ fixtures may race on purpose" []
    (typed_lint ~file:"test/fixture/racy.ml"
       "let table : (int, int) Hashtbl.t = Hashtbl.create 8\n\
        let racy pool xs =\n\
       \  Po_par.Pool.parallel_map pool (fun x -> Hashtbl.replace table x \
        x; x) xs\n");
  (* An inline justification silences the finding at its line. *)
  check_rules "inline allow R7 silences" []
    (typed_lint ~file:"lib/fixture/racy3.ml"
       "let table : (int, int) Hashtbl.t = Hashtbl.create 8\n\
        let racy pool xs =\n\
       \  Po_par.Pool.parallel_map pool\n\
       \    (fun x ->\n\
       \      (* polint: allow R7 -- fixture: externally synchronized *)\n\
       \      Hashtbl.replace table x x;\n\
       \      x)\n\
       \    xs\n")

(* R8: discarded convergence evidence. *)

let r8_fixture =
  "type outcome = { converged : bool; value : float }\n\
   let ensure_converged o = if o.converged then o else failwith \"diverged\"\n\
   let solve (x : float) = { converged = true; value = x }\n\
   let solve_checked x : (outcome, string) result =\n\
  \  Ok (ensure_converged (solve x))\n\
   let bad_figure () = (solve 1.0).value\n\
   let good_figure () = (ensure_converged (solve 2.0)).value\n\
   let discarding () =\n\
  \  match solve_checked 3.0 with Ok o -> o.value | Error _ -> 0.0\n\
   let propagating () =\n\
  \  match solve_checked 4.0 with\n\
  \  | Ok o -> Ok o.value\n\
  \  | Error _ as e -> e\n"

let test_r8_raising_solver_and_discards () =
  let diags = typed_lint ~file:"lib/experiments/fixfig.ml" r8_fixture in
  check_rules "only R8 fires" [ "R8" ] diags;
  Alcotest.(check int)
    "exactly the unchecked call and the wildcard Error arm" 2
    (List.length diags);
  let lines = List.sort Int.compare (List.map (fun d -> d.Diagnostic.line) diags) in
  Alcotest.(check (list int))
    "flagged lines: bad_figure's solve, discarding's Error arm" [ 6; 9 ]
    lines

let test_r8_out_of_scope_layers () =
  (* The same code inside the solver layer (lib/core) or a benchmark is
     the contract, not a violation — sub-rule (a) watches the
     figure/driver boundary only. *)
  check_rules "solver layer threads raw outcomes freely"
    []
    (typed_lint ~file:"lib/core/fixsolver.ml"
       "type outcome = { converged : bool; value : float }\n\
        let solve (x : float) = { converged = true; value = x }\n\
        let solve_checked x : (outcome, string) result = Ok (solve x)\n\
        let inner () = (solve 1.0).value\n");
  check_rules "bench/ times raw solver calls by design" []
    (typed_lint ~file:"bench/fixbench.ml" r8_fixture)

(* R8(a) keys on the evidence a call returns, not on the callee's
   name: a [converged] record, or a tuple or array with one (or a bool)
   as a direct member.  A solver that raises on every failure returns
   none, and a node that runs ensure_converged stays exempt. *)
let r8_evidence_fixture =
  "type outcome = { converged : bool; value : float }\n\
   type state = { shares : float array }\n\
   type solution = { cap : float; rate : float }\n\
   let ensure_converged o = if o.converged then o else failwith \"diverged\"\n\
   let solve (x : float) = { converged = x > 0.; value = x }\n\
   let run (x : float) = ({ shares = [| x |] }, x > 0.)\n\
   let sweep xs = Array.map solve xs\n\
   let solve_raising (x : float) =\n\
  \  if x > 0. then { cap = x; rate = x } else failwith \"no bracket\"\n\
   let record_figure () = (solve 1.0).value\n\
   let pair_figure () = (fst (run 1.0)).shares\n\
   let array_figure () = (sweep [| 1.0 |]).(0).value\n\
   let raising_figure () = (solve_raising 1.0).cap\n\
   let checked_figure () =\n\
  \  (ensure_converged (solve 2.0)).value +. (fst (run 2.0)).shares.(0)\n"

let test_r8_evidence () =
  let diags =
    typed_lint ~file:"lib/experiments/fixevidence.ml" r8_evidence_fixture
  in
  check_rules "only R8 fires" [ "R8" ] diags;
  let lines =
    List.sort Int.compare (List.map (fun d -> d.Diagnostic.line) diags)
  in
  Alcotest.(check (list int))
    "flagged: the converged record, the state * bool pair, the outcome \
     array; not the raising solver or the ensure_converged node"
    [ 10; 11; 12 ] lines;
  Alcotest.(check bool)
    "the message names the fix" true
    (List.for_all
       (fun d -> contains ~needle:"ensure_converged" d.Diagnostic.message)
       diags)

(* R9: typed float-compare. *)

let test_r9_typed_compares () =
  let diags =
    typed_lint ~file:"lib/fixture/floaty.ml"
      "type pt = { x : float; tag : int }\n\
       let eq_pt (a : pt) b = a = b\n\
       let sort_floats (xs : float list) = List.sort compare xs\n\
       let lt_applied (a : float) b = a < b\n\
       let int_eq (a : int) b = a = b\n"
  in
  check_rules "only R9 fires" [ "R9" ] diags;
  let lines = List.sort Int.compare (List.map (fun d -> d.Diagnostic.line) diags) in
  Alcotest.(check (list int))
    "= on a float-carrying record and a float-instantiated compare; \
     applied < specializes to the IEEE primitive and int = is safe"
    [ 2; 3 ] lines;
  Alcotest.(check bool)
    "message renders the offending type" true
    (List.exists
       (fun (d : Diagnostic.t) -> contains ~needle:"pt" d.Diagnostic.message)
       diags)

let test_r9_supersedes_r1_in_run () =
  (* Under --typed, R1's syntactic heuristic stands down for R9; the
     retirement is observable through Lint.run on the real tree, which
     must stay clean either way (exercised by test_tree_typed_clean). A
     unit-level proxy: the same float compare is reported as R9, not R1,
     when linted through the typed stage. *)
  let diags =
    typed_lint ~file:"lib/fixture/super.ml" "let f (x : float) y = x = y\n"
  in
  check_rules "typed stage reports R9" [ "R9" ] diags

(* R10: span/metrics hygiene. *)

let test_r10_uncovered_entry () =
  let diags =
    typed_lint ~file:"lib/experiments/fixmetric.ml"
      "let emit () = Po_obs.Metrics.incr (Po_obs.Metrics.counter \
       \"fixture_hits\")\n\
       let bare_entry () = emit ()\n\
       let scoped_entry () = Po_obs.Trace.with_span \"fixture\" (fun () -> \
       emit ())\n"
  in
  check_rules "only R10 fires" [ "R10" ] diags;
  Alcotest.(check int) "only the unscoped entry point" 1 (List.length diags);
  let d = List.hd diags in
  Alcotest.(check int) "flagged at bare_entry" 2 d.Diagnostic.line;
  Alcotest.(check bool)
    "message names the entry point" true
    (contains ~needle:"bare_entry" d.Diagnostic.message);
  Alcotest.(check bool)
    "witness reaches the emitter" true
    (witness_mentions "Fixmetric.emit" d)

let test_r10_scope () =
  check_rules "metrics outside lib/experiments are not R10's business" []
    (typed_lint ~file:"lib/obs/fixprobe.ml"
       "let emit () = Po_obs.Metrics.incr (Po_obs.Metrics.counter \
        \"fixture_hits\")\n\
        let bare_entry () = emit ()\n")

(* ------------------------------------------------------------------ *)
(* Call graph                                                         *)
(* ------------------------------------------------------------------ *)

let graph_fixture =
  "let rec ping n = if n = 0 then 0 else pong (n - 1)\n\
   and pong n = if n = 0 then 1 else ping (n - 1)\n\
   module F (X : sig val seed : int end) = struct\n\
  \  let payload () = X.seed + 1\n\
   end\n\
   module Arg = struct let seed = 41 end\n\
   module App = F (Arg)\n\
   let use_functor () = App.payload ()\n"

let build_graph ~file source = Callgraph.build [ typecheck ~file source ]

let test_callgraph_cycles () =
  let g = build_graph ~file:"lib/fixture/graph.ml" graph_fixture in
  Alcotest.(check bool) "ping is a node" true
    (Option.is_some (Callgraph.find g "Graph.ping"));
  Alcotest.(check bool) "pong calls ping" true
    (List.mem "Graph.pong" (Callgraph.callers g "Graph.ping"));
  Alcotest.(check bool) "ping calls pong" true
    (List.mem "Graph.ping" (Callgraph.callers g "Graph.pong"));
  (* BFS over the cycle terminates and reaches both ends. *)
  let parents =
    Callgraph.reach_with_parents g
      ~skip:(fun _ -> false)
      ~roots:[ "Graph.ping" ]
  in
  Alcotest.(check bool) "reaches pong through the cycle" true
    (Hashtbl.mem parents "Graph.pong");
  let chain = Callgraph.chain g ~parents "Graph.pong" in
  Alcotest.(check bool) "witness chain is root-first" true
    (match chain with
    | first :: _ -> contains ~needle:"Graph.ping" first
    | [] -> false)

let test_callgraph_functor_application () =
  let g = build_graph ~file:"lib/fixture/graph.ml" graph_fixture in
  (* [module App = F (Arg)] aliases App to F, so a reference through the
     application lands on the functor body's node. *)
  Alcotest.(check bool) "functor body is a node" true
    (Option.is_some (Callgraph.find g "Graph.F.payload"));
  Alcotest.(check bool) "App.payload resolves into the functor body" true
    (List.mem "Graph.use_functor" (Callgraph.callers g "Graph.F.payload"))

let test_callgraph_cross_library_edges () =
  (* The real build tree: edges must cross wrapped-library boundaries
     (dune's Po_core__Cp_game mangling resolved to canonical names). *)
  let root = repo_root_exn () in
  let build_dir = Filename.concat (Filename.concat root "_build") "default" in
  let units, _notes = Cmt_loader.load ~root ~build_dir in
  let units = List.filter (fun u -> not (Cmt_loader.generated u)) units in
  let have prefix =
    List.exists
      (fun (u : Cmt_loader.unit_info) ->
        String.starts_with ~prefix u.Cmt_loader.file)
      units
  in
  if not (have "lib/core/" && have "lib/experiments/") then
    Alcotest.skip ()
  else begin
    let g = Callgraph.build units in
    let callers = Callgraph.callers g "Po_core.Cp_game.solve" in
    Alcotest.(check bool)
      "Cp_game.solve has callers from outside po_core" true
      (List.exists
         (fun id -> String.starts_with ~prefix:"Po_experiments." id)
         callers)
  end

(* ------------------------------------------------------------------ *)
(* Whole tree                                                         *)
(* ------------------------------------------------------------------ *)

let run_report ?typed ?paths ?jobs () =
  match Lint.run ~root:(repo_root_exn ()) ?typed ?paths ?jobs () with
  | Error msg -> Alcotest.fail msg
  | Ok r -> r

let test_repo_tree_clean () =
  let r = run_report () in
  Alcotest.(check (list string))
    "the repository lints clean (parsetree stage)" []
    (List.map Diagnostic.to_string r.Lint.diagnostics)

let test_repo_tree_typed_clean () =
  let r =
    run_report ~typed:true ~paths:[ "lib"; "bin"; "bench" ] ()
  in
  Alcotest.(check (list string))
    "the repository lints clean under the typed stage" []
    (List.map Diagnostic.to_string r.Lint.diagnostics);
  Alcotest.(check bool)
    "the typed pass actually analyzed units" true
    (r.Lint.typed_units > 0);
  Alcotest.(check (list string))
    "no stale allowlist entries" []
    (List.map
       (fun (e : Suppress.allow_entry) -> e.Suppress.path)
       r.Lint.stale_allows);
  Alcotest.(check (list string))
    "no stale inline suppressions" []
    (List.map
       (fun (f, l) -> Printf.sprintf "%s:%d" f l)
       r.Lint.stale_directives)

let test_jobs_invariant_output () =
  let serial = Lint.lint_tree ~root:(repo_root_exn ()) [ "lib" ] in
  let parallel = Lint.lint_tree ~root:(repo_root_exn ()) ~jobs:3 [ "lib" ] in
  Alcotest.(check (list string))
    "jobs=3 produces byte-identical findings"
    (List.map Diagnostic.to_string serial)
    (List.map Diagnostic.to_string parallel)

(* The repository's own allowlist exempts the observability clock
   (lib/obs/clock.ml) from R2; that exemption must not leak — ambient
   clock reads anywhere else in the library tree still fire.  Guards the
   Po_obs.Clock funnel: code that wants time must call through it, and
   R2 keeps enforcing that everywhere the allowlist does not name. *)
let test_allowlist_clock_exemption_is_narrow () =
  let repo_allowlist =
    match
      Suppress.load_allowlist
        (Filename.concat (repo_root_exn ()) "polint.allow")
    with
    | Ok a -> a
    | Error e -> Alcotest.fail e
  in
  check_rules "the obs clock itself is exempt" []
    (Lint.lint_source ~file:"lib/obs/clock.ml" ~allowlist:repo_allowlist
       "let now_s () = Unix.gettimeofday ()");
  check_rules "ambient clock use in lib/model still fires" [ "R2" ]
    (Lint.lint_source ~file:"lib/model/fixture.ml" ~allowlist:repo_allowlist
       "let t () = Unix.gettimeofday ()");
  check_rules "ambient clock use elsewhere in lib/obs still fires" [ "R2" ]
    (Lint.lint_source ~file:"lib/obs/trace.ml" ~allowlist:repo_allowlist
       "let t () = Sys.time ()")

(* ------------------------------------------------------------------ *)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "po_lint"
    [ ( "R1",
        [ quick "bare compare" test_r1_bare_compare;
          quick "float equality" test_r1_float_equality;
          quick "clean snippets" test_r1_clean ] );
      ( "R2",
        [ quick "nondeterminism sources" test_r2_sources;
          quick "whitelisted cache ops" test_r2_whitelisted_cache_ops;
          quick "test/ exemption" test_r2_exempt_under_test ] );
      ("R3", [ quick "wildcard handlers" test_r3 ]);
      ("R4", [ quick "console output in lib/" test_r4 ]);
      ("R5", [ quick "missing mli" test_r5 ]);
      ("R6", [ quick "raw file writes" test_r6 ]);
      ( "suppressions",
        [ quick "same line" test_suppression_same_line;
          quick "line above" test_suppression_line_above;
          quick "wrong rule" test_suppression_wrong_rule;
          quick "out of range" test_suppression_out_of_range;
          quick "multiple rules" test_suppression_multiple_rules;
          quick "malformed" test_suppression_malformed;
          quick "unknown rule id" test_suppression_unknown_rule_id ] );
      ( "allowlist",
        [ quick "exact file" test_allowlist_exact_file;
          quick "subtree" test_allowlist_subtree;
          quick "rejects garbage" test_allowlist_rejects_garbage;
          quick "typed rules accepted" test_allowlist_typed_rules_accepted;
          quick "comments and blanks" test_allowlist_comments_and_blanks ]
      );
      ("parse", [ quick "syntax error" test_parse_error_reported ]);
      ("json", [ quick "polint-v1 envelope" test_json_envelope ]);
      ( "R7",
        [ quick "direct captured write" test_r7_direct_capture;
          quick "reachable mutation" test_r7_reachable_mutation;
          quick "atomic and serial clean" test_r7_atomic_and_serial_clean;
          quick "scope and suppression" test_r7_scope_and_suppression ] );
      ( "R8",
        [ quick "raising solver and discards"
            test_r8_raising_solver_and_discards;
          quick "out-of-scope layers" test_r8_out_of_scope_layers;
          quick "convergence evidence" test_r8_evidence ] );
      ( "R9",
        [ quick "typed compares" test_r9_typed_compares;
          quick "supersedes R1" test_r9_supersedes_r1_in_run ] );
      ( "R10",
        [ quick "uncovered entry" test_r10_uncovered_entry;
          quick "scope" test_r10_scope ] );
      ( "callgraph",
        [ quick "cycles" test_callgraph_cycles;
          quick "functor application" test_callgraph_functor_application;
          quick "cross-library edges" test_callgraph_cross_library_edges ]
      );
      ( "tree",
        [ quick "repository lints clean" test_repo_tree_clean;
          quick "typed stage lints clean" test_repo_tree_typed_clean;
          quick "jobs-invariant output" test_jobs_invariant_output;
          quick "clock exemption is narrow"
            test_allowlist_clock_exemption_is_narrow ] ) ]
