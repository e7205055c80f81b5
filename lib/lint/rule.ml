type id = R1 | R2 | R3 | R4 | R5 | R6 | R7 | R8 | R9 | R10

let all = [ R1; R2; R3; R4; R5; R6; R7; R8; R9; R10 ]

(* The parsetree rules run from source text alone; the typed rules need
   the compiler's .cmt output (a built tree) and the cross-module call
   graph.  [Lint] uses the split to decide which pass owns which rule. *)
let typed = [ R7; R8; R9; R10 ]

let is_typed r = List.exists (fun t -> t = r) typed

let to_string = function
  | R1 -> "R1"
  | R2 -> "R2"
  | R3 -> "R3"
  | R4 -> "R4"
  | R5 -> "R5"
  | R6 -> "R6"
  | R7 -> "R7"
  | R8 -> "R8"
  | R9 -> "R9"
  | R10 -> "R10"

let of_string = function
  | "R1" -> Some R1
  | "R2" -> Some R2
  | "R3" -> Some R3
  | "R4" -> Some R4
  | "R5" -> Some R5
  | "R6" -> Some R6
  | "R7" -> Some R7
  | "R8" -> Some R8
  | "R9" -> Some R9
  | "R10" -> Some R10
  | _ -> None

(* A token that is shaped like a rule id ("R" followed by digits) but is
   not in the catalogue — the raw material of the silent-typo footgun in
   suppression directives and allowlist lines. *)
let looks_like_id tok =
  String.length tok >= 2
  && Char.equal tok.[0] 'R'
  && String.for_all (function '0' .. '9' -> true | _ -> false)
       (String.sub tok 1 (String.length tok - 1))

let equal (a : id) (b : id) = a = b

type meta = { id : id; title : string; rationale : string }

let catalogue =
  [ { id = R1; title = "no polymorphic compare/equality on floats";
      rationale =
        "Polymorphic compare is NaN-unsafe (it treats nan inconsistently \
         with (=)), boxes its operands on hot quantile and simplex paths, \
         and silently changes meaning when a type gains a custom order.  \
         Use Float.compare / Float.equal or another monomorphic \
         comparator." };
    { id = R2; title = "no nondeterminism sources outside test/";
      rationale =
        "Every figure must be bit-reproducible from --seed for any --jobs \
         (DESIGN.md section 6).  Ambient PRNG state (Random.self_init, \
         Random.int), wall-clock reads (Sys.time, Unix.gettimeofday) and \
         Hashtbl iteration order all break that contract.  Draw from \
         Po_prng.Splitmix with an explicit seed; use Hashtbl only as a \
         find_opt/add cache whose iteration order never escapes." };
    { id = R3; title = "no wildcard exception swallowing";
      rationale =
        "try ... with _ -> hides Out_of_memory, Stack_overflow and logic \
         bugs as silent data corruption.  Match the specific exceptions \
         the expression can raise." };
    { id = R4; title = "no direct console output inside lib/";
      rationale =
        "All human-facing output is built through po_report (tables, \
         series, CSV, ASCII plots) so figures stay machine-checkable and \
         redirectable; a printf inside the libraries interleaves with the \
         report stream." };
    { id = R5; title = "every lib/**/*.ml has a matching .mli";
      rationale =
        "Interfaces are the unit of review for numeric code: an .mli pins \
         which helpers are part of the contract and keeps internal state \
         (caches, pools) private." };
    { id = R6; title = "no raw file writes outside lib/report";
      rationale =
        "Every result write must be crash-safe: Po_report.Writer writes a \
         temp file and renames it into place, so a killed or faulted run \
         can never leave a torn CSV or journal (DESIGN.md section 10).  A \
         direct open_out or mkdir bypasses that guarantee (and the \
         write-failure fault site); route writes through Po_report.Writer \
         or Po_report.Csv." };
    { id = R7; title = "no shared mutable state reachable from pool work";
      rationale =
        "po_par promises bit-identical sweep results for any --jobs \
         (DESIGN.md section 6), which only holds if the closures handed \
         to Pool.parallel_map / map_reduce / chain_map / run_chunks never \
         race on shared state.  R7 walks the typed call graph from every \
         closure passed to a pool combinator and flags ref assignment, \
         Hashtbl / Buffer / Queue / Stack mutation and mutable-field \
         writes whose target is not local to the function performing \
         them, with the caller -> ... -> mutation-site chain as a \
         witness.  Atomic and Domain.DLS state is exempt; deliberately \
         shared state that is externally synchronised (a mutex-guarded \
         journal, the pool's own work queue) carries a justified allow." };
    { id = R8; title = "no silently discarded solver failures";
      rationale =
        "The ensembles behind every figure are only trustworthy because \
         no solver failure is swallowed (DESIGN.md section 10).  Solvers \
         raise typed errors; only best-effort answers carry a converged \
         flag.  In figure/experiment/driver code, a call whose result \
         carries that evidence (Cp_game.solve, Cp_game.solve_nash, \
         Cp_game.outcome_of_partition, Monopoly.optimal_strategy, \
         Monopoly.regime_outcome, Migration.run, \
         Oligopoly.market_share_nash, ...) must have its outcome fed to \
         ensure_converged; raising solvers such as Equilibrium.solve and \
         Oligopoly.solve return no evidence and are never flagged.  \
         Their Deadline_exceeded / Cancelled failures (DESIGN.md section \
         13) travel the same typed channel.  Anywhere outside test/, a \
         result-typed value must \
         not be dropped (sequenced away, passed to ignore, bound to _) \
         or matched with a bare 'Error _ ->' arm that forgets which \
         error occurred." };
    { id = R9; title = "no polymorphic compare on float-bearing types";
      rationale =
        "The typed replacement for R1's syntactic heuristic: polymorphic \
         compare/equality is flagged whenever the compared type's \
         structure actually contains a float — through aliases, records, \
         variants, tuples and functor-bound abbreviations that no \
         syntactic rule can see.  NaN makes polymorphic compare \
         order-unstable on exactly those types; use Float.compare / \
         Float.equal or a type-specific comparator." };
    { id = R10; title = "metrics emitted only under a span or figure scope";
      rationale =
        "po_obs data is attributable because every metric increment \
         happens under a figure scope or trace span (DESIGN.md section \
         11), so a snapshot can always be traced to the run that \
         produced it.  R10 flags an entry point in lib/experiments that \
         transitively emits metrics when no node on the call chain opens \
         a Trace.with_span / Common.with_figure_scope and nothing in the \
         tree calls the entry (registered figures inherit their scope \
         from Registry's guarded wrapper; a rogue unregistered entry \
         point does not)." } ]

let find id = List.find (fun m -> equal m.id id) catalogue

let under ~dir file =
  let prefix = dir ^ "/" in
  String.length file > String.length prefix
  && String.equal (String.sub file 0 (String.length prefix)) prefix

let applies_to id ~file =
  match id with
  | R1 | R3 | R9 -> true
  | R2 -> not (under ~dir:"test" file)
  | R4 -> under ~dir:"lib" file && not (under ~dir:"lib/report" file)
  | R5 -> under ~dir:"lib" file
  | R6 -> not (under ~dir:"lib/report" file) && not (under ~dir:"test" file)
  | R7 -> not (under ~dir:"test" file)
  | R8 -> not (under ~dir:"test" file) && not (under ~dir:"bench" file)
  | R10 -> under ~dir:"lib/experiments" file
