(* Tests for the serve subsystem (lib/serve): wire-protocol round-trips
   and strict parsing, the extended params hash, the LRU solve cache,
   line framing (including oversized payloads), engine determinism and
   cache bit-identity, deadline errors, and an end-to-end daemon
   exercise over a real Unix-domain socket — admission control and
   graceful shutdown included. *)

open Po_serve

module Json = Po_obs.Json

let quick name f = Alcotest.test_case name `Quick f

let slow name f = Alcotest.test_case name `Slow f

let sc ?(n_cps = 25) ?(seed = 7) ?(nu_frac = 0.85) () =
  { Request.n_cps; seed; nu_frac }

(* ------------------------------------------------------------------ *)
(* Request round-trips                                                *)
(* ------------------------------------------------------------------ *)

let roundtrip t =
  match Request.of_json (Request.to_json t) with
  | Error e -> Alcotest.fail ("round-trip rejected: " ^ e.Request.message)
  | Ok t' ->
      Alcotest.(check string)
        "round-trip preserves the request"
        (Json.to_string (Request.to_json t))
        (Json.to_string (Request.to_json t'))

let test_request_roundtrips () =
  List.iter roundtrip
    [ { Request.query = Request.Ping; deadline_s = None };
      { Request.query = Request.Stats; deadline_s = Some 1.5 };
      { Request.query = Request.Equilibrium (sc ()); deadline_s = None };
      { Request.query = Request.Surplus (sc ~nu_frac:0.625 ());
        deadline_s = Some 30. };
      { Request.query =
          Request.Regimes
            { sc = sc (); po_share = 0.25; levels = 3; points = 17 };
        deadline_s = None };
      { Request.query =
          Request.Welfare
            { sc = sc ~seed:11 (); po_share = 0.5; levels = 2; points = 7 };
        deadline_s = Some 0.25 };
      { Request.query =
          Request.Fig_point
            { fig = "fig4"; n_cps = 50; seed = 3; sweep_points = 5 };
        deadline_s = None } ]

let test_request_defaults () =
  match Request.of_line {|{"query":"regimes"}|} with
  | Error e -> Alcotest.fail e.Request.message
  | Ok { Request.query = Request.Regimes { sc; po_share; levels; points };
         deadline_s } ->
      Alcotest.(check int) "default n_cps" Request.default_scenario.Request.n_cps
        sc.Request.n_cps;
      Alcotest.(check int) "default seed" Request.default_scenario.Request.seed
        sc.Request.seed;
      Alcotest.(check (float 0.)) "default nu_frac" 0.85 sc.Request.nu_frac;
      Alcotest.(check (float 0.)) "default po_share" Request.default_po_share
        po_share;
      Alcotest.(check int) "default levels" Request.default_levels levels;
      Alcotest.(check int) "default points" Request.default_points points;
      Alcotest.(check bool) "no deadline" true (deadline_s = None)
  | Ok _ -> Alcotest.fail "parsed as the wrong query"

let check_invalid name line =
  match Request.of_line line with
  | Ok _ -> Alcotest.fail (name ^ ": accepted an invalid request")
  | Error e ->
      Alcotest.(check string) (name ^ " error code") "invalid_request"
        e.Request.code

let test_request_strictness () =
  check_invalid "malformed json" "not json at all";
  check_invalid "non-object" {|[1,2]|};
  check_invalid "missing query" {|{"params":{}}|};
  check_invalid "unknown query" {|{"query":"frobnicate"}|};
  check_invalid "unknown envelope key" {|{"query":"ping","extra":1}|};
  check_invalid "unknown param key"
    {|{"query":"regimes","params":{"n_cps":10,"bogus":1}}|};
  check_invalid "param on paramless query" {|{"query":"ping","params":{"n_cps":5}}|};
  check_invalid "non-integer n_cps"
    {|{"query":"equilibrium","params":{"n_cps":2.5}}|};
  check_invalid "n_cps out of range"
    {|{"query":"equilibrium","params":{"n_cps":0}}|};
  check_invalid "po_share out of range"
    {|{"query":"regimes","params":{"po_share":1.5}}|};
  check_invalid "levels out of range"
    {|{"query":"regimes","params":{"levels":6}}|};
  check_invalid "negative deadline" {|{"query":"ping","deadline_s":-1}|};
  (* Integral floats beyond 2^53 are not exact integers: int_of_float
     is unspecified there, so they must be typed rejections rather
     than silently becoming an arbitrary seed. *)
  check_invalid "seed beyond the float-exact range"
    {|{"query":"equilibrium","params":{"seed":1e300}}|};
  check_invalid "seed just past 2^53"
    {|{"query":"equilibrium","params":{"seed":9007199254740994}}|};
  check_invalid "fig without id" {|{"query":"fig_point"}|}

let test_response_roundtrip () =
  let ok = Ok (Json.Obj [ ("x", Json.Number 1.5) ]) in
  let err =
    Error
      (Request.error
         ~context:[ ("query", "regimes"); ("chunk", "3") ]
         "deadline_exceeded" "out of time")
  in
  List.iter
    (fun r ->
      match Request.response_of_line (Request.response_line r) with
      | Error msg -> Alcotest.fail msg
      | Ok r' ->
          Alcotest.(check string) "response round-trips"
            (Request.response_line r) (Request.response_line r'))
    [ ok; err ];
  match Request.response_of_line (Request.response_line err) with
  | Ok (Error e) ->
      Alcotest.(check (list (pair string string)))
        "context frames travel verbatim"
        [ ("query", "regimes"); ("chunk", "3") ]
        e.Request.context
  | _ -> Alcotest.fail "error response did not parse as an error"

(* ------------------------------------------------------------------ *)
(* Extended params hash                                               *)
(* ------------------------------------------------------------------ *)

let test_params_hash_wrapper () =
  Alcotest.(check string)
    "three-field arity is a thin wrapper over the kv form"
    (Po_obs.Manifest.params_hash ~n_cps:1000 ~seed:42 ~sweep_points:33)
    (Po_obs.Manifest.params_hash_kv
       [ ("n_cps", "1000"); ("seed", "42"); ("sweep_points", "33") ])

let test_params_hash_kv_order_independent () =
  Alcotest.(check string)
    "kv hash is independent of argument order"
    (Po_obs.Manifest.params_hash_kv [ ("a", "1"); ("b", "2"); ("kappa", "3") ])
    (Po_obs.Manifest.params_hash_kv [ ("kappa", "3"); ("a", "1"); ("b", "2") ])

let test_params_hash_kv_extends () =
  let base = [ ("n_cps", "10"); ("seed", "1") ] in
  Alcotest.(check bool)
    "an extra field (regime id) changes the digest" false
    (Po_obs.Manifest.params_hash_kv base
    = Po_obs.Manifest.params_hash_kv (("regime", "po") :: base))

let test_params_hash_kv_rejects () =
  let raises kv =
    match Po_obs.Manifest.params_hash_kv kv with
    | (_ : string) -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "duplicate keys raise" true
    (raises [ ("a", "1"); ("a", "2") ]);
  Alcotest.(check bool) "separator in key raises" true
    (raises [ ("a;b", "1") ]);
  Alcotest.(check bool) "equals in key raises" true (raises [ ("a=b", "1") ])

let test_params_canonical () =
  Alcotest.(check string) "sorted k=v; rendering, independent of order"
    "a=1;b=2;kappa=3"
    (Po_obs.Manifest.params_canonical
       [ ("kappa", "3"); ("a", "1"); ("b", "2") ])

let test_cache_key_contract () =
  let t q = { Request.query = q; deadline_s = None } in
  let regimes_q =
    Request.Regimes { sc = sc (); po_share = 0.5; levels = 2; points = 9 }
  in
  let welfare_q =
    Request.Welfare { sc = sc (); po_share = 0.5; levels = 2; points = 9 }
  in
  let regimes_key = Request.cache_key (t regimes_q) in
  (* The key must be the canonical parameter string itself, not a
     digest of it: a digest collision would silently replay the wrong
     scenario's cached bytes. *)
  (match regimes_key with
  | Some k ->
      Alcotest.(check bool)
        "key is the canonical k=v string, not a digest" true
        (String.contains k '=' && String.contains k ';')
  | None -> Alcotest.fail "regimes query must be cacheable");
  Alcotest.(check bool) "regimes and welfare never alias" false
    (regimes_key = Request.cache_key (t welfare_q));
  Alcotest.(check bool) "deadline excluded from the key" true
    (regimes_key
    = Request.cache_key { Request.query = regimes_q; deadline_s = Some 5. });
  Alcotest.(check bool) "ping is uncacheable" true
    (Request.cache_key (t Request.Ping) = None);
  Alcotest.(check bool) "stats is uncacheable" true
    (Request.cache_key (t Request.Stats) = None);
  Alcotest.(check bool) "scenario fields feed the key" false
    (Request.cache_key (t (Request.Equilibrium (sc ())))
    = Request.cache_key (t (Request.Equilibrium (sc ~seed:8 ()))))

(* ------------------------------------------------------------------ *)
(* LRU cache                                                          *)
(* ------------------------------------------------------------------ *)

let test_cache_lru_eviction () =
  let c = Cache.create ~capacity:2 in
  Cache.add c "a" "1";
  Cache.add c "b" "2";
  Alcotest.(check (option string)) "find a" (Some "1") (Cache.find c "a");
  (* "b" is now least recently used; adding "c" evicts it. *)
  Cache.add c "c" "3";
  Alcotest.(check int) "size capped" 2 (Cache.size c);
  Alcotest.(check (option string)) "lru evicted" None (Cache.find c "b");
  Alcotest.(check (option string)) "recency kept a" (Some "1")
    (Cache.find c "a");
  Alcotest.(check (option string)) "new entry present" (Some "3")
    (Cache.find c "c")

let test_cache_replace_and_disable () =
  let c = Cache.create ~capacity:2 in
  Cache.add c "k" "v1";
  Cache.add c "k" "v2";
  Alcotest.(check int) "replace keeps one entry" 1 (Cache.size c);
  Alcotest.(check (option string)) "latest value wins" (Some "v2")
    (Cache.find c "k");
  let off = Cache.create ~capacity:0 in
  Cache.add off "k" "v";
  Alcotest.(check (option string)) "capacity 0 disables" None
    (Cache.find off "k");
  Alcotest.(check int) "disabled cache stays empty" 0 (Cache.size off)

(* ------------------------------------------------------------------ *)
(* Line framing                                                       *)
(* ------------------------------------------------------------------ *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error (_, _, _) -> ());
      try Unix.close b with Unix.Unix_error (_, _, _) -> ())
    (fun () -> f a b)

let test_lineio_framing () =
  with_socketpair (fun a b ->
      let r = Lineio.reader b in
      (* Two pipelined lines in one write, one with CRLF framing. *)
      Lineio.write_line a "first";
      ignore (Unix.write_substring a "second\r\n" 0 8);
      (match Lineio.read_line r with
      | Lineio.Line l -> Alcotest.(check string) "first line" "first" l
      | _ -> Alcotest.fail "expected first line");
      (match Lineio.read_line r with
      | Lineio.Line l -> Alcotest.(check string) "crlf stripped" "second" l
      | _ -> Alcotest.fail "expected second line");
      Unix.close a;
      match Lineio.read_line r with
      | Lineio.Eof -> ()
      | _ -> Alcotest.fail "expected eof after close")

let test_lineio_oversized () =
  with_socketpair (fun a b ->
      let r = Lineio.reader b in
      let big = String.make 200 'x' in
      Lineio.write_line a big;
      match Lineio.read_line ~max_bytes:64 r with
      | Lineio.Oversized -> ()
      | Lineio.Line _ -> Alcotest.fail "oversized line was accepted"
      | Lineio.Eof -> Alcotest.fail "unexpected eof")

(* ------------------------------------------------------------------ *)
(* Engine                                                             *)
(* ------------------------------------------------------------------ *)

let regimes_query =
  Request.Regimes { sc = sc (); po_share = 0.5; levels = 2; points = 9 }

let test_engine_deterministic_and_bit_identical () =
  let r1 = Engine.eval regimes_query in
  let r2 = Engine.eval regimes_query in
  Alcotest.(check string) "two evals render identical bytes"
    (Request.response_line r1) (Request.response_line r2);
  (* Field-level bit identity, not just textual: compare the IEEE bits
     of the consumer-surplus numbers behind both responses. *)
  let phi resp =
    match resp with
    | Error _ -> Alcotest.fail "regimes eval failed"
    | Ok json -> (
        match Json.member "regimes" json with
        | Some (Json.List (first :: _)) -> (
            match Json.member "phi" first with
            | Some (Json.Number v) -> v
            | _ -> Alcotest.fail "missing phi")
        | _ -> Alcotest.fail "missing regimes list")
  in
  Alcotest.(check int64) "phi bits identical"
    (Int64.bits_of_float (phi r1))
    (Int64.bits_of_float (phi r2))

let test_engine_matches_core () =
  (* The engine's regime comparison is the same solve as calling the
     core directly — the CLI/daemon value-identity guarantee. *)
  let module PO = Po_core.Public_option in
  let out =
    Engine.regimes ~sc:(sc ()) ~po_share:0.5 ~levels:2 ~points:9 ()
  in
  let cps =
    Po_workload.Ensemble.paper_ensemble ~n:25 ~seed:7 ()
  in
  let nu = 0.85 *. Po_workload.Ensemble.saturation_nu cps in
  let direct = PO.compare_regimes ~po_share:0.5 ~levels:2 ~points:9 ~nu cps in
  let bits = Int64.bits_of_float in
  let strategy_bits =
    Option.map (fun s ->
        (bits (Po_core.Strategy.kappa s), bits (Po_core.Strategy.c s)))
  in
  List.iter2
    (fun { PO.result = a; _ } { PO.result = b; _ } ->
      let check_bits what x y =
        Alcotest.(check int64) (what ^ " bits: " ^ a.PO.label) (bits x)
          (bits y)
      in
      check_bits "phi" a.PO.phi b.PO.phi;
      check_bits "psi" a.PO.psi b.PO.psi;
      Alcotest.(check (option (pair int64 int64)))
        ("strategy bits: " ^ a.PO.label)
        (strategy_bits a.PO.commercial_strategy)
        (strategy_bits b.PO.commercial_strategy);
      Alcotest.(check (option int64))
        ("market share bits: " ^ a.PO.label)
        (Option.map bits a.PO.market_share)
        (Option.map bits b.PO.market_share))
    out.Engine.regimes direct

(* The regimes answer in IEEE bits, one row per regime: phi, psi,
   strategy (kappa, c) and market share, null where the regime has none.
   The CLI-vs-daemon byte comparisons cannot see a change that moves
   both sides; this pins the value itself. *)
let regimes_bits ~n_cps ~seed =
  let answer =
    Engine.eval
      (Request.Regimes
         { sc = sc ~n_cps ~seed (); po_share = 0.5; levels = 2; points = 9 })
  in
  let hex = function
    | Some (Json.Number v) -> Printf.sprintf "%h" v
    | Some Json.Null -> "null"
    | _ -> Alcotest.fail "missing number"
  in
  let row r =
    let strategy key =
      Option.bind (Json.member "strategy" r) (fun s ->
          match s with Json.Null -> Some Json.Null | s -> Json.member key s)
    in
    String.concat " "
      [ hex (Json.member "phi" r); hex (Json.member "psi" r);
        hex (strategy "kappa"); hex (strategy "c");
        hex (Json.member "market_share" r) ]
  in
  match answer with
  | Error _ -> Alcotest.fail "regimes eval failed"
  | Ok json -> (
      match Json.member "regimes" json with
      | Some (Json.List rows) -> List.map row rows
      | _ -> Alcotest.fail "missing regimes list")

let check_regimes_bits ~n_cps ~seed expected =
  Alcotest.(check (list string))
    (Printf.sprintf "regimes bits n=%d seed=%d" n_cps seed)
    expected
    (regimes_bits ~n_cps ~seed)

(* The four regimes_cold markets (n=20..50, seeds 1003..1006), as the
   code before the market context (n=20) and before level-only class
   solves (the others) computed them. *)
let test_engine_regimes_pinned () =
  check_regimes_bits ~n_cps:20 ~seed:1003
    [ "0x1.0e8d1e444396dp+2 0x1.6ae200bb93259p+0 0x1.f8p-1 \
       0x1.df47479dd0bfdp-2 null";
      "0x1.d37131812c25cp+2 0x0p+0 0x0p+0 0x0p+0 null";
      "0x1.fbf5a7684a1c5p+2 0x1.b4cbd013ab4aep-2 0x1.dp-1 \
       0x1.bf53982ce4f74p-3 0x1.0c87cfff945d2p-1" ];
  check_regimes_bits ~n_cps:30 ~seed:1004
    [ "0x1.e513b055f32dap+2 0x1.26a4788278abp+1 0x1p+0 \
       0x1.38ee360f2ef18p-1 null";
      "0x1.d428e820d6dfcp+3 0x0p+0 0x0p+0 0x0p+0 null";
      "0x1.dfbae99a28186p+3 0x1.2616668ba0fcep-4 0x1.8p-3 \
       0x1.f4b0567eb1826p-4 0x1.03aa4fffe083ep-1" ];
  check_regimes_bits ~n_cps:40 ~seed:1005
    [ "0x1.b451ad5c4b5e1p+3 0x1.ea5f0ffec3ef3p+1 0x1p+0 \
       0x1.1de2a228fd96cp-1 null";
      "0x1.40ce41dbe8bb7p+4 0x0p+0 0x0p+0 0x0p+0 null";
      "0x1.48856f24b7ec8p+4 0x1.562aac63b081dp-3 0x1p-3 \
       0x1.fc3d920ffbb69p-3 0x1.06056fffcc472p-1" ];
  check_regimes_bits ~n_cps:50 ~seed:1006
    [ "0x1.7e5715c2c3e86p+4 0x1.1bbfe7fbddaeep+2 0x1p+0 \
       0x1.f32f852747c02p-2 null";
      "0x1.06464d2b9215ap+5 0x0p+0 0x0p+0 0x0p+0 null";
      "0x1.16a17fc521d14p+5 0x1.383d232adabc1p+0 0x1.8p-1 \
       0x1.18cabae6185c1p-2 0x1.0c458fff96964p-1" ]

(* One market past the regimes_cold sizes (n=200, seed 7), where the
   class re-solves after moves dominate a cold query. *)
let test_engine_regimes_pinned_n200 () =
  check_regimes_bits ~n_cps:200 ~seed:7
    [ "0x1.33e2a65f854ebp+6 0x1.bcfa0fe10b02p+3 0x1p+0 \
       0x1.99c90659b2bdap-2 null";
      "0x1.b74e7addd4836p+6 0x0p+0 0x0p+0 0x0p+0 null";
      "0x1.b99e9a76fa6d2p+6 0x1.5be94e0fa3176p+0 0x1.2p-2 \
       0x1.b94ea460991afp-3 0x1.01712ffff39ccp-1" ]

(* The bytes [ponet query] printed for an n=1000 equilibrium and surplus
   query at the commit before every solve ran on a market
   (test/golden/, also compared byte for byte by CI's serve smoke).
   Found from the test directory under [dune runtest] and from the
   repository root under [dune exec]. *)
let golden name =
  let path =
    List.find Sys.file_exists
      [ Filename.concat "golden" name; Filename.concat "test/golden" name ]
  in
  In_channel.with_open_text path In_channel.input_all

let test_engine_goldens_n1000 () =
  List.iter
    (fun (query, file) ->
      let line =
        Printf.sprintf
          {|{"query":"%s","params":{"n_cps":1000,"seed":7}}|} query
      in
      match Request.of_line line with
      | Error _ -> Alcotest.failf "%s: request did not parse" query
      | Ok req ->
          Alcotest.(check string)
            (query ^ " answer bytes")
            (golden file)
            (Request.response_line (Engine.eval req.Request.query) ^ "\n"))
    [ ("equilibrium", "equilibrium-n1000-seed7.json");
      ("surplus", "surplus-n1000-seed7.json") ]

let test_engine_deadline_error () =
  (* Both regime queries read the one comparison, which checks the
     budget before its first solve. *)
  List.iter
    (fun (name, query) ->
      let budget = Po_sup.Budget.start ~deadline:1e-9 () in
      match Engine.eval ~budget query with
      | Ok _ -> Alcotest.failf "%s: expired budget still produced a result" name
      | Error e ->
          Alcotest.(check string) (name ^ ": typed code") "deadline_exceeded"
            e.Request.code;
          Alcotest.(check (option string))
            (name ^ ": query context frame attached")
            (Some name)
            (List.assoc_opt "query" e.Request.context))
    [ ("regimes", regimes_query);
      ("welfare",
       Request.Welfare { sc = sc (); po_share = 0.5; levels = 2; points = 9 })
    ]

(* An equilibrium query whose solve fails answers one typed error line
   carrying the query frame above the solver's own frames. *)
let test_engine_solver_fault () =
  let module Faultinject = Po_guard.Faultinject in
  Faultinject.arm
    { Faultinject.solver = Some 1; worker = None; write = None;
      timeout = None; slow = None; flaky = None };
  let line =
    Fun.protect ~finally:Faultinject.disarm (fun () ->
        Request.response_line (Engine.eval (Request.Equilibrium (sc ()))))
  in
  Alcotest.(check int) "one line" 1
    (List.length (String.split_on_char '\n' (String.trim line)));
  match Request.response_of_line line with
  | Ok (Error e) ->
      Alcotest.(check string) "typed code" "non_convergence" e.Request.code;
      Alcotest.(check (list string))
        "query frame first, then the injected solver frame"
        [ "query=equilibrium"; "injected=solver" ]
        (List.filteri (fun i _ -> i < 2)
           (List.map (fun (k, v) -> k ^ "=" ^ v) e.Request.context))
  | Ok (Ok _) -> Alcotest.fail "armed solver site did not fire"
  | Error msg -> Alcotest.failf "unparsable answer: %s" msg

let test_engine_unknown_figure () =
  match
    Engine.eval
      (Request.Fig_point { fig = "nope"; n_cps = 5; seed = 1; sweep_points = 2 })
  with
  | Ok _ -> Alcotest.fail "unknown figure accepted"
  | Error e ->
      Alcotest.(check string) "typed code" "invalid_scenario" e.Request.code

(* ------------------------------------------------------------------ *)
(* End-to-end daemon                                                  *)
(* ------------------------------------------------------------------ *)

let tmp_name stem =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "%s_%d" stem (Unix.getpid ()))

let send_recv fd reader line =
  Lineio.write_line fd line;
  match Lineio.read_line reader with
  | Lineio.Line l -> l
  | Lineio.Eof -> Alcotest.fail "daemon closed the connection"
  | Lineio.Oversized -> Alcotest.fail "oversized response"

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  (fd, Lineio.reader fd)

let counter_of_stats line name =
  match Request.response_of_line line with
  | Ok (Ok result) -> (
      match Json.member "counters" result with
      | Some counters -> (
          match Json.member name counters with
          | Some (Json.Number v) -> int_of_float v
          | _ -> Alcotest.fail ("stats missing counter " ^ name))
      | None -> Alcotest.fail "stats missing counters")
  | _ -> Alcotest.fail "stats query failed"

let test_server_end_to_end () =
  let socket_path = tmp_name "po_serve_sock" in
  let snapshot_path = tmp_name "po_serve_snap" in
  let server =
    Server.start
      { Server.default_config with
        Server.socket_path; domains = 2; cache_capacity = 16;
        snapshot_path = Some snapshot_path }
  in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let fd, reader = connect socket_path in
      Fun.protect
        ~finally:(fun () ->
          try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
        (fun () ->
          (* Liveness. *)
          let pong = send_recv fd reader {|{"query":"ping"}|} in
          Alcotest.(check bool) "pong" true
            (match Request.response_of_line pong with
            | Ok (Ok j) -> Json.member "pong" j = Some (Json.Bool true)
            | _ -> false);
          (* A solve, its cache hit, and the one-shot engine answer must
             be three renderings of the same bytes. *)
          let q = {|{"query":"regimes","params":{"n_cps":25,"seed":7}}|} in
          let cold = send_recv fd reader q in
          let hot = send_recv fd reader q in
          Alcotest.(check string) "cache hit byte-identical" cold hot;
          Alcotest.(check string) "daemon matches one-shot engine" cold
            (Request.response_line (Engine.eval regimes_query));
          (* The hit was served from the cache, observably. *)
          let stats = send_recv fd reader {|{"query":"stats"}|} in
          Alcotest.(check bool) "cache_hits incremented" true
            (counter_of_stats stats "serve.cache_hits" >= 1);
          (* Malformed input answers a typed error on the same
             connection, which stays usable. *)
          let bad = send_recv fd reader "{oops" in
          Alcotest.(check bool) "typed invalid_request" true
            (match Request.response_of_line bad with
            | Ok (Error e) -> e.Request.code = "invalid_request"
            | _ -> false);
          let pong2 = send_recv fd reader {|{"query":"ping"}|} in
          Alcotest.(check bool) "connection survives a bad request" true
            (match Request.response_of_line pong2 with
            | Ok (Ok _) -> true
            | _ -> false)));
  (* Graceful shutdown: socket gone, metrics snapshot exported. *)
  Alcotest.(check bool) "socket removed on stop" false
    (Sys.file_exists socket_path);
  Alcotest.(check bool) "metrics snapshot exported" true
    (Sys.file_exists snapshot_path);
  (match Json.of_string (In_channel.with_open_text snapshot_path In_channel.input_all) with
  | Error msg -> Alcotest.fail ("snapshot unreadable: " ^ msg)
  | Ok j ->
      Alcotest.(check bool) "po-serve-metrics-v1 schema" true
        (Json.member "schema" j = Some (Json.String "po-serve-metrics-v1"));
      Alcotest.(check bool) "snapshot carries a manifest" true
        (Json.member "manifest" j <> None));
  Sys.remove snapshot_path

let test_server_oversized_request () =
  let socket_path = tmp_name "po_serve_big" in
  let server =
    Server.start
      { Server.default_config with
        Server.socket_path; domains = 1; max_request_bytes = 128 }
  in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let fd, reader = connect socket_path in
      Fun.protect
        ~finally:(fun () ->
          try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
        (fun () ->
          Lineio.write_line fd (String.make 4096 'x');
          (match Lineio.read_line reader with
          | Lineio.Line l ->
              Alcotest.(check bool) "typed invalid_request for oversize" true
                (match Request.response_of_line l with
                | Ok (Error e) -> e.Request.code = "invalid_request"
                | _ -> false)
          | _ -> Alcotest.fail "no response to oversized request");
          (* Framing is lost, so the daemon closes afterwards. *)
          match Lineio.read_line reader with
          | Lineio.Eof -> ()
          | _ -> Alcotest.fail "connection not closed after oversize"))

let test_server_overload_sheds () =
  let socket_path = tmp_name "po_serve_full" in
  let server =
    Server.start
      { Server.default_config with
        Server.socket_path; domains = 1; queue_capacity = 1; batch_max = 1;
        hold_s = 0.3 }
  in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      (* First request parks the dispatcher in its hold; the queue
         (capacity 1) then fills, and the rest must shed with a typed
         overloaded response — not hang, not drop. *)
      let n = 5 in
      let replies = Array.make n "" in
      let worker i () =
        let fd, reader = connect socket_path in
        Fun.protect
          ~finally:(fun () ->
            try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
          (fun () ->
            replies.(i) <-
              send_recv fd reader
                (Printf.sprintf
                   {|{"query":"equilibrium","params":{"n_cps":%d}}|}
                   (10 + i)))
      in
      let first = Thread.create (worker 0) () in
      Thread.delay 0.1;
      let rest =
        Array.init (n - 1) (fun i -> Thread.create (worker (i + 1)) ())
      in
      Thread.join first;
      Array.iter Thread.join rest;
      let overloaded =
        Array.to_list replies
        |> List.filter (fun l ->
               match Request.response_of_line l with
               | Ok (Error e) -> e.Request.code = "overloaded"
               | _ -> false)
      in
      let answered =
        Array.to_list replies
        |> List.filter (fun l ->
               match Request.response_of_line l with
               | Ok (Ok _) -> true
               | _ -> false)
      in
      Alcotest.(check bool) "load is shed with typed responses" true
        (List.length overloaded >= 1);
      Alcotest.(check bool) "admitted requests still answered" true
        (List.length answered >= 1);
      Alcotest.(check int) "every request got exactly one response" n
        (List.length overloaded + List.length answered))

let test_server_deadline_over_wire () =
  let socket_path = tmp_name "po_serve_dl" in
  let server =
    Server.start
      { Server.default_config with Server.socket_path; domains = 1 }
  in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let fd, reader = connect socket_path in
      Fun.protect
        ~finally:(fun () ->
          try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
        (fun () ->
          let l =
            send_recv fd reader
              {|{"query":"regimes","params":{"n_cps":200},"deadline_s":0.000001}|}
          in
          match Request.response_of_line l with
          | Ok (Error e) ->
              Alcotest.(check string) "typed deadline error"
                "deadline_exceeded" e.Request.code;
              Alcotest.(check (option string)) "context names the query"
                (Some "regimes")
                (List.assoc_opt "query" e.Request.context)
          | _ -> Alcotest.fail "expired deadline did not error"))

let () =
  Alcotest.run "serve"
    [ ( "protocol",
        [ quick "request round-trips" test_request_roundtrips;
          quick "defaults mirror the CLI" test_request_defaults;
          quick "strict parsing rejects" test_request_strictness;
          quick "response round-trips" test_response_roundtrip ] );
      ( "params-hash",
        [ quick "wrapper equivalence" test_params_hash_wrapper;
          quick "order independence" test_params_hash_kv_order_independent;
          quick "extension changes digest" test_params_hash_kv_extends;
          quick "invalid keys rejected" test_params_hash_kv_rejects;
          quick "canonical rendering" test_params_canonical;
          quick "cache-key contract" test_cache_key_contract ] );
      ( "cache",
        [ quick "lru eviction" test_cache_lru_eviction;
          quick "replace and disable" test_cache_replace_and_disable ] );
      ( "lineio",
        [ quick "framing" test_lineio_framing;
          quick "oversized" test_lineio_oversized ] );
      ( "engine",
        [ quick "bit-identical evals" test_engine_deterministic_and_bit_identical;
          quick "matches the core solve" test_engine_matches_core;
          quick "regimes answer bits pinned" test_engine_regimes_pinned;
          slow "regimes answer bits pinned at n=200"
            test_engine_regimes_pinned_n200;
          quick "n=1000 answers match the goldens" test_engine_goldens_n1000;
          quick "deadline error" test_engine_deadline_error;
          quick "solver fault" test_engine_solver_fault;
          quick "unknown figure" test_engine_unknown_figure ] );
      ( "daemon",
        [ quick "end to end" test_server_end_to_end;
          quick "oversized request" test_server_oversized_request;
          quick "overload sheds" test_server_overload_sheds;
          quick "deadline over the wire" test_server_deadline_over_wire ] ) ]
