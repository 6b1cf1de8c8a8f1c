(* Tests for the prepared-query service layer: LRU mechanics, metrics
   accounting, engine-level prepared plans, session cache behaviour, and
   a qcheck differential property asserting that warm (cache-hit)
   execution returns byte-identical results to a fresh cold translation,
   including across store-epoch invalidations. *)

module Doc = Ppfx_xml.Doc
module Graph = Ppfx_schema.Graph
module Loader = Ppfx_shred.Loader
module Translate = Ppfx_translate.Translate
module Engine = Ppfx_minidb.Engine
module Database = Ppfx_minidb.Database
module Value = Ppfx_minidb.Value
module Xmark = Ppfx_workloads.Xmark
module Xparser = Ppfx_xpath.Parser
module Session = Ppfx_service.Session
module Lru = Ppfx_service.Lru
module Metrics = Ppfx_service.Metrics
module Batch = Ppfx_service.Batch

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let schema = Xmark.schema ()

let doc1 = lazy (Doc.of_tree (Xmark.generate ~seed:1 ~items_per_region:3 ()))
let doc2 = lazy (Doc.of_tree (Xmark.generate ~seed:2 ~items_per_region:2 ()))

let shared =
  lazy
    (let store = Loader.shred schema (Lazy.force doc1) in
     store, Session.create store)

(* Byte-level rendering of an engine result: any difference in columns,
   row order or values shows up in the comparison. *)
let render (r : Engine.result) =
  String.concat "|" r.Engine.columns
  ^ "\n"
  ^ String.concat "\n"
      (List.map
         (fun row ->
           String.concat ","
             (Array.to_list (Array.map Value.to_string row)))
         r.Engine.rows)

(* The cold path: fresh parse, fresh translator, fresh one-shot plan. *)
let cold_result (store : Loader.t) query =
  let expr = Xparser.parse query in
  let tr = Translate.create store.Loader.mapping in
  Option.map (fun stmt -> Engine.run store.Loader.db stmt) (Translate.translate tr expr)

let cold_render store query =
  match cold_result store query with
  | None -> "(empty)"
  | Some r -> render r

let warm_render session query =
  let p = Session.prepare session query in
  match Session.sql p with
  | None -> "(empty)"
  | Some _ -> render (Session.execute session p)

(* ------------------------------------------------------------------ *)
(* LRU                                                                 *)
(* ------------------------------------------------------------------ *)

let test_lru_basics () =
  let c = Lru.create ~capacity:2 in
  Alcotest.(check int) "capacity" 2 (Lru.capacity c);
  Alcotest.(check (option string)) "no eviction on a" None (Lru.add c "a" "1");
  Alcotest.(check (option string)) "no eviction on b" None (Lru.add c "b" "2");
  Alcotest.(check (option string)) "find a" (Some "1") (Lru.find c "a");
  (* a was promoted, so adding c evicts b. *)
  Alcotest.(check (option string)) "b evicted" (Some "b") (Lru.add c "c" "3");
  Alcotest.(check bool) "b gone" false (Lru.mem c "b");
  Alcotest.(check bool) "a kept" true (Lru.mem c "a");
  Alcotest.(check int) "length bounded" 2 (Lru.length c);
  Alcotest.(check int) "one eviction" 1 (Lru.evictions c);
  Alcotest.(check (list string)) "MRU order" [ "c"; "a" ]
    (List.map fst (Lru.to_list c))

let test_lru_replace_and_remove () =
  let c = Lru.create ~capacity:2 in
  ignore (Lru.add c "a" 1);
  ignore (Lru.add c "b" 2);
  Alcotest.(check (option string)) "replace is not an eviction" None (Lru.add c "a" 10);
  Alcotest.(check (option int)) "replaced value" (Some 10) (Lru.find c "a");
  Alcotest.(check int) "length unchanged" 2 (Lru.length c);
  Lru.remove c "a";
  Alcotest.(check bool) "removed" false (Lru.mem c "a");
  Alcotest.(check int) "length after remove" 1 (Lru.length c);
  Lru.clear c;
  Alcotest.(check int) "cleared" 0 (Lru.length c);
  (* The list invariants survive a clear. *)
  ignore (Lru.add c "x" 1);
  Alcotest.(check (option int)) "usable after clear" (Some 1) (Lru.find c "x")

let test_lru_capacity_one () =
  let c = Lru.create ~capacity:1 in
  ignore (Lru.add c "a" "1");
  Alcotest.(check (option string)) "a evicted by b" (Some "a") (Lru.add c "b" "2");
  Alcotest.(check (option string)) "only b" (Some "2") (Lru.find c "b");
  Alcotest.check Alcotest.bool "invalid capacity rejected" true
    (match Lru.create ~capacity:0 with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_lru_churn () =
  (* Heavier mixed workload: the hash table and recency list must agree. *)
  let c = Lru.create ~capacity:16 in
  for i = 0 to 999 do
    ignore (Lru.add c (string_of_int (i mod 40)) i);
    ignore (Lru.find c (string_of_int ((i * 7) mod 40)))
  done;
  Alcotest.(check int) "bounded" 16 (Lru.length c);
  Alcotest.(check int) "recency list consistent" 16 (List.length (Lru.to_list c))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_accumulators () =
  let m = Metrics.create () in
  Alcotest.(check bool) "hit rate undefined" true (Float.is_nan (Metrics.hit_rate m));
  Metrics.record m Metrics.Parse 0.25;
  Metrics.record m Metrics.Parse 0.75;
  Alcotest.(check int) "parse count" 2 (Metrics.stage_count m Metrics.Parse);
  Alcotest.(check (float 1e-9)) "parse total" 1.0 (Metrics.stage_total m Metrics.Parse);
  Alcotest.(check int) "execute untouched" 0 (Metrics.stage_count m Metrics.Execute);
  let v = Metrics.time m Metrics.Execute (fun () -> 42) in
  Alcotest.(check int) "time returns value" 42 v;
  Alcotest.(check int) "time recorded" 1 (Metrics.stage_count m Metrics.Execute);
  (* time records even when the thunk raises *)
  (try Metrics.time m Metrics.Execute (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "raise recorded" 2 (Metrics.stage_count m Metrics.Execute);
  Metrics.incr m Metrics.Hits;
  Metrics.incr m Metrics.Hits;
  Metrics.incr m Metrics.Misses;
  Alcotest.(check (float 1e-9)) "hit rate" (2.0 /. 3.0) (Metrics.hit_rate m);
  Metrics.reset m;
  Alcotest.(check int) "reset clears stages" 0 (Metrics.stage_count m Metrics.Parse);
  Alcotest.(check int) "reset clears counters" 0 (Metrics.get m Metrics.Hits)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_metrics_dump () =
  let m = Metrics.create () in
  Metrics.incr m Metrics.Queries;
  Metrics.incr m Metrics.Misses;
  Metrics.record m Metrics.Translate 0.001;
  let dump = Metrics.dump m in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("dump mentions " ^ needle) true (contains ~needle dump))
    [ "queries 1"; "misses"; "translate"; "execute" ];
  let json = Metrics.to_json m in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("json mentions " ^ needle) true (contains ~needle json))
    [ "\"queries\":1"; "\"misses\":1"; "\"translate\":{\"count\":1" ]

(* The body of the flat JSON object under [key]: what lies between
   ["key":{] and the next closing brace. *)
let json_object json key =
  let prefix = Printf.sprintf "\"%s\":{" key in
  let rec find i =
    if String.sub json i (String.length prefix) = prefix then i + String.length prefix
    else find (i + 1)
  in
  let start = find 0 in
  String.sub json start (String.index_from json start '}' - start)

(* The top-level fields that precede the first nested object. *)
let json_top_fields json =
  let body = String.sub json 1 (String.index_from json 1 '{' - 1) in
  String.sub body 0 (String.rindex body ',')

let json_keys body =
  List.map
    (fun field -> List.nth (String.split_on_char '"' field) 1)
    (String.split_on_char ',' body)

(* The engine counters are declared once in Engine.counters; the JSON
   snapshot must still carry exactly the established keys, each once, and
   the dump must print every declared counter. *)
let test_metrics_engine_counters () =
  let m = Metrics.create () in
  Alcotest.(check (list string)) "engine keys"
    [
      "rows_scanned"; "rows_probed"; "rows_emitted"; "regex_plan_evals"; "regex_exec_evals";
      "dfa_execs"; "hash_builds"; "reductions"; "partitions_scanned"; "partitions_pruned";
      "peak_bytes";
    ]
    (json_keys (json_object (Metrics.to_json m) "engine"));
  let dump = Metrics.dump m in
  List.iter
    (fun (c : Engine.counter) ->
      Alcotest.(check bool) ("dump prints " ^ c.label) true
        (contains ~needle:(c.label ^ " 0") dump))
    Engine.counters

let occurrences ~needle haystack =
  let n = String.length needle in
  let rec go i acc =
    if i + n > String.length haystack then acc
    else go (i + 1) (if String.sub haystack i n = needle then acc + 1 else acc)
  in
  go 0 0

let all_stages = Metrics.[ Parse; Translate; Plan; Queue; Request; Execute; Merge ]

let group_fields json = function
  | Metrics.Service -> json_top_fields json
  | group -> json_object json (Metrics.group_name group)

(* The serving counters are declared once, in Metrics' table: the JSON
   keeps the established keys per group; a counter moved alone shows up
   once in the JSON, under its group, and once in the dump, on its
   group's line; reset zeroes every counter and stage; absorb sums them. *)
let test_metrics_counter_table () =
  let json = Metrics.to_json (Metrics.create ()) in
  List.iter
    (fun (group, keys) ->
      Alcotest.(check (list string))
        (Metrics.group_name group ^ " keys")
        keys
        (json_keys (group_fields json group)))
    [
      ( Metrics.Service,
        [ "queries"; "prepares"; "hits"; "misses"; "invalidations"; "retained"; "evictions";
          "fallbacks"; "rows" ] );
      ( Metrics.Net,
        [ "accepted"; "rejected"; "requests"; "rows_sent"; "active"; "peak_active";
          "bytes_in"; "bytes_out"; "queue_depth_hwm" ] );
      ( Metrics.Durability,
        [ "wal_appends"; "wal_bytes"; "wal_fsyncs"; "checkpoints"; "recoveries";
          "clean_starts"; "replayed_records"; "truncated_tails"; "truncated_bytes";
          "clean_shutdowns" ] );
    ];
  List.iteri
    (fun i (c, name, group) ->
      let m = Metrics.create () in
      let v = 1000 + i in
      Metrics.add m c v;
      let json = Metrics.to_json m and dump = Metrics.dump m in
      let field = Printf.sprintf "\"%s\":%d" name v in
      Alcotest.(check int) (name ^ " once in the JSON") 1 (occurrences ~needle:field json);
      Alcotest.(check int) (name ^ " under its JSON group") 1
        (occurrences ~needle:field (group_fields json group));
      let label = Printf.sprintf " %s %d" name v in
      Alcotest.(check int) (name ^ " once in the dump") 1 (occurrences ~needle:label dump);
      let line_prefix = Printf.sprintf "  %s: " (Metrics.group_name group) in
      Alcotest.(check bool) (name ^ " on its group's dump line") true
        (List.exists
           (fun line ->
             String.starts_with ~prefix:line_prefix line && contains ~needle:label line)
           (String.split_on_char '\n' dump)))
    Metrics.counters;
  let filled n =
    let m = Metrics.create () in
    List.iteri (fun i (c, _, _) -> Metrics.add m c (n * (i + 1))) Metrics.counters;
    List.iter (fun s -> Metrics.record m s (float_of_int n)) all_stages;
    m
  in
  let into = filled 1 and src = filled 10 in
  Metrics.absorb ~into src;
  List.iteri
    (fun i (c, name, _) ->
      Alcotest.(check int) (name ^ " absorbed") (11 * (i + 1)) (Metrics.get into c))
    Metrics.counters;
  List.iter
    (fun s ->
      Alcotest.(check int) (Metrics.stage_name s ^ " count absorbed") 2
        (Metrics.stage_count into s);
      Alcotest.(check (float 1e-9)) (Metrics.stage_name s ^ " total absorbed") 11.0
        (Metrics.stage_total into s))
    all_stages;
  Metrics.reset src;
  List.iter
    (fun (c, name, _) ->
      Alcotest.(check int) (name ^ " reset") 0 (Metrics.get src c);
      Alcotest.(check bool) (name ^ " absorbed by value") true (Metrics.get into c > 0))
    Metrics.counters;
  List.iter
    (fun s -> Alcotest.(check int) (Metrics.stage_name s ^ " reset") 0 (Metrics.stage_count src s))
    all_stages;
  Alcotest.(check (list string)) "stage names"
    [ "parse"; "translate"; "plan"; "queue"; "request"; "execute"; "merge" ]
    (List.map Metrics.stage_name all_stages);
  List.iter
    (fun (c, group) ->
      Alcotest.(check bool) "request counters in the net group" true
        (List.exists (fun (c', _, g) -> c' = c && g = group) Metrics.counters))
    Metrics.[ Requests, Net; Rows_sent, Net; Queries, Service; Rows, Service ]

(* ------------------------------------------------------------------ *)
(* Engine prepared plans                                               *)
(* ------------------------------------------------------------------ *)

let test_engine_prepare () =
  let store = Loader.shred schema (Lazy.force doc1) in
  let tr = Translate.create store.Loader.mapping in
  let stmt =
    match Translate.translate tr (Xparser.parse "//keyword") with
    | Some s -> s
    | None -> Alcotest.fail "//keyword should translate"
  in
  let reference = render (Engine.run store.Loader.db stmt) in
  let plan = Engine.prepare store.Loader.db stmt in
  Alcotest.(check bool) "fresh plan valid" true (Engine.plan_valid plan);
  Alcotest.(check string) "first replay" reference (render (Engine.run_plan plan));
  Alcotest.(check string) "second replay" reference (render (Engine.run_plan plan));
  Alcotest.(check int) "epoch recorded" (Database.epoch store.Loader.db)
    (Engine.plan_epoch plan)

let test_engine_plan_staleness () =
  let store = Loader.shred schema (Lazy.force doc1) in
  let tr = Translate.create store.Loader.mapping in
  let stmt = Option.get (Translate.translate tr (Xparser.parse "//keyword")) in
  let plan = Engine.prepare store.Loader.db stmt in
  let _store' = Loader.load store (Lazy.force doc2) in
  Alcotest.(check bool) "plan stale after load" false (Engine.plan_valid plan);
  Alcotest.check Alcotest.bool "stale plan raises" true
    (match Engine.run_plan plan with
     | exception Engine.Runtime_error _ -> true
     | _ -> false);
  (* Re-preparing against the mutated store works and sees the new data. *)
  let plan' = Engine.prepare store.Loader.db stmt in
  Alcotest.(check bool) "new plan valid" true (Engine.plan_valid plan')

let test_epoch_moves () =
  let db = Database.create () in
  let e0 = Database.epoch db in
  let t = Database.create_table db ~name:"t" ~columns:[ { Ppfx_minidb.Table.name = "x"; ty = Value.Tint } ] in
  let e1 = Database.epoch db in
  Alcotest.(check bool) "create_table moves epoch" true (e1 <> e0);
  ignore (Ppfx_minidb.Table.insert t [| Value.Int 1 |]);
  let e2 = Database.epoch db in
  Alcotest.(check bool) "insert moves epoch" true (e2 <> e1);
  ignore (Ppfx_minidb.Table.delete t 0);
  Alcotest.(check bool) "delete moves epoch" true (Database.epoch db <> e2)

(* ------------------------------------------------------------------ *)
(* Engine work reporting                                               *)
(* ------------------------------------------------------------------ *)

(* A session reports each plan's work in place after prepare and after
   every run: after a prepare and three executions its engine counters
   equal those of a fresh plan of the same SQL run three times. *)
let test_session_reports_engine_work () =
  let store = Loader.shred schema (Lazy.force doc1) in
  List.iter
    (fun (name, q) ->
      let session = Session.create store in
      let p = Session.prepare session q in
      let rows = ref 0 in
      for _ = 1 to 3 do
        rows := !rows + List.length (Session.execute session p).Engine.rows
      done;
      let expected =
        match Session.sql p with
        | None -> Engine.stats_zero
        | Some stmt ->
          let plan = Engine.prepare store.Loader.db stmt in
          for _ = 1 to 3 do
            ignore (Engine.run_plan plan)
          done;
          Engine.plan_stats plan
      in
      let m = Session.metrics session in
      let got = Metrics.engine_stats m in
      List.iter
        (fun (c : Engine.counter) ->
          Alcotest.(check int) (name ^ " " ^ c.name) (c.get expected) (c.get got))
        Engine.counters;
      Alcotest.(check int) (name ^ " queries") 3 (Metrics.get m Metrics.Queries);
      Alcotest.(check int) (name ^ " rows") !rows (Metrics.get m Metrics.Rows))
    (Xmark.queries @ Xmark.extension_queries)

(* Minor words per call of [f], over 1,000 warm calls. *)
let words_per_call f =
  let n = 1000 in
  ignore (f ());
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (f ())
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* What [Session.execute] allocates beyond the plan's own run: the same
   warm Q9 through the session and through a bare plan. *)
let test_session_execute_allocation () =
  let store = Loader.shred schema (Lazy.force doc1) in
  let session = Session.create store in
  let p = Session.prepare session (Xmark.query "Q9") in
  let plan = Engine.prepare store.Loader.db (Option.get (Session.sql p)) in
  let own =
    words_per_call (fun () -> Session.execute session p)
    -. words_per_call (fun () -> Engine.run_plan plan)
  in
  if own > 30.0 then Alcotest.failf "Session.execute allocates %.1f words of its own" own

(* ------------------------------------------------------------------ *)
(* Session behaviour                                                   *)
(* ------------------------------------------------------------------ *)

let test_session_caches () =
  let session = Session.of_doc ~schema (Lazy.force doc1) in
  let m = Session.metrics session in
  let ids1 = Session.run_ids session "//keyword" in
  Alcotest.(check int) "first arrival misses" 1 (Metrics.get m Metrics.Misses);
  Alcotest.(check int) "no hit yet" 0 (Metrics.get m Metrics.Hits);
  let ids2 = Session.run_ids session "//keyword" in
  Alcotest.(check int) "second arrival hits" 1 (Metrics.get m Metrics.Hits);
  Alcotest.(check (list int)) "same answer" ids1 ids2;
  Alcotest.(check int) "translated once" 1 (Metrics.stage_count m Metrics.Translate);
  Alcotest.(check int) "planned once" 1 (Metrics.stage_count m Metrics.Plan);
  Alcotest.(check int) "executed twice" 2 (Metrics.stage_count m Metrics.Execute);
  Alcotest.(check int) "one live entry" 1 (Session.cache_length session)

let test_session_normalizes () =
  let session = Session.of_doc ~schema (Lazy.force doc1) in
  let p1 = Session.prepare session "//keyword[ancestor::item]" in
  let p2 = Session.prepare session "//keyword[ ancestor :: item ]" in
  Alcotest.(check string) "same canonical form" (Session.canonical p1)
    (Session.canonical p2);
  Alcotest.(check int) "textual variants share one entry" 1
    (Metrics.get (Session.metrics session) Metrics.Misses);
  Alcotest.(check int) "second prepare was a hit" 1 (Metrics.get (Session.metrics session) Metrics.Hits)

let test_session_capacity () =
  let session = Session.of_doc ~cache_capacity:2 ~schema (Lazy.force doc1) in
  ignore (Session.run_ids session "//keyword");
  ignore (Session.run_ids session "//person");
  ignore (Session.run_ids session "//bidder");
  Alcotest.(check int) "cache bounded" 2 (Session.cache_length session);
  Alcotest.(check int) "eviction counted" 1 (Metrics.get (Session.metrics session) Metrics.Evictions);
  (* The evicted query still answers correctly (re-translated). *)
  let cold = cold_render (Session.store session) "//keyword" in
  Alcotest.(check string) "evicted entry recomputed" cold (warm_render session "//keyword")

let test_session_provably_empty () =
  let session = Session.of_doc ~schema (Lazy.force doc1) in
  (* "person" is never a child of "site"'s item structure root-to-leaf. *)
  let p = Session.prepare session "/site/person" in
  Alcotest.(check bool) "provably empty" true (Session.sql p = None);
  Alcotest.(check (list int)) "no ids" [] (Session.execute_ids session p)

let test_session_epoch_invalidation () =
  let session = Session.of_doc ~schema (Lazy.force doc1) in
  let m = Session.metrics session in
  let p = Session.prepare session "//keyword" in
  let before = Session.execute_ids session p in
  let e0 = Session.epoch session in
  Session.load session (Lazy.force doc2);
  Alcotest.(check bool) "epoch moved" true (Session.epoch session <> e0);
  let after = Session.execute_ids session p in
  Alcotest.(check int) "invalidation counted" 1 (Metrics.get m Metrics.Invalidations);
  Alcotest.(check bool) "answer grew across documents" true
    (List.length after > List.length before);
  let cold = cold_render (Session.store session) "//keyword" in
  Alcotest.(check string) "matches cold translation on mutated store" cold
    (warm_render session "//keyword");
  (* Replans exactly once: the refreshed plan serves later arrivals. *)
  ignore (Session.execute_ids session p);
  Alcotest.(check int) "no further invalidations" 1 (Metrics.get m Metrics.Invalidations)

let test_batch () =
  let session = Session.of_doc ~schema (Lazy.force doc1) in
  let queries =
    Batch.parse_queries "# XPathMark sample\n//keyword\n\n  //bogus(syntax\n//person\n"
  in
  Alcotest.(check int) "comments and blanks dropped" 3 (List.length queries);
  let outcomes = Batch.run session queries in
  (match outcomes with
   | [ ok1; err; ok2 ] ->
     Alcotest.(check bool) "first ok" true (Result.is_ok ok1.Batch.result);
     Alcotest.(check bool) "bad query captured" true (Result.is_error err.Batch.result);
     Alcotest.(check bool) "batch continues past errors" true (Result.is_ok ok2.Batch.result)
   | _ -> Alcotest.fail "expected three outcomes")

let test_fingerprint () =
  let store = Loader.shred schema (Lazy.force doc1) in
  let tr1 = Translate.create store.Loader.mapping in
  let tr2 = Translate.create store.Loader.mapping in
  Alcotest.(check string) "fingerprint deterministic" (Translate.fingerprint tr1)
    (Translate.fingerprint tr2);
  let tr3 =
    Translate.create
      ~options:{ Translate.default_options with omit_path_filters = false }
      store.Loader.mapping
  in
  Alcotest.(check bool) "options change the fingerprint" true
    (Translate.fingerprint tr1 <> Translate.fingerprint tr3);
  let other = Loader.shred (Graph.infer (Lazy.force doc2)) (Lazy.force doc2) in
  let tr4 = Translate.create other.Loader.mapping in
  Alcotest.(check bool) "schema changes the fingerprint" true
    (Translate.fingerprint tr1 <> Translate.fingerprint tr4)

(* ------------------------------------------------------------------ *)
(* qcheck differential property                                        *)
(* ------------------------------------------------------------------ *)

(* Random queries over the XMark vocabulary (forward axes, wildcards,
   existence/backward/attribute predicates) — the subset the translator
   accepts; out-of-subset draws are discarded via assume_fail. *)
let gen_query =
  let open QCheck.Gen in
  let name =
    oneofl
      [
        "site"; "regions"; "africa"; "asia"; "item"; "location"; "quantity"; "name";
        "description"; "parlist"; "listitem"; "text"; "keyword"; "emph"; "mailbox";
        "mail"; "people"; "person"; "address"; "city"; "country"; "open_auctions";
        "open_auction"; "bidder"; "increase"; "personref"; "interval"; "start"; "date";
        "closed_auctions"; "closed_auction"; "annotation"; "author"; "seller";
      ]
  in
  let test = frequency [ 5, name; 1, return "*" ] in
  let step =
    frequency [ 3, map (fun t -> "/" ^ t) test; 2, map (fun t -> "//" ^ t) test ]
  in
  let predicate =
    oneof
      [
        map (fun n -> "[" ^ n ^ "]") name;
        map (fun n -> "[.//" ^ n ^ "]") name;
        map (fun n -> "[parent::" ^ n ^ "]") name;
        map (fun n -> "[ancestor::" ^ n ^ "]") name;
        return "[@id]";
        return "[@featured = 'yes']";
        map2 (fun a b -> "[" ^ a ^ " or " ^ b ^ "]") name name;
      ]
  in
  map2
    (fun first steps ->
      "//" ^ first ^ String.concat "" (List.map (fun (s, p) -> s ^ p) steps))
    name
    (list_size (int_range 0 3) (pair step (oneof [ return ""; predicate ])))

let prop_warm_equals_cold =
  QCheck.Test.make ~count:300
    ~name:"warm cache-hit execution is byte-identical to cold translation"
    (QCheck.make ~print:(fun q -> q) gen_query)
    (fun query ->
      let store, session = Lazy.force shared in
      match cold_render store query with
      | exception Xparser.Error _ -> QCheck.assume_fail ()
      | exception Translate.Unsupported _ -> QCheck.assume_fail ()
      | cold ->
        (* First arrival fills the cache (or hits a previous iteration's
           entry); the second is a guaranteed warm hit. *)
        let m = Session.metrics session in
        let warm1 = warm_render session query in
        let hits_before = Metrics.get m Metrics.Hits in
        let warm2 = warm_render session query in
        if Metrics.get m Metrics.Hits <= hits_before then
          QCheck.Test.fail_reportf "query %s: second arrival did not hit the cache"
            query
        else if warm1 <> cold then
          QCheck.Test.fail_reportf "query %s: first warm result differs\ncold:\n%s\nwarm:\n%s"
            query cold warm1
        else if warm2 <> cold then
          QCheck.Test.fail_reportf "query %s: cached result differs\ncold:\n%s\nwarm:\n%s"
            query cold warm2
        else true)

(* The same property across an epoch bump: cached plans must be replaced,
   never replayed against stale assumptions. *)
let prop_invalidation_preserves_results =
  QCheck.Test.make ~count:60
    ~name:"epoch bump invalidates cached plans and preserves results"
    (QCheck.make ~print:(fun q -> q) gen_query)
    (fun query ->
      let session = Session.of_doc ~schema (Lazy.force doc1) in
      (match Session.run_ids session query with
       | exception Xparser.Error _ -> QCheck.assume_fail ()
       | exception Translate.Unsupported _ -> QCheck.assume_fail ()
       | _warm_before ->
         Session.load session (Lazy.force doc2);
         let cold = cold_render (Session.store session) query in
         let warm = warm_render session query in
         if warm <> cold then
           QCheck.Test.fail_reportf
             "query %s after epoch bump:\ncold:\n%s\nwarm:\n%s" query cold warm
         else true))

(* ------------------------------------------------------------------ *)

let () =
  let tc (name, f) = Alcotest.test_case name `Quick f in
  Alcotest.run "service"
    [
      ( "lru",
        List.map tc
          [
            "basics", test_lru_basics;
            "replace and remove", test_lru_replace_and_remove;
            "capacity one", test_lru_capacity_one;
            "churn", test_lru_churn;
          ] );
      ( "metrics",
        List.map tc
          [
            "accumulators", test_metrics_accumulators;
            "dump", test_metrics_dump;
            "engine counters", test_metrics_engine_counters;
            "counter table", test_metrics_counter_table;
          ] );
      ( "engine-plans",
        List.map tc
          [
            "prepare and replay", test_engine_prepare;
            "staleness", test_engine_plan_staleness;
            "epoch moves", test_epoch_moves;
          ] );
      ( "reporting",
        List.map tc
          [
            "session engine work = fresh plan's", test_session_reports_engine_work;
            "execute allocates at most 30 words", test_session_execute_allocation;
          ] );
      ( "session",
        List.map tc
          [
            "caches", test_session_caches;
            "normalizes", test_session_normalizes;
            "capacity", test_session_capacity;
            "provably empty", test_session_provably_empty;
            "epoch invalidation", test_session_epoch_invalidation;
            "batch", test_batch;
            "fingerprint", test_fingerprint;
          ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_warm_equals_cold; prop_invalidation_preserves_results ] );
    ]
