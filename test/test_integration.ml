(* End-to-end integration: every storage engine must return exactly the
   reference evaluator's answer for every benchmark query on generated
   XMark and DBLP documents. This is the cross-engine correctness matrix
   behind the paper's Section 5 comparison. *)

module Doc = Ppfx_xml.Doc
module Graph = Ppfx_schema.Graph
module Eval = Ppfx_xpath.Eval
module Xparser = Ppfx_xpath.Parser
module Loader = Ppfx_shred.Loader
module Edge = Ppfx_shred.Edge
module Translate = Ppfx_translate.Translate
module Accelerator = Ppfx_baselines.Accelerator
module Monet_sim = Ppfx_baselines.Monet_sim
module Commercial = Ppfx_baselines.Commercial
module Engine = Ppfx_minidb.Engine
module Xmark = Ppfx_workloads.Xmark
module Dblp = Ppfx_workloads.Dblp

type fixture = {
  doc : Doc.t;
  schema_store : Loader.t;
  edge_store : Edge.t;
  accel_store : Accelerator.t;
  monet : Monet_sim.t;
}

let make_fixture doc schema =
  {
    doc;
    schema_store = Loader.shred schema doc;
    edge_store = Edge.shred doc;
    accel_store = Accelerator.shred doc;
    monet = Monet_sim.of_doc doc;
  }

let xmark_fixture =
  lazy
    (let doc = Doc.of_tree (Xmark.generate ~items_per_region:4 ()) in
     make_fixture doc (Xmark.schema ()))

let dblp_fixture =
  lazy
    (let doc = Doc.of_tree (Dblp.generate ~entries:60 ()) in
     make_fixture doc (Dblp.schema_of doc))

let run_engine fx engine query =
  let expr = Xparser.parse query in
  match engine with
  | `Reference -> Eval.select_elements fx.doc expr
  | `Ppf ->
    let translator = Translate.create fx.schema_store.Loader.mapping in
    (match Translate.translate translator expr with
     | None -> []
     | Some stmt -> Translate.result_ids (Engine.run fx.schema_store.Loader.db stmt))
  | `Edge_ppf ->
    (match Translate.translate Translate.edge expr with
     | None -> []
     | Some stmt -> Translate.result_ids (Engine.run fx.edge_store.Edge.db stmt))
  | `Accelerator ->
    (match Accelerator.translate expr with
     | None -> []
     | Some stmt -> Accelerator.result_ids (Engine.run fx.accel_store.Accelerator.db stmt))
  | `Monet -> Monet_sim.run fx.monet expr
  | `Commercial ->
    (match Commercial.translate fx.schema_store.Loader.mapping expr with
     | None -> []
     | Some stmt -> Commercial.result_ids (Engine.run fx.schema_store.Loader.db stmt))

let engines = [ "ppf", `Ppf; "edge-ppf", `Edge_ppf; "accelerator", `Accelerator; "monet", `Monet ]

let twig_agrees fx () =
  let store = Ppfx_baselines.Twig.of_doc fx.doc in
  List.iter
    (fun (name, q) ->
      let expr = Xparser.parse q in
      let expected = Eval.select_elements fx.doc expr in
      let got = Ppfx_baselines.Twig.run store expr in
      if got <> expected then
        Alcotest.failf "twig on %s: expected %d nodes, got %d" name
          (List.length expected) (List.length got))
    Xmark.twig_queries

let check_all fx (name, query) () =
  let expected = run_engine fx `Reference query in
  if expected = [] && not (List.mem name [ "Q11" ]) then
    (* All benchmark queries are generated to be non-empty, so an empty
       expectation would make the comparison vacuous. Q11 may be empty at
       large scales (as in the paper's own table). *)
    Alcotest.failf "%s: reference result is unexpectedly empty" name;
  List.iter
    (fun (ename, engine) ->
      let got = run_engine fx engine query in
      if got <> expected then
        Alcotest.failf "%s via %s: expected %d nodes, got %d nodes" name ename
          (List.length expected) (List.length got))
    engines

let commercial_subset fx () =
  List.iter
    (fun name ->
      let query = Xmark.query name in
      let expected = run_engine fx `Reference query in
      let got = run_engine fx `Commercial query in
      Alcotest.(check (list int)) name expected got)
    [ "Q23"; "Q24"; "QA" ]

let commercial_rejections fx () =
  List.iter
    (fun name ->
      let query = Xmark.query name in
      match run_engine fx `Commercial query with
      | _ -> Alcotest.failf "%s should be rejected by the built-in processor" name
      | exception Commercial.Not_supported _ -> ())
    [ "Q1"; "Q3"; "Q6"; "Q9"; "Q13"; "Q22" ]

(* Multi-document stores: ids are globalised and Dewey positions are
   doc-prefixed, so results over a two-document store must equal the
   disjoint union of the per-document reference answers. *)
let multi_document () =
  let schema = Xmark.schema () in
  let doc1 = Doc.of_tree (Xmark.generate ~seed:1 ~items_per_region:2 ()) in
  let doc2 = Doc.of_tree (Xmark.generate ~seed:2 ~items_per_region:3 ()) in
  let store = Loader.create (Ppfx_shred.Mapping.of_schema schema) in
  let store = Loader.load store doc1 in
  let store = Loader.load store doc2 in
  let translator = Translate.create store.Loader.mapping in
  let run q =
    match Translate.translate translator (Xparser.parse q) with
    | None -> []
    | Some stmt -> Translate.result_ids (Engine.run store.Loader.db stmt)
  in
  let expected q =
    let e1 = Eval.select_elements doc1 (Xparser.parse q) in
    let e2 = Eval.select_elements doc2 (Xparser.parse q) in
    List.sort_uniq Int.compare (e1 @ List.map (fun i -> i + Doc.size doc1) e2)
  in
  List.iter
    (fun q -> Alcotest.(check (list int)) q (expected q) (run q))
    [
      "/site/regions/*/item";
      "//keyword";
      (* structural joins must not leak across documents *)
      "//keyword/ancestor::listitem";
      "/site/open_auctions/open_auction[bidder/date = interval/start]";
      "//item[@id='item0']";
    ];
  (* the Edge store globalises identically *)
  let estore = Edge.create () in
  let estore = Edge.load estore doc1 in
  let estore = Edge.load estore doc2 in
  List.iter
    (fun q ->
      let got =
        match Translate.translate Translate.edge (Xparser.parse q) with
        | None -> []
        | Some stmt -> Translate.result_ids (Engine.run estore.Edge.db stmt)
      in
      Alcotest.(check (list int)) ("edge " ^ q) (expected q) got)
    [ "//keyword/ancestor::listitem"; "/site/regions/*/item" ];
  (* locate maps a global id back to its document *)
  let items = run "//item[@id='item0']" in
  (match items with
   | [ a; b ] ->
     Alcotest.(check int) "first in doc 0" 0 (fst (Loader.locate store a));
     Alcotest.(check int) "second in doc 1" 1 (fst (Loader.locate store b))
   | l -> Alcotest.failf "expected item0 in both docs, got %d" (List.length l))

(* Random cross-engine property over the rich XMark vocabulary: a much
   deeper schema than the fig-1 corpus used by the per-engine suites
   (shared definitions, recursion through parlist/listitem, attributes on
   many relations). *)
let gen_xmark_query =
  let open QCheck.Gen in
  let name =
    oneofl
      [
        "site"; "regions"; "namerica"; "item"; "description"; "parlist"; "listitem";
        "text"; "keyword"; "mailbox"; "mail"; "people"; "person"; "address"; "phone";
        "homepage"; "open_auctions"; "open_auction"; "bidder"; "personref"; "interval";
        "date"; "name"; "closed_auctions"; "closed_auction"; "annotation"; "author";
      ]
  in
  let test = oneof [ name; return "*" ] in
  let step =
    frequency
      [
        4, map (fun t -> "/" ^ t) test;
        4, map (fun t -> "//" ^ t) test;
        1, map (fun t -> "/parent::" ^ t) test;
        1, map (fun t -> "/ancestor::" ^ t) test;
        1, map (fun t -> "/following-sibling::" ^ t) test;
        1, map (fun t -> "/preceding-sibling::" ^ t) test;
      ]
  in
  let predicate =
    oneof
      [
        map (fun n -> "[" ^ n ^ "]") name;
        map (fun n -> "[not(" ^ n ^ ")]") name;
        map (fun n -> "[.//" ^ n ^ "]") name;
        map (fun n -> "[parent::" ^ n ^ "]") name;
        map (fun n -> "[ancestor::" ^ n ^ "]") name;
        return "[@id]";
        return "[@featured = 'yes']";
        return "[@id = 'item0']";
        map2 (fun a b -> "[" ^ a ^ " or " ^ b ^ "]") name name;
      ]
  in
  map2
    (fun first steps ->
      "//" ^ first ^ String.concat "" (List.map (fun (s, p) -> s ^ p) steps))
    name
    (list_size (int_range 0 3) (pair step (oneof [ return ""; predicate ])))

let prop_xmark_cross_engine fx =
  QCheck.Test.make ~count:250 ~name:"random XMark queries agree across engines"
    (QCheck.make ~print:(fun q -> q) gen_xmark_query)
    (fun query ->
      match Xparser.parse query with
      | exception Xparser.Error _ -> QCheck.assume_fail ()
      | expr ->
        ignore expr;
        let expected = run_engine fx `Reference query in
        List.for_all
          (fun (ename, engine) ->
            let got = run_engine fx engine query in
            if got <> expected then
              QCheck.Test.fail_reportf "%s on %s: expected %d nodes, got %d nodes" ename
                query (List.length expected) (List.length got)
            else true)
          engines)

(* count() comparisons are supported by the PPF translator, on both
   mappings, and the MonetDB simulator (the paper's subset leaves them
   out; extension documented in README). *)
let count_queries fx () =
  List.iter
    (fun q ->
      let expected = run_engine fx `Reference q in
      List.iter
        (fun (ename, engine) ->
          let got = run_engine fx engine q in
          if got <> expected then
            Alcotest.failf "%s on %s: %d vs %d nodes" ename q (List.length got)
              (List.length expected))
        [ "ppf", `Ppf; "edge-ppf", `Edge_ppf; "monet", `Monet ])
    [
      "/site/people/person[count(address) = 1]";
      "/site/regions/*/item[location[contains(., 'france')]]";
      "//person[emailaddress[starts-with(., 'mailto:1')]]";
      "//keyword[string-length(.) > 10]";
      "/site/open_auctions/open_auction[count(bidder) > 2]";
      "/site/regions/*/item[count(incategory) = 2]";
      "//parlist[count(listitem) >= 2]";
      "//person[count(watches/watch) = 1]";
      "//open_auction[count(bidder) = 0]";
    ]

(* The translated plan over a shredded store (path-partitioned by
   default) must execute the fact step as a pruned partition scan and
   surface the pruning in EXPLAIN — the end-to-end golden behind the
   CLI's `ppfx explain` output. *)
let partition_pruning_explain fx () =
  let translator = Translate.create fx.schema_store.Loader.mapping in
  match Translate.translate translator (Xparser.parse "//item/name") with
  | None -> Alcotest.fail "//item/name should translate"
  | Some stmt ->
    let plan = Engine.explain fx.schema_store.Loader.db stmt in
    let contains sub =
      let n = String.length sub in
      let rec go i =
        i + n <= String.length plan && (String.sub plan i n = sub || go (i + 1))
      in
      go 0
    in
    if not (contains "partition scan") then
      Alcotest.failf "no partition scan in plan:\n%s" plan;
    if not (contains "partitions: scanned") then
      Alcotest.failf "no pruning line in plan:\n%s" plan

let contains ~sub text =
  let n = String.length sub in
  let rec go i = i + n <= String.length text && (String.sub text i n = sub || go (i + 1)) in
  go 0

let translate_on store query =
  Translate.translate (Translate.create store.Loader.mapping) (Xparser.parse query)

(* One plan, three readings: EXPLAIN ANALYZE is the served executor with
   the profile flag set, so it must return the served rows (and the naive
   oracle's), count exactly what a plain prepare + run counts, and report
   the very steps EXPLAIN prints — EXISTS sub-plans included — in the
   same order with the same access labels. *)
let one_plan_differential fx (name, query) () =
  match translate_on fx.schema_store query with
  | None -> ()
  | Some stmt ->
    let db = fx.schema_store.Loader.db in
    let profiled, profiles, stats = Engine.run_profiled db stmt in
    let plan = Engine.prepare db stmt in
    let served = Engine.run_plan plan in
    Alcotest.(check bool) (name ^ ": profiled rows = served rows") true
      (profiled.Engine.rows = served.Engine.rows);
    Alcotest.(check bool) (name ^ ": served rows = naive rows") true
      (served.Engine.rows = (Engine.run_naive db stmt).Engine.rows);
    List.iter
      (fun (c : Engine.counter) ->
        Alcotest.(check int) (name ^ ": " ^ c.name) (c.get (Engine.plan_stats plan)) (c.get stats))
      Engine.counters;
    let step_lines =
      String.split_on_char '\n' (Engine.explain db stmt)
      |> List.map String.trim
      |> List.filter (String.starts_with ~prefix:"step ")
    in
    Alcotest.(check int) (name ^ ": one profile per step line") (List.length step_lines)
      (List.length profiles);
    List.iter2
      (fun line (p : Engine.step_profile) ->
        let expect = Printf.sprintf "step %s(%s): %s, " p.table p.alias p.access in
        if not (String.starts_with ~prefix:expect line) then
          Alcotest.failf "%s: profile %S does not match plan line %S" name expect line)
      step_lines profiles

(* The EXPLAIN goldens behind `ppfx explain` on a generated document, as
   the CLI shreds it (inferred schema): Q6's path regexes and XE1's
   contains() run as residual filters on a scan, through the shared frozen
   DFA, and neither runs an exec-time NFA simulation. The Dewey range
   joins — Q10's following axis, Q21's descendant window and the forward
   containment [BETWEEN] of a keyed point lookup — run as index range
   scans and answer as the reference evaluator does; the point lookup,
   which has no path-filter reduction, materializes nothing. *)
let explain_goldens () =
  let doc = Doc.of_tree (Xmark.generate ~items_per_region:3 ()) in
  let store = Loader.shred (Graph.infer doc) doc in
  let analyze query =
    match translate_on store query with
    | None -> Alcotest.failf "%s should translate" query
    | Some stmt ->
      let text, result, stats = Engine.explain_analyze store.Loader.db stmt in
      text, Translate.result_ids result, Engine.stats_to_string stats
  in
  List.iter
    (fun name ->
      let text, _, stats = analyze (Xmark.query name) in
      if not (contains ~sub:"full scan" text && contains ~sub:"residual filters" text)
      then Alcotest.failf "%s has no scan with residual filters:\n%s" name text;
      if not (contains ~sub:"exec regex evals 0," stats) then
        Alcotest.failf "%s ran exec-time NFA simulations: %s" name stats)
    [ "Q6"; "XE1" ];
  let point_lookup = "/site/open_auctions/open_auction[@id='open_auction0']/bidder/increase" in
  List.iter
    (fun query ->
      let text, ids, stats = analyze query in
      if not (contains ~sub:"index range scan" text) || contains ~sub:"merge join" text then
        Alcotest.failf "%s does not plan an index range scan:\n%s" query text;
      if String.equal query point_lookup && not (contains ~sub:"peak bytes 0" stats) then
        Alcotest.failf "%s materialized plan state: %s" query stats;
      Alcotest.(check (list int)) query (Eval.select_elements doc (Xparser.parse query)) ids)
    [ Xmark.query "Q10"; Xmark.query "Q21"; point_lookup ]

let () =
  let fx = Lazy.force xmark_fixture in
  let dfx = Lazy.force dblp_fixture in
  Alcotest.run "integration"
    [
      ( "xmark-cross-engine",
        List.map
          (fun (name, q) -> Alcotest.test_case name `Quick (check_all fx (name, q)))
          Xmark.queries );
      ( "dblp-cross-engine",
        List.map
          (fun (name, q) -> Alcotest.test_case name `Quick (check_all dfx (name, q)))
          Dblp.queries );
      ( "commercial",
        [
          Alcotest.test_case "supports Q23/Q24/QA" `Quick (commercial_subset fx);
          Alcotest.test_case "rejects the rest" `Quick (commercial_rejections fx);
        ] );
      "multi-document", [ Alcotest.test_case "load" `Quick multi_document ];
      "count-extension", [ Alcotest.test_case "ppf and monet" `Quick (count_queries fx) ];
      "twig-extension", [ Alcotest.test_case "twig subset" `Quick (twig_agrees fx) ];
      ( "partition-pruning",
        [
          Alcotest.test_case "explain surfaces pruning" `Quick
            (partition_pruning_explain fx);
        ] );
      ( "explain-goldens",
        [ Alcotest.test_case "Q6, XE1 and range-join plans" `Quick explain_goldens ] );
      ( "one-plan",
        List.map
          (fun (name, q) -> Alcotest.test_case name `Quick (one_plan_differential fx (name, q)))
          (Xmark.queries @ Xmark.extension_queries) );
      ( "random-cross-engine",
        [ QCheck_alcotest.to_alcotest (prop_xmark_cross_engine fx) ] );
    ]
