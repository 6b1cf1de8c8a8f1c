(* Differential tests for the schema-oblivious Edge-mapping PPF variant
   (paper Section 5.1) against the reference evaluator. *)

module Xparser = Ppfx_xpath.Parser
module Eval = Ppfx_xpath.Eval
module Doc = Ppfx_xml.Doc
module Xml_parser = Ppfx_xml.Parser
module Edge = Ppfx_shred.Edge
module Translate = Ppfx_translate.Translate
module Engine = Ppfx_minidb.Engine
module Sql = Ppfx_minidb.Sql

let fig1 =
  lazy
    (let doc = Doc.of_tree (Xml_parser.parse Fig1.doc_src) in
     doc, Edge.shred doc)

let check_query doc (store : Edge.t) query =
  let expr = Xparser.parse query in
  let expected = Eval.select_elements doc expr in
  let got =
    match Translate.translate Translate.edge expr with
    | None -> []
    | Some stmt -> Translate.result_ids (Engine.run store.Edge.db stmt)
  in
  Alcotest.(check (list int)) query expected got

let fig1_query query () =
  let doc, store = Lazy.force fig1 in
  check_query doc store query

let golden_tests =
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  [
    ( "wildcard prominent step does not split the statement",
      fun () ->
        match Translate.translate Translate.edge (Xparser.parse "/A/B/*") with
        | Some stmt ->
          Alcotest.(check bool) "no union" false (contains (Sql.to_string stmt) "UNION")
        | None -> Alcotest.fail "expected a statement" );
    ( "every fragment filters the Paths relation",
      fun () ->
        match Translate.translate Translate.edge (Xparser.parse "/A/B/C") with
        | Some stmt ->
          Alcotest.(check bool) "regexp" true
            (contains (Sql.to_string stmt) "REGEXP_LIKE")
        | None -> Alcotest.fail "expected a statement" );
    ( "attribute predicates join the attr relation",
      fun () ->
        match Translate.translate Translate.edge (Xparser.parse "/A[@x = 3]") with
        | Some stmt ->
          Alcotest.(check bool) "attr" true (contains (Sql.to_string stmt) "attr")
        | None -> Alcotest.fail "expected a statement" );
  ]

(* Random differential property, same query generator family as the
   schema-aware suite. *)
let gen_query =
  let open QCheck.Gen in
  let name = oneofl [ "A"; "B"; "C"; "D"; "E"; "F"; "G" ] in
  let test = oneof [ name; return "*" ] in
  let step =
    oneof
      [
        map (fun t -> "/" ^ t) test;
        map (fun t -> "//" ^ t) test;
        map (fun t -> "/parent::" ^ t) test;
        map (fun t -> "/ancestor::" ^ t) test;
        map (fun t -> "/following-sibling::" ^ t) test;
        map (fun t -> "/preceding-sibling::" ^ t) test;
        map (fun t -> "/following::" ^ t) test;
        map (fun t -> "/preceding::" ^ t) test;
      ]
  in
  let predicate =
    oneof
      [
        map (fun n -> "[" ^ n ^ "]") name;
        map (fun n -> "[not(" ^ n ^ ")]") name;
        map (fun n -> "[.//" ^ n ^ "]") name;
        map2 (fun n v -> "[" ^ n ^ " = " ^ string_of_int v ^ "]") name (int_bound 3);
        map (fun n -> "[parent::" ^ n ^ "]") name;
        map (fun n -> "[ancestor::" ^ n ^ "]") name;
        return "[@x]";
        return "[@x = 3]";
        map2 (fun a b -> "[" ^ a ^ " or " ^ b ^ "]") name name;
        map2 (fun a b -> "[" ^ a ^ " and " ^ b ^ "]") name name;
      ]
  in
  map2
    (fun steps first_name ->
      let body = String.concat "" (List.map (fun (s, p) -> s ^ p) steps) in
      "/" ^ first_name ^ body)
    (list_size (int_range 0 3) (pair step (oneof [ return ""; predicate ])))
    name

let prop_edge_vs_eval =
  QCheck.Test.make ~count:800 ~name:"Edge PPF SQL agrees with reference evaluator"
    (QCheck.make ~print:(fun q -> q) gen_query)
    (fun query ->
      let doc, store = Lazy.force fig1 in
      match Xparser.parse query with
      | exception Xparser.Error _ -> QCheck.assume_fail ()
      | expr ->
        let expected = Eval.select_elements doc expr in
        let got =
          match Translate.translate Translate.edge expr with
          | None -> []
          | Some stmt -> Translate.result_ids (Engine.run store.Edge.db stmt)
        in
        if got <> expected then
          QCheck.Test.fail_reportf "query %s: expected [%s], got [%s]" query
            (String.concat ";" (List.map string_of_int expected))
            (String.concat ";" (List.map string_of_int got))
        else true)

let () =
  let tc (name, f) = Alcotest.test_case name `Quick f in
  Alcotest.run "edge_translate"
    [
      ( "differential",
        List.map (fun q -> Alcotest.test_case q `Quick (fig1_query q)) Fig1.edge_queries );
      "golden", List.map tc golden_tests;
      "properties", [ QCheck_alcotest.to_alcotest prop_edge_vs_eval ];
    ]
