(* Tests for the PPF-based XPath-to-SQL translator: golden translation
   shapes (paper Tables 1 and 3-6), differential correctness against the
   reference evaluator, option ablations, and a qcheck property over
   random schema-valid queries. *)

module Ast = Ppfx_xpath.Ast
module Xparser = Ppfx_xpath.Parser
module Eval = Ppfx_xpath.Eval
module Doc = Ppfx_xml.Doc
module Xml_parser = Ppfx_xml.Parser
module Graph = Ppfx_schema.Graph
module Mapping = Ppfx_shred.Mapping
module Loader = Ppfx_shred.Loader
module Translate = Ppfx_translate.Translate
module Rx = Ppfx_translate.Regex_of_path
module Regex = Ppfx_regex.Regex
module Engine = Ppfx_minidb.Engine
module Sql = Ppfx_minidb.Sql

(* ------------------------------------------------------------------ *)
(* Fixtures: the paper's Figure 1 schema and document                   *)
(* ------------------------------------------------------------------ *)

let fig1 =
  lazy
    (let doc = Doc.of_tree (Xml_parser.parse Fig1.doc_src) in
     let schema = Fig1.schema () in
     let instance = Loader.shred schema doc in
     doc, instance)

(* Differential check: translated SQL against the reference evaluator. *)
let check_query ?options doc (instance : Loader.t) query =
  let expr = Xparser.parse query in
  let expected = Eval.select_elements doc expr in
  let translator = Translate.create ?options instance.Loader.mapping in
  let got =
    match Translate.translate translator expr with
    | None -> []
    | Some stmt -> Translate.result_ids (Engine.run instance.Loader.db stmt)
  in
  Alcotest.(check (list int)) query expected got

let fig1_query query () =
  let doc, instance = Lazy.force fig1 in
  check_query doc instance query

(* ------------------------------------------------------------------ *)
(* Option ablations: all option combinations must stay correct          *)
(* ------------------------------------------------------------------ *)

let ablation_queries =
  [
    "/A/B/C/E/F"; "//F"; "/A[@x = 3]/B/C//F"; "//F/ancestor::B"; "/A/B/C[E/F = 2]";
    "//G/ancestor::G"; "/A/B/*"; "//D/following::F"; "/A/*[C//F = 2]";
  ]

let ablation_tests =
  List.concat_map
    (fun (name, options) ->
      [
        ( name,
          fun () ->
            let doc, instance = Lazy.force fig1 in
            List.iter (fun q -> check_query ~options doc instance q) ablation_queries );
      ])
    [
      ( "no path-filter omission",
        { Translate.default_options with omit_path_filters = false } );
      ("no forward merging", { Translate.default_options with merge_forward = false });
      ("no fk child joins", { Translate.default_options with fk_child_joins = false });
      ( "fully conventional per-step",
        { Translate.default_options with force_per_step = true } );
      ( "everything off",
        {
          Translate.omit_path_filters = false;
          merge_forward = false;
          fk_child_joins = false;
          force_per_step = true;
        } );
    ]

(* ------------------------------------------------------------------ *)
(* Golden translation shapes                                            *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let translate_to_sql ?options query =
  let _, instance = Lazy.force fig1 in
  let translator = Translate.create ?options instance.Loader.mapping in
  match Translate.translate translator (Xparser.parse query) with
  | Some stmt -> Sql.to_string stmt
  | None -> "<empty>"

let golden_tests =
  [
    ( "U-P path filter omitted (4.5)",
      fun () ->
        (* /A/B/C/D: D has a unique root path; no Paths join at all. *)
        let sql = translate_to_sql "/A/B/C/D" in
        Alcotest.(check bool) "no REGEXP_LIKE" false (contains sql "REGEXP_LIKE");
        Alcotest.(check bool) "no paths join" false (contains sql "paths") );
    ( "I-P relation always joins Paths",
      fun () ->
        let sql = translate_to_sql "/A/B/G/G" in
        Alcotest.(check bool) "has REGEXP_LIKE" true (contains sql "REGEXP_LIKE") );
    ( "table 3 (1): wildcard handled by regex, no extra relations",
      fun () ->
        let sql =
          translate_to_sql
            ~options:{ Translate.default_options with omit_path_filters = false }
            "/A[@x = 3]/B/C/*/F"
        in
        (* Only A and F relations (plus Paths) appear: B, C and the
           wildcard are folded into the regex. *)
        Alcotest.(check bool) "no B relation" false (contains sql "FROM B");
        Alcotest.(check bool) "no C relation" false (contains sql ", C,");
        Alcotest.(check bool) "regex with wildcard" true (contains sql "[^/]+");
        Alcotest.(check bool) "attribute condition" true (contains sql "A.attr_x = 3");
        (* With the 4.5 omission enabled, F is U-P and the filter drops
           entirely. *)
        let optimized = translate_to_sql "/A[@x = 3]/B/C/*/F" in
        Alcotest.(check bool) "omitted filter" false (contains optimized "REGEXP_LIKE") );
    ( "table 3 (2): single child step uses FK equijoin",
      fun () ->
        let sql = translate_to_sql "/A[@x = 3]/B" in
        Alcotest.(check bool) "fk join" true (contains sql "B.A_id = A.id");
        Alcotest.(check bool) "no dewey join" false (contains sql "BETWEEN") );
    ( "table 5 (2): backward-only predicate is pure path filtering",
      fun () ->
        let sql = translate_to_sql "//F[parent::E or ancestor::G]" in
        (* parent::E is implied by the schema (F-P/U-P check): the whole
           disjunct collapses; no EXISTS is needed either way. *)
        Alcotest.(check bool) "no exists" false (contains sql "EXISTS") );
    ( "table 6: predicate splitting uses OR of EXISTS, not UNION",
      fun () ->
        let sql = translate_to_sql "/A/B[C/*]" in
        Alcotest.(check bool) "no union" false (contains sql "UNION");
        Alcotest.(check bool) "or of exists" true (contains sql "OR EXISTS") );
    ( "4.4: wildcard prominent step splits the statement",
      fun () ->
        let sql = translate_to_sql "/A/B/*" in
        Alcotest.(check bool) "union" true (contains sql "UNION") );
    ( "dewey structural join shape (table 2 row 1)",
      fun () ->
        let sql = translate_to_sql "/A[@x = 4]//C" in
        Alcotest.(check bool) "between join" true
          (contains sql "C.dewey_pos BETWEEN A.dewey_pos AND A.dewey_pos || x'FF'") );
    ( "following-sibling uses dewey order plus shared parent fk",
      fun () ->
        let sql = translate_to_sql "/A/B/C/following-sibling::G" in
        Alcotest.(check bool) "dewey gt" true (contains sql "G.dewey_pos > C.dewey_pos");
        Alcotest.(check bool) "fk equality" true (contains sql "G.B_id = C.B_id") );
    ( "order by document order",
      fun () ->
        let sql = translate_to_sql "/A/B/C" in
        Alcotest.(check bool) "order by dewey" true (contains sql "ORDER BY C.dewey_pos") );
  ]

(* Table 1 regex generation. *)
let regex_gen_tests =
  [
    ( "anchored child chain",
      fun () ->
        let segs = [ { Rx.desc = false; name = Some "A" }; { Rx.desc = false; name = Some "B" } ] in
        Alcotest.(check string) "pattern" "^/A/B$" (Rx.forward ~anchored:true segs) );
    ( "descendant segment",
      fun () ->
        let segs =
          [
            { Rx.desc = false; name = Some "A" };
            { Rx.desc = false; name = Some "B" };
            { Rx.desc = true; name = Some "F" };
          ]
        in
        Alcotest.(check string) "pattern" "^/A/B/(.+/)?F$" (Rx.forward ~anchored:true segs) );
    ( "wildcard segment",
      fun () ->
        let segs =
          [
            { Rx.desc = true; name = Some "C" };
            { Rx.desc = false; name = None };
            { Rx.desc = false; name = Some "F" };
          ]
        in
        Alcotest.(check string) "pattern" "^.*/C/[^/]+/F$" (Rx.forward ~anchored:false segs) );
    ( "backward chain (table 1 row 4)",
      fun () ->
        let pattern =
          Rx.backward ~context:(Some "F")
            [ Ast.Parent, Some "D"; Ast.Ancestor, Some "B" ]
        in
        Alcotest.(check string) "pattern" "^.*/B(/.+)?/D/F$" pattern;
        let hit = Regex.search (Regex.compile pattern) in
        Alcotest.(check bool) "matches" true (hit "/A/B/X/D/F");
        Alcotest.(check bool) "direct" true (hit "/A/B/D/F");
        Alcotest.(check bool) "wrong parent" false (hit "/A/B/D/X/F") );
    ( "ends-with pattern",
      fun () ->
        let hit = Regex.search (Regex.compile (Rx.ends_with "F")) in
        Alcotest.(check bool) "tail" true (hit "/A/B/F");
        Alcotest.(check bool) "root" true (hit "F");
        Alcotest.(check bool) "infix" false (hit "/A/F/B") );
  ]

(* ------------------------------------------------------------------ *)
(* Unsupported constructs                                               *)
(* ------------------------------------------------------------------ *)

let unsupported_tests =
  let expect_unsupported query () =
    let _, instance = Lazy.force fig1 in
    let translator = Translate.create instance.Loader.mapping in
    match Translate.translate translator (Xparser.parse query) with
    | _ -> Alcotest.failf "expected Unsupported for %s" query
    | exception Translate.Unsupported _ -> ()
  in
  [
    "positional on descendant axis", expect_unsupported "//B[2]";
    "positional after another predicate", expect_unsupported "/A/B/C[E][1]";
    "last() after another predicate", expect_unsupported "/A/B/C[E][last()]";
    "count of non-path", expect_unsupported "/A/B[count(1) > 1]";
    "bare count is positional", expect_unsupported "//B[count(C)]";
    "top-level function", expect_unsupported "count(//F)";
  ]

(* ------------------------------------------------------------------ *)
(* Random differential property                                         *)
(* ------------------------------------------------------------------ *)

(* Random schema-valid-ish XPath queries over the fig-1 vocabulary.
   Unsupported constructs are excluded by construction. *)
let gen_query =
  let open QCheck.Gen in
  let name = oneofl [ "A"; "B"; "C"; "D"; "E"; "F"; "G" ] in
  let test = oneof [ map (fun n -> n) name; return "*" ] in
  let fwd_axis = oneofl [ ""; "" ] in
  ignore fwd_axis;
  let step depth =
    if depth <= 0 then map (fun t -> "/" ^ t) test
    else
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
        (* extensions: positional and count predicates; combinations the
           translator rejects are skipped via assume below *)
        map (fun v -> "[" ^ string_of_int (1 + v) ^ "]") (int_bound 2);
        map2
          (fun n v -> "[count(" ^ n ^ ") = " ^ string_of_int v ^ "]")
          name (int_bound 2);
      ]
  in
  let gen =
    list_size (int_range 1 4) (pair (step 1) (oneof [ return ""; predicate ]))
    >|= fun steps ->
    let body =
      String.concat "" (List.map (fun (s, p) -> s ^ p) steps)
    in
    (* First step must not be an order/backward axis from the root. *)
    body
  in
  gen
  |> QCheck.Gen.map (fun q ->
         (* Ensure the first step is forward. *)
         if
           String.length q >= 2
           && (contains (String.sub q 0 (min 12 (String.length q))) "parent"
               || contains (String.sub q 0 (min 20 (String.length q))) "ancestor"
               || contains (String.sub q 0 (min 20 (String.length q))) "following"
               || contains (String.sub q 0 (min 20 (String.length q))) "preceding")
         then "/A" ^ q
         else q)

let prop_translator_vs_eval =
  QCheck.Test.make ~count:800 ~name:"translated SQL agrees with reference evaluator"
    (QCheck.make ~print:(fun q -> q) gen_query)
    (fun query ->
      let doc, instance = Lazy.force fig1 in
      match Xparser.parse query with
      | exception Xparser.Error _ -> QCheck.assume_fail ()
      | expr ->
        let expected = Eval.select_elements doc expr in
        let translator = Translate.create instance.Loader.mapping in
        (match Translate.translate translator expr with
         | exception Translate.Unsupported _ ->
           (* out-of-subset combination (e.g. positional on //) *)
           QCheck.assume_fail ()
         | stmt ->
           let got =
             match stmt with
             | None -> []
             | Some stmt -> Translate.result_ids (Engine.run instance.Loader.db stmt)
           in
           if got <> expected then
             QCheck.Test.fail_reportf "query %s: expected [%s], got [%s]" query
               (String.concat ";" (List.map string_of_int expected))
               (String.concat ";" (List.map string_of_int got))
           else true))

(* Random documents under the fig-1 schema: the differential property
   above uses one fixed document; this one varies the data too, catching
   data-dependent planner or join bugs. Each case shreds a fresh random
   document and compares a fixed panel of queries. *)
let gen_fig1_doc =
  let open QCheck.Gen in
  let rec g_tree depth =
    if depth <= 0 then return (Ppfx_xml.Tree.element "G")
    else
      map
        (fun sub -> Ppfx_xml.Tree.element ~children:sub "G")
        (list_size (int_bound 2) (g_tree (depth - 1)))
  in
  let f_elem = map (fun v -> Ppfx_xml.Tree.element ~children:[ Ppfx_xml.Tree.text (string_of_int v) ] "F") (int_bound 3) in
  let e_elem = map (fun fs -> Ppfx_xml.Tree.element ~children:fs "E") (list_size (int_bound 3) f_elem) in
  let d_elem = map (fun v -> Ppfx_xml.Tree.element ~children:[ Ppfx_xml.Tree.text ("d" ^ string_of_int v) ] "D") (int_bound 2) in
  let c_elem =
    map
      (fun kids -> Ppfx_xml.Tree.element ~children:kids "C")
      (oneof
         [ map (fun d -> [ d ]) d_elem; map (fun e -> [ e ]) e_elem; return [] ])
  in
  let b_elem =
    map2
      (fun cs gs -> Ppfx_xml.Tree.element ~children:(cs @ gs) "B")
      (list_size (int_bound 3) c_elem)
      (list_size (int_bound 2) (g_tree 2))
  in
  map2
    (fun x bs ->
      Ppfx_xml.Tree.Element
        { tag = "A"; attrs = [ "x", string_of_int x ]; children = bs })
    (int_bound 5)
    (list_size (int_range 1 3) b_elem)

let random_doc_query_panel =
  [
    "/A/B/C"; "//F"; "//G"; "/A[@x = 3]/B"; "/A/B/C[E/F = 2]"; "//G//G";
    "//F/ancestor::B"; "//C[not(D)]"; "/A/B/*"; "//G[parent::G]";
    "//C/preceding-sibling::C"; "/A/B[C/E/F = C/E/F]"; "//E[count(F) = 2]";
    "//B[.//F]"; "//D/following::F";
  ]

let prop_random_documents =
  QCheck.Test.make ~count:150 ~name:"translated SQL agrees with eval on random documents"
    (QCheck.make
       ~print:(fun tree -> Ppfx_xml.Printer.to_string tree)
       gen_fig1_doc)
    (fun tree ->
      let doc = Doc.of_tree tree in
      let instance = Loader.shred (Fig1.schema ()) doc in
      let translator = Translate.create instance.Loader.mapping in
      List.for_all
        (fun query ->
          let expr = Xparser.parse query in
          let expected = Eval.select_elements doc expr in
          let got =
            match Translate.translate translator expr with
            | None -> []
            | Some stmt -> Translate.result_ids (Engine.run instance.Loader.db stmt)
          in
          if got <> expected then
            QCheck.Test.fail_reportf "query %s on %s: expected [%s], got [%s]" query
              (Ppfx_xml.Printer.to_string tree)
              (String.concat ";" (List.map string_of_int expected))
              (String.concat ";" (List.map string_of_int got))
          else true)
        random_doc_query_panel)

(* ------------------------------------------------------------------ *)
(* The Section 4.5 decision memo                                        *)
(* ------------------------------------------------------------------ *)

(* A translator memoises its path-filter decisions; the memo must never
   show in the SQL. Over the XMark and DBLP corpora plus random queries
   on each schema's vocabulary, a translator warmed on everything, and
   one whose memo has been pushed past its bound (so it was cleared and
   refilled), emit exactly what a fresh translator emits. *)
module Xmark = Ppfx_workloads.Xmark
module Dblp = Ppfx_workloads.Dblp

let memo_schemas =
  lazy
    [
      ( "xmark",
        Xmark.schema (),
        List.map snd (Xmark.queries @ Xmark.extension_queries) );
      ( "dblp",
        Dblp.schema_of (Doc.of_tree (Dblp.generate ~entries:60 ())),
        List.map snd Dblp.queries );
    ]

let render translator query =
  match Translate.translate translator (Xparser.parse query) with
  | Some stmt -> Sql.to_string stmt
  | None -> "<empty>"
  | exception Translate.Unsupported m -> "<unsupported: " ^ m ^ ">"

(* Variants of each definition's root paths, every intermediate step
   kept, replaced by [*] or dropped (leaving a [//]): each is a distinct
   regex on the definition, so enough of them fill any memo. Translates
   until the memo has been cleared once; [false] if it never was. *)
let push_past_bound translator schema =
  (* [None] drops a step; a run of drops renders as one [//]. *)
  let rec variants = function
    | [] -> Seq.return []
    | step :: rest ->
      Seq.flat_map
        (fun choice -> Seq.map (fun tail -> choice :: tail) (variants rest))
        (List.to_seq [ Some step; Some "*"; None ])
  in
  let render_steps steps last =
    let buf = Buffer.create 64 and sep = ref "/" in
    List.iter
      (function
        | None -> sep := "//"
        | Some s ->
          Buffer.add_string buf (!sep ^ s);
          sep := "/")
      steps;
    Buffer.add_string buf (!sep ^ last);
    Buffer.contents buf
  in
  let queries =
    Seq.flat_map
      (fun d ->
        match Graph.root_paths schema d with
        | None -> Seq.empty
        | Some ps ->
          Seq.flat_map
            (fun p ->
              match List.rev (List.filter (( <> ) "") (String.split_on_char '/' p)) with
              | last :: above ->
                Seq.map (fun v -> render_steps v last) (variants (List.rev above))
              | [] -> Seq.empty)
            (List.to_seq ps))
      (List.to_seq (Graph.defs schema))
  in
  Seq.exists
    (fun q ->
      let before = Translate.memo_length translator in
      ignore (render translator q);
      Translate.memo_length translator < before)
    queries

let gen_vocab_query names =
  let open QCheck.Gen in
  let name = oneofl names in
  let test = oneof [ name; return "*" ] in
  let step =
    oneof
      [
        map (fun t -> "/" ^ t) test;
        map (fun t -> "//" ^ t) test;
        map (fun t -> "/parent::" ^ t) test;
        map (fun t -> "/ancestor::" ^ t) test;
      ]
  in
  let predicate =
    oneof
      [
        return "";
        map (fun n -> "[" ^ n ^ "]") name;
        map (fun n -> "[.//" ^ n ^ "]") name;
        map (fun n -> "[ancestor::" ^ n ^ "]") name;
        return "[@id]";
      ]
  in
  map2
    (fun first rest ->
      "//" ^ first ^ String.concat "" (List.map (fun (s, p) -> s ^ p) rest))
    name
    (list_size (int_range 0 3) (pair step predicate))

(* Per schema: its mapping, corpus, vocabulary, a warmed translator and
   one pushed past the memo bound (XMark only: DBLP's flat schema has
   too few distinct regexes to fill it). *)
let memo_translators =
  lazy
    (List.map
       (fun (name, schema, corpus) ->
         let mapping = Mapping.of_schema schema in
         let warm = Translate.create mapping and wrapped = Translate.create mapping in
         List.iter (fun q -> ignore (render warm q)) corpus;
         if name = "xmark" && not (push_past_bound wrapped schema) then
           failwith "xmark: the memo never passed its bound";
         List.iter (fun q -> ignore (render wrapped q)) corpus;
         let names =
           List.sort_uniq compare (List.map (fun d -> d.Graph.name) (Graph.defs schema))
         in
         name, mapping, corpus, names, warm, wrapped)
       (Lazy.force memo_schemas))

let prop_memo_is_invisible =
  let gen =
    QCheck.Gen.(
      oneofl [ "xmark"; "dblp" ] >>= fun schema ->
      let _, _, corpus, names, _, _ =
        List.find (fun (n, _, _, _, _, _) -> n = schema) (Lazy.force memo_translators)
      in
      map (fun q -> schema, q) (oneof [ oneofl corpus; gen_vocab_query names ]))
  in
  QCheck.Test.make ~count:400 ~name:"memoised decisions leave the SQL byte-identical"
    (QCheck.make ~print:(fun (schema, q) -> schema ^ ": " ^ q) gen)
    (fun (schema, query) ->
      let _, mapping, _, _, warm, wrapped =
        List.find (fun (n, _, _, _, _, _) -> n = schema) (Lazy.force memo_translators)
      in
      match Xparser.parse query with
      | exception Xparser.Error _ -> QCheck.assume_fail ()
      | _ ->
        let fresh = render (Translate.create mapping) query in
        let w = render warm query and r = render wrapped query in
        Translate.memo_length wrapped <= Translate.memo_capacity
        && (String.equal fresh w
           || QCheck.Test.fail_reportf "warm translator differs on %s:\n%s\n%s" query fresh w)
        && (String.equal fresh r
           || QCheck.Test.fail_reportf "refilled translator differs on %s:\n%s\n%s" query fresh r))

let () =
  let tc (name, f) = Alcotest.test_case name `Quick f in
  Alcotest.run "translate"
    [
      "regex-generation", List.map tc regex_gen_tests;
      ( "differential",
        List.map (fun q -> Alcotest.test_case q `Quick (fig1_query q)) Fig1.queries );
      "ablations", List.map tc ablation_tests;
      "golden", List.map tc golden_tests;
      "unsupported", List.map tc unsupported_tests;
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_translator_vs_eval; prop_random_documents ] );
      ( "decision memo",
        [ QCheck_alcotest.to_alcotest prop_memo_is_invisible ] );
    ]
