(* Tests for the shredders: the schema-aware mapping of paper Section 3
   (relations, descriptor columns, parent foreign keys, the Paths
   relation, the Section 3.1 indexes) and the Edge mapping of Section
   5.1. *)

module Graph = Ppfx_schema.Graph
module Mapping = Ppfx_shred.Mapping
module Loader = Ppfx_shred.Loader
module Edge = Ppfx_shred.Edge
module Doc = Ppfx_xml.Doc
module Table = Ppfx_minidb.Table
module Database = Ppfx_minidb.Database
module Value = Ppfx_minidb.Value
module Dewey = Ppfx_dewey.Dewey
module Ordpath = Ppfx_dewey.Ordpath

let fig1_schema () =
  let b = Graph.Builder.create () in
  let a = Graph.Builder.define b ~attrs:[ "x" ] "A" in
  let bb = Graph.Builder.define b "B" in
  let c = Graph.Builder.define b "C" in
  let d = Graph.Builder.define b ~text:true "D" in
  let e = Graph.Builder.define b "E" in
  let f = Graph.Builder.define b ~text:true "F" in
  let g = Graph.Builder.define b "G" in
  Graph.Builder.add_child b ~parent:a bb;
  Graph.Builder.add_child b ~parent:bb c;
  Graph.Builder.add_child b ~parent:bb g;
  Graph.Builder.add_child b ~parent:c d;
  Graph.Builder.add_child b ~parent:c e;
  Graph.Builder.add_child b ~parent:e f;
  Graph.Builder.add_child b ~parent:g g;
  Graph.Builder.finish b ~root:a

let fig1_doc () =
  Doc.of_tree
    (Ppfx_xml.Parser.parse
       "<A x=\"3\"><B><C><D>d1</D></C><C><E><F>1</F><F>2</F></E></C><G/></B><B><G><G/></G></B></A>")

let find1 schema name =
  match Graph.find schema name with
  | [ d ] -> d
  | _ -> Alcotest.failf "expected one def for %s" name

let mapping_tests =
  [
    ( "descriptor columns per paper section 3",
      fun () ->
        let schema = fig1_schema () in
        let mapping = Mapping.of_schema schema in
        let cols =
          List.map (fun (c : Table.column) -> c.Table.name)
            (Mapping.columns_of_def mapping (find1 schema "G"))
        in
        (* G has two possible parents (B and the recursive G itself). *)
        Alcotest.(check (list string)) "G columns"
          [ "id"; "B_id"; "G_id"; "dewey_pos"; "path_id"; "text"; "dtext"; "ord"; "sibs" ]
          cols;
        let a_cols =
          List.map (fun (c : Table.column) -> c.Table.name)
            (Mapping.columns_of_def mapping (find1 schema "A"))
        in
        (* The root relation gets doc_id; attributes get the attr_ prefix. *)
        Alcotest.(check bool) "doc_id" true (List.mem "doc_id" a_cols);
        Alcotest.(check bool) "attr_x" true (List.mem "attr_x" a_cols) );
    ( "section 3.1 indexes exist",
      fun () ->
        let store = Loader.shred (fig1_schema ()) (fig1_doc ()) in
        let g = Database.table store.Loader.db "G" in
        let index_cols = List.map fst (Table.indexes g) in
        Alcotest.(check bool) "id" true (List.mem [ "id" ] index_cols);
        Alcotest.(check bool) "B fk" true (List.mem [ "B_id" ] index_cols);
        Alcotest.(check bool) "G fk" true (List.mem [ "G_id" ] index_cols);
        Alcotest.(check bool) "composite dewey+path" true
          (List.mem [ "dewey_pos"; "path_id" ] index_cols) );
    ( "paths relation interns each path once",
      fun () ->
        let store = Loader.shred (fig1_schema ()) (fig1_doc ()) in
        let paths = Database.table store.Loader.db "paths" in
        Alcotest.(check int) "8 distinct paths" 8 (Table.row_count paths);
        Alcotest.(check bool) "lookup" true (Loader.path_id store "/A/B/C/D" <> None);
        Alcotest.(check bool) "missing" true (Loader.path_id store "/A/Z" = None) );
    ( "rows carry correct descriptors",
      fun () ->
        let store = Loader.shred (fig1_schema ()) (fig1_doc ()) in
        let f = Database.table store.Loader.db "F" in
        Alcotest.(check int) "two F rows" 2 (Table.row_count f);
        let row = Table.row f 0 in
        (match row.(0), row.(2), row.(4) with
         | Value.Int 7, Value.Bin label, Value.Str "1" ->
           (* Stored labels are ORDPATH: the doc_id component followed by
              the Dewey vector, each component odd-mapped to [2c - 1] so
              the write path can caret inserts between them. Dewey
              1.1.2.1.1 in document 1 therefore stores as 1.1.1.3.1.1. *)
           Alcotest.(check string) "label of first F" "1.1.1.3.1.1"
             (Ordpath.to_dotted (Ordpath.of_raw label));
           Alcotest.(check string) "loader label helper" label
             (Loader.label ~doc_id:1 (Dewey.of_components [ 1; 1; 2; 1; 1 ]))
         | _ -> Alcotest.fail "unexpected F row shape") );
    ( "parent foreign keys point at the right relation",
      fun () ->
        let store = Loader.shred (fig1_schema ()) (fig1_doc ()) in
        let g = Database.table store.Loader.db "G" in
        (* G id 12 is nested under G id 11; G id 9 and 11 under B. *)
        let fk_pairs = ref [] in
        Table.iter_rows
          (fun _ row ->
            match row.(0), row.(1), row.(2) with
            | Value.Int id, b_fk, g_fk -> fk_pairs := (id, b_fk, g_fk) :: !fk_pairs
            | _ -> ())
          g;
        let sorted = List.sort compare !fk_pairs in
        Alcotest.(check bool) "fk shape" true
          (sorted
          = [
              9, Value.Int 2, Value.Null;
              11, Value.Int 10, Value.Null;
              12, Value.Null, Value.Int 11;
            ]) );
    ( "non-conforming documents are rejected",
      fun () ->
        let schema = fig1_schema () in
        let bad = Doc.of_tree (Ppfx_xml.Parser.parse "<A><D/></A>") in
        (match Loader.shred schema bad with
         | _ -> Alcotest.fail "expected Rejected"
         | exception Loader.Rejected _ -> ());
        let wrong_root = Doc.of_tree (Ppfx_xml.Parser.parse "<Z/>") in
        match Loader.shred schema wrong_root with
        | _ -> Alcotest.fail "expected Rejected"
        | exception Loader.Rejected _ -> () );
    ( "def_of_element recovers the schema vertex",
      fun () ->
        let schema = fig1_schema () in
        let doc = fig1_doc () in
        let store = Loader.shred schema doc in
        let def = Loader.def_of_element store ~doc 7 in
        Alcotest.(check string) "F" "F" def.Graph.name );
    ( "multiple documents share the paths relation",
      fun () ->
        let schema = fig1_schema () in
        let store = Loader.create (Mapping.of_schema schema) in
        let doc1 = Doc.of_tree (Ppfx_xml.Parser.parse "<A><B><C><D/></C></B></A>") in
        let doc2 = Doc.of_tree (Ppfx_xml.Parser.parse "<A><B><C><D/><E><F/></E></C></B></A>") in
        let store = Loader.load store doc1 in
        let n_after_one = Table.row_count (Database.table store.Loader.db "paths") in
        let store = Loader.load store doc2 in
        let n_after_two = Table.row_count (Database.table store.Loader.db "paths") in
        Alcotest.(check int) "doc1 paths" 4 n_after_one;
        (* doc2 adds only the two new paths (E and F). *)
        Alcotest.(check int) "incremental interning" 6 n_after_two;
        Alcotest.(check int) "two docs loaded" 2 store.Loader.doc_count );
    ( "the store keeps no copy of a shredded document",
      fun () ->
        let slot = Weak.create 1 in
        let[@inline never] shred () =
          let doc = fig1_doc () in
          Weak.set slot 0 (Some doc);
          Loader.shred (fig1_schema ()) doc
        in
        let store = shred () in
        Gc.full_major ();
        Alcotest.(check bool) "document collected" false (Weak.check slot 0);
        Alcotest.(check int) "one document loaded" 1 store.Loader.doc_count );
  ]

let edge_tests =
  [
    ( "central relation holds every element",
      fun () ->
        let doc = fig1_doc () in
        let store = Edge.shred doc in
        let edge = Database.table store.Edge.db "edge" in
        Alcotest.(check int) "12 elements" 12 (Table.row_count edge) );
    ( "attributes live in the separate attr relation (footnote 3)",
      fun () ->
        let doc = fig1_doc () in
        let store = Edge.shred doc in
        let attr = Database.table store.Edge.db "attr" in
        Alcotest.(check int) "one attribute" 1 (Table.row_count attr);
        match Table.row attr 0 with
        | [| Value.Int 1; Value.Str "x"; Value.Str "3" |] -> ()
        | _ -> Alcotest.fail "unexpected attr row" );
    ( "edge rows carry tag, parent and dewey",
      fun () ->
        let doc = fig1_doc () in
        let store = Edge.shred doc in
        let edge = Database.table store.Edge.db "edge" in
        (match Table.row edge 0 with
         | [| Value.Int 1; Value.Null; Value.Str "A"; Value.Bin _; Value.Int _; _; _; _; _ |] ->
           ()
         | _ -> Alcotest.fail "root row shape");
        match Table.row edge 3 with
        | [| Value.Int 4; Value.Int 3; Value.Str "D"; Value.Bin d; Value.Int _; _; _;
             Value.Int 1; Value.Int 1 |] ->
          (* doc_id component prefix, then the local position *)
          Alcotest.(check string) "dewey" "1.1.1.1.1"
            (Dewey.to_dotted (Dewey.of_string_exn d))
        | _ -> Alcotest.fail "D row shape" );
    ( "edge paths relation matches the document's distinct paths",
      fun () ->
        let doc = fig1_doc () in
        let store = Edge.shred doc in
        let paths = Database.table store.Edge.db "paths" in
        Alcotest.(check int) "count" (List.length (Doc.distinct_paths doc))
          (Table.row_count paths) );
  ]

(* Property: shredding then reading back through SQL reconstructs every
   element's descriptors for random small documents. *)
let gen_doc =
  let open QCheck.Gen in
  let tag = oneofl [ "a"; "b"; "c" ] in
  let rec gen n =
    map2
      (fun t children -> Ppfx_xml.Tree.Element { tag = t; attrs = []; children })
      tag
      (if n <= 0 then return [] else list_size (int_bound 3) (gen (n / 2)))
  in
  map (fun t -> Doc.of_tree t) (gen 4)

let prop_edge_complete =
  QCheck.Test.make ~count:200 ~name:"edge shredding preserves ids, parents and paths"
    (QCheck.make ~print:(fun d -> string_of_int (Doc.size d)) gen_doc)
    (fun doc ->
      let store = Edge.shred doc in
      let edge = Database.table store.Edge.db "edge" in
      if Table.row_count edge <> Doc.size doc then false
      else begin
        let ok = ref true in
        Table.iter_rows
          (fun _ row ->
            match row.(0), row.(1) with
            | Value.Int id, parent ->
              let e = Doc.element doc id in
              let expected_parent =
                if e.Doc.parent = 0 then Value.Null else Value.Int e.Doc.parent
              in
              if parent <> expected_parent then ok := false
            | _ -> ok := false)
          edge;
        !ok
      end)

(* The schema-aware shredder's physical layout: every element fact
   table is partitioned by [path_id] with [dewey_pos]-sorted segments,
   the [paths] dimension stays a heap, and a freshly shredded store
   satisfies the partition invariant. *)
let layout_tests =
  [
    ( "shredded fact tables are path-partitioned and dewey-sorted",
      fun () ->
        let st = Loader.shred (fig1_schema ()) (fig1_doc ()) in
        List.iter
          (fun t ->
            if Table.name t = "paths" then
              Alcotest.(check bool) "paths stays a heap" true
                (Table.partition_spec t = None)
            else
              match Table.partition_spec t with
              | Some s ->
                Alcotest.(check string) "partition column" "path_id" s.Table.part_col;
                Alcotest.(check string) "sort column" "dewey_pos" s.Table.part_sort;
                (match Table.check_partitions t with
                 | Ok () -> ()
                 | Error e -> Alcotest.failf "%s: %s" (Table.name t) e)
              | None -> Alcotest.failf "%s: expected partitioned layout" (Table.name t))
          (Database.tables st.Loader.db) );
    ( "every relation of both mappings declares id its key, and enforces it",
      fun () ->
        let st = Loader.shred (fig1_schema ()) (fig1_doc ()) in
        let edge = Edge.shred (fig1_doc ()) in
        List.iter
          (fun t ->
            if Table.name t <> "attr" then begin
              Alcotest.(check (list string)) (Table.name t ^ " keys") [ "id" ] (Table.keys t);
              (* Re-inserting a live row repeats its id. *)
              let row = ref None in
              Table.iter_rows (fun _ r -> if !row = None then row := Some r) t;
              Option.iter
                (fun r ->
                  match Table.insert t (Array.copy r) with
                  | _ -> Alcotest.failf "%s accepted a duplicate id" (Table.name t)
                  | exception Invalid_argument _ -> ())
                !row
            end)
          (Database.tables st.Loader.db @ Database.tables edge.Edge.db) );
  ]

let () =
  let tc (name, f) = Alcotest.test_case name `Quick f in
  Alcotest.run "shred"
    [
      "schema-aware", List.map tc mapping_tests;
      "edge", List.map tc edge_tests;
      "layout", List.map tc layout_tests;
      "properties", [ QCheck_alcotest.to_alcotest prop_edge_complete ];
    ]
