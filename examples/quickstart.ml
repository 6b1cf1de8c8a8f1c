(* Quickstart: the full pipeline on a small library catalogue.

     dune exec examples/quickstart.exe

   1. define an XML Schema graph;
   2. parse and shred a document into the relational store;
   3. translate XPath to SQL with the PPF algorithm and execute it. *)

module Graph = Ppfx_schema.Graph
module Doc = Ppfx_xml.Doc
module Loader = Ppfx_shred.Loader
module Translate = Ppfx_translate.Translate
module Engine = Ppfx_minidb.Engine
module Sql = Ppfx_minidb.Sql
module Value = Ppfx_minidb.Value

(* A catalogue schema: catalogue -> book* -> (title, author+, price);
   books can contain nested notes (recursive). *)
let schema =
  let b = Graph.Builder.create () in
  let catalogue = Graph.Builder.define b "catalogue" in
  let book = Graph.Builder.define b ~attrs:[ "isbn"; "lang" ] "book" in
  let title = Graph.Builder.define b ~text:true "title" in
  let author = Graph.Builder.define b ~text:true "author" in
  let price = Graph.Builder.define b ~text:true "price" in
  let note = Graph.Builder.define b ~text:true "note" in
  Graph.Builder.add_child b ~parent:catalogue book;
  Graph.Builder.add_child b ~parent:book title;
  Graph.Builder.add_child b ~parent:book author;
  Graph.Builder.add_child b ~parent:book price;
  Graph.Builder.add_child b ~parent:book note;
  Graph.Builder.add_child b ~parent:note note;
  Graph.Builder.finish b ~root:catalogue

let document =
  {xml|<catalogue>
  <book isbn="0-201-53082-1" lang="en">
    <title>The Art of Computer Programming</title>
    <author>Donald Knuth</author>
    <price>199</price>
  </book>
  <book isbn="2-07-036822-X" lang="fr">
    <title>Le Petit Prince</title>
    <author>Antoine de Saint-Exupery</author>
    <price>9</price>
    <note>gift edition<note>with illustrations</note></note>
  </book>
  <book isbn="0-19-853453-1" lang="en">
    <title>A Compendium of Partial Differential Equations</title>
    <author>Erwin Kreyszig</author>
    <author>Herbert Kreyszig</author>
    <price>120</price>
  </book>
</catalogue>|xml}

let () =
  (* Parse and index. *)
  let doc = Doc.of_tree (Ppfx_xml.Parser.parse document) in
  Printf.printf "parsed %d elements, %d distinct root-to-node paths\n\n" (Doc.size doc)
    (List.length (Doc.distinct_paths doc));

  (* Shred into the schema-aware relational store. *)
  let store = Loader.shred schema doc in
  Format.printf "relational store:@.%a@." Ppfx_minidb.Database.pp_stats
    store.Loader.db;

  (* Translate and run some XPath. *)
  let translator = Translate.create store.Loader.mapping in
  let run query =
    Printf.printf "XPath: %s\n" query;
    match Translate.translate ~values:true translator (Ppfx_xpath.Parser.parse query) with
    | None -> print_endline "  (provably empty)\n"
    | Some stmt ->
      Printf.printf "SQL:   %s\n" (Sql.to_string stmt);
      let result = Engine.run store.Loader.db stmt in
      List.iter
        (fun row ->
          match row.(0), row.(2) with
          | Value.Int id, value ->
            Printf.printf "  node %d: %s\n" id (Value.to_string value)
          | _ -> ())
        result.Engine.rows;
      print_newline ()
  in
  run "/catalogue/book/title";
  run "/catalogue/book[price > 100]/title";
  run "/catalogue/book[@lang = 'fr']/author";
  run "//note";
  run "/catalogue/book[note]/title";
  (* Out-of-subset constructs raise Unsupported with an explanation. *)
  (match Translate.translate translator (Ppfx_xpath.Parser.parse "//book[2]") with
   | _ -> ()
   | exception Translate.Unsupported msg ->
     Printf.printf "XPath: //book[2]\n  not translatable: %s\n" msg)
