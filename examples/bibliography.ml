(* Schema-less data: a DBLP-like bibliography stored through an inferred
   DTD-style schema, exercising recursive mark-up and the paper's QD
   query set.

     dune exec examples/bibliography.exe -- [entries] *)

module Doc = Ppfx_xml.Doc
module Graph = Ppfx_schema.Graph
module Loader = Ppfx_shred.Loader
module Translate = Ppfx_translate.Translate
module Engine = Ppfx_minidb.Engine
module Sql = Ppfx_minidb.Sql
module Value = Ppfx_minidb.Value
module Dblp = Ppfx_workloads.Dblp

let () =
  let entries = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 400 in
  let doc = Doc.of_tree (Dblp.generate ~entries ()) in
  Printf.printf "bibliography with %d elements\n\n" (Doc.size doc);

  (* No schema shipped with the data: infer one from the document. *)
  let schema = Dblp.schema_of doc in
  print_endline "inferred schema vertices and their Section 4.5 marking:";
  List.iter
    (fun def ->
      let marking =
        match Graph.classification schema def with
        | Graph.Unique_path p -> "U-P " ^ p
        | Graph.Finite_paths ps -> Printf.sprintf "F-P (%d paths)" (List.length ps)
        | Graph.Infinite_paths -> "I-P (recursive)"
      in
      Printf.printf "  %-14s %s\n" def.Graph.name marking)
    (Graph.defs schema);
  print_newline ();

  let store = Loader.shred schema doc in
  let translator = Translate.create store.Loader.mapping in
  List.iter
    (fun (name, q) ->
      Printf.printf "%s: %s\n" name q;
      match Translate.translate ~values:true translator (Ppfx_xpath.Parser.parse q) with
      | None -> print_endline "  (provably empty)\n"
      | Some stmt ->
        Printf.printf "  SQL: %s\n" (Sql.to_string stmt);
        let result = Engine.run store.Loader.db stmt in
        Printf.printf "  %d result nodes" (List.length result.Engine.rows);
        (match result.Engine.rows with
         | row :: _ ->
           (match row.(2) with
            | Value.Str s when String.length s > 0 ->
              Printf.printf " (first: %s)"
                (if String.length s > 50 then String.sub s 0 50 ^ "..." else s)
            | _ -> ())
         | [] -> ());
        print_newline ();
        print_newline ())
    Dblp.queries
