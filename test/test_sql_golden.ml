(* SQL golden: the exact statement every corpus query translates to, on
   the schema-aware mapping under the default options and each
   single-option ablation, and on the Edge mapping. Dune diffs the output
   against test_sql_golden.expected; after an intended translation change,
   review the diff and accept it with [dune promote]. *)

module Doc = Ppfx_xml.Doc
module Xml_parser = Ppfx_xml.Parser
module Xparser = Ppfx_xpath.Parser
module Mapping = Ppfx_shred.Mapping
module Translate = Ppfx_translate.Translate
module Sql = Ppfx_minidb.Sql
module Xmark = Ppfx_workloads.Xmark
module Dblp = Ppfx_workloads.Dblp

let fig1_queries =
  Fig1.queries @ List.filter (fun q -> not (List.mem q Fig1.queries)) Fig1.edge_queries

let xmark_queries = List.map snd (Xmark.queries @ Xmark.extension_queries)

let dblp_queries = List.map snd Dblp.queries

(* Each schema with the queries written against it. *)
let schemas =
  [
    "fig1", Fig1.schema (), fig1_queries;
    "xmark", Xmark.schema (), xmark_queries;
    "dblp", Dblp.schema_of (Doc.of_tree (Dblp.generate ~entries:60 ())), dblp_queries;
  ]

let option_sets =
  let d = Translate.default_options in
  [
    d;
    { d with omit_path_filters = false };
    { d with merge_forward = false };
    { d with fk_child_joins = false };
    { d with force_per_step = true };
  ]

let render translate query =
  match translate (Xparser.parse query) with
  | Some stmt -> Sql.to_string stmt
  | None -> "<empty>"
  | exception Translate.Unsupported _ -> "<unsupported>"

let section title translate queries =
  Printf.printf "== %s\n" title;
  List.iter (fun q -> Printf.printf "-- %s\n%s\n" q (render translate q)) queries

let () =
  List.iter
    (fun (name, schema, queries) ->
      let mapping = Mapping.of_schema schema in
      List.iter
        (fun options ->
          let t = Translate.create ~options mapping in
          section
            (Printf.sprintf "schema %s %s fingerprint %s" name
               (Translate.options_fingerprint options)
               (Translate.fingerprint t))
            (Translate.translate t) queries)
        option_sets)
    schemas;
  section "edge" (Translate.translate Translate.edge) (fig1_queries @ xmark_queries @ dblp_queries)
