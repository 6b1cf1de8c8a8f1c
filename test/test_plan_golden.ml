(* Plan-and-counter golden: for every XMark (extension queries included)
   and DBLP corpus query, on the schema-aware store and on Edge, at a
   fixed seeded scale with the default options, the EXPLAIN text, each
   step's examined and passed rows, the answer's row count and the
   plan's counter line. Nothing here is timed, so the output is
   deterministic; dune diffs it against test_plan_golden.expected. After
   an intended plan change, review the diff and accept it with
   [dune promote].

   The corpus is rendered twice in one process and the test fails when
   the two renders differ: a plan must not depend on what was planned
   before it. *)

module Doc = Ppfx_xml.Doc
module Xparser = Ppfx_xpath.Parser
module Loader = Ppfx_shred.Loader
module Edge = Ppfx_shred.Edge
module Translate = Ppfx_translate.Translate
module Engine = Ppfx_minidb.Engine
module Xmark = Ppfx_workloads.Xmark
module Dblp = Ppfx_workloads.Dblp

(* One query on one store: explain, then run it once with the profile
   flag set and print what the steps counted. *)
let render_query buf db translate query =
  Printf.bprintf buf "-- %s\n" query;
  match translate (Xparser.parse query) with
  | None -> Buffer.add_string buf "<empty>\n"
  | exception Translate.Unsupported _ -> Buffer.add_string buf "<unsupported>\n"
  | Some stmt ->
    Buffer.add_string buf (Engine.explain db stmt);
    let result, steps, stats = Engine.run_profiled db stmt in
    Printf.bprintf buf "rows %d\n" (List.length result.Engine.rows);
    List.iter
      (fun (sp : Engine.step_profile) ->
        Printf.bprintf buf "  %s(%s): examined %d, passed %d\n" sp.table sp.alias sp.examined
          sp.passed)
      steps;
    Printf.bprintf buf "counters: %s\n" (Engine.stats_to_string stats)

let stores doc schema queries =
  let store = Loader.shred schema doc in
  let edge = Edge.shred doc in
  [
    "schema-aware", store.Loader.db, Translate.translate (Translate.create store.Loader.mapping),
    queries;
    "edge", edge.Edge.db, Translate.translate Translate.edge, queries;
  ]

let corpus () =
  let xmark = Doc.of_tree (Xmark.generate ~items_per_region:3 ()) in
  let dblp = Doc.of_tree (Dblp.generate ~entries:200 ()) in
  List.map (fun (name, db, tr, qs) -> "xmark -s 3 " ^ name, db, tr, qs)
    (stores xmark (Xmark.schema ()) (List.map snd (Xmark.queries @ Xmark.extension_queries)))
  @ List.map (fun (name, db, tr, qs) -> "dblp 200 entries " ^ name, db, tr, qs)
      (stores dblp (Dblp.schema_of dblp) (List.map snd Dblp.queries))

let render sections =
  let buf = Buffer.create 65536 in
  List.iter
    (fun (title, db, translate, queries) ->
      Printf.bprintf buf "== %s\n" title;
      List.iter (render_query buf db translate) queries)
    sections;
  Buffer.contents buf

let () =
  let sections = corpus () in
  let first = render sections in
  let second = render sections in
  if not (String.equal first second) then begin
    prerr_endline "test_plan_golden: two renders of the corpus in one process differ";
    exit 1
  end;
  print_string first
