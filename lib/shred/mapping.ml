module Graph = Ppfx_schema.Graph
module Table = Ppfx_minidb.Table
module Database = Ppfx_minidb.Database
module Value = Ppfx_minidb.Value

type t = { schema : Graph.t }

let of_schema schema = { schema }

let schema t = t.schema

let paths_table = "paths"

let relation _t (def : Graph.def) = def.Graph.relation

let parent_fk t ~child ~parent =
  if not (List.exists (fun p -> p.Graph.id = parent.Graph.id) (Graph.parents t.schema child))
  then
    invalid_arg
      (Printf.sprintf "Mapping.parent_fk: %s is not a parent of %s" parent.Graph.name
         child.Graph.name);
  parent.Graph.relation ^ "_id"

let attr_column name = "attr_" ^ name

(* Every relation carries a text column: the element's string value.
   Mixed-content and nested values then compare identically in SQL and in
   the reference evaluator. *)
let text_column = "text"

let dtext_column = "dtext"

(* The fact-row layout, written down once: [id]; [doc_id] on the root
   relation; one foreign key per parent relation; the six descriptor
   columns, [dewey_pos] first; one column per declared attribute.
   [columns_of_def] names these positions and [row] fills them. *)
let is_root t (def : Graph.def) = def.Graph.id = (Graph.root t.schema).Graph.id

let label_pos t def =
  1 + (if is_root t def then 1 else 0) + List.length (Graph.parents t.schema def)

let columns_of_def t (def : Graph.def) =
  let parents = Graph.parents t.schema def in
  let fk_cols =
    List.map
      (fun p -> { Table.name = p.Graph.relation ^ "_id"; ty = Value.Tint })
      parents
  in
  let doc_col = if is_root t def then [ { Table.name = "doc_id"; ty = Value.Tint } ] else [] in
  let attr_cols =
    List.map (fun a -> { Table.name = attr_column a; ty = Value.Tstr }) def.Graph.attrs
  in
  [ { Table.name = "id"; ty = Value.Tint } ]
  @ doc_col @ fk_cols
  @ [
      { Table.name = "dewey_pos"; ty = Value.Tbin };
      { Table.name = "path_id"; ty = Value.Tint };
      { Table.name = text_column; ty = Value.Tstr };
      { Table.name = dtext_column; ty = Value.Tstr };
      { Table.name = "ord"; ty = Value.Tint };
      { Table.name = "sibs"; ty = Value.Tint };
    ]
  @ attr_cols

let row t (def : Graph.def) ~id ~doc_id ~parent ~label ~path_id ~text ~dtext ~ord ~sibs
    ~attr =
  let parents = Graph.parents t.schema def in
  let l = label_pos t def in
  let r = Array.make (l + 6 + List.length def.Graph.attrs) Value.Null in
  r.(0) <- Value.Int id;
  (match parent with
   | None -> if is_root t def then r.(1) <- Value.Int doc_id
   | Some ((pdef : Graph.def), pid) ->
     List.iteri
       (fun i (p : Graph.def) ->
         if p.Graph.id = pdef.Graph.id then r.(l - List.length parents + i) <- Value.Int pid)
       parents);
  r.(l) <- Value.Bin label;
  r.(l + 1) <- Value.Int path_id;
  r.(l + 2) <- Value.Str text;
  r.(l + 3) <- Value.Str dtext;
  r.(l + 4) <- Value.Int ord;
  r.(l + 5) <- Value.Int sibs;
  List.iteri
    (fun i a -> match attr a with Some v -> r.(l + 6 + i) <- Value.Str v | None -> ())
    def.Graph.attrs;
  r

let create_tables t db =
  let paths =
    Database.create_table db ~name:paths_table
      ~columns:
        [
          { Table.name = "id"; ty = Value.Tint };
          { Table.name = "path"; ty = Value.Tstr };
        ]
  in
  Table.create_key paths "id";
  Table.create_index paths [ "path" ];
  List.iter
    (fun def ->
      let table =
        Database.create_table db ~name:(relation t def)
          ~partition:{ Table.part_col = "path_id"; part_sort = "dewey_pos" }
          ~columns:(columns_of_def t def)
      in
      Table.create_key table "id";
      List.iter
        (fun p -> Table.create_index table [ p.Graph.relation ^ "_id" ])
        (Graph.parents t.schema def);
      Table.create_index table [ "dewey_pos"; "path_id" ])
    (Graph.defs t.schema)
