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

let columns_of_def t (def : Graph.def) =
  let parents = Graph.parents t.schema def in
  let fk_cols =
    List.map
      (fun p -> { Table.name = p.Graph.relation ^ "_id"; ty = Value.Tint })
      parents
  in
  let doc_col =
    if def.Graph.id = (Graph.root t.schema).Graph.id then
      [ { Table.name = "doc_id"; ty = Value.Tint } ]
    else []
  in
  let attr_cols =
    List.map (fun a -> { Table.name = attr_column a; ty = Value.Tstr }) def.Graph.attrs
  in
  [ { Table.name = "id"; ty = Value.Tint } ]
  @ doc_col @ fk_cols
  @ [
      { Table.name = "dewey_pos"; ty = Value.Tbin };
      { Table.name = "path_id"; ty = Value.Tint };
      { Table.name = text_column; ty = Value.Tstr };
      { Table.name = "dtext"; ty = Value.Tstr };
      { Table.name = "ord"; ty = Value.Tint };
      { Table.name = "sibs"; ty = Value.Tint };
    ]
  @ attr_cols

let create_tables t db =
  let paths =
    Database.create_table db ~name:paths_table
      ~columns:
        [
          { Table.name = "id"; ty = Value.Tint };
          { Table.name = "path"; ty = Value.Tstr };
        ]
  in
  Table.create_index paths [ "id" ];
  Table.create_index paths [ "path" ];
  List.iter
    (fun def ->
      let table =
        Database.create_table db ~name:(relation t def)
          ~partition:{ Table.part_col = "path_id"; part_sort = "dewey_pos" }
          ~columns:(columns_of_def t def)
      in
      Table.create_index table [ "id" ];
      List.iter
        (fun p -> Table.create_index table [ p.Graph.relation ^ "_id" ])
        (Graph.parents t.schema def);
      Table.create_index table [ "dewey_pos"; "path_id" ])
    (Graph.defs t.schema)
