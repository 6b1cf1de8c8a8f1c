module Doc = Ppfx_xml.Doc
module Dewey = Ppfx_dewey.Dewey
module Table = Ppfx_minidb.Table
module Database = Ppfx_minidb.Database
module Value = Ppfx_minidb.Value

type t = {
  db : Database.t;
  docs : Doc.t list;
}

let edge_table = "edge"
let attr_table = "attr"
let paths_table = "paths"

let create () =
  let db = Database.create () in
  let edge =
    Database.create_table db ~name:edge_table
      ~columns:
        [
          { Table.name = "id"; ty = Value.Tint };
          { Table.name = "par_id"; ty = Value.Tint };
          { Table.name = "tag"; ty = Value.Tstr };
          { Table.name = "dewey_pos"; ty = Value.Tbin };
          { Table.name = "path_id"; ty = Value.Tint };
          { Table.name = "text"; ty = Value.Tstr };
          { Table.name = "dtext"; ty = Value.Tstr };
          { Table.name = "ord"; ty = Value.Tint };
          { Table.name = "sibs"; ty = Value.Tint };
        ]
  in
  Table.create_key edge "id";
  Table.create_index edge [ "par_id" ];
  Table.create_index edge [ "dewey_pos"; "path_id" ];
  Table.create_index edge [ "path_id" ];
  let attr =
    Database.create_table db ~name:attr_table
      ~columns:
        [
          { Table.name = "elem_id"; ty = Value.Tint };
          { Table.name = "name"; ty = Value.Tstr };
          { Table.name = "value"; ty = Value.Tstr };
        ]
  in
  Table.create_index attr [ "elem_id" ];
  Table.create_index attr [ "name" ];
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
  { db; docs = [] }

let path_id t path =
  let paths = Database.table t.db paths_table in
  match Table.index_on paths [ "path" ] with
  | None -> None
  | Some tree ->
    (match Ppfx_minidb.Btree.find_equal tree [| Value.Str path |] with
     | [] -> None
     | row :: _ ->
       (match (Table.row paths row).(0) with
        | Value.Int id -> Some id
        | _ -> None))

let intern_path t path =
  match path_id t path with
  | Some id -> id
  | None ->
    let paths = Database.table t.db paths_table in
    let id = Table.row_count paths + 1 in
    ignore (Table.insert paths [| Value.Int id; Value.Str path |]);
    id

let load t doc =
  let edge = Database.table t.db edge_table in
  let attr = Database.table t.db attr_table in
  (* Globalise ids and Dewey positions exactly like the schema-aware
     loader: offset preorder ids, prefix the doc_id component. *)
  let doc_id = List.length t.docs + 1 in
  let offset = List.fold_left (fun acc d -> acc + Doc.size d) 0 t.docs in
  let global i = i + offset in
  let doc_component =
    let buf = Buffer.create 3 in
    Buffer.add_char buf (Char.chr ((doc_id lsr 16) land 0x7F));
    Buffer.add_char buf (Char.chr ((doc_id lsr 8) land 0xFF));
    Buffer.add_char buf (Char.chr (doc_id land 0xFF));
    Buffer.contents buf
  in
  Doc.iter
    (fun e ->
      let pid = intern_path t e.Doc.path in
      let ord, sibs =
        if e.Doc.parent = 0 then 1, 1
        else begin
          let siblings = (Doc.element doc e.Doc.parent).Doc.children in
          List.fold_left
            (fun (ord, sibs) s ->
              if String.equal (Doc.element doc s).Doc.tag e.Doc.tag then
                (if s < e.Doc.id then ord + 1 else ord), sibs + 1
              else ord, sibs)
            (1, 0) siblings
        end
      in
      ignore
        (Table.insert edge
           [|
             Value.Int (global e.Doc.id);
             (if e.Doc.parent = 0 then Value.Null else Value.Int (global e.Doc.parent));
             Value.Str e.Doc.tag;
             Value.Bin (doc_component ^ Dewey.to_raw e.Doc.dewey);
             Value.Int pid;
             Value.Str e.Doc.string_value;
             Value.Str e.Doc.text;
             Value.Int ord;
             Value.Int sibs;
           |]);
      List.iter
        (fun (name, value) ->
          ignore
            (Table.insert attr
               [| Value.Int (global e.Doc.id); Value.Str name; Value.Str value |]))
        e.Doc.attrs)
    doc;
  { t with docs = t.docs @ [ doc ] }

let shred doc = load (create ()) doc
