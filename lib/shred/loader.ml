module Graph = Ppfx_schema.Graph
module Doc = Ppfx_xml.Doc
module Dewey = Ppfx_dewey.Dewey
module Ordpath = Ppfx_dewey.Ordpath
module Table = Ppfx_minidb.Table
module Database = Ppfx_minidb.Database
module Value = Ppfx_minidb.Value

type t = {
  mapping : Mapping.t;
  db : Database.t;
  docs : Doc.t list;
}

exception Rejected of string

let reject fmt = Format.kasprintf (fun m -> raise (Rejected m)) fmt

let create mapping =
  let db = Database.create () in
  Mapping.create_tables mapping db;
  { mapping; db; docs = [] }

(* Path ids are 1-based row positions in the Paths table plus one lookup
   structure kept implicit: we re-find through the table's [path] index. *)
let path_id t path =
  let paths = Database.table t.db Mapping.paths_table in
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
    let paths = Database.table t.db Mapping.paths_table in
    let id = Table.row_count paths + 1 in
    ignore (Table.insert paths [| Value.Int id; Value.Str path |]);
    id

(* The stored label of an element: the ORDPATH encoding of the document
   id followed by the element's Dewey vector, every component mapped to
   its odd form [2c - 1]. Odd-mapping preserves per-component order, so
   byte comparison still equals document order, and the write path
   ({!Ppfx_update}) can later caret new labels between existing ones
   ([Ordpath.insert_between]) without relabeling any stored row. *)
let label ~doc_id dewey =
  Ordpath.to_raw
    (Ordpath.of_components
       (List.map (fun c -> (2 * c) - 1) (doc_id :: Dewey.to_components dewey)))

(* Every element's 1-based position among its same-tag siblings
   (document order) and their count: one pass over each parent's
   children, not one per child. *)
let sibling_ranks doc =
  let ords = Array.make (Doc.size doc + 1) 1 and counts = Array.make (Doc.size doc + 1) 1 in
  let groups = Hashtbl.create 16 in
  Doc.iter
    (fun p ->
      Hashtbl.clear groups;
      List.iter
        (fun s ->
          let tag = (Doc.element doc s).Doc.tag in
          Hashtbl.replace groups tag
            (s :: Option.value ~default:[] (Hashtbl.find_opt groups tag)))
        p.Doc.children;
      Hashtbl.iter
        (fun _ ids ->
          let ids = List.sort Int.compare ids in
          let n = List.length ids in
          List.iteri
            (fun i s ->
              ords.(s) <- i + 1;
              counts.(s) <- n)
            ids)
        groups)
    doc;
  ords, counts

let load ?keep t doc =
  let keep = match keep with None -> fun _ -> true | Some f -> f in
  let ords, sibling_counts = sibling_ranks doc in
  let schema = Mapping.schema t.mapping in
  let doc_id = List.length t.docs + 1 in
  (* Global ids: offset this document's preorder ids past all previously
     loaded elements; global label: prefix the doc_id component. *)
  let offset = List.fold_left (fun acc d -> acc + Doc.size d) 0 t.docs in
  let global i = if i = 0 then 0 else i + offset in
  (* Assign schema vertices top-down. *)
  let assignment = Array.make (Doc.size doc + 1) (-1) in
  let def_by_id = Hashtbl.create 16 in
  List.iter (fun d -> Hashtbl.replace def_by_id d.Graph.id d) (Graph.defs schema);
  let vertex_of id = Hashtbl.find def_by_id id in
  let assign (e : Doc.element) =
    let def =
      if e.Doc.parent = 0 then begin
        let root = Graph.root schema in
        if String.equal root.Graph.name e.Doc.tag then Some root else None
      end
      else
        let parent_def = vertex_of assignment.(e.Doc.parent) in
        List.find_opt
          (fun c -> String.equal c.Graph.name e.Doc.tag)
          (Graph.children schema parent_def)
    in
    match def with
    | None -> reject "element %s at %s does not match the schema" e.Doc.tag e.Doc.path
    | Some def ->
      assignment.(e.Doc.id) <- def.Graph.id;
      def
  in
  (* Insert in document order so parents precede children. Elements are
     always assigned to schema vertices and their paths always interned —
     even when [keep] drops the row — so every partition of one document
     builds the identical [Paths] relation and rejects the same
     non-conforming documents as a full load. *)
  Doc.iter
    (fun e ->
      let def = assign e in
      let pid = intern_path t e.Doc.path in
      if keep e then begin
      let table = Database.table t.db (Mapping.relation t.mapping def) in
      let parents = Graph.parents schema def in
      let fk_values =
        List.map
          (fun p ->
            if e.Doc.parent <> 0 && assignment.(e.Doc.parent) = p.Graph.id then
              Value.Int (global e.Doc.parent)
            else Value.Null)
          parents
      in
      let doc_col = if e.Doc.parent = 0 then [ Value.Int doc_id ] else [] in
      let attr_values =
        List.map
          (fun a ->
            match List.assoc_opt a e.Doc.attrs with
            | Some v -> Value.Str v
            | None -> Value.Null)
          def.Graph.attrs
      in
      let ord = ords.(e.Doc.id) and sibs = sibling_counts.(e.Doc.id) in
      let row =
        Array.of_list
          ([ Value.Int (global e.Doc.id) ]
          @ doc_col @ fk_values
          @ [
              Value.Bin (label ~doc_id e.Doc.dewey);
              Value.Int pid;
              Value.Str e.Doc.string_value;
              Value.Str e.Doc.text;
              Value.Int ord;
              Value.Int sibs;
            ]
          @ attr_values)
      in
      ignore (Table.insert table row)
      end)
    doc;
  { t with docs = t.docs @ [ doc ] }

let shred schema doc = load (create (Mapping.of_schema schema)) doc

let locate t global_id =
  if global_id < 1 then invalid_arg "Loader.locate: id out of range";
  let rec go idx offset = function
    | [] -> invalid_arg "Loader.locate: id out of range"
    | doc :: rest ->
      let n = Doc.size doc in
      if global_id <= offset + n then idx, global_id - offset
      else go (idx + 1) (offset + n) rest
  in
  go 0 0 t.docs

let def_of_element t ~doc id =
  let schema = Mapping.schema t.mapping in
  let e = Doc.element doc id in
  (* Recompute the assignment by walking the path from the root. *)
  let segments =
    match String.split_on_char '/' e.Doc.path with
    | "" :: rest -> rest
    | rest -> rest
  in
  let rec walk def = function
    | [] -> def
    | seg :: rest ->
      (match
         List.find_opt (fun c -> String.equal c.Graph.name seg) (Graph.children schema def)
       with
       | Some c -> walk c rest
       | None -> raise Not_found)
  in
  match segments with
  | root_seg :: rest when String.equal root_seg (Graph.root schema).Graph.name ->
    walk (Graph.root schema) rest
  | _ -> raise Not_found
