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
  doc_count : int;
  next_id : int;
}

exception Rejected of string

let reject fmt = Format.kasprintf (fun m -> raise (Rejected m)) fmt

let create mapping =
  let db = Database.create () in
  Mapping.create_tables mapping db;
  { mapping; db; doc_count = 0; next_id = 1 }

(* A path's id is found through the Paths table's [path] index. *)
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

(* A fresh path takes the id after the largest one in Paths, not after
   the row count: the write path deletes the rows of dead paths, and a
   snapshot drops them. *)
let intern_path t ~next path =
  match path_id t path with
  | Some id -> id
  | None ->
    let paths = Database.table t.db Mapping.paths_table in
    let id = !next in
    next := id + 1;
    ignore (Table.insert paths [| Value.Int id; Value.Str path |]);
    id

let next_path_id t =
  let top = ref 0 in
  Table.iter_rows
    (fun _ row -> match row.(0) with Value.Int id -> top := max !top id | _ -> ())
    (Database.table t.db Mapping.paths_table);
  !top + 1

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
  let doc_id = t.doc_count + 1 in
  (* Global ids: number this document's elements from [next_id], past
     every id handed out before; global label: prefix the doc_id
     component. *)
  let offset = t.next_id - 1 in
  let global i = if i = 0 then 0 else i + offset in
  (* Assign schema vertices top-down. *)
  let root = Graph.root schema in
  let assignment = Array.make (Doc.size doc + 1) root in
  let assign (e : Doc.element) =
    let def =
      if e.Doc.parent = 0 then
        if String.equal root.Graph.name e.Doc.tag then Some root else None
      else
        List.find_opt
          (fun c -> String.equal c.Graph.name e.Doc.tag)
          (Graph.children schema assignment.(e.Doc.parent))
    in
    match def with
    | None -> reject "element %s at %s does not match the schema" e.Doc.tag e.Doc.path
    | Some def -> assignment.(e.Doc.id) <- def
  in
  (* Assign every element — kept or not — before the first write: every
     partition of a document rejects what a full load rejects, and a
     rejected document leaves no row and no path behind. *)
  Doc.iter assign doc;
  let next_path = ref (next_path_id t) in
  (* Insert in document order so parents precede children. Paths are
     always interned — even when [keep] drops the row — so every
     partition of one document builds the identical [Paths] relation. *)
  Doc.iter
    (fun e ->
      let pid = intern_path t ~next:next_path e.Doc.path in
      if keep e then begin
        let def = assignment.(e.Doc.id) in
        let parent =
          if e.Doc.parent = 0 then None
          else Some (assignment.(e.Doc.parent), global e.Doc.parent)
        in
        let row =
          Mapping.row t.mapping def ~id:(global e.Doc.id) ~doc_id ~parent
            ~label:(label ~doc_id e.Doc.dewey) ~path_id:pid ~text:e.Doc.string_value
            ~dtext:e.Doc.text ~ord:ords.(e.Doc.id) ~sibs:sibling_counts.(e.Doc.id)
            ~attr:(fun a -> List.assoc_opt a e.Doc.attrs)
        in
        ignore (Table.insert (Database.table t.db (Mapping.relation t.mapping def)) row)
      end)
    doc;
  { t with doc_count = doc_id; next_id = t.next_id + Doc.size doc }

let shred schema doc = load (create (Mapping.of_schema schema)) doc

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
