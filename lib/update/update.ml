module Tree = Ppfx_xml.Tree
module Doc = Ppfx_xml.Doc
module Graph = Ppfx_schema.Graph
module Ordpath = Ppfx_dewey.Ordpath
module Mapping = Ppfx_shred.Mapping
module Loader = Ppfx_shred.Loader
module Database = Ppfx_minidb.Database
module Table = Ppfx_minidb.Table
module Btree = Ppfx_minidb.Btree
module Value = Ppfx_minidb.Value

exception Update_error of string

let error fmt = Format.kasprintf (fun m -> raise (Update_error m)) fmt

(* ------------------------------------------------------------------ *)
(* Shadow forest                                                       *)
(*                                                                     *)
(* The store's tables are flat rows; maintaining them incrementally    *)
(* needs the tree the rows came from — parent/child adjacency, the     *)
(* interleaving of text and element children (lost by the relational   *)
(* [text]/[dtext] columns), and each element's label. The shadow       *)
(* forest is that tree, kept exactly in sync with the committed store: *)
(* every mutation first rewrites the shadow, then derives the row      *)
(* changeset from it.                                                  *)
(* ------------------------------------------------------------------ *)

type node = {
  n_id : int;  (** global element id, never reused *)
  n_doc : int;  (** owning document id *)
  n_def : Graph.def;
  n_label : Ordpath.t;  (** full stored label, document component included *)
  n_path : string;
  n_path_id : int;
  mutable n_attrs : (string * string) list;
  mutable n_items : item list;  (** interleaved text and element children *)
  mutable n_parent : node option;
}

and item = I_text of string | I_node of node

let elem_children n =
  List.filter_map (function I_node c -> Some c | I_text _ -> None) n.n_items

let direct_text n =
  String.concat "" (List.filter_map (function I_text s -> Some s | I_node _ -> None) n.n_items)

let rec string_value n =
  String.concat ""
    (List.map (function I_text s -> s | I_node c -> string_value c) n.n_items)

let tag n = n.n_def.Graph.name

(* 1-based position among same-tag element siblings, and their count. *)
let ord_sibs n =
  match n.n_parent with
  | None -> 1, 1
  | Some p ->
    let same = List.filter (fun c -> String.equal (tag c) (tag n)) (elem_children p) in
    let rec pos i = function
      | [] -> error "shadow corruption: node %d not among its parent's children" n.n_id
      | c :: rest -> if c == n then i else pos (i + 1) rest
    in
    pos 1 same, List.length same

let rec iter_subtree f n =
  f n;
  List.iter (function I_node c -> iter_subtree f c | I_text _ -> ()) n.n_items

type t = {
  mutable store : Loader.t;
  mutable roots : node list;  (** document order *)
  mutable by_id : (int, node) Hashtbl.t;
  mutable path_ids : (string, int) Hashtbl.t;  (** live paths -> pathid *)
  mutable path_refs : (int, int) Hashtbl.t;  (** pathid -> live element count *)
  mutable next_id : int;
  mutable next_path_id : int;
}

let store u = u.store
let db u = u.store.Loader.db
let size u = Hashtbl.length u.by_id

let find u id =
  match Hashtbl.find_opt u.by_id id with
  | Some n -> n
  | None -> error "no element with id %d" id

let node_exists u id = Hashtbl.mem u.by_id id
let node_path u id = (find u id).n_path
let node_path_id u id = (find u id).n_path_id
let node_tag u id = tag (find u id)
let node_label u id = Ordpath.to_raw (find u id).n_label
let node_relation u id =
  let n = find u id in
  Mapping.relation u.store.Loader.mapping n.n_def
let node_parent u id = Option.map (fun p -> p.n_id) (find u id).n_parent
let node_children u id = List.map (fun c -> c.n_id) (elem_children (find u id))

let max_label_len u =
  Hashtbl.fold
    (fun _ n acc -> max acc (String.length (Ordpath.to_raw n.n_label)))
    u.by_id 0

(* Document-order ranks: id -> 1-based rank over all live elements,
   derived from label byte order. The differential tests compare query
   results across stores whose ids diverge (incremental keeps original
   ids, a re-shred renumbers) by mapping each id to its rank. *)
let ranks u =
  let all = Hashtbl.fold (fun id n acc -> (Ordpath.to_raw n.n_label, id) :: acc) u.by_id [] in
  let arr = Array.of_list all in
  Array.sort compare arr;
  let tbl = Hashtbl.create (Array.length arr) in
  Array.iteri (fun i (_, id) -> Hashtbl.replace tbl id (i + 1)) arr;
  tbl

let rec tree_of_node n =
  Tree.Element
    {
      Tree.tag = tag n;
      attrs = n.n_attrs;
      children =
        List.map
          (function I_text s -> Tree.Text s | I_node c -> tree_of_node c)
          n.n_items;
    }

let current_trees u = List.map tree_of_node u.roots

(* ------------------------------------------------------------------ *)
(* Fragment validation                                                 *)
(* ------------------------------------------------------------------ *)

let child_def schema parent_def t =
  List.find_opt (fun c -> String.equal c.Graph.name t) (Graph.children schema parent_def)

(* The definition of a child element [t] of a node of [def] at [path]. *)
let child_def_at schema def ~path t =
  match child_def schema def t with
  | Some d -> d
  | None -> error "element %s at %s does not match the schema" t path

(* Enter a new node into the id and path-reference tables. *)
let add_node u n =
  Hashtbl.replace u.by_id n.n_id n;
  Hashtbl.replace u.path_refs n.n_path_id
    (1 + Option.value ~default:0 (Hashtbl.find_opt u.path_refs n.n_path_id))

(* Pre-validate a fragment against the schema without touching any
   state, so a rejected fragment leaves the shadow untouched. *)
let validate_fragment u ~parent_def tree =
  let schema = Mapping.schema u.store.Loader.mapping in
  let rec walk def = function
    | Tree.Text _ -> ()
    | Tree.Element e ->
      List.iter
        (function
          | Tree.Text _ -> ()
          | Tree.Element c as child ->
            (match child_def schema def c.Tree.tag with
             | Some d -> walk d child
             | None ->
               error "element %s under %s does not match the schema" c.Tree.tag
                 def.Graph.name))
        e.Tree.children
  in
  match tree with
  | Tree.Text _ -> error "fragment must be an element"
  | Tree.Element e ->
    (match child_def schema parent_def e.Tree.tag with
     | Some d -> walk d tree; d, e
     | None ->
       error "element %s is not a valid child of %s" e.Tree.tag parent_def.Graph.name)

(* ------------------------------------------------------------------ *)
(* Row derivation                                                      *)
(* ------------------------------------------------------------------ *)

let build_row u n =
  let ord, sibs = ord_sibs n in
  Mapping.row u.store.Loader.mapping n.n_def ~id:n.n_id ~doc_id:n.n_doc
    ~parent:(Option.map (fun p -> p.n_def, p.n_id) n.n_parent)
    ~label:(Ordpath.to_raw n.n_label) ~path_id:n.n_path_id ~text:(string_value n)
    ~dtext:(direct_text n) ~ord ~sibs
    ~attr:(fun a -> List.assoc_opt a n.n_attrs)

let relation_of u n = Mapping.relation u.store.Loader.mapping n.n_def

(* ------------------------------------------------------------------ *)
(* Changesets                                                          *)
(* ------------------------------------------------------------------ *)

type row_op =
  | Row_insert of { table : string; values : Value.t array }
  | Row_update of { table : string; elem : int; values : Value.t array }
  | Row_delete of { table : string; elem : int }

type routing = {
  rt_parent : int;  (** element id of the mutation site's parent *)
  rt_left : int option;  (** adjacent element sibling ids of the new subtree *)
  rt_right : int option;
  rt_fk : (string * string) option;
      (** the fragment root's (relation, parent-fk column) — lets the
          cluster detect a newly appearing boundary foreign key *)
}

type changeset = {
  cs_ops : row_op list;  (** deletes, then updates, then inserts *)
  cs_new_paths : (int * string) list;
  cs_dead_paths : int list;
  cs_pathids : int list;  (** the commit's changed-pathid set *)
  cs_routing : routing option;
}

type outcome = {
  inserted : int;
  updated : int;
  deleted : int;
  new_paths : int;
  dead_paths : int;
}

let outcome_of cs =
  List.fold_left
    (fun o op ->
      match op with
      | Row_insert _ -> { o with inserted = o.inserted + 1 }
      | Row_update _ -> { o with updated = o.updated + 1 }
      | Row_delete _ -> { o with deleted = o.deleted + 1 })
    {
      inserted = 0;
      updated = 0;
      deleted = 0;
      new_paths = List.length cs.cs_new_paths;
      dead_paths = List.length cs.cs_dead_paths;
    }
    cs.cs_ops

(* ------------------------------------------------------------------ *)
(* Operations (staging: shadow mutation + changeset derivation)        *)
(* ------------------------------------------------------------------ *)

type op =
  | Insert_subtree of { parent : int; before : int option; fragment : Tree.node }
  | Delete_subtree of { target : int }
  | Replace_subtree of { target : int; fragment : Tree.node }
  | Set_attribute of { target : int; name : string; value : string option }
  | Set_text of { target : int; text : string }

(* A staged mutation accumulates deletes/updates/inserts plus the pathid
   set; updates are deduplicated by element id (last write wins, but all
   rebuilds read the final shadow so every version is identical). *)
type acc = {
  mutable a_deletes : (string * int) list;  (* reverse order *)
  mutable a_updates : (int, string) Hashtbl.t;  (* elem -> table *)
  mutable a_inserts : node list;  (* reverse preorder *)
  mutable a_new_paths : (int * string) list;  (* reverse intern order *)
  mutable a_dead_paths : int list;
  a_pathids : (int, unit) Hashtbl.t;
}

let acc_create () =
  {
    a_deletes = [];
    a_updates = Hashtbl.create 8;
    a_inserts = [];
    a_new_paths = [];
    a_dead_paths = [];
    a_pathids = Hashtbl.create 8;
  }

let touch_path acc pid = Hashtbl.replace acc.a_pathids pid ()

let mark_update u acc n =
  Hashtbl.replace acc.a_updates n.n_id (relation_of u n);
  touch_path acc n.n_path_id

(* Update every same-tag element child of [p]: their [ord]/[sibs]
   positional descriptors moved. *)
let refresh_siblings u acc p t ~except =
  List.iter
    (fun c ->
      if String.equal (tag c) t && not (List.memq c except) then mark_update u acc c)
    (elem_children p)

(* Update the ancestor chain starting at [p]: their string values
   ([text] column) changed. *)
let rec refresh_ancestors u acc p =
  mark_update u acc p;
  match p.n_parent with None -> () | Some q -> refresh_ancestors u acc q

let intern_for acc u path =
  match Hashtbl.find_opt u.path_ids path with
  | Some id -> id
  | None ->
    let id = u.next_path_id in
    u.next_path_id <- id + 1;
    Hashtbl.replace u.path_ids path id;
    acc.a_new_paths <- (id, path) :: acc.a_new_paths;
    id

let detach_subtree u acc n =
  iter_subtree
    (fun c ->
      acc.a_deletes <- (relation_of u c, c.n_id) :: acc.a_deletes;
      touch_path acc c.n_path_id;
      Hashtbl.remove u.by_id c.n_id;
      let refs = Option.value ~default:1 (Hashtbl.find_opt u.path_refs c.n_path_id) in
      if refs <= 1 then begin
        Hashtbl.remove u.path_refs c.n_path_id;
        Hashtbl.remove u.path_ids c.n_path;
        acc.a_dead_paths <- c.n_path_id :: acc.a_dead_paths
      end
      else Hashtbl.replace u.path_refs c.n_path_id (refs - 1))
    n

let finish u acc ~routing =
  let ops =
    List.rev_map (fun (table, elem) -> Row_delete { table; elem }) acc.a_deletes
    @ (Hashtbl.fold (fun elem table l -> (elem, table) :: l) acc.a_updates []
      |> List.sort compare
      |> List.filter_map (fun (elem, table) ->
             if Hashtbl.mem u.by_id elem then
               Some (Row_update { table; elem; values = build_row u (find u elem) })
             else None))
    @ List.rev_map
        (fun n -> Row_insert { table = relation_of u n; values = build_row u n })
        acc.a_inserts
  in
  {
    cs_ops = ops;
    cs_new_paths = List.rev acc.a_new_paths;
    cs_dead_paths = List.rev acc.a_dead_paths;
    cs_pathids = Hashtbl.fold (fun k () l -> k :: l) acc.a_pathids [];
    cs_routing = routing;
  }

(* The shadow of a validated fragment element of [def] under [parent]:
   fresh preorder ids, bulk-load child labels under [label], paths
   interned and rows queued in [acc]. Not yet among [parent]'s items. *)
let rec fresh_subtree u acc parent def label (e : Tree.element) =
  let id = u.next_id in
  u.next_id <- id + 1;
  let path = parent.n_path ^ "/" ^ def.Graph.name in
  let pid = intern_for acc u path in
  let n =
    {
      n_id = id;
      n_doc = parent.n_doc;
      n_def = def;
      n_label = label;
      n_path = path;
      n_path_id = pid;
      n_attrs = List.filter (fun (a, _) -> List.mem a def.Graph.attrs) e.Tree.attrs;
      n_items = [];
      n_parent = Some parent;
    }
  in
  add_node u n;
  acc.a_inserts <- n :: acc.a_inserts;
  touch_path acc pid;
  let schema = Mapping.schema u.store.Loader.mapping in
  let seq = ref 0 in
  n.n_items <-
    List.map
      (function
        | Tree.Text s -> I_text s
        | Tree.Element c ->
          incr seq;
          let cdef = child_def_at schema def ~path c.Tree.tag in
          I_node (fresh_subtree u acc n cdef (Ordpath.child label !seq) c))
      e.Tree.children;
  n

(* Splice [fragment] under [p] immediately before the child element
   [before] (or at the end). Returns the new subtree root. *)
let stage_insert u acc p ~before ~left ~right fragment =
  let fdef, e = validate_fragment u ~parent_def:p.n_def fragment in
  let root_label =
    match left, right with
    | None, None -> Ordpath.child p.n_label 1
    | l, r ->
      Ordpath.insert_between
        (Option.map (fun n -> n.n_label) l)
        (Option.map (fun n -> n.n_label) r)
  in
  let froot = fresh_subtree u acc p fdef root_label e in
  let rec splice = function
    | [] -> [ I_node froot ]
    | I_node c :: rest when (match before with Some b -> c == b | None -> false) ->
      I_node froot :: I_node c :: rest
    | it :: rest -> it :: splice rest
  in
  p.n_items <- splice p.n_items;
  froot

let insert_neighbors p ~before =
  (* nearest element siblings on each side of the insertion point *)
  match before with
  | None ->
    let rec last acc = function
      | [] -> acc
      | I_node c :: rest -> last (Some c) rest
      | I_text _ :: rest -> last acc rest
    in
    last None p.n_items, None
  | Some b ->
    let rec go left = function
      | [] -> error "before-element %d is not a child of element %d" b.n_id p.n_id
      | I_node c :: _ when c == b -> left, Some c
      | I_node c :: rest -> go (Some c) rest
      | I_text _ :: rest -> go left rest
    in
    go None p.n_items

let routing_for ~parent ~left ~right ~fk =
  Some
    {
      rt_parent = parent.n_id;
      rt_left = Option.map (fun n -> n.n_id) left;
      rt_right = Option.map (fun n -> n.n_id) right;
      rt_fk = fk;
    }

let stage u op =
  let mapping = u.store.Loader.mapping in
  match op with
  | Insert_subtree { parent; before; fragment } ->
    let p = find u parent in
    let before_node =
      Option.map
        (fun b ->
          let bn = find u b in
          (match bn.n_parent with
           | Some q when q == p -> ()
           | _ -> error "before-element %d is not a child of element %d" b parent);
          bn)
        before
    in
    let left, right = insert_neighbors p ~before:before_node in
    let acc = acc_create () in
    let froot = stage_insert u acc p ~before:before_node ~left ~right fragment in
    refresh_siblings u acc p (tag froot) ~except:[ froot ];
    if not (String.equal (string_value froot) "") then refresh_ancestors u acc p;
    let fk =
      Some
        ( relation_of u froot,
          Mapping.parent_fk mapping ~child:froot.n_def ~parent:p.n_def )
    in
    finish u acc ~routing:(routing_for ~parent:p ~left ~right ~fk)
  | Delete_subtree { target } ->
    let n = find u target in
    let p =
      match n.n_parent with
      | Some p -> p
      | None -> error "cannot delete a document root (element %d)" target
    in
    let acc = acc_create () in
    let had_text = not (String.equal (string_value n) "") in
    detach_subtree u acc n;
    p.n_items <- List.filter (function I_node c -> not (c == n) | I_text _ -> true) p.n_items;
    refresh_siblings u acc p (tag n) ~except:[];
    if had_text then refresh_ancestors u acc p;
    finish u acc ~routing:None
  | Replace_subtree { target; fragment } ->
    let n = find u target in
    let p =
      match n.n_parent with
      | Some p -> p
      | None -> error "cannot replace a document root (element %d)" target
    in
    (* Validate before mutating, so a bad fragment leaves the shadow
       untouched. *)
    let _ = validate_fragment u ~parent_def:p.n_def fragment in
    let acc = acc_create () in
    let old_tag = tag n in
    let old_text = string_value n in
    (* Neighbors around the target, excluding it. *)
    let rec around left = function
      | [] -> error "shadow corruption: node %d not among its parent's items" n.n_id
      | I_node c :: rest when c == n ->
        let rec first = function
          | [] -> None
          | I_node r :: _ -> Some r
          | I_text _ :: more -> first more
        in
        left, first rest
      | I_node c :: rest -> around (Some c) rest
      | I_text _ :: rest -> around left rest
    in
    let left, right = around None p.n_items in
    detach_subtree u acc n;
    (* Keep the target's item position: splice the fragment right where
       the old subtree sat, then drop the old subtree. *)
    let froot = stage_insert u acc p ~before:(Some n) ~left ~right fragment in
    p.n_items <- List.filter (function I_node c -> not (c == n) | I_text _ -> true) p.n_items;
    refresh_siblings u acc p old_tag ~except:[ froot ];
    refresh_siblings u acc p (tag froot) ~except:[ froot ];
    if not (String.equal old_text (string_value froot)) then refresh_ancestors u acc p;
    let fk =
      Some
        ( relation_of u froot,
          Mapping.parent_fk mapping ~child:froot.n_def ~parent:p.n_def )
    in
    finish u acc ~routing:(routing_for ~parent:p ~left ~right ~fk)
  | Set_attribute { target; name; value } ->
    let n = find u target in
    if not (List.mem name n.n_def.Graph.attrs) then
      error "element %s declares no attribute %s" (tag n) name;
    let acc = acc_create () in
    n.n_attrs <-
      (let without = List.remove_assoc name n.n_attrs in
       match value with None -> without | Some v -> without @ [ (name, v) ]);
    mark_update u acc n;
    finish u acc ~routing:None
  | Set_text { target; text } ->
    let n = find u target in
    let old = string_value n in
    let acc = acc_create () in
    let elems = List.filter (function I_node _ -> true | I_text _ -> false) n.n_items in
    n.n_items <- (if String.equal text "" then elems else I_text text :: elems);
    mark_update u acc n;
    if not (String.equal old (string_value n)) then
      Option.iter (fun p -> refresh_ancestors u acc p) n.n_parent;
    finish u acc ~routing:None

(* ------------------------------------------------------------------ *)
(* Commit                                                              *)
(* ------------------------------------------------------------------ *)

let find_row db table elem =
  match Database.table_opt db table with
  | None -> None
  | Some tbl -> (
    match Table.index_on tbl [ "id" ] with
    | Some tree -> (
      match Btree.find_equal tree [| Value.Int elem |] with
      | r :: _ -> Some (tbl, r)
      | [] -> None)
    | None ->
      let found = ref None in
      Table.iter_rows
        (fun r row -> if row.(0) = Value.Int elem then found := Some (tbl, r))
        tbl;
      !found)

let commit ?(inserts = true) database cs =
  Database.with_write database (fun () ->
      let before = Hashtbl.create 8 in
      let note name =
        if not (Hashtbl.mem before name) then
          match Database.table_opt database name with
          | Some tbl -> Hashtbl.add before name (Table.version tbl)
          | None -> ()
      in
      if cs.cs_new_paths <> [] || cs.cs_dead_paths <> [] then note Mapping.paths_table;
      List.iter
        (function
          | Row_insert { table; _ } | Row_update { table; _ } | Row_delete { table; _ }
            ->
            note table)
        cs.cs_ops;
      (* Paths rows are replicated on every store. *)
      List.iter
        (fun (id, path) ->
          match Database.table_opt database Mapping.paths_table with
          | Some paths -> ignore (Table.insert paths [| Value.Int id; Value.Str path |])
          | None -> ())
        cs.cs_new_paths;
      List.iter
        (fun op ->
          match op with
          | Row_insert { table; values } ->
            if inserts then
              Option.iter
                (fun tbl -> ignore (Table.insert tbl values))
                (Database.table_opt database table)
          | Row_update { table; elem; values } ->
            Option.iter
              (fun (tbl, r) -> ignore (Table.update tbl r values))
              (find_row database table elem)
          | Row_delete { table; elem } ->
            Option.iter
              (fun (tbl, r) -> ignore (Table.delete tbl r))
              (find_row database table elem))
        cs.cs_ops;
      List.iter
        (fun pid ->
          Option.iter
            (fun (tbl, r) -> ignore (Table.delete tbl r))
            (find_row database Mapping.paths_table pid))
        cs.cs_dead_paths;
      let touched =
        Hashtbl.fold
          (fun name v0 acc ->
            match Database.table_opt database name with
            | Some tbl when Table.version tbl <> v0 -> (name, v0, Table.version tbl) :: acc
            | Some _ | None -> acc)
          before []
      in
      ignore (Database.record_commit database ~touched ~pathids:cs.cs_pathids))

let exec u op =
  let cs = stage u op in
  commit (db u) cs;
  outcome_of cs

(* ------------------------------------------------------------------ *)
(* Construction: the one shadow builder                                *)
(*                                                                     *)
(* The relations hold every element's id, label and path id; the       *)
(* document trees hold what the relations lose, the interleaving of    *)
(* text and element children. [build] walks the trees in preorder,     *)
(* which is document order and so label byte order, and takes each     *)
(* element's row from its relation's rows in Dewey order: one row read *)
(* per element. Any disagreement between trees and rows raises.        *)
(* ------------------------------------------------------------------ *)

type cursor = {
  c_table : Table.t;
  c_rows : int array;  (** live row ids in Dewey order *)
  mutable c_next : int;
  c_label : int;  (** position of [dewey_pos]; [path_id] follows *)
}

let cursor mapping db def =
  let name = Mapping.relation mapping def in
  let tbl =
    match Database.table_opt db name with
    | Some tbl -> tbl
    | None -> error "store is missing relation %s" name
  in
  let rows = Array.make (Table.live_count tbl) 0 in
  let n = ref 0 in
  Table.iter_merged
    (fun r ->
      if !n < Array.length rows then rows.(!n) <- r;
      incr n)
    tbl
    (Array.of_list (Table.partition_keys tbl));
  if !n <> Array.length rows then
    error "%s has %d live rows but %d in its path partitions" name (Array.length rows) !n;
  { c_table = tbl; c_rows = rows; c_next = 0; c_label = Mapping.label_pos mapping def }

let build store ~next_id ~next_path_id trees =
  let mapping = store.Loader.mapping and db = store.Loader.db in
  let schema = Mapping.schema mapping in
  let u =
    {
      store;
      roots = [];
      by_id = Hashtbl.create 1024;
      path_ids = Hashtbl.create 64;
      path_refs = Hashtbl.create 64;
      next_id;
      next_path_id;
    }
  in
  (match Database.table_opt db Mapping.paths_table with
   | Some paths ->
     Table.iter_rows
       (fun _ row ->
         match row.(0), row.(1) with
         | Value.Int id, Value.Str p ->
           Hashtbl.replace u.path_ids p id;
           u.next_path_id <- max u.next_path_id (id + 1)
         | _ -> ())
       paths
   | None -> error "store has no %s relation" Mapping.paths_table);
  let cursors = Array.of_list (List.map (cursor mapping db) (Graph.defs schema)) in
  let last = ref "" in
  let rec walk def path ~doc parent ~parent_label (e : Tree.element) =
    let c = cursors.(def.Graph.id) in
    if c.c_next >= Array.length c.c_rows then
      error "%s holds no row for the element %s at %s" (Table.name c.c_table) e.Tree.tag path;
    let row = Table.row c.c_table c.c_rows.(c.c_next) in
    c.c_next <- c.c_next + 1;
    let id, raw, pid =
      match row.(0), row.(c.c_label), row.(c.c_label + 1) with
      | Value.Int id, Value.Bin raw, Value.Int pid -> id, raw, pid
      | _ -> error "malformed %s row for the element at %s" (Table.name c.c_table) path
    in
    (match Hashtbl.find_opt u.path_ids path with
     | Some p when p = pid -> ()
     | Some p -> error "element %d at %s carries path id %d but Paths says %d" id path pid p
     | None -> error "path %s of element %d is missing from Paths" path id);
    if id <= 0 || id >= next_id then
      error "element id %d outside the allocated id space [1, %d)" id next_id;
    if Hashtbl.mem u.by_id id then error "duplicate element id %d" id;
    let label =
      try Ordpath.child_of_raw raw ~parent:parent_label
      with Ordpath.Invalid m -> error "element %d label: %s" id m
    in
    if String.compare raw !last <= 0 then
      error "element %d's label is out of document order" id;
    last := raw;
    if Option.is_none parent && row.(1) <> Value.Int doc then
      error "root element %d does not carry doc_id %d" id doc;
    let n =
      {
        n_id = id;
        n_doc = doc;
        n_def = def;
        n_label = label;
        n_path = path;
        n_path_id = pid;
        n_attrs = List.filter (fun (a, _) -> List.mem a def.Graph.attrs) e.Tree.attrs;
        n_items = [];
        n_parent = parent;
      }
    in
    add_node u n;
    n.n_items <-
      List.map
        (function
          | Tree.Text s -> I_text s
          | Tree.Element ce ->
            let cdef = child_def_at schema def ~path ce.Tree.tag in
            I_node (walk cdef (path ^ "/" ^ ce.Tree.tag) ~doc (Some n) ~parent_label:label ce))
        e.Tree.children;
    n
  in
  let root_def = Graph.root schema in
  u.roots <-
    List.mapi
      (fun i tree ->
        match tree with
        | Tree.Element e when String.equal e.Tree.tag root_def.Graph.name ->
          let doc = i + 1 in
          walk root_def ("/" ^ root_def.Graph.name) ~doc None
            ~parent_label:(Ordpath.of_components [ (2 * doc) - 1 ])
            e
        | Tree.Element e ->
          error "document %d's root is a %s where the schema expects %s" (i + 1) e.Tree.tag
            root_def.Graph.name
        | Tree.Text _ -> error "document %d's root is not an element" (i + 1))
      trees;
  Array.iter
    (fun c ->
      if c.c_next < Array.length c.c_rows then
        error "%s holds %d rows that no document element accounts for" (Table.name c.c_table)
          (Array.length c.c_rows - c.c_next))
    cursors;
  u

let of_store store trees = build store ~next_id:store.Loader.next_id ~next_path_id:1 trees

let create schema trees =
  let store =
    List.fold_left
      (fun s tree -> Loader.load s (Doc.of_tree tree))
      (Loader.create (Mapping.of_schema schema))
      trees
  in
  of_store store trees

let load u tree =
  let doc = Doc.of_tree tree in
  (* Number past every id allocated here, caret inserts included: the
     store's own [next_id] only counts bulk loads. *)
  let store =
    Database.with_write (db u) (fun () ->
        Loader.load { u.store with Loader.next_id = u.next_id } doc)
  in
  let u' =
    build store ~next_id:store.Loader.next_id ~next_path_id:u.next_path_id
      (current_trees u @ [ tree ])
  in
  u.store <- u'.store;
  u.roots <- u'.roots;
  u.by_id <- u'.by_id;
  u.path_ids <- u'.path_ids;
  u.path_refs <- u'.path_refs;
  u.next_id <- u'.next_id;
  u.next_path_id <- u'.next_path_id;
  doc

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(*                                                                     *)
(* What the relations cannot answer from: the current trees, and the   *)
(* id and path-id counters (ids of deleted elements are never reused). *)
(* [of_shadow] puts them back together with the adopted store's rows   *)
(* through [build], so a snapshot can never smuggle in a shape the     *)
(* schema, the Paths relation or the stored labels disagree with.      *)
(* ------------------------------------------------------------------ *)

type shadow = {
  sh_trees : Tree.node list;
  sh_next_id : int;
  sh_next_path_id : int;
}

let shadow u =
  { sh_trees = current_trees u; sh_next_id = u.next_id; sh_next_path_id = u.next_path_id }

let of_shadow store sh =
  let store =
    { store with Loader.doc_count = List.length sh.sh_trees; next_id = sh.sh_next_id }
  in
  build store ~next_id:sh.sh_next_id ~next_path_id:sh.sh_next_path_id sh.sh_trees
