module Tree = Ppfx_xml.Tree
module Graph = Ppfx_schema.Graph
module Codec = Ppfx_minidb.Codec
module Update = Ppfx_update.Update

(* Records and sidecars are built from Codec's primitives ([put_varint],
   [get_string], [put_value], ...), so a payload that fails to decode
   raises the same [Corrupt] a bad database image does. *)
open Codec

exception Corrupt = Codec.Corrupt

let corrupt fmt = Format.kasprintf (fun m -> raise (Corrupt m)) fmt

let put_bool b v = Buffer.add_char b (if v then '\001' else '\000')

let get_bool d =
  match get_byte d with
  | 0 -> false
  | 1 -> true
  | c -> corrupt "bad bool byte %d" c

let put_opt f b = function
  | None -> Buffer.add_char b '\000'
  | Some v ->
    Buffer.add_char b '\001';
    f b v

let get_opt f d = if get_bool d then Some (f d) else None

let put_list f b l =
  put_varint b (List.length l);
  List.iter (f b) l

let get_list f d =
  let n = get_varint d in
  if n < 0 then corrupt "negative list length";
  List.init n (fun _ -> f d)

(* --- XML fragments --------------------------------------------------- *)
(* Structural, not via Printer/Parser: whitespace-only text nodes and
   every attribute byte round-trip exactly. *)

let rec put_tree b = function
  | Tree.Text s ->
    Buffer.add_char b '\000';
    put_string b s
  | Tree.Element e ->
    Buffer.add_char b '\001';
    put_string b e.Tree.tag;
    put_list
      (fun b (k, v) ->
        put_string b k;
        put_string b v)
      b e.Tree.attrs;
    put_list put_tree b e.Tree.children

let rec get_tree d =
  match get_byte d with
  | 0 -> Tree.Text (get_string d)
  | 1 ->
    let tag = get_string d in
    let attrs =
      get_list
        (fun d ->
          let k = get_string d in
          let v = get_string d in
          (k, v))
        d
    in
    let children = get_list get_tree d in
    Tree.Element { Tree.tag; attrs; children }
  | tag -> corrupt "unknown tree tag %d" tag

(* --- operations ------------------------------------------------------ *)

let put_op b (op : Update.op) =
  match op with
  | Update.Insert_subtree { parent; before; fragment } ->
    Buffer.add_char b '\000';
    put_varint b parent;
    put_opt put_varint b before;
    put_tree b fragment
  | Update.Delete_subtree { target } ->
    Buffer.add_char b '\001';
    put_varint b target
  | Update.Replace_subtree { target; fragment } ->
    Buffer.add_char b '\002';
    put_varint b target;
    put_tree b fragment
  | Update.Set_attribute { target; name; value } ->
    Buffer.add_char b '\003';
    put_varint b target;
    put_string b name;
    put_opt put_string b value
  | Update.Set_text { target; text } ->
    Buffer.add_char b '\004';
    put_varint b target;
    put_string b text

let get_op d : Update.op =
  match get_byte d with
  | 0 ->
    let parent = get_varint d in
    let before = get_opt get_varint d in
    let fragment = get_tree d in
    Update.Insert_subtree { parent; before; fragment }
  | 1 -> Update.Delete_subtree { target = get_varint d }
  | 2 ->
    let target = get_varint d in
    let fragment = get_tree d in
    Update.Replace_subtree { target; fragment }
  | 3 ->
    let target = get_varint d in
    let name = get_string d in
    let value = get_opt get_string d in
    Update.Set_attribute { target; name; value }
  | 4 ->
    let target = get_varint d in
    let text = get_string d in
    Update.Set_text { target; text }
  | tag -> corrupt "unknown op tag %d" tag

(* --- changesets ------------------------------------------------------ *)

let put_row_op b (op : Update.row_op) =
  match op with
  | Update.Row_insert { table; values } ->
    Buffer.add_char b '\000';
    put_string b table;
    put_varint b (Array.length values);
    Array.iter (put_value b) values
  | Update.Row_update { table; elem; values } ->
    Buffer.add_char b '\001';
    put_string b table;
    put_varint b elem;
    put_varint b (Array.length values);
    Array.iter (put_value b) values
  | Update.Row_delete { table; elem } ->
    Buffer.add_char b '\002';
    put_string b table;
    put_varint b elem

let get_values d =
  let n = get_varint d in
  if n < 0 then corrupt "negative value count";
  Array.init n (fun _ -> get_value d)

let get_row_op d : Update.row_op =
  match get_byte d with
  | 0 ->
    let table = get_string d in
    let values = get_values d in
    Update.Row_insert { table; values }
  | 1 ->
    let table = get_string d in
    let elem = get_varint d in
    let values = get_values d in
    Update.Row_update { table; elem; values }
  | 2 ->
    let table = get_string d in
    let elem = get_varint d in
    Update.Row_delete { table; elem }
  | tag -> corrupt "unknown row-op tag %d" tag

let put_routing b (rt : Update.routing) =
  put_varint b rt.Update.rt_parent;
  put_opt put_varint b rt.Update.rt_left;
  put_opt put_varint b rt.Update.rt_right;
  put_opt
    (fun b (rel, fk) ->
      put_string b rel;
      put_string b fk)
    b rt.Update.rt_fk

let get_routing d : Update.routing =
  let rt_parent = get_varint d in
  let rt_left = get_opt get_varint d in
  let rt_right = get_opt get_varint d in
  let rt_fk =
    get_opt
      (fun d ->
        let rel = get_string d in
        let fk = get_string d in
        (rel, fk))
      d
  in
  { Update.rt_parent; rt_left; rt_right; rt_fk }

let put_changeset b (cs : Update.changeset) =
  put_list put_row_op b cs.Update.cs_ops;
  put_list
    (fun b (id, path) ->
      put_varint b id;
      put_string b path)
    b cs.Update.cs_new_paths;
  put_list put_varint b cs.Update.cs_dead_paths;
  put_list put_varint b cs.Update.cs_pathids;
  put_opt put_routing b cs.Update.cs_routing

let get_changeset d : Update.changeset =
  let cs_ops = get_list get_row_op d in
  let cs_new_paths =
    get_list
      (fun d ->
        let id = get_varint d in
        let path = get_string d in
        (id, path))
      d
  in
  let cs_dead_paths = get_list get_varint d in
  let cs_pathids = get_list get_varint d in
  let cs_routing = get_opt get_routing d in
  { Update.cs_ops; cs_new_paths; cs_dead_paths; cs_pathids; cs_routing }

(* --- cluster extras -------------------------------------------------- *)

type extras = { partition_counts : int list; boundary_fks : string list }

let put_extras b e =
  put_list put_varint b e.partition_counts;
  put_list put_string b e.boundary_fks

let get_extras d =
  let partition_counts = get_list get_varint d in
  let boundary_fks = get_list get_string d in
  { partition_counts; boundary_fks }

(* --- log records ------------------------------------------------------ *)

type t = {
  r_seq : int;  (** commit sequence number, 1-based, monotone per store *)
  r_op : Update.op option;  (** present on full stores: the staged op *)
  r_inserts : bool;  (** shard replay flag ([Update.commit ~inserts]) *)
  r_cs : Update.changeset;  (** the authoritative acked row changes *)
  r_extras : extras option;  (** cluster routing state after this commit *)
}

let encode r =
  let b = Buffer.create 256 in
  put_varint b r.r_seq;
  put_opt put_op b r.r_op;
  put_bool b r.r_inserts;
  put_changeset b r.r_cs;
  put_opt put_extras b r.r_extras;
  Buffer.contents b

let decode s =
  let d = cursor s in
  let r_seq = get_varint d in
  let r_op = get_opt get_op d in
  let r_inserts = get_bool d in
  let r_cs = get_changeset d in
  let r_extras = get_opt get_extras d in
  if not (at_end d) then corrupt "trailing bytes after record";
  { r_seq; r_op; r_inserts; r_cs; r_extras }

(* --- shadow snapshots ------------------------------------------------- *)

let rec put_shadow_node b (n : Update.shadow_node) =
  put_varint b n.Update.sn_id;
  put_varint b n.Update.sn_doc;
  put_string b n.Update.sn_tag;
  put_string b n.Update.sn_label;
  put_varint b n.Update.sn_path_id;
  put_list
    (fun b (k, v) ->
      put_string b k;
      put_string b v)
    b n.Update.sn_attrs;
  put_list
    (fun b (it : Update.shadow_item) ->
      match it with
      | Update.Sh_text s ->
        Buffer.add_char b '\000';
        put_string b s
      | Update.Sh_node c ->
        Buffer.add_char b '\001';
        put_shadow_node b c)
    b n.Update.sn_items

let rec get_shadow_node d : Update.shadow_node =
  let sn_id = get_varint d in
  let sn_doc = get_varint d in
  let sn_tag = get_string d in
  let sn_label = get_string d in
  let sn_path_id = get_varint d in
  let sn_attrs =
    get_list
      (fun d ->
        let k = get_string d in
        let v = get_string d in
        (k, v))
      d
  in
  let sn_items =
    get_list
      (fun d : Update.shadow_item ->
        match get_byte d with
        | 0 -> Update.Sh_text (get_string d)
        | 1 -> Update.Sh_node (get_shadow_node d)
        | tag -> corrupt "unknown shadow item tag %d" tag)
      d
  in
  { Update.sn_id; sn_doc; sn_tag; sn_label; sn_path_id; sn_attrs; sn_items }

let put_shadow b (sh : Update.shadow) =
  put_list put_shadow_node b sh.Update.sh_roots;
  put_varint b sh.Update.sh_next_id;
  put_varint b sh.Update.sh_next_path_id

let get_shadow d : Update.shadow =
  let sh_roots = get_list get_shadow_node d in
  let sh_next_id = get_varint d in
  let sh_next_path_id = get_varint d in
  { Update.sh_roots; sh_next_id; sh_next_path_id }

(* --- schema ----------------------------------------------------------- *)
(* Defs in Graph.defs order (Builder.define reproduces ids and the
   tag/tag_2 relation naming deterministically), then nesting edges as
   (parent index, child index) pairs in parent-major, children-list
   order so child resolution order is preserved, then the root index. *)

let put_schema b g =
  let defs = Graph.defs g in
  let index_of =
    let tbl = Hashtbl.create (List.length defs) in
    List.iteri (fun i (d : Graph.def) -> Hashtbl.replace tbl d.Graph.id i) defs;
    fun (d : Graph.def) ->
      match Hashtbl.find_opt tbl d.Graph.id with
      | Some i -> i
      | None -> invalid_arg "put_schema: def outside Graph.defs"
  in
  put_list
    (fun b (d : Graph.def) ->
      put_string b d.Graph.name;
      put_list put_string b d.Graph.attrs;
      put_bool b d.Graph.has_text)
    b defs;
  put_list
    (fun b (pi, ci) ->
      put_varint b pi;
      put_varint b ci)
    b
    (List.concat_map
       (fun (p : Graph.def) ->
         List.map (fun c -> (index_of p, index_of c)) (Graph.children g p))
       defs);
  put_varint b (index_of (Graph.root g))

let get_schema d =
  let specs =
    get_list
      (fun d ->
        let name = get_string d in
        let attrs = get_list get_string d in
        let has_text = get_bool d in
        (name, attrs, has_text))
      d
  in
  let edges =
    get_list
      (fun d ->
        let pi = get_varint d in
        let ci = get_varint d in
        (pi, ci))
      d
  in
  let root_idx = get_varint d in
  let b = Graph.Builder.create () in
  let defs =
    Array.of_list
      (List.map (fun (name, attrs, text) -> Graph.Builder.define b ~attrs ~text name) specs)
  in
  let def i =
    if i < 0 || i >= Array.length defs then corrupt "schema def index %d out of range" i
    else defs.(i)
  in
  List.iter (fun (pi, ci) -> Graph.Builder.add_child b ~parent:(def pi) (def ci)) edges;
  match Graph.Builder.finish b ~root:(def root_idx) with
  | g -> g
  | exception Invalid_argument m -> corrupt "schema rebuild failed: %s" m

(* --- checkpoint sidecar ------------------------------------------------ *)

type meta = {
  m_schema : Graph.t;
  m_shadow : Update.shadow option;  (** present on full stores *)
  m_extras : extras option;
}

let encode_meta m =
  let b = Buffer.create 1024 in
  put_schema b m.m_schema;
  put_opt put_shadow b m.m_shadow;
  put_opt put_extras b m.m_extras;
  Buffer.contents b

let decode_meta s =
  let d = cursor s in
  let m_schema = get_schema d in
  let m_shadow = get_opt get_shadow d in
  let m_extras = get_opt get_extras d in
  if not (at_end d) then corrupt "trailing bytes after checkpoint meta";
  { m_schema; m_shadow; m_extras }
