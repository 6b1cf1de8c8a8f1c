module Tree = Ppfx_xml.Tree
module Graph = Ppfx_schema.Graph
module Value = Ppfx_minidb.Value
module Update = Ppfx_update.Update

exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun m -> raise (Corrupt m)) fmt

(* --- primitives ----------------------------------------------------- *)
(* Same zigzag-LEB128 discipline as Ppfx_minidb.Codec, over an explicit
   buffer/cursor pair so records, snapshot sidecars, and manifests all
   share one encoding. *)

type dec = { s : string; mutable pos : int }

let dec_of_string s = { s; pos = 0 }

let get_byte d =
  if d.pos >= String.length d.s then corrupt "truncated input"
  else begin
    let c = Char.code d.s.[d.pos] in
    d.pos <- d.pos + 1;
    c
  end

let get_bytes d n =
  if n < 0 || d.pos + n > String.length d.s then corrupt "truncated input"
  else begin
    let r = String.sub d.s d.pos n in
    d.pos <- d.pos + n;
    r
  end

let at_end d = d.pos >= String.length d.s

let put_varint b n =
  let n = ref ((n lsl 1) lxor (n asr (Sys.int_size - 1))) in
  let continue_ = ref true in
  while !continue_ do
    let byte = !n land 0x7F in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char b (Char.chr byte);
      continue_ := false
    end
    else Buffer.add_char b (Char.chr (byte lor 0x80))
  done

let get_varint d =
  let rec go shift acc =
    if shift > Sys.int_size then corrupt "varint too long";
    let byte = get_byte d in
    let acc = acc lor ((byte land 0x7F) lsl shift) in
    if byte land 0x80 <> 0 then go (shift + 7) acc else acc
  in
  let z = go 0 0 in
  (z lsr 1) lxor (-(z land 1))

let put_str b s =
  put_varint b (String.length s);
  Buffer.add_string b s

let get_str d = get_bytes d (get_varint d)

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

(* --- values (same tags as Codec) ------------------------------------ *)

let put_value b (v : Value.t) =
  match v with
  | Value.Null -> Buffer.add_char b '\000'
  | Value.Int i ->
    Buffer.add_char b '\001';
    put_varint b i
  | Value.Float f ->
    Buffer.add_char b '\002';
    let bits = Int64.bits_of_float f in
    for k = 0 to 7 do
      Buffer.add_char b
        (Char.chr (Int64.to_int (Int64.shift_right_logical bits (k * 8)) land 0xFF))
    done
  | Value.Str s ->
    Buffer.add_char b '\003';
    put_str b s
  | Value.Bin s ->
    Buffer.add_char b '\004';
    put_str b s

let get_value d : Value.t =
  match get_byte d with
  | 0 -> Value.Null
  | 1 -> Value.Int (get_varint d)
  | 2 ->
    let bits = ref 0L in
    for k = 0 to 7 do
      bits := Int64.logor !bits (Int64.shift_left (Int64.of_int (get_byte d)) (k * 8))
    done;
    Value.Float (Int64.float_of_bits !bits)
  | 3 -> Value.Str (get_str d)
  | 4 -> Value.Bin (get_str d)
  | tag -> corrupt "unknown value tag %d" tag

(* --- XML fragments --------------------------------------------------- *)
(* Structural, not via Printer/Parser: whitespace-only text nodes and
   every attribute byte round-trip exactly. *)

let rec put_tree b = function
  | Tree.Text s ->
    Buffer.add_char b '\000';
    put_str b s
  | Tree.Element e ->
    Buffer.add_char b '\001';
    put_str b e.Tree.tag;
    put_list
      (fun b (k, v) ->
        put_str b k;
        put_str b v)
      b e.Tree.attrs;
    put_list put_tree b e.Tree.children

let rec get_tree d =
  match get_byte d with
  | 0 -> Tree.Text (get_str d)
  | 1 ->
    let tag = get_str d in
    let attrs =
      get_list
        (fun d ->
          let k = get_str d in
          let v = get_str d in
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
    put_str b name;
    put_opt put_str b value
  | Update.Set_text { target; text } ->
    Buffer.add_char b '\004';
    put_varint b target;
    put_str b text

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
    let name = get_str d in
    let value = get_opt get_str d in
    Update.Set_attribute { target; name; value }
  | 4 ->
    let target = get_varint d in
    let text = get_str d in
    Update.Set_text { target; text }
  | tag -> corrupt "unknown op tag %d" tag

(* --- changesets ------------------------------------------------------ *)

let put_row_op b (op : Update.row_op) =
  match op with
  | Update.Row_insert { table; values } ->
    Buffer.add_char b '\000';
    put_str b table;
    put_varint b (Array.length values);
    Array.iter (put_value b) values
  | Update.Row_update { table; elem; values } ->
    Buffer.add_char b '\001';
    put_str b table;
    put_varint b elem;
    put_varint b (Array.length values);
    Array.iter (put_value b) values
  | Update.Row_delete { table; elem } ->
    Buffer.add_char b '\002';
    put_str b table;
    put_varint b elem

let get_values d =
  let n = get_varint d in
  if n < 0 then corrupt "negative value count";
  Array.init n (fun _ -> get_value d)

let get_row_op d : Update.row_op =
  match get_byte d with
  | 0 ->
    let table = get_str d in
    let values = get_values d in
    Update.Row_insert { table; values }
  | 1 ->
    let table = get_str d in
    let elem = get_varint d in
    let values = get_values d in
    Update.Row_update { table; elem; values }
  | 2 ->
    let table = get_str d in
    let elem = get_varint d in
    Update.Row_delete { table; elem }
  | tag -> corrupt "unknown row-op tag %d" tag

let put_routing b (rt : Update.routing) =
  put_varint b rt.Update.rt_parent;
  put_opt put_varint b rt.Update.rt_left;
  put_opt put_varint b rt.Update.rt_right;
  put_opt
    (fun b (rel, fk) ->
      put_str b rel;
      put_str b fk)
    b rt.Update.rt_fk

let get_routing d : Update.routing =
  let rt_parent = get_varint d in
  let rt_left = get_opt get_varint d in
  let rt_right = get_opt get_varint d in
  let rt_fk =
    get_opt
      (fun d ->
        let rel = get_str d in
        let fk = get_str d in
        (rel, fk))
      d
  in
  { Update.rt_parent; rt_left; rt_right; rt_fk }

let put_changeset b (cs : Update.changeset) =
  put_list put_row_op b cs.Update.cs_ops;
  put_list
    (fun b (id, path) ->
      put_varint b id;
      put_str b path)
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
        let path = get_str d in
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
  put_list put_str b e.boundary_fks

let get_extras d =
  let partition_counts = get_list get_varint d in
  let boundary_fks = get_list get_str d in
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
  let d = dec_of_string s in
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
  put_str b n.Update.sn_tag;
  put_str b n.Update.sn_label;
  put_varint b n.Update.sn_path_id;
  put_list
    (fun b (k, v) ->
      put_str b k;
      put_str b v)
    b n.Update.sn_attrs;
  put_list
    (fun b (it : Update.shadow_item) ->
      match it with
      | Update.Sh_text s ->
        Buffer.add_char b '\000';
        put_str b s
      | Update.Sh_node c ->
        Buffer.add_char b '\001';
        put_shadow_node b c)
    b n.Update.sn_items

let rec get_shadow_node d : Update.shadow_node =
  let sn_id = get_varint d in
  let sn_doc = get_varint d in
  let sn_tag = get_str d in
  let sn_label = get_str d in
  let sn_path_id = get_varint d in
  let sn_attrs =
    get_list
      (fun d ->
        let k = get_str d in
        let v = get_str d in
        (k, v))
      d
  in
  let sn_items =
    get_list
      (fun d : Update.shadow_item ->
        match get_byte d with
        | 0 -> Update.Sh_text (get_str d)
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
      put_str b d.Graph.name;
      put_list put_str b d.Graph.attrs;
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
        let name = get_str d in
        let attrs = get_list get_str d in
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
  let d = dec_of_string s in
  let m_schema = get_schema d in
  let m_shadow = get_opt get_shadow d in
  let m_extras = get_opt get_extras d in
  if not (at_end d) then corrupt "trailing bytes after checkpoint meta";
  { m_schema; m_shadow; m_extras }
