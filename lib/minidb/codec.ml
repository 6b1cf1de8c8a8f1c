exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun m -> raise (Corrupt m)) fmt

(* DB2 added the partition-spec bytes after the column list; DB3 appended
   a content-index spec after the btree index list, which DB4 drops again;
   DB5 appends the declared key columns after the index list. Older files
   are not readable. *)
let magic = "PPFXDB5"

(* --- primitives ------------------------------------------------------ *)

(* One encoding serves database images, the WAL layer's records and
   sidecars, and the wire protocol's messages: writers append to a
   [Buffer.t], readers advance a cursor over [s.(pos .. lim-1)]. Running
   out of input is a fault, never [End_of_file]; the cursor's [fail]
   turns a fault into the exception its reader expects. *)

type fault = Truncated | Bad_varint | Bad_tag of int

type cursor = { s : string; mutable pos : int; lim : int; fail : fault -> exn }

let corrupt_of_fault = function
  | Truncated -> Corrupt "truncated input"
  | Bad_varint -> Corrupt "varint too long"
  | Bad_tag t -> Corrupt (Printf.sprintf "unknown tag byte %d" t)

let cursor ?(fail = corrupt_of_fault) ?(off = 0) ?len s =
  let lim = match len with None -> String.length s | Some n -> off + n in
  if off < 0 || off > lim || lim > String.length s then invalid_arg "Codec.cursor";
  { s; pos = off; lim; fail }

let remaining d = d.lim - d.pos

let get_byte d =
  if d.pos >= d.lim then raise (d.fail Truncated)
  else begin
    let c = Char.code (String.unsafe_get d.s d.pos) in
    d.pos <- d.pos + 1;
    c
  end

(* [n > remaining] rather than [pos + n > lim]: a hostile length near
   [max_int] must not overflow past the check. *)
let get_bytes d n =
  if n < 0 || n > d.lim - d.pos then raise (d.fail Truncated)
  else begin
    let r = String.sub d.s d.pos n in
    d.pos <- d.pos + n;
    r
  end

let put_varint b n =
  (* unsigned LEB128; negative ints are zigzag-encoded first *)
  let n = ref ((n lsl 1) lxor (n asr (Sys.int_size - 1))) in
  while !n lsr 7 <> 0 do
    Buffer.add_char b (Char.chr ((!n land 0x7F) lor 0x80));
    n := !n lsr 7
  done;
  Buffer.add_char b (Char.chr !n)

(* Top-level, so that a call allocates no closure. *)
let rec get_leb128 d shift acc =
  if shift > Sys.int_size then raise (d.fail Bad_varint);
  let byte = get_byte d in
  let acc = acc lor ((byte land 0x7F) lsl shift) in
  if byte land 0x80 <> 0 then get_leb128 d (shift + 7) acc else acc

let get_varint d =
  let z = get_leb128 d 0 0 in
  (z lsr 1) lxor (-(z land 1))

let put_string b s =
  put_varint b (String.length s);
  Buffer.add_string b s

let get_string d = get_bytes d (get_varint d)

let put_bool b v = Buffer.add_char b (if v then '\001' else '\000')

let get_bool d =
  match get_byte d with 0 -> false | 1 -> true | c -> raise (d.fail (Bad_tag c))

let put_opt f b = function
  | None -> Buffer.add_char b '\000'
  | Some v ->
    Buffer.add_char b '\001';
    f b v

let get_opt f d = if get_bool d then Some (f d) else None

let put_list f b l =
  put_varint b (List.length l);
  List.iter (f b) l

(* Every element takes at least one byte, so a count past the bytes
   left is a truncation, caught before anything is built for it. *)
let get_count d =
  let n = get_varint d in
  if n < 0 || n > d.lim - d.pos then raise (d.fail Truncated);
  n

let get_list f d = List.init (get_count d) (fun _ -> f d)

(* --- values --------------------------------------------------------- *)

let put_value b (v : Value.t) =
  match v with
  | Value.Null -> Buffer.add_char b '\000'
  | Value.Int i ->
    Buffer.add_char b '\001';
    put_varint b i
  | Value.Float f ->
    Buffer.add_char b '\002';
    Buffer.add_int64_le b (Int64.bits_of_float f)
  | Value.Str s ->
    Buffer.add_char b '\003';
    put_string b s
  | Value.Bin s ->
    Buffer.add_char b '\004';
    put_string b s

let get_value d : Value.t =
  match get_byte d with
  | 0 -> Value.Null
  | 1 -> Value.Int (get_varint d)
  | 2 ->
    if d.lim - d.pos < 8 then raise (d.fail Truncated);
    let f = Int64.float_of_bits (String.get_int64_le d.s d.pos) in
    d.pos <- d.pos + 8;
    Value.Float f
  | 3 -> Value.Str (get_string d)
  | 4 -> Value.Bin (get_string d)
  | tag -> raise (d.fail (Bad_tag tag))

let put_values b row =
  put_varint b (Array.length row);
  for i = 0 to Array.length row - 1 do
    put_value b (Array.unsafe_get row i)
  done

let get_values d =
  let n = get_count d in
  let row = Array.make n Value.Null in
  for i = 0 to n - 1 do
    Array.unsafe_set row i (get_value d)
  done;
  row

let ty_code = function
  | Value.Tint -> 0
  | Value.Tfloat -> 1
  | Value.Tstr -> 2
  | Value.Tbin -> 3

let ty_of_code = function
  | 0 -> Value.Tint
  | 1 -> Value.Tfloat
  | 2 -> Value.Tstr
  | 3 -> Value.Tbin
  | c -> corrupt "unknown type code %d" c

(* --- tables and databases ------------------------------------------- *)

let put_table b table =
  put_string b (Table.name table);
  let columns = Table.columns table in
  put_varint b (List.length columns);
  List.iter
    (fun (c : Table.column) ->
      put_string b c.Table.name;
      Buffer.add_char b (Char.chr (ty_code c.Table.ty)))
    columns;
  (match Table.partition_spec table with
   | None -> Buffer.add_char b '\000'
   | Some spec ->
     Buffer.add_char b '\001';
     put_string b spec.Table.part_col;
     put_string b spec.Table.part_sort);
  put_varint b (Table.live_count table);
  Table.iter_rows (fun _ row -> Array.iter (put_value b) row) table;
  let indexes = Table.indexes table in
  put_varint b (List.length indexes);
  List.iter
    (fun (cols, _) ->
      put_varint b (List.length cols);
      List.iter (put_string b) cols)
    indexes;
  let keys = Table.keys table in
  put_varint b (List.length keys);
  List.iter (put_string b) keys

let get_table db d =
  let name = get_string d in
  let ncols = get_varint d in
  if ncols <= 0 then corrupt "table %s has no columns" name;
  let columns =
    List.init ncols (fun _ ->
        let cname = get_string d in
        let ty = ty_of_code (get_byte d) in
        { Table.name = cname; ty })
  in
  let has_column c = List.exists (fun (col : Table.column) -> col.Table.name = c) columns in
  let partition =
    match get_byte d with
    | 0 -> None
    | 1 ->
      let part_col = get_string d in
      let part_sort = get_string d in
      if not (has_column part_col) then
        corrupt "table %s: partition column %s not in the column list" name part_col;
      if not (has_column part_sort) then
        corrupt "table %s: partition sort column %s not in the column list" name
          part_sort;
      Some { Table.part_col; part_sort }
    | tag -> corrupt "table %s: unknown partition tag %d" name tag
  in
  let table = Database.create_table ?partition db ~name ~columns in
  let nrows = get_varint d in
  if nrows < 0 then corrupt "table %s has negative row count" name;
  for _ = 1 to nrows do
    let row = Array.init ncols (fun _ -> get_value d) in
    ignore (Table.insert table row)
  done;
  let nindexes = get_varint d in
  if nindexes < 0 then corrupt "table %s has negative index count" name;
  for _ = 1 to nindexes do
    let n = get_varint d in
    if n <= 0 then corrupt "table %s: index with no columns" name;
    let cols = List.init n (fun _ -> get_string d) in
    List.iter
      (fun c ->
        if not (has_column c) then
          corrupt "table %s: index on unknown column %s" name c)
      cols;
    Table.create_index table cols
  done;
  let nkeys = get_varint d in
  if nkeys < 0 then corrupt "table %s has negative key count" name;
  for _ = 1 to nkeys do
    let c = get_string d in
    if not (has_column c) then corrupt "table %s: key on unknown column %s" name c;
    Table.create_key table c
  done

let database_to_string db =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  let tables = Database.tables db in
  put_varint b (List.length tables);
  List.iter (put_table b) tables;
  Buffer.contents b

let database_of_string s =
  if not (String.starts_with ~prefix:magic s) then
    corrupt "bad magic (not a ppfx database file)";
  let d = cursor ~off:(String.length magic) s in
  let db = Database.create () in
  (try
     let ntables = get_varint d in
     if ntables < 0 then corrupt "negative table count";
     for _ = 1 to ntables do
       get_table db d
     done
   with
   | Invalid_argument msg -> corrupt "invalid content: %s" msg
   | Not_found -> corrupt "invalid content: dangling reference");
  db

let write_database oc db = output_string oc (database_to_string db)
let read_database ic = database_of_string (In_channel.input_all ic)
let save path db = Out_channel.with_open_bin path (fun oc -> write_database oc db)
let load path = In_channel.with_open_bin path read_database

(* --- typed load ----------------------------------------------------- *)

type error = Io_error of string | Corrupted of string

let error_to_string = function
  | Io_error m -> "io error: " ^ m
  | Corrupted m -> "corrupt store: " ^ m

let load_result path =
  match load path with
  | db -> Ok db
  | exception Corrupt msg -> Error (Corrupted msg)
  | exception Sys_error msg -> Error (Io_error msg)

let of_string_result s =
  match database_of_string s with
  | db -> Ok db
  | exception Corrupt msg -> Error (Corrupted msg)
