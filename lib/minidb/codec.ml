exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun m -> raise (Corrupt m)) fmt

(* DB2 added the partition-spec bytes after the column list; DB3 appended
   a content-index spec after the btree index list, which DB4 drops again.
   Older files are not readable. *)
let magic = "PPFXDB4"

(* --- byte sinks and sources ----------------------------------------- *)

(* The same encoder/decoder serves files (the shred CLI, snapshots) and
   in-memory strings (the WAL layer stages snapshot images in memory so
   its fault-injection Io owns every durable byte; the fuzz tests mangle
   images without touching disk). *)

type sink = { put_byte : int -> unit; put_string : string -> unit }

let sink_of_channel oc =
  { put_byte = output_byte oc; put_string = output_string oc }

let sink_of_buffer b =
  {
    put_byte = (fun n -> Buffer.add_char b (Char.chr (n land 0xFF)));
    put_string = Buffer.add_string b;
  }

type src = {
  get_byte : unit -> int;  (** raises [End_of_file] when exhausted *)
  get_string : int -> string;  (** exactly [n] bytes or [End_of_file] *)
}

let src_of_channel ic =
  { get_byte = (fun () -> input_byte ic); get_string = really_input_string ic }

let src_of_string s =
  let pos = ref 0 in
  let get_byte () =
    if !pos >= String.length s then raise End_of_file
    else begin
      let c = Char.code s.[!pos] in
      incr pos;
      c
    end
  in
  let get_string n =
    if n < 0 || !pos + n > String.length s then raise End_of_file
    else begin
      let r = String.sub s !pos n in
      pos := !pos + n;
      r
    end
  in
  { get_byte; get_string }

(* --- primitive writers --------------------------------------------- *)

let write_varint sk n =
  (* unsigned LEB128; negative ints are zigzag-encoded first *)
  let n = ref ((n lsl 1) lxor (n asr (Sys.int_size - 1))) in
  let continue_ = ref true in
  while !continue_ do
    let byte = !n land 0x7F in
    n := !n lsr 7;
    if !n = 0 then begin
      sk.put_byte byte;
      continue_ := false
    end
    else sk.put_byte (byte lor 0x80)
  done

let read_varint src =
  let rec go shift acc =
    if shift > Sys.int_size then corrupt "varint too long";
    let byte = src.get_byte () in
    let acc = acc lor ((byte land 0x7F) lsl shift) in
    if byte land 0x80 <> 0 then go (shift + 7) acc else acc
  in
  let z = go 0 0 in
  (z lsr 1) lxor (-(z land 1))

let write_string sk s =
  write_varint sk (String.length s);
  sk.put_string s

let read_string src =
  let n = read_varint src in
  if n < 0 then corrupt "negative string length";
  src.get_string n

(* --- values --------------------------------------------------------- *)

let write_value sk (v : Value.t) =
  match v with
  | Value.Null -> sk.put_byte 0
  | Value.Int i ->
    sk.put_byte 1;
    write_varint sk i
  | Value.Float f ->
    sk.put_byte 2;
    let bits = Int64.bits_of_float f in
    for k = 0 to 7 do
      sk.put_byte (Int64.to_int (Int64.shift_right_logical bits (k * 8)) land 0xFF)
    done
  | Value.Str s ->
    sk.put_byte 3;
    write_string sk s
  | Value.Bin b ->
    sk.put_byte 4;
    write_string sk b

let read_value src : Value.t =
  match src.get_byte () with
  | 0 -> Value.Null
  | 1 -> Value.Int (read_varint src)
  | 2 ->
    let bits = ref 0L in
    for k = 0 to 7 do
      bits := Int64.logor !bits (Int64.shift_left (Int64.of_int (src.get_byte ())) (k * 8))
    done;
    Value.Float (Int64.float_of_bits !bits)
  | 3 -> Value.Str (read_string src)
  | 4 -> Value.Bin (read_string src)
  | tag -> corrupt "unknown value tag %d" tag

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

let write_table sk table =
  write_string sk (Table.name table);
  let columns = Table.columns table in
  write_varint sk (List.length columns);
  List.iter
    (fun (c : Table.column) ->
      write_string sk c.Table.name;
      sk.put_byte (ty_code c.Table.ty))
    columns;
  (match Table.partition_spec table with
   | None -> sk.put_byte 0
   | Some spec ->
     sk.put_byte 1;
     write_string sk spec.Table.part_col;
     write_string sk spec.Table.part_sort);
  write_varint sk (Table.live_count table);
  Table.iter_rows (fun _ row -> Array.iter (write_value sk) row) table;
  let indexes = Table.indexes table in
  write_varint sk (List.length indexes);
  List.iter
    (fun (cols, _) ->
      write_varint sk (List.length cols);
      List.iter (write_string sk) cols)
    indexes

let read_table db src =
  let name = read_string src in
  let ncols = read_varint src in
  if ncols <= 0 then corrupt "table %s has no columns" name;
  let columns =
    List.init ncols (fun _ ->
        let cname = read_string src in
        let ty = ty_of_code (src.get_byte ()) in
        { Table.name = cname; ty })
  in
  let has_column c = List.exists (fun (col : Table.column) -> col.Table.name = c) columns in
  let partition =
    match src.get_byte () with
    | 0 -> None
    | 1 ->
      let part_col = read_string src in
      let part_sort = read_string src in
      if not (has_column part_col) then
        corrupt "table %s: partition column %s not in the column list" name part_col;
      if not (has_column part_sort) then
        corrupt "table %s: partition sort column %s not in the column list" name
          part_sort;
      Some { Table.part_col; part_sort }
    | tag -> corrupt "table %s: unknown partition tag %d" name tag
  in
  let table = Database.create_table ?partition db ~name ~columns in
  let nrows = read_varint src in
  if nrows < 0 then corrupt "table %s has negative row count" name;
  for _ = 1 to nrows do
    let row = Array.init ncols (fun _ -> read_value src) in
    ignore (Table.insert table row)
  done;
  let nindexes = read_varint src in
  if nindexes < 0 then corrupt "table %s has negative index count" name;
  for _ = 1 to nindexes do
    let n = read_varint src in
    if n <= 0 then corrupt "table %s: index with no columns" name;
    let cols = List.init n (fun _ -> read_string src) in
    List.iter
      (fun c ->
        if not (has_column c) then
          corrupt "table %s: index on unknown column %s" name c)
      cols;
    Table.create_index table cols
  done

let write_database_sink sk db =
  sk.put_string magic;
  let tables = Database.tables db in
  write_varint sk (List.length tables);
  List.iter (write_table sk) tables

let read_database_src src =
  let m = try src.get_string (String.length magic) with End_of_file -> "" in
  if not (String.equal m magic) then corrupt "bad magic (not a ppfx database file)";
  let db = Database.create () in
  (try
     let ntables = read_varint src in
     if ntables < 0 then corrupt "negative table count";
     for _ = 1 to ntables do
       read_table db src
     done
   with
   | End_of_file -> corrupt "truncated database file"
   | Invalid_argument msg -> corrupt "invalid content: %s" msg
   | Not_found -> corrupt "invalid content: dangling reference");
  db

let write_database oc db = write_database_sink (sink_of_channel oc) db
let read_database ic = read_database_src (src_of_channel ic)

let database_to_string db =
  let b = Buffer.create 4096 in
  write_database_sink (sink_of_buffer b) db;
  Buffer.contents b

let database_of_string s = read_database_src (src_of_string s)

let save path db =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_database oc db)

let load path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_database ic)

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
  | exception End_of_file -> Error (Corrupted "truncated database file")

let of_string_result s =
  match database_of_string s with
  | db -> Ok db
  | exception Corrupt msg -> Error (Corrupted msg)
  | exception End_of_file -> Error (Corrupted "truncated database file")
