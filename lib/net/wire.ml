module Value = Ppfx_minidb.Value
module Codec = Ppfx_minidb.Codec

let protocol_version = 5

let default_max_frame = 16 * 1024 * 1024

type codec_error =
  | Truncated
  | Oversized of int
  | Bad_tag of int
  | Bad_varint
  | Trailing of int

exception Codec of codec_error

let codec_error_to_string = function
  | Truncated -> "truncated frame"
  | Oversized n -> Printf.sprintf "oversized frame (%d bytes)" n
  | Bad_tag t -> Printf.sprintf "unknown tag 0x%02x" t
  | Bad_varint -> "varint longer than ten bytes"
  | Trailing n -> Printf.sprintf "%d trailing bytes after message" n

type error_code =
  | Protocol
  | Parse_error
  | Unsupported
  | Runtime
  | Admission
  | Bad_statement
  | Version_mismatch
  | Shutting_down

let error_code_to_string = function
  | Protocol -> "protocol"
  | Parse_error -> "parse"
  | Unsupported -> "unsupported"
  | Runtime -> "runtime"
  | Admission -> "admission"
  | Bad_statement -> "bad-statement"
  | Version_mismatch -> "version-mismatch"
  | Shutting_down -> "shutting-down"

let error_code_to_int = function
  | Protocol -> 1
  | Parse_error -> 2
  | Unsupported -> 3
  | Runtime -> 4
  | Admission -> 5
  | Bad_statement -> 6
  | Version_mismatch -> 7
  | Shutting_down -> 8

let error_code_of_int = function
  | 1 -> Protocol
  | 2 -> Parse_error
  | 3 -> Unsupported
  | 4 -> Runtime
  | 5 -> Admission
  | 6 -> Bad_statement
  | 7 -> Version_mismatch
  | 8 -> Shutting_down
  | t -> raise (Codec (Bad_tag t))

type col_ty = Tany | Tint | Tfloat | Ttext | Tbin

type column = { name : string; ty : col_ty }

let col_ty_of_value_ty = function
  | Value.Tint -> Tint
  | Value.Tfloat -> Tfloat
  | Value.Tstr -> Ttext
  | Value.Tbin -> Tbin

let col_ty_to_string = function
  | Tany -> "any"
  | Tint -> "int"
  | Tfloat -> "float"
  | Ttext -> "text"
  | Tbin -> "bin"

let col_ty_to_int = function Tany -> 0 | Tint -> 1 | Tfloat -> 2 | Ttext -> 3 | Tbin -> 4

let col_ty_of_int = function
  | 0 -> Tany
  | 1 -> Tint
  | 2 -> Tfloat
  | 3 -> Ttext
  | 4 -> Tbin
  | t -> raise (Codec (Bad_tag t))

type update_op =
  | Op_insert of { parent : int; before : int option; fragment : string }
  | Op_delete of { target : int }
  | Op_replace of { target : int; fragment : string }
  | Op_set_attr of { target : int; name : string; value : string option }
  | Op_set_text of { target : int; text : string }

type request =
  | Hello of { version : int; client : string }
  | Prepare of { query : string; values : bool }
  | Execute of { stmt : int }
  | Close_stmt of { stmt : int }
  | Ping
  | Quit
  | Update of { op : update_op }
  | Query of { query : string; values : bool }

type response =
  | Welcome of { version : int; server : string; shards : int }
  | Prepared of {
      stmt : int;
      columns : column list;
      empty : bool;
      sql : string option;
    }
  | Rows of { stmt : int; rows : Value.t array list; more : bool }
  | Pong
  | Error of { code : error_code; message : string }
  | Bye
  | Updated of {
      inserted : int;
      updated : int;
      deleted : int;
      new_paths : int;
      dead_paths : int;
    }

(* ------------------------------------------------------------------ *)
(* Message codec: every field through Codec's primitives               *)
(* ------------------------------------------------------------------ *)

(* A Codec fault inside a frame is the matching typed wire error. *)
let fault_error : Codec.fault -> exn = function
  | Codec.Truncated -> Codec Truncated
  | Codec.Bad_varint -> Codec Bad_varint
  | Codec.Bad_tag t -> Codec (Bad_tag t)

let put_update_op b = function
  | Op_insert { parent; before; fragment } ->
    Buffer.add_char b '\001';
    Codec.put_varint b parent;
    Codec.put_opt Codec.put_varint b before;
    Codec.put_string b fragment
  | Op_delete { target } ->
    Buffer.add_char b '\002';
    Codec.put_varint b target
  | Op_replace { target; fragment } ->
    Buffer.add_char b '\003';
    Codec.put_varint b target;
    Codec.put_string b fragment
  | Op_set_attr { target; name; value } ->
    Buffer.add_char b '\004';
    Codec.put_varint b target;
    Codec.put_string b name;
    Codec.put_opt Codec.put_string b value
  | Op_set_text { target; text } ->
    Buffer.add_char b '\005';
    Codec.put_varint b target;
    Codec.put_string b text

let encode_request b = function
  | Hello { version; client } ->
    Buffer.add_char b '\x01';
    Codec.put_varint b version;
    Codec.put_string b client
  | Prepare { query; values } ->
    Buffer.add_char b '\x02';
    Codec.put_string b query;
    Codec.put_bool b values
  | Execute { stmt } ->
    Buffer.add_char b '\x03';
    Codec.put_varint b stmt
  | Close_stmt { stmt } ->
    Buffer.add_char b '\x05';
    Codec.put_varint b stmt
  | Ping -> Buffer.add_char b '\x06'
  | Quit -> Buffer.add_char b '\x07'
  | Update { op } ->
    Buffer.add_char b '\x08';
    put_update_op b op
  | Query { query; values } ->
    Buffer.add_char b '\x09';
    Codec.put_string b query;
    Codec.put_bool b values

let put_column b { name; ty } =
  Codec.put_string b name;
  Buffer.add_char b (Char.chr (col_ty_to_int ty))

let encode_response b = function
  | Welcome { version; server; shards } ->
    Buffer.add_char b '\x81';
    Codec.put_varint b version;
    Codec.put_string b server;
    Codec.put_varint b shards
  | Prepared { stmt; columns; empty; sql } ->
    Buffer.add_char b '\x82';
    Codec.put_varint b stmt;
    Codec.put_bool b empty;
    Codec.put_list put_column b columns;
    Codec.put_opt Codec.put_string b sql
  | Rows { stmt; rows; more } ->
    Buffer.add_char b '\x83';
    Codec.put_varint b stmt;
    Codec.put_bool b more;
    Codec.put_list Codec.put_values b rows
  | Pong -> Buffer.add_char b '\x85'
  | Error { code; message } ->
    Buffer.add_char b '\x86';
    Buffer.add_char b (Char.chr (error_code_to_int code));
    Codec.put_string b message
  | Bye -> Buffer.add_char b '\x87'
  | Updated { inserted; updated; deleted; new_paths; dead_paths } ->
    Buffer.add_char b '\x88';
    Codec.put_varint b inserted;
    Codec.put_varint b updated;
    Codec.put_varint b deleted;
    Codec.put_varint b new_paths;
    Codec.put_varint b dead_paths

let get_update_op d =
  match Codec.get_byte d with
  | 1 ->
    let parent = Codec.get_varint d in
    let before = Codec.get_opt Codec.get_varint d in
    let fragment = Codec.get_string d in
    Op_insert { parent; before; fragment }
  | 2 -> Op_delete { target = Codec.get_varint d }
  | 3 ->
    let target = Codec.get_varint d in
    let fragment = Codec.get_string d in
    Op_replace { target; fragment }
  | 4 ->
    let target = Codec.get_varint d in
    let name = Codec.get_string d in
    let value = Codec.get_opt Codec.get_string d in
    Op_set_attr { target; name; value }
  | 5 ->
    let target = Codec.get_varint d in
    let text = Codec.get_string d in
    Op_set_text { target; text }
  | t -> raise (Codec (Bad_tag t))

let decode_request d =
  match Codec.get_byte d with
  | 0x01 ->
    let version = Codec.get_varint d in
    let client = Codec.get_string d in
    Hello { version; client }
  | 0x02 ->
    let query = Codec.get_string d in
    let values = Codec.get_bool d in
    Prepare { query; values }
  | 0x03 -> Execute { stmt = Codec.get_varint d }
  | 0x05 -> Close_stmt { stmt = Codec.get_varint d }
  | 0x06 -> Ping
  | 0x07 -> Quit
  | 0x08 -> Update { op = get_update_op d }
  | 0x09 ->
    let query = Codec.get_string d in
    let values = Codec.get_bool d in
    Query { query; values }
  | t -> raise (Codec (Bad_tag t))

let get_column d =
  let name = Codec.get_string d in
  let ty = col_ty_of_int (Codec.get_byte d) in
  { name; ty }

let decode_response d =
  match Codec.get_byte d with
  | 0x81 ->
    let version = Codec.get_varint d in
    let server = Codec.get_string d in
    let shards = Codec.get_varint d in
    Welcome { version; server; shards }
  | 0x82 ->
    let stmt = Codec.get_varint d in
    let empty = Codec.get_bool d in
    let columns = Codec.get_list get_column d in
    let sql = Codec.get_opt Codec.get_string d in
    Prepared { stmt; columns; empty; sql }
  | 0x83 ->
    let stmt = Codec.get_varint d in
    let more = Codec.get_bool d in
    let rows = Codec.get_list Codec.get_values d in
    Rows { stmt; rows; more }
  | 0x85 -> Pong
  | 0x86 ->
    let code = error_code_of_int (Codec.get_byte d) in
    let message = Codec.get_string d in
    Error { code; message }
  | 0x87 -> Bye
  | 0x88 ->
    let inserted = Codec.get_varint d in
    let updated = Codec.get_varint d in
    let deleted = Codec.get_varint d in
    let new_paths = Codec.get_varint d in
    let dead_paths = Codec.get_varint d in
    Updated { inserted; updated; deleted; new_paths; dead_paths }
  | t -> raise (Codec (Bad_tag t))

(* Decode one whole message from [s.(off .. off+len-1)]: the window is
   the frame's declared payload, whatever surrounds it. *)
let decode decode_msg s ~off ~len =
  let d = Codec.cursor ~fail:fault_error ~off ~len s in
  let msg = decode_msg d in
  let left = Codec.remaining d in
  if left <> 0 then raise (Codec (Trailing left));
  msg

let payload encode v =
  let b = Buffer.create 64 in
  encode b v;
  Buffer.contents b

let request_payload = payload encode_request
let response_payload = payload encode_response
let request_of_payload s = decode decode_request s ~off:0 ~len:(String.length s)
let response_of_payload s = decode decode_response s ~off:0 ~len:(String.length s)

(* ------------------------------------------------------------------ *)
(* Frame buffers                                                       *)
(* ------------------------------------------------------------------ *)

(* [b.(0 .. len-1)] holds frame bytes: frames queued to write, or bytes
   read and not yet decoded. [enc] is where a message is encoded before
   it is framed into [b]. One per connection end, reused for every
   frame. *)
type buf = { enc : Buffer.t; mutable b : Bytes.t; mutable len : int }

let buf_initial = 4096

(* Capacity a buffer keeps between frames; a larger one grown for an
   oversize frame is dropped after that frame. *)
let buf_retained = 1 lsl 18

let buf_create () = { enc = Buffer.create buf_initial; b = Bytes.create buf_initial; len = 0 }

(* Room for [n] more bytes after [len], keeping the content. *)
let reserve w n =
  let need = w.len + n in
  if need > Bytes.length w.b then begin
    let b = Bytes.create (max need (2 * Bytes.length w.b)) in
    Bytes.blit w.b 0 b 0 w.len;
    w.b <- b
  end

let release w =
  w.len <- 0;
  if Buffer.length w.enc > buf_retained then Buffer.reset w.enc else Buffer.clear w.enc;
  if Bytes.length w.b > buf_retained then w.b <- Bytes.create buf_initial

(* Drop the first [n] bytes, keeping the rest at the front. *)
let consume w n =
  let left = w.len - n in
  if Bytes.length w.b > buf_retained && left <= buf_retained then begin
    let b = Bytes.create (max buf_initial left) in
    Bytes.blit w.b n b 0 left;
    w.b <- b
  end
  else Bytes.blit w.b n w.b 0 left;
  w.len <- left

let frame_length ~max_frame b off =
  let n = Int32.to_int (Bytes.get_int32_be b off) land 0xffffffff in
  if n > max_frame then raise (Codec (Oversized n));
  n

(* ------------------------------------------------------------------ *)
(* Transport                                                           *)
(* ------------------------------------------------------------------ *)

(* Seconds a write waits for room in a full send buffer before it gives
   up: a peer that stops reading cannot hold a server worker longer. *)
let write_stall_bound = 10.0

let rec restart_write fd bytes off len =
  if len > 0 then
    match Unix.write fd bytes off len with
    | n -> restart_write fd bytes (off + n) (len - n)
    | exception Unix.Unix_error (EINTR, _, _) -> restart_write fd bytes off len
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> (
      match Unix.select [] [ fd ] [] write_stall_bound with
      | _, [], _ -> raise (Unix.Unix_error (ETIMEDOUT, "write", ""))
      | _ -> restart_write fd bytes off len
      | exception Unix.Unix_error (EINTR, _, _) -> restart_write fd bytes off len)

(* Encode into [w.enc] and frame it behind its 4-byte length prefix at
   the end of [w.b]. *)
let append encode w msg =
  Buffer.clear w.enc;
  encode w.enc msg;
  let n = Buffer.length w.enc in
  reserve w (4 + n);
  Bytes.set_int32_be w.b w.len (Int32.of_int n);
  Buffer.blit w.enc 0 w.b (w.len + 4) n;
  w.len <- w.len + 4 + n

let queue_request w req = append encode_request w req
let queue_response w resp = append encode_response w resp

(* Frame after whatever is queued, write it all from [w.b]. *)
let send encode w fd msg =
  Fun.protect ~finally:(fun () -> release w) @@ fun () ->
  append encode w msg;
  restart_write fd w.b 0 w.len;
  w.len

let send_request w fd req = send encode_request w fd req
let send_response w fd resp = send encode_response w fd resp

(* Read until [w.b] holds at least [need] bytes, taking whatever else is
   available in the same reads; [false] at end of stream. The descriptor
   blocks, so an [EAGAIN] is an expired receive timeout and raises. *)
let rec fill w fd need =
  w.len >= need
  || begin
    reserve w (max buf_initial (need - w.len));
    match Unix.read fd w.b w.len (Bytes.length w.b - w.len) with
    | 0 -> false
    | k ->
      w.len <- w.len + k;
      fill w fd need
    | exception Unix.Unix_error (EINTR, _, _) -> fill w fd need
  end

(* A stream that cannot continue: drop what it left, raise [e]. *)
let abandon w e =
  release w;
  raise e

let recv_response ?(max_frame = default_max_frame) w fd =
  if not (fill w fd 4) then if w.len = 0 then None else abandon w (Codec Truncated)
  else begin
    let n = try frame_length ~max_frame w.b 0 with e -> abandon w e in
    if not (fill w fd (4 + n)) then abandon w (Codec Truncated);
    (* The frame is consumed whether or not it decodes. *)
    Fun.protect ~finally:(fun () -> consume w (4 + n)) @@ fun () ->
    Some (decode decode_response (Bytes.unsafe_to_string w.b) ~off:4 ~len:n)
  end

let read_some w fd =
  let rec go total =
    reserve w buf_initial;
    let room = Bytes.length w.b - w.len in
    match Unix.read fd w.b w.len room with
    | k ->
      w.len <- w.len + k;
      if k = room then go (total + k) else total + k
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) when total > 0 -> total
  in
  go 0

let take_requests ?(max_frame = default_max_frame) w f =
  let s = Bytes.unsafe_to_string w.b in
  let rec go off =
    if w.len - off < 4 then off
    else begin
      let n = frame_length ~max_frame w.b off in
      if w.len - off - 4 < n then off
      else begin
        f (decode decode_request s ~off:(off + 4) ~len:n);
        go (off + 4 + n)
      end
    end
  in
  let off = go 0 in
  Bytes.blit w.b off w.b 0 (w.len - off);
  w.len <- w.len - off;
  if w.len = 0 then release w
