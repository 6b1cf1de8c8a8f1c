module Value = Ppfx_minidb.Value

let protocol_version = 2

let default_max_frame = 16 * 1024 * 1024

type codec_error =
  | Truncated
  | Oversized of int
  | Bad_tag of int
  | Trailing of int

exception Codec of codec_error

let codec_error_to_string = function
  | Truncated -> "truncated frame"
  | Oversized n -> Printf.sprintf "oversized frame (%d bytes)" n
  | Bad_tag t -> Printf.sprintf "unknown tag 0x%02x" t
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
  | Execute of { stmt : int; window : int }
  | Fetch of { stmt : int; window : int }
  | Close_stmt of { stmt : int }
  | Ping
  | Quit
  | Update of { op : update_op }

type response =
  | Welcome of { version : int; server : string; shards : int }
  | Prepared of {
      stmt : int;
      columns : column list;
      empty : bool;
      sql : string option;
    }
  | Rows of { stmt : int; rows : Value.t array list; more : bool }
  | Closed of { stmt : int }
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
(* Frame buffers                                                       *)
(* ------------------------------------------------------------------ *)

(* A growable byte buffer: [b.(0 .. len-1)] is the content. One per
   connection end, reused for every frame it sends or receives. *)
type buf = { mutable b : Bytes.t; mutable len : int }

let buf_initial = 4096

(* Capacity a buffer keeps between frames; a larger one grown for an
   oversize frame is dropped after that frame. *)
let buf_retained = 1 lsl 18

let buf_create () = { b = Bytes.create buf_initial; len = 0 }

let buf_contents w = Bytes.sub_string w.b 0 w.len

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
  if Bytes.length w.b > buf_retained then w.b <- Bytes.create buf_initial

(* ------------------------------------------------------------------ *)
(* Primitive writers                                                   *)
(* ------------------------------------------------------------------ *)

let put_u8 w v =
  reserve w 1;
  Bytes.unsafe_set w.b w.len (Char.unsafe_chr (v land 0xff));
  w.len <- w.len + 1

let put_u16 w v =
  reserve w 2;
  Bytes.set_uint16_be w.b w.len (v land 0xffff);
  w.len <- w.len + 2

let put_u32 w v =
  reserve w 4;
  Bytes.set_int32_be w.b w.len (Int32.of_int v);
  w.len <- w.len + 4

let put_i64 w v =
  reserve w 8;
  Bytes.set_int64_be w.b w.len (Int64.of_int v);
  w.len <- w.len + 8

let put_f64 w v =
  reserve w 8;
  Bytes.set_int64_be w.b w.len (Int64.bits_of_float v);
  w.len <- w.len + 8

let put_str w s =
  let n = String.length s in
  put_u32 w n;
  reserve w n;
  Bytes.blit_string s 0 w.b w.len n;
  w.len <- w.len + n

let put_value buf = function
  | Value.Null -> put_u8 buf 0
  | Value.Int n ->
    put_u8 buf 1;
    put_i64 buf n
  | Value.Float f ->
    put_u8 buf 2;
    put_f64 buf f
  | Value.Str s ->
    put_u8 buf 3;
    put_str buf s
  | Value.Bin s ->
    put_u8 buf 4;
    put_str buf s

(* ------------------------------------------------------------------ *)
(* Primitive readers: every access is bounds-checked against the        *)
(* payload, so a lying length field inside the payload surfaces as      *)
(* [Truncated] instead of a read past the frame.                        *)
(* ------------------------------------------------------------------ *)

(* [s.(0 .. lim-1)] is the payload; [s] may be a longer receive buffer. *)
type reader = { s : string; lim : int; mutable pos : int }

let need r n = if r.pos + n > r.lim then raise (Codec Truncated)

let get_u8 r =
  need r 1;
  let v = Char.code r.s.[r.pos] in
  r.pos <- r.pos + 1;
  v

let get_u16 r =
  need r 2;
  let v = String.get_uint16_be r.s r.pos in
  r.pos <- r.pos + 2;
  v

let get_u32 r =
  need r 4;
  let v = Int32.to_int (String.get_int32_be r.s r.pos) land 0xffffffff in
  r.pos <- r.pos + 4;
  v

let get_i64 r =
  need r 8;
  let v = Int64.to_int (String.get_int64_be r.s r.pos) in
  r.pos <- r.pos + 8;
  v

let get_f64 r =
  need r 8;
  let v = Int64.float_of_bits (String.get_int64_be r.s r.pos) in
  r.pos <- r.pos + 8;
  v

let get_str r =
  let n = get_u32 r in
  need r n;
  let v = String.sub r.s r.pos n in
  r.pos <- r.pos + n;
  v

let get_value r =
  match get_u8 r with
  | 0 -> Value.Null
  | 1 -> Value.Int (get_i64 r)
  | 2 -> Value.Float (get_f64 r)
  | 3 -> Value.Str (get_str r)
  | 4 -> Value.Bin (get_str r)
  | t -> raise (Codec (Bad_tag t))

let finish r v =
  let left = r.lim - r.pos in
  if left <> 0 then raise (Codec (Trailing left));
  v

(* ------------------------------------------------------------------ *)
(* Message codec                                                       *)
(* ------------------------------------------------------------------ *)

let encode_request buf req =
  match req with
   | Hello { version; client } ->
     put_u8 buf 0x01;
     put_u16 buf version;
     put_str buf client
   | Prepare { query; values } ->
     put_u8 buf 0x02;
     put_str buf query;
     put_u8 buf (Bool.to_int values)
   | Execute { stmt; window } ->
     put_u8 buf 0x03;
     put_u32 buf stmt;
     put_u32 buf window
   | Fetch { stmt; window } ->
     put_u8 buf 0x04;
     put_u32 buf stmt;
     put_u32 buf window
   | Close_stmt { stmt } ->
     put_u8 buf 0x05;
     put_u32 buf stmt
   | Ping -> put_u8 buf 0x06
   | Quit -> put_u8 buf 0x07
   | Update { op } ->
     put_u8 buf 0x08;
     (* Element ids ride as i64; fragments travel as XML text and are
        parsed (and schema-validated) server-side. *)
     (match op with
      | Op_insert { parent; before; fragment } ->
        put_u8 buf 1;
        put_i64 buf parent;
        (match before with
         | None -> put_u8 buf 0
         | Some b ->
           put_u8 buf 1;
           put_i64 buf b);
        put_str buf fragment
      | Op_delete { target } ->
        put_u8 buf 2;
        put_i64 buf target
      | Op_replace { target; fragment } ->
        put_u8 buf 3;
        put_i64 buf target;
        put_str buf fragment
      | Op_set_attr { target; name; value } ->
        put_u8 buf 4;
        put_i64 buf target;
        put_str buf name;
        (match value with
         | None -> put_u8 buf 0
         | Some v ->
           put_u8 buf 1;
           put_str buf v)
      | Op_set_text { target; text } ->
        put_u8 buf 5;
        put_i64 buf target;
        put_str buf text)

let encode_response buf resp =
  match resp with
   | Welcome { version; server; shards } ->
     put_u8 buf 0x81;
     put_u16 buf version;
     put_str buf server;
     put_u16 buf shards
   | Prepared { stmt; columns; empty; sql } ->
     put_u8 buf 0x82;
     put_u32 buf stmt;
     put_u8 buf (if empty then 1 else 0);
     put_u32 buf (List.length columns);
     List.iter
       (fun { name; ty } ->
         put_str buf name;
         put_u8 buf (col_ty_to_int ty))
       columns;
     (match sql with
      | None -> put_u8 buf 0
      | Some s ->
        put_u8 buf 1;
        put_str buf s)
   | Rows { stmt; rows; more } ->
     put_u8 buf 0x83;
     put_u32 buf stmt;
     put_u8 buf (if more then 1 else 0);
     put_u32 buf (List.length rows);
     List.iter
       (fun row ->
         put_u16 buf (Array.length row);
         Array.iter (put_value buf) row)
       rows
   | Closed { stmt } ->
     put_u8 buf 0x84;
     put_u32 buf stmt
   | Pong -> put_u8 buf 0x85
   | Error { code; message } ->
     put_u8 buf 0x86;
     put_u8 buf (error_code_to_int code);
     put_str buf message
   | Bye -> put_u8 buf 0x87
   | Updated { inserted; updated; deleted; new_paths; dead_paths } ->
     put_u8 buf 0x88;
     put_u32 buf inserted;
     put_u32 buf updated;
     put_u32 buf deleted;
     put_u32 buf new_paths;
     put_u32 buf dead_paths

let payload encode v =
  let w = { b = Bytes.create 256; len = 0 } in
  encode w v;
  buf_contents w

let request_payload = payload encode_request
let response_payload = payload encode_response

let request_of_payload s =
  let r = { s; lim = String.length s; pos = 0 } in
  let req =
    match get_u8 r with
    | 0x01 ->
      let version = get_u16 r in
      let client = get_str r in
      Hello { version; client }
    | 0x02 ->
      let query = get_str r in
      let values =
        match get_u8 r with 0 -> false | 1 -> true | t -> raise (Codec (Bad_tag t))
      in
      Prepare { query; values }
    | 0x03 ->
      let stmt = get_u32 r in
      let window = get_u32 r in
      Execute { stmt; window }
    | 0x04 ->
      let stmt = get_u32 r in
      let window = get_u32 r in
      Fetch { stmt; window }
    | 0x05 -> Close_stmt { stmt = get_u32 r }
    | 0x06 -> Ping
    | 0x07 -> Quit
    | 0x08 ->
      let op =
        match get_u8 r with
        | 1 ->
          let parent = get_i64 r in
          let before = match get_u8 r with 0 -> None | _ -> Some (get_i64 r) in
          let fragment = get_str r in
          Op_insert { parent; before; fragment }
        | 2 -> Op_delete { target = get_i64 r }
        | 3 ->
          let target = get_i64 r in
          let fragment = get_str r in
          Op_replace { target; fragment }
        | 4 ->
          let target = get_i64 r in
          let name = get_str r in
          let value = match get_u8 r with 0 -> None | _ -> Some (get_str r) in
          Op_set_attr { target; name; value }
        | 5 ->
          let target = get_i64 r in
          let text = get_str r in
          Op_set_text { target; text }
        | t -> raise (Codec (Bad_tag t))
      in
      Update { op }
    | t -> raise (Codec (Bad_tag t))
  in
  finish r req

let decode_response r =
  let resp =
    match get_u8 r with
    | 0x81 ->
      let version = get_u16 r in
      let server = get_str r in
      let shards = get_u16 r in
      Welcome { version; server; shards }
    | 0x82 ->
      let stmt = get_u32 r in
      let empty = get_u8 r = 1 in
      let ncols = get_u32 r in
      let columns =
        List.init ncols (fun _ ->
            let name = get_str r in
            let ty = col_ty_of_int (get_u8 r) in
            { name; ty })
      in
      let sql = match get_u8 r with 0 -> None | _ -> Some (get_str r) in
      Prepared { stmt; columns; empty; sql }
    | 0x83 ->
      let stmt = get_u32 r in
      let more = get_u8 r = 1 in
      let nrows = get_u32 r in
      let rows =
        List.init nrows (fun _ ->
            let ncols = get_u16 r in
            Array.init ncols (fun _ -> get_value r))
      in
      Rows { stmt; rows; more }
    | 0x84 -> Closed { stmt = get_u32 r }
    | 0x85 -> Pong
    | 0x86 ->
      let code = error_code_of_int (get_u8 r) in
      let message = get_str r in
      Error { code; message }
    | 0x87 -> Bye
    | 0x88 ->
      let inserted = get_u32 r in
      let updated = get_u32 r in
      let deleted = get_u32 r in
      let new_paths = get_u32 r in
      let dead_paths = get_u32 r in
      Updated { inserted; updated; deleted; new_paths; dead_paths }
    | t -> raise (Codec (Bad_tag t))
  in
  finish r resp

let response_of_payload s = decode_response { s; lim = String.length s; pos = 0 }

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let frame_of_payload payload =
  let n = String.length payload in
  let b = Bytes.create (n + 4) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

let extract_frame ?(max_frame = default_max_frame) buf ~off ~len =
  if len < 4 then None
  else begin
    let n = Int32.to_int (Bytes.get_int32_be buf off) land 0xffffffff in
    if n > max_frame then raise (Codec (Oversized n));
    if len < 4 + n then None
    else Some (Bytes.sub_string buf (off + 4) n, 4 + n)
  end

(* ------------------------------------------------------------------ *)
(* Blocking transport                                                  *)
(* ------------------------------------------------------------------ *)

let rec restart_write fd bytes off len =
  if len = 0 then ()
  else
    match Unix.write fd bytes off len with
    | n -> restart_write fd bytes (off + n) (len - n)
    | exception Unix.Unix_error ((EINTR | EAGAIN | EWOULDBLOCK), _, _) ->
      ignore (Unix.select [] [ fd ] [] 1.0);
      restart_write fd bytes off len

let write_frame fd payload =
  let frame = frame_of_payload payload in
  restart_write fd (Bytes.unsafe_of_string frame) 0 (String.length frame);
  String.length frame

(* The frame in place: a length-prefix placeholder, the payload encoded
   after it, then the prefix patched. *)
let frame_response w resp =
  w.len <- 0;
  put_u32 w 0;
  encode_response w resp;
  Bytes.set_int32_be w.b 0 (Int32.of_int (w.len - 4))

let send_response_buf w fd resp =
  frame_response w resp;
  let n = w.len in
  Fun.protect ~finally:(fun () -> release w) (fun () -> restart_write fd w.b 0 n);
  n

(* Read exactly [n] bytes into [w.b.(0 .. n-1)], discarding the old
   content; [Exit] on a clean close before the first byte,
   [Codec Truncated] on a close in the middle. *)
let read_exactly fd w n ~at_start =
  w.len <- 0;
  if n > Bytes.length w.b then w.b <- Bytes.create n;
  let rec go off =
    if off = n then w.len <- n
    else
      match Unix.read fd w.b off (n - off) with
      | 0 -> if off = 0 && at_start then raise Exit else raise (Codec Truncated)
      | k -> go (off + k)
      | exception Unix.Unix_error ((EINTR | EAGAIN | EWOULDBLOCK), _, _) ->
        ignore (Unix.select [ fd ] [] [] 1.0);
        go off
  in
  go 0

(* One frame's payload into [w]; false on a clean EOF at a frame
   boundary. *)
let read_frame ?(max_frame = default_max_frame) w fd =
  match read_exactly fd w 4 ~at_start:true with
  | exception Exit -> false
  | () ->
    let n = Int32.to_int (Bytes.get_int32_be w.b 0) land 0xffffffff in
    if n > max_frame then raise (Codec (Oversized n));
    read_exactly fd w n ~at_start:false;
    true

let read_payload ?max_frame fd =
  let w = { b = Bytes.create 4; len = 0 } in
  if read_frame ?max_frame w fd then Some (buf_contents w) else None

let recv_response_buf ?max_frame w fd =
  Fun.protect
    ~finally:(fun () -> release w)
    (fun () ->
      if read_frame ?max_frame w fd then
        Some (decode_response { s = Bytes.unsafe_to_string w.b; lim = w.len; pos = 0 })
      else None)

let send_request fd req = write_frame fd (request_payload req)
let send_response fd resp = write_frame fd (response_payload resp)

let recv_request ?max_frame fd =
  Option.map request_of_payload (read_payload ?max_frame fd)

let recv_response ?max_frame fd = recv_response_buf ?max_frame (buf_create ()) fd
