(** The ppfx wire protocol: length-prefixed binary frames.

    Every frame on the wire is a 4-byte big-endian payload length
    followed by exactly that many payload bytes; the first payload byte
    is the message tag. Requests (client to server) use tags [0x01-0x08],
    responses (server to client) [0x81-0x88]. All integers are
    big-endian; strings are a [u32] byte length followed by the bytes;
    cells are self-describing (a one-byte type tag before the value), so
    a result stream can be decoded without out-of-band schema knowledge,
    while the {!column} metadata sent with {!response.Prepared} gives the
    client static names and type hints.

    The codec never reads past the declared payload: every field decode
    is bounds-checked against the length prefix, a payload with leftover
    bytes is rejected ([Trailing]), and a length prefix above the
    [max_frame] bound is rejected before any payload is read
    ([Oversized]) — the typed {!Codec} errors the satellite tests pin
    down. Protocol evolution is carried by the versioned handshake:
    [Hello]/[Welcome] exchange {!protocol_version} and a server refuses
    mismatches with [Version_mismatch]. *)

module Value = Ppfx_minidb.Value

val protocol_version : int
(** Version 2, which added the [values] byte of [Prepare]. Sent in
    [Hello], echoed in [Welcome]; a server answers any other version
    with [Version_mismatch]. *)

val default_max_frame : int
(** 16 MiB: the largest frame either side accepts by default. *)

(** {2 Typed errors} *)

type codec_error =
  | Truncated  (** a field extends past the frame's declared length *)
  | Oversized of int  (** declared payload length exceeds [max_frame] *)
  | Bad_tag of int  (** unknown message or cell tag *)
  | Trailing of int  (** decoded message left this many unread bytes *)

exception Codec of codec_error

val codec_error_to_string : codec_error -> string

type error_code =
  | Protocol  (** malformed frame or message out of sequence *)
  | Parse_error  (** XPath parse failure *)
  | Unsupported  (** out-of-subset XPath construct *)
  | Runtime  (** engine runtime error *)
  | Admission  (** connection or request rejected by admission control *)
  | Bad_statement  (** unknown statement id *)
  | Version_mismatch
  | Shutting_down

val error_code_to_string : error_code -> string

(** {2 Column metadata} *)

type col_ty = Tany | Tint | Tfloat | Ttext | Tbin

type column = { name : string; ty : col_ty }

val col_ty_of_value_ty : Value.ty -> col_ty
val col_ty_to_string : col_ty -> string

(** {2 Messages} *)

(** A mutation request, mirroring {!Ppfx_update.Update.op}. Fragments
    travel as XML text and are parsed and schema-validated on the server;
    element ids are the globally unique ids query results project. *)
type update_op =
  | Op_insert of { parent : int; before : int option; fragment : string }
  | Op_delete of { target : int }
  | Op_replace of { target : int; fragment : string }
  | Op_set_attr of { target : int; name : string; value : string option }
  | Op_set_text of { target : int; text : string }

type request =
  | Hello of { version : int; client : string }
  | Prepare of { query : string; values : bool }
      (** compile an XPath query. Encoded as the query string and one
          byte, 0 or 1 (any other byte is [Bad_tag]). A result is a
          node-set: element-final statements project [(id, dewey_pos)].
          With [values], they also project each node's string value as
          [value]. [text()]- and attribute-final statements project
          [value] either way. *)
  | Execute of { stmt : int; window : int }
      (** run the prepared statement; stream at most [window] rows back
          (0 means the server's default fetch window) *)
  | Fetch of { stmt : int; window : int }
      (** next [window] rows of the statement's open cursor *)
  | Close_stmt of { stmt : int }
  | Ping
  | Quit
  | Update of { op : update_op }
      (** apply one subtree mutation; answered with [Updated] (or
          [Error] with [Runtime] on invalid targets/fragments) *)

type response =
  | Welcome of { version : int; server : string; shards : int }
  | Prepared of {
      stmt : int;
      columns : column list;
      empty : bool;  (** the translation proved the result empty *)
      sql : string option;  (** translated SQL text, when any *)
    }
  | Rows of { stmt : int; rows : Value.t array list; more : bool }
      (** [more] is the backpressure signal: the cursor holds further
          rows and the client must [Fetch] to receive them *)
  | Closed of { stmt : int }
  | Pong
  | Error of { code : error_code; message : string }
  | Bye
  | Updated of {
      inserted : int;  (** rows inserted *)
      updated : int;  (** rows rewritten (sibling/ancestor descriptors) *)
      deleted : int;  (** rows tombstoned *)
      new_paths : int;  (** paths interned into the Paths relation *)
      dead_paths : int;  (** paths whose last instance died *)
    }

(** {2 Encoding} *)

val request_payload : request -> string
val response_payload : response -> string
(** Payload bytes (no length prefix). *)

val frame_of_payload : string -> string
(** Prefix a payload with its 4-byte length. *)

(** {2 Decoding} *)

val request_of_payload : string -> request
val response_of_payload : string -> response
(** Raise {!Codec} on malformed payloads; total (every byte of the
    payload is consumed or the decode fails). *)

val extract_frame :
  ?max_frame:int -> Bytes.t -> off:int -> len:int -> (string * int) option
(** [extract_frame buf ~off ~len] inspects the byte window for one
    complete frame: [Some (payload, consumed)] when the window starts
    with a whole frame, [None] when more bytes are needed. Raises
    [Codec (Oversized _)] as soon as the prefix declares a payload
    larger than [max_frame], without waiting for the bytes. *)

(** {2 Frame buffers}

    A growable byte buffer owned by one connection end — the server's
    per-connection send side (used under that connection's write lock),
    a client's receive side — and reused for every frame it moves: a
    response is encoded once, in place behind its length prefix, and
    written straight from the buffer; a received payload is decoded
    straight from it. After a frame larger than 256 KiB the buffer shrinks
    back to its initial 4 KiB (a 512-row window of the XMark 10x results
    is at most 25 KiB, or 88 KiB with string values). Buffers are per
    connection, never per domain: two systhreads of one domain may each drive a connection. *)

type buf

val buf_create : unit -> buf

val frame_response : buf -> response -> unit
(** Replace the buffer's content with one whole frame of the response:
    the same bytes as [frame_of_payload (response_payload r)]. *)

val buf_contents : buf -> string
(** The buffered bytes (a copy). *)

val send_response_buf : buf -> Unix.file_descr -> response -> int
(** {!frame_response}, then write the frame from the buffer; returns the
    byte count. *)

val recv_response_buf : ?max_frame:int -> buf -> Unix.file_descr -> response option
(** {!recv_response} reading into and decoding from the buffer. The
    frame's declared length bounds the decode, whatever the buffer held
    before, so [Truncated], [Trailing] and [Oversized] fire exactly as in
    {!response_of_payload}. *)

(** {2 Blocking transport helpers}

    Convenience wrappers used by the client and the tests; the server's
    event loop assembles frames incrementally with {!extract_frame}
    instead. Each returns the byte count moved, for traffic metrics. *)

val write_frame : Unix.file_descr -> string -> int
(** Write one frame (length prefix + payload); loops over partial
    writes. *)

val read_payload : ?max_frame:int -> Unix.file_descr -> string option
(** Read exactly one frame; [None] on a clean EOF at a frame boundary.
    Raises [Codec Truncated] when the peer closes mid-frame. *)

val send_request : Unix.file_descr -> request -> int
val send_response : Unix.file_descr -> response -> int
val recv_request : ?max_frame:int -> Unix.file_descr -> request option
val recv_response : ?max_frame:int -> Unix.file_descr -> response option
