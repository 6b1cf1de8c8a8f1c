(** The ppfx wire protocol: length-prefixed binary frames.

    Every frame on the wire is a 4-byte big-endian payload length
    followed by exactly that many payload bytes; the first payload byte
    is the message tag. Requests (client to server) use tags [0x01-0x09],
    where [0x04] is retired (version 4's next-window request); responses
    (server to client) use [0x81-0x88], where [0x84] is retired (version
    3's [Closed]). The payload after the tag is written with
    {!Ppfx_minidb.Codec}'s primitives, the ones the database image and
    the write-ahead log use: integers are zigzag LEB128 varints, strings
    a varint byte length followed by the bytes, flags one byte (0 or 1),
    an optional a flag then the value, a list a varint count then the
    elements. Cells are self-describing (a one-byte type tag before the
    value), so a result stream can be decoded without out-of-band schema
    knowledge, while the {!column} metadata sent with
    {!response.Prepared} gives the client static names and type hints.

    Every request is answered by exactly one response frame, except
    [Close_stmt], which has no reply, and [Execute] and [Query], whose
    answer goes out whole: [Rows] frames back to back, after [Prepared]
    for a [Query] (or one [Error] instead). A client may therefore write
    a [Close_stmt] together with its next request.

    The codec never reads past the declared payload: every field decode
    is bounds-checked against the length prefix, a payload with leftover
    bytes is rejected ([Trailing]), and a length prefix above the
    [max_frame] bound is rejected before any payload is read
    ([Oversized]) — the typed {!Codec} errors. Protocol evolution is
    carried by the versioned handshake: [Hello]/[Welcome] exchange
    {!protocol_version} and a server refuses mismatches with
    [Version_mismatch]. *)

module Value = Ppfx_minidb.Value

val protocol_version : int
(** Version 5, which sends an answer whole (retiring the next-window
    request and the window fields of [Execute] and [Query]). Version 4
    made [Close_stmt] reply-less (retiring [Closed]) and added the
    one-shot [Query], version 3 moved every field to the varint codec,
    version 2 added the [values] byte of [Prepare]. Sent in [Hello],
    echoed in [Welcome]; a server answers any other version with
    [Version_mismatch]. A version-3 or version-4 [Hello] decodes and
    gets that; an older client's [Hello] bytes do not decode as a
    current [Hello], so it gets a [Protocol] error instead; either way
    the connection is closed. *)

val default_max_frame : int
(** 16 MiB: the largest frame either side accepts by default. *)

(** {2 Typed errors} *)

type codec_error =
  | Truncated  (** a field extends past the frame's declared length *)
  | Oversized of int  (** declared payload length exceeds [max_frame] *)
  | Bad_tag of int  (** unknown message, flag or cell tag *)
  | Bad_varint  (** a varint longer than ten bytes *)
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
  | Execute of { stmt : int }
      (** run the prepared statement; answered by its whole result as
          [Rows] frames *)
  | Close_stmt of { stmt : int }
      (** forget the statement; no reply. An unknown id is ignored, and
          a later [Execute] of a closed id is answered [Bad_statement]. *)
  | Ping
  | Quit
  | Update of { op : update_op }
      (** apply one subtree mutation; answered with [Updated] (or
          [Error] with [Runtime] on invalid targets/fragments) *)
  | Query of { query : string; values : bool }
      (** [Prepare] and [Execute] in one frame, answered by [Prepared]
          and then the whole result as [Rows] frames (or by one
          [Error]). The statement is not kept: a later [Execute] of its
          id is answered [Bad_statement]. *)

type response =
  | Welcome of { version : int; server : string; shards : int }
  | Prepared of {
      stmt : int;
      columns : column list;
      empty : bool;  (** the translation proved the result empty *)
      sql : string option;  (** translated SQL text, when any *)
    }
  | Rows of { stmt : int; rows : Value.t array list; more : bool }
      (** [more]: another frame of this answer follows *)
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

(** {2 Payloads}

    The string form of the frame codec, without the length prefix. *)

val request_payload : request -> string
val response_payload : response -> string

val request_of_payload : string -> request
val response_of_payload : string -> response
(** Raise {!Codec} on malformed payloads; total (every byte of the
    payload is consumed or the decode fails). *)

(** {2 Frame buffers}

    A growable byte buffer owned by one connection end and reused for
    every frame it moves: the server's per-connection send side (used
    under that connection's write lock) and receive side (read by the
    current leader only), the leader's own for frames to connections it
    does not serve, a client's send and receive sides. A message is
    encoded once, framed behind its length prefix in the buffer and
    written from it; a receive side keeps whatever it read past the
    frame it decoded for the next call, and a payload is decoded where it
    lies, bounded by the frame's declared length. After a frame larger
    than 256 KiB the buffer shrinks back to its initial 4 KiB (a 512-row
    window of [(id, dewey_pos)] rows is about 13 KiB). Buffers are per
    connection, never per domain: two systhreads of one domain may each
    drive a connection. *)

type buf

val buf_create : unit -> buf

val queue_request : buf -> request -> unit
val queue_response : buf -> response -> unit
(** Frame a message into the buffer without writing it: the next send
    on this buffer writes it first, in the same [write]. *)

val send_request : buf -> Unix.file_descr -> request -> int
val send_response : buf -> Unix.file_descr -> response -> int
(** Write the queued frames and this one from the buffer, looping over
    partial writes; returns the byte count. A send buffer that stays
    full for 10 s (a peer that stopped reading) fails the write with
    [Unix_error ETIMEDOUT]. *)

val recv_response : ?max_frame:int -> buf -> Unix.file_descr -> response option
(** Decode the next frame, reading only when the buffer does not hold it
    whole, and then whatever the descriptor has available: several
    frames that arrive together take one read. [None] on a clean EOF at
    a frame boundary. A frame that fails to decode is still consumed.
    Raises [Codec Truncated] when the peer closes mid-frame, and
    [Codec (Oversized _)] from the length prefix alone. The descriptor
    must block: an [EAGAIN] (an expired [SO_RCVTIMEO]) raises. *)

val read_some : buf -> Unix.file_descr -> int
(** Append what a nonblocking descriptor has to the buffer's undecoded
    bytes: [Unix.read]s into the buffer's free room until one comes back
    short, returning their total (0 at end of stream). Raises what
    [Unix.read] raises, except that an [EAGAIN] or [EINTR] after a full
    read ends the sweep, so it raises [EAGAIN] only when the descriptor
    has nothing. *)

val take_requests : ?max_frame:int -> buf -> (request -> unit) -> unit
(** Decode every complete request frame at the front of the buffer where
    it lies, in order, passing each to the callback, then move the
    incomplete tail to the front. Raises {!Codec} on a malformed frame,
    and [Oversized] as soon as a length prefix declares a payload above
    [max_frame], without waiting for its bytes. A buffer that reassembles
    requests this way is used for nothing else. *)
