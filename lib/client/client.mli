(** Blocking typed client for the ppfx wire protocol.

    One connection, one in-flight request: every call sends a frame and
    waits for its response, except {!close_stmt}, whose reply-less frame
    is written together with the next request. [execute] and the [run]
    family read an answer's [Rows] frames, which the server writes back
    to back, up to the last. Query-level failures ([Parse_error],
    [Unsupported], [Runtime], [Bad_statement], [Admission]) raise
    {!Server_error} and leave the connection usable; transport and
    framing failures raise {!Protocol_error} (or [Unix_error]) and mean
    the connection is dead. *)

module Wire = Ppfx_net.Wire
module Engine = Ppfx_minidb.Engine

exception Server_error of { code : Wire.error_code; message : string }
exception Protocol_error of string

type t

val connect :
  ?host:string ->
  ?client_name:string ->
  ?max_frame:int ->
  ?timeout:float ->
  port:int ->
  unit ->
  t
(** TCP connect plus [Hello]/[Welcome] handshake. Raises {!Server_error}
    when the server refuses admission or the protocol versions differ.
    [timeout] (seconds) bounds the connect itself (nonblocking +
    select; [ETIMEDOUT] on expiry) and arms the socket send/receive
    timeouts, so a server that stops answering surfaces as a
    [Unix_error] ([EAGAIN]) once no byte arrives for [timeout], the
    handshake included, instead of blocking forever. *)

val close : t -> unit
(** Best-effort [Quit]/[Bye], then close the socket. Idempotent. *)

val ping : t -> unit

val server_name : t -> string
val server_shards : t -> int
(** From the [Welcome] frame. *)

(** {2 Statements} *)

type stmt

val prepare : ?values:bool -> t -> string -> stmt
(** Compile an XPath query server-side; the statement handle carries the
    typed column metadata from the [Prepared] frame. Rows are
    [(id, dewey_pos)] for element results; [~values:true] (default
    [false]) adds each node's string value as a third column, [value].
    [text()]- and attribute-final queries always carry [value]. *)

val stmt_id : stmt -> int
val columns : stmt -> Wire.column list
val is_empty : stmt -> bool
(** The schema proved the translation empty: [execute] returns no rows
    without touching the engine. *)

val sql : stmt -> string option
(** The translated SQL text, as reported by the server. *)

val execute : t -> stmt -> Row.t list
(** Run the statement: one round trip, the whole result. *)

val execute_result : t -> stmt -> Engine.result
(** Like {!execute} but as a raw {!Engine.result} (column names from the
    statement metadata) — the shape the in-process API returns, for
    byte-identical comparison. *)

val close_stmt : t -> stmt -> unit
(** Queue the statement's [Close_stmt]; it is written in the same
    [write] as the next request, so it costs no round trip. The server
    handles it first: a later [execute] of the statement raises
    {!Server_error} with [Bad_statement]. *)

(** {2 One-shot conveniences} *)

val run : ?values:bool -> t -> string -> Row.t list
(** One [Query] frame, one round trip: the server prepares, executes and
    answers with the statement's metadata and the whole result, and
    keeps no statement. *)

val run_result : ?values:bool -> t -> string -> Engine.result

val run_ids : t -> string -> int list
(** [run] projected to sorted distinct element ids — the wire-protocol
    equivalent of {!Ppfx_service.Session.run_ids}. *)

(** {2 Mutations}

    The wire [Update] request: one subtree mutation per round trip.
    Invalid operations (unknown ids, non-conforming fragments) raise
    {!Server_error} with code [Runtime]; malformed fragment XML raises
    {!Server_error} with code [Parse_error]. The connection stays
    usable after either. *)

type update_outcome = {
  inserted : int;
  updated : int;
  deleted : int;
  new_paths : int;
  dead_paths : int;
}

val update : t -> Wire.update_op -> update_outcome

val insert : t -> parent:int -> ?before:int -> string -> update_outcome
(** Insert fragment XML under [parent], before child [before] (element
    id) or as the last child. *)

val delete : t -> target:int -> update_outcome

val replace : t -> target:int -> string -> update_outcome

val set_attribute : t -> target:int -> name:string -> string option -> update_outcome
(** [None] removes the attribute. *)

val set_text : t -> target:int -> string -> update_outcome
