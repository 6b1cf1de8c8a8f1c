(** Binary persistence for databases.

    A compact, self-describing format (magic ["PPFXDB5"], then per table:
    name, typed column list, partition spec, row count, length-prefixed
    values, index column lists). Indexes and partition segments are
    rebuilt on load rather than serialized — they are derived data.
    Tombstoned rows are compacted away, so row ids are {e not} stable
    across a save/load cycle unless no deletions happened. The declared
    key columns follow the index lists.

    Every structural reference inside an image (partition columns, index
    columns, value tags, lengths) is validated on decode: malformed
    input raises {!Corrupt} (or returns [Error] via the [_result]
    readers), never a stray [Not_found]/[End_of_file].

    The {{!primitives}primitives} the image is built from are the same
    ones the write-ahead log encodes its records and sidecars with. *)

exception Corrupt of string
(** Raised on malformed input. *)

val write_database : out_channel -> Database.t -> unit

val read_database : in_channel -> Database.t
(** Raises {!Corrupt}. *)

val database_to_string : Database.t -> string
(** The full PPFXDB5 image as a string — byte-identical to what
    {!write_database} emits. *)

val database_of_string : string -> Database.t
(** Raises {!Corrupt} on malformed input (including trailing
    truncation). *)

val save : string -> Database.t -> unit
(** Write to a file path. *)

val load : string -> Database.t
(** Raises {!Corrupt} on malformed input, [Sys_error] on IO failure. *)

(** {2 Typed (non-raising) loaders} *)

type error =
  | Io_error of string  (** the file could not be opened or read *)
  | Corrupted of string  (** the bytes are not a valid PPFXDB5 image *)

val error_to_string : error -> string

val load_result : string -> (Database.t, error) result
(** Like {!load} but never raises on bad input. *)

val of_string_result : string -> (Database.t, error) result
(** Like {!database_of_string} but never raises on bad input. *)

(** {2:primitives Primitives}

    Zigzag-LEB128 varints, varint-length-prefixed strings, flag bytes
    (0/1), optionals (a flag byte, then the value), varint-counted lists
    and tagged values (tag byte 0 null, 1 int, 2 float as 8
    little-endian bytes of its IEEE bits, 3 string, 4 binary). Writers
    append to a [Buffer.t]; readers advance a {!cursor} over a window of
    a string, and a read past the window's end, a varint of more than
    ten bytes or an unknown tag or flag byte is a {!fault}. Decoding
    allocates only the values it returns. *)

type fault =
  | Truncated  (** a read runs past the cursor's end *)
  | Bad_varint  (** a varint longer than ten bytes *)
  | Bad_tag of int  (** an unknown value tag, or a flag byte other than 0/1 *)

type cursor

val cursor : ?fail:(fault -> exn) -> ?off:int -> ?len:int -> string -> cursor
(** A reader over [s.(off .. off+len-1)] (default: all of [s]); no read
    goes past that end. A fault raises [fail fault]: by default
    {!Corrupt} with a message. Raises [Invalid_argument] if the window
    is not inside [s]. *)

val remaining : cursor -> int
(** Bytes left before the cursor's end. *)

val get_byte : cursor -> int
val put_varint : Buffer.t -> int -> unit
val get_varint : cursor -> int
val put_string : Buffer.t -> string -> unit
val get_string : cursor -> string
val put_bool : Buffer.t -> bool -> unit
val get_bool : cursor -> bool
val put_opt : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a option -> unit
val get_opt : (cursor -> 'a) -> cursor -> 'a option
val put_list : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a list -> unit
val get_list : (cursor -> 'a) -> cursor -> 'a list
val put_value : Buffer.t -> Value.t -> unit
val get_value : cursor -> Value.t

val put_values : Buffer.t -> Value.t array -> unit
(** A row: its cell count, then each cell as {!put_value}. *)

val get_values : cursor -> Value.t array
