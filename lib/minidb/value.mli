(** SQL values and their comparison semantics.

    [Bin] carries binary strings compared bytewise — the representation of
    the [dewey_pos] column (paper Section 4.2); the other constructors
    cover the scalar column types the shredders produce. *)

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bin of string  (** binary string, bytewise lexicographic order *)

type ty = Tint | Tfloat | Tstr | Tbin

val type_of : t -> ty option
(** [None] for [Null]. *)

val compare_total : t -> t -> int
(** Total order used for sorting, DISTINCT and index keys: Null first, then
    by type, then by value. Numeric types compare together. *)

val compare_sql : t -> t -> int option
(** Three-valued SQL comparison: [None] when either side is [Null] or the
    values are incomparable. Numbers compare numerically; a [Str] compared
    against a number is coerced through numeric parsing ([None] when
    unparsable) — matching XPath 1.0 comparison semantics, which the
    translator relies on. [Bin] compares bytewise against [Bin] or [Str]. *)

val incomparable : int
(** The code {!compare_sql_code} returns for an unknown comparison
    ([min_int]); a known comparison returns -1, 0 or 1. *)

val compare_sql_code : t -> t -> int
(** {!compare_sql} without the option: {!incomparable} for [None]. The
    executor's comparisons use it, so a comparison allocates nothing. *)

val compare_sql_concat : t -> t -> t -> int
(** [compare_sql_concat v a b] is [compare_sql_code v (concat a b)]. When
    all three are [Str] or [Bin] it compares in place and builds no
    string: the Dewey containment bound [BETWEEN d AND d || x'FF'] (paper
    Section 4.2) is checked on every row. *)

val compare_total_concat : t -> t -> t -> int
(** [compare_total_concat v a b] is [compare_total v (concat a b)],
    compared in place when [a] and [b] are [Str] or [Bin]. *)

val compare_total_bin_prefix : t -> string -> int -> int
(** [compare_total_bin_prefix v s len] is
    [compare_total v (Bin (String.sub s 0 len))], without the copy. *)

val equal : t -> t -> bool
(** Equality under {!compare_total}. *)

val to_float : t -> float option
(** Numeric interpretation: numbers directly, strings via parsing. *)

val float_text : float -> string
(** Canonical numeric rendering: integral floats print as integers
    ("3", never "3."), non-integral values via [string_of_float], NaN as
    "NaN". This is the convention of the XPath reference evaluator and of
    SQL [TO_CHAR], which the translator's path regexes assume. *)

val text : t -> string option
(** Text rendering for string coercion contexts (REGEXP_LIKE, [||]):
    [None] for [Null]; numbers via {!float_text}/[string_of_int]; strings
    and binaries verbatim. *)

val concat : t -> t -> t
(** SQL [||]: string/binary concatenation. If either side is [Bin] the
    result is [Bin]. [Null] absorbs. Numeric operands render via
    {!float_text}. *)

val pp : Format.formatter -> t -> unit
(** SQL-literal style printing; binary strings as hex. *)

val to_string : t -> string

val pp_ty : Format.formatter -> ty -> unit
