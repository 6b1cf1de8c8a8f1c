(** SQL abstract syntax: the fragment the XPath translations target.

    This covers everything the paper's translation algorithm emits
    (Tables 3–6): select-project-join with table aliases, [DISTINCT],
    [WHERE] trees over comparisons, [BETWEEN], string/binary concatenation
    ([||]), [REGEXP_LIKE], correlated [EXISTS] sub-selects, [ORDER BY], and
    [UNION] of selects (SQL splitting, Section 4.4) — plus arithmetic for
    XPath arithmetic predicates. *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type arith = Add | Sub | Mul | Div | Mod

type expr =
  | Col of string * string  (** [Col (alias, column)] *)
  | Const of Value.t
  | Cmp of cmp * expr * expr
  | Between of expr * expr * expr  (** [Between (e, lo, hi)], inclusive *)
  | And of expr * expr
  | Or of expr * expr
  | Not of expr
  | Concat of expr * expr  (** SQL [||] *)
  | Regexp_like of expr * string  (** POSIX-ERE match, Oracle semantics *)
  | Exists of select
  | Arith of arith * expr * expr
  | To_number of expr  (** Oracle [TO_NUMBER]; NULL when unparsable *)
  | Length of expr  (** byte length of a string or binary value *)
  | Is_not_null of expr
  | Bool_const of bool  (** rendered as [1=1] / [1=0] *)
  | Count_subquery of select
      (** a scalar [SELECT COUNT ( * ) FROM ...] sub-query, possibly
          correlated *)

and select = {
  distinct : bool;
  projections : (expr * string) list;  (** (expression, output name) *)
  from : (string * string) list;  (** (table, alias); aliases unique *)
  where : expr option;
  order_by : expr list;
}

type statement =
  | Select of select
  | Select_count of select
      (** [SELECT COUNT ( * ) FROM ... WHERE ...]: the select's
          projections and ordering are ignored; the result is one row
          with one integer column. *)
  | Union of select list * int list
      (** [Union (branches, order_cols)]: distinct union of the branches
          (which must project the same arity), ordered by the given
          0-based output columns. *)

val and_opt : expr option -> expr -> expr option
(** Conjoin a condition onto an optional WHERE clause. *)

val conjuncts : expr -> expr list
(** Flatten a tree of [And] into its conjuncts. *)

val simplify : expr -> expr
(** Boolean constant folding: [x AND 1=1 -> x], [x OR 1=0 -> x],
    [NOT 1=0 -> 1=1], and so on, recursively (also inside [EXISTS]). *)

val fold : ('a -> expr -> 'a) -> 'a -> expr -> 'a
(** [fold f acc e] applies [f] to [e] and to every sub-expression, in
    pre-order, left to right. [Exists] and [Count_subquery] nodes are
    visited, but their sub-selects are not entered. *)

val free_aliases : expr -> string list
(** Aliases referenced by the expression, exluding those bound by inner
    [Exists] sub-selects. Sorted, distinct. *)

val pp_expr : Format.formatter -> expr -> unit
val pp_select : Format.formatter -> select -> unit
val pp_statement : Format.formatter -> statement -> unit

val to_string : statement -> string
(** Render as SQL text (Oracle-flavoured: [REGEXP_LIKE], [||]). *)
