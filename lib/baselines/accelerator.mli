(** XPath Accelerator baseline (Grust et al., reference [2] of the paper):
    schema-oblivious pre/post-plane encoding with window-based SQL
    translations ("staked out query window sizes", paper Section 5.2).

    The store is a single [accel] relation:
    [accel(id, pre, post, par, level, tag, text, dtext)] plus the shared
    [attr(elem_id, name, value)] relation. Every XPath step becomes a
    self-join whose window condition follows the pre/post-plane quadrants;
    descendant windows are staked out as
    [pre BETWEEN pre(c)+1 AND post(c)+level(c)], which the planner turns
    into a B+tree range scan on [pre]. *)

module Sql = Ppfx_minidb.Sql
module Doc = Ppfx_xml.Doc

exception Unsupported of string

type t = {
  db : Ppfx_minidb.Database.t;
  docs : Doc.t list;
}

val accel_table : string
val attr_table : string

val create : unit -> t
val load : t -> Doc.t -> t
val shred : Doc.t -> t

val translate : ?values:bool -> Ppfx_xpath.Ast.expr -> Sql.statement option
(** Per-step window-join translation. Projects [(id, pre)] in document
    order, plus [value] under the rule of
    {!Ppfx_translate.Translate.translate}: when [~values:true] (default
    [false]), or when a [text()]-final branch makes the value the
    answer. *)

val result_ids : Ppfx_minidb.Engine.result -> int list
