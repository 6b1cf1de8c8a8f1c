(** Primitive Path Fragment identification (paper Section 4.1), used by
    {!Translate} on both of its targets (the schema-aware and the Edge
    mapping): step normalization (or-self expansion, self merging),
    splitting a backbone into PPFs, and the backward-simple-path test that
    enables the Table 5 (2) predicate optimization. *)

module Ast = Ppfx_xpath.Ast

val normalize_steps : Ast.step list -> Ast.step list list
(** Expand [descendant-or-self]/[ancestor-or-self] steps into their
    descendant/ancestor and self readings (self merges its node test and
    predicates into the previous step), and drop plain [.] steps. Each
    returned variant contains only child, descendant, parent, ancestor,
    order-axis and attribute steps. An empty list means the path is
    statically unsatisfiable; a variant that is an empty step list denotes
    the context node itself. *)

type t =
  | Forward of Ast.step list
      (** consecutive child/descendant steps; predicates only on the last *)
  | Backward of Ast.step list  (** consecutive parent/ancestor steps *)
  | Order of Ast.step  (** a single order-axis step *)

val split : Ast.step list -> t list
(** Split a normalized backbone into PPFs: maximal forward or backward
    runs — a predicated step always ends its run (Section 4.1) — with
    order-axis steps standing alone. Raises {!Unsupported} on attribute
    steps in mid-path. *)

exception Unsupported of string
(** Out-of-subset construct; {!Translate.Unsupported} is this exception. *)

val backward_simple : Ast.step list -> bool
(** True when every step is a predicate-free parent/ancestor step with an
    element node test — the Table 5 (2) case. *)
