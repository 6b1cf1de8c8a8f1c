(** PPF-based XPath-to-SQL translation — the paper's primary contribution
    (Section 4) — with two targets: the schema-aware mapping ({!create})
    and the schema-oblivious Edge store ({!edge}), the paper's Section 5.1
    "Edge-like PPF" comparison point. One Algorithm 1 serves both.

    The expression's backbone and predicate paths are split into Primitive
    Path Fragments. Forward PPFs are evaluated holistically: the prominent
    relation joins the [Paths] relation under a regular-expression filter
    covering the maximal forward path (Section 4.1); consecutive PPFs
    combine through a single Dewey structural join (Section 4.2), with
    [child]/[parent] single steps using foreign-key equijoins instead.
    Predicates become [EXISTS] sub-selects, except backward-simple-path
    predicates which fold into extra regex filters on the predicated
    step's path (Table 5 (2)). Wildcard prominent steps split the
    statement into a [UNION] (Section 4.4) — predicates split into [OR]'d
    sub-selects instead (Table 6) — and the U-P/F-P/I-P schema marking
    omits provably redundant path filters (Section 4.5).

    {b Soundness refinement} (documented in DESIGN.md): the paper's
    holistic regex+join treatment can overmatch when the regular
    expression cannot pin the context node's depth (recursive names,
    descendant steps both before and inside a fragment). This
    implementation detects those cases statically and falls back to exact
    per-step joins for the affected fragment only; every benchmark query
    keeps its holistic plan.

    {b Target-dependent decisions.} Everything above is shared; the target
    decides only:
    - which relations a step may bind: the schema definitions it can
      reach, or the single [edge] relation plus a [tag] condition (forward
      fragments leave the tag to the path regex), so wildcards never split
      an Edge statement;
    - the child/parent/sibling join: mapping foreign-key columns, or
      [par_id];
    - the Section 4.5 path-filter decision: on Edge there is no schema to
      prove a filter redundant, so every filter joins [Paths];
    - whether a relation can nest in itself (backward holistic shapes) and
      so needs a strict Dewey lower bound: on Edge every structural join
      is a self-join of [edge];
    - attribute access: [attr_*] columns, or an [EXISTS] over the [attr]
      relation (paper footnote 3);
    - alias naming: relation names, or [e], [e_2], ... *)

module Graph = Ppfx_schema.Graph
module Sql = Ppfx_minidb.Sql

exception Unsupported of string
(** Raised for XPath constructs outside the supported subset
    (positional predicates off a child step, bare [count()] predicates,
    attribute steps in mid-path). The same exception as
    {!Ppf.Unsupported}. *)

type options = {
  omit_path_filters : bool;
      (** Section 4.5: skip Paths joins proven redundant by U-P/F-P
          marking (default true). *)
  merge_forward : bool;
      (** Section 4.1: merge consecutive forward PPFs into one regex
          (default true). When off, every fragment after the first is
          translated per-step. *)
  fk_child_joins : bool;
      (** Section 4.2: use foreign-key equijoins for single child/parent
          steps instead of Dewey comparisons (default true). *)
  force_per_step : bool;
      (** Translate every fragment with exact per-step joins (the
          conventional schema-aware translation, used by the commercial
          baseline; default false). *)
}

val default_options : options

type t

val create : ?options:options -> Ppfx_shred.Mapping.t -> t
(** A translator for the schema-aware store of a mapping. *)

val edge : t
(** The translator for a store created by {!Ppfx_shred.Edge}, under
    {!default_options}. *)

val memo_capacity : int
(** Bound on a translator's memo of Section 4.5 path-filter decisions,
    one entry per (schema definition, path regex). Past it the memo is
    cleared; a decision depends only on the schema and options, which are
    fixed for the translator's lifetime, so clearing changes no SQL. *)

val memo_length : t -> int
(** Decisions currently memoised (at most {!memo_capacity}). *)

val options_fingerprint : options -> string
(** Deterministic canonical rendering of the option set. *)

val fingerprint : t -> string
(** Deterministic digest of the translator's schema graph and options.
    Translation is a pure function of (fingerprint, query): two
    translators with equal fingerprints emit identical SQL for every
    query, so the fingerprint is a sound key for caching compiled
    translations across sessions (the paper's Section 4 static-translation
    argument). *)

val translate : ?values:bool -> t -> Ppfx_xpath.Ast.expr -> Sql.statement option
(** [None] when the schema proves the result empty. The statement
    projects [(id, dewey_pos)] of the result nodes, in document order: an
    XPath result is a node-set. A [text()]- or attribute-final branch
    also projects [value], its text or attribute value, since that value
    is the answer; one such branch in a union keeps [value] in every
    branch. [~values:true] (default [false]) makes every element-final
    branch project its string value as [value] too, so every select
    projects [(id, dewey_pos, value)]. Raises {!Unsupported} on
    out-of-subset constructs. *)

val result_ids : Ppfx_minidb.Engine.result -> int list
(** Element ids of a translated statement's result, sorted. *)
