(** Construction of the POSIX-ERE patterns that realise path-id filtering
    (paper Section 4.1, Table 1).

    A forward chain is represented as a list of {!seg}: each segment is
    reached from its predecessor by a [child] step (exactly one level) or
    a [descendant] step (one or more levels), and carries a name or a
    wildcard. *)

type seg = {
  desc : bool;  (** reached via the descendant axis *)
  name : string option;  (** [None] for a wildcard *)
}

val seg_of_step : Ppfx_xpath.Ast.step -> seg option
(** [Some seg] for child/descendant steps with element node tests;
    [None] for anything else. *)

val forward : anchored:bool -> seg list -> string
(** Pattern for a forward chain. [anchored] chains start at the document
    root (pattern [^/A/B/...$], Table 1 rows 1–3); unanchored chains get a
    [^.*] prefix and are only sound when the first segment is a
    descendant segment (the translator guarantees this). *)

val backward :
  context:string option ->
  (Ppfx_xpath.Ast.axis * string option) list ->
  string
(** Pattern for a backward chain applied to the {e context} node's own
    root-to-node path (Table 1 row 4, Table 5 (2)). [context] is the
    context node's tag ([None] for a wildcard); the steps are
    parent/ancestor steps in syntactic order with their name tests. *)

val ends_with : string -> string
(** Pattern [^(.*/)?name$] used for order-axis steps (Algorithm 1 lines
    6–7). *)

val fixed_depth : seg list -> bool
(** True when the chain contains no descendant segment, i.e. it descends
    exactly one level per segment. *)
