(** POSIX-ERE regular expressions: the pattern language of the relational
    substrate's [REGEXP_LIKE] (Section 4.1 of the paper).

    Patterns follow the POSIX Extended Regular Expression syntax used by
    Oracle 10g's [REGEXP_LIKE]: literals, [.], bracket expressions,
    [* + ? {m,n}] repetition, alternation, grouping and the [^]/[$]
    anchors. Matching is linear in the subject length: through a frozen DFA
    when one was built, by Thompson NFA simulation otherwise. *)

type t
(** A compiled pattern. Immutable: one handle can be shared by any number
    of domains. *)

exception Parse_error of string
(** Raised by {!compile} on a malformed pattern. *)

val compile : string -> t
(** Compile a pattern. Raises {!Parse_error} on syntax errors. The handle
    runs by NFA simulation; no DFA is built. *)

val compile_cached : string -> t
(** Like {!compile}, but serves the handle from a process-wide,
    mutex-protected cache keyed on the pattern text — safe to call from
    any domain. On first miss the pattern is also frozen into dense,
    immutable DFAs, which every later call shares. Patterns whose subset
    construction exceeds an internal state cap skip freezing and run by
    NFA simulation. Raises {!Parse_error} on syntax errors (failures are
    not cached). *)

val has_frozen : t -> bool
(** Whether this handle executes through a shared frozen DFA (true for
    {!compile_cached} handles below the state cap). Every other handle
    runs by NFA simulation. *)

val cache_hits : unit -> int
(** Number of {!compile_cached} calls served from the shared cache. *)

val cache_misses : unit -> int
(** Number of {!compile_cached} calls that had to parse and build. *)

val cache_size : unit -> int
(** Number of distinct patterns currently cached. *)

val cache_clear : unit -> unit
(** Drop every cached pattern and reset the hit/miss counters (tests and
    benchmarks). *)

val search : t -> string -> bool
(** [search re subject] is [true] iff some substring of [subject] matches —
    the semantics of SQL [REGEXP_LIKE(subject, pattern)]. Anchors restrict
    matches to the subject's ends. *)

val matches : t -> string -> bool
(** [matches re subject] is [true] iff the entire subject matches. *)

val pattern : t -> string
(** The source pattern the value was compiled from. *)

val quote : string -> string
(** Escape a string so that it matches itself literally inside a pattern. *)

val ast : t -> Syntax.t
(** The parsed abstract syntax tree (exposed for tests and tooling). *)
