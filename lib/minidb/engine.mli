(** Query planning and execution.

    The planner works on one {e join graph} per select, built once when
    the select is planned. Its nodes are the FROM aliases with their
    tables. Its edges are the WHERE conjuncts, each classified once into
    the shapes the translator emits, with its free aliases: a column
    equality ([f.fk = p.id], [a.text = b.text], [x.c = 3]), a range on a
    column (a comparison or [BETWEEN]; the Dewey structural joins of
    paper Section 4.2 — [d > a || 0xFF], [d < a],
    [d BETWEEN a AND a || 0xFF] — and the relaxation of [col || sfx <= e]
    to [col < e]), an ancestor prefix ([e BETWEEN col AND col || sfx]),
    and a path regex ([REGEXP_LIKE(p.path, pat)]). A conjunct over one
    alias is that node's filter. The planning passes read these shapes,
    and none matches SQL syntax itself:

    - {e path-filter semi-join reduction}: a dimension alias whose only
      two conjuncts are an integer equijoin and a [REGEXP_LIKE] on one of
      its columns — the shape of every PPF the translator emits against
      the [paths] table — is evaluated at plan time and replaced by an
      O(1) integer set probe on the fact column, eliminating both the
      join and all per-row regex execution. When the fact table is
      partitioned on the probed column and the dimension's id is a
      declared key, only the dimension rows of the fact table's
      partition keys are evaluated; otherwise every dimension row is.
      The materialized set lives on the plan and is invalidated with it
      ({!plan_compatible});
    - DISTINCT elision: when declared keys, joined through column
      equalities, prove a [SELECT DISTINCT]'s rows distinct, DISTINCT is
      elided; otherwise it hashes on the projected key where there is
      one (see {!explain});
    - [EXISTS] classification: a sub-select's graph is split into its
      correlated equalities and the rest; uncorrelated blocks run once,
      blocks correlated only through hash-compatible equalities become a
      memoized hash semi-join, the rest run per outer binding;
    - a greedy join-order heuristic picks the cheapest next alias from
      row counts, per-column distinct counts and the pathid sets, each
      conjunct is placed on the first step that binds its aliases, and
      each step accesses its table through the best available path —
      equality lookup, range scan, prefix lookups, a pruned partition
      scan (a heap merge of the matched path partitions' Dewey-sorted
      segments), a hash join for equijoins with no usable index, or a
      full scan.

    All conjuncts are re-checked as residual filters, so access-path
    choice can never change results, only speed. When the chosen
    pipeline already emits rows in the requested ORDER BY order (the
    outermost step walks an index, or partition segments, sorted on the
    single sort column), the final stable sort is elided (EXPLAIN:
    [order: preserved]). Hash joins and decorrelated [EXISTS] key on
    typed canonical values: integral numbers as integers, other numbers
    as floats, [VARCHAR] and [RAW] as one string key, NULL as none. One
    executor runs the steps the passes build, for serving, EXPLAIN and
    profiling alike.

    [run_naive] executes the same statement by brute-force cross products
    with every optimization disabled and is the test oracle for the
    planner. *)

type result = {
  columns : string list;
  rows : Value.t array list;
}

exception Runtime_error of string
(** Type errors detected during execution, e.g. a boolean expression used
    as a value, or an unknown table or column. *)

(** {2 Optimizer switches} *)

type opts = {
  semijoin_reduction : bool;
      (** resolve path-filter regexes once at plan time and probe the
          materialized pathid set instead of joining [paths] *)
  hash_join : bool;
      (** build-and-probe hash joins for equijoins with no index path *)
  force : [ `Hash_join ] option;
      (** differential-testing hook, implying the operator's switch:
          [`Hash_join] picks a hash join even when an index path exists *)
}

val default_opts : opts
(** Reduction and hash joins on, [force] off. *)

(** {2 Execution statistics}

    Operator-level counters accumulated by every plan: cumulative
    ({!plan_stats}), and reported in place since the last report
    ({!report_stats}). Plan-time work (the reduction's regex sweep over
    the dimension table) is counted too, so a freshly prepared plan
    already has non-zero stats. Each counter is declared once, in
    {!counters}; every operation below, the service metrics and the CLI
    iterate that table. A record is read-only outside the engine
    ([private]); only the engine's operations write one. *)

type exec_stats = private {
  mutable rows_scanned : int;  (** rows fetched through access paths (incl. hash builds) *)
  mutable rows_probed : int;  (** hash-join and pathid-set probe operations *)
  mutable rows_emitted : int;  (** bindings surviving every join step *)
  mutable regex_plan_evals : int;
      (** plan-time regex executions: the semi-join reduction's sweep over
          the dimension table on a verdict-cache miss *)
  mutable regex_exec_evals : int;
      (** exec-time NFA simulations — REGEXP_LIKE predicates whose
          pattern exceeds the frozen-DFA state cap. Zero on every common
          path; the bench's regression gate. *)
  mutable dfa_execs : int;
      (** exec-time executions of a shared frozen DFA (residual
          REGEXP_LIKE filters) *)
  mutable hash_builds : int;  (** hash-join build tables materialized *)
  mutable reductions : int;  (** path-filter semi-join reductions applied *)
  mutable partitions_scanned : int;
      (** partitions a pruned partition scan touched (per execution) *)
  mutable partitions_pruned : int;
      (** partitions a pruned partition scan skipped (per execution) *)
  mutable peak_bytes : int;
      (** estimated peak resident bytes of plan-owned materializations:
          hash-join build tables, semi-join pathid sets and pruned
          partition key lists. These live for the plan's lifetime, so the
          running sum is the peak; across plans the field aggregates. *)
  content_candidates : int;
  content_verified : int;
  merge_steps : int;
      (** Always 0, and not in {!counters}: there are no content indexes
          and no merge join. The serving benchmark ([servebench/main.ml])
          still reads these three fields; drop them when that harness is
          next revised. *)
}

(** When a counter moves over a plan's life. *)
type scope =
  | Per_exec
      (** on every execution; a plan's first execution also counts the
          one-time hash builds in [rows_scanned] *)
  | Plan_lifetime
      (** at prepare or once per plan (its first execution), then holds:
          [regex_plan_evals] and [reductions] move only at prepare,
          [hash_builds] and [peak_bytes] once per plan. Report the
          plan's value, not a per-execution rate. *)

type counter = {
  name : string;  (** the field name, also the JSON key *)
  label : string;  (** the EXPLAIN / metrics-dump label *)
  scope : scope;
  get : exec_stats -> int;
}

val counters : counter list
(** Every operator counter, in field order. *)

val stats_to_string : exec_stats -> string
(** ["scanned 318, probed 0, ..."]: every counter as [label value]. *)

val stats_create : unit -> exec_stats
(** A fresh all-zero record to add into. *)

val stats_accumulate : into:exec_stats -> exec_stats -> unit
(** Add the second record into [into], in place. *)

val stats_zero : exec_stats

val stats_add : exec_stats -> exec_stats -> exec_stats

val stats_diff : exec_stats -> exec_stats -> exec_stats
(** [stats_diff after before]: per-field subtraction. [stats_zero],
    [stats_add] and [stats_diff] are kept for the serving benchmark
    ([servebench/main.ml]), which diffs snapshots; the library reports
    through {!report_stats}. *)

val run : ?opts:opts -> Database.t -> Sql.statement -> result

val run_naive : Database.t -> Sql.statement -> result
(** Cross-product evaluation, no indexes, no decorrelation, no optimizer
    pass. *)

(** {2 Prepared plans}

    [prepare] performs all planning work — join ordering, access-path
    choice, semi-join reduction, predicate compilation — exactly once and
    returns a reusable plan. Re-executing a plan skips planning entirely
    and also reuses memoized EXISTS state, materialized pathid sets and
    hash-join build tables across runs, so a warm plan is strictly
    cheaper than [run]. A plan is tied to the database epoch observed at
    prepare time: once the catalog changes ({!Database.epoch} moves), the
    plan is stale and must be re-prepared — this is the invalidation
    signal the service layer's plan cache keys on, and it is what makes
    caching the reduction's verdict and set sound. *)

type plan

val prepare : ?opts:opts -> Database.t -> Sql.statement -> plan
(** Plan the statement against the database's current contents. *)

val plan_epoch : plan -> int
(** The {!Database.epoch} value observed when the plan was prepared. *)

val plan_valid : plan -> bool
(** Whether the database is still at the plan's prepare-time epoch. *)

val plan_compatible : plan -> bool
(** Fine-grained revalidation against the write path's commit log: true
    when the database is unchanged, {e or} when every change since the
    plan's recorded table versions is explained by logged commits
    ({!Database.delta_pathids}) whose changed pathids the plan's
    footprint proves harmless ({!plan_footprint}) — a table is
    pathid-scoped in the footprint exactly when every access the plan
    makes to it is guarded by a semi-join reduction probe on its
    [path_id] column; any other access (including the swept [paths]
    dimension itself) invalidates on any touch. Takes the database's
    read lock when the epoch moved. On success the plan's recorded
    versions advance, so the next check is O(1) again. Strictly weaker
    than {!plan_valid}: a valid plan is always compatible. *)

val plan_footprint :
  plan -> (string * [ `All | `Paths of int list | `Swept of int list * int list ]) list
(** The plan's per-table dependency footprint, sorted by table name:
    which changed pathids re-plan. [`Paths matched]: those in [matched]
    (a reduction decided its regex on every [paths] row).
    [`Swept (matched, swept)]: those in [matched], and those outside
    [swept] that the table holds rows of (a reduction decided its regex
    only on the fact table's partition keys [swept]). [`All]: any touch.
    For tests and diagnostics. *)

val run_plan : plan -> result
(** Execute a prepared plan under the database's read lock (so a
    concurrent {!Database.with_write} commit never interleaves with row
    fetches). Raises {!Runtime_error} when the plan is incompatible with
    what changed ({!plan_compatible} is false); callers are expected to
    re-{!prepare}. *)

val plan_distinct : plan -> [ `Elided | `Hash | `Rows ] option
(** How the statement's final DISTINCT (a UNION's, for a union) removes
    duplicates, as EXPLAIN labels it; [None] without DISTINCT. *)

val plan_stats : plan -> exec_stats
(** Cumulative counters for this plan: planning work plus every
    {!run_plan} so far. EXPLAIN ANALYZE and the tests read it. *)

val report_stats : plan -> into:exec_stats -> unit
(** Add the plan's counts since its last report (or its prepare) into
    [into], in place, and mark them reported. Allocates nothing. Call it
    from the domain that ran the plan, or after [Pool.await] on its task. *)

(** {2 EXPLAIN and EXPLAIN ANALYZE}

    Both are readings of the prepared plan tree the executor runs: the
    select's steps with their chosen accesses, and the EXISTS sub-plans
    recorded, with their execution shape, when their predicates were
    compiled. Every step counts the rows it examines and passes on the
    served path too; EXPLAIN ANALYZE additionally sets the plan's
    internal profile flag so each step entry reads a monotonic clock. *)

val explain : ?opts:opts -> Database.t -> Sql.statement -> string
(** Human-readable plan of {!prepare}: applied semi-join reductions
    first, then one line per step with its access path ([hash join],
    [partition scan] and pathid set probes included), then how a
    [SELECT DISTINCT] removes duplicates:
    - [distinct: elided (key)] — every projection reads one alias X, X's
      declared key ({!Table.create_key}) is projected, and every other
      FROM alias joins on its own declared key through X (a parent's [id]
      through a child's fk, [paths.id] through [path_id]), so each X row
      occurs once and no duplicate can arise;
    - [distinct: hash (X.id)] — the same projection, but a join may repeat
      X rows (an ancestor step, an order axis): a hash set on the
      projected integer key;
    - [distinct: rows] — no projected key: a tree set over whole rows.
    A [UNION] prints its branches, then [union distinct: hash (col)] when
    every branch projects its declared key at column [col], else
    [union distinct: rows]. EXISTS sub-plans follow, indented, annotated
    with how the executor treats them (uncorrelated / decorrelated
    semi-join / correlated). *)

type step_profile = {
  table : string;
  alias : string;
  access : string;
      (** access path, plus any pathid set probes: the label {!explain}
          prints for the step *)
  examined : int;  (** rows fetched through the access path *)
  passed : int;  (** rows surviving this step's residual filters *)
  seconds : float;
      (** inclusive monotonic time: a step's loop body contains all
          later steps, so outer steps subsume inner ones *)
}

val run_profiled :
  ?opts:opts -> Database.t -> Sql.statement -> result * step_profile list * exec_stats
(** EXPLAIN ANALYZE: {!prepare} and one {!run_plan} with the profile flag
    set (under one read lock), then the plan's steps in {!explain} order —
    EXISTS sub-plans and union branches included — and the plan's
    counters, which equal {!plan_stats} after a plain prepare and run. *)

val explain_analyze :
  ?opts:opts -> Database.t -> Sql.statement -> string * result * exec_stats
(** {!run_profiled}, rendered: the {!explain} text with each step line
    followed by its examined and passed rows and its seconds. *)
