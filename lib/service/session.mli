(** A long-lived serving session over one shredded store.

    The paper's Section 4 translation is a pure function of the schema
    mapping and the option set, so a server can compile each distinct
    query once and replay the compiled artifact for every later arrival.
    A session owns a schema-aware store ({!Ppfx_shred.Loader.t}) and a
    bounded {!Lru} cache mapping

    {v normalized XPath text × values flag × translation options × schema fingerprint v}

    to the translated SQL statement and its prepared minidb plan
    ({!Ppfx_minidb.Engine.plan}). {!prepare} pays parse + translate +
    plan at most once per distinct query; {!execute} replays the plan.
    Query text is normalized by parsing and reprinting the canonical
    surface form, so [//a [ b ]] and [//a[b]] share one cache entry.

    Plans are tied to the store epoch ({!Ppfx_minidb.Database.epoch}).
    Loading another document through the write path — or any other
    table mutation — moves the epoch; a subsequent {!execute} detects the
    stale plan, re-plans against the new contents (the translated SQL
    stays valid: it depends only on the schema), and counts an
    invalidation in {!metrics}. *)

module Doc = Ppfx_xml.Doc
module Graph = Ppfx_schema.Graph
module Loader = Ppfx_shred.Loader
module Translate = Ppfx_translate.Translate
module Engine = Ppfx_minidb.Engine
module Sql = Ppfx_minidb.Sql

type t

val create : ?cache_capacity:int -> ?options:Translate.options -> Loader.t -> t
(** Wrap an existing store. [cache_capacity] bounds the number of live
    compiled queries (default 256). On {!execute}, a plan whose epoch
    moved is kept — not re-planned — when
    {!Ppfx_minidb.Engine.plan_compatible} proves every commit since its
    prepare disjoint from the plan's tables and pathids. *)

val of_doc : ?cache_capacity:int -> ?options:Translate.options ->
  ?schema:Graph.t -> Doc.t -> t
(** Shred a document (inferring the schema unless given) and open a
    session over the resulting store. *)

(** {2 The prepared-query protocol} *)

type prepared

val prepare : ?values:bool -> t -> string -> prepared
(** Parse the query and return its compiled form. [values] (default
    [false]) is passed to {!Translate.translate}: with it, element-final
    results also project their string values, and the text is cached
    apart from its values-free form. On a cache miss this
    translates to SQL and prepares the minidb plan (recording parse /
    translate / plan latencies); on a hit only the parse is paid.
    Raises {!Ppfx_xpath.Parser.Error} on malformed queries and
    {!Translate.Unsupported} on out-of-subset constructs. *)

val execute : t -> prepared -> Engine.result
(** Run the prepared plan against the current store contents. If the
    store epoch moved since the plan was prepared, the plan is kept when
    its footprint is provably disjoint from every intervening commit
    (counted in {!Metrics.retained}) and transparently re-planned
    otherwise (counted in {!Metrics.invalidations}). *)

val execute_ids : t -> prepared -> int list
(** {!execute} projected to sorted element ids (empty for provably-empty
    translations). *)

val run_ids : t -> string -> int list
(** [prepare] + [execute_ids]. *)

val canonical : prepared -> string
(** The normalized query text, which with {!values} keys the cache. *)

val values : prepared -> bool
(** Whether the statement was prepared with [~values:true]. *)

val sql : prepared -> Sql.statement option
(** The translated statement; [None] when the schema proves the result
    empty. *)

(** {2 Introspection} *)

val store : t -> Loader.t
val metrics : t -> Metrics.t
val epoch : t -> int
(** Current store epoch. *)

val fingerprint : t -> string
(** The translator fingerprint (schema × options) suffixing every cache
    key; equal fingerprints mean cache entries would be exchangeable. *)

val cache_length : t -> int
val cache_capacity : t -> int
val invalidate_cache : t -> unit
(** Drop every cached translation (epoch-based invalidation is automatic;
    this is the manual override). *)
