module Doc = Ppfx_xml.Doc
module Graph = Ppfx_schema.Graph
module Loader = Ppfx_shred.Loader
module Translate = Ppfx_translate.Translate
module Engine = Ppfx_minidb.Engine
module Database = Ppfx_minidb.Database
module Sql = Ppfx_minidb.Sql
module Ast = Ppfx_xpath.Ast
module Xparser = Ppfx_xpath.Parser

(* A cached compiled query. The SQL is valid for the session's lifetime
   (translation depends only on the schema mapping and options); the plan
   is valid for one store epoch and is re-prepared lazily after the store
   changes. [plan = None] iff the translation proved the result empty. *)
type entry = {
  canonical : string;
  values : bool;
  sql : Sql.statement option;
  mutable plan : Engine.plan option;
}

type t = {
  mutable store : Loader.t;
  translator : Translate.t;
  fingerprint : string;
  cache : entry Lru.t;
  metrics : Metrics.t;
}

type prepared = entry

let create ?(cache_capacity = 256) ?options store =
  let translator = Translate.create ?options store.Loader.mapping in
  {
    store;
    translator;
    fingerprint = Translate.fingerprint translator;
    cache = Lru.create ~capacity:cache_capacity;
    metrics = Metrics.create ();
  }

let of_doc ?cache_capacity ?options ?schema doc =
  let schema = match schema with Some s -> s | None -> Graph.infer doc in
  create ?cache_capacity ?options (Loader.shred schema doc)

let load t doc = t.store <- Loader.load t.store doc

let db t = t.store.Loader.db

let key t canonical ~values =
  canonical ^ (if values then "\x00values\x00" else "\x00") ^ t.fingerprint

let prepare ?(values = false) t text =
  Metrics.incr t.metrics Metrics.Prepares;
  let expr = Metrics.time t.metrics Metrics.Parse (fun () -> Xparser.parse text) in
  let canonical = Ast.to_string expr in
  let key = key t canonical ~values in
  match Lru.find t.cache key with
  | Some entry ->
    Metrics.incr t.metrics Metrics.Hits;
    entry
  | None ->
    Metrics.incr t.metrics Metrics.Misses;
    let sql =
      Metrics.time t.metrics Metrics.Translate (fun () ->
          Translate.translate ~values t.translator expr)
    in
    let plan =
      Option.map
        (fun stmt ->
          let plan =
            Metrics.time t.metrics Metrics.Plan (fun () -> Engine.prepare (db t) stmt)
          in
          (* Plan-time work: the semi-join reduction's regex sweep over the
             dimension table happens inside [prepare]. *)
          Metrics.add_plan t.metrics plan;
          plan)
        sql
    in
    let entry = { canonical; values; sql; plan } in
    (match Lru.add t.cache key entry with
     | Some _evicted -> Metrics.incr t.metrics Metrics.Evictions
     | None -> ());
    entry

let empty_result = { Engine.columns = []; rows = [] }

let replan t (p : prepared) stmt =
  Metrics.incr t.metrics Metrics.Invalidations;
  let plan =
    Metrics.time t.metrics Metrics.Plan (fun () -> Engine.prepare (db t) stmt)
  in
  Metrics.add_plan t.metrics plan;
  p.plan <- Some plan;
  plan

(* Run [plan], timed with two clock reads and reported in place: no
   closure on the warm path. A commit may land between the compatibility
   check and run_plan's own locked re-check, and again between a re-plan
   and its run: re-plan until the plan meets its store. An error raised
   by a plan that is still compatible is the query's own, not
   staleness. *)
let rec run t p stmt plan =
  let t0 = Metrics.now () in
  match Engine.run_plan plan with
  | result ->
    Metrics.record t.metrics Metrics.Execute (Metrics.now () -. t0);
    Metrics.add_plan t.metrics plan;
    Metrics.add t.metrics Metrics.Rows (List.length result.Engine.rows);
    result
  | exception Engine.Runtime_error _ when not (Engine.plan_compatible plan) ->
    run t p stmt (replan t p stmt)

let execute t (p : prepared) =
  Metrics.incr t.metrics Metrics.Queries;
  match p.sql with
  | None -> empty_result
  | Some stmt ->
    let plan =
      match p.plan with
      | Some plan when Engine.plan_valid plan -> plan
      | Some plan when Engine.plan_compatible plan ->
        (* The store changed, but every commit since prepare is logged and
           disjoint from this plan's table/pathid footprint: keep it. *)
        Metrics.incr t.metrics Metrics.Retained;
        plan
      | Some _ | None ->
        (* The store moved in a way that overlaps (or cannot be proven
           disjoint from) this plan: the SQL is still correct, only the
           plan must be rebuilt. *)
        replan t p stmt
    in
    run t p stmt plan

let execute_ids t p = Translate.result_ids (execute t p)

let run_ids t text = execute_ids t (prepare t text)

let canonical (p : prepared) = p.canonical

let values (p : prepared) = p.values

let sql (p : prepared) = p.sql

let store t = t.store

let metrics t = t.metrics

let epoch t = Database.epoch (db t)

let fingerprint t = t.fingerprint

let cache_length t = Lru.length t.cache

let cache_capacity t = Lru.capacity t.cache

let invalidate_cache t = Lru.clear t.cache
