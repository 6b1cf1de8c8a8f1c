module Doc = Ppfx_xml.Doc
module Tree = Ppfx_xml.Tree
module Graph = Ppfx_schema.Graph
module Mapping = Ppfx_shred.Mapping
module Loader = Ppfx_shred.Loader
module Update = Ppfx_update.Update
module Btree = Ppfx_minidb.Btree
module Value = Ppfx_minidb.Value
module Engine = Ppfx_minidb.Engine
module Sql = Ppfx_minidb.Sql
module Database = Ppfx_minidb.Database
module Table = Ppfx_minidb.Table
module Translate = Ppfx_translate.Translate
module Session = Ppfx_service.Session
module Metrics = Ppfx_service.Metrics
module Lru = Ppfx_service.Lru
module Wstore = Ppfx_wal.Store
module Wrecord = Ppfx_wal.Record

(* The scatter-gather coordinator.

   One full (unsharded) store lives inside a {!Session} and keeps three
   jobs: parse/translate/cache queries (the translation is shard-agnostic
   — it depends only on the schema mapping), execute fallback queries,
   and carry the overall serving metrics. Next to it sit [shards] shard
   stores, each loaded through {!Partition} so it holds the replicated
   root + Paths rows and an interval of root-child subtrees.

   Per query (keyed by canonical text and values flag, like the session
   cache: the two statements of one text differ in their SQL) the
   cluster caches a routing mode: scatter with one prepared plan per
   shard, or single-store fallback with the analysis reason. Shard plans
   are validated against their shard's epoch and re-prepared on the
   coordinator before the scatter — [Engine.prepare] touches planner-side
   caches ([Table.distinct_estimate]) and must not race a concurrent
   [run_plan] on the same shard database. The scattered tasks themselves
   share no mutable state: each runs a distinct plan against a distinct
   database. *)

type order_exec = {
  oplan : Analysis.order_plan;
  lplans : Engine.plan option array;
  rplans : Engine.plan option array;
  lcols : Table.column list;  (* resolved coordinator temp-table schemas *)
  rcols : Table.column list;
}

type mode =
  | Scatter of { key : int; plans : Engine.plan option array }
  | Order_scatter of order_exec
      (* two side selects scattered per shard, merged per side, joined by
         a coordinator select over two temp tables *)
  | Single of string
  | Empty  (** schema proved the result empty; no SQL at all *)

type scatter_stats = {
  critical_path : float;
  queue_waits : float array;
  shard_rows : int array;
}

type t = {
  session : Session.t;
  update : Update.t;  (* the full store's write path (shadow forest) *)
  mutable shard_stores : Loader.t array;
  shard_metrics : Metrics.t array;
  partition_counts : int array;
  pool : Pool.t;
  cache : mode Lru.t;
  mutable boundary_fks : string list;
      (* fk columns referencing relations with replicated (spine)
         instances; sibling joins on them cross shard boundaries *)
  nshards : int;
  mutable last : scatter_stats option;
  mutable wal : Wstore.t option;  (* the full store's durability log *)
  mutable shard_wals : Wstore.t array;  (* one per shard; [||] when volatile *)
}

type prepared = Session.prepared

let partition_into ~counts stores doc =
  let nshards = Array.length stores in
  (* Deficit-aware: steer this document's frontier subtrees toward the
     shards that are currently lightest, so repeated loads converge to
     balance instead of compounding per-document rounding drift. *)
  let p = Partition.compute ~current:counts ~shards:nshards doc in
  Array.iteri (fun s c -> counts.(s) <- counts.(s) + c) (Partition.counts p);
  ( Array.mapi
      (fun s store -> Loader.load ~keep:(Partition.keep p ~shard:s) store doc)
      stores,
    p )

(* Live element rows per shard (Paths excluded): the balance gauge
   surfaced through the session metrics after every load and routed
   mutation. *)
let shard_row_counts t =
  Array.to_list
    (Array.map
       (fun (st : Loader.t) ->
         List.fold_left
           (fun acc tbl ->
             if String.equal (Table.name tbl) Mapping.paths_table then acc
             else acc + Table.live_count tbl)
           0
           (Database.tables st.Loader.db))
       t.shard_stores)

let refresh_shard_gauge t =
  Metrics.set_shard_rows (Session.metrics t.session) (shard_row_counts t)

(* The boundary set of one partitioned document: [<relation>_id] for
   every relation instantiated by a spine element. The root relation's
   fk is included unconditionally: almost every split document has a
   spine root anyway, and keeping it in the set for the rare unsplit
   (single-shard) document only costs a conservative fallback. *)
let boundary_fks_of full doc p =
  let spine_fks =
    List.filter_map
      (fun id ->
        match Loader.def_of_element full ~doc id with
        | def -> Some (Mapping.relation full.Loader.mapping def ^ "_id")
        | exception Not_found -> None)
      (Partition.replicated p)
  in
  let root_def = Graph.root (Mapping.schema full.Loader.mapping) in
  List.sort_uniq compare
    ((Mapping.relation full.Loader.mapping root_def ^ "_id") :: spine_fks)

let create ?pool_size ?(cache_capacity = 256) ?options ~shards:nshards schema trees =
  if nshards < 1 then invalid_arg "Cluster.create: shards must be >= 1";
  let pool_size = match pool_size with Some n -> n | None -> nshards in
  let mapping = Mapping.of_schema schema in
  let full = ref (Loader.create mapping) in
  let stores = ref (Array.init nshards (fun _ -> Loader.create mapping)) in
  let counts = Array.make nshards 0 in
  let bfks = ref [] in
  List.iter
    (fun tree ->
      let doc = Doc.of_tree tree in
      full := Loader.load !full doc;
      let stores', p = partition_into ~counts !stores doc in
      stores := stores';
      bfks := List.sort_uniq compare (boundary_fks_of !full doc p @ !bfks))
    trees;
  let t =
    {
      session = Session.create ~cache_capacity ?options !full;
      update = Update.of_store !full trees;
      shard_stores = !stores;
      shard_metrics = Array.init nshards (fun _ -> Metrics.create ());
      partition_counts = counts;
      pool = Pool.create pool_size;
      cache = Lru.create ~capacity:cache_capacity;
      boundary_fks = !bfks;
      nshards;
      last = None;
      wal = None;
      shard_wals = [||];
    }
  in
  refresh_shard_gauge t;
  t

(* ------------------------------------------------------------------ *)
(* Durability                                                          *)
(* ------------------------------------------------------------------ *)

(* A durable cluster's data directory holds one WAL store per physical
   store: [full/] for the coordinator (its checkpoints carry the
   shadow's trees and id counters and the routing extras) and
   [shard-<k>/] for each shard (db-only: shard replay needs just the
   changesets and their routed [inserts] flags). *)
let full_dir data_dir = Filename.concat data_dir "full"
let shard_dir data_dir s = Filename.concat data_dir (Printf.sprintf "shard-%d" s)

let current_extras t =
  {
    Wrecord.partition_counts = Array.to_list t.partition_counts;
    boundary_fks = t.boundary_fks;
  }

let full_meta t =
  {
    Wrecord.m_schema = Mapping.schema (Session.store t.session).Loader.mapping;
    m_shadow = Some (Update.shadow t.update);
    m_extras = Some (current_extras t);
  }

let shard_meta t =
  {
    Wrecord.m_schema = Mapping.schema (Session.store t.session).Loader.mapping;
    m_shadow = None;
    m_extras = None;
  }

let durable t = Option.is_some t.wal
let wal_next_seq t = Option.map Wstore.next_seq t.wal

let make_durable ?io ?durability ?checkpoint_bytes ?checkpoint_records
    ~data_dir t =
  if durable t then invalid_arg "Cluster.make_durable: cluster is already durable";
  let w =
    Wstore.init ?io ?durability ?checkpoint_bytes ?checkpoint_records
      ~dir:(full_dir data_dir) ~db:(Update.db t.update) ~meta:(full_meta t) ()
  in
  Wstore.set_metrics w (Session.metrics t.session);
  let sws =
    Array.init t.nshards (fun s ->
        let sw =
          Wstore.init ?io ?durability ?checkpoint_bytes ?checkpoint_records
            ~dir:(shard_dir data_dir s)
            ~db:t.shard_stores.(s).Loader.db
            ~meta:(shard_meta t) ()
        in
        Wstore.set_metrics sw t.shard_metrics.(s);
        sw)
  in
  t.wal <- Some w;
  t.shard_wals <- sws

let flush_wal t =
  Option.iter Wstore.flush t.wal;
  Array.iter Wstore.flush t.shard_wals

let dispose_wal t =
  Option.iter Wstore.dispose t.wal;
  t.wal <- None;
  Array.iter Wstore.dispose t.shard_wals;
  t.shard_wals <- [||]

let maybe_checkpoint t =
  (match t.wal with
  | Some w when Wstore.should_checkpoint w ->
    Wstore.checkpoint w ~db:(Update.db t.update) ~meta:(full_meta t)
  | Some _ | None -> ());
  Array.iteri
    (fun s sw ->
      if Wstore.should_checkpoint sw then
        Wstore.checkpoint sw ~db:t.shard_stores.(s).Loader.db ~meta:(shard_meta t))
    t.shard_wals

(* A grown boundary set can flip cached Partitionable verdicts, so the
   routing cache is rebuilt. *)
let add_boundary_fks t fks =
  let bfks = List.sort_uniq compare (fks @ t.boundary_fks) in
  if bfks <> t.boundary_fks then begin
    t.boundary_fks <- bfks;
    Lru.clear t.cache
  end

let load t tree =
  if durable t then
    invalid_arg
      "Cluster.load: bulk document loads are not WAL-logged; load documents \
       before make_durable";
  let doc = Update.load t.update tree in
  let full = Update.store t.update in
  (* The shards take the numbering this load chose: their own counters
     know nothing of caret inserts. *)
  let numbered st =
    { st with Loader.doc_count = full.Loader.doc_count - 1; next_id = full.next_id - Doc.size doc }
  in
  let stores, p =
    partition_into ~counts:t.partition_counts (Array.map numbered t.shard_stores) doc
  in
  t.shard_stores <- stores;
  add_boundary_fks t (boundary_fks_of full doc p);
  refresh_shard_gauge t

(* ------------------------------------------------------------------ *)
(* Mutations                                                           *)
(* ------------------------------------------------------------------ *)

(* Does this shard hold element [id]'s row in relation [rel]? Probes the
   relation's id index (iter fallback for index-less tables). *)
let shard_holds (st : Loader.t) rel id =
  match Database.table_opt st.Loader.db rel with
  | None -> false
  | Some tbl -> (
    match Table.index_on tbl [ "id" ] with
    | Some tree -> Btree.find_equal tree [| Value.Int id |] <> []
    | None ->
      let found = ref false in
      Table.iter_rows
        (fun _ row -> if row.(0) = Value.Int id then found := true)
        tbl;
      !found)

let holders t id =
  match Update.node_relation t.update id with
  | rel ->
    List.filter (fun s -> shard_holds t.shard_stores.(s) rel id) (List.init t.nshards Fun.id)
  | exception Ppfx_update.Update.Update_error _ -> []

let lightest t =
  let counts = Array.of_list (shard_row_counts t) in
  let best = ref 0 in
  Array.iteri (fun s c -> if c < counts.(!best) then best := s) counts;
  !best

(* Which shard owns a changeset's new rows? Probe the splice point's
   element-sibling anchors first (a non-replicated anchor pins the
   subtree to its shard), then the parent. A parent replicated into
   several shards is a spine element: the insert starts a fresh frontier
   subtree, routed to the lightest shard — and its parent fk joins the
   boundary set, because sibling joins under that spine now cross
   shards. *)
let owner_shard t (rt : Update.routing) =
  let anchor_owner =
    List.find_map
      (fun anchor -> match holders t anchor with [ s ] -> Some s | _ -> None)
      (List.filter_map Fun.id [ rt.Update.rt_left; rt.Update.rt_right ])
  in
  match anchor_owner with
  | Some s -> s
  | None -> (
    match holders t rt.Update.rt_parent with
    | [ s ] -> s
    | [] -> lightest t
    | _ :: _ :: _ ->
      Option.iter (fun (_, fkcol) -> add_boundary_fks t [ fkcol ]) rt.Update.rt_fk;
      lightest t)

let update t op =
  let cs = Update.stage t.update op in
  let owner =
    let has_inserts =
      List.exists
        (function Update.Row_insert _ -> true | _ -> false)
        cs.Update.cs_ops
    in
    match cs.Update.cs_routing with
    | Some rt when has_inserts -> Some (owner_shard t rt)
    | Some _ | None -> None
  in
  (* Durable clusters log before they apply: the full record carries the
     staged op (shadow replay) plus the routing state as it will stand
     after this commit; each shard record carries its routed [inserts]
     flag. An ack only ever follows the append (and its policy fsync), so
     recovery can never miss an acked commit. *)
  (match t.wal with
  | None -> ()
  | Some w ->
    let extras =
      let counts = Array.copy t.partition_counts in
      (match owner with
      | Some s ->
        counts.(s) <- counts.(s) + (Update.outcome_of cs).Update.inserted
      | None -> ());
      {
        Wrecord.partition_counts = Array.to_list counts;
        boundary_fks = t.boundary_fks;
      }
    in
    ignore (Wstore.append w ~op ~inserts:true ~extras cs : int);
    Array.iteri
      (fun s sw ->
        let inserts = match owner with None -> true | Some o -> s = o in
        ignore (Wstore.append sw ~inserts cs : int))
      t.shard_wals);
  (* Coordinator first (it owns every row), then the shard replicas:
     updates/deletes apply where the row lives, inserts only on the
     owning shard. Each commit is logged fine-grained, so every store's
     prepared plans revalidate by footprint intersection. *)
  Update.commit (Update.db t.update) cs;
  Array.iteri
    (fun s (st : Loader.t) ->
      let inserts = match owner with None -> true | Some o -> s = o in
      Update.commit ~inserts st.Loader.db cs)
    t.shard_stores;
  let outcome = Update.outcome_of cs in
  (match owner with
   | Some s ->
     t.partition_counts.(s) <-
       t.partition_counts.(s) + outcome.Update.inserted
   | None -> ());
  refresh_shard_gauge t;
  maybe_checkpoint t;
  outcome

let prepare ?values t text = Session.prepare ?values t.session text

(* Resolve the coordinator temp-table schema of one side from the source
   catalog: every exported column keeps its source column's type. *)
let side_columns t (side : Analysis.order_side) =
  let db = (Session.store t.session).Loader.db in
  let column (mangled, src_table, src_col) =
    Option.bind (Database.table_opt db src_table) (fun tbl ->
        Option.map (fun ty -> { Table.name = mangled; ty }) (Table.column_ty tbl src_col))
  in
  let cols = List.filter_map column side.Analysis.os_cols in
  if List.length cols = List.length side.Analysis.os_cols then Some cols else None

let mode_for t p =
  let key = Session.canonical p ^ if Session.values p then "\x00values" else "" in
  match Lru.find t.cache key with
  | Some m -> m
  | None ->
    let m =
      match Session.sql p with
      | None -> Empty
      | Some stmt ->
        (match Analysis.analyze ~boundary_fks:t.boundary_fks stmt with
         | Analysis.Fallback reason -> Single reason
         | Analysis.Order_partitionable oplan ->
           (match side_columns t oplan.Analysis.op_left,
                  side_columns t oplan.Analysis.op_right with
            | Some lcols, Some rcols ->
              Order_scatter
                {
                  oplan;
                  lplans = Array.make t.nshards None;
                  rplans = Array.make t.nshards None;
                  lcols;
                  rcols;
                }
            | _ -> Single "order decomposition: unresolvable side column")
         | Analysis.Partitionable ->
           (match Analysis.merge_key stmt with
            | Some key -> Scatter { key; plans = Array.make t.nshards None }
            | None -> Single "no statement-wide dewey ordering to merge on"))
    in
    ignore (Lru.add t.cache key m);
    m

let revalidate_plans t stmt plans =
  Array.iteri
    (fun s store ->
      let stale =
        match plans.(s) with
        | None -> true
        | Some plan when Engine.plan_valid plan -> false
        | Some plan when Engine.plan_compatible plan ->
          (* The shard's epoch moved, but every commit since this plan was
             prepared is footprint-disjoint from it (fine-grained write
             path): keep the plan. *)
          Metrics.incr t.shard_metrics.(s) Metrics.Retained;
          false
        | Some _ ->
          Metrics.incr t.shard_metrics.(s) Metrics.Invalidations;
          true
      in
      if stale then begin
        let t0 = Metrics.now () in
        let plan = Engine.prepare store.Loader.db stmt in
        Metrics.record t.shard_metrics.(s) Metrics.Plan (Metrics.now () -. t0);
        (* Plan-time engine work (the semi-join reduction's regex sweep)
           is attributed to the shard the plan belongs to. *)
        Metrics.add_plan t.shard_metrics.(s) plan;
        plans.(s) <- Some plan
      end)
    t.shard_stores

(* One pool task per shard plan, answering its result and run time. The
   worker owns its plan for the whole task; the coordinator reports the
   plan's counters after [Pool.await], which orders that read after the
   worker's writes. The left and right plans of an order scatter run at
   once on two workers, so no sink is shared with a task. *)
let submit_shard_runs t plans =
  Array.map
    (fun plan ->
      let plan = Option.get plan in
      Pool.submit t.pool (fun () ->
          let s0 = Metrics.now () in
          let r = Engine.run_plan plan in
          (r, Metrics.now () -. s0)))
    plans

(* Await one scatter's shard tasks and account each run in its shard's
   sink: a query, its execute and queue times, its plan's engine counts
   and its answer rows, which also add into [shard_rows]. Raises
   [critical] to the longest run; returns the results in shard order. *)
let await_shards t plans futures ~shard_rows ~critical =
  Array.mapi
    (fun s future ->
      let r, dt = Pool.await future in
      let sm = t.shard_metrics.(s) in
      Metrics.incr sm Metrics.Queries;
      Metrics.record sm Metrics.Execute dt;
      Metrics.record sm Metrics.Queue (Pool.queue_wait future);
      Metrics.add_plan sm (Option.get plans.(s));
      let rows = List.length r.Engine.rows in
      Metrics.add sm Metrics.Rows rows;
      shard_rows.(s) <- shard_rows.(s) + rows;
      if dt > !critical then critical := dt;
      r)
    futures

let scatter t ~key ~plans stmt =
  let m = Session.metrics t.session in
  Metrics.incr m Metrics.Queries;
  revalidate_plans t stmt plans;
  let t0 = Metrics.now () in
  let futures = submit_shard_runs t plans in
  let shard_rows = Array.make t.nshards 0 and critical = ref 0.0 in
  let results = await_shards t plans futures ~shard_rows ~critical in
  Metrics.record m Metrics.Execute (Metrics.now () -. t0);
  let merged =
    Metrics.time m Metrics.Merge (fun () -> Merge.merge ~key (Array.to_list results))
  in
  Metrics.add m Metrics.Rows (List.length merged.Engine.rows);
  let queue_waits = Array.map Pool.queue_wait futures in
  t.last <- Some { critical_path = !critical; queue_waits; shard_rows };
  merged

(* Cross-shard order-axis execution: scatter both side selects over the
   shards, k-way merge each side, then load the two merged streams into
   a throwaway coordinator database — temp tables [lhs]/[rhs], indexed
   on the merge key so the engine serves the Dewey range join by index
   range scans — and run the coordinator select there. *)
let order_scatter t (oe : order_exec) =
  let left = oe.oplan.Analysis.op_left and right = oe.oplan.Analysis.op_right in
  let m = Session.metrics t.session in
  Metrics.incr m Metrics.Queries;
  revalidate_plans t (Sql.Select left.Analysis.os_select) oe.lplans;
  revalidate_plans t (Sql.Select right.Analysis.os_select) oe.rplans;
  let t0 = Metrics.now () in
  let lf = submit_shard_runs t oe.lplans in
  let rf = submit_shard_runs t oe.rplans in
  let shard_rows = Array.make t.nshards 0 and critical = ref 0.0 in
  let louts = await_shards t oe.lplans lf ~shard_rows ~critical in
  let routs = await_shards t oe.rplans rf ~shard_rows ~critical in
  let lmerged, rmerged =
    Metrics.time m Metrics.Merge (fun () ->
        ( Merge.merge ~key:left.Analysis.os_key (Array.to_list louts),
          Merge.merge ~key:right.Analysis.os_key (Array.to_list routs) ))
  in
  let db = Database.create () in
  let fill name cols (side : Analysis.order_side) merged =
    let tbl = Database.create_table db ~name ~columns:cols in
    List.iter (fun row -> ignore (Table.insert tbl row)) merged.Engine.rows;
    match List.nth_opt side.Analysis.os_cols side.Analysis.os_key with
    | Some (key_col, _, _) -> Table.create_index tbl [ key_col ]
    | None -> ()
  in
  fill "lhs" oe.lcols left lmerged;
  fill "rhs" oe.rcols right rmerged;
  let p0 = Metrics.now () in
  let plan = Engine.prepare db (Sql.Select oe.oplan.Analysis.op_coord) in
  Metrics.record m Metrics.Plan (Metrics.now () -. p0);
  let r = Engine.run_plan plan in
  Metrics.add_plan m plan;
  Metrics.record m Metrics.Execute (Metrics.now () -. t0);
  Metrics.add m Metrics.Rows (List.length r.Engine.rows);
  let queue_waits =
    Array.init t.nshards (fun s -> Pool.queue_wait lf.(s) +. Pool.queue_wait rf.(s))
  in
  t.last <- Some { critical_path = !critical; queue_waits; shard_rows };
  r

let execute t p =
  match mode_for t p with
  | Empty -> Session.execute t.session p
  | Single _ ->
    Metrics.incr (Session.metrics t.session) Metrics.Fallbacks;
    Session.execute t.session p
  | Scatter { key; plans } ->
    let stmt = match Session.sql p with Some s -> s | None -> assert false in
    scatter t ~key ~plans stmt
  | Order_scatter oe -> order_scatter t oe

let execute_ids t p = Translate.result_ids (execute t p)

let run_ids t text = execute_ids t (prepare t text)

let verdict t text =
  match mode_for t (prepare t text) with
  | Empty -> None
  | Single reason -> Some (Analysis.Fallback reason)
  | Scatter _ -> Some Analysis.Partitionable
  | Order_scatter oe -> Some (Analysis.Order_partitionable oe.oplan)

let close t =
  (* Drained shutdown for durable clusters: a final checkpoint per store
     rotates each log to empty, then the clean-manifest marker lets the
     next open skip the replay scan. *)
  (match t.wal with
  | Some w ->
    Wstore.close_clean w ~db:(Update.db t.update) ~meta:(full_meta t);
    t.wal <- None
  | None -> ());
  Array.iteri
    (fun s sw ->
      Wstore.close_clean sw ~db:t.shard_stores.(s).Loader.db ~meta:(shard_meta t))
    t.shard_wals;
  t.shard_wals <- [||];
  Pool.shutdown t.pool

let open_durable ?io ?durability ?checkpoint_bytes ?checkpoint_records
    ?pool_size ?(cache_capacity = 256) ?options ~data_dir () =
  let ( let* ) = Result.bind in
  let* full_rec =
    Wstore.recover ?io ?durability ?checkpoint_bytes ?checkpoint_records
      ~dir:(full_dir data_dir) ()
  in
  let fail_full msg =
    Wstore.dispose full_rec.Wstore.store;
    Error msg
  in
  match
    Wstore.rebuild_full ~db:full_rec.Wstore.db ~meta:full_rec.Wstore.meta
      full_rec.Wstore.records
  with
  | Error e -> fail_full (Printf.sprintf "full store: %s" e)
  | Ok u -> (
    match Wstore.final_extras full_rec.Wstore.meta full_rec.Wstore.records with
    | None ->
      fail_full
        "full store carries no routing extras: not a cluster data directory"
    | Some extras ->
      let nshards = List.length extras.Wrecord.partition_counts in
      let rec recover_shards s acc =
        if s = nshards then Ok (Array.of_list (List.rev acc))
        else
          match
            Wstore.recover ?io ?durability ?checkpoint_bytes
              ?checkpoint_records ~dir:(shard_dir data_dir s) ()
          with
          | Ok r -> recover_shards (s + 1) (r :: acc)
          | Error e ->
            List.iter (fun r -> Wstore.dispose r.Wstore.store) acc;
            Error (Printf.sprintf "shard %d: %s" s e)
      in
      (match recover_shards 0 [] with
      | Error e -> fail_full e
      | Ok shard_recs -> (
        match
          Array.map
            (fun (r : Wstore.recovered) ->
              Wstore.rebuild_db ~db:r.Wstore.db ~meta:r.Wstore.meta
                r.Wstore.records)
            shard_recs
        with
        | stores ->
          (* Reconcile shard lag. The coordinator's log is appended first
             on every commit, so a crash mid-fan-out can leave a shard
             one record behind (or with a torn frame for it). The
             coordinator's records are authoritative: re-apply each
             missing changeset to the lagging shard — deriving the
             record's insert owner from the partition-count delta in its
             extras — and re-append it so the shard's log and sequence
             chain catch back up. *)
          let fstore = full_rec.Wstore.store in
          let swals =
            Array.map (fun (r : Wstore.recovered) -> r.Wstore.store) shard_recs
          in
          let full_last = Wstore.next_seq fstore - 1 in
          let prev_extras seq =
            List.fold_left
              (fun acc (r : Wrecord.t) ->
                if r.Wrecord.r_seq < seq then
                  match r.Wrecord.r_extras with Some e -> Some e | None -> acc
                else acc)
              full_rec.Wstore.meta.Wrecord.m_extras full_rec.Wstore.records
          in
          let owner_of (r : Wrecord.t) =
            match (prev_extras r.Wrecord.r_seq, r.Wrecord.r_extras) with
            | Some p, Some c ->
              let pa = Array.of_list p.Wrecord.partition_counts in
              let o = ref None in
              List.iteri
                (fun i v -> if i < Array.length pa && v > pa.(i) then o := Some i)
                c.Wrecord.partition_counts;
              !o
            | _ -> None
          in
          Array.iteri
            (fun s sw ->
              let last = Wstore.next_seq sw - 1 in
              List.iter
                (fun (r : Wrecord.t) ->
                  if r.Wrecord.r_seq > last && r.Wrecord.r_seq <= full_last
                  then begin
                    let inserts =
                      match owner_of r with None -> true | Some o -> s = o
                    in
                    Update.commit ~inserts stores.(s).Loader.db r.Wrecord.r_cs;
                    ignore (Wstore.append sw ~inserts r.Wrecord.r_cs : int)
                  end)
                full_rec.Wstore.records)
            swals;
          let pool_size =
            match pool_size with Some n -> n | None -> nshards
          in
          let t =
            {
              session = Session.create ~cache_capacity ?options (Update.store u);
              update = u;
              shard_stores = stores;
              shard_metrics = Array.init nshards (fun _ -> Metrics.create ());
              partition_counts = Array.of_list extras.Wrecord.partition_counts;
              pool = Pool.create pool_size;
              cache = Lru.create ~capacity:cache_capacity;
              boundary_fks = extras.Wrecord.boundary_fks;
              nshards;
              last = None;
              wal = Some fstore;
              shard_wals = swals;
            }
          in
          Wstore.set_metrics fstore (Session.metrics t.session);
          Array.iteri
            (fun s sw -> Wstore.set_metrics sw t.shard_metrics.(s))
            t.shard_wals;
          refresh_shard_gauge t;
          Ok t
        | exception Update.Update_error msg ->
          Array.iter (fun (r : Wstore.recovered) -> Wstore.dispose r.Wstore.store) shard_recs;
          fail_full (Printf.sprintf "shard replay: %s" msg))))

let with_cluster ?pool_size ?cache_capacity ?options ~shards schema trees f =
  let t = create ?pool_size ?cache_capacity ?options ~shards schema trees in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

let session t = t.session

let metrics t = Session.metrics t.session

let shards t = t.nshards

let pool_size t = Pool.size t.pool

let shard_metrics t = Array.copy t.shard_metrics

let shard_stores t = Array.copy t.shard_stores

let partition_counts t = Array.copy t.partition_counts

let last_stats t = t.last

let full_update t = t.update
