(* Tests for the sharded scatter-gather cluster: the domain pool, the
   frontier partitioner, the shard-safety analysis over hand-built SQL,
   the Dewey k-way merge, coordinator behaviour (routing, fallbacks,
   invalidation across loads), and qcheck differential properties pinning
   sharded execution byte-identical to the unsharded engine. *)

module Doc = Ppfx_xml.Doc
module Loader = Ppfx_shred.Loader
module Translate = Ppfx_translate.Translate
module Engine = Ppfx_minidb.Engine
module Database = Ppfx_minidb.Database
module Table = Ppfx_minidb.Table
module Value = Ppfx_minidb.Value
module Sql = Ppfx_minidb.Sql
module Xmark = Ppfx_workloads.Xmark
module Xparser = Ppfx_xpath.Parser
module Session = Ppfx_service.Session
module Metrics = Ppfx_service.Metrics
module Pool = Ppfx_cluster.Pool
module Partition = Ppfx_cluster.Partition
module Analysis = Ppfx_cluster.Analysis
module Merge = Ppfx_cluster.Merge
module Cluster = Ppfx_cluster.Cluster
module Update = Ppfx_update.Update

let schema = Xmark.schema ()

let tree1 = lazy (Xmark.generate ~seed:1 ~items_per_region:3 ())
let tree2 = lazy (Xmark.generate ~seed:2 ~items_per_region:2 ())
let doc1 = lazy (Doc.of_tree (Lazy.force tree1))
let doc2 = lazy (Doc.of_tree (Lazy.force tree2))

(* One shared cluster for the differential property: pool smaller than
   the shard count, so tasks genuinely queue behind busy workers. *)
let shared_cluster =
  lazy (Cluster.create ~pool_size:2 ~shards:3 schema [ Lazy.force tree1 ])

let shared_cluster4 =
  lazy (Cluster.create ~pool_size:2 ~shards:4 schema [ Lazy.force tree1 ])

let render (r : Engine.result) =
  String.concat "|" r.Engine.columns
  ^ "\n"
  ^ String.concat "\n"
      (List.map
         (fun row -> String.concat "," (Array.to_list (Array.map Value.to_string row)))
         r.Engine.rows)

let cold_render ?values (store : Loader.t) query =
  let expr = Xparser.parse query in
  let tr = Translate.create store.Loader.mapping in
  match Translate.translate ?values tr expr with
  | None -> "(empty)"
  | Some stmt -> render (Engine.run store.Loader.db stmt)

let cluster_render ?values cluster query =
  let p = Cluster.prepare ?values cluster query in
  match Session.sql p with
  | None -> "(empty)"
  | Some _ -> render (Cluster.execute cluster p)

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_inline () =
  let pool = Pool.create 0 in
  Alcotest.(check int) "size" 0 (Pool.size pool);
  let fut = Pool.submit pool (fun () -> 6 * 7) in
  Alcotest.(check int) "inline result" 42 (Pool.await fut);
  Alcotest.(check bool) "negligible queue wait inline" true
    (Pool.queue_wait fut < 1e-3);
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *)

let test_pool_parallel () =
  Pool.with_pool 2 (fun pool ->
      let futs = List.init 20 (fun i -> Pool.submit pool (fun () -> i * i)) in
      List.iteri
        (fun i fut ->
          Alcotest.(check int) (Printf.sprintf "task %d" i) (i * i) (Pool.await fut);
          Alcotest.(check bool) "non-negative queue wait" true
            (Pool.queue_wait fut >= 0.0))
        futs)

let test_pool_exceptions () =
  Pool.with_pool 1 (fun pool ->
      let fut = Pool.submit pool (fun () -> failwith "boom") in
      Alcotest.check Alcotest.bool "exception propagates" true
        (match Pool.await fut with
         | exception Failure m -> m = "boom"
         | _ -> false);
      (* The worker survives a failed task. *)
      let fut2 = Pool.submit pool (fun () -> 7) in
      Alcotest.(check int) "worker alive after failure" 7 (Pool.await fut2))

let test_pool_shutdown_rejects () =
  let pool = Pool.create 1 in
  Pool.shutdown pool;
  Alcotest.check Alcotest.bool "submit after shutdown rejected" true
    (match Pool.submit pool (fun () -> ()) with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* ------------------------------------------------------------------ *)
(* Partition                                                           *)
(* ------------------------------------------------------------------ *)

let test_partition_covers () =
  let doc = Lazy.force doc1 in
  let shards = 4 in
  let p = Partition.compute ~shards doc in
  let counts = Partition.counts p in
  let spine = Partition.replicated p in
  Alcotest.(check int) "counts + spine cover the document" (Doc.size doc)
    (Array.fold_left ( + ) 0 counts + List.length spine);
  (* Every element is kept by exactly one shard, or by all (spine). *)
  Doc.iter
    (fun e ->
      let keepers = ref 0 in
      for s = 0 to shards - 1 do
        if Partition.keep p ~shard:s e then incr keepers
      done;
      if !keepers <> 1 && !keepers <> shards then
        Alcotest.failf "element %d kept by %d of %d shards" e.Doc.id !keepers shards)
    doc

let test_partition_spine_closed () =
  (* The spine is ancestor-closed: a split element's parent is split. *)
  let doc = Lazy.force doc1 in
  let p = Partition.compute ~shards:4 doc in
  let spine = Partition.replicated p in
  Alcotest.(check bool) "root is spine" true
    (List.mem (Doc.root doc).Doc.id spine);
  List.iter
    (fun id ->
      let e = Doc.element doc id in
      if e.Doc.parent <> 0 && not (List.mem e.Doc.parent spine) then
        Alcotest.failf "spine element %d has non-spine parent %d" id e.Doc.parent)
    spine

let test_partition_balance () =
  let doc = Lazy.force doc1 in
  let shards = 4 in
  let counts = Partition.counts (Partition.compute ~shards doc) in
  let total = Array.fold_left ( + ) 0 counts in
  let ideal = total / shards in
  Array.iteri
    (fun s c ->
      if c < ideal / 2 || c > ideal + ideal / 2 then
        Alcotest.failf "shard %d holds %d elements (ideal %d)" s c ideal)
    counts

let test_partition_single_shard () =
  let doc = Lazy.force doc1 in
  let p = Partition.compute ~shards:1 doc in
  Alcotest.(check int) "one shard holds every non-spine element"
    (Doc.size doc - List.length (Partition.replicated p))
    (Partition.counts p).(0);
  Doc.iter
    (fun e ->
      Alcotest.(check bool) "everything kept" true (Partition.keep p ~shard:0 e))
    doc

(* ------------------------------------------------------------------ *)
(* Shard stores: row accounting                                        *)
(* ------------------------------------------------------------------ *)

let test_store_accounting () =
  let doc = Lazy.force doc1 in
  let shards = 3 in
  let p = Partition.compute ~shards doc in
  let spine = List.length (Partition.replicated p) in
  Cluster.with_cluster ~pool_size:0 ~shards schema [ Lazy.force tree1 ]
    (fun c ->
      let full = Session.store (Cluster.session c) in
      let full_paths = Table.row_count (Database.table full.Loader.db "paths") in
      let full_nodes = Database.total_rows full.Loader.db - full_paths in
      Alcotest.(check int) "full store holds the whole document" (Doc.size doc)
        full_nodes;
      let stores = Cluster.shard_stores c in
      let shard_nodes = ref 0 in
      Array.iter
        (fun (st : Loader.t) ->
          let paths = Table.row_count (Database.table st.Loader.db "paths") in
          Alcotest.(check int) "paths relation replicated in full" full_paths paths;
          shard_nodes := !shard_nodes + Database.total_rows st.Loader.db - paths)
        stores;
      Alcotest.(check int) "node rows = full + (N-1) * spine"
        (full_nodes + ((shards - 1) * spine))
        !shard_nodes)

(* ------------------------------------------------------------------ *)
(* Analysis over hand-built SQL                                        *)
(* ------------------------------------------------------------------ *)

let dewey a = Sql.Col (a, "dewey_pos")

let base_select ?(from = [ "item", "n" ]) ?where () =
  {
    Sql.distinct = true;
    projections =
      [
        Sql.Col ("n", "id"), "id"; dewey "n", "dewey_pos"; Sql.Col ("n", "text"), "value";
      ];
    from;
    where;
    order_by = [ dewey "n" ];
  }

let check_verdict name expected verdict =
  let to_str = function
    | Analysis.Partitionable -> "partitionable"
    | Analysis.Order_partitionable _ -> "order-partitionable"
    | Analysis.Fallback r -> "fallback: " ^ r
  in
  let matches =
    match expected, verdict with
    | `Partitionable, Analysis.Partitionable -> true
    | `Order, Analysis.Order_partitionable _ -> true
    | `Fallback, Analysis.Fallback _ -> true
    | _ -> false
  in
  if not matches then Alcotest.failf "%s: unexpected verdict %s" name (to_str verdict)

let test_analysis_shapes () =
  let analyze ?(bfks = [ "site_id" ]) stmt = Analysis.analyze ~boundary_fks:bfks stmt in
  let upper a = Sql.Concat (dewey a, Sql.Const (Value.Bin "\xff")) in
  let j2 = [ "item", "n"; "item", "n2" ] in
  check_verdict "plain scan" `Partitionable (analyze (Sql.Select (base_select ())));
  check_verdict "top-level count" `Fallback (analyze (Sql.Select_count (base_select ())));
  check_verdict "containment join" `Partitionable
    (analyze
       (Sql.Select
          (base_select ~from:j2
             ~where:(Sql.Between (dewey "n", dewey "n2", upper "n2"))
             ())));
  check_verdict "order-axis comparison" `Order
    (analyze
       (Sql.Select (base_select ~from:j2 ~where:(Sql.Cmp (Sql.Gt, dewey "n", upper "n2")) ())));
  check_verdict "order-axis under OR" `Order
    (analyze
       (Sql.Select
          (base_select ~from:j2
             ~where:
               (Sql.Or
                  ( Sql.Cmp (Sql.Eq, Sql.Col ("n", "id"), Sql.Col ("n2", "id")),
                    Sql.Cmp (Sql.Lt, upper "n2", dewey "n") ))
             ())));
  check_verdict "bare sibling order refinement" `Partitionable
    (analyze
       (Sql.Select
          (base_select ~from:j2
             ~where:
               (Sql.And
                  ( Sql.Cmp
                      (Sql.Eq, Sql.Col ("n", "africa_id"), Sql.Col ("n2", "africa_id")),
                    Sql.Cmp (Sql.Gt, dewey "n", dewey "n2") ))
             ())));
  check_verdict "sibling join at the boundary" `Order
    (analyze
       (Sql.Select
          (base_select ~from:j2
             ~where:(Sql.Cmp (Sql.Eq, Sql.Col ("n", "site_id"), Sql.Col ("n2", "site_id")))
             ())));
  check_verdict "fk join" `Partitionable
    (analyze
       (Sql.Select
          (base_select ~from:[ "item", "n"; "paths", "p" ]
             ~where:(Sql.Cmp (Sql.Eq, Sql.Col ("n", "path_id"), Sql.Col ("p", "id")))
             ())));
  (* A general cross-alias comparison is not shard-local, but it is a
     perfectly good coordinator conjunct: the two-sided decomposition
     rescues it too. *)
  check_verdict "cross-alias value join" `Order
    (analyze
       (Sql.Select
          (base_select ~from:j2
             ~where:(Sql.Cmp (Sql.Eq, Sql.Col ("n", "text"), Sql.Col ("n2", "text")))
             ())));
  let exists_inner ~correlated =
    {
      Sql.distinct = false;
      projections = [ Sql.Const Value.Null, "x" ];
      from = [ "person", "p" ];
      where =
        (if correlated then Some (Sql.Between (dewey "p", dewey "n", upper "n"))
         else None);
      order_by = [];
    }
  in
  check_verdict "correlated EXISTS" `Partitionable
    (analyze (Sql.Select (base_select ~where:(Sql.Exists (exists_inner ~correlated:true)) ())));
  check_verdict "uncorrelated EXISTS" `Fallback
    (analyze
       (Sql.Select (base_select ~where:(Sql.Exists (exists_inner ~correlated:false)) ())));
  check_verdict "COUNT sub-query" `Fallback
    (analyze
       (Sql.Select
          (base_select
             ~where:
               (Sql.Cmp
                  ( Sql.Eq,
                    Sql.Count_subquery (exists_inner ~correlated:true),
                    Sql.Const (Value.Int 2) ))
             ())));
  (* Without a projected statement-wide ordering there is nothing to
     merge on. *)
  check_verdict "unmergeable ordering" `Fallback
    (analyze (Sql.Select { (base_select ()) with Sql.order_by = [] }))

let test_merge_key () =
  let sel = base_select () in
  Alcotest.(check (option int)) "select keys on its dewey projection" (Some 1)
    (Analysis.merge_key (Sql.Select sel));
  Alcotest.(check (option int)) "union keys on its order column" (Some 1)
    (Analysis.merge_key (Sql.Union ([ sel; sel ], [ 1 ])));
  Alcotest.(check (option int)) "unordered union has no key" None
    (Analysis.merge_key (Sql.Union ([ sel; sel ], [])));
  Alcotest.(check (option int)) "count has no key" None
    (Analysis.merge_key (Sql.Select_count sel))

(* ------------------------------------------------------------------ *)
(* Merge                                                               *)
(* ------------------------------------------------------------------ *)

let result_of rows = { Engine.columns = [ "id" ]; rows }

let test_merge_round_robin () =
  let rows = List.init 30 (fun i -> [| Value.Int (i * 3) |]) in
  let nth_list k = List.filteri (fun i _ -> i mod 3 = k) rows in
  let root = [| Value.Int (-1) |] in
  let shards = List.init 3 (fun k -> result_of (root :: nth_list k)) in
  let merged = Merge.merge ~key:0 shards in
  Alcotest.(check int) "root deduplicated" (List.length rows + 1)
    (List.length merged.Engine.rows);
  Alcotest.(check string) "merged equals the full ordered result"
    (render (result_of (root :: rows)))
    (render merged)

let prop_merge_partition =
  QCheck.Test.make ~count:200 ~name:"k-way merge restores any sharding of a sorted result"
    QCheck.(pair (small_list small_int) (int_range 1 5))
    (fun (xs, k) ->
      let rows = List.sort_uniq compare xs |> List.map (fun i -> [| Value.Int i |]) in
      (* Deterministic pseudo-random assignment of rows to k shards. *)
      let lists = Array.make k [] in
      List.iteri (fun i row -> lists.(i * 7919 mod k) <- row :: lists.(i * 7919 mod k)) rows;
      let shards = Array.to_list (Array.map (fun l -> result_of (List.rev l)) lists) in
      let merged = Merge.merge ~key:0 shards in
      render merged = render (result_of rows))

let prop_merge_replicated_root =
  QCheck.Test.make ~count:200
    ~name:"rows present in every shard collapse to one copy"
    QCheck.(small_list small_int)
    (fun xs ->
      let rows = List.sort_uniq compare xs |> List.map (fun i -> [| Value.Int i |]) in
      let root = [| Value.Int (-1) |] in
      let shards = List.init 3 (fun k ->
          result_of (root :: List.filteri (fun i _ -> i mod 3 = k) rows))
      in
      let merged = Merge.merge ~key:0 shards in
      render merged = render (result_of (root :: rows)))

(* ------------------------------------------------------------------ *)
(* Coordinator behaviour                                               *)
(* ------------------------------------------------------------------ *)

let test_cluster_routing () =
  let c = Lazy.force shared_cluster in
  (match Cluster.verdict c "//item" with
   | Some Analysis.Partitionable -> ()
   | v ->
     Alcotest.failf "//item should scatter, got %s"
       (match v with
        | None -> "empty"
        | Some (Analysis.Fallback r) -> "fallback: " ^ r
        | Some _ -> "?"));
  (match Cluster.verdict c "//item/following::item" with
   | Some (Analysis.Order_partitionable _) -> ()
   | Some (Analysis.Fallback r) ->
     Alcotest.failf "following:: should order-scatter, fell back: %s" r
   | _ -> Alcotest.fail "following:: should order-scatter");
  (match Cluster.verdict c "//parlist[count(listitem) >= 2]" with
   | Some (Analysis.Fallback _) -> ()
   | _ -> Alcotest.fail "COUNT sub-query should fall back");
  Alcotest.(check (option string)) "provably empty query" None
    (Option.map (fun _ -> "") (Cluster.verdict c "/site/person"));
  Alcotest.(check (list int)) "empty query returns nothing" []
    (Cluster.run_ids c "/site/person")

let test_cluster_equals_session_on_xpathmark () =
  let c = Lazy.force shared_cluster in
  let session = Session.of_doc ~schema (Lazy.force doc1) in
  List.iter
    (fun (name, q) ->
      Alcotest.(check (list int))
        (name ^ " agrees with the unsharded session")
        (Session.run_ids session q) (Cluster.run_ids c q))
    Xmark.queries

let test_cluster_metrics () =
  Cluster.with_cluster ~pool_size:0 ~shards:3 schema [ Lazy.force tree1 ] (fun c ->
      let ids = Cluster.run_ids c "//keyword" in
      Alcotest.(check bool) "some keywords" true (ids <> []);
      let m = Cluster.metrics c in
      Alcotest.(check int) "one query" 1 (Metrics.get m Metrics.Queries);
      Alcotest.(check int) "no fallback" 0 (Metrics.get m Metrics.Fallbacks);
      Alcotest.(check int) "merge recorded" 1 (Metrics.stage_count m Metrics.Merge);
      Alcotest.(check int) "rows recorded" (List.length ids) (Metrics.get m Metrics.Rows);
      Array.iteri
        (fun s sm ->
          Alcotest.(check int) (Printf.sprintf "shard %d executed once" s) 1
            (Metrics.stage_count sm Metrics.Execute);
          Alcotest.(check int) (Printf.sprintf "shard %d queue recorded" s) 1
            (Metrics.stage_count sm Metrics.Queue))
        (Cluster.shard_metrics c);
      (match Cluster.last_stats c with
       | None -> Alcotest.fail "scatter stats missing"
       | Some s ->
         (* keyword is never a spine relation, so shard results are
            disjoint and sum exactly to the merged total *)
         Alcotest.(check int) "per-shard rows sum to the merged total"
           (List.length ids)
           (Array.fold_left ( + ) 0 s.Cluster.shard_rows));
      ignore (Cluster.run_ids c "//item/following::item");
      Alcotest.(check int) "order axis is not a fallback" 0
        (Metrics.get (Cluster.metrics c) Metrics.Fallbacks);
      Alcotest.(check int) "order-axis side merges recorded" 2
        (Metrics.stage_count (Cluster.metrics c) Metrics.Merge);
      ignore (Cluster.run_ids c "//parlist[count(listitem) >= 2]");
      Alcotest.(check int) "fallback counted" 1 (Metrics.get (Cluster.metrics c) Metrics.Fallbacks))

(* An order scatter runs a shard's left and right plans at once on two
   pool workers, and the coordinator reports each plan after awaiting it.
   Every warm execution does the same work, so each shard sink's
   per-execution counters grow by the same amount each time: a count lost
   or doubled between the concurrent tasks would break the equality. *)
let test_cluster_order_scatter_counts () =
  Cluster.with_cluster ~pool_size:2 ~shards:3 schema [ Lazy.force tree1 ] (fun c ->
      let per_exec =
        List.filter (fun (k : Engine.counter) -> k.scope = Engine.Per_exec) Engine.counters
      in
      let snapshot () =
        Array.map
          (fun sm ->
            let e = Metrics.engine_stats sm in
            List.map (fun (k : Engine.counter) -> k.get e) per_exec)
          (Cluster.shard_metrics c)
      in
      let run () = ignore (Cluster.run_ids c "//item/following::item") in
      run ();
      let growth () =
        let before = snapshot () in
        run ();
        Array.map2 (List.map2 ( - )) (snapshot ()) before
      in
      let first = growth () in
      Alcotest.(check bool) "the shards did work" true
        (Array.exists (List.exists (fun n -> n > 0)) first);
      for i = 2 to 6 do
        Array.iteri
          (fun s g ->
            Alcotest.(check (list int))
              (Printf.sprintf "execution %d, shard %d: same growth" i s)
              first.(s) g)
          (growth ())
      done)

(* Order-axis queries must route through the two-sided decomposition
   (Order_partitionable — no single-store fallback) and still come back
   byte-identical to unsharded execution, on more than one shard. *)
let test_cluster_order_axis_scatter () =
  let queries =
    [
      "//item/following::item";
      "//item/preceding::item";
      "/site/regions/*/item/following::person";
      "//person/preceding::item/name";
    ]
  in
  List.iter
    (fun cluster ->
      let c = Lazy.force cluster in
      let full = Session.store (Cluster.session c) in
      List.iter
        (fun q ->
          (match Cluster.verdict c q with
           | Some (Analysis.Order_partitionable _) -> ()
           | Some (Analysis.Fallback r) ->
             Alcotest.failf "%s should order-scatter, fell back: %s" q r
           | Some Analysis.Partitionable ->
             Alcotest.failf "%s unexpectedly plain-partitionable" q
           | None -> Alcotest.failf "%s translated to nothing" q);
          Alcotest.(check string)
            (Printf.sprintf "%s byte-identical on %d shards" q (Cluster.shards c))
            (cold_render full q) (cluster_render c q))
        queries)
    [ shared_cluster; shared_cluster4 ]

(* Scatter, order-scatter and fallback serve both result shapes: each
   corpus query, and unions mixing element- and text()-final branches,
   come back byte-identical to the unsharded engine with values off and
   on, one text holding two cached statements. *)
let test_cluster_values_both_modes () =
  let queries =
    List.map snd (Xmark.queries @ Xmark.extension_queries)
    @ [ "//keyword | //item/name/text()"; "//item/following::item | //person/name/text()" ]
  in
  List.iter
    (fun cluster ->
      let c = Lazy.force cluster in
      let full = Session.store (Cluster.session c) in
      List.iter
        (fun q ->
          List.iter
            (fun values ->
              Alcotest.(check string)
                (Printf.sprintf "%s (values %b) on %d shards" q values (Cluster.shards c))
                (cold_render ~values full q) (cluster_render ~values c q))
            [ false; true; false ])
        queries)
    [ shared_cluster; shared_cluster4 ]

let test_cluster_load_invalidates () =
  Cluster.with_cluster ~pool_size:0 ~shards:2 schema [ Lazy.force tree1 ] (fun c ->
      let before = Cluster.run_ids c "//keyword" in
      Cluster.load c (Lazy.force tree1);
      let after = Cluster.run_ids c "//keyword" in
      Alcotest.(check int) "identical second document doubles the answer"
        (2 * List.length before) (List.length after);
      let invalidations =
        Array.fold_left
          (fun acc sm -> acc + Metrics.get sm Metrics.Invalidations)
          0 (Cluster.shard_metrics c)
      in
      Alcotest.(check bool) "shard plans re-prepared after the load" true
        (invalidations >= 1);
      let store = Loader.shred schema (Lazy.force doc1) in
      let session = Session.create (Loader.load store (Lazy.force doc1)) in
      Alcotest.(check (list int)) "agrees with unsharded session after load"
        (Session.run_ids session "//keyword") after)

let test_cluster_multi_doc_create () =
  Cluster.with_cluster ~pool_size:0 ~shards:3 schema
    [ Lazy.force tree1; Lazy.force tree2 ]
    (fun c ->
      let store = Loader.shred schema (Lazy.force doc1) in
      let session = Session.create (Loader.load store (Lazy.force doc2)) in
      List.iter
        (fun q ->
          Alcotest.(check (list int)) (q ^ " over two documents")
            (Session.run_ids session q) (Cluster.run_ids c q))
        [ "//keyword"; "//person[.//name]"; "//item/following-sibling::item" ])

(* A bulk load after a caret insert numbers its elements past the
   inserted ones, on the coordinator and on every shard: the cluster
   then answers as an unsharded store that ran the same history, and its
   shadow still rebuilds from the coordinator's rows. *)
let test_cluster_load_after_caret_insert () =
  let t1 = Xmark.generate ~seed:1 ~items_per_region:1 () in
  let t2 = Xmark.generate ~seed:2 ~items_per_region:1 () in
  let reference = Update.create schema [ t1 ] in
  (* a caret insert: the new person goes before the last person of the
     last document *)
  let caret name =
    let tagged tag =
      List.sort compare
        (Hashtbl.fold
           (fun id _ acc -> if Update.node_tag reference id = tag then id :: acc else acc)
           (Update.ranks reference) [])
    in
    let last l = List.nth l (List.length l - 1) in
    Update.Insert_subtree
      {
        parent = last (tagged "people");
        before = Some (last (tagged "person"));
        fragment =
          Ppfx_xml.Parser.parse
            (Printf.sprintf {|<person id="%s"><name>%s</name></person>|} name name);
      }
  in
  Cluster.with_cluster ~pool_size:0 ~shards:2 schema [ t1 ] (fun c ->
      let step op =
        ignore (Cluster.update c op);
        ignore (Update.exec reference op)
      in
      step (caret "p-one");
      Cluster.load c t2;
      ignore (Update.load reference t2);
      step (caret "p-two");
      let s_ref = Session.create (Update.store reference) in
      List.iter
        (fun (name, q) ->
          Alcotest.(check (list int)) name (Session.run_ids s_ref q) (Cluster.run_ids c q))
        (Xmark.queries @ [ "all", "//*"; "documents", "/site" ]);
      Alcotest.(check int) "two documents" 2 (List.length (Cluster.run_ids c "/site"));
      let u = Cluster.full_update c in
      match Update.of_shadow (Update.store u) (Update.shadow u) with
      | _ -> ()
      | exception Update.Update_error e -> Alcotest.failf "the shadow no longer rebuilds: %s" e)

(* ------------------------------------------------------------------ *)
(* Differential properties                                             *)
(* ------------------------------------------------------------------ *)

(* Random queries over the XMark vocabulary; order-axis steps included
   so both the scatter and the fallback path are exercised. *)
let gen_query =
  let open QCheck.Gen in
  let name =
    oneofl
      [
        "site"; "regions"; "africa"; "asia"; "item"; "location"; "quantity"; "name";
        "description"; "parlist"; "listitem"; "text"; "keyword"; "emph"; "mailbox";
        "mail"; "people"; "person"; "address"; "city"; "country"; "open_auctions";
        "open_auction"; "bidder"; "increase"; "personref"; "interval"; "start"; "date";
        "closed_auctions"; "closed_auction"; "annotation"; "author"; "seller";
      ]
  in
  let test = frequency [ 5, name; 1, return "*" ] in
  let step =
    frequency
      [
        4, map (fun t -> "/" ^ t) test;
        3, map (fun t -> "//" ^ t) test;
        1, map (fun t -> "/following-sibling::" ^ t) name;
        1, map (fun t -> "/preceding-sibling::" ^ t) name;
        1, map (fun t -> "/following::" ^ t) name;
        1, map (fun t -> "/preceding::" ^ t) name;
      ]
  in
  let predicate =
    oneof
      [
        map (fun n -> "[" ^ n ^ "]") name;
        map (fun n -> "[.//" ^ n ^ "]") name;
        map (fun n -> "[parent::" ^ n ^ "]") name;
        map (fun n -> "[ancestor::" ^ n ^ "]") name;
        return "[@id]";
        return "[@featured = 'yes']";
        return "[position() = 2]";
        map2 (fun a b -> "[" ^ a ^ " or " ^ b ^ "]") name name;
      ]
  in
  map2
    (fun first steps ->
      "//" ^ first ^ String.concat "" (List.map (fun (s, p) -> s ^ p) steps))
    name
    (list_size (int_range 0 3) (pair step (oneof [ return ""; predicate ])))

let prop_sharded_equals_unsharded =
  QCheck.Test.make ~count:150
    ~name:"sharded scatter-gather execution is byte-identical to the unsharded engine"
    (QCheck.make ~print:(fun (q, values) -> Printf.sprintf "%s (values %b)" q values)
       QCheck.Gen.(pair gen_query bool))
    (fun (query, values) ->
      let c = Lazy.force shared_cluster in
      let full = Session.store (Cluster.session c) in
      match cold_render ~values full query with
      | exception Xparser.Error _ -> QCheck.assume_fail ()
      | exception Translate.Unsupported _ -> QCheck.assume_fail ()
      | cold ->
        let sharded = cluster_render ~values c query in
        if sharded <> cold then
          QCheck.Test.fail_reportf
            "query %s: sharded result differs\nunsharded:\n%s\nsharded:\n%s" query cold
            sharded
        else true)

(* The cluster's sessions prepare every shard plan with the default
   optimizer pass on (semi-join reduction + hash joins). A 4-shard
   scatter must stay byte-identical to the unsharded engine running with
   every optimization disabled — the optimizer differential and the
   partitioning differential checked in one property. *)
let opts_off = { Engine.semijoin_reduction = false; hash_join = false; force = None }

let unopt_render (store : Loader.t) query =
  let expr = Xparser.parse query in
  let tr = Translate.create store.Loader.mapping in
  match Translate.translate tr expr with
  | None -> "(empty)"
  | Some stmt -> render (Engine.run ~opts:opts_off store.Loader.db stmt)

let prop_optimized_sharded_equals_unoptimized =
  QCheck.Test.make ~count:120
    ~name:"4-shard optimized execution matches the unoptimized single store"
    (QCheck.make ~print:(fun q -> q) gen_query)
    (fun query ->
      let c = Lazy.force shared_cluster4 in
      let full = Session.store (Cluster.session c) in
      match unopt_render full query with
      | exception Xparser.Error _ -> QCheck.assume_fail ()
      | exception Translate.Unsupported _ -> QCheck.assume_fail ()
      | unopt ->
        let sharded = cluster_render c query in
        if sharded <> unopt then
          QCheck.Test.fail_reportf
            "query %s: optimized sharded result differs\nunoptimized:\n%s\nsharded:\n%s"
            query unopt sharded
        else true)

(* ------------------------------------------------------------------ *)

let () =
  let tc (name, f) = Alcotest.test_case name `Quick f in
  Alcotest.run "cluster"
    [
      ( "pool",
        List.map tc
          [
            "inline", test_pool_inline;
            "parallel", test_pool_parallel;
            "exceptions", test_pool_exceptions;
            "shutdown rejects", test_pool_shutdown_rejects;
          ] );
      ( "partition",
        List.map tc
          [
            "covers", test_partition_covers;
            "spine closed", test_partition_spine_closed;
            "balance", test_partition_balance;
            "single shard", test_partition_single_shard;
          ] );
      ("stores", List.map tc [ "row accounting", test_store_accounting ]);
      ( "analysis",
        List.map tc
          [ "verdict shapes", test_analysis_shapes; "merge key", test_merge_key ] );
      ( "merge",
        List.map tc [ "round robin", test_merge_round_robin ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_merge_partition; prop_merge_replicated_root ] );
      ( "coordinator",
        List.map tc
          [
            "routing", test_cluster_routing;
            "equals session on XPathMark", test_cluster_equals_session_on_xpathmark;
            "order-axis scatter", test_cluster_order_axis_scatter;
            "values off and on", test_cluster_values_both_modes;
            "metrics", test_cluster_metrics;
            "order-scatter shard counts", test_cluster_order_scatter_counts;
            "load invalidates", test_cluster_load_invalidates;
            "multi-document create", test_cluster_multi_doc_create;
            "load after a caret insert", test_cluster_load_after_caret_insert;
          ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_sharded_equals_unsharded; prop_optimized_sharded_equals_unoptimized ] );
    ]
