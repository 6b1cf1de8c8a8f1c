(* Tests for the write path (lib/update): typed subtree mutations over a
   shredded store with ORDPATH caret labels, incremental Paths
   maintenance, fine-grained plan invalidation, and the cluster/wire
   integrations.

   The load-bearing properties:
   - a random mutation sequence applied incrementally produces exactly
     the query results of re-shredding the mutated documents from
     scratch (rank-normalized: incremental stores keep original element
     ids, a re-shred renumbers) — on a single store AND across a
     4-shard cluster;
   - no insert ever rewrites an existing stored label (ORDPATH's core
     guarantee), and every element's children stay strictly
     label-ordered;
   - a prepared plan whose footprint is disjoint from a commit executes
     with ZERO re-plans (the plans-retained metric), while an
     overlapping commit still invalidates. *)

module Tree = Ppfx_xml.Tree
module Doc = Ppfx_xml.Doc
module Xmlparser = Ppfx_xml.Parser
module Graph = Ppfx_schema.Graph
module Database = Ppfx_minidb.Database
module Table = Ppfx_minidb.Table
module Value = Ppfx_minidb.Value
module Codec = Ppfx_minidb.Codec
module Loader = Ppfx_shred.Loader
module Update = Ppfx_update.Update
module Session = Ppfx_service.Session
module Metrics = Ppfx_service.Metrics
module Cluster = Ppfx_cluster.Cluster
module Xmark = Ppfx_workloads.Xmark
module Server = Ppfx_net.Server
module Client = Ppfx_client.Client

(* ------------------------------------------------------------------ *)
(* A small fixed document for the unit tests                           *)
(* ------------------------------------------------------------------ *)

let small_xml =
  {|<site>
  <people>
    <person id="p1"><name>ann</name><address><city>oslo</city></address></person>
    <person id="p2"><name>bob</name></person>
    <person id="p3"><name>cyd</name></person>
  </people>
  <items>
    <item id="i1"><name>gold ring</name></item>
  </items>
</site>|}

let small () =
  let tree = Xmlparser.parse small_xml in
  let schema = Graph.infer (Doc.of_tree tree) in
  Update.create schema [ tree ], schema

let find_by_tag u tag =
  let ids =
    Hashtbl.fold
      (fun id _ acc -> if String.equal (Update.node_tag u id) tag then id :: acc else acc)
      (Update.ranks u) []
  in
  List.sort compare ids

let the_one u tag =
  match find_by_tag u tag with
  | [ id ] -> id
  | ids -> Alcotest.failf "expected one <%s>, found %d" tag (List.length ids)

let run_q u q = Session.run_ids (Session.create (Update.store u)) q

let frag = Xmlparser.parse

(* ------------------------------------------------------------------ *)
(* Unit: the five operations                                           *)
(* ------------------------------------------------------------------ *)

let test_insert_append () =
  let u, _ = small () in
  let people = the_one u "people" in
  let o =
    Update.exec u
      (Update.Insert_subtree
         { parent = people; before = None;
           fragment = frag {|<person id="p4"><name>dee</name></person>|} })
  in
  Alcotest.(check int) "two rows inserted" 2 o.Update.inserted;
  Alcotest.(check int) "no new paths" 0 o.Update.new_paths;
  Alcotest.(check int) "four persons" 4 (List.length (run_q u "//person"));
  Alcotest.(check (list int)) "predicate finds the new person"
    [ List.nth (find_by_tag u "person") 3 ]
    (run_q u {|//person[@id='p4']|});
  (* appended: its rank is the highest among persons *)
  let ranks = Update.ranks u in
  let person_ranks = List.map (Hashtbl.find ranks) (find_by_tag u "person") in
  let new_rank = Hashtbl.find ranks (List.nth (find_by_tag u "person") 3) in
  Alcotest.(check int) "last in document order among persons" new_rank
    (List.fold_left max 0 person_ranks)

let test_insert_before () =
  let u, _ = small () in
  let people = the_one u "people" in
  let first = List.hd (Update.node_children u people) in
  ignore
    (Update.exec u
       (Update.Insert_subtree
          { parent = people; before = Some first;
            fragment = frag {|<person id="p0"><name>zed</name></person>|} }));
  let persons = find_by_tag u "person" in
  let newcomer = List.nth persons 3 (* highest id = freshly allocated *) in
  let ranks = Update.ranks u in
  Alcotest.(check bool) "inserted before the old first person" true
    (Hashtbl.find ranks newcomer < Hashtbl.find ranks first);
  (* the shadow agrees with the relational image *)
  Alcotest.(check int) "four persons" 4 (List.length (run_q u "//person"))

let test_delete () =
  let u, _ = small () in
  let city = the_one u "city" in
  let p1 = List.hd (find_by_tag u "person") in
  let o = Update.exec u (Update.Delete_subtree { target = p1 }) in
  Alcotest.(check int) "person+name+address+city rows deleted" 4 o.Update.deleted;
  Alcotest.(check int) "city and address paths died" 2 o.Update.dead_paths;
  Alcotest.(check bool) "city gone from the shadow" false (Update.node_exists u city);
  Alcotest.(check (list int)) "no cities left" [] (run_q u "//city");
  Alcotest.(check int) "two persons left" 2 (List.length (run_q u "//person"))

let test_delete_root_rejected () =
  let u, _ = small () in
  let site = the_one u "site" in
  match Update.exec u (Update.Delete_subtree { target = site }) with
  | _ -> Alcotest.fail "deleting the document root must be rejected"
  | exception Update.Update_error _ -> ()

let test_replace () =
  let u, _ = small () in
  let persons = find_by_tag u "person" in
  let p2 = List.nth persons 1 in
  let o =
    Update.exec u
      (Update.Replace_subtree
         { target = p2;
           fragment = frag {|<person id="bobby"><name>bobby</name></person>|} })
  in
  Alcotest.(check bool) "rows deleted and inserted" true
    (o.Update.deleted > 0 && o.Update.inserted = 2);
  Alcotest.(check int) "still three persons" 3 (List.length (run_q u "//person"));
  let replacement = List.nth (find_by_tag u "person") 2 in
  let ranks = Update.ranks u in
  let rank id = Hashtbl.find ranks id in
  (* position preserved: strictly between the two surviving neighbors *)
  Alcotest.(check bool) "keeps the replaced element's position" true
    (rank (List.nth persons 0) < rank replacement
     && rank replacement < rank (List.nth persons 2));
  Alcotest.(check (list int)) "new attribute visible" [ replacement ]
    (run_q u {|//person[@id='bobby']|})

let test_set_text () =
  let u, _ = small () in
  let city = the_one u "city" in
  let p1 = List.hd (find_by_tag u "person") in
  ignore (Update.exec u (Update.Set_text { target = city; text = "paris" }));
  Alcotest.(check (list int)) "predicate sees the new text" [ p1 ]
    (run_q u {|//person[address/city='paris']|});
  Alcotest.(check (list int)) "old text gone" []
    (run_q u {|//person[address/city='oslo']|})

let test_set_attribute () =
  let u, _ = small () in
  let persons = find_by_tag u "person" in
  let p2 = List.nth persons 1 in
  ignore
    (Update.exec u (Update.Set_attribute { target = p2; name = "id"; value = Some "zz" }));
  Alcotest.(check (list int)) "new value matches" [ p2 ] (run_q u {|//person[@id='zz']|});
  Alcotest.(check (list int)) "old value gone" [] (run_q u {|//person[@id='p2']|});
  ignore (Update.exec u (Update.Set_attribute { target = p2; name = "id"; value = None }));
  Alcotest.(check (list int)) "attribute removed" [] (run_q u {|//person[@id='zz']|})

let test_invalid_ops_rejected () =
  let u, _ = small () in
  let people = the_one u "people" in
  let expect_error what f =
    match f () with
    | (_ : Update.outcome) -> Alcotest.failf "%s must be rejected" what
    | exception Update.Update_error _ -> ()
  in
  expect_error "unknown parent" (fun () ->
      Update.exec u
        (Update.Insert_subtree { parent = 99999; before = None; fragment = frag "<person/>" }));
  expect_error "non-conforming fragment" (fun () ->
      Update.exec u
        (Update.Insert_subtree { parent = people; before = None; fragment = frag "<bogus/>" }));
  expect_error "undeclared attribute" (fun () ->
      Update.exec u
        (Update.Set_attribute
           { target = List.hd (find_by_tag u "person"); name = "nope"; value = Some "x" }));
  (* a failed stage leaves the store untouched *)
  Alcotest.(check int) "store unchanged after rejections" 3
    (List.length (run_q u "//person"))

let test_new_path_interned () =
  let u, _ = small () in
  let persons = find_by_tag u "person" in
  let p2 = List.nth persons 1 (* bob: has no address yet *) in
  let o =
    Update.exec u
      (Update.Insert_subtree
         { parent = p2; before = None;
           fragment = frag "<address><city>lima</city></address>" })
  in
  Alcotest.(check int) "address and city paths already interned" 0 o.Update.new_paths;
  Alcotest.(check int) "two cities now" 2 (List.length (run_q u "//city"))

(* ------------------------------------------------------------------ *)
(* Unit: fine-grained plan retention (the acceptance criterion)        *)
(* ------------------------------------------------------------------ *)

let test_plan_retained_on_disjoint_commit () =
  let tree = Xmark.generate ~seed:11 ~items_per_region:1 () in
  let schema = Graph.infer (Doc.of_tree tree) in
  let u = Update.create schema [ tree ] in
  let session = Session.create (Update.store u) in
  let m = Session.metrics session in
  let p = Session.prepare session "//keyword" in
  let before = Session.execute_ids session p in
  Alcotest.(check bool) "query matches something" true (before <> []);
  (* A commit that touches only the people subtree: city text + every
     ancestor's string-value column. Disjoint from the //keyword plan's
     footprint (keyword relation + its pathids). *)
  let city = List.hd (find_by_tag u "city") in
  ignore (Update.exec u (Update.Set_text { target = city; text = "nowhere" }));
  let ret0 = Metrics.get m Metrics.Retained and inv0 = Metrics.get m Metrics.Invalidations in
  let after = Session.execute_ids session p in
  Alcotest.(check (list int)) "identical result through the retained plan" before after;
  Alcotest.(check int) "plan retained, not re-planned" (ret0 + 1) (Metrics.get m Metrics.Retained);
  Alcotest.(check int) "zero invalidations" inv0 (Metrics.get m Metrics.Invalidations);
  (* An overlapping commit — inserting a keyword — must invalidate. *)
  let text_el = List.hd (find_by_tag u "text") in
  ignore
    (Update.exec u
       (Update.Insert_subtree
          { parent = text_el; before = None; fragment = frag "<keyword>zzz</keyword>" }));
  let inv1 = Metrics.get m Metrics.Invalidations in
  let grown = Session.execute_ids session p in
  Alcotest.(check int) "keyword insert invalidates the plan" (inv1 + 1)
    (Metrics.get m Metrics.Invalidations);
  Alcotest.(check int) "and the re-planned query sees the new keyword"
    (List.length before + 1) (List.length grown)

(* The commit log is bounded ([Database.log_capacity] entries, oldest
   dropped): a plan prepared before the log's horizon can no longer
   prove its footprint disjoint, so it must conservatively re-plan —
   and still answer correctly. *)
let test_plan_older_than_log_conservatively_invalidates () =
  let tree = Xmark.generate ~seed:11 ~items_per_region:1 () in
  let schema = Graph.infer (Doc.of_tree tree) in
  let u = Update.create schema [ tree ] in
  let session = Session.create (Update.store u) in
  let m = Session.metrics session in
  (* the [name] relation is shared by [person/name] and [item/name]: the
     plan's footprint is the item pathids, the flood mutates a person
     name — same table, disjoint pathids, so retention depends on the
     per-table delta walk through the commit log *)
  let p = Session.prepare session "//item[location]/name" in
  let before = Session.execute_ids session p in
  Alcotest.(check bool) "query matches something" true (before <> []);
  let person_name =
    List.find
      (fun id ->
        match Update.node_parent u id with
        | Some par -> String.equal (Update.node_tag u par) "person"
        | None -> false)
      (find_by_tag u "name")
  in
  let flood n =
    for i = 1 to n do
      ignore
        (Update.exec u
           (Update.Set_text { target = person_name; text = Printf.sprintf "c%d" i }))
    done
  in
  (* within the log's horizon the disjoint-pathid proof still works *)
  flood 64;
  let ret0 = Metrics.get m Metrics.Retained and inv0 = Metrics.get m Metrics.Invalidations in
  Alcotest.(check (list int)) "retained plan answers identically" before
    (Session.execute_ids session p);
  Alcotest.(check int) "64 logged commits: plan retained" (ret0 + 1)
    (Metrics.get m Metrics.Retained);
  Alcotest.(check int) "no invalidation inside the horizon" inv0
    (Metrics.get m Metrics.Invalidations);
  (* past the bounded log's capacity the delta is unprovable *)
  flood (Database.log_capacity + 8);
  let ret1 = Metrics.get m Metrics.Retained and inv1 = Metrics.get m Metrics.Invalidations in
  Alcotest.(check (list int)) "re-planned query still answers identically" before
    (Session.execute_ids session p);
  Alcotest.(check int) "plan fell off the log horizon: conservative re-plan"
    (inv1 + 1) (Metrics.get m Metrics.Invalidations);
  Alcotest.(check int) "not counted as retained" ret1 (Metrics.get m Metrics.Retained);
  (* a plan prepared after the flood retains normally across a fresh
     disjoint commit: the bound only costs staleness, not precision *)
  let p2 = Session.prepare session "//item[location]/name" in
  ignore (Session.execute_ids session p2);
  ignore (Update.exec u (Update.Set_text { target = person_name; text = "last" }));
  let ret2 = Metrics.get m Metrics.Retained in
  ignore (Session.execute_ids session p2);
  Alcotest.(check int) "fresh plan retained through a disjoint commit" (ret2 + 1)
    (Metrics.get m Metrics.Retained)

(* ------------------------------------------------------------------ *)
(* Random mutation sequences                                           *)
(* ------------------------------------------------------------------ *)

(* The fragment pool: every element of the original tree that has a
   parent, paired with that parent's tag — schema-conforming subtrees to
   clone back in at matching positions. *)
let fragment_pool tree =
  let rec go ptag n acc =
    match n with
    | Tree.Text _ -> acc
    | Tree.Element { tag; children; _ } as e ->
      let acc = match ptag with Some pt -> (pt, e) :: acc | None -> acc in
      List.fold_left (fun acc c -> go (Some tag) c acc) acc children
  in
  Array.of_list (go None tree [])

let live_ids u =
  List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) (Update.ranks u) [])

(* Interpret one step against the current store state. Steps that land
   on an invalid choice (schema mismatch, root delete) are skipped: the
   stage raises before any mutation, so the store stays consistent. *)
let apply_step ~pool ~u ~exec (a, b, c) =
  let try_exec op = try ignore (exec op) with Update.Update_error _ -> () in
  let ids = live_ids u in
  let nth l i = List.nth l (i mod List.length l) in
  match a mod 6 with
  | 0 | 1 ->
    let ptag, fragment = pool.(b mod Array.length pool) in
    let parents =
      List.filter (fun id -> String.equal (Update.node_tag u id) ptag) ids
    in
    (match parents with
     | [] -> ()
     | ps ->
       let parent = nth ps c in
       let kids = Update.node_children u parent in
       let before = if kids = [] || c mod 2 = 0 then None else Some (nth kids b) in
       try_exec (Update.Insert_subtree { parent; before; fragment }))
  | 2 ->
    try_exec (Update.Delete_subtree { target = nth ids b })
  | 3 ->
    let ptag, fragment = pool.(b mod Array.length pool) in
    let targets =
      List.filter
        (fun id ->
          match Update.node_parent u id with
          | Some p -> String.equal (Update.node_tag u p) ptag
          | None -> false)
        ids
    in
    (match targets with
     | [] -> ()
     | ts -> try_exec (Update.Replace_subtree { target = nth ts c; fragment }))
  | 4 ->
    try_exec (Update.Set_text { target = nth ids b; text = Printf.sprintf "t%d" c })
  | _ ->
    (* attribute flips on the tags that declare them *)
    let items = List.filter (fun id -> Update.node_tag u id = "item") ids in
    (match items with
     | [] -> ()
     | its ->
       try_exec
         (Update.Set_attribute
            { target = nth its b; name = "id";
              value = if c mod 3 = 0 then None else Some (Printf.sprintf "item-x%d" c) }))

let steps_arb n =
  QCheck.make
    ~print:(fun steps ->
      String.concat ";"
        (List.map (fun (a, b, c) -> Printf.sprintf "%d,%d,%d" a b c) steps))
    QCheck.Gen.(
      list_size (int_range 4 n)
        (triple (int_bound 10000) (int_bound 10000) (int_bound 10000)))

let rank_set rk ids = List.sort compare (List.map (Hashtbl.find rk) ids)

(* The shredder's fact tables are path-partitioned with Dewey-sorted
   segments; every incremental commit must preserve that physical
   invariant (inserts caret into the right slot, deletes shrink the
   segment). Checked after each full mutation sequence. *)
let check_store_partitions label (st : Loader.t) =
  let partitioned = ref 0 in
  List.iter
    (fun t ->
      match Table.partition_spec t with
      | None -> ()
      | Some _ -> (
        incr partitioned;
        match Table.check_partitions t with
        | Ok () -> ()
        | Error e ->
          QCheck.Test.fail_reportf "%s: %s violates partition invariant: %s" label
            (Table.name t) e))
    (Database.tables st.Loader.db);
  if !partitioned = 0 then
    QCheck.Test.fail_reportf "%s: expected partitioned fact tables" label

(* Differential: incremental mutations == full re-shred, on one store. *)
let prop_incremental_equals_reshred =
  QCheck.Test.make ~count:8
    ~name:"incremental mutations equal a full re-shred (single store)"
    (steps_arb 10)
    (fun steps ->
      let tree = Xmark.generate ~seed:5 ~items_per_region:1 () in
      let schema = Graph.infer (Doc.of_tree tree) in
      let pool = fragment_pool tree in
      let u = Update.create schema [ tree ] in
      List.iter (apply_step ~pool ~u ~exec:(Update.exec u)) steps;
      check_store_partitions "single store" (Update.store u);
      let fresh = Update.create schema (Update.current_trees u) in
      let s_inc = Session.create (Update.store u) in
      let s_ref = Session.create (Update.store fresh) in
      let rk_inc = Update.ranks u and rk_ref = Update.ranks fresh in
      List.for_all
        (fun (name, q) ->
          let a = rank_set rk_inc (Session.run_ids s_inc q) in
          let b = rank_set rk_ref (Session.run_ids s_ref q) in
          if a <> b then
            QCheck.Test.fail_reportf "%s: incremental %d nodes, re-shred %d" name
              (List.length a) (List.length b)
          else true)
        Xmark.queries)

(* The same differential across a 4-shard cluster: mutations route to
   owning shards, spine replicas stay maintained, scatter-gather answers
   stay byte-identical to a from-scratch unsharded store. *)
let prop_cluster_incremental_equals_reshred =
  QCheck.Test.make ~count:5
    ~name:"incremental mutations equal a full re-shred (4-shard cluster)"
    (steps_arb 8)
    (fun steps ->
      let tree = Xmark.generate ~seed:7 ~items_per_region:1 () in
      let schema = Graph.infer (Doc.of_tree tree) in
      let pool = fragment_pool tree in
      Cluster.with_cluster ~pool_size:0 ~shards:4 schema [ tree ] (fun c ->
          let u = Cluster.full_update c in
          List.iter (apply_step ~pool ~u ~exec:(Cluster.update c)) steps;
          Array.iteri
            (fun i st -> check_store_partitions (Printf.sprintf "shard %d" i) st)
            (Cluster.shard_stores c);
          let fresh = Update.create schema (Update.current_trees u) in
          let s_ref = Session.create (Update.store fresh) in
          let rk_inc = Update.ranks u and rk_ref = Update.ranks fresh in
          List.for_all
            (fun (name, q) ->
              let a = rank_set rk_inc (Cluster.run_ids c q) in
              let b = rank_set rk_ref (Session.run_ids s_ref q) in
              if a <> b then
                QCheck.Test.fail_reportf "%s: cluster %d nodes, re-shred %d" name
                  (List.length a) (List.length b)
              else true)
            Xmark.queries))

(* ORDPATH's guarantee, observed at the store level: no mutation ever
   rewrites a surviving element's stored label, and every parent's
   element children stay strictly label-ordered. *)
let prop_labels_never_rewritten =
  QCheck.Test.make ~count:8 ~name:"no mutation rewrites a surviving stored label"
    (steps_arb 12)
    (fun steps ->
      let tree = Xmark.generate ~seed:13 ~items_per_region:1 () in
      let schema = Graph.infer (Doc.of_tree tree) in
      let pool = fragment_pool tree in
      let u = Update.create schema [ tree ] in
      List.for_all
        (fun step ->
          let snapshot =
            List.map (fun id -> id, Update.node_label u id) (live_ids u)
          in
          apply_step ~pool ~u ~exec:(Update.exec u) step;
          let stable =
            List.for_all
              (fun (id, l) ->
                (not (Update.node_exists u id))
                || String.equal (Update.node_label u id) l)
              snapshot
          in
          let ordered =
            List.for_all
              (fun id ->
                let rec increasing = function
                  | a :: (b :: _ as rest) ->
                    String.compare (Update.node_label u a) (Update.node_label u b) < 0
                    && increasing rest
                  | _ -> true
                in
                increasing (Update.node_children u id))
              (live_ids u)
          in
          stable && ordered)
        steps)

(* ------------------------------------------------------------------ *)
(* Loopback: the wire Update request over TCP                          *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* The shadow builder                                                  *)
(* ------------------------------------------------------------------ *)

(* Everything the shadow answers per live element, plus the rank table. *)
let shadow_view u =
  ( List.map
      (fun id ->
        ( id,
          Update.node_label u id,
          Update.node_path_id u id,
          Update.node_tag u id,
          Update.node_parent u id,
          Update.node_children u id ))
      (live_ids u),
    List.sort compare (Hashtbl.fold (fun id r acc -> (id, r) :: acc) (Update.ranks u) []) )

(* Rebuilt ≡ live: after every step of a random mutation sequence, the
   shadow rebuilt from [current_trees] and the store's rows answers like
   the live one, and staging the next operation on both derives the
   same changeset (or the same refusal). *)
let prop_rebuilt_equals_live =
  QCheck.Test.make ~count:8
    ~name:"a shadow rebuilt from the trees and rows equals the live one"
    (steps_arb 10)
    (fun steps ->
      let tree = Xmark.generate ~seed:11 ~items_per_region:1 () in
      let schema = Graph.infer (Doc.of_tree tree) in
      let pool = fragment_pool tree in
      let u = Update.create schema [ tree ] in
      let rebuilt () =
        let u' = Update.of_shadow (Update.store u) (Update.shadow u) in
        if shadow_view u <> shadow_view u' then
          QCheck.Test.fail_report "rebuilt shadow differs from the live one";
        u'
      in
      let stage v op =
        match Update.stage v op with
        | cs -> Ok cs
        | exception Update.Update_error e -> Error e
      in
      List.iter
        (fun step ->
          let u' = rebuilt () in
          apply_step ~pool ~u step ~exec:(fun op ->
              let rebuilt_cs = stage u' op and live_cs = stage u op in
              if rebuilt_cs <> live_cs then
                QCheck.Test.fail_report "the rebuilt shadow stages a different changeset";
              match live_cs with
              | Ok cs -> Update.commit (Update.db u) cs
              | Error e -> raise (Update.Update_error e)))
        steps;
      ignore (rebuilt ());
      true)

let rec map_elements f = function
  | Tree.Text _ as t -> t
  | Tree.Element e ->
    f { e with Tree.children = List.map (map_elements f) e.Tree.children }

let refused what store sh =
  match Update.of_shadow store sh with
  | _ -> Alcotest.failf "%s: the builder accepted it" what
  | exception Update.Update_error _ -> ()

let test_builder_rejects_mismatches () =
  let u, _ = small () in
  let sh = Update.shadow u in
  let edit f = { sh with Update.sh_trees = List.map (map_elements f) sh.Update.sh_trees } in
  let children tag f =
    edit (fun e ->
        Tree.Element
          (if String.equal e.Tree.tag tag then { e with Tree.children = f e.Tree.children }
           else e))
  in
  ignore (Update.of_shadow (Update.store u) sh);
  let p4 = frag {|<person id="p4"><name>dee</name></person>|} in
  refused "a tree with an extra element" (Update.store u) (children "people" (fun cs -> cs @ [ p4 ]));
  refused "a tree missing an element" (Update.store u) (children "items" (fun _ -> []));
  refused "a wrong tag" (Update.store u)
    (edit (fun e ->
         Tree.Element
           (if String.equal e.Tree.tag "city" then { e with Tree.tag = "name" } else e)));
  refused "siblings out of label order" (Update.store u) (children "person" List.rev);
  (* copies of the store with one row edited *)
  let with_row id col v =
    let db = Codec.database_of_string (Codec.database_to_string (Update.db u)) in
    let tbl = Database.table db (Update.node_relation u id) in
    let pos = Option.get (Table.column_index tbl col) in
    Table.iter_rows
      (fun r row ->
        if row.(0) = Value.Int id then begin
          let row = Array.copy row in
          row.(pos) <- v;
          ignore (Table.update tbl r row)
        end)
      tbl;
    { (Update.store u) with Loader.db = db }
  in
  let p2 = List.hd (run_q u "//person[@id='p2']") in
  refused "a row whose path_id disagrees with its path"
    (with_row p2 "path_id" (Value.Int (Update.node_path_id u (the_one u "people"))))
    sh;
  refused "a root row with another doc_id" (with_row (the_one u "site") "doc_id" (Value.Int 2)) sh

(* A document the schema rejects writes nothing: every relation keeps
   its live rows, Paths its rows, and the shadow still rebuilds from the
   store, so a checkpoint taken afterwards recovers. *)
let test_rejected_load_writes_nothing () =
  let u = Update.create (Xmark.schema ()) [ Xmark.generate ~seed:1 ~items_per_region:1 () ] in
  let live () =
    List.map (fun t -> Table.name t, Table.live_count t) (Database.tables (Update.db u))
  in
  let paths () =
    let rows = ref [] in
    Table.iter_rows
      (fun _ row -> rows := Array.to_list (Array.map Value.to_string row) :: !rows)
      (Database.table (Update.db u) "paths");
    List.sort compare !rows
  in
  let live0 = live () and paths0 = paths () and sites = run_q u "/site" in
  (match
     Update.load u
       (frag "<site><people><person id='z'><name>a</name></person></people><bogus/></site>")
   with
   | _ -> Alcotest.fail "a document with <bogus/> was loaded"
   | exception Loader.Rejected _ -> ());
  Alcotest.(check (list (pair string int))) "live rows per relation" live0 (live ());
  Alcotest.(check (list (list string))) "Paths rows" paths0 (paths ());
  Alcotest.(check (list int)) "documents" sites (run_q u "/site");
  match Update.of_shadow (Update.store u) (Update.shadow u) with
  | _ -> ()
  | exception Update.Update_error e -> Alcotest.failf "the shadow no longer rebuilds: %s" e

let with_update_server f =
  let tree = Xmlparser.parse small_xml in
  let schema = Graph.infer (Doc.of_tree tree) in
  let store = Loader.shred schema (Doc.of_tree tree) in
  let u = Update.of_store store [ tree ] in
  let write_path = (Mutex.create (), u) in
  let config = { Server.default_config with port = 0; workers = 2 } in
  let server =
    Server.start ~config (fun () ->
        Server.session_executor ~update:write_path (Session.create store))
  in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let c = Client.connect ~port:(Server.port server) () in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c u))

let test_wire_update_roundtrip () =
  with_update_server (fun c u ->
      let before = Client.run_ids c "//person" in
      Alcotest.(check int) "three persons to start" 3 (List.length before);
      let people = the_one u "people" in
      let o =
        Client.insert c ~parent:people
          {|<person id="p9"><name>net</name></person>|}
      in
      Alcotest.(check int) "two rows inserted over the wire" 2 o.Client.inserted;
      (* the same prepared query re-executes against the mutated store *)
      let after = Client.run_ids c "//person" in
      Alcotest.(check int) "four persons after the insert" 4 (List.length after);
      let newcomer = List.nth (find_by_tag u "person") 3 in
      Alcotest.(check (list int)) "attribute query finds it" [ newcomer ]
        (Client.run_ids c {|//person[@id='p9']|});
      ignore (Client.set_text c ~target:(the_one u "city") "quito");
      Alcotest.(check int) "text visible through a predicate" 1
        (List.length (Client.run_ids c {|//person[address/city='quito']|}));
      let o = Client.delete c ~target:newcomer in
      Alcotest.(check int) "delete removed its rows" 2 o.Client.deleted;
      Alcotest.(check int) "back to three persons" 3
        (List.length (Client.run_ids c "//person")))

let test_wire_update_errors () =
  with_update_server (fun c u ->
      let site = the_one u "site" in
      (match Client.delete c ~target:site with
       | _ -> Alcotest.fail "root delete must fail over the wire"
       | exception Client.Server_error { code = Ppfx_net.Wire.Runtime; _ } -> ());
      (match Client.insert c ~parent:(the_one u "people") "<oops" with
       | _ -> Alcotest.fail "malformed fragment must fail"
       | exception Client.Server_error { code = Ppfx_net.Wire.Parse_error; _ } -> ());
      (* the connection survives both failures *)
      Alcotest.(check int) "still serving" 3 (List.length (Client.run_ids c "//person")))

(* ------------------------------------------------------------------ *)
(* Cluster: shard routing and balance bookkeeping                      *)
(* ------------------------------------------------------------------ *)

let test_cluster_update_routes_and_balances () =
  let tree = Xmark.generate ~seed:3 ~items_per_region:2 () in
  let schema = Graph.infer (Doc.of_tree tree) in
  Cluster.with_cluster ~pool_size:0 ~shards:3 schema [ tree ] (fun c ->
      let u = Cluster.full_update c in
      let before = List.length (Cluster.run_ids c "//person") in
      let people = List.hd (find_by_tag u "people") in
      let o =
        Cluster.update c
          (Update.Insert_subtree
             { parent = people; before = None;
               fragment = frag {|<person id="pz"><name>new</name><emailaddress>mailto:z@x</emailaddress></person>|} })
      in
      Alcotest.(check int) "rows inserted" 3 o.Update.inserted;
      Alcotest.(check int) "scatter sees the new person" (before + 1)
        (List.length (Cluster.run_ids c "//person"));
      (* exactly one shard gained the non-spine rows *)
      let counts = Cluster.shard_row_counts c in
      Alcotest.(check int) "gauge matches the metrics dump" 3
        (List.length (Metrics.shard_rows (Cluster.metrics c)));
      Alcotest.(check (list int)) "metrics mirror the live counts" counts
        (Metrics.shard_rows (Cluster.metrics c));
      let skew = Metrics.shard_skew (Cluster.metrics c) in
      Alcotest.(check bool) "skew gauge is a sane ratio" true
        (skew >= 1.0 && skew < 3.0))

let test_repeated_load_stays_balanced () =
  (* The drift fix: repeated loads steer new frontier subtrees to the
     lightest shards, so cumulative balance holds where per-document
     rounding used to compound. *)
  let schema = Xmark.schema () in
  let t0 = Xmark.generate ~seed:21 ~items_per_region:2 () in
  Cluster.with_cluster ~pool_size:0 ~shards:3 schema [ t0 ] (fun c ->
      for seed = 22 to 27 do
        Cluster.load c (Xmark.generate ~seed ~items_per_region:1 ())
      done;
      let counts = Cluster.partition_counts c in
      let total = Array.fold_left ( + ) 0 counts in
      let ideal = total / Array.length counts in
      Array.iteri
        (fun s n ->
          if n < ideal / 2 || n > ideal + ideal / 2 then
            Alcotest.failf "shard %d drifted to %d rows (ideal %d)" s n ideal)
        counts;
      Alcotest.(check bool) "skew surfaced and modest" true
        (Metrics.shard_skew (Cluster.metrics c) < 1.5))

let () =
  let tc (name, f) = Alcotest.test_case name `Quick f in
  Alcotest.run "update"
    [
      ( "ops",
        List.map tc
          [
            "insert appends", test_insert_append;
            "insert before", test_insert_before;
            "delete subtree", test_delete;
            "root delete rejected", test_delete_root_rejected;
            "replace keeps position", test_replace;
            "set text", test_set_text;
            "set attribute", test_set_attribute;
            "invalid ops rejected", test_invalid_ops_rejected;
            "paths interned incrementally", test_new_path_interned;
          ] );
      ( "invalidation",
        List.map tc
          [
            "disjoint commit retains the plan", test_plan_retained_on_disjoint_commit;
            "plan older than the commit log re-plans",
            test_plan_older_than_log_conservatively_invalidates;
          ] );
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_incremental_equals_reshred;
            prop_cluster_incremental_equals_reshred;
            prop_labels_never_rewritten;
            prop_rebuilt_equals_live;
          ] );
      ( "builder",
        List.map tc
          [
            "mismatches raise Update_error", test_builder_rejects_mismatches;
            "a rejected load writes nothing", test_rejected_load_writes_nothing;
          ] );
      ( "wire",
        List.map tc
          [
            "update round-trip over TCP", test_wire_update_roundtrip;
            "typed errors over TCP", test_wire_update_errors;
          ] );
      ( "cluster",
        List.map tc
          [
            "mutation routing + balance gauge", test_cluster_update_routes_and_balances;
            "repeated loads stay balanced", test_repeated_load_stays_balanced;
          ] );
    ]
