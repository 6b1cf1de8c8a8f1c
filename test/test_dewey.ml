(* Tests for the Dewey binary encoding (paper Section 4.2, Lemmas 1-2,
   Table 2) and the region encoding used by the accelerator baseline. *)

module Dewey = Ppfx_dewey.Dewey
module Region = Ppfx_dewey.Region

let roundtrip_tests =
  let roundtrip components () =
    let d = Dewey.of_components components in
    Alcotest.(check (list int)) "components round-trip" components (Dewey.to_components d)
  in
  [
    "root", roundtrip [ 1 ];
    "deep", roundtrip [ 1; 1; 2; 1; 1 ];
    "zero component", roundtrip [ 1; 0; 5 ];
    "max component", roundtrip [ Dewey.component_max ];
    "mixed large", roundtrip [ 1; 70000; 3; Dewey.component_max; 12 ];
  ]

let invalid_tests =
  let expect_invalid f () =
    match f () with
    | _ -> Alcotest.fail "expected Dewey.Invalid"
    | exception Dewey.Invalid _ -> ()
  in
  [
    "empty vector", expect_invalid (fun () -> Dewey.of_components []);
    "negative component", expect_invalid (fun () -> Dewey.of_components [ 1; -1 ]);
    ( "component too large",
      expect_invalid (fun () -> Dewey.of_components [ Dewey.component_max + 1 ]) );
    ( "malformed raw length",
      expect_invalid (fun () -> Dewey.of_string_exn "\x00\x01") );
    ( "raw with top bit set",
      expect_invalid (fun () -> Dewey.of_string_exn "\xFF\x00\x01") );
  ]

let structure_tests =
  [
    ( "child extends",
      fun () ->
        let d = Dewey.of_components [ 1; 2 ] in
        Alcotest.(check (list int)) "child" [ 1; 2; 7 ]
          (Dewey.to_components (Dewey.child d 7)) );
    ( "parent drops last",
      fun () ->
        let d = Dewey.of_components [ 1; 2; 3 ] in
        (match Dewey.parent d with
         | Some p -> Alcotest.(check (list int)) "parent" [ 1; 2 ] (Dewey.to_components p)
         | None -> Alcotest.fail "expected parent") );
    ( "root has no parent",
      fun () -> Alcotest.(check bool) "no parent" true (Dewey.parent Dewey.root = None) );
    ( "level counts components",
      fun () ->
        Alcotest.(check int) "level" 4 (Dewey.level (Dewey.of_components [ 1; 1; 2; 9 ])) );
    ( "dotted form",
      fun () ->
        Alcotest.(check string) "dotted" "1.1.2"
          (Dewey.to_dotted (Dewey.of_components [ 1; 1; 2 ])) );
  ]

(* The figure-1 document of the paper: positions 1, 1.1, 1.1.1, 1.1.1.1,
   1.1.2, 1.1.2.1, 1.1.2.1.1, 1.1.2.1.2, 1.1.3, 1.2, 1.2.1, 1.2.1.1. *)
let fig1 =
  List.map Dewey.of_components
    [
      [ 1 ];
      [ 1; 1 ];
      [ 1; 1; 1 ];
      [ 1; 1; 1; 1 ];
      [ 1; 1; 2 ];
      [ 1; 1; 2; 1 ];
      [ 1; 1; 2; 1; 1 ];
      [ 1; 1; 2; 1; 2 ];
      [ 1; 1; 3 ];
      [ 1; 2 ];
      [ 1; 2; 1 ];
      [ 1; 2; 1; 1 ];
    ]

(* Ground truth relations from the component vectors themselves. *)
let truth_descendant a b =
  (* b strict descendant of a *)
  let ca = Dewey.to_components a and cb = Dewey.to_components b in
  List.length cb > List.length ca
  &&
  let rec prefix xs ys =
    match xs, ys with
    | [], _ -> true
    | x :: xs, y :: ys -> x = y && prefix xs ys
    | _ :: _, [] -> false
  in
  prefix ca cb

let truth_doc_order a b =
  (* document order on component vectors *)
  let rec cmp xs ys =
    match xs, ys with
    | [], [] -> 0
    | [], _ -> -1
    | _, [] -> 1
    | x :: xs, y :: ys -> if x <> y then compare x y else cmp xs ys
  in
  cmp (Dewey.to_components a) (Dewey.to_components b)

let lemma_tests =
  [
    ( "lemma 1: descendant iff between d and d||F (all fig-1 pairs)",
      fun () ->
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                let by_lemma = Dewey.is_descendant b ~of_:a in
                let by_truth = truth_descendant a b in
                if by_lemma <> by_truth then
                  Alcotest.failf "descendant(%s of %s): lemma %b truth %b"
                    (Dewey.to_dotted b) (Dewey.to_dotted a) by_lemma by_truth)
              fig1)
          fig1 );
    ( "lemma 2: following iff d2 > d1||F (all fig-1 pairs)",
      fun () ->
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                let by_lemma = Dewey.is_following b ~of_:a in
                let by_truth =
                  truth_doc_order b a > 0 && not (truth_descendant a b)
                in
                if by_lemma <> by_truth then
                  Alcotest.failf "following(%s of %s): lemma %b truth %b"
                    (Dewey.to_dotted b) (Dewey.to_dotted a) by_lemma by_truth)
              fig1)
          fig1 );
    ( "lexicographic order is document order",
      fun () ->
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                let c1 = compare (Dewey.compare a b) 0 in
                let c2 = compare (truth_doc_order a b) 0 in
                if c1 <> c2 then
                  Alcotest.failf "order(%s, %s)" (Dewey.to_dotted a) (Dewey.to_dotted b))
              fig1)
          fig1 );
    ( "preceding is the inverse of following",
      fun () ->
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                Alcotest.(check bool) "inverse"
                  (Dewey.is_following b ~of_:a)
                  (Dewey.is_preceding a ~of_:b))
              fig1)
          fig1 );
  ]

(* Random trees: generate random dewey vectors and cross-check all axis
   predicates against the component-vector ground truth. *)
let gen_vector =
  QCheck.Gen.(list_size (int_range 1 6) (int_range 0 3))
  |> QCheck.Gen.map (fun l -> List.map (fun x -> x + 1) l)

let prop_axes =
  QCheck.Test.make ~count:2000 ~name:"axis predicates match component-vector truth"
    (QCheck.make
       ~print:(fun (a, b) ->
         Printf.sprintf "%s vs %s"
           (String.concat "." (List.map string_of_int a))
           (String.concat "." (List.map string_of_int b)))
       (QCheck.Gen.pair gen_vector gen_vector))
    (fun (ca, cb) ->
      let a = Dewey.of_components ca and b = Dewey.of_components cb in
      let desc = Dewey.is_descendant b ~of_:a = truth_descendant a b in
      let anc = Dewey.is_ancestor a ~of_:b = truth_descendant a b in
      let fol =
        Dewey.is_following b ~of_:a
        = (truth_doc_order b a > 0 && not (truth_descendant a b))
      in
      let prec =
        Dewey.is_preceding b ~of_:a
        = (truth_doc_order a b > 0 && not (truth_descendant b a))
      in
      let order = compare (Dewey.compare a b) 0 = compare (truth_doc_order a b) 0 in
      desc && anc && fol && prec && order)

let prop_roundtrip =
  QCheck.Test.make ~count:1000 ~name:"of_components/to_components round-trip"
    (QCheck.make
       ~print:(fun l -> String.concat "." (List.map string_of_int l))
       QCheck.Gen.(list_size (int_range 1 8) (int_range 0 100000)))
    (fun l -> Dewey.to_components (Dewey.of_components l) = l)

let region_tests =
  (* The fig-1(b) tree as pre/post/level triples, derived by hand:
       A(pre 0) B(1) C(2) D(3) C(4) E(5) F(6) F(7) G(8) B(9) G(10) G(11) *)
  let mk pre post level = { Region.pre; post; level } in
  let a = mk 0 11 1 in
  let b1 = mk 1 5 2 in
  let c1 = mk 2 1 3 in
  let d = mk 3 0 4 in
  let c2 = mk 4 4 3 in
  let f1 = mk 6 2 5 in
  let b2 = mk 9 10 2 in
  [
    ( "descendant quadrant",
      fun () ->
        Alcotest.(check bool) "d desc of b1" true (Region.is_descendant d ~of_:b1);
        Alcotest.(check bool) "d desc of a" true (Region.is_descendant d ~of_:a);
        Alcotest.(check bool) "b2 not desc of b1" false (Region.is_descendant b2 ~of_:b1) );
    ( "ancestor quadrant",
      fun () ->
        Alcotest.(check bool) "b1 anc of f1" true (Region.is_ancestor b1 ~of_:f1);
        Alcotest.(check bool) "c1 not anc of f1" false (Region.is_ancestor c1 ~of_:f1) );
    ( "following quadrant",
      fun () ->
        Alcotest.(check bool) "c2 following c1" true (Region.is_following c2 ~of_:c1);
        Alcotest.(check bool) "d not following c2" false (Region.is_following d ~of_:c2) );
    ( "preceding quadrant",
      fun () ->
        Alcotest.(check bool) "c1 preceding f1" true (Region.is_preceding c1 ~of_:f1);
        Alcotest.(check bool) "a not preceding f1" false (Region.is_preceding a ~of_:f1) );
    ( "child and parent need adjacent levels",
      fun () ->
        Alcotest.(check bool) "c1 child of b1" true (Region.is_child c1 ~of_:b1);
        Alcotest.(check bool) "d not child of b1" false (Region.is_child d ~of_:b1);
        Alcotest.(check bool) "b1 parent of c1" true (Region.is_parent b1 ~of_:c1) );
  ]

(* ------------------------------------------------------------------ *)
(* ORDPATH                                                             *)
(* ------------------------------------------------------------------ *)

module Ordpath = Ppfx_dewey.Ordpath

let ordpath_unit_tests =
  [
    ( "bulk-load children use odd components",
      fun () ->
        let r = Ordpath.root in
        Alcotest.(check string) "first child" "1.1" (Ordpath.to_dotted (Ordpath.child r 1));
        Alcotest.(check string) "third child" "1.5" (Ordpath.to_dotted (Ordpath.child r 3)) );
    ( "insert after the last sibling",
      fun () ->
        let c1 = Ordpath.child Ordpath.root 1 in
        let n = Ordpath.insert_between (Some c1) None in
        Alcotest.(check string) "after" "1.3" (Ordpath.to_dotted n) );
    ( "insert before the first sibling",
      fun () ->
        let c1 = Ordpath.child Ordpath.root 1 in
        let n = Ordpath.insert_between None (Some c1) in
        Alcotest.(check string) "before" "1.-1" (Ordpath.to_dotted n);
        Alcotest.(check bool) "orders before" true (Ordpath.compare n c1 < 0) );
    ( "insert between adjacent odds uses a caret",
      fun () ->
        let c1 = Ordpath.child Ordpath.root 1 in
        let c2 = Ordpath.child Ordpath.root 2 in
        let n = Ordpath.insert_between (Some c1) (Some c2) in
        Alcotest.(check string) "caret" "1.2.1" (Ordpath.to_dotted n);
        Alcotest.(check bool) "between" true
          (Ordpath.compare c1 n < 0 && Ordpath.compare n c2 < 0);
        (* the careted label is still at the sibling level *)
        Alcotest.(check int) "level" 2 (Ordpath.level n);
        Alcotest.(check bool) "same parent" true (Ordpath.parent n = Some Ordpath.root) );
    ( "repeated splitting never disturbs existing labels",
      fun () ->
        let c1 = Ordpath.child Ordpath.root 1 in
        let c2 = Ordpath.child Ordpath.root 2 in
        let rec split left right n acc =
          if n = 0 then acc
          else begin
            let mid = Ordpath.insert_between (Some left) (Some right) in
            split left mid (n - 1) (mid :: acc)
          end
        in
        let labels = split c1 c2 20 [] in
        List.iter
          (fun l ->
            Alcotest.(check bool) "in range" true
              (Ordpath.compare c1 l < 0 && Ordpath.compare l c2 < 0);
            Alcotest.(check int) "level" 2 (Ordpath.level l))
          labels );
    ( "descendant predicate matches dewey semantics",
      fun () ->
        let c = Ordpath.child Ordpath.root 2 in
        let gc = Ordpath.child c 1 in
        Alcotest.(check bool) "desc" true (Ordpath.is_descendant gc ~of_:c);
        Alcotest.(check bool) "desc of root" true (Ordpath.is_descendant gc ~of_:Ordpath.root);
        Alcotest.(check bool) "not self" false (Ordpath.is_descendant c ~of_:c);
        Alcotest.(check bool) "following" true
          (Ordpath.is_following c ~of_:(Ordpath.child Ordpath.root 1)) );
    ( "child_of_raw accepts carets, rejects grandchildren and siblings",
      fun () ->
        let c1 = Ordpath.child Ordpath.root 1 in
        let c2 = Ordpath.child Ordpath.root 2 in
        let caret = Ordpath.insert_between (Some c1) (Some c2) in
        let child l p =
          match Ordpath.child_of_raw (Ordpath.to_raw l) ~parent:p with
          | l' -> Ordpath.compare l l' = 0
          | exception Ordpath.Invalid _ -> false
        in
        Alcotest.(check bool) "bulk child" true (child c1 Ordpath.root);
        Alcotest.(check bool) "careted child" true (child caret Ordpath.root);
        Alcotest.(check bool) "grandchild" false (child (Ordpath.child c1 1) Ordpath.root);
        Alcotest.(check bool) "sibling" false (child c2 c1);
        Alcotest.(check bool) "self" false (child c1 c1);
        let top_bit = Ordpath.to_raw Ordpath.root ^ "\x80\x00\x01" in
        Alcotest.(check bool) "top bit set" false
          (match Ordpath.child_of_raw top_bit ~parent:Ordpath.root with
           | _ -> true
           | exception Ordpath.Invalid _ -> false) );
    ( "invalid labels rejected",
      fun () ->
        (match Ordpath.of_components [ 2 ] with
         | _ -> Alcotest.fail "even terminal should be rejected"
         | exception Ordpath.Invalid _ -> ());
        match Ordpath.insert_between None None with
        | _ -> Alcotest.fail "expected Invalid"
        | exception Ordpath.Invalid _ -> () );
  ]

(* Property: a random sequence of sibling insertions (at random gaps)
   keeps the labels strictly ordered, at the right level, with the right
   parent — and never changes an existing label. *)
let prop_ordpath_insertions =
  QCheck.Test.make ~count:500 ~name:"random sibling insertions stay ordered and leveled"
    QCheck.(make ~print:(fun ops -> String.concat ";" (List.map string_of_int ops))
              (Gen.list_size (Gen.int_range 1 60) (Gen.int_bound 1000)))
    (fun ops ->
      let parent = Ordpath.child Ordpath.root 3 in
      let labels = ref [| Ordpath.child parent 1 |] in
      List.for_all
        (fun gap_seed ->
          let arr = !labels in
          let n = Array.length arr in
          let gap = gap_seed mod (n + 1) in
          let left = if gap = 0 then None else Some arr.(gap - 1) in
          let right = if gap = n then None else Some arr.(gap) in
          let fresh = Ordpath.insert_between left right in
          let updated = Array.make (n + 1) fresh in
          Array.blit arr 0 updated 0 gap;
          updated.(gap) <- fresh;
          Array.blit arr gap updated (gap + 1) (n - gap);
          labels := updated;
          (* strictly ordered *)
          let sorted = ref true in
          for i = 0 to n - 1 do
            if Ordpath.compare updated.(i) updated.(i + 1) >= 0 then sorted := false
          done;
          !sorted
          && Ordpath.level fresh = 3
          && Ordpath.parent fresh = Some parent
          && Ordpath.child_of_raw (Ordpath.to_raw fresh) ~parent = fresh
          && Ordpath.is_descendant fresh ~of_:parent)
        ops)

(* Caret-heavy trees: grow a random tree by bulk child appends and
   insert_between splices at random gaps, then check on {e every} pair of
   labels that the Table-2 byte-window predicate — descendants of [d] are
   exactly the labels strictly between [d] and [d || 0xFF] — agrees with
   the construction's ground-truth ancestry, that [is_descendant] agrees
   with both, and that lexicographic byte order over all labels equals
   the tree's DFS preorder (document order). Existing labels are never
   touched by an insert, so sorting at the end is only correct if every
   earlier label kept its byte image. *)
let prop_ordpath_caret_window =
  QCheck.Test.make ~count:200
    ~name:"Table-2 descendant window + document order hold on careted trees"
    QCheck.(
      make
        ~print:(fun ops ->
          String.concat ";"
            (List.map (fun (a, b) -> Printf.sprintf "%d,%d" a b) ops))
        (Gen.list_size (Gen.int_range 1 30)
           (Gen.pair (Gen.int_bound 10000) (Gen.int_bound 10000))))
    (fun ops ->
      let raw = Ordpath.to_raw in
      let labels = ref [ Ordpath.root ] in
      (* children in sibling (label) order, keyed by the parent's bytes *)
      let kids : (string, Ordpath.t list) Hashtbl.t = Hashtbl.create 16 in
      (* ancestor byte-sets from the construction: the ground truth *)
      let anc : (string, string list) Hashtbl.t = Hashtbl.create 16 in
      Hashtbl.replace anc (raw Ordpath.root) [];
      List.iter
        (fun (pick, gap_seed) ->
          let arr = Array.of_list !labels in
          let p = arr.(pick mod Array.length arr) in
          let sibs = Option.value ~default:[] (Hashtbl.find_opt kids (raw p)) in
          let k = List.length sibs in
          let gap = gap_seed mod (k + 1) in
          let left = if gap = 0 then None else Some (List.nth sibs (gap - 1)) in
          let right = if gap = k then None else Some (List.nth sibs gap) in
          let fresh =
            if k = 0 then Ordpath.child p 1 else Ordpath.insert_between left right
          in
          Hashtbl.replace kids (raw p)
            (List.filteri (fun i _ -> i < gap) sibs
            @ (fresh :: List.filteri (fun i _ -> i >= gap) sibs));
          Hashtbl.replace anc (raw fresh) (raw p :: Hashtbl.find anc (raw p));
          labels := fresh :: !labels)
        ops;
      let window_ok =
        List.for_all
          (fun d ->
            let lo = raw d in
            let hi = lo ^ "\xFF" in
            List.for_all
              (fun l ->
                let lraw = raw l in
                let in_window =
                  String.compare lo lraw < 0 && String.compare lraw hi < 0
                in
                let truth = List.mem lo (Hashtbl.find anc lraw) in
                Ordpath.is_descendant l ~of_:d = truth && in_window = truth)
              !labels)
          !labels
      in
      let rec dfs l =
        l
        :: List.concat_map dfs
             (Option.value ~default:[] (Hashtbl.find_opt kids (raw l)))
      in
      let order_ok =
        List.map raw (dfs Ordpath.root)
        = List.map raw
            (List.sort (fun a b -> String.compare (raw a) (raw b)) !labels)
      in
      window_ok && order_ok)

let () =
  let tc (name, f) = Alcotest.test_case name `Quick f in
  Alcotest.run "dewey"
    [
      "roundtrip", List.map tc roundtrip_tests;
      "invalid", List.map tc invalid_tests;
      "structure", List.map tc structure_tests;
      "lemmas", List.map tc lemma_tests;
      "region", List.map tc region_tests;
      "ordpath", List.map tc ordpath_unit_tests;
      ( "ordpath-properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_ordpath_insertions; prop_ordpath_caret_window ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_axes; prop_roundtrip ] );
    ]
