(* Tests for the relational substrate: values, B+tree, tables, and the SQL
   planner/executor (checked against the naive cross-product oracle). *)

module Value = Ppfx_minidb.Value
module Btree = Ppfx_minidb.Btree
module Table = Ppfx_minidb.Table
module Database = Ppfx_minidb.Database
module Sql = Ppfx_minidb.Sql
module Engine = Ppfx_minidb.Engine

(* ------------------------------------------------------------------ *)
(* Values                                                              *)
(* ------------------------------------------------------------------ *)

let value_tests =
  [
    ( "numeric coercion in sql compare",
      fun () ->
        Alcotest.(check (option int)) "int vs str" (Some 0)
          (Value.compare_sql (Value.Int 2) (Value.Str "2"));
        Alcotest.(check (option int)) "str vs float" (Some (-1))
          (Option.map (fun c -> compare c 0)
             (Value.compare_sql (Value.Str "1.5") (Value.Float 2.0))) );
    ( "unparsable string vs number is unknown",
      fun () ->
        Alcotest.(check (option int)) "nan" None
          (Value.compare_sql (Value.Str "abc") (Value.Int 2)) );
    ( "null propagates",
      fun () ->
        Alcotest.(check (option int)) "null" None
          (Value.compare_sql Value.Null (Value.Int 1)) );
    ( "strings compare as strings",
      fun () ->
        Alcotest.(check bool) "10 < 9 as strings" true
          (Value.compare_sql (Value.Str "10") (Value.Str "9") = Some (-1)) );
    ( "binary compares bytewise",
      fun () ->
        Alcotest.(check bool) "bin order" true
          (Value.compare_sql (Value.Bin "\x00\x01") (Value.Bin "\x00\x02") = Some (-1)) );
    ( "concat bin absorbs",
      fun () ->
        (match Value.concat (Value.Bin "\x00") (Value.Str "\xFF") with
         | Value.Bin s -> Alcotest.(check string) "concat" "\x00\xFF" s
         | v -> Alcotest.failf "unexpected %s" (Value.to_string v));
        (match Value.concat Value.Null (Value.Str "x") with
         | Value.Null -> ()
         | v -> Alcotest.failf "null concat gave %s" (Value.to_string v)) );
  ]

(* ------------------------------------------------------------------ *)
(* B+tree                                                              *)
(* ------------------------------------------------------------------ *)

let btree_unit_tests =
  [
    ( "insert and find",
      fun () ->
        let t = Btree.create ~width:1 () in
        List.iteri (fun i k -> Btree.insert t [| Value.Int k |] i) [ 5; 3; 9; 3; 7 ];
        Alcotest.(check (list int)) "find 3" [ 1; 3 ]
          (List.sort compare (Btree.find_equal t [| Value.Int 3 |]));
        Alcotest.(check (list int)) "find missing" [] (Btree.find_equal t [| Value.Int 4 |]) );
    ( "range scan",
      fun () ->
        let t = Btree.create ~width:1 () in
        for i = 0 to 99 do
          Btree.insert t [| Value.Int i |] i
        done;
        let rows =
          Btree.range t
            ~lo:(Some { Btree.key = [| Value.Int 10 |]; inclusive = true })
            ~hi:(Some { Btree.key = [| Value.Int 15 |]; inclusive = false })
        in
        Alcotest.(check (list int)) "range" [ 10; 11; 12; 13; 14 ] rows );
    ( "prefix bound on composite key",
      fun () ->
        let t = Btree.create ~width:2 () in
        let k a b = [| Value.Str a; Value.Int b |] in
        List.iteri
          (fun i (a, b) -> Btree.insert t (k a b) i)
          [ "x", 1; "x", 2; "y", 1; "y", 3; "z", 1 ];
        Alcotest.(check (list int)) "all y by prefix" [ 2; 3 ]
          (Btree.find_equal t [| Value.Str "y" |]) );
    ( "deep tree stays balanced",
      fun () ->
        let t = Btree.create ~order:4 ~width:1 () in
        for i = 0 to 999 do
          Btree.insert t [| Value.Int i |] i
        done;
        Alcotest.(check int) "count" 1000 (Btree.length t);
        Alcotest.(check bool) "depth sane" true (Btree.depth t <= 8);
        (match Btree.check_invariants t with
         | Ok () -> ()
         | Error m -> Alcotest.fail m) );
    ( "iter visits in order",
      fun () ->
        let t = Btree.create ~width:1 () in
        List.iteri (fun i k -> Btree.insert t [| Value.Int k |] i) [ 4; 2; 8; 6; 0 ];
        let keys = ref [] in
        Btree.iter (fun k _ -> keys := k.(0) :: !keys) t;
        Alcotest.(check bool) "sorted" true
          (List.rev !keys = [ Value.Int 0; Value.Int 2; Value.Int 4; Value.Int 6; Value.Int 8 ]) );
  ]

let btree_delete_tests =
  [
    ( "delete removes one entry",
      fun () ->
        let t = Btree.create ~width:1 () in
        List.iteri (fun i k -> Btree.insert t [| Value.Int k |] i) [ 5; 3; 5; 7 ];
        Alcotest.(check bool) "removed" true (Btree.delete t [| Value.Int 5 |] 0);
        Alcotest.(check (list int)) "other 5 remains" [ 2 ]
          (Btree.find_equal t [| Value.Int 5 |]);
        Alcotest.(check bool) "absent now" false (Btree.delete t [| Value.Int 5 |] 0);
        Alcotest.(check int) "count" 3 (Btree.length t) );
    ( "delete rebalances deep trees",
      fun () ->
        let t = Btree.create ~order:4 ~width:1 () in
        for i = 0 to 499 do
          Btree.insert t [| Value.Int i |] i
        done;
        (* Remove every other key, then a contiguous block. *)
        for i = 0 to 499 do
          if i mod 2 = 0 then
            Alcotest.(check bool) "removed" true (Btree.delete t [| Value.Int i |] i)
        done;
        for i = 100 to 199 do
          if i mod 2 = 1 then ignore (Btree.delete t [| Value.Int i |] i)
        done;
        (match Btree.check_invariants t with
         | Ok () -> ()
         | Error m -> Alcotest.fail m);
        Alcotest.(check int) "count" 200 (Btree.length t);
        Alcotest.(check (list int)) "range skips deleted" [ 201; 203 ]
          (Btree.range t
             ~lo:(Some { Btree.key = [| Value.Int 200 |]; inclusive = true })
             ~hi:(Some { Btree.key = [| Value.Int 203 |]; inclusive = true })) );
    ( "delete everything returns to an empty tree",
      fun () ->
        let t = Btree.create ~order:4 ~width:1 () in
        for i = 0 to 99 do
          Btree.insert t [| Value.Int i |] i
        done;
        for i = 0 to 99 do
          ignore (Btree.delete t [| Value.Int i |] i)
        done;
        Alcotest.(check int) "empty" 0 (Btree.length t);
        Alcotest.(check int) "depth collapses" 1 (Btree.depth t);
        (match Btree.check_invariants t with
         | Ok () -> ()
         | Error m -> Alcotest.fail m) );
  ]

(* Property: a random interleaving of inserts and deletes agrees with a
   multiset oracle and preserves every structural invariant. *)
let prop_btree_ops =
  let gen =
    QCheck.Gen.(
      pair (int_range 4 12)
        (list_size (int_range 0 400)
           (pair bool (int_range 0 30))))
  in
  QCheck.Test.make ~count:300 ~name:"insert/delete agree with multiset oracle"
    (QCheck.make
       ~print:(fun (order, ops) ->
         Printf.sprintf "order=%d ops=[%s]" order
           (String.concat ";"
              (List.map (fun (ins, k) -> Printf.sprintf "%s%d" (if ins then "+" else "-") k) ops)))
       gen)
    (fun (order, ops) ->
      let t = Btree.create ~order ~width:1 () in
      let oracle : (int, int list) Hashtbl.t = Hashtbl.create 16 in
      let next_row = ref 0 in
      List.iter
        (fun (ins, k) ->
          if ins then begin
            let row = !next_row in
            incr next_row;
            Btree.insert t [| Value.Int k |] row;
            Hashtbl.replace oracle k (row :: Option.value ~default:[] (Hashtbl.find_opt oracle k))
          end
          else begin
            (* delete one row of key k if present *)
            match Hashtbl.find_opt oracle k with
            | Some (row :: rest) ->
              if not (Btree.delete t [| Value.Int k |] row) then
                QCheck.Test.fail_report "delete of present entry returned false";
              if rest = [] then Hashtbl.remove oracle k else Hashtbl.replace oracle k rest
            | Some [] | None ->
              if Btree.delete t [| Value.Int k |] 999999 then
                QCheck.Test.fail_report "delete of absent entry returned true"
          end)
        ops;
      (match Btree.check_invariants t with
       | Ok () -> ()
       | Error m -> QCheck.Test.fail_report m);
      Hashtbl.fold
        (fun k rows ok ->
          ok
          && List.sort compare (Btree.find_equal t [| Value.Int k |])
             = List.sort compare rows)
        oracle true)

(* Property: B+tree range scans agree with a sorted-list oracle under
   random insertion orders, orders, and bounds. *)
let prop_btree_oracle =
  let gen =
    QCheck.Gen.(
      triple
        (list_size (int_range 0 300) (int_range 0 50))
        (int_range 4 16)
        (pair (opt (pair (int_range 0 50) bool)) (opt (pair (int_range 0 50) bool))))
  in
  QCheck.Test.make ~count:500 ~name:"range scans agree with sorted-list oracle"
    (QCheck.make
       ~print:(fun (keys, order, _) ->
         Printf.sprintf "order=%d keys=[%s]" order
           (String.concat ";" (List.map string_of_int keys)))
       gen)
    (fun (keys, order, (lo, hi)) ->
      let t = Btree.create ~order ~width:1 () in
      List.iteri (fun i k -> Btree.insert t [| Value.Int k |] i) keys;
      (match Btree.check_invariants t with
       | Ok () -> ()
       | Error m -> QCheck.Test.fail_report m);
      let bound = Option.map (fun (k, incl) -> { Btree.key = [| Value.Int k |]; inclusive = incl }) in
      let got = List.sort compare (Btree.range t ~lo:(bound lo) ~hi:(bound hi)) in
      let keep k =
        (match lo with
         | None -> true
         | Some (b, true) -> k >= b
         | Some (b, false) -> k > b)
        && (match hi with None -> true | Some (b, true) -> k <= b | Some (b, false) -> k < b)
      in
      let expected =
        List.filteri (fun _ _ -> true) keys
        |> List.mapi (fun i k -> i, k)
        |> List.filter (fun (_, k) -> keep k)
        |> List.map fst
        |> List.sort compare
      in
      got = expected)

(* ------------------------------------------------------------------ *)
(* Tables                                                              *)
(* ------------------------------------------------------------------ *)

let people_db () =
  let db = Database.create () in
  let people =
    Database.create_table db ~name:"people"
      ~columns:
        [
          { Table.name = "id"; ty = Value.Tint };
          { Table.name = "name"; ty = Value.Tstr };
          { Table.name = "dept_id"; ty = Value.Tint };
          { Table.name = "salary"; ty = Value.Tint };
        ]
  in
  let depts =
    Database.create_table db ~name:"depts"
      ~columns:
        [ { Table.name = "id"; ty = Value.Tint }; { Table.name = "name"; ty = Value.Tstr } ]
  in
  List.iter
    (fun (id, name) ->
      ignore (Table.insert depts [| Value.Int id; Value.Str name |]))
    [ 1, "eng"; 2, "sales"; 3, "legal" ];
  List.iter
    (fun (id, name, dept, sal) ->
      ignore
        (Table.insert people [| Value.Int id; Value.Str name; Value.Int dept; Value.Int sal |]))
    [
      1, "ada", 1, 120; 2, "bob", 1, 90; 3, "cat", 2, 80; 4, "dan", 2, 85;
      5, "eve", 3, 100; 6, "fay", 1, 110;
    ];
  Table.create_index people [ "id" ];
  Table.create_index people [ "dept_id" ];
  Table.create_index depts [ "id" ];
  db

let table_tests =
  [
    ( "insert type checking",
      fun () ->
        let t =
          Table.create ~name:"t"
            ~columns:[ { Table.name = "a"; ty = Value.Tint } ] ()
        in
        (match Table.insert t [| Value.Str "no" |] with
         | _ -> Alcotest.fail "expected Invalid_argument"
         | exception Invalid_argument _ -> ());
        (* NULL is allowed in any column. *)
        ignore (Table.insert t [| Value.Null |]);
        Alcotest.(check int) "row count" 1 (Table.row_count t) );
    ( "index backfill and maintenance",
      fun () ->
        let t =
          Table.create ~name:"t"
            ~columns:[ { Table.name = "a"; ty = Value.Tint } ] ()
        in
        ignore (Table.insert t [| Value.Int 1 |]);
        Table.create_index t [ "a" ];
        ignore (Table.insert t [| Value.Int 1 |]);
        (match Table.index_on t [ "a" ] with
         | Some tree ->
           Alcotest.(check int) "both rows indexed" 2
             (List.length (Btree.find_equal tree [| Value.Int 1 |]))
         | None -> Alcotest.fail "index missing") );
    ( "index_with_prefix finds composite index",
      fun () ->
        let t =
          Table.create ~name:"t"
            ~columns:
              [
                { Table.name = "a"; ty = Value.Tint };
                { Table.name = "b"; ty = Value.Tint };
              ]
            ()
        in
        Table.create_index t [ "a"; "b" ];
        Alcotest.(check bool) "prefix a" true (Table.index_with_prefix t [ "a" ] <> None);
        Alcotest.(check bool) "prefix b" true (Table.index_with_prefix t [ "b" ] = None) );
  ]

(* ------------------------------------------------------------------ *)
(* SQL execution                                                       *)
(* ------------------------------------------------------------------ *)

let col a c = Sql.Col (a, c)
let int_ i = Sql.Const (Value.Int i)
let str_ s = Sql.Const (Value.Str s)

let select ?(distinct = false) ?where ?(order = []) projections from =
  {
    Sql.distinct;
    projections;
    from;
    where;
    order_by = order;
  }

let run db sel = (Engine.run db (Sql.Select sel)).Engine.rows

let sql_tests =
  [
    ( "filter with index",
      fun () ->
        let db = people_db () in
        let sel =
          select
            [ col "p" "name", "name" ]
            [ "people", "p" ]
            ~where:(Sql.Cmp (Sql.Eq, col "p" "id", int_ 3))
        in
        Alcotest.(check int) "one row" 1 (List.length (run db sel));
        (match run db sel with
         | [ [| Value.Str "cat" |] ] -> ()
         | _ -> Alcotest.fail "wrong row") );
    ( "equijoin",
      fun () ->
        let db = people_db () in
        let sel =
          select
            [ col "p" "name", "person"; col "d" "name", "dept" ]
            [ "people", "p"; "depts", "d" ]
            ~where:
              (Sql.And
                 ( Sql.Cmp (Sql.Eq, col "p" "dept_id", col "d" "id"),
                   Sql.Cmp (Sql.Eq, col "d" "name", str_ "eng") ))
            ~order:[ col "p" "id" ]
        in
        let names = List.map (fun r -> r.(0)) (run db sel) in
        Alcotest.(check bool) "eng members" true
          (names = [ Value.Str "ada"; Value.Str "bob"; Value.Str "fay" ]) );
    ( "range predicate",
      fun () ->
        let db = people_db () in
        let sel =
          select
            [ col "p" "name", "name" ]
            [ "people", "p" ]
            ~where:(Sql.Cmp (Sql.Ge, col "p" "salary", int_ 100))
            ~order:[ col "p" "name" ]
        in
        Alcotest.(check int) "3 rows" 3 (List.length (run db sel)) );
    ( "between",
      fun () ->
        let db = people_db () in
        let sel =
          select
            [ col "p" "id", "id" ]
            [ "people", "p" ]
            ~where:(Sql.Between (col "p" "salary", int_ 85, int_ 100))
        in
        Alcotest.(check int) "3 rows" 3 (List.length (run db sel)) );
    ( "exists correlated",
      fun () ->
        let db = people_db () in
        (* departments with someone earning > 100 *)
        let sub =
          select
            [ Sql.Const Value.Null, "null" ]
            [ "people", "p" ]
            ~where:
              (Sql.And
                 ( Sql.Cmp (Sql.Eq, col "p" "dept_id", col "d" "id"),
                   Sql.Cmp (Sql.Gt, col "p" "salary", int_ 100) ))
        in
        let sel =
          select
            [ col "d" "name", "name" ]
            [ "depts", "d" ]
            ~where:(Sql.Exists sub)
            ~order:[ col "d" "name" ]
        in
        let names = List.map (fun r -> r.(0)) (run db sel) in
        Alcotest.(check bool) "only eng" true (names = [ Value.Str "eng" ]) );
    ( "not exists",
      fun () ->
        let db = people_db () in
        let sub =
          select
            [ Sql.Const Value.Null, "null" ]
            [ "people", "p" ]
            ~where:
              (Sql.And
                 ( Sql.Cmp (Sql.Eq, col "p" "dept_id", col "d" "id"),
                   Sql.Cmp (Sql.Gt, col "p" "salary", int_ 100) ))
        in
        let sel =
          select
            [ col "d" "name", "name" ]
            [ "depts", "d" ]
            ~where:(Sql.Not (Sql.Exists sub))
            ~order:[ col "d" "name" ]
        in
        let names = List.map (fun r -> r.(0)) (run db sel) in
        Alcotest.(check bool) "sales and legal" true
          (names = [ Value.Str "legal"; Value.Str "sales" ]) );
    ( "regexp_like",
      fun () ->
        let db = people_db () in
        let sel =
          select
            [ col "p" "name", "name" ]
            [ "people", "p" ]
            ~where:(Sql.Regexp_like (col "p" "name", "^[abc]"))
        in
        Alcotest.(check int) "ada bob cat" 3 (List.length (run db sel)) );
    ( "distinct",
      fun () ->
        let db = people_db () in
        let sel =
          select ~distinct:true [ col "p" "dept_id", "dept_id" ] [ "people", "p" ]
            ~order:[ col "p" "dept_id" ]
        in
        Alcotest.(check int) "3 departments" 3 (List.length (run db sel)) );
    ( "union dedupes",
      fun () ->
        let db = people_db () in
        let b1 =
          select
            [ col "p" "name", "name" ]
            [ "people", "p" ]
            ~where:(Sql.Cmp (Sql.Eq, col "p" "dept_id", int_ 1))
        in
        let b2 =
          select
            [ col "p" "name", "name" ]
            [ "people", "p" ]
            ~where:(Sql.Cmp (Sql.Ge, col "p" "salary", int_ 100))
        in
        let result = Engine.run db (Sql.Union ([ b1; b2 ], [ 0 ])) in
        (* eng: ada bob fay; >=100: ada eve fay -> distinct = 4 *)
        Alcotest.(check int) "4 names" 4 (List.length result.Engine.rows) );
    ( "order by descending ids via sort key",
      fun () ->
        let db = people_db () in
        let sel =
          select [ col "p" "id", "id" ] [ "people", "p" ] ~order:[ col "p" "id" ]
        in
        let ids = List.map (fun r -> r.(0)) (run db sel) in
        Alcotest.(check bool) "ascending" true
          (ids = List.map (fun i -> Value.Int i) [ 1; 2; 3; 4; 5; 6 ]) );
    ( "union arity mismatch is a runtime error",
      fun () ->
        let db = people_db () in
        let b1 = select [ col "p" "id", "id" ] [ "people", "p" ] in
        let b2 =
          select [ col "p" "id", "id"; col "p" "name", "name" ] [ "people", "p" ]
        in
        (match Engine.run db (Sql.Union ([ b1; b2 ], [])) with
         | _ -> Alcotest.fail "expected Runtime_error"
         | exception Engine.Runtime_error _ -> ()) );
    ( "order by binary column uses bytewise order",
      fun () ->
        let db = Database.create () in
        let t =
          Database.create_table db ~name:"b"
            ~columns:
              [ { Table.name = "id"; ty = Value.Tint }; { Table.name = "d"; ty = Value.Tbin } ]
        in
        List.iter
          (fun (i, d) -> ignore (Table.insert t [| Value.Int i; Value.Bin d |]))
          [ 1, ""; 2, "ÿ"; 3, "" ];
        let sel =
          select [ col "x" "id", "id" ] [ "b", "x" ] ~order:[ col "x" "d" ]
        in
        let ids = List.map (fun r -> r.(0)) (run db sel) in
        Alcotest.(check bool) "bytewise" true
          (ids = [ Value.Int 3; Value.Int 2; Value.Int 1 ]) );
    ( "runtime error on unknown column",
      fun () ->
        let db = people_db () in
        let sel = select [ col "p" "nope", "x" ] [ "people", "p" ] in
        match run db sel with
        | _ -> Alcotest.fail "expected Runtime_error"
        | exception Engine.Runtime_error _ -> () );
    ( "tombstone delete hides rows from scans and indexes",
      fun () ->
        let db = people_db () in
        let people = Database.table db "people" in
        Alcotest.(check bool) "deleted" true (Table.delete people 2);
        Alcotest.(check bool) "already gone" false (Table.delete people 2);
        Alcotest.(check int) "live" 5 (Table.live_count people);
        let visible = ref 0 in
        Table.iter_rows (fun _ _ -> incr visible) people;
        Alcotest.(check int) "scan skips tombstone" 5 !visible;
        (* The engine no longer sees the row either (row id 2 holds
           person id 3). *)
        let sel =
          select
            [ col "p" "name", "name" ]
            [ "people", "p" ]
            ~where:(Sql.Cmp (Sql.Eq, col "p" "id", int_ 3))
        in
        Alcotest.(check int) "index entry gone" 0 (List.length (run db sel)) );
    ( "invalid regex raises Runtime_error",
      fun () ->
        let db = people_db () in
        let sel =
          select
            [ col "p" "name", "name" ]
            [ "people", "p" ]
            ~where:(Sql.Regexp_like (col "p" "name", "(unclosed"))
        in
        (match run db sel with
         | _ -> Alcotest.fail "expected Runtime_error"
         | exception Engine.Runtime_error _ -> ()) );
    ( "decorrelated exists semi-join",
      fun () ->
        let db = people_db () in
        (* names of people who share a department with someone earning
           exactly 100: correlated equality on dept_id decorrelates into a
           hash semi-join. *)
        let sub =
          select
            [ Sql.Const Value.Null, "null" ]
            [ "people", "q" ]
            ~where:
              (Sql.And
                 ( Sql.Cmp (Sql.Eq, col "q" "dept_id", col "p" "dept_id"),
                   Sql.Cmp (Sql.Eq, col "q" "salary", int_ 100) ))
        in
        let sel =
          select
            [ col "p" "name", "name" ]
            [ "people", "p" ]
            ~where:(Sql.Exists sub)
            ~order:[ col "p" "id" ]
        in
        let names = List.map (fun r -> r.(0)) (run db sel) in
        Alcotest.(check bool) "dept 3 members" true (names = [ Value.Str "eve" ]);
        (* Same query through the naive oracle. *)
        let naive = (Engine.run_naive db (Sql.Select sel)).Engine.rows in
        Alcotest.(check bool) "naive agrees" true
          (List.map (fun r -> r.(0)) naive = names) );
    ( "prefix lookup access path for ancestor joins",
      fun () ->
        (* dewey-style prefixes: e BETWEEN col AND col || x'FF' *)
        let db = Database.create () in
        let t =
          Database.create_table db ~name:"n"
            ~columns:
              [ { Table.name = "id"; ty = Value.Tint }; { Table.name = "d"; ty = Value.Tbin } ]
        in
        List.iter
          (fun (id, d) -> ignore (Table.insert t [| Value.Int id; Value.Bin d |]))
          [ 1, ""; 2, ""; 3, ""; 4, ""; 5, "" ];
        Table.create_index t [ "d" ];
        (* ancestors of the row with d = 01 02 03 *)
        let sel =
          select
            [ col "a" "id", "id" ]
            [ "n", "a"; "n", "x" ]
            ~where:
              (Sql.And
                 ( Sql.Cmp (Sql.Eq, col "x" "id", int_ 3),
                   Sql.Between
                     ( col "x" "d",
                       col "a" "d",
                       Sql.Concat (col "a" "d", Sql.Const (Value.Bin "ÿ")) ) ))
            ~order:[ col "a" "id" ]
        in
        let plan = Engine.explain db (Sql.Select sel) in
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "uses prefix lookups" true (contains plan "prefix lookups");
        let ids = List.map (fun r -> r.(0)) (run db sel) in
        Alcotest.(check bool) "ancestors (incl. self)" true
          (ids = [ Value.Int 1; Value.Int 2; Value.Int 3 ]) );
    ( "profiled execution reports per-step row counts",
      fun () ->
        let db = people_db () in
        let sel =
          select
            [ col "p" "name", "person"; col "d" "name", "dept" ]
            [ "people", "p"; "depts", "d" ]
            ~where:
              (Sql.And
                 ( Sql.Cmp (Sql.Eq, col "p" "dept_id", col "d" "id"),
                   Sql.Cmp (Sql.Eq, col "d" "name", str_ "eng") ))
        in
        let result, profiles, _stats = Engine.run_profiled db (Sql.Select sel) in
        Alcotest.(check int) "3 result rows" 3 (List.length result.Engine.rows);
        Alcotest.(check int) "2 steps" 2 (List.length profiles);
        (* the depts step scans 3 rows and keeps 1; the people probe via
           the dept_id index examines exactly the eng members *)
        let d = List.find (fun p -> p.Engine.alias = "d") profiles in
        Alcotest.(check int) "depts examined" 3 d.Engine.examined;
        Alcotest.(check int) "depts passed" 1 d.Engine.passed;
        let p = List.find (fun p -> p.Engine.alias = "p") profiles in
        Alcotest.(check int) "people examined" 3 p.Engine.examined;
        Alcotest.(check int) "people passed" 3 p.Engine.passed;
        (* profiled and plain execution agree *)
        Alcotest.(check bool) "same rows" true
          (result.Engine.rows = (Engine.run db (Sql.Select sel)).Engine.rows) );
    ( "profiled execution instruments exists sub-plans",
      fun () ->
        (* person[not(homepage)]: the NOT EXISTS decorrelates into a
           semi-join whose inner plan scans homepage once; EXPLAIN ANALYZE
           must report that step, not just the outer one *)
        let db = Database.create () in
        let person =
          Database.create_table db ~name:"person"
            ~columns:[ { Table.name = "id"; ty = Value.Tint } ]
        in
        let homepage =
          Database.create_table db ~name:"homepage"
            ~columns:
              [ { Table.name = "id"; ty = Value.Tint }; { Table.name = "parent_id"; ty = Value.Tint } ]
        in
        List.iter (fun id -> ignore (Table.insert person [| Value.Int id |])) [ 1; 2; 3; 4; 5 ];
        List.iter
          (fun (id, parent) -> ignore (Table.insert homepage [| Value.Int id; Value.Int parent |]))
          [ 10, 2; 11, 4; 12, 4 ];
        let sel =
          select
            [ col "p" "id", "id" ]
            [ "person", "p" ]
            ~where:
              (Sql.Not
                 (Sql.Exists
                    (select
                       [ col "h" "id", "id" ]
                       [ "homepage", "h" ]
                       ~where:(Sql.Cmp (Sql.Eq, col "h" "parent_id", col "p" "id")))))
        in
        let stmt = Sql.Select sel in
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "decorrelated" true
          (contains (Engine.explain db stmt) "exists subquery (decorrelated semi-join");
        let result, profiles, _ = Engine.run_profiled db stmt in
        Alcotest.(check bool) "persons without a homepage" true
          (result.Engine.rows = [ [| Value.Int 1 |]; [| Value.Int 3 |]; [| Value.Int 5 |] ]);
        Alcotest.(check (list string)) "outer step, then the sub-plan's step"
          [ "person"; "homepage" ]
          (List.map (fun p -> p.Engine.table) profiles);
        let h = List.find (fun p -> p.Engine.table = "homepage") profiles in
        Alcotest.(check int) "homepage examined once over" (Table.live_count homepage)
          h.Engine.examined;
        Alcotest.(check int) "homepage passed" 3 h.Engine.passed );
    ( "explain mentions index usage",
      fun () ->
        let db = people_db () in
        let sel =
          select
            [ col "p" "name", "name" ]
            [ "people", "p" ]
            ~where:(Sql.Cmp (Sql.Eq, col "p" "id", int_ 3))
        in
        let plan = Engine.explain db (Sql.Select sel) in
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "uses index" true (contains plan "index eq") );
  ]

(* ------------------------------------------------------------------ *)
(* Persistence codec                                                   *)
(* ------------------------------------------------------------------ *)

module Codec = Ppfx_minidb.Codec

let codec_tests =
  [
    ( "save/load round-trips a populated database",
      fun () ->
        let db = people_db () in
        let path = Filename.temp_file "ppfx" ".db" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Codec.save path db;
            let db2 = Codec.load path in
            Alcotest.(check int) "tables" 2 (List.length (Database.tables db2));
            let sel =
              select
                [ col "p" "name", "person"; col "d" "name", "dept" ]
                [ "people", "p"; "depts", "d" ]
                ~where:(Sql.Cmp (Sql.Eq, col "p" "dept_id", col "d" "id"))
                ~order:[ col "p" "id" ]
            in
            Alcotest.(check bool) "same query results" true (run db sel = run db2 sel);
            (* Indexes were rebuilt. *)
            let people = Database.table db2 "people" in
            Alcotest.(check bool) "id index" true (Table.index_on people [ "id" ] <> None)) );
    ( "tombstones are compacted on save",
      fun () ->
        let db = people_db () in
        ignore (Table.delete (Database.table db "people") 0);
        let path = Filename.temp_file "ppfx" ".db" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Codec.save path db;
            let db2 = Codec.load path in
            let people = Database.table db2 "people" in
            Alcotest.(check int) "rows" 5 (Table.row_count people);
            Alcotest.(check int) "live" 5 (Table.live_count people)) );
    ( "all value shapes round-trip",
      fun () ->
        let db = Database.create () in
        let t =
          Database.create_table db ~name:"v"
            ~columns:
              [
                { Table.name = "i"; ty = Value.Tint };
                { Table.name = "f"; ty = Value.Tfloat };
                { Table.name = "s"; ty = Value.Tstr };
                { Table.name = "b"; ty = Value.Tbin };
              ]
        in
        let rows =
          [
            [| Value.Int min_int; Value.Float 3.14159; Value.Str "uniÃ©'quote"; Value.Bin " ÿ" |];
            [| Value.Int max_int; Value.Float (-0.0); Value.Str ""; Value.Bin "" |];
            [| Value.Null; Value.Null; Value.Null; Value.Null |];
            [| Value.Int 0; Value.Float infinity; Value.Str "
	"; Value.Bin "ÿÿÿ" |];
          ]
        in
        List.iter (fun r -> ignore (Table.insert t r)) rows;
        let path = Filename.temp_file "ppfx" ".db" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Codec.save path db;
            let db2 = Codec.load path in
            let t2 = Database.table db2 "v" in
            let got = ref [] in
            Table.iter_rows (fun _ r -> got := r :: !got) t2;
            Alcotest.(check bool) "rows equal" true (List.rev !got = rows)) );
    ( "corrupt input rejected",
      fun () ->
        let path = Filename.temp_file "ppfx" ".db" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let oc = open_out_bin path in
            output_string oc "NOTADB";
            close_out oc;
            (match Codec.load path with
             | _ -> Alcotest.fail "expected Corrupt"
             | exception Codec.Corrupt _ -> ());
            let oc = open_out_bin path in
            output_string oc "PPFXDB1";
            close_out oc;
            (match Codec.load path with
             | _ -> Alcotest.fail "expected Corrupt (truncated)"
             | exception Codec.Corrupt _ -> ())) );
  ]

(* Varint edge values round-trip. *)
let prop_codec_roundtrip =
  QCheck.Test.make ~count:300 ~name:"random databases survive save/load"
    (QCheck.make
       ~print:(fun rows -> Printf.sprintf "%d rows" (List.length rows))
       QCheck.Gen.(
         list_size (int_bound 50)
           (pair (int_range (-1000000) 1000000) (string_size ~gen:printable (int_bound 20)))))
    (fun rows ->
      let db = Database.create () in
      let t =
        Database.create_table db ~name:"r"
          ~columns:
            [ { Table.name = "i"; ty = Value.Tint }; { Table.name = "s"; ty = Value.Tstr } ]
      in
      List.iter (fun (i, s) -> ignore (Table.insert t [| Value.Int i; Value.Str s |])) rows;
      Table.create_index t [ "i" ];
      let path = Filename.temp_file "ppfx" ".db" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Codec.save path db;
          let db2 = Codec.load path in
          let t2 = Database.table db2 "r" in
          let got = ref [] in
          Table.iter_rows (fun _ r -> got := (r.(0), r.(1)) :: !got) t2;
          List.rev !got = List.map (fun (i, s) -> Value.Int i, Value.Str s) rows))

(* ------------------------------------------------------------------ *)
(* Planner vs naive oracle on random queries                           *)
(* ------------------------------------------------------------------ *)

(* Random schema: two tables with int columns; random conjunctive WHERE
   over equalities/comparisons/between, possibly with a correlated EXISTS. *)
let gen_query_case =
  let open QCheck.Gen in
  let rows_gen = list_size (int_range 0 40) (pair (int_range 0 8) (int_range 0 8)) in
  let cmp_gen = oneofl [ Sql.Eq; Sql.Ne; Sql.Lt; Sql.Le; Sql.Gt; Sql.Ge ] in
  let colname = oneofl [ "a"; "b" ] in
  let atom alias =
    oneof
      [
        map2 (fun op c -> Sql.Cmp (op, Sql.Col (alias, c), Sql.Const (Value.Int 4))) cmp_gen colname;
        map2
          (fun c1 c2 -> Sql.Cmp (Sql.Eq, Sql.Col ("t", c1), Sql.Col ("u", c2)))
          colname colname;
        map (fun c -> Sql.Between (Sql.Col (alias, c), Sql.Const (Value.Int 2), Sql.Const (Value.Int 6))) colname;
      ]
  in
  let base_pred = oneof [ atom "t"; atom "u" ] in
  let pred =
    oneof
      [
        base_pred;
        map2 (fun a b -> Sql.And (a, b)) base_pred base_pred;
        map2 (fun a b -> Sql.Or (a, b)) base_pred base_pred;
        map (fun a -> Sql.Not a) base_pred;
        (* correlated exists against table v *)
        map
          (fun c ->
            Sql.Exists
              {
                Sql.distinct = false;
                projections = [ Sql.Const Value.Null, "null" ];
                from = [ "v", "v" ];
                where = Some (Sql.Cmp (Sql.Eq, Sql.Col ("v", "a"), Sql.Col ("t", c)));
                order_by = [];
              })
          colname;
      ]
  in
  triple rows_gen rows_gen (pair rows_gen (opt pred))

let build_case (rows_t, rows_u, (rows_v, where)) =
  let db = Database.create () in
  let mk name rows =
    let t =
      Database.create_table db ~name
        ~columns:
          [ { Table.name = "a"; ty = Value.Tint }; { Table.name = "b"; ty = Value.Tint } ]
    in
    List.iter (fun (a, b) -> ignore (Table.insert t [| Value.Int a; Value.Int b |])) rows;
    Table.create_index t [ "a" ];
    Table.create_index t [ "a"; "b" ];
    t
  in
  ignore (mk "t" rows_t);
  ignore (mk "u" rows_u);
  ignore (mk "v" rows_v);
  let sel =
    {
      Sql.distinct = true;
      projections =
        [
          Sql.Col ("t", "a"), "ta"; Sql.Col ("t", "b"), "tb"; Sql.Col ("u", "a"), "ua";
        ];
      from = [ "t", "t"; "u", "u" ];
      where;
      order_by = [ Sql.Col ("t", "a"); Sql.Col ("t", "b"); Sql.Col ("u", "a"); Sql.Col ("u", "b") ];
    }
  in
  db, Sql.Select sel

let prop_planner_vs_naive =
  QCheck.Test.make ~count:400 ~name:"planner agrees with naive cross-product oracle"
    (QCheck.make
       ~print:(fun case ->
         let _, stmt = build_case case in
         Sql.to_string stmt)
       gen_query_case)
    (fun case ->
      let db, stmt = build_case case in
      let fast = (Engine.run db stmt).Engine.rows in
      let slow = (Engine.run_naive db stmt).Engine.rows in
      fast = slow)

(* ------------------------------------------------------------------ *)
(* Optimizer pass: differential properties and EXPLAIN surface         *)
(* ------------------------------------------------------------------ *)

let opts_off = { Engine.semijoin_reduction = false; hash_join = false; force = None }

let opts_forced = { Engine.default_opts with Engine.force = Some `Hash_join }

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Random queries over an XMark-shaped vocabulary: a small Paths
   dimension (pathid, path) joined to a fact table on path_id and
   filtered by a path regex — exactly the shape the semi-join reduction
   targets. Sometimes the paths alias is also projected (the reduction
   must then decline), fact path_ids sometimes dangle, and the optional
   residual comparison keeps mixed filter lists in play. Every opts
   configuration, including forced hash joins, must match the naive
   cross-product oracle byte for byte. *)
let gen_path_case =
  let open QCheck.Gen in
  let seg =
    oneofl
      [ "site"; "regions"; "item"; "description"; "parlist"; "listitem"; "text";
        "keyword"; "name"; "emph" ]
  in
  let path = map (fun segs -> "/" ^ String.concat "/" segs) (list_size (int_range 1 4) seg) in
  let pattern =
    oneof
      [
        map (fun s -> "^/(.+/)?" ^ s ^ "$") seg;
        map (fun s -> "^/" ^ s ^ "(/.+)?$") seg;
        map2 (fun a b -> "^/" ^ a ^ "/(.+/)?" ^ b ^ "$") seg seg;
      ]
  in
  let paths_gen = list_size (int_bound 20) path in
  let fact_gen = list_size (int_bound 30) (pair (int_range (-2) 25) (int_bound 9)) in
  quad paths_gen fact_gen pattern (pair bool (int_bound 9))

let build_path_case (paths, facts, pattern, (project_path, cutoff)) =
  let db = Database.create () in
  let pt =
    Database.create_table db ~name:"paths"
      ~columns:
        [ { Table.name = "pathid"; ty = Value.Tint };
          { Table.name = "path"; ty = Value.Tstr } ]
  in
  List.iteri (fun i p -> ignore (Table.insert pt [| Value.Int i; Value.Str p |])) paths;
  Table.create_index pt [ "pathid" ];
  let ft =
    Database.create_table db ~name:"fact"
      ~columns:
        [ { Table.name = "id"; ty = Value.Tint };
          { Table.name = "path_id"; ty = Value.Tint };
          { Table.name = "val"; ty = Value.Tint } ]
  in
  List.iteri
    (fun i (pid, v) -> ignore (Table.insert ft [| Value.Int i; Value.Int pid; Value.Int v |]))
    facts;
  let sel =
    {
      Sql.distinct = false;
      projections =
        ((Sql.Col ("f", "id"), "id") :: (Sql.Col ("f", "val"), "val")
        :: (if project_path then [ Sql.Col ("p", "path"), "path" ] else []));
      from = [ "paths", "p"; "fact", "f" ];
      where =
        Some
          (Sql.And
             ( Sql.Regexp_like (Sql.Col ("p", "path"), pattern),
               Sql.And
                 ( Sql.Cmp (Sql.Eq, Sql.Col ("p", "pathid"), Sql.Col ("f", "path_id")),
                   Sql.Cmp (Sql.Ge, Sql.Col ("f", "val"), Sql.Const (Value.Int cutoff)) )
             ));
      order_by = [ Sql.Col ("f", "id") ];
    }
  in
  db, Sql.Select sel

let prop_optimizer_vs_naive =
  QCheck.Test.make ~count:300
    ~name:"optimizer pass agrees with the naive oracle on path-filter queries"
    (QCheck.make
       ~print:(fun case ->
         let _, stmt = build_path_case case in
         Sql.to_string stmt)
       gen_path_case)
    (fun case ->
      let db, stmt = build_path_case case in
      let gold = (Engine.run_naive db stmt).Engine.rows in
      List.for_all
        (fun opts -> (Engine.run ~opts db stmt).Engine.rows = gold)
        [ opts_off; Engine.default_opts; opts_forced ])

(* Deterministic store for the EXPLAIN surface tests. *)
let optimizer_fixture () =
  let db = Database.create () in
  let pt =
    Database.create_table db ~name:"paths"
      ~columns:
        [ { Table.name = "pathid"; ty = Value.Tint };
          { Table.name = "path"; ty = Value.Tstr } ]
  in
  List.iteri
    (fun i p -> ignore (Table.insert pt [| Value.Int i; Value.Str p |]))
    [ "/site"; "/site/regions"; "/site/regions/item"; "/site/regions/item/keyword";
      "/site/people/person/name" ];
  let ft =
    Database.create_table db ~name:"fact"
      ~columns:
        [ { Table.name = "id"; ty = Value.Tint };
          { Table.name = "path_id"; ty = Value.Tint };
          { Table.name = "val"; ty = Value.Tint } ]
  in
  List.iteri
    (fun i (pid, v) -> ignore (Table.insert ft [| Value.Int i; Value.Int pid; Value.Int v |]))
    [ 3, 1; 3, 2; 4, 5; 2, 0; 0, 7 ];
  db, pt, ft

let reduce_stmt =
  Sql.Select
    {
      Sql.distinct = false;
      projections = [ Sql.Col ("f", "id"), "id" ];
      from = [ "paths", "p"; "fact", "f" ];
      where =
        Some
          (Sql.And
             ( Sql.Regexp_like (Sql.Col ("p", "path"), "^/(.+/)?keyword$"),
               Sql.Cmp (Sql.Eq, Sql.Col ("p", "pathid"), Sql.Col ("f", "path_id")) ));
      order_by = [ Sql.Col ("f", "id") ];
    }

let hash_stmt =
  Sql.Select
    {
      Sql.distinct = false;
      projections = [ Sql.Col ("f", "id"), "fid"; Sql.Col ("g", "id"), "gid" ];
      from = [ "fact", "f"; "fact", "g" ];
      where = Some (Sql.Cmp (Sql.Eq, Sql.Col ("f", "path_id"), Sql.Col ("g", "path_id")));
      order_by = [ Sql.Col ("f", "id"); Sql.Col ("g", "id") ];
    }

let optimizer_tests =
  [
    ( "explain surfaces the semi-join reduction",
      fun () ->
        let db, _, _ = optimizer_fixture () in
        let on = Engine.explain db reduce_stmt in
        Alcotest.(check bool) "reduction line" true (contains on "semi-join reduction");
        Alcotest.(check bool) "probe step" true (contains on "pathid set probe");
        let off = Engine.explain ~opts:opts_off db reduce_stmt in
        Alcotest.(check bool) "off: no reduction" false
          (contains off "semi-join reduction");
        Alcotest.(check bool) "off: no probe" false (contains off "pathid set probe") );
    ( "explain surfaces the hash join",
      fun () ->
        let db, _, _ = optimizer_fixture () in
        let on = Engine.explain ~opts:opts_forced db hash_stmt in
        Alcotest.(check bool) "hash join step" true (contains on "hash join");
        let off = Engine.explain ~opts:opts_off db hash_stmt in
        Alcotest.(check bool) "off: no hash join" false (contains off "hash join") );
    ( "reduction and hash join preserve results on the fixture",
      fun () ->
        let db, _, _ = optimizer_fixture () in
        List.iter
          (fun stmt ->
            let gold = (Engine.run ~opts:opts_off db stmt).Engine.rows in
            Alcotest.(check int) "default opts" 0
              (compare (Engine.run db stmt).Engine.rows gold);
            Alcotest.(check int) "forced opts" 0
              (compare (Engine.run ~opts:opts_forced db stmt).Engine.rows gold))
          [ reduce_stmt; hash_stmt ] );
    ( "reduction probe counts rows and regex evals",
      fun () ->
        let db, _, _ = optimizer_fixture () in
        let plan = Engine.prepare db reduce_stmt in
        let at_prepare = Engine.plan_stats plan in
        Alcotest.(check int) "one reduction" 1 at_prepare.Engine.reductions;
        Alcotest.(check int) "regex once per paths row" 5 at_prepare.Engine.regex_plan_evals;
        ignore (Engine.run_plan plan);
        let per =
          Engine.stats_diff (Engine.plan_stats plan) at_prepare
        in
        Alcotest.(check int) "no regex at execution" 0 (per.Engine.regex_plan_evals + per.Engine.regex_exec_evals);
        Alcotest.(check bool) "rows probed" true (per.Engine.rows_probed > 0) );
    ( "prepared reduction is invalidated by writes",
      fun () ->
        let db, pt, ft = optimizer_fixture () in
        let plan = Engine.prepare db reduce_stmt in
        Alcotest.(check bool) "fresh plan valid" true (Engine.plan_valid plan);
        ignore (Table.insert pt [| Value.Int 5; Value.Str "/site/keyword" |]);
        ignore (Table.insert ft [| Value.Int 5; Value.Int 5; Value.Int 9 |]);
        Alcotest.(check bool) "stale after writes" false (Engine.plan_valid plan);
        let fresh = Engine.prepare db reduce_stmt in
        let gold = (Engine.run ~opts:opts_off db reduce_stmt).Engine.rows in
        Alcotest.(check int) "re-prepared plan sees the new rows" 0
          (compare (Engine.run_plan fresh).Engine.rows gold) );
  ]

(* ------------------------------------------------------------------ *)
(* Path-partitioned storage: pruning, differentials, and mutations     *)
(* ------------------------------------------------------------------ *)

(* Same vocabulary as [build_path_case], but built through a layout
   knob: the fact table is optionally partitioned by [path_id] with
   segments sorted on [id] -- the shredder's layout, with the unique
   [id] column standing in for [dewey_pos]. The partitioned store must
   agree with the heap store and the naive oracle under every opts
   configuration, and [Table.check_partitions] must hold before and
   after arbitrary insert/delete/update sequences. *)
let build_path_store ~partitioned (paths, facts, _, _) =
  let db = Database.create () in
  let pt =
    Database.create_table db ~name:"paths"
      ~columns:
        [ { Table.name = "pathid"; ty = Value.Tint };
          { Table.name = "path"; ty = Value.Tstr } ]
  in
  List.iteri (fun i p -> ignore (Table.insert pt [| Value.Int i; Value.Str p |])) paths;
  Table.create_index pt [ "pathid" ];
  let partition =
    if partitioned then Some { Table.part_col = "path_id"; part_sort = "id" } else None
  in
  let ft =
    Database.create_table ?partition db ~name:"fact"
      ~columns:
        [ { Table.name = "id"; ty = Value.Tint };
          { Table.name = "path_id"; ty = Value.Tint };
          { Table.name = "val"; ty = Value.Tint } ]
  in
  List.iteri
    (fun i (pid, v) -> ignore (Table.insert ft [| Value.Int i; Value.Int pid; Value.Int v |]))
    facts;
  db, ft

let prop_partitioned_vs_heap =
  QCheck.Test.make ~count:300
    ~name:"partitioned layout agrees with the heap layout and the naive oracle"
    (QCheck.make
       ~print:(fun case ->
         let _, stmt = build_path_case case in
         Sql.to_string stmt)
       gen_path_case)
    (fun case ->
      let heap_db, stmt = build_path_case case in
      let part_db, part_ft = build_path_store ~partitioned:true case in
      (match Table.check_partitions part_ft with
       | Ok () -> ()
       | Error e -> QCheck.Test.fail_reportf "partition invariant: %s" e);
      let gold = (Engine.run_naive heap_db stmt).Engine.rows in
      List.for_all
        (fun opts ->
          (Engine.run ~opts part_db stmt).Engine.rows = gold
          && (Engine.run ~opts heap_db stmt).Engine.rows = gold)
        [ opts_off; Engine.default_opts; opts_forced ])

(* Mutations are replayed identically against both layouts: row ids
   stay in lockstep because both tables see the same insert order, and
   the [id] column value is preserved across updates so the ORDER BY
   stays a total order. *)
let apply_path_mutations ft muts =
  let live = ref [] in
  for i = Table.live_count ft - 1 downto 0 do
    live := (i, i) :: !live
  done;
  let fresh = ref 1000 in
  List.iter
    (fun (op, sel, pid, v) ->
      match op, !live with
      | 0, _ | _, [] ->
        incr fresh;
        let rid = Table.insert ft [| Value.Int !fresh; Value.Int pid; Value.Int v |] in
        live := (rid, !fresh) :: !live
      | 1, l ->
        let rid, _ = List.nth l (sel mod List.length l) in
        ignore (Table.delete ft rid);
        live := List.remove_assoc rid !live
      | _, l ->
        let rid, idv = List.nth l (sel mod List.length l) in
        ignore (Table.update ft rid [| Value.Int idv; Value.Int pid; Value.Int v |]))
    muts

let gen_path_mutations =
  QCheck.Gen.(
    list_size (int_bound 25)
      (quad (int_bound 2) (int_bound 99) (int_range (-2) 25) (int_bound 9)))

let prop_partitioned_mutations =
  QCheck.Test.make ~count:200
    ~name:"partitions stay sorted and differential after random mutations"
    (QCheck.make
       ~print:(fun (case, muts) ->
         let _, stmt = build_path_case case in
         Printf.sprintf "%s with %d mutations" (Sql.to_string stmt) (List.length muts))
       (QCheck.Gen.pair gen_path_case gen_path_mutations))
    (fun (case, muts) ->
      let _, stmt = build_path_case case in
      let heap_db, heap_ft = build_path_store ~partitioned:false case in
      let part_db, part_ft = build_path_store ~partitioned:true case in
      apply_path_mutations heap_ft muts;
      apply_path_mutations part_ft muts;
      (match Table.check_partitions part_ft with
       | Ok () -> ()
       | Error e -> QCheck.Test.fail_reportf "partition invariant after mutations: %s" e);
      let gold = (Engine.run_naive heap_db stmt).Engine.rows in
      (Engine.run part_db stmt).Engine.rows = gold
      && (Engine.run heap_db stmt).Engine.rows = gold)

(* [optimizer_fixture] with the fact table partitioned: pathids
   {0, 2, 3, 4} give four partitions, and [reduce_stmt]'s regex matches
   only pathid 3 (two rows), so a pruned scan touches 1 of 4 segments. *)
let partitioned_fixture () =
  let db = Database.create () in
  let pt =
    Database.create_table db ~name:"paths"
      ~columns:
        [ { Table.name = "pathid"; ty = Value.Tint };
          { Table.name = "path"; ty = Value.Tstr } ]
  in
  List.iteri
    (fun i p -> ignore (Table.insert pt [| Value.Int i; Value.Str p |]))
    [ "/site"; "/site/regions"; "/site/regions/item"; "/site/regions/item/keyword";
      "/site/people/person/name" ];
  let ft =
    Database.create_table db
      ~partition:{ Table.part_col = "path_id"; part_sort = "id" }
      ~name:"fact"
      ~columns:
        [ { Table.name = "id"; ty = Value.Tint };
          { Table.name = "path_id"; ty = Value.Tint };
          { Table.name = "val"; ty = Value.Tint } ]
  in
  List.iteri
    (fun i (pid, v) -> ignore (Table.insert ft [| Value.Int i; Value.Int pid; Value.Int v |]))
    [ 3, 1; 3, 2; 4, 5; 2, 0; 0, 7 ];
  db, pt, ft

let partition_tests =
  [
    ( "partitioned table: spec, keys, segment sizes and invariant",
      fun () ->
        let _, _, ft = partitioned_fixture () in
        (match Table.partition_spec ft with
         | Some s ->
           Alcotest.(check string) "part col" "path_id" s.Table.part_col;
           Alcotest.(check string) "sort col" "id" s.Table.part_sort
         | None -> Alcotest.fail "expected a partition spec");
        Alcotest.(check (list int)) "keys" [ 0; 2; 3; 4 ] (Table.partition_keys ft);
        Alcotest.(check int) "partition count" 4 (Table.partition_count ft);
        Alcotest.(check int) "rows in partition 3" 2 (Table.partition_size ft 3);
        (match Table.check_partitions ft with
         | Ok () -> ()
         | Error e -> Alcotest.fail e) );
    ( "explain surfaces partition pruning",
      fun () ->
        let db, _, _ = partitioned_fixture () in
        let on = Engine.explain db reduce_stmt in
        Alcotest.(check bool) "partition scan" true (contains on "partition scan");
        Alcotest.(check bool) "pruning line" true
          (contains on "partitions: scanned 1/4");
        Alcotest.(check bool) "sort elided over one id-sorted segment" true
          (contains on "sort elided");
        let off = Engine.explain ~opts:opts_off db reduce_stmt in
        Alcotest.(check bool) "off: no partition scan" false
          (contains off "partition scan") );
    ( "partition scan prunes and collapses rows scanned",
      fun () ->
        let db, _, _ = partitioned_fixture () in
        let plan = Engine.prepare db reduce_stmt in
        let before = Engine.plan_stats plan in
        let r = Engine.run_plan plan in
        let per = Engine.stats_diff (Engine.plan_stats plan) before in
        Alcotest.(check int) "result rows" 2 (List.length r.Engine.rows);
        Alcotest.(check int) "scanned = matched partition rows" 2
          per.Engine.rows_scanned;
        Alcotest.(check int) "partitions scanned" 1 per.Engine.partitions_scanned;
        Alcotest.(check int) "partitions pruned" 3 per.Engine.partitions_pruned;
        Alcotest.(check int) "pathid probe subsumed by pruning" 0
          per.Engine.rows_probed );
    ( "mutations keep segments sorted and results correct",
      fun () ->
        let db, _, ft = partitioned_fixture () in
        ignore (Table.insert ft [| Value.Int 9; Value.Int 3; Value.Int 4 |]);
        ignore (Table.delete ft 0);
        ignore (Table.update ft 1 [| Value.Int 1; Value.Int 4; Value.Int 2 |]);
        (match Table.check_partitions ft with
         | Ok () -> ()
         | Error e -> Alcotest.fail e);
        let gold = (Engine.run_naive db reduce_stmt).Engine.rows in
        Alcotest.(check int) "agrees with oracle after mutations" 0
          (compare (Engine.run db reduce_stmt).Engine.rows gold) );
  ]

(* ------------------------------------------------------------------ *)
(* Dewey range joins: differential property and EXPLAIN surface       *)
(* ------------------------------------------------------------------ *)

(* Random order-axis queries over two tables with unique Tbin dewey
   keys — the shapes the translator emits for following/preceding and
   containment windows ([d > a || 0xFF], [d < a], [BETWEEN a AND
   a || 0xFF], both orientations). Every opts configuration, including
   forced hash joins, must match the naive cross-product oracle byte for
   byte. Dewey keys are deduplicated per table, mirroring real stores
   where dewey_pos is unique, and the ORDER BY covers every projection
   so the expected row list is total. *)
let gen_order_case =
  let open QCheck.Gen in
  let byte = map Char.chr (int_range 1 4) in
  let dewey = string_size ~gen:byte (int_range 1 4) in
  let rows = list_size (int_bound 15) (pair dewey (int_bound 9)) in
  triple rows rows (pair (int_bound 3) (int_bound 9))

let build_order_case (rows_x, rows_y, (shape, cutoff)) =
  let db = Database.create () in
  let mk name rows =
    let t =
      Database.create_table db ~name
        ~columns:
          [ { Table.name = "dewey"; ty = Value.Tbin };
            { Table.name = "val"; ty = Value.Tint } ]
    in
    let seen = Hashtbl.create 16 in
    List.iter
      (fun (d, v) ->
        if not (Hashtbl.mem seen d) then begin
          Hashtbl.add seen d ();
          ignore (Table.insert t [| Value.Bin d; Value.Int v |])
        end)
      rows;
    Table.create_index t [ "dewey" ];
    t
  in
  ignore (mk "x" rows_x);
  ignore (mk "y" rows_y);
  let dx = Sql.Col ("x", "dewey") and dy = Sql.Col ("y", "dewey") in
  let sentinel = Sql.Concat (dx, Sql.Const (Value.Bin "\xff")) in
  let order_pred =
    match shape with
    | 0 -> Sql.Cmp (Sql.Gt, dy, sentinel) (* following *)
    | 1 -> Sql.Cmp (Sql.Lt, sentinel, dy) (* mirrored following *)
    | 2 -> Sql.Cmp (Sql.Lt, dy, dx) (* preceding *)
    | _ -> Sql.Between (dy, dx, sentinel) (* containment window *)
  in
  let where =
    Sql.And
      (order_pred, Sql.Cmp (Sql.Ge, Sql.Col ("y", "val"), Sql.Const (Value.Int cutoff)))
  in
  let sel =
    {
      Sql.distinct = true;
      projections =
        [ dx, "xd"; Sql.Col ("x", "val"), "xv"; dy, "yd"; Sql.Col ("y", "val"), "yv" ];
      from = [ "x", "x"; "y", "y" ];
      where = Some where;
      order_by = [ dx; Sql.Col ("x", "val"); dy; Sql.Col ("y", "val") ];
    }
  in
  db, Sql.Select sel

let prop_order_axis_vs_naive =
  QCheck.Test.make ~count:400 ~name:"order-axis band joins: every opts ≡ naive"
    (QCheck.make
       ~print:(fun case ->
         let _, stmt = build_order_case case in
         Sql.to_string stmt)
       gen_order_case)
    (fun case ->
      let db, stmt = build_order_case case in
      let gold = (Engine.run_naive db stmt).Engine.rows in
      List.for_all
        (fun opts -> (Engine.run ~opts db stmt).Engine.rows = gold)
        [ opts_off; Engine.default_opts; opts_forced ])

(* Deterministic store for the range-join EXPLAIN surface tests. *)
let order_fixture () =
  let db = Database.create () in
  let mk name rows =
    let t =
      Database.create_table db ~name
        ~columns:
          [ { Table.name = "dewey"; ty = Value.Tbin };
            { Table.name = "val"; ty = Value.Tint } ]
    in
    List.iteri (fun i d -> ignore (Table.insert t [| Value.Bin d; Value.Int i |])) rows;
    Table.create_index t [ "dewey" ];
    t
  in
  ignore (mk "x" [ "\x01"; "\x01\x01"; "\x02"; "\x02\x01"; "\x03" ]);
  ignore (mk "y" [ "\x01"; "\x01\x02"; "\x02"; "\x02\x02"; "\x04" ]);
  db

let order_stmt shape =
  let dx = Sql.Col ("x", "dewey") and dy = Sql.Col ("y", "dewey") in
  let sentinel = Sql.Concat (dx, Sql.Const (Value.Bin "\xff")) in
  let pred =
    match shape with
    | `Following -> Sql.Cmp (Sql.Gt, dy, sentinel)
    | `Preceding -> Sql.Cmp (Sql.Lt, dy, dx)
    | `Containment -> Sql.Between (dy, dx, sentinel)
  in
  Sql.Select
    {
      Sql.distinct = true;
      projections = [ dx, "xd"; dy, "yd" ];
      from = [ "x", "x"; "y", "y" ];
      where = Some pred;
      order_by = [ dx; dy ];
    }

let range_join_tests =
  [
    ( "order-axis joins plan an index range scan",
      fun () ->
        let db = order_fixture () in
        List.iter
          (fun shape ->
            let plan = Engine.explain db (order_stmt shape) in
            Alcotest.(check bool) "index range scan" true (contains plan "index range scan"))
          [ `Following; `Preceding; `Containment ] );
    ( "explain notes preserved order",
      fun () ->
        let db = order_fixture () in
        let by col =
          Sql.Select
            {
              Sql.distinct = false;
              projections = [ Sql.Col ("x", "dewey"), "d"; Sql.Col ("x", "val"), "v" ];
              from = [ "x", "x" ];
              where = None;
              order_by = [ Sql.Col ("x", col) ];
            }
        in
        let dewey_plan = Engine.explain db (by "dewey") in
        Alcotest.(check bool) "dewey order preserved" true
          (contains dewey_plan "order: preserved");
        let val_plan = Engine.explain db (by "val") in
        Alcotest.(check bool) "unindexed order still sorts" false
          (contains val_plan "order: preserved") );
    ( "range joins hold no plan state and re-run identically",
      fun () ->
        let db = order_fixture () in
        List.iter
          (fun shape ->
            let plan = Engine.prepare db (order_stmt shape) in
            let exec () =
              let before = Engine.plan_stats plan in
              let rows = (Engine.run_plan plan).Engine.rows in
              rows, Engine.stats_diff (Engine.plan_stats plan) before
            in
            let rows1, d1 = exec () in
            let rows2, d2 = exec () in
            Alcotest.(check bool) "same rows" true (rows1 = rows2);
            Alcotest.(check int) "same rows scanned" d1.Engine.rows_scanned
              d2.Engine.rows_scanned;
            let lifetime = Engine.plan_stats plan in
            Alcotest.(check int) "peak bytes" 0 lifetime.Engine.peak_bytes;
            Alcotest.(check int) "hash builds" 0 lifetime.Engine.hash_builds)
          [ `Following; `Preceding; `Containment ] );
    ( "a NULL Dewey bound selects no rows",
      fun () ->
        (* The outer row with a NULL key makes every range comparison
           unknown, so it joins nothing; the inner NULL row never lies in
           any window. Both index range scans and the oracle agree. *)
        let db = order_fixture () in
        List.iter
          (fun name ->
            match Database.table_opt db name with
            | Some t -> ignore (Table.insert t [| Value.Null; Value.Int 9 |])
            | None -> Alcotest.fail name)
          [ "x"; "y" ];
        List.iter
          (fun shape ->
            let stmt = order_stmt shape in
            let rows = (Engine.run db stmt).Engine.rows in
            Alcotest.(check bool) "equals naive" true
              (rows = (Engine.run_naive db stmt).Engine.rows);
            Alcotest.(check bool) "no NULL key in the result" false
              (List.exists (Array.exists (fun v -> v = Value.Null)) rows))
          [ `Following; `Preceding; `Containment ] );
  ]

(* ------------------------------------------------------------------ *)
(* REGEXP_LIKE on a text column: default opts == naive                 *)
(* ------------------------------------------------------------------ *)

let regex_sel pat =
  select
    [ col "d" "id", "id" ]
    [ "docs", "d" ]
    ~where:(Sql.Regexp_like (col "d" "txt", pat))
    ~order:[ col "d" "id" ]

let text_db () =
  let db = Database.create () in
  let t =
    Database.create_table db ~name:"docs"
      ~columns:
        [ { Table.name = "id"; ty = Value.Tint };
          { Table.name = "txt"; ty = Value.Tstr } ]
  in
  List.iteri
    (fun i v -> ignore (Table.insert t [| Value.Int i; v |]))
    [
      Value.Str "the quick brown fox";
      Value.Str "lazy dog sleeps";
      Value.Str "quicksilver linings";
      Value.Str "brown bread and honey";
      Value.Null;
      Value.Str "";
    ];
  db, t

let regex_ids db pat =
  List.map
    (function [| Value.Int i |] -> i | _ -> Alcotest.fail "unexpected row shape")
    (Engine.run db (Sql.Select (regex_sel pat))).Engine.rows

let regexp_like_tests =
  [
    ( "substring semantics, NULL and empty text never match",
      fun () ->
        let db, _ = text_db () in
        Alcotest.(check (list int)) "literal inside tokens" [ 0; 2 ] (regex_ids db "quick");
        Alcotest.(check (list int)) "literal across a space" [ 3 ] (regex_ids db "wn b");
        Alcotest.(check (list int)) "alternation" [ 0; 1; 2 ] (regex_ids db "quick|dog");
        Alcotest.(check (list int)) "anchored prefix" [ 3 ] (regex_ids db "^brown");
        Alcotest.(check (list int)) "anchored suffix" [ 2 ] (regex_ids db "linings$");
        Alcotest.(check (list int)) "absent literal" [] (regex_ids db "zebra");
        Alcotest.(check (list int)) "empty pattern keeps the empty string, not NULL"
          [ 0; 1; 2; 3; 5 ] (regex_ids db "") );
    ( "results follow inserts, deletes and updates",
      fun () ->
        let db, t = text_db () in
        ignore (Table.delete t 0);
        ignore (Table.insert t [| Value.Int 6; Value.Str "quick again" |]);
        Alcotest.(check bool) "update applied" true
          (Table.update t 2 [| Value.Int 2; Value.Str "slow silver" |]);
        Alcotest.(check (list int)) "rewritten rows" [ 6 ] (regex_ids db "quick");
        Alcotest.(check (list int)) "updated text matches" [ 2 ] (regex_ids db "silver");
        let stmt = Sql.Select (regex_sel "o") in
        Alcotest.(check bool) "default == naive after writes" true
          ((Engine.run db stmt).Engine.rows = (Engine.run_naive db stmt).Engine.rows) );
    ( "explain shows a full scan with no probe",
      fun () ->
        let db, _ = text_db () in
        let out = Engine.explain db (Sql.Select (regex_sel "quick")) in
        Alcotest.(check bool) "full scan" true (contains out "full scan");
        Alcotest.(check bool) "no content probe" false (contains out "content index") );
    ( "a frozen DFA runs the filter, no NFA simulation",
      fun () ->
        let db, _ = text_db () in
        let plan = Engine.prepare db (Sql.Select (regex_sel "quick")) in
        let before = Engine.plan_stats plan in
        let rows = (Engine.run_plan plan).Engine.rows in
        let d = Engine.stats_diff (Engine.plan_stats plan) before in
        Alcotest.(check int) "matches" 2 (List.length rows);
        Alcotest.(check int) "every row scanned" 6 d.Engine.rows_scanned;
        Alcotest.(check int) "one DFA run per non-NULL row" 5 d.Engine.dfa_execs;
        Alcotest.(check int) "no NFA simulation" 0 d.Engine.regex_exec_evals );
    ( "a second run reuses the plan and repeats the counts",
      fun () ->
        let db, _ = text_db () in
        let plan = Engine.prepare db (Sql.Select (regex_sel "brown")) in
        let first = (Engine.run_plan plan).Engine.rows in
        let mid = Engine.plan_stats plan in
        let second = (Engine.run_plan plan).Engine.rows in
        let d = Engine.stats_diff (Engine.plan_stats plan) mid in
        Alcotest.(check bool) "same rows" true (first = second);
        Alcotest.(check int) "two matches" 2 (List.length second);
        Alcotest.(check int) "scan repeated" 6 d.Engine.rows_scanned;
        Alcotest.(check int) "no NFA simulation" 0 d.Engine.regex_exec_evals );
  ]

(* Differential: default opts == naive oracle, over random text columns
   (with NULLs and empty strings) and random patterns — literals,
   anchored, alternation and wildcard shapes. *)
let gen_content_case =
  let open QCheck.Gen in
  let word = string_size ~gen:(map Char.chr (int_range 97 99)) (int_range 1 6) in
  let text = map (String.concat " ") (list_size (int_bound 4) word) in
  let lit = string_size ~gen:(map Char.chr (int_range 97 99)) (int_range 2 5) in
  let pattern =
    oneof
      [
        lit;
        map2 (fun a b -> a ^ "|" ^ b) lit lit;
        map (fun a -> ".*" ^ a) lit;
        map (fun a -> "^" ^ a) lit;
        map2 (fun a b -> a ^ ".*" ^ b) lit lit;
        map (fun a -> a ^ "$") lit;
        map2 (fun a b -> a ^ "( |x)" ^ b) lit lit;
      ]
  in
  pair (list_size (int_bound 25) (option text)) pattern

let prop_regexp_like_vs_naive =
  QCheck.Test.make ~count:300
    ~name:"REGEXP_LIKE on a text column: default opts == naive"
    (QCheck.make gen_content_case ~print:(fun (rows, pat) ->
         Printf.sprintf "pattern %S over %s" pat
           (String.concat "; "
              (List.map (function None -> "NULL" | Some s -> Printf.sprintf "%S" s) rows))))
    (fun (rows, pat) ->
      let db = Database.create () in
      let t =
        Database.create_table db ~name:"docs"
          ~columns:
            [ { Table.name = "id"; ty = Value.Tint };
              { Table.name = "txt"; ty = Value.Tstr } ]
      in
      List.iteri
        (fun i r ->
          ignore
            (Table.insert t
               [| Value.Int i; (match r with Some s -> Value.Str s | None -> Value.Null) |]))
        rows;
      let stmt = Sql.Select (regex_sel pat) in
      (Engine.run db stmt).Engine.rows = (Engine.run_naive db stmt).Engine.rows)

let () =
  let tc (name, f) = Alcotest.test_case name `Quick f in
  Alcotest.run "minidb"
    [
      "values", List.map tc value_tests;
      "btree", List.map tc btree_unit_tests;
      "btree-delete", List.map tc btree_delete_tests;
      "btree-properties",
        List.map QCheck_alcotest.to_alcotest [ prop_btree_oracle; prop_btree_ops ];
      "tables", List.map tc table_tests;
      "sql", List.map tc sql_tests;
      "codec", List.map tc codec_tests;
      "codec-properties", [ QCheck_alcotest.to_alcotest prop_codec_roundtrip ];
      "planner-properties", [ QCheck_alcotest.to_alcotest prop_planner_vs_naive ];
      "optimizer", List.map tc optimizer_tests;
      "optimizer-properties", [ QCheck_alcotest.to_alcotest prop_optimizer_vs_naive ];
      "partitioning", List.map tc partition_tests;
      "partitioning-properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_partitioned_vs_heap; prop_partitioned_mutations ];
      "range-join", List.map tc range_join_tests;
      "range-join-properties", [ QCheck_alcotest.to_alcotest prop_order_axis_vs_naive ];
      "regexp-like", List.map tc regexp_like_tests;
      "regexp-like-properties", [ QCheck_alcotest.to_alcotest prop_regexp_like_vs_naive ];
    ]
