(* Save/load round-trips for the binary database codec: table contents
   and indexes survive persistence (indexes are rebuilt, not stored), a
   reloaded store answers translated queries identically, and compaction
   of tombstoned rows keeps query results while renumbering row ids. *)

module Doc = Ppfx_xml.Doc
module Loader = Ppfx_shred.Loader
module Translate = Ppfx_translate.Translate
module Engine = Ppfx_minidb.Engine
module Database = Ppfx_minidb.Database
module Table = Ppfx_minidb.Table
module Value = Ppfx_minidb.Value
module Codec = Ppfx_minidb.Codec
module Xmark = Ppfx_workloads.Xmark
module Xparser = Ppfx_xpath.Parser

let store =
  lazy
    (Loader.shred (Xmark.schema ())
       (Doc.of_tree (Xmark.generate ~seed:7 ~items_per_region:2 ())))

let with_temp_file f =
  let path = Filename.temp_file "ppfx_codec" ".db" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let render (r : Engine.result) =
  String.concat "|" r.Engine.columns
  ^ "\n"
  ^ String.concat "\n"
      (List.map
         (fun row -> String.concat "," (Array.to_list (Array.map Value.to_string row)))
         r.Engine.rows)

let run_query db mapping query =
  let tr = Translate.create mapping in
  match Translate.translate tr (Xparser.parse query) with
  | None -> "(empty)"
  | Some stmt -> render (Engine.run db stmt)

let queries = [ "//keyword"; "//person[.//name]"; "//item[location]/name"; "//bidder" ]

let test_round_trip () =
  let st = Lazy.force store in
  with_temp_file (fun path ->
      Codec.save path st.Loader.db;
      let loaded = Codec.load path in
      Alcotest.(check int) "row total survives" (Database.total_rows st.Loader.db)
        (Database.total_rows loaded);
      List.iter
        (fun t ->
          let t' = Database.table loaded (Table.name t) in
          Alcotest.(check int)
            (Table.name t ^ " row count")
            (Table.row_count t) (Table.row_count t');
          Alcotest.(check int)
            (Table.name t ^ " column count")
            (List.length (Table.columns t))
            (List.length (Table.columns t'));
          (* Indexes are rebuilt on load: every index of the original is
             present (and usable) on the loaded table. *)
          List.iter
            (fun (cols, _) ->
              if Table.index_on t' cols = None then
                Alcotest.failf "%s: index on %s not rebuilt" (Table.name t)
                  (String.concat "," cols))
            (Table.indexes t))
        (Database.tables st.Loader.db))

let test_queries_agree () =
  let st = Lazy.force store in
  with_temp_file (fun path ->
      Codec.save path st.Loader.db;
      let loaded = Codec.load path in
      List.iter
        (fun q ->
          Alcotest.(check string) (q ^ " identical after reload")
            (run_query st.Loader.db st.Loader.mapping q)
            (run_query loaded st.Loader.mapping q))
        queries)

let test_compaction () =
  (* Deleting rows then saving compacts tombstones away: the reloaded
     table holds live_count rows (row ids are NOT stable across the
     cycle), and queries still agree between the two databases. *)
  let st = Lazy.force store in
  with_temp_file (fun path ->
      Codec.save path st.Loader.db;
      let working = Codec.load path in
      let keywords = Database.table working "keyword" in
      let victims = ref [] in
      Table.iter_rows (fun rowid _ -> if rowid mod 2 = 0 then victims := rowid :: !victims) keywords;
      List.iter (fun rowid -> ignore (Table.delete keywords rowid)) !victims;
      Alcotest.(check bool) "some rows tombstoned" true
        (Table.live_count keywords < Table.row_count keywords);
      with_temp_file (fun path2 ->
          Codec.save path2 working;
          let reloaded = Codec.load path2 in
          let keywords' = Database.table reloaded "keyword" in
          Alcotest.(check int) "tombstones compacted away"
            (Table.live_count keywords) (Table.row_count keywords');
          Alcotest.(check int) "reloaded rows all live"
            (Table.row_count keywords') (Table.live_count keywords');
          List.iter
            (fun q ->
              Alcotest.(check string) (q ^ " agrees after compaction")
                (run_query working st.Loader.mapping q)
                (run_query reloaded st.Loader.mapping q))
            queries))

(* Partitioned layout round-trips: the partition spec survives reload,
   reloaded segments satisfy the sorted-partition invariant, and the
   shredded store (partitioned by default) keeps answering queries
   through the cycle via the existing round-trip tests above. *)
let test_partitioned_round_trip () =
  let st = Lazy.force store in
  Alcotest.(check bool) "shredded store has partitioned fact tables" true
    (List.exists
       (fun t -> Table.partition_spec t <> None)
       (Database.tables st.Loader.db));
  with_temp_file (fun path ->
      Codec.save path st.Loader.db;
      let loaded = Codec.load path in
      List.iter
        (fun t ->
          let t' = Database.table loaded (Table.name t) in
          match Table.partition_spec t, Table.partition_spec t' with
          | Some s, Some s' ->
            Alcotest.(check string) "part col survives" s.Table.part_col
              s'.Table.part_col;
            Alcotest.(check string) "sort col survives" s.Table.part_sort
              s'.Table.part_sort;
            Alcotest.(check (list int))
              (Table.name t ^ " partition keys")
              (Table.partition_keys t) (Table.partition_keys t');
            (match Table.check_partitions t' with
             | Ok () -> ()
             | Error e -> Alcotest.failf "%s: %s" (Table.name t') e)
          | None, None -> ()
          | _ -> Alcotest.failf "%s: partition spec did not round-trip" (Table.name t))
        (Database.tables st.Loader.db))

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Random small tables, partitioned or not, with a sprinkle of
   tombstones (save compacts them away): save -> load -> save must be
   byte-identical, so insertion order, partition tags and segment
   contents are all deterministic through the codec. *)
let gen_codec_case =
  QCheck.Gen.(
    pair (list_size (int_bound 40) (triple (int_range (-3) 12) (int_bound 9) bool)) bool)

let build_codec_case (rows, partitioned) =
  let db = Database.create () in
  let partition =
    if partitioned then Some { Table.part_col = "path_id"; part_sort = "id" } else None
  in
  let t =
    Database.create_table ?partition db ~name:"fact"
      ~columns:
        [ { Table.name = "id"; ty = Value.Tint };
          { Table.name = "path_id"; ty = Value.Tint };
          { Table.name = "val"; ty = Value.Tint } ]
  in
  List.iteri
    (fun i (pid, v, _) ->
      ignore (Table.insert t [| Value.Int i; Value.Int pid; Value.Int v |]))
    rows;
  List.iteri (fun i (_, _, del) -> if del then ignore (Table.delete t i)) rows;
  db

let prop_partitioned_codec_identity =
  QCheck.Test.make ~count:100 ~name:"partitioned save/load/save is byte-identical"
    (QCheck.make
       ~print:(fun (rows, partitioned) ->
         Printf.sprintf "%d rows, partitioned=%b" (List.length rows) partitioned)
       gen_codec_case)
    (fun case ->
      let db = build_codec_case case in
      with_temp_file (fun p1 ->
          Codec.save p1 db;
          let loaded = Codec.load p1 in
          let t' = Database.table loaded "fact" in
          (match Table.check_partitions t' with
           | Ok () -> ()
           | Error e -> QCheck.Test.fail_reportf "reloaded invariant: %s" e);
          with_temp_file (fun p2 ->
              Codec.save p2 loaded;
              read_file p1 = read_file p2)))

let test_corrupt_rejected () =
  with_temp_file (fun path ->
      let oc = open_out_bin path in
      output_string oc "not a ppfx database";
      close_out oc;
      Alcotest.check Alcotest.bool "corrupt input rejected" true
        (match Codec.load path with
         | exception Codec.Corrupt _ -> true
         | _ -> false))

let test_load_result_typed () =
  (match Codec.load_result "/nonexistent/ppfx/db" with
   | Error (Codec.Io_error _) -> ()
   | Error (Codec.Corrupted e) -> Alcotest.failf "expected Io_error, got Corrupted %s" e
   | Ok _ -> Alcotest.fail "missing file loaded");
  (* The last input is a well-formed current image stamped with the
     previous format's magic: the version check rejects it. *)
  let image = Codec.database_to_string (build_codec_case ([ (1, 2, false) ], true)) in
  Alcotest.(check string) "current magic" "PPFXDB4" (String.sub image 0 7);
  List.iter
    (fun (what, s) ->
      match Codec.of_string_result s with
      | Error (Codec.Corrupted _) -> ()
      | Error (Codec.Io_error e) -> Alcotest.failf "%s: expected Corrupted, got Io_error %s" what e
      | Ok _ -> Alcotest.failf "%s loaded" what)
    [
      ("junk image", "PPFXDB3 but then junk");
      ("previous-format image", "PPFXDB3" ^ String.sub image 7 (String.length image - 7));
    ];
  Alcotest.(check bool) "errors render" true
    (String.length (Codec.error_to_string (Codec.Corrupted "x")) > 0)

(* Fuzz the decoder with mangled-but-plausible images: every truncation
   and every byte flip of a valid image must come back as a typed
   [Error] (or, for flips that happen to keep the image well-formed, an
   [Ok] database) — never a stray [Not_found]/[End_of_file]/[Failure] or
   a crash. *)
let image =
  lazy
    (let db = build_codec_case ([ (1, 2, false); (3, 4, false); (0, 5, true) ], true) in
     Codec.database_to_string db)

let no_stray_exn what f =
  match f () with
  | Ok (_ : Database.t) | Error (_ : Codec.error) -> true
  | exception e ->
    QCheck.Test.fail_reportf "%s leaked exception %s" what (Printexc.to_string e)

let prop_truncations_rejected =
  QCheck.Test.make ~count:200 ~name:"every truncation of a valid image is typed"
    QCheck.(int_bound 10000)
    (fun n ->
      let s = Lazy.force image in
      let cut = n mod String.length s in
      let sub = String.sub s 0 cut in
      no_stray_exn (Printf.sprintf "truncation at %d" cut) (fun () ->
          Codec.of_string_result sub)
      && (* a strict prefix can never decode as complete *)
      match Codec.of_string_result sub with
      | Ok _ -> QCheck.Test.fail_reportf "truncation at %d decoded" cut
      | Error _ -> true)

let prop_bit_flips_contained =
  QCheck.Test.make ~count:400 ~name:"every byte flip of a valid image is contained"
    QCheck.(pair (int_bound 100000) (int_range 1 255))
    (fun (pos, x) ->
      let s = Lazy.force image in
      let pos = pos mod String.length s in
      let b = Bytes.of_string s in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor x));
      no_stray_exn
        (Printf.sprintf "flip 0x%02x at %d" x pos)
        (fun () -> Codec.of_string_result (Bytes.to_string b)))

let () =
  let tc (name, f) = Alcotest.test_case name `Quick f in
  Alcotest.run "codec"
    [
      ( "round trip",
        List.map tc
          [
            "tables and indexes", test_round_trip;
            "queries agree", test_queries_agree;
            "compaction after deletes", test_compaction;
            "partitioned layout", test_partitioned_round_trip;
            "corrupt input", test_corrupt_rejected;
            "typed load errors", test_load_result_typed;
          ] );
      ( "round-trip properties",
        [ QCheck_alcotest.to_alcotest prop_partitioned_codec_identity ] );
      ( "corruption fuzz",
        List.map QCheck_alcotest.to_alcotest
          [ prop_truncations_rejected; prop_bit_flips_contained ] );
    ]
