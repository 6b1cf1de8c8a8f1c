(* Tests for the durability layer (lib/wal): CRC framing, torn-tail
   truncation, atomic manifests, record/meta serialization, checkpoint
   rotation, clean-shutdown scan skipping — and the load-bearing
   property, the crash-recovery differential: a workload run under
   deterministic fault injection, crashed at EVERY durable op (plain
   drops, short writes, bit flips), must recover to exactly the
   persisted prefix of acked commits — byte-identical query results, no
   label rewrites, partition invariants intact — on a single store and
   across a 4-shard cluster. *)

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
module Crc32 = Ppfx_wal.Crc32
module Io = Ppfx_wal.Io
module Log = Ppfx_wal.Log
module Manifest = Ppfx_wal.Manifest
module Record = Ppfx_wal.Record
module Wstore = Ppfx_wal.Store

(* ------------------------------------------------------------------ *)
(* Scratch directories                                                 *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ppfx-wal-test-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  rm_rf d;
  d

let with_dir f =
  let d = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Unit: CRC-32                                                        *)
(* ------------------------------------------------------------------ *)

let test_crc32_vectors () =
  Alcotest.(check int) "empty string" 0 (Crc32.digest "");
  (* the IEEE 802.3 check value *)
  Alcotest.(check int) "123456789" 0xCBF43926 (Crc32.digest "123456789");
  Alcotest.(check int) "single byte" 0xE8B7BE43 (Crc32.digest "a");
  let s = "the quick brown fox jumps over the lazy dog" in
  let split = 17 in
  let c = Crc32.update 0 s 0 split in
  let c = Crc32.update c s split (String.length s - split) in
  Alcotest.(check int) "incremental update equals one-shot digest"
    (Crc32.digest s) c

(* ------------------------------------------------------------------ *)
(* Unit: segment framing and tail truncation                           *)
(* ------------------------------------------------------------------ *)

let segment payloads = Log.magic ^ String.concat "" (List.map Log.frame payloads)

let test_log_scan () =
  let payloads = [ "a"; "bb"; "ccc and a longer one" ] in
  let s = segment payloads in
  let scan = Log.scan_string s in
  Alcotest.(check (list string)) "all payloads recovered in order" payloads
    (List.map fst scan.Log.frames);
  Alcotest.(check int) "valid to the end" (String.length s) scan.Log.valid_end;
  Alcotest.(check int) "file length reported" (String.length s) scan.Log.file_len

let test_log_torn_tail () =
  let s = segment [ "first"; "second" ] in
  (* tear the last frame: drop its final 3 bytes *)
  let torn = String.sub s 0 (String.length s - 3) in
  let scan = Log.scan_string torn in
  Alcotest.(check (list string)) "only the whole frame survives" [ "first" ]
    (List.map fst scan.Log.frames);
  Alcotest.(check bool) "a nonempty tail is reported" true
    (scan.Log.file_len - scan.Log.valid_end > 0)

let test_log_bit_flip () =
  let s = segment [ "first"; "second"; "third" ] in
  (* flip one bit inside the middle frame's payload *)
  let b = Bytes.of_string s in
  let pos = String.length (segment [ "first" ]) + 8 + 1 in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x10));
  let scan = Log.scan_string (Bytes.to_string b) in
  Alcotest.(check (list string)) "scan stops at the corrupt frame" [ "first" ]
    (List.map fst scan.Log.frames)

let test_log_bad_magic () =
  let scan = Log.scan_string ("XXXXXXXX" ^ Log.frame "payload") in
  Alcotest.(check int) "no frames behind a bad magic" 0
    (List.length scan.Log.frames);
  let empty = Log.scan_string "" in
  Alcotest.(check int) "empty file has no frames" 0 (List.length empty.Log.frames)

(* ------------------------------------------------------------------ *)
(* Unit: the manifest is atomic at every crash point                   *)
(* ------------------------------------------------------------------ *)

let test_manifest_round_trip () =
  with_dir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let m = { Manifest.gen = 3; base_seq = 17; clean = false } in
  Manifest.write Io.live ~dir m;
  (match Manifest.read ~dir with
   | Ok m' ->
     Alcotest.(check int) "gen" m.Manifest.gen m'.Manifest.gen;
     Alcotest.(check int) "base_seq" m.Manifest.base_seq m'.Manifest.base_seq;
     Alcotest.(check bool) "clean" false m'.Manifest.clean
   | Error e -> Alcotest.failf "read back: %s" e);
  Manifest.write Io.live ~dir { m with Manifest.clean = true };
  match Manifest.read ~dir with
  | Ok m' -> Alcotest.(check bool) "clean marker round-trips" true m'.Manifest.clean
  | Error e -> Alcotest.failf "read back: %s" e

let test_manifest_atomic_replace () =
  with_dir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let old_m = { Manifest.gen = 1; base_seq = 4; clean = false } in
  let new_m = { Manifest.gen = 2; base_seq = 9; clean = false } in
  (* [atomic_write] is tmp-write, fsync, rename, dir-fsync: a crash on
     any op before the rename leaves the old manifest; once the rename
     completed, the new one. *)
  for k = 0 to 3 do
    let io = Io.create () in
    Manifest.write io ~dir old_m;
    let base = Io.ops io in
    Io.arm io ~crash_at:(base + k) ();
    (match Manifest.write io ~dir new_m with
     | () -> Alcotest.failf "crash point %d did not fire" k
     | exception Io.Crashed _ -> ());
    match Manifest.read ~dir with
    | Error e -> Alcotest.failf "crash point %d left no readable manifest: %s" k e
    | Ok m ->
      let expect = if k <= 2 then old_m.Manifest.gen else new_m.Manifest.gen in
      Alcotest.(check int)
        (Printf.sprintf "crash point %d: old or new, never torn" k)
        expect m.Manifest.gen
  done

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
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
  Update.create schema [ tree ]

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

let frag = Xmlparser.parse
let run_q u q = Session.run_ids (Session.create (Update.store u)) q

(* Append-before-apply: the discipline production code follows. *)
let logged_exec u w op =
  let cs = Update.stage u op in
  ignore (Wstore.append w ~op cs : int);
  Update.commit (Update.db u) cs;
  Update.outcome_of cs

let small_op_insert u =
  Update.Insert_subtree
    { parent = the_one u "people"; before = None;
      fragment = frag {|<person id="p9"><name>wal</name></person>|} }

let small_op_text u =
  Update.Set_text { target = the_one u "city"; text = "reykjavik" }

(* ------------------------------------------------------------------ *)
(* Unit: record and checkpoint-sidecar serialization                   *)
(* ------------------------------------------------------------------ *)

let test_record_round_trip () =
  let u = small () in
  let op = small_op_insert u in
  let cs = Update.stage u op in
  let r =
    { Record.r_seq = 5; r_op = Some op; r_inserts = true; r_cs = cs;
      r_extras = Some { Record.partition_counts = [ 3; 0; 4 ];
                        boundary_fks = [ "parent_person" ] } }
  in
  let s = Record.encode r in
  let d = Record.decode s in
  Alcotest.(check string) "decode is a re-encoding fixed point" s (Record.encode d);
  Alcotest.(check int) "seq" 5 d.Record.r_seq;
  Alcotest.(check bool) "inserts flag" true d.Record.r_inserts;
  (match d.Record.r_extras with
   | Some e ->
     Alcotest.(check (list int)) "partition counts" [ 3; 0; 4 ] e.Record.partition_counts;
     Alcotest.(check (list string)) "boundary fks" [ "parent_person" ] e.Record.boundary_fks
   | None -> Alcotest.fail "extras lost");
  Alcotest.(check bool) "op survives" true (d.Record.r_op <> None);
  (* truncated payloads are typed corruption, not stray exceptions *)
  match Record.decode (String.sub s 0 (String.length s / 2)) with
  | _ -> Alcotest.fail "truncated record must be rejected"
  | exception Record.Corrupt _ -> ()

let test_meta_round_trip () =
  let u = small () in
  let meta = Server.store_meta u in
  let s = Record.encode_meta meta in
  let d = Record.decode_meta s in
  Alcotest.(check string) "decode is a re-encoding fixed point" s
    (Record.encode_meta d);
  Alcotest.(check bool) "shadow present" true (d.Record.m_shadow <> None);
  match Record.decode_meta (String.sub s 0 (String.length s - 7)) with
  | _ -> Alcotest.fail "truncated meta must be rejected"
  | exception Record.Corrupt _ -> ()

(* Golden bytes: a fixed WAL record, checkpoint sidecar and PPFXDB5
   database image, each pinned to the bytes the encoders have always
   emitted, so neither on-disk format drifts unnoticed. The database
   covers every value tag, a partition spec, an index, a key and a
   compacted tombstone. *)
let golden_store () =
  let tree =
    Xmlparser.parse {|<site><people><person id="p1"><name>ann</name></person></people></site>|}
  in
  Update.create (Graph.infer (Doc.of_tree tree)) [ tree ]

let golden_database () =
  let db = Database.create () in
  let t =
    Database.create_table db ~name:"vals"
      ~partition:{ Table.part_col = "k"; part_sort = "id" }
      ~columns:
        [ { Table.name = "id"; ty = Value.Tint }; { Table.name = "k"; ty = Value.Tint };
          { Table.name = "f"; ty = Value.Tfloat }; { Table.name = "s"; ty = Value.Tstr };
          { Table.name = "b"; ty = Value.Tbin } ]
  in
  List.iter
    (fun row -> ignore (Table.insert t row))
    Value.
      [
        [| Int 0; Int (-3); Float 1.5; Str "x"; Bin "\000\255" |];
        [| Int 300; Int 7; Null; Str ""; Null |];
        [| Int 2; Int 7; Float (-0.25); Null; Bin "" |];
      ];
  ignore (Table.delete t 2);
  Table.create_index t [ "s" ];
  Table.create_key t "id";
  db

let hex s =
  String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let test_golden_bytes () =
  let u = golden_store () in
  let op =
    Update.Insert_subtree
      { parent = the_one u "people"; before = None;
        fragment = frag {|<person id="p9"><name>wal</name></person>|} }
  in
  let record =
    { Record.r_seq = 5; r_op = Some op; r_inserts = true; r_cs = Update.stage u op;
      r_extras = Some { Record.partition_counts = [ 3; 0; 4 ];
                        boundary_fks = [ "parent_person" ] } }
  in
  Alcotest.(check string) "WAL record"
    ("0a01000400010c706572736f6e020469640470390201086e616d650002000677616c010a" ^
     "010873697465021001020102040c4000014000010102030c616e6e77616c030001020102" ^
     "010c70656f706c6504100104010204124000014000014000010104030c616e6e77616c03" ^
     "0001020102010c706572736f6e0612010601040418400001400001400001400001010603" ^
     "06616e6e03000102010403047031000c706572736f6e12010a0104041840000140000140" ^
     "00014000030106030677616c0300010401040304703900086e616d6510010c010a041e40" ^
     "00014000014000014000034000010108030677616c030677616c01020102000008020806" ^
     "040104010600010c706572736f6e1270656f706c655f69640106060008021a706172656e" ^
     "745f706572736f6e")
    (hex (Record.encode record));
  Alcotest.(check string) "checkpoint sidecar"
    ("08087369746500000c70656f706c6500000c706572736f6e0204696400086e616d650001" ^
     "060002020404060001020108736974650002010c70656f706c650002010c706572736f6e" ^
     "020469640470310201086e616d6500020006616e6e0a0a00")
    (hex (Record.encode_meta (Server.store_meta (golden_store ()))));
  Alcotest.(check string) "database image"
    ("50504658444235020876616c730a04696400026b0002660102730202620301026b046964" ^
     "040100010502000000000000f83f030278040400ff01d804010e00030000040202730204" ^
     "696402046964")
    (hex (Codec.database_to_string (golden_database ())))

(* A version-1 sidecar carried a layout flag right after the schema; its
   payload would misdecode under the current layout, so the magic check
   must reject it before decoding. *)
let test_meta_old_magic_rejected () =
  with_dir @@ fun dir ->
  let u = small () in
  let meta = Server.store_meta u in
  let w = Wstore.init ~durability:Wstore.Fsync ~dir ~db:(Update.db u) ~meta () in
  Wstore.close w;
  (* The schema's encoded length: two absent options take one byte each. *)
  let schema_len =
    String.length (Record.encode_meta { meta with m_shadow = None; m_extras = None }) - 2
  in
  let payload = Record.encode_meta meta in
  let v1_payload =
    String.sub payload 0 schema_len ^ "\001"
    ^ String.sub payload schema_len (String.length payload - schema_len)
  in
  let sidecar = Filename.concat dir "checkpoint-0.meta" in
  Alcotest.(check bool) "sidecar exists" true (Sys.file_exists sidecar);
  Out_channel.with_open_bin sidecar (fun oc ->
      output_string oc ("PPFXMET1" ^ Log.frame v1_payload));
  match Wstore.recover ~dir () with
  | Ok _ -> Alcotest.fail "a version-1 sidecar must not be decoded"
  | Error e -> Alcotest.(check string) "bad magic" "checkpoint meta: bad magic" e

(* The same store's sidecar payload as version 2 wrote it: a per-node
   image (id, doc, tag, label, path id, attributes, items) in place of
   the trees. Its magic must reject it before decoding. *)
let v2_golden_payload =
  "08087369746500000c70656f706c6500000c706572736f6e0204696400086e616d650001" ^
  "06000202040406000102020208736974650c4000014000010200020104020c70656f706c" ^
  "65124000014000014000010400020106020c706572736f6e184000014000014000014000" ^
  "01060204696404703102010802086e616d651e4000014000014000014000014000010800" ^
  "020006616e6e0a0a00"

let unhex h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let test_meta_v2_magic_rejected () =
  with_dir @@ fun dir ->
  let u = golden_store () in
  let w =
    Wstore.init ~durability:Wstore.Fsync ~dir ~db:(Update.db u) ~meta:(Server.store_meta u) ()
  in
  Wstore.close w;
  Out_channel.with_open_bin (Filename.concat dir "checkpoint-0.meta") (fun oc ->
      output_string oc ("PPFXMET2" ^ Log.frame (unhex v2_golden_payload)));
  match Wstore.recover ~dir () with
  | Ok _ -> Alcotest.fail "a version-2 sidecar must not be decoded"
  | Error e -> Alcotest.(check string) "bad magic" "checkpoint meta: bad magic" e

(* A recovered store accepts the bulk loads the live one does. After a
   delete the sidecar's trees hold fewer elements than ids were
   allocated; the recovered loader must still number past all of them.
   Deleting the only address also kills two paths, whose Paths rows the
   snapshot drops: the load's new paths must not reuse a live path id.
   A caret insert allocates ids past the loaded documents' too. *)
let test_recovered_store_bulk_loads () =
  let u = small () in
  let p2 = List.hd (run_q u "//person[@id='p2']") in
  ignore (Update.exec u (Update.Delete_subtree { target = p2 }));
  ignore (Update.exec u (Update.Delete_subtree { target = the_one u "address" }));
  ignore (Update.exec u (small_op_insert u));
  let meta = Record.decode_meta (Record.encode_meta (Server.store_meta u)) in
  let db = Codec.database_of_string (Codec.database_to_string (Update.db u)) in
  let u' =
    match Wstore.rebuild_full ~db ~meta [] with
    | Ok u' -> u'
    | Error e -> Alcotest.failf "rebuild: %s" e
  in
  let allocated = (Update.shadow u).Update.sh_next_id in
  let before = List.sort compare (Hashtbl.fold (fun id _ l -> id :: l) (Update.ranks u') []) in
  let doc2 =
    frag
      {|<site>
  <people><person id="q1"><name>dan</name><address><city>rome</city></address></person></people>
  <items><item id="i9"><name>tin cup</name></item></items>
</site>|}
  in
  ignore (Update.load u doc2);
  (try ignore (Update.load u' doc2)
   with Update.Update_error e -> Alcotest.failf "the recovered store refused the load: %s" e);
  Hashtbl.iter
    (fun id _ ->
      if (not (List.mem id before)) && id < allocated then
        Alcotest.failf "the load reused allocated id %d (next id was %d)" id allocated)
    (Update.ranks u');
  List.iter
    (fun q -> Alcotest.(check (list int)) q (run_q u q) (run_q u' q))
    [ "//person"; "//person/name"; "//item[@id='i9']/name"; "//person/address/city"; "//*" ]

(* ------------------------------------------------------------------ *)
(* Unit: store lifecycle                                               *)
(* ------------------------------------------------------------------ *)

let test_store_init_append_recover () =
  with_dir @@ fun dir ->
  let u = small () in
  let w =
    Wstore.init ~durability:Wstore.Fsync ~dir ~db:(Update.db u)
      ~meta:(Server.store_meta u) ()
  in
  Alcotest.(check bool) "exists after init" true (Wstore.exists ~dir);
  ignore (logged_exec u w (small_op_insert u));
  ignore (logged_exec u w (small_op_text u));
  Alcotest.(check int) "two records appended" 3 (Wstore.next_seq w);
  Wstore.close w;
  match Wstore.recover ~dir () with
  | Error e -> Alcotest.failf "recover: %s" e
  | Ok r ->
    Alcotest.(check int) "replayed both records" 2 r.Wstore.recovery.Wstore.replayed;
    Alcotest.(check int) "no torn tail" 0 r.Wstore.recovery.Wstore.truncated_bytes;
    Alcotest.(check bool) "not a clean start" false r.Wstore.recovery.Wstore.clean;
    (match Wstore.rebuild_full ~db:r.Wstore.db ~meta:r.Wstore.meta r.Wstore.records with
     | Error e -> Alcotest.failf "rebuild: %s" e
     | Ok u' ->
       Alcotest.(check (list int)) "recovered store answers like the live one"
         (run_q u "//person") (run_q u' "//person");
       Alcotest.(check (list int)) "replayed text visible"
         (run_q u {|//person[address/city='reykjavik']|})
         (run_q u' {|//person[address/city='reykjavik']|}));
    Alcotest.(check int) "sequence numbering resumes" 3 (Wstore.next_seq r.Wstore.store);
    Wstore.close r.Wstore.store

let test_clean_shutdown_skips_scan () =
  with_dir @@ fun dir ->
  let u = small () in
  let w =
    Wstore.init ~durability:Wstore.Fsync ~dir ~db:(Update.db u)
      ~meta:(Server.store_meta u) ()
  in
  ignore (logged_exec u w (small_op_insert u));
  ignore (logged_exec u w (small_op_text u));
  Wstore.close_clean w ~db:(Update.db u) ~meta:(Server.store_meta u);
  (match Wstore.recover ~dir () with
   | Error e -> Alcotest.failf "recover after clean close: %s" e
   | Ok r ->
     Alcotest.(check bool) "clean marker honored" true r.Wstore.recovery.Wstore.clean;
     Alcotest.(check int) "nothing to replay" 0 r.Wstore.recovery.Wstore.replayed;
     Alcotest.(check int) "no records" 0 (List.length r.Wstore.records);
     (match Wstore.rebuild_full ~db:r.Wstore.db ~meta:r.Wstore.meta r.Wstore.records with
      | Error e -> Alcotest.failf "rebuild: %s" e
      | Ok u' ->
        Alcotest.(check (list int)) "final checkpoint captured everything"
          (run_q u "//person") (run_q u' "//person");
        (* the reopened store accepts appends and the clean marker is
           gone: the NEXT recovery scans again *)
        ignore (logged_exec u' r.Wstore.store
                  (Update.Set_text { target = the_one u' "city"; text = "lima" }));
        Wstore.close r.Wstore.store));
  match Wstore.recover ~dir () with
  | Error e -> Alcotest.failf "second recover: %s" e
  | Ok r2 ->
    Alcotest.(check bool) "no longer clean after appends" false
      r2.Wstore.recovery.Wstore.clean;
    Alcotest.(check int) "the post-clean append replays" 1
      r2.Wstore.recovery.Wstore.replayed;
    Wstore.close r2.Wstore.store

let test_torn_tail_recovery () =
  with_dir @@ fun dir ->
  let u = small () in
  let w =
    Wstore.init ~durability:Wstore.Fsync ~dir ~db:(Update.db u)
      ~meta:(Server.store_meta u) ()
  in
  ignore (logged_exec u w (small_op_insert u));
  ignore (logged_exec u w (small_op_text u));
  Wstore.close w;
  let gen =
    match Manifest.read ~dir with
    | Ok m -> m.Manifest.gen
    | Error e -> Alcotest.failf "manifest: %s" e
  in
  let seg = Filename.concat dir (Printf.sprintf "wal-%d.log" gen) in
  let bytes = read_file seg in
  (* tear the second record's frame mid-payload *)
  write_file seg (String.sub bytes 0 (String.length bytes - 4));
  (match Wstore.recover ~dir () with
   | Error e -> Alcotest.failf "recover from torn tail: %s" e
   | Ok r ->
     Alcotest.(check int) "only the whole record replays" 1
       r.Wstore.recovery.Wstore.replayed;
     Alcotest.(check bool) "truncation reported" true
       (r.Wstore.recovery.Wstore.truncated_bytes > 0);
     Alcotest.(check int) "torn record's seq is reusable" 2
       (Wstore.next_seq r.Wstore.store);
     Wstore.close r.Wstore.store);
  (* garbage appended past the valid tail is cut the same way *)
  let bytes = read_file seg in
  write_file seg (bytes ^ "\x99\x99garbage tail");
  match Wstore.recover ~dir () with
  | Error e -> Alcotest.failf "recover from garbage tail: %s" e
  | Ok r ->
    Alcotest.(check bool) "garbage reported as truncation" true
      (r.Wstore.recovery.Wstore.truncated_bytes > 0);
    Wstore.close r.Wstore.store

let test_checkpoint_rotation () =
  with_dir @@ fun dir ->
  let u = small () in
  let w =
    Wstore.init ~durability:Wstore.Fsync ~checkpoint_records:2 ~dir
      ~db:(Update.db u) ~meta:(Server.store_meta u) ()
  in
  ignore (logged_exec u w (small_op_text u));
  Alcotest.(check bool) "one record does not earn a rotation" false
    (Wstore.should_checkpoint w);
  ignore (logged_exec u w (small_op_insert u));
  Alcotest.(check bool) "two records do" true (Wstore.should_checkpoint w);
  Wstore.checkpoint w ~db:(Update.db u) ~meta:(Server.store_meta u);
  (match Manifest.read ~dir with
   | Ok m ->
     Alcotest.(check int) "generation advanced" 1 m.Manifest.gen;
     Alcotest.(check int) "checkpoint covers both commits" 2 m.Manifest.base_seq
   | Error e -> Alcotest.failf "manifest: %s" e);
  Alcotest.(check bool) "superseded snapshot dropped" false
    (Sys.file_exists (Filename.concat dir "checkpoint-0.db"));
  Alcotest.(check bool) "superseded segment dropped" false
    (Sys.file_exists (Filename.concat dir "wal-0.log"));
  ignore
    (logged_exec u w
       (Update.Set_text { target = the_one u "city"; text = "after-rotation" }));
  Wstore.close w;
  match Wstore.recover ~dir () with
  | Error e -> Alcotest.failf "recover: %s" e
  | Ok r ->
    Alcotest.(check int) "only the post-rotation record replays" 1
      r.Wstore.recovery.Wstore.replayed;
    (match Wstore.rebuild_full ~db:r.Wstore.db ~meta:r.Wstore.meta r.Wstore.records with
     | Error e -> Alcotest.failf "rebuild: %s" e
     | Ok u' ->
       Alcotest.(check (list int)) "state identical through the rotation"
         (run_q u {|//person[address/city='after-rotation']|})
         (run_q u' {|//person[address/city='after-rotation']|}));
    Wstore.close r.Wstore.store

(* Counts made before a sink attaches — the appends, their fsyncs and a
   checkpoint — reach it exactly once when it attaches; later counts go
   to it live, never twice. Writing generation 0 at init is not counted
   as a checkpoint, and its file syncs are not log fsyncs. *)
let test_recovery_metrics () =
  with_dir @@ fun dir ->
  let u = small () in
  let w =
    Wstore.init ~durability:Wstore.Fsync ~dir ~db:(Update.db u)
      ~meta:(Server.store_meta u) ()
  in
  ignore (logged_exec u w (small_op_insert u));
  Wstore.checkpoint w ~db:(Update.db u) ~meta:(Server.store_meta u);
  ignore (logged_exec u w (small_op_text u));
  let m = Metrics.create () in
  Wstore.set_metrics w m;
  let get = Metrics.get m in
  Alcotest.(check int) "appends before attach" 2 (get Metrics.Wal_appends);
  (* An atomic write fsyncs the file and its directory. Generation 0 and
     the checkpoint each write the image, the sidecar, a fresh segment
     and the manifest (8 fsyncs each); each append fsyncs once. *)
  Alcotest.(check int) "their fsyncs, with init's and the checkpoint's" 18
    (get Metrics.Wal_fsyncs);
  Alcotest.(check int) "the checkpoint before attach" 1 (get Metrics.Checkpoints);
  let bytes = get Metrics.Wal_bytes in
  Alcotest.(check bool) "append bytes counted" true (bytes > 0);
  ignore
    (logged_exec u w (Update.Set_text { target = the_one u "city"; text = "bergen" }));
  Alcotest.(check int) "a later append counted once" 3 (get Metrics.Wal_appends);
  Alcotest.(check int) "its fsync counted once" 19 (get Metrics.Wal_fsyncs);
  Alcotest.(check bool) "its bytes added" true (get Metrics.Wal_bytes > bytes);
  Alcotest.(check int) "no checkpoint recounted" 1 (get Metrics.Checkpoints);
  Wstore.close_clean w ~db:(Update.db u) ~meta:(Server.store_meta u);
  Alcotest.(check int) "clean shutdown counted" 1 (get Metrics.Clean_shutdowns);
  Alcotest.(check int) "final checkpoint counted" 2 (get Metrics.Checkpoints);
  Alcotest.(check int) "its fsyncs and the clean manifest's" 29 (get Metrics.Wal_fsyncs);
  let again = Metrics.create () in
  Wstore.set_metrics w again;
  Alcotest.(check int) "a second sink is not sent the counts again" 0
    (Metrics.get again Metrics.Wal_appends);
  match Wstore.recover ~dir () with
  | Error e -> Alcotest.failf "recover: %s" e
  | Ok r ->
    (* counters observed before the sink attaches are pushed at once *)
    let m2 = Metrics.create () in
    Wstore.set_metrics r.Wstore.store m2;
    Alcotest.(check int) "clean start counted" 1 (Metrics.get m2 Metrics.Clean_starts);
    Alcotest.(check int) "not counted as a replay recovery" 0
      (Metrics.get m2 Metrics.Recoveries);
    Alcotest.(check int) "the old store's appends stay with their sink" 0
      (Metrics.get m2 Metrics.Wal_appends);
    Wstore.close r.Wstore.store

let test_durability_of_string () =
  let check s expect =
    match Wstore.durability_of_string s, expect with
    | Ok a, Some b ->
      Alcotest.(check string) s
        (Wstore.durability_to_string b) (Wstore.durability_to_string a)
    | Error _, None -> ()
    | Ok a, None ->
      Alcotest.failf "%s: expected rejection, got %s" s (Wstore.durability_to_string a)
    | Error e, Some _ -> Alcotest.failf "%s: unexpected rejection: %s" s e
  in
  check "off" (Some Wstore.Off);
  check "fsync" (Some Wstore.Fsync);
  check "batch" (Some (Wstore.Batch 32));
  check "batch:8" (Some (Wstore.Batch 8));
  check "batch:0" None;
  check "bogus" None

(* ------------------------------------------------------------------ *)
(* The crash-recovery differential                                     *)
(* ------------------------------------------------------------------ *)

(* The mutation-step machinery, as in test_update: interpret integer
   triples against the current store state so the same step list replays
   identically on any store that went through the same prefix. *)

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
  | 2 -> try_exec (Update.Delete_subtree { target = nth ids b })
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
    let items = List.filter (fun id -> Update.node_tag u id = "item") ids in
    (match items with
     | [] -> ()
     | its ->
       try_exec
         (Update.Set_attribute
            { target = nth its b; name = "id";
              value = if c mod 3 = 0 then None else Some (Printf.sprintf "wal-x%d" c) }))

let steps_arb lo hi =
  QCheck.make
    ~print:(fun steps ->
      String.concat ";"
        (List.map (fun (a, b, c) -> Printf.sprintf "%d,%d,%d" a b c) steps))
    QCheck.Gen.(
      list_size (int_range lo hi)
        (triple (int_bound 10000) (int_bound 10000) (int_bound 10000)))

let check_store_partitions label (st : Loader.t) =
  List.iter
    (fun t ->
      match Table.partition_spec t with
      | None -> ()
      | Some _ -> (
        match Table.check_partitions t with
        | Ok () -> ()
        | Error e ->
          QCheck.Test.fail_reportf "%s: %s violates partition invariant: %s" label
            (Table.name t) e))
    (Database.tables st.Loader.db)

(* One fault per crash point, cycling through the three kinds so the
   sweep exercises clean drops, torn frames and flipped bits. *)
let fault_for k =
  match k mod 3 with
  | 1 -> Some (Io.Short_write (k mod 7))
  | 2 -> Some (Io.Flip_bit k)
  | _ -> None

(* --- single store ------------------------------------------------- *)

let xsingle =
  lazy
    (let tree = Xmark.generate ~seed:5 ~items_per_region:1 () in
     let schema = Graph.infer (Doc.of_tree tree) in
     (tree, schema, fragment_pool tree))

(* Run the workload durably; [arm = Some (k, fault)] injects the crash
   after init. Returns the store handle (for [dispose]), the op count
   right after init, the number of acked commits, and whether the
   injected crash fired. *)
let run_durable ~io ~arm ~dir steps =
  let tree, schema, pool = Lazy.force xsingle in
  let u = Update.create schema [ tree ] in
  let w =
    Wstore.init ~io ~durability:Wstore.Fsync ~checkpoint_records:3 ~dir
      ~db:(Update.db u) ~meta:(Server.store_meta u) ()
  in
  let ops0 = Io.ops io in
  (match arm with
   | Some (k, fault) -> Io.arm io ?fault ~crash_at:k ()
   | None -> ());
  let acked = ref 0 in
  let crashed =
    try
      List.iter
        (apply_step ~pool ~u ~exec:(fun op ->
             let cs = Update.stage u op in
             ignore (Wstore.append w ~op cs : int);
             Update.commit (Update.db u) cs;
             incr acked;
             if Wstore.should_checkpoint w then
               Wstore.checkpoint w ~db:(Update.db u) ~meta:(Server.store_meta u);
             Update.outcome_of cs))
        steps;
      false
    with Io.Crashed _ -> true
  in
  (w, ops0, !acked, crashed)

(* A never-crashed reference holding exactly the first [m] commits. *)
let reference_prefix steps m =
  let _, schema, pool = Lazy.force xsingle in
  let tree, _, _ = Lazy.force xsingle in
  let u = Update.create schema [ tree ] in
  let applied = ref 0 in
  (try
     List.iter
       (apply_step ~pool ~u ~exec:(fun op ->
            if !applied >= m then raise Stdlib.Exit;
            let o = Update.exec u op in
            incr applied;
            o))
       steps
   with Stdlib.Exit -> ());
  (u, !applied)

let check_single_recovery ~dir ~acked steps =
  match Wstore.recover ~dir () with
  | Error e -> QCheck.Test.fail_reportf "recover: %s" e
  | Ok r ->
    let m = Wstore.next_seq r.Wstore.store - 1 in
    if m < acked then
      QCheck.Test.fail_reportf "lost acked commits: %d persisted < %d acked" m acked;
    let u' =
      match Wstore.rebuild_full ~db:r.Wstore.db ~meta:r.Wstore.meta r.Wstore.records with
      | Ok u -> u
      | Error e -> QCheck.Test.fail_reportf "rebuild_full: %s" e
    in
    Wstore.close r.Wstore.store;
    let u_ref, applied = reference_prefix steps m in
    if applied <> m then
      QCheck.Test.fail_reportf "reference applied %d of %d persisted commits" applied m;
    (* recovered stores keep original ids and labels: compare raw, no
       rank normalization *)
    let ids' = live_ids u' and ids_ref = live_ids u_ref in
    if ids' <> ids_ref then
      QCheck.Test.fail_reportf "live id sets differ: %d vs %d" (List.length ids')
        (List.length ids_ref);
    List.iter
      (fun id ->
        if not (String.equal (Update.node_label u' id) (Update.node_label u_ref id))
        then QCheck.Test.fail_reportf "label of %d rewritten by recovery" id)
      ids_ref;
    check_store_partitions "recovered store" (Update.store u');
    let s' = Session.create (Update.store u') in
    let s_ref = Session.create (Update.store u_ref) in
    List.iter
      (fun (name, q) ->
        if Session.run_ids s' q <> Session.run_ids s_ref q then
          QCheck.Test.fail_reportf "%s: recovered result differs from the acked prefix"
            name)
      Xmark.queries

let prop_crash_recovery_single =
  QCheck.Test.make ~count:2
    ~name:"recovery ≡ acked prefix at every crash point (single store)"
    (steps_arb 4 6)
    (fun steps ->
      with_dir @@ fun dir ->
      (* counting pass: no crash, learn the op budget *)
      let io0 = Io.create () in
      let w0, ops0, _, crashed = run_durable ~io:io0 ~arm:None ~dir steps in
      if crashed then QCheck.Test.fail_report "disarmed run crashed";
      Wstore.close w0;
      let total = Io.ops io0 in
      if total <= ops0 then QCheck.Test.fail_report "workload performed no durable ops";
      for k = ops0 to total - 1 do
        rm_rf dir;
        let io = Io.create () in
        let w, _, acked, crashed =
          run_durable ~io ~arm:(Some (k, fault_for k)) ~dir steps
        in
        if not crashed then QCheck.Test.fail_reportf "crash point %d did not fire" k;
        Wstore.dispose w;
        Io.disarm io;
        check_single_recovery ~dir ~acked steps
      done;
      true)

(* --- 4-shard cluster ---------------------------------------------- *)

let xcluster =
  lazy
    (let tree = Xmark.generate ~seed:7 ~items_per_region:1 () in
     let schema = Graph.infer (Doc.of_tree tree) in
     (tree, schema, fragment_pool tree))

let run_cluster_durable ~io ~arm ~data_dir steps =
  let tree, schema, pool = Lazy.force xcluster in
  let c = Cluster.create ~pool_size:0 ~shards:4 schema [ tree ] in
  (* rotation crash points are swept on the single store; a high record
     threshold keeps this sweep focused on the fan-out append path *)
  Cluster.make_durable ~io ~durability:Wstore.Fsync ~checkpoint_records:1000
    ~data_dir c;
  let ops0 = Io.ops io in
  (match arm with
   | Some (k, fault) -> Io.arm io ?fault ~crash_at:k ()
   | None -> ());
  let u = Cluster.full_update c in
  let acked = ref 0 in
  let crashed =
    try
      List.iter
        (apply_step ~pool ~u ~exec:(fun op ->
             let o = Cluster.update c op in
             incr acked;
             o))
        steps;
      false
    with Io.Crashed _ -> true
  in
  (c, ops0, !acked, crashed)

let check_cluster_recovery ~data_dir ~acked steps =
  match Cluster.open_durable ~pool_size:0 ~data_dir () with
  | Error e -> QCheck.Test.fail_reportf "open_durable: %s" e
  | Ok c' ->
    Fun.protect
      ~finally:(fun () ->
        Cluster.dispose_wal c';
        Cluster.close c')
      (fun () ->
        let m =
          match Cluster.wal_next_seq c' with
          | Some n -> n - 1
          | None -> QCheck.Test.fail_report "recovered cluster is not durable"
        in
        if m < acked then
          QCheck.Test.fail_reportf "lost acked commits: %d persisted < %d acked" m
            acked;
        let tree, schema, pool = Lazy.force xcluster in
        Cluster.with_cluster ~pool_size:0 ~shards:4 schema [ tree ] (fun cref ->
            let uref = Cluster.full_update cref in
            let applied = ref 0 in
            (try
               List.iter
                 (apply_step ~pool ~u:uref ~exec:(fun op ->
                      if !applied >= m then raise Stdlib.Exit;
                      let o = Cluster.update cref op in
                      incr applied;
                      o))
                 steps
             with Stdlib.Exit -> ());
            if !applied <> m then
              QCheck.Test.fail_reportf "reference applied %d of %d persisted commits"
                !applied m;
            Array.iteri
              (fun i st ->
                check_store_partitions (Printf.sprintf "recovered shard %d" i) st)
              (Cluster.shard_stores c');
            if
              Array.to_list (Cluster.partition_counts c')
              <> Array.to_list (Cluster.partition_counts cref)
            then
              QCheck.Test.fail_report
                "recovered partition counts differ from the reference";
            List.iter
              (fun (name, q) ->
                if Cluster.run_ids c' q <> Cluster.run_ids cref q then
                  QCheck.Test.fail_reportf
                    "%s: recovered scatter-gather differs from the acked prefix" name)
              Xmark.queries))

let prop_crash_recovery_cluster =
  QCheck.Test.make ~count:1
    ~name:"recovery ≡ acked prefix at every crash point (4-shard cluster)"
    (steps_arb 3 4)
    (fun steps ->
      with_dir @@ fun data_dir ->
      let io0 = Io.create () in
      let c0, ops0, _, crashed = run_cluster_durable ~io:io0 ~arm:None ~data_dir steps in
      if crashed then QCheck.Test.fail_report "disarmed run crashed";
      Cluster.dispose_wal c0;
      Cluster.close c0;
      let total = Io.ops io0 in
      if total <= ops0 then QCheck.Test.fail_report "workload performed no durable ops";
      for k = ops0 to total - 1 do
        rm_rf data_dir;
        let io = Io.create () in
        let c, _, acked, crashed =
          run_cluster_durable ~io ~arm:(Some (k, fault_for k)) ~data_dir steps
        in
        if not crashed then QCheck.Test.fail_reportf "crash point %d did not fire" k;
        Cluster.dispose_wal c;
        Cluster.close c;
        Io.disarm io;
        check_cluster_recovery ~data_dir ~acked steps
      done;
      true)

(* Cold start: a cleanly closed durable cluster reopens from disk and
   answers the workload queries identically to a fresh re-shred of the
   mutated documents. *)
let test_cluster_cold_start () =
  with_dir @@ fun data_dir ->
  let tree, schema, pool = Lazy.force xcluster in
  let steps = [ (0, 3, 1); (4, 2, 9); (2, 5, 0); (1, 7, 3) ] in
  let c = Cluster.create ~pool_size:0 ~shards:4 schema [ tree ] in
  Cluster.make_durable ~durability:Wstore.Fsync ~data_dir c;
  let u = Cluster.full_update c in
  List.iter (apply_step ~pool ~u ~exec:(Cluster.update c)) steps;
  let reshred_trees = Update.current_trees u in
  let want = List.map (fun (_, q) -> Cluster.run_ids c q) Xmark.queries in
  Cluster.close c;
  (* clean shutdown: both the full store and every shard skip the scan *)
  (match Manifest.read ~dir:(Filename.concat data_dir "full") with
   | Ok m -> Alcotest.(check bool) "full store closed clean" true m.Manifest.clean
   | Error e -> Alcotest.failf "full manifest: %s" e);
  (match Cluster.open_durable ~pool_size:0 ~data_dir () with
   | Error e -> Alcotest.failf "cold start: %s" e
   | Ok c' ->
     Fun.protect
       ~finally:(fun () -> Cluster.close c')
       (fun () ->
         Alcotest.(check int) "shard count from extras" 4 (Cluster.shards c');
         List.iter2
           (fun (name, q) expect ->
             Alcotest.(check (list int)) (name ^ " identical after cold start")
               expect (Cluster.run_ids c' q))
           Xmark.queries want;
         (* and identical to a fresh re-shred of the mutated documents,
            rank-normalized (a re-shred renumbers ids) *)
         let fresh = Update.create schema reshred_trees in
         let s_ref = Session.create (Update.store fresh) in
         let rk_inc = Update.ranks (Cluster.full_update c') in
         let rk_ref = Update.ranks fresh in
         let rank_set rk ids = List.sort compare (List.map (Hashtbl.find rk) ids) in
         List.iter
           (fun (name, q) ->
             Alcotest.(check (list int)) (name ^ " equals a fresh re-shred")
               (rank_set rk_ref (Session.run_ids s_ref q))
               (rank_set rk_inc (Cluster.run_ids c' q)))
           Xmark.queries;
         (* the reopened cluster keeps accepting logged mutations *)
         let u' = Cluster.full_update c' in
         ignore
           (Cluster.update c'
              (Update.Set_text
                 { target = List.hd (find_by_tag u' "city"); text = "cold" }))))

let () =
  let tc (name, f) = Alcotest.test_case name `Quick f in
  Alcotest.run "wal"
    [
      ( "framing",
        List.map tc
          [
            "crc32 known vectors", test_crc32_vectors;
            "segment scan", test_log_scan;
            "torn tail cut", test_log_torn_tail;
            "bit flip cut", test_log_bit_flip;
            "bad magic", test_log_bad_magic;
          ] );
      ( "manifest",
        List.map tc
          [
            "round trip", test_manifest_round_trip;
            "atomic at every crash point", test_manifest_atomic_replace;
          ] );
      ( "records",
        List.map tc
          [
            "record round trip", test_record_round_trip;
            "checkpoint sidecar round trip", test_meta_round_trip;
            "version-1 sidecar rejected by magic", test_meta_old_magic_rejected;
            "a version-2 sidecar is refused", test_meta_v2_magic_rejected;
            "a recovered store accepts the live store's bulk loads",
            test_recovered_store_bulk_loads;
            "golden bytes", test_golden_bytes;
          ] );
      ( "store",
        List.map tc
          [
            "init + append + recover", test_store_init_append_recover;
            "clean shutdown skips the scan", test_clean_shutdown_skips_scan;
            "torn and garbage tails truncate", test_torn_tail_recovery;
            "checkpoint rotation", test_checkpoint_rotation;
            "durability counters", test_recovery_metrics;
            "durability_of_string", test_durability_of_string;
          ] );
      ( "crash differential",
        List.map QCheck_alcotest.to_alcotest
          [ prop_crash_recovery_single; prop_crash_recovery_cluster ] );
      ("cold start", List.map tc [ "cluster cold start", test_cluster_cold_start ]);
    ]
