module Database = Ppfx_minidb.Database
module Codec = Ppfx_minidb.Codec
module Graph = Ppfx_schema.Graph
module Mapping = Ppfx_shred.Mapping
module Loader = Ppfx_shred.Loader
module Update = Ppfx_update.Update
module Metrics = Ppfx_service.Metrics

type durability = Off | Fsync | Batch of int

let durability_to_string = function
  | Off -> "off"
  | Fsync -> "fsync"
  | Batch n -> "batch:" ^ string_of_int n

let durability_of_string s =
  match String.lowercase_ascii s with
  | "off" -> Ok Off
  | "fsync" -> Ok Fsync
  | "batch" -> Ok (Batch 32)
  | s when String.length s > 6 && String.equal (String.sub s 0 6) "batch:" -> (
    match int_of_string_opt (String.sub s 6 (String.length s - 6)) with
    | Some n when n > 0 -> Ok (Batch n)
    | _ -> Error "batch size must be a positive integer")
  | _ -> Error (Printf.sprintf "unknown durability %S (expected off, fsync or batch[:N])" s)

(* Version 2 dropped the layout flag from the sidecar; a version-1
   sidecar fails the magic check instead of being misdecoded. *)
let meta_magic = "PPFXMET2"
let db_file gen = Printf.sprintf "checkpoint-%d.db" gen
let meta_file gen = Printf.sprintf "checkpoint-%d.meta" gen
let seg_file gen = Printf.sprintf "wal-%d.log" gen

type t = {
  io : Io.t;
  dir : string;
  durability : durability;
  checkpoint_bytes : int;
  checkpoint_records : int;
  mutable fd : Unix.file_descr option;
  mutable gen : int;
  mutable next_seq : int;
  mutable seg_records : int;
  mutable seg_bytes : int;
  mutable unsynced : int;
  mutable metrics : Metrics.t option;
  own : Metrics.t;  (** counts made before a sink is attached *)
}

let dir t = t.dir
let next_seq t = t.next_seq
let durability t = t.durability

let rec mkdirs d =
  if not (Sys.file_exists d) then begin
    let parent = Filename.dirname d in
    if not (String.equal parent d) then mkdirs parent;
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let sink t = match t.metrics with Some m -> m | None -> t.own

let set_metrics t m =
  t.metrics <- Some m;
  Metrics.absorb ~into:m t.own;
  Metrics.reset t.own

(* --- generation files ------------------------------------------------ *)

let write_generation t ~gen ~db ~meta =
  Io.atomic_write t.io
    ~path:(Filename.concat t.dir (db_file gen))
    (Codec.database_to_string db);
  Io.atomic_write t.io
    ~path:(Filename.concat t.dir (meta_file gen))
    (meta_magic ^ Log.frame (Record.encode_meta meta));
  Io.atomic_write t.io ~path:(Filename.concat t.dir (seg_file gen)) Log.magic

let read_meta path =
  match open_in_bin path with
  | exception Sys_error e -> Error ("checkpoint meta: " ^ e)
  | ic ->
    let s =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let mlen = String.length meta_magic in
    if String.length s < mlen || not (String.equal (String.sub s 0 mlen) meta_magic)
    then Error "checkpoint meta: bad magic"
    else begin
      match Log.scan_string (Log.magic ^ String.sub s mlen (String.length s - mlen)) with
      | { Log.frames = [ (payload, _) ]; valid_end; file_len } when valid_end = file_len
        -> (
        match Record.decode_meta payload with
        | m -> Ok m
        | exception Record.Corrupt e -> Error ("checkpoint meta: " ^ e))
      | _ -> Error "checkpoint meta: bad frame"
    end

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

(* Drop every managed file not belonging to the current generation:
   superseded checkpoints/segments, half-written generations from a
   crashed checkpoint, stale atomic-write temporaries. Deletion is pure
   cleanup — recovery never reads a file the manifest does not name — so
   a crash in here costs disk space, not correctness. *)
let cleanup t =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> ()
  | names ->
    Array.iter
      (fun name ->
        let keep =
          String.equal name Manifest.file
          || String.equal name (db_file t.gen)
          || String.equal name (meta_file t.gen)
          || String.equal name (seg_file t.gen)
        in
        let managed =
          starts_with "checkpoint-" name || starts_with "wal-" name
          || starts_with Manifest.file name
        in
        if managed && not keep then
          Io.unlink_if_exists t.io (Filename.concat t.dir name))
      names

let open_segment t =
  let fd =
    Unix.openfile
      (Filename.concat t.dir (seg_file t.gen))
      [ Unix.O_WRONLY; Unix.O_APPEND ]
      0o644
  in
  t.fd <- Some fd

let close_fd t =
  (match t.fd with
   | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
   | None -> ());
  t.fd <- None

(* --- lifecycle ------------------------------------------------------- *)

let make ~io ~durability ~checkpoint_bytes ~checkpoint_records ~dir ~gen ~next_seq =
  {
    io;
    dir;
    durability;
    checkpoint_bytes;
    checkpoint_records;
    fd = None;
    gen;
    next_seq;
    seg_records = 0;
    seg_bytes = 0;
    unsynced = 0;
    metrics = None;
    own = Metrics.create ();
  }

let default_checkpoint_bytes = 4 * 1024 * 1024
let default_checkpoint_records = 4096

let init ?(io = Io.live) ?(durability = Fsync)
    ?(checkpoint_bytes = default_checkpoint_bytes)
    ?(checkpoint_records = default_checkpoint_records) ~dir ~db ~meta () =
  mkdirs dir;
  let t = make ~io ~durability ~checkpoint_bytes ~checkpoint_records ~dir ~gen:0 ~next_seq:1 in
  write_generation t ~gen:0 ~db ~meta;
  Manifest.write io ~dir { Manifest.gen = 0; base_seq = 0; clean = false };
  cleanup t;
  open_segment t;
  t

let exists ~dir = Sys.file_exists (Filename.concat dir Manifest.file)

let append t ?op ?(inserts = true) ?extras cs =
  let fd =
    match t.fd with
    | Some fd -> fd
    | None -> invalid_arg "Wal.Store.append: store is closed"
  in
  let seq = t.next_seq in
  let framed =
    Log.frame
      (Record.encode { Record.r_seq = seq; r_op = op; r_inserts = inserts; r_cs = cs; r_extras = extras })
  in
  Io.write t.io fd framed;
  t.next_seq <- seq + 1;
  t.seg_records <- t.seg_records + 1;
  t.seg_bytes <- t.seg_bytes + String.length framed;
  Metrics.incr (sink t) Metrics.Wal_appends;
  Metrics.add (sink t) Metrics.Wal_bytes (String.length framed);
  (match t.durability with
   | Off -> t.unsynced <- t.unsynced + 1
   | Fsync ->
     Io.fsync t.io fd;
     t.unsynced <- 0;
     Metrics.incr (sink t) Metrics.Wal_fsyncs
   | Batch n ->
     t.unsynced <- t.unsynced + 1;
     if t.unsynced >= max 1 n then begin
       Io.fsync t.io fd;
       t.unsynced <- 0;
       Metrics.incr (sink t) Metrics.Wal_fsyncs
     end);
  seq

let flush t =
  match t.fd with
  | Some fd when t.unsynced > 0 ->
    Io.fsync t.io fd;
    t.unsynced <- 0;
    Metrics.incr (sink t) Metrics.Wal_fsyncs
  | Some _ | None -> ()

let should_checkpoint t =
  t.seg_bytes >= t.checkpoint_bytes || t.seg_records >= t.checkpoint_records

let checkpoint t ~db ~meta =
  flush t;
  let gen' = t.gen + 1 in
  write_generation t ~gen:gen' ~db ~meta;
  (* The manifest rename is the commit point of the rotation: everything
     it names is already durable, and until it lands recovery uses the
     previous generation plus its (complete, never-truncated) segment. *)
  Manifest.write t.io ~dir:t.dir
    { Manifest.gen = gen'; base_seq = t.next_seq - 1; clean = false };
  close_fd t;
  t.gen <- gen';
  t.seg_records <- 0;
  t.seg_bytes <- 0;
  t.unsynced <- 0;
  Metrics.incr (sink t) Metrics.Checkpoints;
  cleanup t;
  open_segment t

let close t =
  flush t;
  close_fd t

let close_clean t ~db ~meta =
  checkpoint t ~db ~meta;
  Manifest.write t.io ~dir:t.dir
    { Manifest.gen = t.gen; base_seq = t.next_seq - 1; clean = true };
  Metrics.incr (sink t) Metrics.Clean_shutdowns;
  close_fd t

let dispose t = close_fd t

(* --- recovery --------------------------------------------------------- *)

type recovery = { replayed : int; truncated_bytes : int; clean : bool }

type recovered = {
  store : t;
  db : Database.t;
  meta : Record.meta;
  records : Record.t list;
  recovery : recovery;
}

let recover ?(io = Io.live) ?(durability = Fsync)
    ?(checkpoint_bytes = default_checkpoint_bytes)
    ?(checkpoint_records = default_checkpoint_records) ~dir () =
  let ( let* ) = Result.bind in
  let* man = Manifest.read ~dir in
  let* db =
    match Codec.load_result (Filename.concat dir (db_file man.Manifest.gen)) with
    | Ok db -> Ok db
    | Error e -> Error ("checkpoint snapshot: " ^ Codec.error_to_string e)
  in
  let* meta = read_meta (Filename.concat dir (meta_file man.Manifest.gen)) in
  let seg = Filename.concat dir (seg_file man.Manifest.gen) in
  let* records, valid_end, file_len =
    if man.Manifest.clean then
      (* clean shutdown: the final checkpoint rotated the log, so the
         segment is empty by construction — skip the scan entirely *)
      Ok ([], String.length Log.magic, String.length Log.magic)
    else
      match Log.scan_file seg with
      | exception Sys_error e -> Error ("wal segment: " ^ e)
      | scan ->
        (* A frame that passed its CRC but does not decode, or whose
           sequence number breaks the base_seq+1, +2, ... chain, marks
           the start of the invalid tail just like a torn frame. *)
        let rec go acc expected valid = function
          | [] -> (List.rev acc, valid)
          | (payload, frame_end) :: rest -> (
            match Record.decode payload with
            | r when r.Record.r_seq = expected ->
              go (r :: acc) (expected + 1) frame_end rest
            | _ -> (List.rev acc, valid)
            | exception Record.Corrupt _ -> (List.rev acc, valid))
        in
        let records, valid_end =
          go [] (man.Manifest.base_seq + 1) (String.length Log.magic) scan.Log.frames
        in
        Ok (records, valid_end, scan.Log.file_len)
  in
  let truncated = file_len - valid_end in
  let replayed = List.length records in
  let t =
    make ~io ~durability ~checkpoint_bytes ~checkpoint_records ~dir
      ~gen:man.Manifest.gen
      ~next_seq:(man.Manifest.base_seq + replayed + 1)
  in
  t.seg_records <- replayed;
  t.seg_bytes <- valid_end - String.length Log.magic;
  if truncated > 0 then begin
    let fd = Unix.openfile seg [ Unix.O_WRONLY ] 0o644 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.ftruncate fd valid_end;
        Unix.fsync fd)
  end;
  (* From here the segment can grow again, so the clean marker must go
     before any ack does. *)
  if man.Manifest.clean then
    Manifest.write io ~dir { man with Manifest.clean = false };
  cleanup t;
  open_segment t;
  Metrics.add_recovery (sink t) ~replayed ~truncated_bytes:truncated ~clean:man.Manifest.clean;
  Ok
    {
      store = t;
      db;
      meta;
      records;
      recovery = { replayed; truncated_bytes = truncated; clean = man.Manifest.clean };
    }

(* --- replay ----------------------------------------------------------- *)

let final_extras (meta : Record.meta) records =
  List.fold_left
    (fun acc (r : Record.t) ->
      match r.Record.r_extras with Some e -> Some e | None -> acc)
    meta.Record.m_extras records

let rebuild_full ~db ~(meta : Record.meta) records =
  match meta.Record.m_shadow with
  | None -> Error "checkpoint meta carries no shadow (not a full store)"
  | Some shadow -> (
    let mapping = Mapping.of_schema meta.Record.m_schema in
    match
      List.find_opt
        (fun (d : Graph.def) ->
          Option.is_none (Database.table_opt db (Mapping.relation mapping d)))
        (Graph.defs meta.Record.m_schema)
    with
    | Some d -> Error (Printf.sprintf "snapshot is missing relation %s" d.Graph.relation)
    | None -> (
      let loader = { Loader.mapping; db; docs = [] } in
      match Update.of_shadow loader shadow with
      | exception Update.Update_error e -> Error ("shadow rebuild: " ^ e)
      | u -> (
        try
          List.iter
            (fun (r : Record.t) ->
              (* re-stage the logged op to move the shadow (deterministic:
                 ORDPATH carets and id allocation depend only on prior
                 state), then commit the logged changeset — the exact
                 acked bytes — to the relations *)
              (match r.Record.r_op with
               | Some op -> ignore (Update.stage u op)
               | None -> ());
              Update.commit ~inserts:true db r.Record.r_cs)
            records;
          Ok u
        with Update.Update_error e -> Error ("replay: " ^ e))))

let rebuild_db ~db ~(meta : Record.meta) records =
  let mapping = Mapping.of_schema meta.Record.m_schema in
  List.iter
    (fun (r : Record.t) -> Update.commit ~inserts:r.Record.r_inserts db r.Record.r_cs)
    records;
  { Loader.mapping; db; docs = [] }
