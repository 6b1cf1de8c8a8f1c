module Session = Ppfx_service.Session
module Cluster = Ppfx_cluster.Cluster
module Metrics = Ppfx_service.Metrics
module Engine = Ppfx_minidb.Engine
module Database = Ppfx_minidb.Database
module Table = Ppfx_minidb.Table
module Sql = Ppfx_minidb.Sql
module Value = Ppfx_minidb.Value
module Loader = Ppfx_shred.Loader
module Mapping = Ppfx_shred.Mapping
module Translate = Ppfx_translate.Translate
module Update = Ppfx_update.Update
module Xparser = Ppfx_xpath.Parser
module Xmlparser = Ppfx_xml.Parser
module Wstore = Ppfx_wal.Store
module Wrecord = Ppfx_wal.Record

type config = {
  host : string;
  port : int;
  workers : int;
  max_connections : int;
  queue_depth : int;
  max_frame : int;
  fetch_window : int;
  server_name : string;
  shards : int;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    workers = 2;
    max_connections = 64;
    queue_depth = 64;
    max_frame = Wire.default_max_frame;
    fetch_window = 512;
    server_name = "ppfx";
    shards = 1;
  }

(* ------------------------------------------------------------------ *)
(* Executors                                                           *)
(* ------------------------------------------------------------------ *)

type executor = {
  exec_prepare : values:bool -> string -> Sql.statement option * (unit -> Engine.result);
  exec_update : Wire.update_op -> Update.outcome;
  exec_db : Database.t option;
}

(* Parse the wire form into the typed mutation; fragment XML parses
   here so a malformed fragment surfaces as [Parse_error]. *)
let op_of_wire (op : Wire.update_op) : Update.op =
  match op with
  | Wire.Op_insert { parent; before; fragment } ->
    Update.Insert_subtree { parent; before; fragment = Xmlparser.parse fragment }
  | Wire.Op_delete { target } -> Update.Delete_subtree { target }
  | Wire.Op_replace { target; fragment } ->
    Update.Replace_subtree { target; fragment = Xmlparser.parse fragment }
  | Wire.Op_set_attr { target; name; value } ->
    Update.Set_attribute { target; name; value }
  | Wire.Op_set_text { target; text } -> Update.Set_text { target; text }

let no_write_path _ =
  raise (Update.Update_error "server has no write path (read-only store)")

(* The checkpoint sidecar of a single updatable store: the schema, the
   shadow forest (so recovery can re-validate and keep mutating), no
   cluster extras. *)
let store_meta u =
  {
    Wrecord.m_schema = Mapping.schema (Update.store u).Loader.mapping;
    m_shadow = Some (Update.shadow u);
    m_extras = None;
  }

let session_executor ?update ?wal s =
  {
    exec_prepare =
      (fun ~values q ->
        let p = Session.prepare ~values s q in
        (Session.sql p, fun () -> Session.execute s p));
    exec_update =
      (match update with
       | None -> no_write_path
       | Some (lock, u) ->
         fun op ->
           (* Staging mutates the shared shadow forest; one writer at a
              time. Readers keep running — the store-level snapshot lock
              serializes only the commit against plan execution. *)
           Mutex.protect lock (fun () ->
               match wal with
               | None -> Update.exec u (op_of_wire op)
               | Some w ->
                 (* Log before apply: the ack (the [Updated] frame) only
                    ever follows the append and its policy fsync. *)
                 let op = op_of_wire op in
                 let cs = Update.stage u op in
                 ignore (Wstore.append w ~op ~inserts:true cs : int);
                 Update.commit (Update.db u) cs;
                 if Wstore.should_checkpoint w then
                   Wstore.checkpoint w ~db:(Update.db u) ~meta:(store_meta u);
                 Update.outcome_of cs));
    exec_db = Some (Session.store s).Loader.db;
  }

let cluster_executor lock c =
  {
    exec_prepare =
      (fun ~values q ->
        Mutex.protect lock (fun () ->
            let p = Cluster.prepare ~values c q in
            (Session.sql p, fun () -> Mutex.protect lock (fun () -> Cluster.execute c p))));
    exec_update =
      (fun op -> Mutex.protect lock (fun () -> Cluster.update c (op_of_wire op)));
    exec_db = Some (Session.store (Cluster.session c)).Loader.db;
  }

(* ------------------------------------------------------------------ *)
(* Typed column metadata                                               *)
(* ------------------------------------------------------------------ *)

let col_ty = Option.fold ~none:Wire.Tany ~some:Wire.col_ty_of_value_ty

let rec ty_of_expr db (from : (string * string) list) expr : Wire.col_ty =
  match expr with
  | Sql.Col (alias, col) ->
    (match (db, List.find_opt (fun (_, a) -> a = alias) from) with
     | Some db, Some (table, _) ->
       col_ty (try Table.column_ty (Database.table db table) col with _ -> None)
     | _ -> Wire.Tany)
  | Sql.Const v -> col_ty (Value.type_of v)
  | Sql.Concat (a, b) ->
    (match (ty_of_expr db from a, ty_of_expr db from b) with
     | Wire.Tbin, _ | _, Wire.Tbin -> Wire.Tbin
     | _ -> Wire.Ttext)
  | Sql.Arith (_, a, b) ->
    (match (ty_of_expr db from a, ty_of_expr db from b) with
     | Wire.Tint, Wire.Tint -> Wire.Tint
     | _ -> Wire.Tfloat)
  | Sql.To_number _ -> Wire.Tfloat
  | Sql.Length _ | Sql.Count_subquery _ -> Wire.Tint
  | Sql.Cmp _ | Sql.Between _ | Sql.And _ | Sql.Or _ | Sql.Not _
  | Sql.Regexp_like _ | Sql.Exists _ | Sql.Is_not_null _ | Sql.Bool_const _ ->
    Wire.Tint

let columns_of_select db (sel : Sql.select) =
  List.map
    (fun (expr, name) -> { Wire.name; ty = ty_of_expr db sel.Sql.from expr })
    sel.Sql.projections

let columns_of_statement db = function
  | Sql.Select sel -> columns_of_select db sel
  | Sql.Select_count _ -> [ { Wire.name = "count"; ty = Wire.Tint } ]
  | Sql.Union (branches, _) ->
    (match branches with [] -> [] | b :: _ -> columns_of_select db b)

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

(* A prepared statement runs through a handle of the worker executing
   it: [handles] holds one per worker that has run it, keyed by that
   worker's executor. A worker's handle runs only on that worker, so a
   session, its plan cache and its plans' reused execution state stay on
   one domain. The first [Execute] on another worker prepares the text
   there (a plan-cache lookup on that worker's session); later ones
   neither re-parse nor look up, and still run after the cache has
   evicted the entry. *)
type stmt = {
  text : string;
  values : bool;
  mutable handles : (executor * (unit -> Engine.result)) list;
  mutable cursor : Value.t array list;
}

type conn = {
  cid : int;
  fd : Unix.file_descr;
  rbuf : Buffer.t;  (* frame reassembly; event loop only *)
  wlock : Mutex.t;  (* serializes frame writes to [fd] *)
  wbuf : Wire.buf;  (* frame encoding; under [wlock] *)
  stmts : (int, stmt) Hashtbl.t;  (* worker only (one in-flight request) *)
  mutable next_stmt : int;
  mutable hello_done : bool;
  (* under the server lock: *)
  pending : Wire.request Queue.t;
  mutable busy : bool;  (* one of this connection's requests is queued or running *)
  mutable draining : bool;  (* no more reads; close once idle *)
  mutable dead : bool;  (* fd closed, removed from the table *)
}

type t = {
  cfg : config;
  listener : Unix.file_descr;
  bound_port : int;
  metrics : Metrics.t;
  lock : Mutex.t;
  cond : Condition.t;
  queue : (conn * Wire.request * float) Queue.t;
  conns : (int, conn) Hashtbl.t;
  mutable next_cid : int;
  mutable busy_count : int;
  mutable stopping : bool;
  (* set by the event loop once its final stop-time read sweep is done;
     workers must not exit before it, or late-swept requests would
     never be served *)
  mutable reads_done : bool;
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
  mutable io_domain : unit Domain.t option;
  mutable worker_domains : unit Domain.t list;
}

let port t = t.bound_port
let config t = t.cfg
let metrics t = t.metrics

let locked t f = Mutex.protect t.lock f

(* Best-effort frame write. Any transport failure marks the connection
   draining: the event loop stops reading it and it is destroyed once
   idle. Never raises. *)
let respond t c resp =
  try
    Mutex.protect c.wlock (fun () ->
        Metrics.add t.metrics Metrics.Bytes_out (Wire.send_response_buf c.wbuf c.fd resp))
  with Unix.Unix_error _ | Wire.Codec _ ->
    locked t (fun () -> c.draining <- true)

(* Server lock held. *)
let destroy_conn t c =
  if not c.dead then begin
    c.dead <- true;
    c.draining <- true;
    Hashtbl.remove t.conns c.cid;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    Metrics.connection_closed t.metrics
  end

(* ------------------------------------------------------------------ *)
(* Request processing (worker side)                                    *)
(* ------------------------------------------------------------------ *)

let take_rows n rows =
  let rec go n acc rows =
    match rows with
    | [] -> (List.rev acc, [])
    | _ when n = 0 -> (List.rev acc, rows)
    | r :: rest -> go (n - 1) (r :: acc) rest
  in
  go (max 0 n) [] rows

let send_window t c id st window =
  let cap = t.cfg.fetch_window in
  let w = if window <= 0 then cap else min window cap in
  let batch, rest = take_rows w st.cursor in
  st.cursor <- rest;
  Metrics.add t.metrics Metrics.Rows_sent (List.length batch);
  respond t c (Wire.Rows { stmt = id; rows = batch; more = rest <> [] })

(* Returns [true] when the connection must drain (quit, fatal error). *)
let process t exec c (req : Wire.request) =
  let fail ?(close = false) code message =
    respond t c (Wire.Error { code; message });
    close
  in
  if not c.hello_done then
    match req with
    | Wire.Hello { version; client = _ } ->
      if version <> Wire.protocol_version then
        fail ~close:true Wire.Version_mismatch
          (Printf.sprintf "server speaks version %d, client sent %d"
             Wire.protocol_version version)
      else begin
        c.hello_done <- true;
        respond t c
          (Wire.Welcome
             {
               version = Wire.protocol_version;
               server = t.cfg.server_name;
               shards = t.cfg.shards;
             });
        false
      end
    | _ -> fail ~close:true Wire.Protocol "expected Hello before any other request"
  else
    match req with
    | Wire.Hello _ -> fail ~close:true Wire.Protocol "duplicate Hello"
    | Wire.Ping ->
      respond t c Wire.Pong;
      false
    | Wire.Quit ->
      respond t c Wire.Bye;
      true
    | Wire.Prepare { query; values } ->
      (try
         let sql, run = exec.exec_prepare ~values query in
         let id = c.next_stmt in
         c.next_stmt <- c.next_stmt + 1;
         Hashtbl.replace c.stmts id
           { text = query; values; handles = [ (exec, run) ]; cursor = [] };
         respond t c
           (Wire.Prepared
              {
                stmt = id;
                columns =
                  (match sql with
                   | None -> []
                   | Some s -> columns_of_statement exec.exec_db s);
                empty = sql = None;
                sql = Option.map Sql.to_string sql;
              });
         false
       with
       | Xparser.Error { position; message } ->
         fail Wire.Parse_error
           (Printf.sprintf "XPath parse error at offset %d: %s" position message)
       | Translate.Unsupported msg -> fail Wire.Unsupported msg)
    | Wire.Execute { stmt; window } ->
      (match Hashtbl.find_opt c.stmts stmt with
       | None -> fail Wire.Bad_statement (Printf.sprintf "unknown statement %d" stmt)
       | Some st ->
         (try
            let run =
              match List.assq_opt exec st.handles with
              | Some run -> run
              | None ->
                let _, run = exec.exec_prepare ~values:st.values st.text in
                st.handles <- (exec, run) :: st.handles;
                run
            in
            let result = run () in
            st.cursor <- result.Engine.rows;
            send_window t c stmt st window;
            false
          with
          | Engine.Runtime_error msg -> fail Wire.Runtime msg
          | e -> fail ~close:true Wire.Runtime (Printexc.to_string e)))
    | Wire.Fetch { stmt; window } ->
      (match Hashtbl.find_opt c.stmts stmt with
       | None -> fail Wire.Bad_statement (Printf.sprintf "unknown statement %d" stmt)
       | Some st ->
         send_window t c stmt st window;
         false)
    | Wire.Close_stmt { stmt } ->
      Hashtbl.remove c.stmts stmt;
      respond t c (Wire.Closed { stmt });
      false
    | Wire.Update { op } ->
      (try
         let o = exec.exec_update op in
         respond t c
           (Wire.Updated
              {
                inserted = o.Update.inserted;
                updated = o.Update.updated;
                deleted = o.Update.deleted;
                new_paths = o.Update.new_paths;
                dead_paths = o.Update.dead_paths;
              });
         false
       with
       | Update.Update_error msg -> fail Wire.Runtime msg
       | Xmlparser.Error { line; column; message } ->
         fail Wire.Parse_error
           (Printf.sprintf "fragment XML parse error at %d:%d: %s" line column
              message)
       | Engine.Runtime_error msg -> fail Wire.Runtime msg)

let worker_loop t factory () =
  let exec = factory () in
  let rec take () =
    Mutex.lock t.lock;
    let rec wait () =
      if not (Queue.is_empty t.queue) then begin
        let c, req, t_enq = Queue.pop t.queue in
        t.busy_count <- t.busy_count + 1;
        Mutex.unlock t.lock;
        Some (c, req, t_enq)
      end
      else if t.stopping && t.reads_done && t.busy_count = 0 then begin
        Condition.broadcast t.cond;
        Mutex.unlock t.lock;
        None
      end
      else begin
        Condition.wait t.cond t.lock;
        wait ()
      end
    in
    match wait () with
    | None -> ()
    | Some (c, req, t_enq) ->
      let t0 = Metrics.now () in
      Metrics.record t.metrics Metrics.Queue (t0 -. t_enq);
      Metrics.incr t.metrics Metrics.Requests;
      let close =
        try process t exec c req
        with e ->
          respond t c (Wire.Error { code = Wire.Runtime; message = Printexc.to_string e });
          true
      in
      Metrics.record t.metrics Metrics.Request (Metrics.now () -. t0);
      locked t (fun () ->
          if close then c.draining <- true;
          if c.draining then begin
            Queue.clear c.pending;
            c.busy <- false;
            destroy_conn t c
          end
          else if not (Queue.is_empty c.pending) then
            (* keep [busy] set: the connection's next request goes straight
               back on the dispatch queue, preserving per-connection order *)
            Queue.push (c, Queue.pop c.pending, Metrics.now ()) t.queue
          else c.busy <- false;
          t.busy_count <- t.busy_count - 1;
          Condition.broadcast t.cond);
      take ()
  in
  take ()

(* ------------------------------------------------------------------ *)
(* Event loop                                                          *)
(* ------------------------------------------------------------------ *)

(* Admission and dispatch for freshly decoded requests. Runs under the
   server lock; admission rejections are returned for writing after the
   lock is released. *)
let enqueue_requests t c reqs =
  let rejects = ref [] in
  locked t (fun () ->
      if not c.draining then
        List.iter
          (fun req ->
            if Queue.length c.pending >= t.cfg.queue_depth then begin
              Metrics.incr t.metrics Metrics.Rejected;
              rejects :=
                Wire.Error
                  {
                    code = Wire.Admission;
                    message = "request queue full, try again later";
                  }
                :: !rejects
            end
            else begin
              Queue.push req c.pending;
              if not c.busy then begin
                if Queue.length t.queue >= t.cfg.queue_depth then begin
                  ignore (Queue.pop c.pending);
                  Metrics.incr t.metrics Metrics.Rejected;
                  rejects :=
                    Wire.Error
                      {
                        code = Wire.Admission;
                        message = "server overloaded, try again later";
                      }
                    :: !rejects
                end
                else begin
                  c.busy <- true;
                  Queue.push (c, Queue.pop c.pending, Metrics.now ()) t.queue;
                  Metrics.note_max t.metrics Metrics.Queue_depth_hwm (Queue.length t.queue);
                  Condition.broadcast t.cond
                end
              end
            end)
          reqs);
  List.iter (fun resp -> respond t c resp) (List.rev !rejects)

(* Event-loop side protocol failure: answer with a typed error frame and
   drain the connection; in-flight work still completes. *)
let protocol_fail t c msg =
  respond t c (Wire.Error { code = Wire.Protocol; message = msg });
  locked t (fun () ->
      if c.busy then c.draining <- true
      else begin
        c.draining <- true;
        destroy_conn t c
      end)

let handle_readable t c =
  let scratch = Bytes.create 8192 in
  let rec read_chunks eof =
    match Unix.read c.fd scratch 0 (Bytes.length scratch) with
    | 0 -> true
    | n ->
      Metrics.add t.metrics Metrics.Bytes_in n;
      Buffer.add_subbytes c.rbuf scratch 0 n;
      read_chunks eof
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> eof
    | exception Unix.Unix_error _ -> true
  in
  let eof = read_chunks false in
  (* Extract every complete frame from the reassembly buffer. *)
  let data = Buffer.to_bytes c.rbuf in
  let len = Bytes.length data in
  let off = ref 0 in
  let reqs = ref [] in
  let failed = ref None in
  (try
     let continue = ref true in
     while !continue do
       match
         Wire.extract_frame ~max_frame:t.cfg.max_frame data ~off:!off
           ~len:(len - !off)
       with
       | None -> continue := false
       | Some (payload, consumed) ->
         off := !off + consumed;
         reqs := Wire.request_of_payload payload :: !reqs
     done
   with Wire.Codec e -> failed := Some (Wire.codec_error_to_string e));
  Buffer.clear c.rbuf;
  Buffer.add_subbytes c.rbuf data !off (len - !off);
  if !reqs <> [] then enqueue_requests t c (List.rev !reqs);
  match !failed with
  | Some msg -> protocol_fail t c msg
  | None ->
    if eof then
      locked t (fun () ->
          c.draining <- true;
          if not c.busy then destroy_conn t c)

let handle_accept t =
  let rec go () =
    match Unix.accept t.listener with
    | fd, _addr ->
      Unix.set_nonblock fd;
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
      let admitted =
        locked t (fun () ->
            if t.stopping || Hashtbl.length t.conns >= t.cfg.max_connections then None
            else begin
              let cid = t.next_cid in
              t.next_cid <- t.next_cid + 1;
              let c =
                {
                  cid;
                  fd;
                  rbuf = Buffer.create 256;
                  wlock = Mutex.create ();
                  wbuf = Wire.buf_create ();
                  stmts = Hashtbl.create 8;
                  next_stmt = 1;
                  hello_done = false;
                  pending = Queue.create ();
                  busy = false;
                  draining = false;
                  dead = false;
                }
              in
              Hashtbl.replace t.conns cid c;
              Metrics.incr t.metrics Metrics.Accepted;
              Metrics.connection_opened t.metrics;
              Some c
            end)
      in
      (match admitted with
       | Some _ -> ()
       | None ->
         Metrics.incr t.metrics Metrics.Rejected;
         (try
            ignore
              (Wire.send_response fd
                 (Wire.Error
                    {
                      code =
                        (if t.stopping then Wire.Shutting_down else Wire.Admission);
                      message =
                        (if t.stopping then "server shutting down"
                         else "connection limit reached");
                    }))
          with Unix.Unix_error _ | Wire.Codec _ -> ());
         (try Unix.close fd with Unix.Unix_error _ -> ()));
      go ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

(* The connections still read from, with their fds. *)
let readable_conns t =
  locked t (fun () ->
      Hashtbl.fold
        (fun _ c acc -> if c.draining || c.dead then acc else (c.fd, c) :: acc)
        t.conns [])

(* Read every connection of [conn_fds] whose fd is in [readable]. A
   worker may have destroyed a connection (closing its fd) while the
   caller was blocked in select, and [handle_accept] may have already
   reused that fd number for a fresh connection. Reading through the
   stale snapshot entry would steal the new connection's bytes into a
   dead conn's buffer, so liveness is re-checked under the lock:
   destruction marks [dead] before the fd can be reused. *)
let read_ready t conn_fds readable =
  List.iter
    (fun (fd, c) ->
      if List.mem fd readable && locked t (fun () -> not (c.dead || c.draining)) then
        try handle_readable t c with e -> protocol_fail t c (Printexc.to_string e))
    conn_fds

let io_loop t () =
  let rec loop () =
    let stopping = locked t (fun () -> t.stopping) in
    if stopping then drain_and_exit ()
    else begin
      let conn_fds = readable_conns t in
      let read_set = t.listener :: t.pipe_r :: List.map fst conn_fds in
      match Unix.select read_set [] [] 0.5 with
      | exception Unix.Unix_error ((EINTR | EBADF), _, _) -> loop ()
      | readable, _, _ ->
        if List.mem t.pipe_r readable then begin
          let scratch = Bytes.create 64 in
          try ignore (Unix.read t.pipe_r scratch 0 64)
          with Unix.Unix_error _ -> ()
        end;
        if List.mem t.listener readable then handle_accept t;
        read_ready t conn_fds readable;
        loop ()
    end
  and drain_and_exit () =
    (* Final read sweep: the drain contract covers every request the
       kernel had received when stop landed, not just frames this loop
       had already decoded. One non-blocking select picks up bytes that
       arrived while we were noticing [stopping]. *)
    let conn_fds = readable_conns t in
    (match Unix.select (List.map fst conn_fds) [] [] 0.0 with
     | exception Unix.Unix_error _ -> ()
     | readable, _, _ -> read_ready t conn_fds readable);
    locked t (fun () ->
        t.reads_done <- true;
        Condition.broadcast t.cond);
    (* Drain: every queued and in-flight request finishes and its
       response is written before any connection is torn down. *)
    Mutex.lock t.lock;
    while not (Queue.is_empty t.queue && t.busy_count = 0) do
      Condition.wait t.cond t.lock
    done;
    Condition.broadcast t.cond;
    Mutex.unlock t.lock;
    List.iter Domain.join t.worker_domains;
    locked t (fun () ->
        let cs = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
        List.iter
          (fun c ->
            (try ignore (Wire.send_response c.fd Wire.Bye)
             with Unix.Unix_error _ | Wire.Codec _ -> ());
            destroy_conn t c)
          cs);
    (try Unix.close t.listener with Unix.Unix_error _ -> ());
    (try Unix.close t.pipe_r with Unix.Unix_error _ -> ());
    try Unix.close t.pipe_w with Unix.Unix_error _ -> ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let start ?(config = default_config) factory =
  if config.workers < 1 then invalid_arg "Server.start: workers must be >= 1";
  (* Peer resets must surface as EPIPE on write, not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  (try
     Unix.bind listener
       (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port))
   with e ->
     (try Unix.close listener with Unix.Unix_error _ -> ());
     raise e);
  Unix.listen listener 128;
  Unix.set_nonblock listener;
  let bound_port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> config.port
  in
  let pipe_r, pipe_w = Unix.pipe () in
  Unix.set_nonblock pipe_r;
  let t =
    {
      cfg = config;
      listener;
      bound_port;
      metrics = Metrics.create ();
      lock = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      conns = Hashtbl.create 64;
      next_cid = 1;
      busy_count = 0;
      stopping = false;
      reads_done = false;
      pipe_r;
      pipe_w;
      io_domain = None;
      worker_domains = [];
    }
  in
  t.worker_domains <-
    List.init config.workers (fun _ -> Domain.spawn (worker_loop t factory));
  t.io_domain <- Some (Domain.spawn (io_loop t));
  t

let stop t =
  let io =
    locked t (fun () ->
        t.stopping <- true;
        Condition.broadcast t.cond;
        let io = t.io_domain in
        t.io_domain <- None;
        io)
  in
  (try ignore (Unix.write t.pipe_w (Bytes.of_string "x") 0 1)
   with Unix.Unix_error _ -> ());
  match io with None -> () | Some d -> Domain.join d
