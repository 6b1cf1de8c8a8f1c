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
   shadow's trees and id counters (recovery rebuilds the shadow from
   them and the snapshot's rows, then keeps mutating), no cluster
   extras. *)
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
   evicted the entry. A [Query]'s statement is never entered here: its
   answer goes out with its [Prepared] frame. *)
type stmt = {
  text : string;
  values : bool;
  mutable handles : (executor * (unit -> Engine.result)) list;
}

type conn = {
  cid : int;
  fd : Unix.file_descr;
  rbuf : Wire.buf;  (* frame reassembly and decoding; the leader only *)
  wlock : Mutex.t;  (* serializes frame writes to [fd] *)
  wbuf : Wire.buf;  (* frame encoding; under [wlock] *)
  stmts : (int, stmt) Hashtbl.t;  (* worker only (one in-flight request) *)
  mutable next_stmt : int;
  mutable hello_done : bool;
  (* under the server lock: *)
  pending : (Wire.request * float) Queue.t;  (* with its decode time *)
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
  cond : Condition.t;  (* idle followers wait here *)
  queue : (conn * Wire.request * float) Queue.t;
  conns : (int, conn) Hashtbl.t;
  mutable next_cid : int;
  mutable busy_count : int;
  mutable leading : bool;  (* a worker is polling the sockets *)
  mutable stopping : bool;
  (* set by the last leader after its stop-time read sweep; workers must
     not exit before it, or late-swept requests would never be served *)
  mutable reads_done : bool;
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;  (* [stop] wakes the leader through it *)
  io_buf : Wire.buf;  (* the leader's admission refusals at accept, then the final Bye *)
  mutable workers : unit Domain.t list;
}

let port t = t.bound_port
let config t = t.cfg
let metrics t = t.metrics

let locked t f = Mutex.protect t.lock f

(* Best-effort write under the connection's write lock: [write] sends
   frames and returns their byte count. Any transport failure, a stalled
   peer's included, marks the connection draining: the leader stops
   reading it and it is destroyed once idle. Never raises. *)
let writing t c write =
  try Mutex.protect c.wlock (fun () -> Metrics.add t.metrics Metrics.Bytes_out (write ()))
  with Unix.Unix_error _ | Wire.Codec _ -> locked t (fun () -> c.draining <- true)

let respond t c resp = writing t c (fun () -> Wire.send_response c.wbuf c.fd resp)

(* Server lock held. [shutdown] first: a leader blocked in select holds
   the socket open past [close], unseen by the peer; this wakes it. *)
let destroy_conn t c =
  if not c.dead then begin
    c.dead <- true;
    c.draining <- true;
    Hashtbl.remove t.conns c.cid;
    (try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    Metrics.connection_closed t.metrics
  end

(* ------------------------------------------------------------------ *)
(* Request processing                                                  *)
(* ------------------------------------------------------------------ *)

(* Write [first] (when given) and the whole answer behind it, one walk
   over the rows: [fetch_window] rows a [Rows] frame, [more] set on
   every frame but the last, all under one hold of the write lock so no
   other frame lands between them. *)
let send_answer ?first t c id rows =
  let cap = t.cfg.fetch_window in
  writing t c @@ fun () ->
  Option.iter (Wire.queue_response c.wbuf) first;
  let rec walk bytes sent batch n = function
    | r :: rest when n < cap -> walk bytes (sent + 1) (r :: batch) (n + 1) rest
    | rest ->
      let more = rest <> [] in
      (* Counted before the last frame goes out: after it, the sink's
         lock would contend with the work the answer sets off. *)
      if not more then Metrics.add t.metrics Metrics.Rows_sent sent;
      let frame = Wire.Rows { stmt = id; rows = List.rev batch; more } in
      let bytes = bytes + Wire.send_response c.wbuf c.fd frame in
      if more then walk bytes sent [] 0 rest else bytes
  in
  walk 0 0 [] 0 rows

(* Returns [true] when the connection must drain (quit, fatal error). *)
let process t exec c (req : Wire.request) =
  let fail ?(close = false) code message =
    respond t c (Wire.Error { code; message });
    close
  in
  (* Prepare [query] on this worker under a new statement id; returns
     the id, the run handle and its [Prepared] frame. Raises the parse
     and unsupported errors [compile] answers. *)
  let prepare ~values query =
    let sql, run = exec.exec_prepare ~values query in
    let id = c.next_stmt in
    c.next_stmt <- id + 1;
    let columns = Option.fold ~none:[] ~some:(columns_of_statement exec.exec_db) sql in
    (id, run, Wire.Prepared { stmt = id; columns; empty = sql = None; sql = Option.map Sql.to_string sql })
  in
  let compile f =
    try f () with
    | Xparser.Error { position; message } ->
      fail Wire.Parse_error (Printf.sprintf "XPath parse error at offset %d: %s" position message)
    | Translate.Unsupported msg -> fail Wire.Unsupported msg
  in
  (* Run statement [id] and send its whole answer, behind [first] when
     given. *)
  let answer ?first id run =
    match run () with
    | r ->
      send_answer ?first t c id r.Engine.rows;
      false
    | exception Engine.Runtime_error msg -> fail Wire.Runtime msg
    | exception e -> fail ~close:true Wire.Runtime (Printexc.to_string e)
  in
  (* This worker's handle for [st], prepared here on first use. *)
  let handle st =
    match List.assq_opt exec st.handles with
    | Some run -> run
    | None ->
      let _, run = exec.exec_prepare ~values:st.values st.text in
      st.handles <- (exec, run) :: st.handles;
      run
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
      compile (fun () ->
          let id, run, prepared = prepare ~values query in
          Hashtbl.replace c.stmts id { text = query; values; handles = [ (exec, run) ] };
          respond t c prepared;
          false)
    | Wire.Query { query; values } ->
      compile (fun () ->
          let id, run, prepared = prepare ~values query in
          answer ~first:prepared id run)
    | Wire.Execute { stmt } ->
      (match Hashtbl.find_opt c.stmts stmt with
       | None -> fail Wire.Bad_statement (Printf.sprintf "unknown statement %d" stmt)
       | Some st -> answer stmt (fun () -> handle st ()))
    | Wire.Close_stmt { stmt } ->
      Hashtbl.remove c.stmts stmt;
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

(* ------------------------------------------------------------------ *)
(* Leading: accept, read, admit                                        *)
(* ------------------------------------------------------------------ *)

(* Admission and dispatch for freshly decoded requests. Runs under the
   server lock; admission rejections are returned for writing after the
   lock is released. A rejected [Close_stmt] is counted but not
   answered: a reply would be read as the answer to the client's next
   request. *)
let enqueue_requests t c reqs =
  let rejects = ref [] in
  let reject req message =
    Metrics.incr t.metrics Metrics.Rejected;
    match req with
    | Wire.Close_stmt _ -> ()
    | _ -> rejects := Wire.Error { code = Wire.Admission; message } :: !rejects
  in
  let now = Metrics.now () in
  locked t (fun () ->
      if not c.draining then
        List.iter
          (fun req ->
            if Queue.length c.pending >= t.cfg.queue_depth then
              reject req "request queue full, try again later"
            else if c.busy then Queue.push (req, now) c.pending
            else if Queue.length t.queue >= t.cfg.queue_depth then
              reject req "server overloaded, try again later"
            else begin
              c.busy <- true;
              Queue.push (c, req, now) t.queue;
              Metrics.note_max t.metrics Metrics.Queue_depth_hwm (Queue.length t.queue)
            end)
          reqs);
  List.iter (fun resp -> respond t c resp) (List.rev !rejects)

(* Leader side protocol failure: answer with a typed error frame and
   drain the connection; in-flight work still completes. *)
let protocol_fail t c msg =
  respond t c (Wire.Error { code = Wire.Protocol; message = msg });
  locked t (fun () ->
      if c.busy then c.draining <- true
      else begin
        c.draining <- true;
        destroy_conn t c
      end)

(* One sweep of a readable connection: [read_some] stops at the first
   short read, so a spurious wakeup costs one [EAGAIN]. *)
let handle_readable t c =
  let eof =
    match Wire.read_some c.rbuf c.fd with
    | 0 -> true
    | n ->
      Metrics.add t.metrics Metrics.Bytes_in n;
      false
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> false
    | exception Unix.Unix_error _ -> true
  in
  let reqs = ref [] in
  let failed =
    match
      Wire.take_requests ~max_frame:t.cfg.max_frame c.rbuf (fun req -> reqs := req :: !reqs)
    with
    | () -> None
    | exception Wire.Codec e -> Some (Wire.codec_error_to_string e)
  in
  if !reqs <> [] then enqueue_requests t c (List.rev !reqs);
  match failed with
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
                  rbuf = Wire.buf_create ();
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
              (Wire.send_response t.io_buf fd
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

(* One turn as leader: wait until the listener, the wake pipe or a
   connection is readable, then accept, read and admit. Once [stop] has
   been called the turn is the final read sweep instead, and no worker
   leads again: the drain covers every request the kernel had received
   when stop landed, not just frames already decoded, so one
   non-blocking select picks up what arrived meanwhile. *)
let lead t =
  let conn_fds = readable_conns t in
  let fds = List.map fst conn_fds in
  if locked t (fun () -> t.stopping) then begin
    (match Unix.select fds [] [] 0.0 with
     | exception Unix.Unix_error _ -> ()
     | readable, _, _ -> read_ready t conn_fds readable);
    locked t (fun () ->
        t.reads_done <- true;
        Condition.broadcast t.cond)
  end
  else
    match Unix.select (t.listener :: t.pipe_r :: fds) [] [] (-1.0) with
    | exception Unix.Unix_error ((EINTR | EBADF), _, _) -> ()
    | readable, _, _ ->
      if List.mem t.pipe_r readable then begin
        try ignore (Unix.read t.pipe_r (Bytes.create 64) 0 64) with Unix.Unix_error _ -> ()
      end;
      if List.mem t.listener readable then handle_accept t;
      read_ready t conn_fds readable

(* ------------------------------------------------------------------ *)
(* Workers: leader/followers                                           *)
(* ------------------------------------------------------------------ *)

(* Run one dispatched request, then put its connection's next one on the
   dispatch queue. Returns with the server lock held. *)
let run_job t exec (c, req, t_dec) =
  let t0 = Metrics.now () in
  Metrics.record t.metrics Metrics.Queue (t0 -. t_dec);
  Metrics.incr t.metrics Metrics.Requests;
  let close =
    try process t exec c req
    with e ->
      respond t c (Wire.Error { code = Wire.Runtime; message = Printexc.to_string e });
      true
  in
  Metrics.record t.metrics Metrics.Request (Metrics.now () -. t0);
  Mutex.lock t.lock;
  if close then c.draining <- true;
  if c.draining then begin
    Queue.clear c.pending;
    c.busy <- false;
    destroy_conn t c
  end
  else if not (Queue.is_empty c.pending) then begin
    (* keep [busy] set: the connection's next request goes straight
       back on the dispatch queue, preserving per-connection order *)
    let req, t_dec = Queue.pop c.pending in
    Queue.push (c, req, t_dec) t.queue
  end
  else c.busy <- false;
  t.busy_count <- t.busy_count - 1

(* Each worker loops: take a queued request if there is one, else lead
   if no one does, else wait as a follower. The leader reads requests,
   gives up the lead and runs the first one on its own domain; whoever
   leaves queued work or an empty lead behind wakes one follower for it,
   so a lone worker reads, runs and writes without a hand-off. *)
let worker_loop t factory () =
  let exec = factory () in
  Mutex.lock t.lock;
  let rec next () =
    if not (Queue.is_empty t.queue) then begin
      let job = Queue.pop t.queue in
      t.busy_count <- t.busy_count + 1;
      if not (Queue.is_empty t.queue && (t.leading || t.reads_done)) then
        Condition.signal t.cond;
      Mutex.unlock t.lock;
      run_job t exec job;
      if t.reads_done && t.busy_count = 0 then Condition.broadcast t.cond;
      next ()
    end
    else if t.reads_done && t.busy_count = 0 then Mutex.unlock t.lock
    else if not (t.leading || t.reads_done) then begin
      t.leading <- true;
      Mutex.unlock t.lock;
      lead t;
      Mutex.lock t.lock;
      t.leading <- false;
      next ()
    end
    else begin
      Condition.wait t.cond t.lock;
      next ()
    end
  in
  next ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let start ?(config = default_config) factory =
  if config.workers < 1 then invalid_arg "Server.start: workers must be >= 1";
  if config.fetch_window < 1 then invalid_arg "Server.start: fetch_window must be >= 1";
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
      leading = false;
      stopping = false;
      reads_done = false;
      pipe_r;
      pipe_w;
      io_buf = Wire.buf_create ();
      workers = [];
    }
  in
  t.workers <- List.init config.workers (fun _ -> Domain.spawn (worker_loop t factory));
  t

let stop t =
  let workers =
    locked t (fun () ->
        t.stopping <- true;
        let ws = t.workers in
        t.workers <- [];
        ws)
  in
  if workers <> [] then begin
    (try ignore (Unix.write_substring t.pipe_w "x" 0 1) with Unix.Unix_error _ -> ());
    (* The workers exit once the final sweep is read and every queued
       and in-flight request has finished and written its response. *)
    List.iter Domain.join workers;
    locked t (fun () ->
        let cs = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
        List.iter
          (fun c ->
            (try ignore (Wire.send_response t.io_buf c.fd Wire.Bye)
             with Unix.Unix_error _ | Wire.Codec _ -> ());
            destroy_conn t c)
          cs);
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      [ t.listener; t.pipe_r; t.pipe_w ]
  end
