(* Integration tests for the wire-protocol server and typed client over
   loopback: byte-identical results vs the in-process session, answers
   written whole in window-sized frames, concurrent clients through the
   pool, error containment (a malformed frame kills only its own
   connection, a peer that stops reading is cut off), client timeouts,
   admission control at both levels, a reply-less Close_stmt pipelined
   with the next request, a follower that leads while the leader runs,
   and shutdown that drains in-flight requests. *)

module Doc = Ppfx_xml.Doc
module Loader = Ppfx_shred.Loader
module Session = Ppfx_service.Session
module Metrics = Ppfx_service.Metrics
module Xmark = Ppfx_workloads.Xmark
module Wire = Ppfx_net.Wire
module Server = Ppfx_net.Server
module Client = Ppfx_client.Client
module Pool = Ppfx_client.Pool
module Row = Ppfx_client.Row

let doc = Doc.of_tree (Xmark.generate ~items_per_region:3 ())
let store = Loader.shred (Xmark.schema ()) doc

let factory () = Server.session_executor (Session.create store)

let with_server ?(config = Server.default_config) f =
  let server = Server.start ~config factory in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f server)

let with_client server f =
  let c = Client.connect ~port:(Server.port server) () in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

(* Raw protocol ends for the tests that speak to the server below
   [Client]; one test at a time uses them, as one connection end would. *)
let raw_sbuf = Wire.buf_create ()
let raw_rbuf = Wire.buf_create ()
let send fd req = ignore (Wire.send_request raw_sbuf fd req)
let recv fd = Wire.recv_response raw_rbuf fd

let readable fd = match Unix.select [ fd ] [] [] 0.0 with [], _, _ -> false | _ -> true

let raw_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  send fd (Wire.Hello { version = Wire.protocol_version; client = "raw" });
  (match recv fd with
   | Some (Wire.Welcome _) -> ()
   | _ -> Alcotest.fail "no Welcome on raw connection");
  fd

(* ------------------------------------------------------------------ *)
(* Result identity vs the in-process session                           *)
(* ------------------------------------------------------------------ *)

let workload_identical () =
  with_server @@ fun server ->
  with_client server @@ fun c ->
  let session = Session.create store in
  List.iter
    (fun (name, q) ->
      Alcotest.(check (list int))
        (name ^ " over the wire = in-process")
        (Session.run_ids session q) (Client.run_ids c q))
    Xmark.queries

let rows_identical_windowed () =
  (* A 2-row window splits each answer into many [Rows] frames; the
     reassembled result must still equal the in-process one, row for
     row, value for value. *)
  with_server ~config:{ Server.default_config with fetch_window = 2 }
  @@ fun server ->
  with_client server @@ fun c ->
  let session = Session.create store in
  List.iter
    (fun (name, q) ->
      let wire = Client.run_result c q in
      let local =
        let p = Session.prepare session q in
        match Session.sql p with
        | None -> { Ppfx_minidb.Engine.columns = []; rows = [] }
        | Some _ -> Session.execute session p
      in
      Alcotest.(check (list string))
        (name ^ " columns") local.Ppfx_minidb.Engine.columns
        wire.Ppfx_minidb.Engine.columns;
      Alcotest.(check int)
        (name ^ " row count")
        (List.length local.Ppfx_minidb.Engine.rows)
        (List.length wire.Ppfx_minidb.Engine.rows);
      List.iter2
        (fun a b ->
          Alcotest.(check bool) (name ^ " row values") true
            (Array.for_all2 Ppfx_minidb.Value.equal a b))
        local.Ppfx_minidb.Engine.rows wire.Ppfx_minidb.Engine.rows)
    [ "Q1", Xmark.query "Q1"; "Q3", Xmark.query "Q3"; "Q6", Xmark.query "Q6" ]

let typed_rows () =
  with_server @@ fun server ->
  with_client server @@ fun c ->
  let stmt = Client.prepare c (Xmark.query "Q1") in
  let cols = Client.columns stmt in
  Alcotest.(check bool) "has columns" true (cols <> []);
  let first = (List.hd cols).Wire.name in
  let rows = Client.execute c stmt in
  Alcotest.(check bool) "has rows" true (rows <> []);
  List.iter
    (fun row ->
      Alcotest.(check bool) "first column is an int id" true
        (Row.int_exn row first >= 0);
      match Row.int row "no_such_column" with
      | _ -> Alcotest.fail "missing column accepted"
      | exception Row.No_column _ -> ())
    rows;
  Client.close_stmt c stmt

(* One text prepared with and without values: two statements, one with
   [(id, dewey_pos)] and one with [(id, dewey_pos, value)], over the same
   node ids; each value is the node's string value. *)
let values_flag () =
  with_server @@ fun server ->
  with_client server @@ fun c ->
  let q = Xmark.query "Q1" in
  let plain = Client.prepare c q and valued = Client.prepare ~values:true c q in
  let names s = List.map (fun col -> col.Wire.name) (Client.columns s) in
  Alcotest.(check bool) "two statements" true (Client.stmt_id plain <> Client.stmt_id valued);
  Alcotest.(check (list string)) "without values" [ "id"; "dewey_pos" ] (names plain);
  Alcotest.(check (list string)) "with values" [ "id"; "dewey_pos"; "value" ] (names valued);
  let plain_rows = Client.execute_result c plain and valued_rows = Client.execute_result c valued in
  Alcotest.(check (list int)) "same ids"
    (Ppfx_translate.Translate.result_ids plain_rows)
    (Ppfx_translate.Translate.result_ids valued_rows);
  List.iter
    (fun row ->
      Alcotest.(check string) "value is the string value"
        (Doc.element doc (Row.int_exn row "id")).Doc.string_value (Row.text_exn row "value"))
    (Client.execute c valued);
  Client.close_stmt c plain;
  Client.close_stmt c valued

(* A statement runs through the handle its Prepare returned: with a
   one-entry plan cache, preparing B evicts A, and executing A still
   returns its rows without preparing or looking it up again. *)
let prepared_outlives_eviction () =
  let session = Session.create ~cache_capacity:1 store in
  let config = { Server.default_config with workers = 1 } in
  let server = Server.start ~config (fun () -> Server.session_executor session) in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  with_client server @@ fun c ->
  let qa = Xmark.query "Q1" and qb = Xmark.query "Q2" in
  let expected = Session.run_ids (Session.create store) qa in
  let a = Client.prepare c qa in
  let b = Client.prepare c qb in
  let m = Session.metrics session in
  Alcotest.(check int) "B evicted A" 1 (Metrics.get m Metrics.Evictions);
  Alcotest.(check (list int)) "A still answers"
    expected (Ppfx_translate.Translate.result_ids (Client.execute_result c a));
  Alcotest.(check int) "no prepare on execute" 2 (Metrics.get m Metrics.Prepares);
  Alcotest.(check int) "one entry cached" 1 (Session.cache_length session);
  Client.close_stmt c a;
  Client.close_stmt c b

(* A client of an older protocol version is refused at the handshake,
   and its connection is closed. *)
let old_version_refused version () =
  with_server @@ fun server ->
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
  send fd (Wire.Hello { version; client = "old" });
  (match recv fd with
   | Some (Wire.Error { code = Wire.Version_mismatch; _ }) -> ()
   | _ -> Alcotest.fail "expected Version_mismatch");
  match recv fd with
  | None -> ()
  | Some _ -> Alcotest.fail "connection not closed after Version_mismatch"
  | exception Wire.Codec Wire.Truncated -> ()

(* A [Close_stmt] has no reply, so a client can write it with its next
   request: Prepare, Execute, Close_stmt and Ping in one write are
   answered by exactly Prepared, Rows and Pong, and the server has
   closed the statement before it reads anything later. *)
let pipelined_close () =
  with_server @@ fun server ->
  let fd = raw_connect (Server.port server) in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  (* Statement ids count from 1 on each connection. *)
  List.iter (Wire.queue_request raw_sbuf)
    [
      Wire.Prepare { query = Xmark.query "Q1"; values = false };
      Wire.Execute { stmt = 1 };
      Wire.Close_stmt { stmt = 1 };
    ];
  send fd Wire.Ping;
  (match recv fd with
   | Some (Wire.Prepared { stmt = 1; _ }) -> ()
   | _ -> Alcotest.fail "expected Prepared");
  (match recv fd with
   | Some (Wire.Rows { stmt = 1; rows; more = false }) ->
     Alcotest.(check bool) "rows" true (rows <> [])
   | _ -> Alcotest.fail "expected the whole answer in one Rows");
  (match recv fd with
   | Some Wire.Pong -> ()
   | _ -> Alcotest.fail "expected Pong next: Close_stmt has no reply");
  send fd (Wire.Execute { stmt = 1 });
  match recv fd with
  | Some (Wire.Error { code = Wire.Bad_statement; _ }) -> ()
  | _ -> Alcotest.fail "a closed statement still executes"

(* The rows an in-process session answers [q] with. *)
let local_rows q =
  let session = Session.create store in
  List.length (Session.execute session (Session.prepare session q)).Ppfx_minidb.Engine.rows

(* [Rows] frames of one answer until the one without [more]: each
   frame's row count, in order. *)
let recv_answer fd =
  let rec go acc =
    match recv fd with
    | Some (Wire.Rows { rows; more; _ }) ->
      let acc = List.length rows :: acc in
      if more then go acc else List.rev acc
    | _ -> Alcotest.fail "expected Rows"
  in
  go []

(* An answer goes out whole: with a 2-row window, an [Execute] and a
   [Ping] in one write get ceil(rows/2) [Rows] frames, [more] on all but
   the last, and then [Pong], with no request in between. *)
let answer_written_whole () =
  with_server ~config:{ Server.default_config with fetch_window = 2 } @@ fun server ->
  let fd = raw_connect (Server.port server) in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let q = "//item/name" in
  let n = local_rows q in
  Alcotest.(check bool) "more than two rows" true (n > 2);
  send fd (Wire.Prepare { query = q; values = false });
  (match recv fd with
   | Some (Wire.Prepared { stmt = 1; _ }) -> ()
   | _ -> Alcotest.fail "expected Prepared");
  Wire.queue_request raw_sbuf (Wire.Execute { stmt = 1 });
  send fd Wire.Ping;
  let frames = recv_answer fd in
  Alcotest.(check int) "frames" ((n + 1) / 2) (List.length frames);
  Alcotest.(check int) "rows" n (List.fold_left ( + ) 0 frames);
  Alcotest.(check bool) "full frames but the last" true
    (List.for_all (( = ) 2) (List.filteri (fun i _ -> i < List.length frames - 1) frames));
  match recv fd with
  | Some Wire.Pong -> ()
  | _ -> Alcotest.fail "expected Pong after the answer"

(* A [Query]'s statement is not kept: executing its id is answered
   [Bad_statement]. *)
let query_stmt_not_kept () =
  with_server @@ fun server ->
  let fd = raw_connect (Server.port server) in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  send fd (Wire.Query { query = Xmark.query "Q1"; values = false });
  let stmt =
    match recv fd with
    | Some (Wire.Prepared { stmt; _ }) -> stmt
    | _ -> Alcotest.fail "expected Prepared"
  in
  ignore (recv_answer fd);
  send fd (Wire.Execute { stmt });
  match recv fd with
  | Some (Wire.Error { code = Wire.Bad_statement; _ }) -> ()
  | _ -> Alcotest.fail "a Query's statement executes again"

(* ------------------------------------------------------------------ *)
(* Concurrency: a pool of clients against one server                   *)
(* ------------------------------------------------------------------ *)

let concurrent_pool () =
  with_server ~config:{ Server.default_config with workers = 2 }
  @@ fun server ->
  let session = Session.create store in
  let expected =
    List.map (fun (_, q) -> q, Session.run_ids session q) Xmark.queries
  in
  let pool = Pool.create ~size:4 ~port:(Server.port server) () in
  let mismatches = Atomic.make 0 in
  let threads =
    List.init 8 (fun i ->
        Thread.create
          (fun () ->
            List.iteri
              (fun j (q, want) ->
                if (i + j) mod 3 = 0 then ignore (Pool.with_conn pool Client.ping);
                if Pool.run_ids pool q <> want then Atomic.incr mismatches)
              expected)
          ())
  in
  List.iter Thread.join threads;
  Pool.close pool;
  Alcotest.(check int) "every concurrent result identical" 0
    (Atomic.get mismatches);
  let m = Server.metrics server in
  Alcotest.(check bool) "connections were pooled" true (Metrics.get m Metrics.Accepted <= 4);
  Alcotest.(check bool) "traffic counted" true
    (Metrics.get m Metrics.Bytes_in > 0 && Metrics.get m Metrics.Bytes_out > 0)

(* ------------------------------------------------------------------ *)
(* Error containment                                                   *)
(* ------------------------------------------------------------------ *)

let query_error_keeps_connection () =
  with_server @@ fun server ->
  with_client server @@ fun c ->
  (match Client.run_ids c "//a[" with
   | _ -> Alcotest.fail "malformed XPath accepted"
   | exception Client.Server_error { code = Wire.Parse_error; _ } -> ());
  (match Client.prepare c (Xmark.query "QA") with
   | stmt -> Client.close_stmt c stmt
   | exception Client.Server_error { code = Wire.Unsupported; _ } -> ());
  (* The connection survived both failures. *)
  Client.ping c;
  Alcotest.(check bool) "still serves queries" true
    (Client.run_ids c (Xmark.query "Q1") <> [])

let malformed_frame_isolated () =
  with_server @@ fun server ->
  with_client server @@ fun healthy ->
  let fd = raw_connect (Server.port server) in
  (* A frame with an unknown tag: the offending connection gets a
     Protocol error frame and is closed... *)
  let frame = "\x00\x00\x00\x05\x50\xde\xad\xbe\xef" in
  ignore (Unix.write_substring fd frame 0 (String.length frame));
  (match recv fd with
   | Some (Wire.Error { code = Wire.Protocol; _ }) -> ()
   | Some _ -> Alcotest.fail "expected a Protocol error frame"
   | None -> Alcotest.fail "connection closed without an error frame");
  (match recv fd with
   | None -> ()
   | Some _ -> Alcotest.fail "connection not closed after protocol error"
   | exception Wire.Codec Wire.Truncated -> ());
  Unix.close fd;
  (* ...while every other connection keeps serving. *)
  Client.ping healthy;
  Alcotest.(check bool) "other connections unaffected" true
    (Client.run_ids healthy (Xmark.query "Q1") <> []);
  (* And new connections are still accepted. *)
  with_client server @@ fun fresh -> Client.ping fresh

let abrupt_disconnect_isolated () =
  with_server @@ fun server ->
  with_client server @@ fun healthy ->
  (* Kill a connection mid-request: send Execute for a prepared
     statement and slam the socket shut without reading. *)
  let fd = raw_connect (Server.port server) in
  send fd (Wire.Prepare { query = Xmark.query "Q1"; values = false });
  (match recv fd with
   | Some (Wire.Prepared { stmt; _ }) ->
     send fd (Wire.Execute { stmt })
   | _ -> Alcotest.fail "prepare failed");
  Unix.close fd;
  (* The server must absorb the dead peer (EPIPE/ECONNRESET on its
     pending write) and keep everyone else alive. *)
  Client.ping healthy;
  Alcotest.(check bool) "server survives dead peers" true
    (Client.run_ids healthy (Xmark.query "Q3") <> [])

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)
(* ------------------------------------------------------------------ *)

let connection_admission () =
  with_server ~config:{ Server.default_config with max_connections = 1 }
  @@ fun server ->
  with_client server @@ fun first ->
  (match Client.connect ~port:(Server.port server) () with
   | c ->
     Client.close c;
     Alcotest.fail "second connection accepted over max_connections"
   | exception Client.Server_error { code = Wire.Admission; _ } -> ());
  (* The admitted connection is unaffected by the rejection. *)
  Client.ping first;
  let m = Server.metrics server in
  Alcotest.(check int) "one accepted" 1 (Metrics.get m Metrics.Accepted);
  Alcotest.(check bool) "rejection counted" true (Metrics.get m Metrics.Rejected >= 1);
  (* Closing the admitted connection frees the slot. *)
  Client.close first;
  let rec retry n =
    match Client.connect ~port:(Server.port server) () with
    | c -> Client.close c
    | exception Client.Server_error { code = Wire.Admission; _ } when n > 0 ->
      Thread.delay 0.05;
      retry (n - 1)
  in
  retry 40

let request_admission () =
  (* queue_depth 0: every request is turned away at the dispatch queue —
     including the handshake — but the TCP accept itself succeeded, so
     the rejection is request-level (accepted=1, not 0). *)
  with_server ~config:{ Server.default_config with queue_depth = 0 }
  @@ fun server ->
  (match Client.connect ~port:(Server.port server) () with
   | c ->
     Client.close c;
     Alcotest.fail "request admitted through a zero-depth queue"
   | exception Client.Server_error { code = Wire.Admission; _ } -> ());
  let m = Server.metrics server in
  Alcotest.(check int) "connection was accepted" 1 (Metrics.get m Metrics.Accepted);
  Alcotest.(check bool) "request rejected" true (Metrics.get m Metrics.Rejected >= 1)

(* ------------------------------------------------------------------ *)
(* Pool retries                                                        *)
(* ------------------------------------------------------------------ *)

let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  Unix.close fd;
  port

let retries_exhausted_typed () =
  (* Nothing listens on the port: every attempt fails with ECONNREFUSED
     and the pool surfaces the typed exhaustion, not the raw Unix error. *)
  let pool =
    Pool.create ~size:1 ~retries:3 ~backoff:0.002 ~max_backoff:0.01 ~timeout:0.5
      ~port:(free_port ()) ()
  in
  (match Pool.run_ids pool "//person" with
   | _ -> Alcotest.fail "connect to a dead port must fail"
   | exception Pool.Retries_exhausted { attempts; last } ->
     Alcotest.(check int) "whole attempt budget spent" 3 attempts;
     (match last with
      | Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ()
      | e -> Alcotest.failf "unexpected last error: %s" (Printexc.to_string e)));
  Pool.close pool

let retry_reaches_late_server () =
  (* The server comes up only after the pool's first attempts have
     failed: the capped backoff must carry the operation through to the
     working connection instead of leaking the early refusals. *)
  let port = free_port () in
  let pool =
    Pool.create ~size:1 ~retries:10 ~backoff:0.02 ~max_backoff:0.1 ~timeout:1.0
      ~port ()
  in
  let server_cell = ref None in
  let starter =
    Thread.create
      (fun () ->
        Thread.delay 0.08;
        server_cell := Some (Server.start ~config:{ Server.default_config with port } factory))
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Thread.join starter;
      Pool.close pool;
      Option.iter Server.stop !server_cell)
    (fun () ->
      let session = Session.create store in
      Alcotest.(check (list int)) "retried query equals in-process"
        (Session.run_ids session (Xmark.query "Q1"))
        (Pool.run_ids pool (Xmark.query "Q1")))

let non_transient_not_retried () =
  with_server @@ fun server ->
  let pool = Pool.create ~size:1 ~retries:5 ~backoff:0.01 ~port:(Server.port server) () in
  Fun.protect
    ~finally:(fun () -> Pool.close pool)
    (fun () ->
      (* a query error is not transient: it must surface immediately as
         Server_error, not burn the retry budget *)
      match Pool.run_ids pool "//a[" with
      | _ -> Alcotest.fail "malformed XPath accepted"
      | exception Client.Server_error { code = Wire.Parse_error; _ } -> ()
      | exception Pool.Retries_exhausted _ ->
        Alcotest.fail "non-transient failure was retried")

(* ------------------------------------------------------------------ *)
(* One report                                                          *)
(* ------------------------------------------------------------------ *)

(* The server counts wire requests and the worker sessions count plan
   executions, so their sinks absorb into one report: after two one-shot
   runs it reads two plan executions and a nonzero request count. *)
let one_dump () =
  let sessions = ref [] and lock = Mutex.create () in
  let factory () =
    let s = Session.create store in
    Mutex.protect lock (fun () -> sessions := s :: !sessions);
    Server.session_executor s
  in
  let server = Server.start ~config:{ Server.default_config with workers = 2 } factory in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  with_client server (fun c ->
      ignore (Client.run c "//item/name");
      ignore (Client.run c "//keyword"));
  Server.stop server;
  let m = Metrics.create () in
  List.iter
    (fun s -> Metrics.absorb ~into:m s)
    (Server.metrics server :: List.map Session.metrics !sessions);
  Alcotest.(check int) "two plan executions" 2 (Metrics.get m Metrics.Queries);
  Alcotest.(check bool) "requests counted" true (Metrics.get m Metrics.Requests > 0);
  Alcotest.(check bool) "rows sent" true (Metrics.get m Metrics.Rows_sent > 0);
  Alcotest.(check int) "rows sent = rows produced" (Metrics.get m Metrics.Rows)
    (Metrics.get m Metrics.Rows_sent);
  let dump = Metrics.dump m in
  let line_with prefix =
    List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' dump)
  in
  Alcotest.(check bool) "dump reads queries 2" true
    (line_with "  service: queries 2," <> None);
  match line_with "  net: " with
  | None -> Alcotest.fail "no net line in the dump"
  | Some line ->
    let fields = List.map String.trim (String.split_on_char ',' line) in
    Alcotest.(check bool) "net line: nonzero requests" true
      (List.exists (fun f -> String.starts_with ~prefix:"requests " f && f <> "requests 0") fields)

(* ------------------------------------------------------------------ *)
(* Leader/followers                                                    *)
(* ------------------------------------------------------------------ *)

(* The run handle of [blocked_query] waits for the latch to open; a
   worker inside it sets [entered]. *)
type latch = {
  m : Mutex.t;
  cv : Condition.t;
  mutable entered : bool;
  mutable opened : bool;
}

let latch () = { m = Mutex.create (); cv = Condition.create (); entered = false; opened = false }

let blocked_query = Xmark.query "Q1"

let latched_factory l () =
  let exec = Server.session_executor (Session.create store) in
  let exec_prepare ~values q =
    let sql, run = exec.Server.exec_prepare ~values q in
    if q <> blocked_query then (sql, run)
    else
      ( sql,
        fun () ->
          Mutex.protect l.m (fun () ->
              l.entered <- true;
              Condition.broadcast l.cv;
              while not l.opened do
                Condition.wait l.cv l.m
              done);
          run () )
  in
  { exec with Server.exec_prepare }

let await_entered l =
  Mutex.protect l.m (fun () ->
      while not l.entered do
        Condition.wait l.cv l.m
      done)

let open_latch l =
  Mutex.protect l.m (fun () ->
      l.opened <- true;
      Condition.broadcast l.cv)

(* A's [Execute] of [blocked_query] on a raw connection, once a worker
   is blocked inside it. *)
let start_blocked server l =
  let a = raw_connect (Server.port server) in
  send a (Wire.Prepare { query = blocked_query; values = false });
  (match recv a with
   | Some (Wire.Prepared { stmt = 1; _ }) -> ()
   | _ -> Alcotest.fail "prepare failed");
  send a (Wire.Execute { stmt = 1 });
  await_entered l;
  a

(* Run [f] on a thread: whether it returned within [secs] (a failure
   must not hang the suite). *)
let finishes_within secs f =
  let finished = Atomic.make false in
  ignore (Thread.create (fun () -> f (); Atomic.set finished true) ());
  let deadline = Unix.gettimeofday () +. secs in
  while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  Atomic.get finished

let expect_rows a =
  match recv a with
  | Some (Wire.Rows { rows; more = false; _ }) ->
    Alcotest.(check bool) "A's rows" true (rows <> [])
  | _ -> Alcotest.fail "expected A's Rows"

(* With two workers and one blocked running A's request, the other reads
   and runs B's requests itself: B's Ping and a whole [Client.run]
   finish while A waits, and A's rows come once the latch opens. *)
let follower_leads () =
  let l = latch () in
  let server =
    Server.start ~config:{ Server.default_config with workers = 2 } (latched_factory l)
  in
  Fun.protect
    ~finally:(fun () ->
      open_latch l;
      Server.stop server)
  @@ fun () ->
  let a = start_blocked server l in
  Fun.protect ~finally:(fun () -> Unix.close a) @@ fun () ->
  let q = Xmark.query "Q3" and got = ref [] in
  Alcotest.(check bool) "B's Ping and run finish while A is blocked" true
    (finishes_within 5.0 (fun () ->
         with_client server (fun b ->
             Client.ping b;
             got := Client.run_ids b q)));
  Alcotest.(check (list int)) "B's answer" (Session.run_ids (Session.create store) q) !got;
  Alcotest.(check bool) "nothing for A before the latch opens" false (readable a);
  open_latch l;
  expect_rows a

(* ------------------------------------------------------------------ *)
(* Stalled peers                                                       *)
(* ------------------------------------------------------------------ *)

(* A server that never answers: a socket that listens but never accepts,
   so a connect completes in the kernel and the handshake gets no reply.
   [Client.connect ~timeout] raises instead of waiting, and so does a
   pool built with [~timeout]. *)
let client_timeout_fires () =
  let l = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close l) @@ fun () ->
  Unix.bind l (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen l 8;
  let port = match Unix.getsockname l with Unix.ADDR_INET (_, p) -> p | _ -> assert false in
  let raised = ref false in
  Alcotest.(check bool) "connect returns within 2 s" true
    (finishes_within 2.0 (fun () ->
         match Client.connect ~timeout:0.3 ~port () with
         | c -> Client.close c
         | exception Unix.Unix_error _ -> raised := true));
  Alcotest.(check bool) "connect raised Unix_error" true !raised;
  let pool = Pool.create ~size:1 ~retries:2 ~backoff:0.01 ~timeout:0.3 ~port () in
  let pool_raised = ref false in
  Alcotest.(check bool) "the pool returns within 2 s" true
    (finishes_within 2.0 (fun () ->
         match Pool.run_ids pool "//item" with
         | _ -> ()
         | exception Pool.Retries_exhausted _ -> pool_raised := true));
  Alcotest.(check bool) "the pool raised" true !pool_raised;
  Pool.close pool

(* A query the test executor answers with [big_rows], about 20 MB on the
   wire: more than the socket buffers of both ends hold. *)
let big_query = "big answer"

let big_rows =
  let text = Ppfx_minidb.Value.Str (String.make 200 'x') in
  List.init 100_000 (fun i -> [| Ppfx_minidb.Value.Int i; text |])

let big_factory () =
  let exec = factory () in
  let exec_prepare ~values q =
    if q <> big_query then exec.Server.exec_prepare ~values q
    else (None, fun () -> { Ppfx_minidb.Engine.columns = [ "id"; "value" ]; rows = big_rows })
  in
  { exec with Server.exec_prepare }

(* A peer that sends a [Query] with a large answer and never reads holds
   its worker only for the write stall bound (10 s): meanwhile the other
   worker serves another client, and then the stalled connection is
   closed. *)
let stalled_reader_cut_off () =
  let server = Server.start ~config:{ Server.default_config with workers = 2 } big_factory in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.setsockopt_int fd Unix.SO_RCVBUF 4096;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
  send fd (Wire.Hello { version = Wire.protocol_version; client = "stalled" });
  (match recv fd with Some (Wire.Welcome _) -> () | _ -> Alcotest.fail "no Welcome");
  let sent = Unix.gettimeofday () in
  send fd (Wire.Query { query = big_query; values = false });
  let q = Xmark.query "Q3" and got = ref [] in
  Alcotest.(check bool) "another client is served meanwhile" true
    (finishes_within 5.0 (fun () -> with_client server (fun b -> got := Client.run_ids b q)));
  Alcotest.(check (list int)) "its answer" (Session.run_ids (Session.create store) q) !got;
  let m = Server.metrics server in
  while Metrics.get m Metrics.Active > 0 && Unix.gettimeofday () -. sent < 15.0 do
    Thread.delay 0.05
  done;
  Alcotest.(check int) "the stalled connection is closed within 15 s" 0
    (Metrics.get m Metrics.Active)

(* ------------------------------------------------------------------ *)
(* Shutdown drain                                                      *)
(* ------------------------------------------------------------------ *)

(* [stop] wakes the leader through its pipe and the followers through
   the final sweep: an idle server stops at once, whatever its worker
   count. *)
let idle_stop_is_prompt () =
  List.iter
    (fun workers ->
      let server = Server.start ~config:{ Server.default_config with workers } factory in
      with_client server Client.ping;
      if not (finishes_within 1.0 (fun () -> Server.stop server)) then
        Alcotest.failf "stop with %d workers took over 1 s" workers)
    [ 1; 2; 4 ]

(* A request still running when [stop] lands writes its response, and
   only then does the connection get [Bye]. *)
let stop_drains_blocked () =
  let l = latch () in
  let server =
    Server.start ~config:{ Server.default_config with workers = 2 } (latched_factory l)
  in
  let a = start_blocked server l in
  Fun.protect ~finally:(fun () -> Unix.close a) @@ fun () ->
  let stopper = Thread.create Server.stop server in
  Thread.delay 0.05;
  open_latch l;
  expect_rows a;
  (match recv a with
   | Some Wire.Bye | None -> ()
   | Some _ -> Alcotest.fail "expected Bye after the drained response"
   | exception Wire.Codec Wire.Truncated -> ());
  Thread.join stopper

let shutdown_drains () =
  let server = Server.start factory in
  let fd = raw_connect (Server.port server) in
  send fd (Wire.Prepare { query = Xmark.query "Q1"; values = false });
  let stmt =
    match recv fd with
    | Some (Wire.Prepared { stmt; _ }) -> stmt
    | _ -> Alcotest.fail "prepare failed"
  in
  (* Fire the request and only then stop the server: the response must
     still arrive (drained), followed by Bye. *)
  send fd (Wire.Execute { stmt });
  let stopper = Thread.create (fun () -> Server.stop server) () in
  (match recv fd with
   | Some (Wire.Rows { rows; more; _ }) ->
     Alcotest.(check bool) "in-flight request completed" true (rows <> []);
     Alcotest.(check bool) "the whole answer in one frame" false more
   | Some r ->
     Alcotest.failf "expected Rows, got %s"
       (match r with
        | Wire.Error { message; _ } -> "Error: " ^ message
        | Wire.Bye -> "Bye"
        | _ -> "other")
   | None -> Alcotest.fail "connection closed before the response");
  (match recv fd with
   | Some Wire.Bye | None -> ()
   | Some _ -> Alcotest.fail "expected Bye after drain"
   | exception Wire.Codec Wire.Truncated -> ());
  Thread.join stopper;
  Unix.close fd;
  (* stop is idempotent. *)
  Server.stop server

let stopped_server_refuses () =
  let server = Server.start factory in
  let port = Server.port server in
  Server.stop server;
  match Client.connect ~port () with
  | c ->
    Client.close c;
    Alcotest.fail "stopped server accepted a connection"
  | exception _ -> ()

let () =
  Alcotest.run "net"
    [
      ( "identity",
        [
          Alcotest.test_case "XMark workload over the wire" `Quick
            workload_identical;
          Alcotest.test_case "windowed fetch reassembles rows" `Quick
            rows_identical_windowed;
          Alcotest.test_case "typed row accessors" `Quick typed_rows;
          Alcotest.test_case "values flag: 2 and 3 columns, same ids" `Quick values_flag;
          Alcotest.test_case "version-1 Hello is refused" `Quick (old_version_refused 1);
          Alcotest.test_case "version-2 Hello is refused" `Quick (old_version_refused 2);
          Alcotest.test_case "version-3 Hello is refused" `Quick (old_version_refused 3);
          Alcotest.test_case "version-4 Hello is refused" `Quick (old_version_refused 4);
          Alcotest.test_case "Close_stmt pipelined without a reply" `Quick pipelined_close;
          Alcotest.test_case "an answer is written whole" `Quick answer_written_whole;
          Alcotest.test_case "a Query's statement is not kept" `Quick query_stmt_not_kept;
          Alcotest.test_case "a statement outlives its cache entry" `Quick
            prepared_outlives_eviction;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "8 threads through a 4-conn pool" `Quick concurrent_pool;
          Alcotest.test_case "a follower leads while the leader runs" `Quick follower_leads;
        ] );
      ( "containment",
        [
          Alcotest.test_case "query errors keep the connection" `Quick
            query_error_keeps_connection;
          Alcotest.test_case "malformed frame kills only its connection" `Quick
            malformed_frame_isolated;
          Alcotest.test_case "abrupt disconnect mid-request" `Quick
            abrupt_disconnect_isolated;
          Alcotest.test_case "a peer that stops reading is cut off" `Quick
            stalled_reader_cut_off;
          Alcotest.test_case "client timeouts fire" `Quick client_timeout_fires;
        ] );
      ( "admission",
        [
          Alcotest.test_case "connection-level" `Quick connection_admission;
          Alcotest.test_case "request-level" `Quick request_admission;
        ] );
      ( "retries",
        [
          Alcotest.test_case "typed exhaustion on a dead port" `Quick
            retries_exhausted_typed;
          Alcotest.test_case "backoff reaches a late server" `Quick
            retry_reaches_late_server;
          Alcotest.test_case "non-transient errors surface at once" `Quick
            non_transient_not_retried;
        ] );
      ( "metrics",
        [ Alcotest.test_case "server and sessions absorb into one dump" `Quick one_dump ] );
      ( "shutdown",
        [
          Alcotest.test_case "drains in-flight requests" `Quick shutdown_drains;
          Alcotest.test_case "idle stop returns within 1 s (1, 2, 4 workers)" `Quick
            idle_stop_is_prompt;
          Alcotest.test_case "a blocked request is answered before Bye" `Quick
            stop_drains_blocked;
          Alcotest.test_case "stopped server refuses" `Quick
            stopped_server_refuses;
        ] );
    ]
