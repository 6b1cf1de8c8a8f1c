(* Integration tests for the wire-protocol server and typed client over
   loopback: byte-identical results vs the in-process session, windowed
   fetch backpressure, concurrent clients through the pool, error
   containment (a malformed frame kills only its own connection),
   admission control at both levels, and shutdown that drains in-flight
   requests. *)

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

let store =
  let doc = Doc.of_tree (Xmark.generate ~items_per_region:3 ()) in
  Loader.shred (Xmark.schema ()) doc

let factory () = Server.session_executor (Session.create store)

let with_server ?(config = Server.default_config) f =
  let server = Server.start ~config factory in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f server)

let with_client server f =
  let c = Client.connect ~port:(Server.port server) () in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

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
  (* A 2-row fetch window forces the Execute/Fetch/more loop; the
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
  let doc = List.hd store.Loader.docs in
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

(* A version-1 client is refused at the handshake, and its connection is
   closed. *)
let old_version_refused () =
  with_server @@ fun server ->
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
  ignore (Wire.send_request fd (Wire.Hello { version = 1; client = "v1" }));
  (match Wire.recv_response fd with
   | Some (Wire.Error { code = Wire.Version_mismatch; _ }) -> ()
   | _ -> Alcotest.fail "expected Version_mismatch");
  match Wire.recv_response fd with
  | None -> ()
  | Some _ -> Alcotest.fail "connection not closed after Version_mismatch"
  | exception Wire.Codec Wire.Truncated -> ()

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

let raw_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  ignore
    (Wire.send_request fd
       (Wire.Hello { version = Wire.protocol_version; client = "raw" }));
  (match Wire.recv_response fd with
   | Some (Wire.Welcome _) -> ()
   | _ -> Alcotest.fail "no Welcome on raw connection");
  fd

let malformed_frame_isolated () =
  with_server @@ fun server ->
  with_client server @@ fun healthy ->
  let fd = raw_connect (Server.port server) in
  (* A frame with an unknown tag: the offending connection gets a
     Protocol error frame and is closed... *)
  ignore (Wire.write_frame fd "\x50\xde\xad\xbe\xef");
  (match Wire.recv_response fd with
   | Some (Wire.Error { code = Wire.Protocol; _ }) -> ()
   | Some _ -> Alcotest.fail "expected a Protocol error frame"
   | None -> Alcotest.fail "connection closed without an error frame");
  (match Wire.recv_response fd with
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
  ignore (Wire.send_request fd (Wire.Prepare { query = Xmark.query "Q1"; values = false }));
  (match Wire.recv_response fd with
   | Some (Wire.Prepared { stmt; _ }) ->
     ignore (Wire.send_request fd (Wire.Execute { stmt; window = 0 }))
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
(* Shutdown drain                                                      *)
(* ------------------------------------------------------------------ *)

let shutdown_drains () =
  let server = Server.start factory in
  let fd = raw_connect (Server.port server) in
  ignore (Wire.send_request fd (Wire.Prepare { query = Xmark.query "Q1"; values = false }));
  let stmt =
    match Wire.recv_response fd with
    | Some (Wire.Prepared { stmt; _ }) -> stmt
    | _ -> Alcotest.fail "prepare failed"
  in
  (* Fire the request and only then stop the server: the response must
     still arrive (drained), followed by Bye. *)
  ignore (Wire.send_request fd (Wire.Execute { stmt; window = 0 }));
  let stopper = Thread.create (fun () -> Server.stop server) () in
  (match Wire.recv_response fd with
   | Some (Wire.Rows { rows; more; _ }) ->
     Alcotest.(check bool) "in-flight request completed" true (rows <> []);
     Alcotest.(check bool) "no dangling cursor" false more
   | Some r ->
     Alcotest.failf "expected Rows, got %s"
       (match r with
        | Wire.Error { message; _ } -> "Error: " ^ message
        | Wire.Bye -> "Bye"
        | _ -> "other")
   | None -> Alcotest.fail "connection closed before the response");
  (match Wire.recv_response fd with
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
          Alcotest.test_case "version-1 Hello is refused" `Quick old_version_refused;
          Alcotest.test_case "a statement outlives its cache entry" `Quick
            prepared_outlives_eviction;
        ] );
      ( "concurrency",
        [ Alcotest.test_case "8 threads through a 4-conn pool" `Quick
            concurrent_pool ] );
      ( "containment",
        [
          Alcotest.test_case "query errors keep the connection" `Quick
            query_error_keeps_connection;
          Alcotest.test_case "malformed frame kills only its connection" `Quick
            malformed_frame_isolated;
          Alcotest.test_case "abrupt disconnect mid-request" `Quick
            abrupt_disconnect_isolated;
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
          Alcotest.test_case "stopped server refuses" `Quick
            stopped_server_refuses;
        ] );
    ]
