module Wire = Ppfx_net.Wire
module Engine = Ppfx_minidb.Engine
module Translate = Ppfx_translate.Translate

exception Server_error of { code : Wire.error_code; message : string }
exception Protocol_error of string

type t = {
  fd : Unix.file_descr;
  max_frame : int;
  sbuf : Wire.buf;  (* every request frame is encoded into and written from it *)
  rbuf : Wire.buf;  (* every response frame is read into and decoded from it *)
  mutable server_name : string;
  mutable server_shards : int;
  mutable closed : bool;
}

type stmt = {
  id : int;
  cols : Wire.column list;
  empty : bool;
  sql_text : string option;
}

let resolve host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found -> raise (Protocol_error ("cannot resolve host " ^ host)))

let recv t =
  match Wire.recv_response ~max_frame:t.max_frame t.rbuf t.fd with
  | None -> raise (Protocol_error "connection closed by server")
  | Some resp -> resp
  | exception Wire.Codec e -> raise (Protocol_error (Wire.codec_error_to_string e))

(* The next response; typed error frames raise. *)
let reply t =
  match recv t with
  | Wire.Error { code; message } -> raise (Server_error { code; message })
  | Wire.Bye ->
    t.closed <- true;
    raise (Protocol_error "server closed the connection")
  | resp -> resp

(* Send [req], behind any queued [Close_stmt]s, and read its response. *)
let request t req =
  if t.closed then raise (Protocol_error "connection is closed");
  ignore (Wire.send_request t.sbuf t.fd req);
  reply t

let unexpected what = raise (Protocol_error ("unexpected response to " ^ what))

let connect ?(host = "127.0.0.1") ?(client_name = "ppfx-client")
    ?(max_frame = Wire.default_max_frame) ?timeout ~port () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     let addr = Unix.ADDR_INET (resolve host, port) in
     (match timeout with
      | None -> Unix.connect fd addr
      | Some dt ->
        (* Bounded connect: nonblocking connect + select, then the socket
           timeouts bound every later send/recv (a stalled server surfaces
           as EAGAIN, a transport error for the caller's retry policy). *)
        Unix.set_nonblock fd;
        (try Unix.connect fd addr with
         | Unix.Unix_error ((EINPROGRESS | EWOULDBLOCK | EAGAIN), _, _) ->
           (match Unix.select [] [ fd ] [] dt with
            | _, [], _ ->
              raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", host))
            | _ ->
              (match Unix.getsockopt_error fd with
               | Some err -> raise (Unix.Unix_error (err, "connect", host))
               | None -> ())));
        Unix.clear_nonblock fd;
        (try
           Unix.setsockopt_float fd Unix.SO_RCVTIMEO dt;
           Unix.setsockopt_float fd Unix.SO_SNDTIMEO dt
         with Unix.Unix_error _ -> ()));
     Unix.setsockopt fd Unix.TCP_NODELAY true
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  let t =
    {
      fd;
      max_frame;
      sbuf = Wire.buf_create ();
      rbuf = Wire.buf_create ();
      server_name = "";
      server_shards = 1;
      closed = false;
    }
  in
  (try
     match
       request t (Wire.Hello { version = Wire.protocol_version; client = client_name })
     with
     | Wire.Welcome { version = _; server; shards } ->
       t.server_name <- server;
       t.server_shards <- shards
     | _ -> unexpected "Hello"
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  t

let close t =
  if not t.closed then begin
    t.closed <- true;
    (try ignore (Wire.send_request t.sbuf t.fd Wire.Quit) with _ -> ());
    (* Read until Bye/EOF so the server sees an orderly shutdown. *)
    (try
       let rec drain () =
         match Wire.recv_response ~max_frame:t.max_frame t.rbuf t.fd with
         | Some Wire.Bye | None -> ()
         | Some _ -> drain ()
       in
       drain ()
     with _ -> ());
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let ping t = match request t Wire.Ping with Wire.Pong -> () | _ -> unexpected "Ping"

let server_name t = t.server_name
let server_shards t = t.server_shards

let prepare ?(values = false) t query =
  match request t (Wire.Prepare { query; values }) with
  | Wire.Prepared { stmt; columns; empty; sql } ->
    { id = stmt; cols = columns; empty; sql_text = sql }
  | _ -> unexpected "Prepare"

let stmt_id s = s.id
let columns s = s.cols
let is_empty s = s.empty
let sql s = s.sql_text

(* The rows of an answer's first [Rows] frame and of every frame after
   it, up to the one without [more]. *)
let rec collect t acc = function
  | Wire.Rows { rows; more; _ } ->
    let acc = List.rev_append rows acc in
    if more then collect t acc (reply t) else List.rev acc
  | _ -> unexpected "Execute"

let names cols = List.map (fun c -> c.Wire.name) cols

let execute_result t s =
  if s.empty then { Engine.columns = []; rows = [] }
  else
    let rows = collect t [] (request t (Wire.Execute { stmt = s.id })) in
    { Engine.columns = names s.cols; rows }

let execute t s =
  let r = execute_result t s in
  List.map (Row.create ~columns:(names s.cols)) r.Engine.rows

(* No reply to wait for: the frame goes out with the next request. *)
let close_stmt t s =
  if not t.closed then Wire.queue_request t.sbuf (Wire.Close_stmt { stmt = s.id })

let run_result ?(values = false) t query =
  match request t (Wire.Query { query; values }) with
  | Wire.Prepared { columns; empty; _ } ->
    let rows = collect t [] (reply t) in
    if empty then { Engine.columns = []; rows = [] } else { Engine.columns = names columns; rows }
  | _ -> unexpected "Query"

let run ?values t query =
  let r = run_result ?values t query in
  List.map (Row.create ~columns:r.Engine.columns) r.Engine.rows

let run_ids t query = Translate.result_ids (run_result t query)

type update_outcome = {
  inserted : int;
  updated : int;
  deleted : int;
  new_paths : int;
  dead_paths : int;
}

let update t op =
  match request t (Wire.Update { op }) with
  | Wire.Updated { inserted; updated; deleted; new_paths; dead_paths } ->
    { inserted; updated; deleted; new_paths; dead_paths }
  | _ -> unexpected "Update"

let insert t ~parent ?before fragment =
  update t (Wire.Op_insert { parent; before; fragment })

let delete t ~target = update t (Wire.Op_delete { target })

let replace t ~target fragment = update t (Wire.Op_replace { target; fragment })

let set_attribute t ~target ~name value =
  update t (Wire.Op_set_attr { target; name; value })

let set_text t ~target text = update t (Wire.Op_set_text { target; text })
