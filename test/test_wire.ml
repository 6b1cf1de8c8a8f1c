(* Wire codec properties: byte-identical round-trips for every message
   shape, and the typed rejections — truncated payloads, trailing bytes,
   unknown tags, malformed varints, oversized length prefixes — that keep
   the decoder from ever reading past the declared frame. *)

module Wire = Ppfx_net.Wire
module Value = Ppfx_minidb.Value

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

(* Every generator draws its integers from [int] and its strings from
   [bytes n] (at most [n] bytes): ordinary fields, or the edges of the
   varint and length encodings ({!edges}). *)
type fields = { int : int QCheck.Gen.t; cell_int : int QCheck.Gen.t; bytes : int -> string QCheck.Gen.t }

let gen_bytes n = QCheck.Gen.(string_size (0 -- n))
let ordinary = { int = QCheck.Gen.small_nat; cell_int = QCheck.Gen.int; bytes = gen_bytes }

(* Zigzag varint byte-count boundaries, the int range's ends, negative
   ids; strings empty or past the one-byte length. *)
let edges =
  let ints =
    QCheck.Gen.oneofl
      [ 0; 1; -1; 63; -63; 64; -64; 127; -127; 128; -128; 16383; -16383; 16384; -16384;
        min_int; max_int ]
  in
  {
    int = ints;
    cell_int = ints;
    bytes = (fun _ -> QCheck.Gen.(oneof [ return ""; string_size (128 -- 300) ]));
  }

let gen_value f =
  QCheck.Gen.(
    oneof
      [
        return Value.Null;
        map (fun i -> Value.Int i) f.cell_int;
        map (fun x -> Value.Float x) float;
        map (fun s -> Value.Str s) (f.bytes 20);
        map (fun s -> Value.Bin s) (f.bytes 20);
      ])

let gen_row f = QCheck.Gen.(map Array.of_list (list_size (0 -- 6) (gen_value f)))

let gen_column f =
  QCheck.Gen.(
    map2
      (fun name ty -> { Wire.name; ty })
      (f.bytes 12)
      (oneofl [ Wire.Tany; Wire.Tint; Wire.Tfloat; Wire.Ttext; Wire.Tbin ]))

let gen_update_op f =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun parent before fragment ->
            Wire.Op_insert { parent; before; fragment })
          f.int (option f.int) (f.bytes 32);
        map (fun target -> Wire.Op_delete { target }) f.int;
        map2
          (fun target fragment -> Wire.Op_replace { target; fragment })
          f.int (f.bytes 32);
        map3
          (fun target name value -> Wire.Op_set_attr { target; name; value })
          f.int (f.bytes 12)
          (option (f.bytes 12));
        map2
          (fun target text -> Wire.Op_set_text { target; text })
          f.int (f.bytes 24);
      ])

let gen_request f =
  QCheck.Gen.(
    oneof
      [
        map2
          (fun version client -> Wire.Hello { version; client })
          f.int (f.bytes 16);
        map2 (fun query values -> Wire.Prepare { query; values }) (f.bytes 64) bool;
        map (fun stmt -> Wire.Execute { stmt }) f.int;
        map (fun stmt -> Wire.Close_stmt { stmt }) f.int;
        map (fun op -> Wire.Update { op }) (gen_update_op f);
        map2 (fun query values -> Wire.Query { query; values }) (f.bytes 64) bool;
        return Wire.Ping;
        return Wire.Quit;
      ])

let gen_response f =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun version server shards -> Wire.Welcome { version; server; shards })
          f.int (f.bytes 16) f.int;
        map
          (fun (stmt, columns, empty, sql) ->
            Wire.Prepared { stmt; columns; empty; sql })
          (quad f.int
             (list_size (0 -- 5) (gen_column f))
             bool
             (option (f.bytes 40)));
        map3
          (fun stmt rows more -> Wire.Rows { stmt; rows; more })
          f.int
          (list_size (0 -- 5) (gen_row f))
          bool;
        map2
          (fun (inserted, updated, deleted) (new_paths, dead_paths) ->
            Wire.Updated { inserted; updated; deleted; new_paths; dead_paths })
          (triple f.int f.int f.int)
          (pair f.int f.int);
        return Wire.Pong;
        map2
          (fun code message -> Wire.Error { code; message })
          (oneofl
             [
               Wire.Protocol; Wire.Parse_error; Wire.Unsupported; Wire.Runtime;
               Wire.Admission; Wire.Bad_statement; Wire.Version_mismatch;
               Wire.Shutting_down;
             ])
          (f.bytes 32);
        return Wire.Bye;
      ])

let request_arb = QCheck.make ~print:(fun _ -> "<request>") (gen_request ordinary)
let response_arb = QCheck.make ~print:(fun _ -> "<response>") (gen_response ordinary)

(* ------------------------------------------------------------------ *)
(* Round trips                                                         *)
(* ------------------------------------------------------------------ *)

(* Byte-identical re-encode: decode-then-encode reproduces the exact
   payload (structural comparison would be weaker — Float NaN cells
   compare unequal to themselves, while their byte image is stable). *)

let prop_request_roundtrip =
  QCheck.Test.make ~count:500 ~name:"request decode/encode is byte-identical"
    request_arb (fun req ->
      let p = Wire.request_payload req in
      let req' = Wire.request_of_payload p in
      req' = req && String.equal (Wire.request_payload req') p)

let prop_response_roundtrip =
  QCheck.Test.make ~count:500 ~name:"response decode/encode is byte-identical"
    response_arb (fun resp ->
      let p = Wire.response_payload resp in
      String.equal (Wire.response_payload (Wire.response_of_payload p)) p)

let prop_edges_roundtrip =
  QCheck.Test.make ~count:500
    ~name:"varint and length edges round-trip, byte-identical"
    (QCheck.make ~print:(fun _ -> "<messages>")
       QCheck.Gen.(pair (gen_request edges) (gen_response edges)))
    (fun (req, resp) ->
      let p = Wire.request_payload req and q = Wire.response_payload resp in
      Wire.request_of_payload p = req
      && String.equal (Wire.response_payload (Wire.response_of_payload q)) q)

(* ------------------------------------------------------------------ *)
(* Rejections                                                          *)
(* ------------------------------------------------------------------ *)

let prop_truncated =
  QCheck.Test.make ~count:500
    ~name:"every strict prefix of a response payload is Truncated"
    QCheck.(pair response_arb (0 -- 1000))
    (fun (resp, k) ->
      let p = Wire.response_payload resp in
      let k = k mod max 1 (String.length p) in
      match Wire.response_of_payload (String.sub p 0 k) with
      | _ -> false
      | exception Wire.Codec Wire.Truncated -> true
      | exception Wire.Codec _ -> false)

let prop_trailing =
  QCheck.Test.make ~count:300 ~name:"payloads with trailing bytes are rejected"
    request_arb (fun req ->
      let p = Wire.request_payload req ^ "\x00" in
      match Wire.request_of_payload p with
      | _ -> false
      | exception Wire.Codec (Wire.Trailing 1) -> true
      | exception Wire.Codec _ -> false)

(* A frame as the transport writes it: the 4-byte big-endian payload
   length, then the payload. *)
let frame p =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int (String.length p));
  Bytes.to_string b ^ p

let with_pipe f =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      Unix.close r;
      Unix.close w)
    (fun () -> f r w)

let write_all fd s = ignore (Unix.write_substring fd s 0 (String.length s))

(* The server's reassembly: frames arrive in arbitrary chunks, and each
   chunk is read into one buffer and every complete frame decoded where
   it lies. Every request comes out once, in order; a frame cut short
   at the end of the stream is held back, not decoded. *)
let prop_reassembly =
  QCheck.Test.make ~count:200
    ~name:"in-place reassembly decodes every whole frame once, in order"
    QCheck.(
      triple
        (list_of_size (Gen.int_range 0 12) request_arb)
        (int_range 1 64) (int_range 0 1000))
    (fun (reqs, chunk, cut) ->
      let stream = String.concat "" (List.map (fun r -> frame (Wire.request_payload r)) reqs) in
      let tail =
        let f = frame (Wire.request_payload Wire.Ping) in
        String.sub f 0 (cut mod String.length f)
      in
      let stream = stream ^ tail in
      with_pipe (fun r w ->
          let buf = Wire.buf_create () in
          let got = ref [] in
          let rec feed off =
            if off < String.length stream then begin
              let n = min chunk (String.length stream - off) in
              write_all w (String.sub stream off n);
              ignore (Wire.read_some buf r);
              Wire.take_requests buf (fun req -> got := req :: !got);
              feed (off + n)
            end
          in
          feed 0;
          List.rev !got = reqs))

let bad_tag () =
  let p = Wire.request_payload Wire.Ping in
  let mangled = "\x50" ^ String.sub p 1 (String.length p - 1) in
  (match Wire.request_of_payload mangled with
   | _ -> Alcotest.fail "unknown tag accepted"
   | exception Wire.Codec (Wire.Bad_tag 0x50) -> ());
  match Wire.response_of_payload mangled with
  | _ -> Alcotest.fail "unknown response tag accepted"
  | exception Wire.Codec (Wire.Bad_tag 0x50) -> ()

let oversized () =
  (* A 4-byte prefix declaring a payload over the bound is rejected
     before any payload byte exists. *)
  with_pipe @@ fun r w ->
  write_all w "\x00\x10\x00\x00" (* 1 MiB *);
  let buf = Wire.buf_create () in
  ignore (Wire.read_some buf r);
  match Wire.take_requests ~max_frame:1024 buf ignore with
  | () -> Alcotest.fail "oversized prefix accepted"
  | exception Wire.Codec (Wire.Oversized n) ->
    Alcotest.(check int) "declared length" 0x100000 n

let expect_codec what want f =
  match f () with
  | _ -> Alcotest.failf "%s: decoded" what
  | exception Wire.Codec e when e = want -> ()
  | exception Wire.Codec e ->
    Alcotest.failf "%s: got %s" what (Wire.codec_error_to_string e)

(* A varint of ten continuation bytes and an unknown cell tag are typed
   wire errors. *)
let malformed_fields () =
  expect_codec "ten continuation bytes" Wire.Bad_varint (fun () ->
      Wire.request_of_payload ("\x05" ^ String.make 10 '\x80' ^ "\x01"));
  (* Rows: stmt 1, more false, one row of one cell tagged 9. *)
  expect_codec "cell tag 9" (Wire.Bad_tag 9) (fun () ->
      Wire.response_of_payload "\x83\x02\x00\x02\x02\x09")

(* Arbitrary bytes either decode or raise a typed wire error: no
   exception of the shared codec, or any other, escapes. *)
let prop_only_typed_errors =
  QCheck.Test.make ~count:1000 ~name:"arbitrary payloads fail only with Wire.Codec"
    QCheck.(string_gen_of_size (Gen.int_range 0 40) Gen.char)
    (fun s ->
      (* The bare bytes, and the same behind the tags with the most fields:
         [Update] and [Rows]. *)
      let total decode s =
        match decode s with _ -> true | exception Wire.Codec _ -> true
      in
      total Wire.request_of_payload s
      && total Wire.response_of_payload s
      && total Wire.request_of_payload ("\x08" ^ s)
      && total Wire.response_of_payload ("\x83" ^ s))

(* A file stands in for the socket: [Unix.read] returns 0 at its end. *)
let with_stream bytes f =
  let path = Filename.temp_file "ppfx_wire" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc bytes;
      close_out oc;
      let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> f fd))

let frame_layout () =
  let sent =
    with_pipe (fun r w ->
        let n = Wire.send_response (Wire.buf_create ()) w Wire.Bye in
        let b = Bytes.create n in
        ignore (Unix.read r b 0 n);
        Bytes.to_string b)
  in
  Alcotest.(check string) "length prefix is 4-byte big-endian" "\x00\x00\x00\x01\x87" sent;
  Alcotest.(check string) "Ping is tag 0x06" "\x06"
    (Wire.request_payload Wire.Ping);
  Alcotest.(check string) "Bye is tag 0x87" "\x87"
    (Wire.response_payload Wire.Bye);
  Alcotest.(check string) "Execute: tag, then a zigzag varint"
    "\x03\x80\x01"
    (Wire.request_payload (Wire.Execute { stmt = 64 }))

let version_pinned () =
  Alcotest.(check int) "protocol version" 5 Wire.protocol_version

(* Version 5: [Query] is tag 0x09 (query, values flag) and [Fetch]
   (0x04) is gone; [Close_stmt] keeps tag 0x05 and its reply, [Closed]
   (0x84), is gone. *)
let query_and_close_layout () =
  Alcotest.(check string) "Query: tag, query, flag"
    "\x09\x04//\x01"
    (Wire.request_payload (Wire.Query { query = "//"; values = true }));
  expect_codec "retired Fetch tag" (Wire.Bad_tag 0x04) (fun () ->
      Wire.request_of_payload "\x04\x02\x00");
  Alcotest.(check string) "Close_stmt" "\x05\x0e"
    (Wire.request_payload (Wire.Close_stmt { stmt = 7 }));
  expect_codec "retired Closed tag" (Wire.Bad_tag 0x84) (fun () ->
      Wire.response_of_payload "\x84\x0e")

(* ------------------------------------------------------------------ *)
(* Frame buffers                                                       *)
(* ------------------------------------------------------------------ *)

let gen_rows =
  QCheck.Gen.(
    map3
      (fun stmt rows more -> Wire.Rows { stmt; rows; more })
      small_nat
      (list_size (0 -- 40) (gen_row ordinary))
      bool)

(* One buffer for every case and both directions, as one connection end
   reuses it. *)
let shared = Wire.buf_create ()

let prop_frame_buffer =
  QCheck.Test.make ~count:300
    ~name:"a frame round-trips through one shared, reused buffer"
    (QCheck.make ~print:(fun _ -> "<rows>") gen_rows)
    (fun r ->
      with_pipe (fun rd wr ->
          let n = Wire.send_response shared wr r in
          match Wire.recv_response shared rd with
          | Some r' ->
            n = 4 + String.length (Wire.response_payload r)
            && String.equal (Wire.response_payload r') (Wire.response_payload r)
          | None -> false))

let big_rows n =
  Wire.Rows { stmt = 1; rows = [ [| Value.Int 7; Value.Str (String.make n 'x') |] ]; more = false }

(* Sending from the buffer: an oversize frame, then small ones after the
   buffer shrank back, land on the stream byte for byte. *)
let send_from_buffer () =
  let path = Filename.temp_file "ppfx_wire" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w = Wire.buf_create () in
      let msgs = [ Wire.Pong; big_rows (3 lsl 20); Wire.Bye; big_rows 10 ] in
      let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
      let sent =
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () -> List.fold_left (fun n r -> n + Wire.send_response w fd r) 0 msgs)
      in
      let expected =
        String.concat "" (List.map (fun r -> frame (Wire.response_payload r)) msgs)
      in
      let ic = open_in_bin path in
      let got = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check int) "byte count" (String.length expected) sent;
      Alcotest.(check bool) "stream bytes" true (String.equal expected got))

(* Prepare's values flag is one byte after the query string, 0 or 1; the
   string's length is a zigzag varint (2 is 0x04). *)
let prepare_flag_layout () =
  Alcotest.(check string) "Prepare with values"
    "\x02\x04//\x01"
    (Wire.request_payload (Wire.Prepare { query = "//"; values = true }));
  expect_codec "flag byte 2" (Wire.Bad_tag 2) (fun () ->
      Wire.request_of_payload "\x02\x04//\x02");
  expect_codec "Prepare without its flag" Wire.Truncated (fun () ->
      Wire.request_of_payload "\x02\x04//")

(* The receive buffer keeps a large frame's bytes behind a small one's:
   the small frame's declared length, not the buffer, bounds its decode. *)
let prop_receive_buffer =
  QCheck.Test.make ~count:100
    ~name:"a reused receive buffer decodes frames and rejects bad ones exactly"
    QCheck.(pair (QCheck.make ~print:(fun _ -> "<rows>") gen_rows) (0 -- 1000))
    (fun (small, k) ->
      let big = big_rows (200_000 + k) in
      let frame_of r = frame (Wire.response_payload r) in
      let p = Wire.response_payload small in
      let cut = String.sub p 0 (k mod max 1 (String.length p)) in
      let stream =
        String.concat ""
          [
            frame_of big;
            frame cut;
            frame (p ^ "\x00");
            frame_of small;
            "\x7f\x00\x00\x00";
          ]
      in
      with_stream stream (fun fd ->
          let w = Wire.buf_create () in
          let recv () = Wire.recv_response ~max_frame:(1 lsl 20) w fd in
          let same r = function
            | Some r' -> String.equal (Wire.response_payload r') (Wire.response_payload r)
            | None -> false
          in
          let ok_big = same big (recv ()) in
          expect_codec "truncated" Wire.Truncated recv;
          expect_codec "trailing" (Wire.Trailing 1) recv;
          let ok_small = same small (recv ()) in
          expect_codec "oversized" (Wire.Oversized 0x7f000000) recv;
          ok_big && ok_small)
      (* A stream that ends inside a frame is Truncated; at a frame
         boundary it is a clean end. *)
      && with_stream
           (frame_of big ^ String.sub (frame_of small) 0 3)
           (fun fd ->
             let w = Wire.buf_create () in
             ignore (Wire.recv_response w fd);
             expect_codec "eof mid-frame" Wire.Truncated (fun () ->
                 Wire.recv_response w fd);
             true)
      && with_stream (frame_of small) (fun fd ->
             let w = Wire.buf_create () in
             ignore (Wire.recv_response w fd);
             Wire.recv_response w fd = None))

(* Frames that arrive together take one read: after the first
   [recv_response] the pipe is empty, and the rest come out of the
   buffer, each once and in order, with nothing read past them. *)
let frames_in_one_read () =
  with_pipe @@ fun r w ->
  let msgs = [ Wire.Pong; big_rows 10; Wire.Error { code = Wire.Runtime; message = "x" }; Wire.Bye ] in
  write_all w (String.concat "" (List.map (fun m -> frame (Wire.response_payload m)) msgs));
  let buf = Wire.buf_create () in
  let first = Wire.recv_response buf r in
  let drained = match Unix.select [ r ] [] [] 0.0 with [], _, _ -> true | _ -> false in
  Alcotest.(check bool) "one read took every frame" true drained;
  let got = first :: List.map (fun _ -> Wire.recv_response buf r) (List.tl msgs) in
  List.iter2
    (fun m g ->
      match g with
      | Some g ->
        Alcotest.(check string) "frame in order" (Wire.response_payload m) (Wire.response_payload g)
      | None -> Alcotest.fail "stream ended early")
    msgs got;
  write_all w (frame (Wire.response_payload Wire.Pong));
  Alcotest.(check bool) "the next frame is read afresh" true
    (Wire.recv_response buf r = Some Wire.Pong)

(* A fetch window as a served read ships it: 512 (id, Dewey label) rows,
   ids near the XMark 10x point's and 18-byte labels (six 3-byte
   components). *)
let window =
  Wire.Rows
    {
      stmt = 1;
      more = true;
      rows =
        List.init 512 (fun i ->
            [| Value.Int (200_000 + (3 * i));
               Value.Bin (String.init 18 (fun k -> Char.chr ((i * 7 + k) land 0xff))) |]);
    }

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* Size and allocation of that window through warm reused buffers: at
   most 26 bytes a row on the wire, encoding allocates under a word a
   row and decoding at most 18 (its rows, cells and strings). *)
let window_pins () =
  let reps = 20 in
  let p = Wire.response_payload window in
  let bytes_per_row = float_of_int (String.length p) /. 512. in
  if bytes_per_row > 26. then Alcotest.failf "%.1f bytes per row" bytes_per_row;
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let encode =
    Fun.protect ~finally:(fun () -> Unix.close null) @@ fun () ->
    let w = Wire.buf_create () in
    ignore (Wire.send_response w null window);
    minor_words (fun () ->
        for _ = 1 to reps do
          ignore (Wire.send_response w null window)
        done)
    /. float_of_int (reps * 512)
  in
  if encode >= 1. then Alcotest.failf "encode: %.2f words per row" encode;
  with_stream (String.concat "" (List.init (reps + 1) (fun _ -> frame p))) @@ fun fd ->
  let w = Wire.buf_create () in
  ignore (Wire.recv_response w fd);
  let last = ref None in
  let decode =
    minor_words (fun () ->
        for _ = 1 to reps do
          last := Wire.recv_response w fd
        done)
    /. float_of_int (reps * 512)
  in
  if decode > 18. then Alcotest.failf "decode: %.2f words per row" decode;
  match !last with
  | Some r -> Alcotest.(check bool) "decoded window" true (r = window)
  | None -> Alcotest.fail "stream ended early"

let () =
  Alcotest.run "wire"
    [
      ( "roundtrip",
        List.map QCheck_alcotest.to_alcotest
          [ prop_request_roundtrip; prop_response_roundtrip; prop_edges_roundtrip ] );
      ( "rejection",
        List.map QCheck_alcotest.to_alcotest
          [ prop_truncated; prop_trailing; prop_only_typed_errors ]
        @ [
            Alcotest.test_case "bad tag" `Quick bad_tag;
            Alcotest.test_case "malformed varint and cell tag" `Quick malformed_fields;
            Alcotest.test_case "oversized prefix" `Quick oversized;
          ] );
      ( "frame-buffers",
        List.map QCheck_alcotest.to_alcotest
          [ prop_frame_buffer; prop_receive_buffer; prop_reassembly ]
        @ [
            Alcotest.test_case "send from the buffer" `Quick send_from_buffer;
            Alcotest.test_case "frames that arrive together take one read" `Quick
              frames_in_one_read;
            Alcotest.test_case "512-row window: size and allocation" `Quick window_pins;
          ] );
      ( "layout",
        [
          Alcotest.test_case "frame layout" `Quick frame_layout;
          Alcotest.test_case "version" `Quick version_pinned;
          Alcotest.test_case "Query and reply-less Close_stmt" `Quick query_and_close_layout;
          Alcotest.test_case "Prepare values flag" `Quick prepare_flag_layout;
        ] );
    ]
