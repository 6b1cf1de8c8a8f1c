(* Wire codec properties: byte-identical round-trips for every message
   shape, and the typed rejections — truncated payloads, trailing bytes,
   unknown tags, oversized length prefixes — that keep the decoder from
   ever reading past the declared frame. *)

module Wire = Ppfx_net.Wire
module Value = Ppfx_minidb.Value

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let gen_bytes n = QCheck.Gen.(string_size (0 -- n))

let gen_value =
  QCheck.Gen.(
    oneof
      [
        return Value.Null;
        map (fun i -> Value.Int i) int;
        map (fun f -> Value.Float f) float;
        map (fun s -> Value.Str s) (gen_bytes 20);
        map (fun s -> Value.Bin s) (gen_bytes 20);
      ])

let gen_row = QCheck.Gen.(map Array.of_list (list_size (0 -- 6) gen_value))

let gen_column =
  QCheck.Gen.(
    map2
      (fun name ty -> { Wire.name; ty })
      (gen_bytes 12)
      (oneofl [ Wire.Tany; Wire.Tint; Wire.Tfloat; Wire.Ttext; Wire.Tbin ]))

let gen_update_op =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun parent before fragment ->
            Wire.Op_insert { parent; before; fragment })
          small_nat (option small_nat) (gen_bytes 32);
        map (fun target -> Wire.Op_delete { target }) small_nat;
        map2
          (fun target fragment -> Wire.Op_replace { target; fragment })
          small_nat (gen_bytes 32);
        map3
          (fun target name value -> Wire.Op_set_attr { target; name; value })
          small_nat (gen_bytes 12)
          (option (gen_bytes 12));
        map2
          (fun target text -> Wire.Op_set_text { target; text })
          small_nat (gen_bytes 24);
      ])

let gen_request =
  QCheck.Gen.(
    oneof
      [
        map2
          (fun version client -> Wire.Hello { version; client })
          small_nat (gen_bytes 16);
        map2 (fun query values -> Wire.Prepare { query; values }) (gen_bytes 64) bool;
        map2 (fun stmt window -> Wire.Execute { stmt; window }) small_nat small_nat;
        map2 (fun stmt window -> Wire.Fetch { stmt; window }) small_nat small_nat;
        map (fun stmt -> Wire.Close_stmt { stmt }) small_nat;
        map (fun op -> Wire.Update { op }) gen_update_op;
        return Wire.Ping;
        return Wire.Quit;
      ])

let gen_response =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun version server shards -> Wire.Welcome { version; server; shards })
          small_nat (gen_bytes 16) small_nat;
        map
          (fun (stmt, columns, empty, sql) ->
            Wire.Prepared { stmt; columns; empty; sql })
          (quad small_nat
             (list_size (0 -- 5) gen_column)
             bool
             (option (gen_bytes 40)));
        map3
          (fun stmt rows more -> Wire.Rows { stmt; rows; more })
          small_nat
          (list_size (0 -- 5) gen_row)
          bool;
        map (fun stmt -> Wire.Closed { stmt }) small_nat;
        map2
          (fun (inserted, updated, deleted) (new_paths, dead_paths) ->
            Wire.Updated { inserted; updated; deleted; new_paths; dead_paths })
          (triple small_nat small_nat small_nat)
          (pair small_nat small_nat);
        return Wire.Pong;
        map2
          (fun code message -> Wire.Error { code; message })
          (oneofl
             [
               Wire.Protocol; Wire.Parse_error; Wire.Unsupported; Wire.Runtime;
               Wire.Admission; Wire.Bad_statement; Wire.Version_mismatch;
               Wire.Shutting_down;
             ])
          (gen_bytes 32);
        return Wire.Bye;
      ])

let request_arb = QCheck.make ~print:(fun _ -> "<request>") gen_request
let response_arb = QCheck.make ~print:(fun _ -> "<response>") gen_response

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

let prop_frame_extraction =
  QCheck.Test.make ~count:300
    ~name:"extract_frame stops at the length prefix, never reads past it"
    QCheck.(pair response_arb (QCheck.make (gen_bytes 16)))
    (fun (resp, garbage) ->
      let p = Wire.response_payload resp in
      let frame = Wire.frame_of_payload p in
      let buf = Bytes.of_string (frame ^ garbage) in
      (* A complete frame followed by junk: exactly the frame is consumed. *)
      (match Wire.extract_frame buf ~off:0 ~len:(Bytes.length buf) with
       | Some (payload, consumed) ->
         String.equal payload p && consumed = String.length frame
       | None -> false)
      (* Any window shorter than the frame: need more bytes, no error. *)
      && (String.length frame < 2
          ||
          let cut = String.length frame - 1 in
          Wire.extract_frame (Bytes.of_string (String.sub frame 0 cut)) ~off:0
            ~len:cut
          = None))

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
  let prefix = Bytes.of_string "\x00\x10\x00\x00" (* 1 MiB *) in
  match Wire.extract_frame ~max_frame:1024 prefix ~off:0 ~len:4 with
  | _ -> Alcotest.fail "oversized prefix accepted"
  | exception Wire.Codec (Wire.Oversized n) ->
    Alcotest.(check int) "declared length" 0x100000 n

let frame_layout () =
  Alcotest.(check string) "length prefix is 4-byte big-endian"
    "\x00\x00\x00\x03abc"
    (Wire.frame_of_payload "abc");
  Alcotest.(check string) "Ping is tag 0x06" "\x06"
    (Wire.request_payload Wire.Ping);
  Alcotest.(check string) "Bye is tag 0x87" "\x87"
    (Wire.response_payload Wire.Bye)

let version_pinned () =
  Alcotest.(check int) "protocol version" 2 Wire.protocol_version

(* ------------------------------------------------------------------ *)
(* Frame buffers                                                       *)
(* ------------------------------------------------------------------ *)

let gen_rows =
  QCheck.Gen.(
    map3
      (fun stmt rows more -> Wire.Rows { stmt; rows; more })
      small_nat
      (list_size (0 -- 40) gen_row)
      bool)

(* One buffer for every case, as one connection reuses it. *)
let shared_send = Wire.buf_create ()

let prop_frame_buffer =
  QCheck.Test.make ~count:300
    ~name:"a reused frame buffer holds frame_of_payload (response_payload r)"
    (QCheck.make ~print:(fun _ -> "<rows>") gen_rows)
    (fun r ->
      Wire.frame_response shared_send r;
      String.equal (Wire.buf_contents shared_send)
        (Wire.frame_of_payload (Wire.response_payload r)))

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
          (fun () -> List.fold_left (fun n r -> n + Wire.send_response_buf w fd r) 0 msgs)
      in
      let expected =
        String.concat "" (List.map (fun r -> Wire.frame_of_payload (Wire.response_payload r)) msgs)
      in
      let ic = open_in_bin path in
      let got = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check int) "byte count" (String.length expected) sent;
      Alcotest.(check bool) "stream bytes" true (String.equal expected got))

let expect_codec what want f =
  match f () with
  | _ -> Alcotest.failf "%s: decoded" what
  | exception Wire.Codec e when e = want -> ()
  | exception Wire.Codec e ->
    Alcotest.failf "%s: got %s" what (Wire.codec_error_to_string e)

(* Prepare's values flag is one byte after the query string, 0 or 1. *)
let prepare_flag_layout () =
  Alcotest.(check string) "Prepare with values"
    "\x02\x00\x00\x00\x02//\x01"
    (Wire.request_payload (Wire.Prepare { query = "//"; values = true }));
  expect_codec "flag byte 2" (Wire.Bad_tag 2) (fun () ->
      Wire.request_of_payload "\x02\x00\x00\x00\x02//\x02");
  expect_codec "version-1 Prepare (no flag)" Wire.Truncated (fun () ->
      Wire.request_of_payload "\x02\x00\x00\x00\x02//")

(* The receive buffer keeps a large frame's bytes behind a small one's:
   the small frame's declared length, not the buffer, bounds its decode. *)
let prop_receive_buffer =
  QCheck.Test.make ~count:100
    ~name:"a reused receive buffer decodes frames and rejects bad ones exactly"
    QCheck.(pair (QCheck.make ~print:(fun _ -> "<rows>") gen_rows) (0 -- 1000))
    (fun (small, k) ->
      let big = big_rows (200_000 + k) in
      let frame r = Wire.frame_of_payload (Wire.response_payload r) in
      let p = Wire.response_payload small in
      let cut = String.sub p 0 (k mod max 1 (String.length p)) in
      let stream =
        String.concat ""
          [
            frame big;
            Wire.frame_of_payload cut;
            Wire.frame_of_payload (p ^ "\x00");
            frame small;
            "\x7f\x00\x00\x00";
          ]
      in
      with_stream stream (fun fd ->
          let w = Wire.buf_create () in
          let recv () = Wire.recv_response_buf ~max_frame:(1 lsl 20) w fd in
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
           (frame big ^ String.sub (frame small) 0 3)
           (fun fd ->
             let w = Wire.buf_create () in
             ignore (Wire.recv_response_buf w fd);
             expect_codec "eof mid-frame" Wire.Truncated (fun () ->
                 Wire.recv_response_buf w fd);
             true)
      && with_stream (frame small) (fun fd ->
             let w = Wire.buf_create () in
             ignore (Wire.recv_response_buf w fd);
             Wire.recv_response_buf w fd = None))

let () =
  Alcotest.run "wire"
    [
      ( "roundtrip",
        List.map QCheck_alcotest.to_alcotest
          [ prop_request_roundtrip; prop_response_roundtrip ] );
      ( "rejection",
        List.map QCheck_alcotest.to_alcotest
          [ prop_truncated; prop_trailing; prop_frame_extraction ]
        @ [
            Alcotest.test_case "bad tag" `Quick bad_tag;
            Alcotest.test_case "oversized prefix" `Quick oversized;
          ] );
      ( "frame-buffers",
        List.map QCheck_alcotest.to_alcotest [ prop_frame_buffer; prop_receive_buffer ]
        @ [ Alcotest.test_case "send from the buffer" `Quick send_from_buffer ] );
      ( "layout",
        [
          Alcotest.test_case "frame layout" `Quick frame_layout;
          Alcotest.test_case "version" `Quick version_pinned;
          Alcotest.test_case "Prepare values flag" `Quick prepare_flag_layout;
        ] );
    ]
