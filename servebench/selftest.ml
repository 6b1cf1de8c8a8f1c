(* Self-test of the benchmark harness: percentile and self-time arithmetic
   on fixed inputs, and seeded operation sequences that repeat exactly. *)

module H = Harness

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let () =
  (* Nearest rank over 1..100: p50 = 50, p99 = 99 with one sample beyond. *)
  let a = H.sorted (List.init 100 (fun i -> float_of_int (100 - i))) in
  check "p50 of 1..100" (H.percentile a 0.5 = 50.0);
  check "p99 of 1..100" (H.percentile a 0.99 = 99.0);
  check "p100 of 1..100" (H.percentile a 1.0 = 100.0);
  check "beyond p99 of 100" (H.beyond 100 0.99 = 1);
  check "beyond p99 of 1000" (H.beyond 1000 0.99 = 10);
  check "p50 of one sample" (H.percentile (H.sorted [ 7.0 ]) 0.5 = 7.0);
  check "median of odd list" (H.median [ 3.0; 1.0; 2.0 ] = 2.0);
  check "median of even list (lower)" (H.median [ 4.0; 1.0; 3.0; 2.0 ] = 2.0);
  check "mean" (close (H.mean [ 1.0; 2.0; 6.0 ]) 3.0);
  check "percentile of nothing is nan" (Float.is_nan (H.percentile [||] 0.5))

let span id name ~parent ~start ~stop =
  { H.sp_id = id; sp_name = name; sp_req = 0; sp_parent = parent; sp_start = start;
    sp_stop = stop }

let () =
  (* A 10 s root with children [1,3] and [2,5] (union 4 s) and one child
     sticking out past the root's end (clipped to [9,10]); the grandchild
     [1.5,2] belongs to the first child only. *)
  let spans =
    [
      span 0 "root" ~parent:(-1) ~start:0.0 ~stop:10.0;
      span 1 "a" ~parent:0 ~start:1.0 ~stop:3.0;
      span 2 "b" ~parent:0 ~start:2.0 ~stop:5.0;
      span 3 "c" ~parent:0 ~start:9.0 ~stop:12.0;
      span 4 "a.x" ~parent:1 ~start:1.5 ~stop:2.0;
    ]
  in
  let self = H.self_times spans in
  let of_name n = snd (List.find (fun (s, _) -> s.H.sp_name = n) self) in
  check "root self = 10 - 4 - 1" (close (of_name "root") 5.0);
  check "a self = 2 - 0.5" (close (of_name "a") 1.5);
  check "b self" (close (of_name "b") 3.0);
  check "c self" (close (of_name "c") 3.0);
  check "covered union" (close (H.covered [ (0.0, 2.0); (1.0, 3.0); (5.0, 6.0) ]) 4.0);
  let by_req = H.self_by_request spans in
  let tbl = Hashtbl.find by_req 0 in
  check "per-request sum of root" (close (Hashtbl.find tbl "root") 5.0);
  (* The tracer nests spans and a disabled tracer records nothing. *)
  let tr = H.tracer ~enabled:true in
  H.span tr ~req:3 "outer" (fun () -> H.span tr ~req:3 "inner" (fun () -> ()));
  (match H.spans tr with
   | [ inner; outer ] ->
     check "inner parent" (inner.H.sp_parent = outer.H.sp_id);
     check "outer is a root" (outer.H.sp_parent = -1);
     check "request id kept" (inner.H.sp_req = 3)
   | _ -> check "two spans recorded" false);
  let off = H.tracer ~enabled:false in
  check "disabled tracer returns the value" (H.span off ~req:0 "x" (fun () -> 42) = 42);
  check "disabled tracer records nothing" (H.spans off = [])

let stream seed =
  let texts = Hashtbl.create 8 and attrs = Hashtbl.create 8 in
  List.iter (fun t -> Hashtbl.replace texts t "Oslo") [ 10; 11; 12 ];
  List.iter (fun t -> Hashtbl.replace attrs t "yes") [ 20; 21 ];
  H.write_stream ~seed ~cycles:50 ~text_targets:[| 10; 11; 12 |] ~attr_targets:[| 20; 21 |]
    ~attr_name:"featured" ~attr_values:[ "yes"; "no" ] ~insert_parent:5 ~texts ~attrs
    ~text_values:[ "Oslo"; "Lima"; "Perth" ]

let () =
  let s1 = stream 7 and s1' = stream 7 and s2 = stream 8 in
  check "same seed, same write stream" (s1 = s1');
  check "another seed, another write stream" (s1 <> s2);
  check "four operations per cycle" (Array.length s1 = 200);
  (* Every insert is deleted later in the same cycle, and every set
     writes a value that differs from the target's previous one. *)
  let texts = Hashtbl.create 8 and attrs = Hashtbl.create 8 in
  List.iter (fun t -> Hashtbl.replace texts t "Oslo") [ 10; 11; 12 ];
  List.iter (fun t -> Hashtbl.replace attrs t "yes") [ 20; 21 ];
  let deleted = Hashtbl.create 64 in
  Array.iteri
    (fun i op ->
      match op with
      | H.Set_text { target; text } ->
        check "set-text changes the value" (Hashtbl.find texts target <> text);
        Hashtbl.replace texts target text
      | H.Set_attr { target; value; _ } ->
        check "set-attr changes the value" (Hashtbl.find attrs target <> value);
        Hashtbl.replace attrs target value
      | H.Insert _ -> ()
      | H.Delete { insert } ->
        check "delete follows its insert in the same cycle"
          (insert < i && insert / 4 = i / 4
           && (match s1.(insert) with H.Insert _ -> true | _ -> false));
        Hashtbl.replace deleted insert ())
    s1;
  Array.iteri
    (fun i op ->
      match op with
      | H.Insert _ -> check "every insert is deleted" (Hashtbl.mem deleted i)
      | _ -> ())
    s1;
  let templates = [ (fun x -> "a" ^ x), "k"; (fun x -> "b" ^ x), "k" ] in
  let literals = [ ("k", [| "1"; "2"; "3" |]) ] in
  let t1 = H.adhoc_texts ~seed:3 ~templates ~literals in
  check "same seed, same ad-hoc texts" (t1 = H.adhoc_texts ~seed:3 ~templates ~literals);
  check "ad-hoc texts are a permutation of all combinations"
    (List.sort compare (Array.to_list t1) = [ "a1"; "a2"; "a3"; "b1"; "b2"; "b3" ]);
  let p = H.shuffle (Ppfx_workloads.Prng.create 5) (Array.init 23 Fun.id) in
  check "shuffle is a permutation" (List.sort compare (Array.to_list p) = List.init 23 Fun.id);
  check "same seed, same shuffle" (p = H.shuffle (Ppfx_workloads.Prng.create 5) (Array.init 23 Fun.id))

let () =
  let line =
    H.result_json ~correct:true ~attempted:3 ~failed:0
      [ { H.m_name = "x_ms"; m_unit = "ms"; m_value = 1.25 } ]
  in
  check "result line"
    (line
     = "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"x_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}");
  if !failures > 0 then exit 1;
  print_endline "servebench harness self-test: ok"
