(* Measurement primitives of the serving benchmark: the monotonic clock,
   percentiles over raw samples, in-memory spans with self time, and the
   seeded operation sequences every workload replays. Everything here is
   pure or process-local, so the self-test can pin it on fixed inputs. *)

module Prng = Ppfx_workloads.Prng

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

(* CLOCK_MONOTONIC in seconds: immune to wall-clock steps, unlike
   [Unix.gettimeofday]. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

external process_cpu_ns : unit -> int64 = "servebench_process_cpu_ns"

(* CPU time of the whole process (every domain and thread), in seconds:
   time the host steals from the virtual CPUs and time spent idle waiting
   for a wake-up are not in it. *)
let cpu () = Int64.to_float (process_cpu_ns ()) *. 1e-9

external max_rss_kb : unit -> int = "servebench_max_rss_kb"

(* Peak resident set size of the process so far, in MB (10^6 bytes). *)
let peak_rss_mb () = float_of_int (max_rss_kb ()) *. 1024.0 /. 1e6

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Statistics over raw samples                                         *)
(* ------------------------------------------------------------------ *)

let sorted samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of an ascending array: the smallest sample
   with at least [q] of the samples at or below it. *)
let rank n q = max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n))))

let percentile a q =
  let n = Array.length a in
  if n = 0 then nan else a.(rank n q - 1)

(* Samples strictly above the reported percentile — a percentile is only
   reported when at least ten samples lie beyond it. *)
let beyond n q = n - rank n q

let median l = percentile (sorted l) 0.5

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = {
  sp_id : int;
  sp_name : string;
  sp_req : int;  (** request the span belongs to *)
  sp_parent : int;  (** enclosing span id, -1 for a root *)
  sp_start : float;
  sp_stop : float;
}

(* A single-threaded tracer: spans nest through an explicit stack and are
   kept in memory until {!spans} reads them out. When [enabled] is false
   [span] is a plain call, so the untraced replay runs the same code. *)
type tracer = {
  enabled : bool;
  mutable next : int;
  mutable stack : int list;
  mutable done_ : span list;
}

let tracer ~enabled = { enabled; next = 0; stack = []; done_ = [] }

let span tr ~req name f =
  if not tr.enabled then f ()
  else begin
    let id = tr.next in
    tr.next <- id + 1;
    let parent = match tr.stack with p :: _ -> p | [] -> -1 in
    tr.stack <- id :: tr.stack;
    let t0 = now () in
    let finish () =
      let t1 = now () in
      tr.stack <- List.tl tr.stack;
      tr.done_ <-
        { sp_id = id; sp_name = name; sp_req = req; sp_parent = parent;
          sp_start = t0; sp_stop = t1 }
        :: tr.done_
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

let spans tr = List.rev tr.done_

(* Total length of the union of [(start, stop)] intervals. *)
let covered intervals =
  let sorted = List.sort compare intervals in
  let rec go acc cur = function
    | [] -> (match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: rest ->
      (match cur with
       | None -> go acc (Some (a, b)) rest
       | Some (ca, cb) when a <= cb -> go acc (Some (ca, Float.max cb b)) rest
       | Some (ca, cb) -> go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0.0 None sorted

(* Self time of every span: its duration minus the part of its interval
   covered by its children (clipped to the parent). *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.sp_parent >= 0 then Hashtbl.add children s.sp_parent s)
    spans;
  List.map
    (fun s ->
      let kids =
        List.map
          (fun c -> (Float.max c.sp_start s.sp_start, Float.min c.sp_stop s.sp_stop))
          (Hashtbl.find_all children s.sp_id)
        |> List.filter (fun (a, b) -> b > a)
      in
      (s, s.sp_stop -. s.sp_start -. covered kids))
    spans

(* Per request: name -> summed self time, in seconds. *)
let self_by_request spans =
  let by_req = Hashtbl.create 256 in
  List.iter
    (fun (s, self) ->
      let tbl =
        match Hashtbl.find_opt by_req s.sp_req with
        | Some t -> t
        | None ->
          let t = Hashtbl.create 8 in
          Hashtbl.replace by_req s.sp_req t;
          t
      in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl s.sp_name) in
      Hashtbl.replace tbl s.sp_name (prev +. self))
    (self_times spans);
  by_req

let span_json s =
  Printf.sprintf
    "{\"id\":%d,\"name\":\"%s\",\"req\":%d,\"parent\":%d,\"start\":%.9f,\"end\":%.9f}"
    s.sp_id s.sp_name s.sp_req s.sp_parent s.sp_start s.sp_stop

(* ------------------------------------------------------------------ *)
(* Seeded operation sequences                                          *)
(* ------------------------------------------------------------------ *)

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Ad-hoc point lookups: one template instantiated with one literal. The
   literal space is enumerated once and permuted; requests walk the
   permutation cyclically, so a text repeats only after every
   combination has been sent — far more than the plan cache holds. *)
let adhoc_texts ~seed ~templates ~literals =
  let combos =
    Array.concat
      (List.map
         (fun (tpl, kind) ->
           Array.map (fun lit -> tpl lit) (List.assoc kind literals))
         templates)
  in
  shuffle (Prng.create seed) combos

type write =
  | Set_text of { target : int; text : string }
  | Set_attr of { target : int; name : string; value : string }
  | Insert of { parent : int; key : string }
      (** a small fragment whose root gets the next fresh id *)
  | Delete of { insert : int }  (** index of the [Insert] it removes *)

(* A size-neutral mutation stream in cycles of four: one set-text, one
   set-attribute, one insert and the delete of that insert, in a seeded
   order with the delete after its insert. Every set writes a value that
   differs from the target's current one ([texts]/[attrs] carry the
   initial values and are updated as the stream is generated). *)
let write_stream ~seed ~cycles ~text_targets ~attr_targets ~attr_name ~attr_values
    ~insert_parent ~texts ~attrs ~text_values =
  let rng = Prng.create seed in
  let ops = ref [] and n = ref 0 in
  let emit op =
    ops := op :: !ops;
    incr n
  in
  let fresh current pool =
    let others = List.filter (fun v -> v <> current) pool in
    Prng.pick rng (Array.of_list others)
  in
  for c = 0 to cycles - 1 do
    let set_text () =
      let target = Prng.pick rng text_targets in
      let text = fresh (Hashtbl.find texts target) text_values in
      Hashtbl.replace texts target text;
      emit (Set_text { target; text })
    in
    let set_attr () =
      let target = Prng.pick rng attr_targets in
      let value = fresh (Hashtbl.find attrs target) attr_values in
      Hashtbl.replace attrs target value;
      emit (Set_attr { target; name = attr_name; value })
    in
    (* Positions of the insert and its delete within the cycle; the two
       sets fill the remaining slots. *)
    let ins = Prng.int rng 3 in
    let del = ins + 1 + Prng.int rng (3 - ins) in
    let sets = ref (if Prng.chance rng 0.5 then [ set_text; set_attr ] else [ set_attr; set_text ]) in
    let insert_index = ref (-1) in
    for slot = 0 to 3 do
      if slot = ins then begin
        insert_index := !n;
        emit (Insert { parent = insert_parent; key = Printf.sprintf "bw%d-%d" seed c })
      end
      else if slot = del then emit (Delete { insert = !insert_index })
      else
        match !sets with
        | f :: rest ->
          sets := rest;
          f ()
        | [] -> assert false
    done
  done;
  Array.of_list (List.rev !ops)

(* ------------------------------------------------------------------ *)
(* Result line                                                         *)
(* ------------------------------------------------------------------ *)

type metric = { m_name : string; m_unit : string; m_value : float }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_json ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.m_name
              (json_number m.m_value) m.m_unit)
          metrics))
