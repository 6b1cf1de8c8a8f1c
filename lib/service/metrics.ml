module Engine = Ppfx_minidb.Engine

type stage = Parse | Translate | Plan | Queue | Request | Execute | Merge

let stage_name = function
  | Parse -> "parse"
  | Translate -> "translate"
  | Plan -> "plan"
  | Queue -> "queue"
  | Request -> "request"
  | Execute -> "execute"
  | Merge -> "merge"

let all_stages = [ Parse; Translate; Plan; Queue; Request; Execute; Merge ]

let stage_slot = function
  | Parse -> 0 | Translate -> 1 | Plan -> 2 | Queue -> 3 | Request -> 4 | Execute -> 5
  | Merge -> 6

type counter =
  | Queries | Prepares | Hits | Misses | Invalidations | Retained | Evictions | Fallbacks
  | Rows
  | Accepted | Rejected | Requests | Rows_sent | Active | Peak_active | Bytes_in | Bytes_out
  | Queue_depth_hwm
  | Wal_appends | Wal_bytes | Wal_fsyncs | Checkpoints | Recoveries | Clean_starts
  | Replayed_records | Truncated_tails | Truncated_bytes | Clean_shutdowns

type group = Service | Net | Durability

let group_name = function Service -> "service" | Net -> "net" | Durability -> "durability"

let counters =
  [
    (Queries, "queries", Service);
    (Prepares, "prepares", Service);
    (Hits, "hits", Service);
    (Misses, "misses", Service);
    (Invalidations, "invalidations", Service);
    (Retained, "retained", Service);
    (Evictions, "evictions", Service);
    (Fallbacks, "fallbacks", Service);
    (Rows, "rows", Service);
    (Accepted, "accepted", Net);
    (Rejected, "rejected", Net);
    (Requests, "requests", Net);
    (Rows_sent, "rows_sent", Net);
    (Active, "active", Net);
    (Peak_active, "peak_active", Net);
    (Bytes_in, "bytes_in", Net);
    (Bytes_out, "bytes_out", Net);
    (Queue_depth_hwm, "queue_depth_hwm", Net);
    (Wal_appends, "wal_appends", Durability);
    (Wal_bytes, "wal_bytes", Durability);
    (Wal_fsyncs, "wal_fsyncs", Durability);
    (Checkpoints, "checkpoints", Durability);
    (Recoveries, "recoveries", Durability);
    (Clean_starts, "clean_starts", Durability);
    (Replayed_records, "replayed_records", Durability);
    (Truncated_tails, "truncated_tails", Durability);
    (Truncated_bytes, "truncated_bytes", Durability);
    (Clean_shutdowns, "clean_shutdowns", Durability);
  ]

(* A counter's index into every sink's [counts]: its position in
   [counters], which the check below holds the match to. *)
let slot = function
  | Queries -> 0 | Prepares -> 1 | Hits -> 2 | Misses -> 3 | Invalidations -> 4
  | Retained -> 5 | Evictions -> 6 | Fallbacks -> 7 | Rows -> 8 | Accepted -> 9
  | Rejected -> 10 | Requests -> 11 | Rows_sent -> 12 | Active -> 13 | Peak_active -> 14
  | Bytes_in -> 15 | Bytes_out -> 16 | Queue_depth_hwm -> 17 | Wal_appends -> 18
  | Wal_bytes -> 19 | Wal_fsyncs -> 20 | Checkpoints -> 21 | Recoveries -> 22
  | Clean_starts -> 23 | Replayed_records -> 24 | Truncated_tails -> 25
  | Truncated_bytes -> 26 | Clean_shutdowns -> 27

let () = List.iteri (fun i (c, _, _) -> assert (slot c = i)) counters

(* Latency histogram: bucket [i] counts observations whose duration in
   nanoseconds lies in [2^i, 2^(i+1)). 64 buckets cover every float
   duration we can meet; percentile read-out uses the geometric midpoint
   of the winning bucket, so the reported quantile is exact to within a
   factor of sqrt(2). *)
let hist_buckets = 64

let bucket_of_seconds seconds =
  let ns = seconds *. 1e9 in
  if ns < 1.0 then 0
  else
    let b = int_of_float (Float.log2 ns) in
    if b < 0 then 0 else if b > hist_buckets - 1 then hist_buckets - 1 else b

let bucket_midpoint_seconds b =
  (* geometric midpoint of [2^b, 2^(b+1)) ns *)
  (2.0 ** (float_of_int b +. 0.5)) *. 1e-9

type acc = {
  mutable count : int; mutable total : float; mutable min : float; mutable max : float;
  hist : int array;
}

let acc_create () =
  let hist = Array.make hist_buckets 0 in
  { count = 0; total = 0.0; min = infinity; max = neg_infinity; hist }

let acc_merge ~into a =
  into.count <- into.count + a.count;
  into.total <- into.total +. a.total;
  into.min <- Float.min into.min a.min;
  into.max <- Float.max into.max a.max;
  Array.iteri (fun b n -> into.hist.(b) <- into.hist.(b) + n) a.hist

(* Quantile q (in [0,1]) from the log2 histogram: the midpoint of the
   bucket containing the ceil(q * count)-th observation. *)
let acc_percentile a q =
  if a.count = 0 then nan
  else begin
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int a.count)) in
      if r < 1 then 1 else if r > a.count then a.count else r
    in
    let rec go b seen =
      if b >= hist_buckets then a.max
      else
        let seen = seen + a.hist.(b) in
        if seen >= rank then bucket_midpoint_seconds b else go (b + 1) seen
    in
    go 0 0
  end

type t = {
  stages : acc array;  (** indexed by [stage_slot] *)
  counts : int array;  (** indexed by [slot] *)
  mutable shard_rows : int array;
  mutable engine : Engine.exec_stats;  (** added into in place, under [lock] *)
  (* The server records from several domains at once; every mutation is
     serialized here. Single-threaded users pay one uncontended lock. *)
  lock : Mutex.t;
}

let create () =
  {
    stages = Array.init (List.length all_stages) (fun _ -> acc_create ());
    counts = Array.make (List.length counters) 0;
    shard_rows = [||];
    engine = Engine.stats_create ();
    lock = Mutex.create ();
  }

let reset t =
  Mutex.protect t.lock @@ fun () ->
  Array.iteri (fun i _ -> t.stages.(i) <- acc_create ()) t.stages;
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.shard_rows <- [||];
  t.engine <- Engine.stats_create ()

let acc t stage = t.stages.(stage_slot stage)

(* The mutators below sit on the serving hot path: no closure, no
   lookup, one lock. Nothing between lock and unlock can raise. *)
let record t stage seconds =
  let a = acc t stage and b = bucket_of_seconds seconds in
  Mutex.lock t.lock;
  a.count <- a.count + 1;
  a.total <- a.total +. seconds;
  if seconds < a.min then a.min <- seconds;
  if seconds > a.max then a.max <- seconds;
  a.hist.(b) <- a.hist.(b) + 1;
  Mutex.unlock t.lock

let add t c n =
  let i = slot c in
  Mutex.lock t.lock;
  t.counts.(i) <- t.counts.(i) + n;
  Mutex.unlock t.lock

let incr t c = add t c 1

let note_max t c n =
  let i = slot c in
  Mutex.lock t.lock;
  if n > t.counts.(i) then t.counts.(i) <- n;
  Mutex.unlock t.lock

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time t stage f =
  let t0 = now () in
  Fun.protect ~finally:(fun () -> record t stage (now () -. t0)) f

let get t c = t.counts.(slot c)
let hits t = get t Hits
let misses t = get t Misses
let invalidations t = get t Invalidations
let retained t = get t Retained
let bytes_out t = get t Bytes_out
let checkpoints t = get t Checkpoints
let wal_bytes t = get t Wal_bytes
let wal_fsyncs t = get t Wal_fsyncs

let connection_opened t =
  incr t Active;
  note_max t Peak_active (get t Active)

let connection_closed t = add t Active (-1)

let add_recovery t ~replayed ~truncated_bytes ~clean =
  if clean then incr t Clean_starts
  else begin
    incr t Recoveries;
    add t Replayed_records replayed;
    if truncated_bytes > 0 then begin
      incr t Truncated_tails;
      add t Truncated_bytes truncated_bytes
    end
  end

let set_shard_rows t counts =
  Mutex.protect t.lock @@ fun () -> t.shard_rows <- Array.of_list counts

let add_plan t plan =
  Mutex.lock t.lock;
  Engine.report_stats plan ~into:t.engine;
  Mutex.unlock t.lock

let engine_stats t =
  let copy = Engine.stats_create () in
  Mutex.protect t.lock (fun () -> Engine.stats_accumulate ~into:copy t.engine);
  copy

(* Snapshot [src] under its own lock, then add under [into]'s: never both
   locks at once, so absorbing a sink into itself cannot deadlock. *)
let absorb ~into src =
  let engine = Engine.stats_create () in
  let counts, stages, shard_rows =
    Mutex.protect src.lock @@ fun () ->
    Engine.stats_accumulate ~into:engine src.engine;
    let stages = Array.map (fun a -> { a with hist = Array.copy a.hist }) src.stages in
    (Array.copy src.counts, stages, src.shard_rows)
  in
  Mutex.protect into.lock @@ fun () ->
  if Array.length into.shard_rows = 0 then into.shard_rows <- shard_rows;
  Array.iteri (fun i n -> into.counts.(i) <- into.counts.(i) + n) counts;
  Array.iteri (fun i a -> acc_merge ~into:into.stages.(i) a) stages;
  Engine.stats_accumulate ~into:into.engine engine

(* Largest shard over the mean: 1.0 is perfect balance. *)
let shard_skew_of rows =
  let n = Array.length rows in
  let total = Array.fold_left ( + ) 0 rows in
  if n = 0 || total = 0 then nan
  else float_of_int (Array.fold_left max 0 rows) /. (float_of_int total /. float_of_int n)

let shard_rows t = Array.to_list t.shard_rows
let shard_skew t = shard_skew_of t.shard_rows
let stage_count t stage = (acc t stage).count
let stage_total t stage = (acc t stage).total
let stage_percentile t stage q = acc_percentile (acc t stage) q

let hit_rate t =
  let lookups = get t Hits + get t Misses in
  if lookups = 0 then nan else float_of_int (get t Hits) /. float_of_int lookups

(* [(name, value)] for every counter in [group], in table order. *)
let group_counts t group =
  List.filter_map
    (fun (c, name, g) -> if g = group then Some (name, get t c) else None) counters

let dump t =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let group_line group suffix =
    let counts = group_counts t group in
    if group = Service || List.exists (fun (_, n) -> n <> 0) counts then
      line "  %s: %s%s\n" (group_name group)
        (String.concat ", " (List.map (fun (name, n) -> Printf.sprintf "%s %d" name n) counts))
        suffix
  in
  let hit_rate = hit_rate t and skew = shard_skew t in
  line "service metrics\n";
  group_line Service
    (if Float.is_nan hit_rate then " (hit rate n/a)"
     else Printf.sprintf " (hit rate %.1f%%)" (100.0 *. hit_rate));
  if Array.length t.shard_rows > 0 then
    line "  shards: rows [%s], skew %s\n"
      (String.concat "; " (List.map string_of_int (shard_rows t)))
      (if Float.is_nan skew then "n/a" else Printf.sprintf "%.2fx" skew);
  line "  engine: %s\n" (Engine.stats_to_string t.engine);
  group_line Net "";
  group_line Durability "";
  line "  %-10s %8s %12s %12s %10s %10s %10s %10s %10s\n" "stage" "count" "total ms"
    "mean ms" "min ms" "max ms" "p50 ms" "p95 ms" "p99 ms";
  List.iter
    (fun stage ->
      let a = acc t stage and ms s = 1e3 *. s in
      if a.count = 0 then
        line "  %-10s %8d %12s %12s %10s %10s %10s %10s %10s\n" (stage_name stage) 0 "-" "-"
          "-" "-" "-" "-" "-"
      else
        line "  %-10s %8d %12.3f %12.4f %10.4f %10.4f %10.4f %10.4f %10.4f\n"
          (stage_name stage) a.count (ms a.total)
          (ms a.total /. float_of_int a.count)
          (ms a.min) (ms a.max)
          (ms (acc_percentile a 0.50))
          (ms (acc_percentile a 0.95))
          (ms (acc_percentile a 0.99)))
    all_stages;
  Buffer.contents buf

let to_json t =
  let fields kvs =
    String.concat "," (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%d" k v) kvs)
  in
  let stage_json stage =
    let a = acc t stage in
    let q name v =
      Printf.sprintf "\"%s\":%s" name (if a.count = 0 then "null" else Printf.sprintf "%.9f" v)
    in
    Printf.sprintf "\"%s\":{\"count\":%d,\"total_s\":%.9f,%s,%s,%s,%s,%s}" (stage_name stage)
      a.count a.total (q "min_s" a.min) (q "max_s" a.max)
      (q "p50_s" (acc_percentile a 0.50))
      (q "p95_s" (acc_percentile a 0.95))
      (q "p99_s" (acc_percentile a 0.99))
  in
  let engine =
    List.map (fun (c : Engine.counter) -> (c.name, c.get t.engine)) Engine.counters
  in
  let group g = Printf.sprintf "\"%s\":{%s}" (group_name g) (fields (group_counts t g)) in
  let skew = shard_skew t in
  Printf.sprintf
    "{%s,\"engine\":{%s},%s,\"shards\":{\"rows\":[%s],\"skew\":%s},%s,\"stages\":{%s}}"
    (fields (group_counts t Service))
    (fields engine) (group Net)
    (String.concat "," (List.map string_of_int (shard_rows t)))
    (if Float.is_nan skew then "null" else Printf.sprintf "%.4f" skew)
    (group Durability)
    (String.concat "," (List.map stage_json all_stages))
