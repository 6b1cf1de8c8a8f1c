type stage = Parse | Translate | Plan | Queue | Execute | Merge

let stage_name = function
  | Parse -> "parse"
  | Translate -> "translate"
  | Plan -> "plan"
  | Queue -> "queue"
  | Execute -> "execute"
  | Merge -> "merge"

let all_stages = [ Parse; Translate; Plan; Queue; Execute; Merge ]

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
  mutable count : int;
  mutable total : float;
  mutable min : float;
  mutable max : float;
  hist : int array;
}

let acc_create () =
  {
    count = 0;
    total = 0.0;
    min = infinity;
    max = neg_infinity;
    hist = Array.make hist_buckets 0;
  }

let acc_reset a =
  a.count <- 0;
  a.total <- 0.0;
  a.min <- infinity;
  a.max <- neg_infinity;
  Array.fill a.hist 0 hist_buckets 0

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
  parse : acc;
  translate : acc;
  plan : acc;
  queue : acc;
  execute : acc;
  merge : acc;
  mutable queries : int;
  mutable prepares : int;
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  mutable retained : int;
  mutable evictions : int;
  mutable fallbacks : int;
  mutable rows : int;
  mutable shard_rows : int array;
  mutable engine : Ppfx_minidb.Engine.exec_stats;
  (* network serving counters (the socket server's sink) *)
  mutable accepted : int;
  mutable rejected : int;
  mutable active : int;
  mutable peak_active : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable queue_hwm : int;
  (* durability counters (the WAL layer's sink) *)
  mutable wal_appends : int;
  mutable wal_bytes : int;
  mutable wal_fsyncs : int;
  mutable checkpoints : int;
  mutable recoveries : int;  (** starts that scanned + replayed the log *)
  mutable clean_starts : int;  (** starts that skipped the scan (clean marker) *)
  mutable replayed_records : int;
  mutable truncated_tails : int;  (** recoveries that cut a torn/corrupt tail *)
  mutable truncated_bytes : int;
  mutable clean_shutdowns : int;
  (* The server records from several domains at once; every mutation is
     serialized here. Single-threaded users pay one uncontended lock. *)
  lock : Mutex.t;
}

let create () =
  {
    parse = acc_create ();
    translate = acc_create ();
    plan = acc_create ();
    queue = acc_create ();
    execute = acc_create ();
    merge = acc_create ();
    queries = 0;
    prepares = 0;
    hits = 0;
    misses = 0;
    invalidations = 0;
    retained = 0;
    evictions = 0;
    fallbacks = 0;
    rows = 0;
    shard_rows = [||];
    engine = Ppfx_minidb.Engine.stats_zero;
    accepted = 0;
    rejected = 0;
    active = 0;
    peak_active = 0;
    bytes_in = 0;
    bytes_out = 0;
    queue_hwm = 0;
    wal_appends = 0;
    wal_bytes = 0;
    wal_fsyncs = 0;
    checkpoints = 0;
    recoveries = 0;
    clean_starts = 0;
    replayed_records = 0;
    truncated_tails = 0;
    truncated_bytes = 0;
    clean_shutdowns = 0;
    lock = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let reset t =
  locked t @@ fun () ->
  List.iter acc_reset [ t.parse; t.translate; t.plan; t.queue; t.execute; t.merge ];
  t.queries <- 0;
  t.prepares <- 0;
  t.hits <- 0;
  t.misses <- 0;
  t.invalidations <- 0;
  t.retained <- 0;
  t.evictions <- 0;
  t.fallbacks <- 0;
  t.rows <- 0;
  t.shard_rows <- [||];
  t.engine <- Ppfx_minidb.Engine.stats_zero;
  t.accepted <- 0;
  t.rejected <- 0;
  t.active <- 0;
  t.peak_active <- 0;
  t.bytes_in <- 0;
  t.bytes_out <- 0;
  t.queue_hwm <- 0;
  t.wal_appends <- 0;
  t.wal_bytes <- 0;
  t.wal_fsyncs <- 0;
  t.checkpoints <- 0;
  t.recoveries <- 0;
  t.clean_starts <- 0;
  t.replayed_records <- 0;
  t.truncated_tails <- 0;
  t.truncated_bytes <- 0;
  t.clean_shutdowns <- 0

let acc t = function
  | Parse -> t.parse
  | Translate -> t.translate
  | Plan -> t.plan
  | Queue -> t.queue
  | Execute -> t.execute
  | Merge -> t.merge

let record t stage seconds =
  locked t @@ fun () ->
  let a = acc t stage in
  a.count <- a.count + 1;
  a.total <- a.total +. seconds;
  if seconds < a.min then a.min <- seconds;
  if seconds > a.max then a.max <- seconds;
  let b = bucket_of_seconds seconds in
  a.hist.(b) <- a.hist.(b) + 1

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time t stage f =
  let t0 = now () in
  Fun.protect ~finally:(fun () -> record t stage (now () -. t0)) f

let incr_queries t = locked t @@ fun () -> t.queries <- t.queries + 1
let incr_prepares t = locked t @@ fun () -> t.prepares <- t.prepares + 1
let incr_hits t = locked t @@ fun () -> t.hits <- t.hits + 1
let incr_misses t = locked t @@ fun () -> t.misses <- t.misses + 1
let incr_invalidations t = locked t @@ fun () -> t.invalidations <- t.invalidations + 1
let incr_retained t = locked t @@ fun () -> t.retained <- t.retained + 1
let incr_evictions t = locked t @@ fun () -> t.evictions <- t.evictions + 1
let incr_fallbacks t = locked t @@ fun () -> t.fallbacks <- t.fallbacks + 1
let add_rows t n = locked t @@ fun () -> t.rows <- t.rows + n

let set_shard_rows t counts =
  locked t @@ fun () -> t.shard_rows <- Array.of_list counts

(* Largest shard over the mean: 1.0 is perfect balance. *)
let shard_skew_of rows =
  let n = Array.length rows in
  if n = 0 then nan
  else
    let total = Array.fold_left ( + ) 0 rows in
    if total = 0 then nan
    else
      let mean = float_of_int total /. float_of_int n in
      float_of_int (Array.fold_left max 0 rows) /. mean

let add_engine t stats =
  locked t @@ fun () -> t.engine <- Ppfx_minidb.Engine.stats_add t.engine stats

let incr_accepted t = locked t @@ fun () -> t.accepted <- t.accepted + 1
let incr_rejected t = locked t @@ fun () -> t.rejected <- t.rejected + 1

let connection_opened t =
  locked t @@ fun () ->
  t.active <- t.active + 1;
  if t.active > t.peak_active then t.peak_active <- t.active

let connection_closed t = locked t @@ fun () -> t.active <- max 0 (t.active - 1)

let add_bytes_in t n = locked t @@ fun () -> t.bytes_in <- t.bytes_in + n
let add_bytes_out t n = locked t @@ fun () -> t.bytes_out <- t.bytes_out + n

let note_queue_depth t d =
  locked t @@ fun () -> if d > t.queue_hwm then t.queue_hwm <- d

let add_wal_appends t ~count ~bytes =
  locked t @@ fun () ->
  t.wal_appends <- t.wal_appends + count;
  t.wal_bytes <- t.wal_bytes + bytes

let add_wal_fsyncs t n = locked t @@ fun () -> t.wal_fsyncs <- t.wal_fsyncs + n
let add_checkpoints t n = locked t @@ fun () -> t.checkpoints <- t.checkpoints + n

let add_recovery t ~replayed ~truncated_bytes ~clean =
  locked t @@ fun () ->
  if clean then t.clean_starts <- t.clean_starts + 1
  else begin
    t.recoveries <- t.recoveries + 1;
    t.replayed_records <- t.replayed_records + replayed;
    if truncated_bytes > 0 then begin
      t.truncated_tails <- t.truncated_tails + 1;
      t.truncated_bytes <- t.truncated_bytes + truncated_bytes
    end
  end

let incr_clean_shutdowns t =
  locked t @@ fun () -> t.clean_shutdowns <- t.clean_shutdowns + 1

let queries t = t.queries
let prepares t = t.prepares
let hits t = t.hits
let misses t = t.misses
let invalidations t = t.invalidations
let retained t = t.retained
let evictions t = t.evictions
let fallbacks t = t.fallbacks
let rows t = t.rows
let shard_rows t = Array.to_list t.shard_rows
let shard_skew t = shard_skew_of t.shard_rows
let engine_stats t = t.engine

let wal_appends t = t.wal_appends
let wal_bytes t = t.wal_bytes
let wal_fsyncs t = t.wal_fsyncs
let checkpoints t = t.checkpoints
let recoveries t = t.recoveries
let clean_starts t = t.clean_starts
let replayed_records t = t.replayed_records
let truncated_tails t = t.truncated_tails
let truncated_bytes t = t.truncated_bytes
let clean_shutdowns t = t.clean_shutdowns

let accepted t = t.accepted
let rejected t = t.rejected
let active_connections t = t.active
let peak_connections t = t.peak_active
let bytes_in t = t.bytes_in
let bytes_out t = t.bytes_out
let queue_depth_hwm t = t.queue_hwm

let stage_count t stage = (acc t stage).count
let stage_total t stage = (acc t stage).total
let stage_percentile t stage q = acc_percentile (acc t stage) q

let hit_rate t =
  let lookups = t.hits + t.misses in
  if lookups = 0 then nan else float_of_int t.hits /. float_of_int lookups

let dump t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "service metrics\n";
  Buffer.add_string buf
    (Printf.sprintf "  queries %d, prepares %d, fallbacks %d, result rows %d\n"
       t.queries t.prepares t.fallbacks t.rows);
  Buffer.add_string buf
    (Printf.sprintf
       "  cache: %d hits, %d misses (hit rate %s), %d invalidations, %d retained, %d evictions\n"
       t.hits t.misses
       (let r = hit_rate t in
        if Float.is_nan r then "n/a" else Printf.sprintf "%.1f%%" (100.0 *. r))
       t.invalidations t.retained t.evictions);
  if Array.length t.shard_rows > 0 then
    Buffer.add_string buf
      (Printf.sprintf "  shards: rows [%s], skew %s\n"
         (String.concat "; " (List.map string_of_int (Array.to_list t.shard_rows)))
         (let s = shard_skew_of t.shard_rows in
          if Float.is_nan s then "n/a" else Printf.sprintf "%.2fx" s));
  Buffer.add_string buf
    (Printf.sprintf "  engine: %s\n" (Ppfx_minidb.Engine.stats_to_string t.engine));
  if t.accepted > 0 || t.rejected > 0 then
    Buffer.add_string buf
      (Printf.sprintf
         "  net: %d accepted, %d rejected, %d active (peak %d), %d bytes in, \
          %d bytes out, queue depth hwm %d\n"
         t.accepted t.rejected t.active t.peak_active t.bytes_in t.bytes_out
         t.queue_hwm);
  if
    t.wal_appends > 0 || t.checkpoints > 0 || t.recoveries > 0 || t.clean_starts > 0
    || t.clean_shutdowns > 0
  then
    Buffer.add_string buf
      (Printf.sprintf
         "  durability: %d wal appends (%d bytes), %d fsyncs, %d checkpoints, \
          %d clean shutdowns\n\
         \  durability: %d recoveries (%d records replayed, %d torn tails, %d \
          bytes truncated), %d clean starts\n"
         t.wal_appends t.wal_bytes t.wal_fsyncs t.checkpoints t.clean_shutdowns
         t.recoveries t.replayed_records t.truncated_tails t.truncated_bytes
         t.clean_starts);
  Buffer.add_string buf
    (Printf.sprintf "  %-10s %8s %12s %12s %10s %10s %10s %10s %10s\n" "stage" "count"
       "total ms" "mean ms" "min ms" "max ms" "p50 ms" "p95 ms" "p99 ms");
  List.iter
    (fun stage ->
      let a = acc t stage in
      if a.count = 0 then
        Buffer.add_string buf
          (Printf.sprintf "  %-10s %8d %12s %12s %10s %10s %10s %10s %10s\n"
             (stage_name stage) 0 "-" "-" "-" "-" "-" "-" "-")
      else
        Buffer.add_string buf
          (Printf.sprintf
             "  %-10s %8d %12.3f %12.4f %10.4f %10.4f %10.4f %10.4f %10.4f\n"
             (stage_name stage) a.count (1e3 *. a.total)
             (1e3 *. a.total /. float_of_int a.count)
             (1e3 *. a.min) (1e3 *. a.max)
             (1e3 *. acc_percentile a 0.50)
             (1e3 *. acc_percentile a 0.95)
             (1e3 *. acc_percentile a 0.99)))
    all_stages;
  Buffer.contents buf

let to_json t =
  let stage_json stage =
    let a = acc t stage in
    let q name v =
      Printf.sprintf "\"%s\":%s" name
        (if a.count = 0 then "null" else Printf.sprintf "%.9f" v)
    in
    Printf.sprintf "\"%s\":{\"count\":%d,\"total_s\":%.9f,%s,%s,%s,%s,%s}"
      (stage_name stage) a.count a.total
      (q "min_s" a.min) (q "max_s" a.max)
      (q "p50_s" (acc_percentile a 0.50))
      (q "p95_s" (acc_percentile a 0.95))
      (q "p99_s" (acc_percentile a 0.99))
  in
  let engine_json =
    Printf.sprintf "{%s}"
      (String.concat ","
         (List.map
            (fun (c : Ppfx_minidb.Engine.counter) ->
              Printf.sprintf "\"%s\":%d" c.name (c.get t.engine))
            Ppfx_minidb.Engine.counters))
  in
  let net_json =
    Printf.sprintf
      "{\"accepted\":%d,\"rejected\":%d,\"active\":%d,\"peak_active\":%d,\
       \"bytes_in\":%d,\"bytes_out\":%d,\"queue_depth_hwm\":%d}"
      t.accepted t.rejected t.active t.peak_active t.bytes_in t.bytes_out
      t.queue_hwm
  in
  let shards_json =
    Printf.sprintf "{\"rows\":[%s],\"skew\":%s}"
      (String.concat "," (List.map string_of_int (Array.to_list t.shard_rows)))
      (let s = shard_skew_of t.shard_rows in
       if Float.is_nan s then "null" else Printf.sprintf "%.4f" s)
  in
  let durability_json =
    Printf.sprintf
      "{\"wal_appends\":%d,\"wal_bytes\":%d,\"wal_fsyncs\":%d,\
       \"checkpoints\":%d,\"recoveries\":%d,\"clean_starts\":%d,\
       \"replayed_records\":%d,\"truncated_tails\":%d,\"truncated_bytes\":%d,\
       \"clean_shutdowns\":%d}"
      t.wal_appends t.wal_bytes t.wal_fsyncs t.checkpoints t.recoveries
      t.clean_starts t.replayed_records t.truncated_tails t.truncated_bytes
      t.clean_shutdowns
  in
  Printf.sprintf
    "{\"queries\":%d,\"prepares\":%d,\"hits\":%d,\"misses\":%d,\
     \"invalidations\":%d,\"retained\":%d,\"evictions\":%d,\"fallbacks\":%d,\
     \"rows\":%d,\"engine\":%s,\"net\":%s,\"shards\":%s,\"durability\":%s,\
     \"stages\":{%s}}"
    t.queries t.prepares t.hits t.misses t.invalidations t.retained t.evictions
    t.fallbacks t.rows engine_json net_json shards_json durability_json
    (String.concat "," (List.map stage_json all_stages))
