(* Benchmark harness reproducing every table and figure of the paper's
   evaluation (Section 5):

   - fig3     : schema-aware PPF vs schema-oblivious (Edge-like) PPF
                (paper Figure 3)
   - fig4     : PPF vs Edge-PPF vs MonetDB-sim vs Commercial vs XPath
                Accelerator on XMark, small and large documents (paper
                Figure 4 / Appendix C left table)
   - dblp     : the same comparison on the DBLP workload (Appendix C
                right table)
   - tables   : the example translations of paper Tables 1 and 3-6
   - ablation : PPF-specific design choices toggled off one at a time
                (Section 4.4/4.5 optimizations; beyond the paper)
   - sweep    : per-query engine series over growing document sizes
                (crossover study; beyond the paper)
   - extensions : twig joins (the paper's Section 7 future work) and the
                extended query set (string functions, count())
   - micro    : Bechamel micro-benchmarks of the substrate primitives,
                plus one Bechamel test per paper table
   - service  : cold vs warm prepared-query serving through ppfx_service
                (translation/plan cache; beyond the paper)
   - engine   : minidb optimizer pass on vs off — path-filter semi-join
                reduction and hash joins over warm prepared plans, with
                operator counters (beyond the paper)
   - net      : the wire-protocol TCP server under an open-loop load
                generator — latency percentiles from scheduled arrival
                at >= 32 concurrent connections, plus an overload point
                where admission control rejects (beyond the paper)
   - write    : lib/update subtree mutations — mutations/sec by subtree
                size, plan-cache retention under a 90/10 read/write mix,
                and ORDPATH label growth under adversarial front inserts
                (beyond the paper)
   - durability : lib/wal write-ahead logging — mutations/sec at each
                append policy (volatile / off / batch / fsync) and
                cold-start wall time from the data directory (WAL
                replay and clean checkpoint) vs re-shredding from
                source (beyond the paper)

   Usage: dune exec bench/main.exe -- [section ...] [options]
   Options: --small N (items/region, default 50)
            --large N (default 200)
            --dblp-entries N (default 3000)
            --reps N  (default 3, median is reported)
            --json    (also write BENCH_TRAJECTORY.json)
            --json-out FILE (choose the trajectory file name)  *)

module Doc = Ppfx_xml.Doc
module Graph = Ppfx_schema.Graph
module Loader = Ppfx_shred.Loader
module Edge = Ppfx_shred.Edge
module Translate = Ppfx_translate.Translate
module Accelerator = Ppfx_baselines.Accelerator
module Monet_sim = Ppfx_baselines.Monet_sim
module Commercial = Ppfx_baselines.Commercial
module Twig = Ppfx_baselines.Twig
module Engine = Ppfx_minidb.Engine
module Sql = Ppfx_minidb.Sql
module Xmark = Ppfx_workloads.Xmark
module Dblp = Ppfx_workloads.Dblp
module Xparser = Ppfx_xpath.Parser
module Metrics = Ppfx_service.Metrics

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  mutable small : int;
  mutable large : int;
  mutable dblp_entries : int;
  mutable reps : int;
  mutable sections : string list;
  mutable json : string option;
}

let config =
  { small = 50; large = 200; dblp_entries = 3000; reps = 3; sections = []; json = None }

let parse_args () =
  let rec go = function
    | [] -> ()
    | "--small" :: v :: rest ->
      config.small <- int_of_string v;
      go rest
    | "--large" :: v :: rest ->
      config.large <- int_of_string v;
      go rest
    | "--dblp-entries" :: v :: rest ->
      config.dblp_entries <- int_of_string v;
      go rest
    | "--reps" :: v :: rest ->
      config.reps <- int_of_string v;
      go rest
    | "--json" :: rest ->
      if config.json = None then config.json <- Some "BENCH_TRAJECTORY.json";
      go rest
    | "--json-out" :: v :: rest ->
      config.json <- Some v;
      go rest
    | section :: rest ->
      config.sections <- config.sections @ [ section ];
      go rest
  in
  go (List.tl (Array.to_list Sys.argv))

let wants section =
  config.sections = [] || List.mem section config.sections
  || List.mem "all" config.sections

(* ------------------------------------------------------------------ *)
(* Machine-readable trajectory (--json)                                *)
(* ------------------------------------------------------------------ *)

(* Every timed measurement is also appended to a record list when --json
   is given; the records are written as one JSON array at exit, so a run
   leaves a BENCH_*.json trajectory alongside the human-readable tables. *)

let current_section = ref ""

let json_records : string list ref = ref []

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let record ?extra ~dataset ~query ~engine ~nodes ~seconds () =
  if config.json <> None then
    json_records :=
      Printf.sprintf
        "{\"section\":\"%s\",\"dataset\":\"%s\",\"query\":\"%s\",\"engine\":\"%s\",\
         \"nodes\":%s,\"seconds\":%s,\"reps\":%d%s}"
        (json_escape !current_section) (json_escape dataset) (json_escape query)
        (json_escape engine)
        (if nodes < 0 then "null" else string_of_int nodes)
        (if Float.is_nan seconds then "null" else Printf.sprintf "%.9f" seconds)
        config.reps
        (match extra with None -> "" | Some e -> "," ^ e)
      :: !json_records

let write_json () =
  match config.json with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc "[";
    List.iteri
      (fun i r -> output_string oc ((if i = 0 then "\n  " else ",\n  ") ^ r))
      (List.rev !json_records);
    output_string oc "\n]\n";
    close_out oc;
    Printf.printf "\nwrote %s (%d records)\n" path (List.length !json_records)

(* ------------------------------------------------------------------ *)
(* Stores                                                              *)
(* ------------------------------------------------------------------ *)

type stores = {
  label : string;
  doc : Doc.t;
  schema_store : Loader.t;
  edge_store : Edge.t;
  accel_store : Accelerator.t;
  monet : Monet_sim.t;
}

let build_stores label doc schema =
  {
    label;
    doc;
    schema_store = Loader.shred schema doc;
    edge_store = Edge.shred doc;
    accel_store = Accelerator.shred doc;
    monet = Monet_sim.of_doc doc;
  }

let xmark_stores scale =
  let doc = Doc.of_tree (Xmark.generate ~items_per_region:scale ()) in
  build_stores (Printf.sprintf "XMark (%d elements)" (Doc.size doc)) doc (Xmark.schema ())

let dblp_stores entries =
  let doc = Doc.of_tree (Dblp.generate ~entries ()) in
  build_stores (Printf.sprintf "DBLP (%d elements)" (Doc.size doc)) doc (Dblp.schema_of doc)

(* ------------------------------------------------------------------ *)
(* Timing                                                              *)
(* ------------------------------------------------------------------ *)

let median l =
  match List.sort compare l with
  | [] -> nan
  | l -> List.nth l (List.length l / 2)

let time_med f =
  let runs =
    List.init (max 1 config.reps) (fun _ ->
        let t0 = Metrics.now () in
        ignore (f ());
        Metrics.now () -. t0)
  in
  median runs

(* Nearest-rank quantile of a non-empty sample. *)
let quantile q l =
  let a = Array.of_list (List.sort compare l) in
  a.(int_of_float (Float.round (q *. float_of_int (Array.length a - 1))))

(* A warm sample is one batch: [f] runs back to back until the batch has
   lasted [min_batch_s], and the sample is the batch's mean time per run.
   Sub-millisecond executions are then timed over many runs instead of
   one, above the monotonic clock's and the host's noise. *)
let min_batch_s = 0.02

type batched = { b_med : float; b_p10 : float; b_p90 : float; b_runs : int }

(* [max 1 config.reps] batches of [f]: the median, p10 and p90 of their
   per-run means, and the total number of runs. *)
let time_batched f =
  let runs = ref 0 in
  let samples =
    List.init (max 1 config.reps) (fun _ ->
        let t0 = Metrics.now () in
        let n = ref 0 in
        while !n = 0 || Metrics.now () -. t0 < min_batch_s do
          ignore (f ());
          incr n
        done;
        runs := !runs + !n;
        (Metrics.now () -. t0) /. float_of_int !n)
  in
  {
    b_med = median samples;
    b_p10 = quantile 0.1 samples;
    b_p90 = quantile 0.9 samples;
    b_runs = !runs;
  }

type engine_result = { nodes : int; seconds : float }

let na = { nodes = -1; seconds = nan }

let run_engine st engine query : engine_result =
  let expr = Xparser.parse query in
  let count run = { nodes = run (); seconds = time_med run } in
  match engine with
  | `Ppf ->
    let tr = Translate.create st.schema_store.Loader.mapping in
    count (fun () ->
        match Translate.translate tr expr with
        | None -> 0
        | Some stmt ->
          List.length (Translate.result_ids (Engine.run st.schema_store.Loader.db stmt)))
  | `Edge_ppf ->
    count (fun () ->
        match Translate.translate Translate.edge expr with
        | None -> 0
        | Some stmt ->
          List.length (Translate.result_ids (Engine.run st.edge_store.Edge.db stmt)))
  | `Accel ->
    count (fun () ->
        match Accelerator.translate expr with
        | None -> 0
        | Some stmt ->
          List.length
            (Accelerator.result_ids (Engine.run st.accel_store.Accelerator.db stmt)))
  | `Monet -> count (fun () -> List.length (Monet_sim.run st.monet expr))
  | `Commercial ->
    if not (Commercial.supports expr) then na
    else
      count (fun () ->
          match Commercial.translate st.schema_store.Loader.mapping expr with
          | None -> 0
          | Some stmt ->
            List.length (Commercial.result_ids (Engine.run st.schema_store.Loader.db stmt)))

let fmt_time r = if Float.is_nan r.seconds then "    N/A" else Printf.sprintf "%7.3f" r.seconds

(* ------------------------------------------------------------------ *)
(* Figure 4 / Appendix C                                               *)
(* ------------------------------------------------------------------ *)

let fig4_for st queries =
  Printf.printf "\n%s — median of %d runs, seconds\n" st.label config.reps;
  Printf.printf "%-5s %8s %8s %9s %12s %11s %8s\n" "query" "#nodes" "PPF" "Edge-PPF"
    "MonetDB-sim" "Commercial" "Accel";
  List.iter
    (fun (name, q) ->
      let ppf = run_engine st `Ppf q in
      let edge = run_engine st `Edge_ppf q in
      let monet = run_engine st `Monet q in
      let com = run_engine st `Commercial q in
      let accel = run_engine st `Accel q in
      List.iter
        (fun (engine, r) ->
          record ~dataset:st.label ~query:name ~engine ~nodes:r.nodes ~seconds:r.seconds ())
        [ "ppf", ppf; "edge-ppf", edge; "monet-sim", monet; "commercial", com;
          "accel", accel ];
      let agree =
        List.for_all (fun r -> r.nodes < 0 || r.nodes = ppf.nodes) [ edge; monet; com; accel ]
      in
      Printf.printf "%-5s %8d  %s  %s      %s     %s  %s%s\n" name ppf.nodes
        (fmt_time ppf) (fmt_time edge) (fmt_time monet) (fmt_time com) (fmt_time accel)
        (if agree then "" else "  <-- DISAGREEMENT");
      flush stdout)
    queries

let fig4 () =
  current_section := "fig4";
  print_endline "\n== Figure 4 / Appendix C: comparison of all engines on XMark ==";
  fig4_for (xmark_stores config.small) Xmark.queries;
  fig4_for (xmark_stores config.large) Xmark.queries

let dblp_table () =
  current_section := "dblp";
  print_endline "\n== Appendix C (right): comparison on DBLP ==";
  fig4_for (dblp_stores config.dblp_entries) Dblp.queries

(* ------------------------------------------------------------------ *)
(* Figure 3                                                            *)
(* ------------------------------------------------------------------ *)

let fig3_for st queries =
  Printf.printf "\n%s\n" st.label;
  Printf.printf "%-5s %8s %13s %14s %8s\n" "query" "#nodes" "schema-aware" "schema-obliv."
    "ratio";
  List.iter
    (fun (name, q) ->
      let ppf = run_engine st `Ppf q in
      let edge = run_engine st `Edge_ppf q in
      record ~dataset:st.label ~query:name ~engine:"ppf" ~nodes:ppf.nodes
        ~seconds:ppf.seconds ();
      record ~dataset:st.label ~query:name ~engine:"edge-ppf" ~nodes:edge.nodes
        ~seconds:edge.seconds ();
      Printf.printf "%-5s %8d  %s       %s      %6.1fx\n" name ppf.nodes (fmt_time ppf)
        (fmt_time edge)
        (edge.seconds /. ppf.seconds);
      flush stdout)
    queries

let fig3 () =
  current_section := "fig3";
  print_endline "\n== Figure 3: schema-aware vs schema-oblivious PPF-based processing ==";
  fig3_for (xmark_stores config.small) Xmark.queries;
  fig3_for (xmark_stores config.large) Xmark.queries;
  fig3_for (dblp_stores config.dblp_entries) Dblp.queries

(* ------------------------------------------------------------------ *)
(* Tables 1, 3-6: translation examples                                 *)
(* ------------------------------------------------------------------ *)

let fig1_schema () =
  let b = Graph.Builder.create () in
  let a = Graph.Builder.define b ~attrs:[ "x" ] "A" in
  let bb = Graph.Builder.define b "B" in
  let c = Graph.Builder.define b "C" in
  let d = Graph.Builder.define b ~text:true "D" in
  let e = Graph.Builder.define b "E" in
  let f = Graph.Builder.define b ~text:true "F" in
  let g = Graph.Builder.define b "G" in
  Graph.Builder.add_child b ~parent:a bb;
  Graph.Builder.add_child b ~parent:bb c;
  Graph.Builder.add_child b ~parent:bb g;
  Graph.Builder.add_child b ~parent:c d;
  Graph.Builder.add_child b ~parent:c e;
  Graph.Builder.add_child b ~parent:e f;
  Graph.Builder.add_child b ~parent:g g;
  Graph.Builder.finish b ~root:a

let tables () =
  print_endline "\n== Tables 1 and 3-6: translations over the paper's Figure 1 schema ==";
  let schema = fig1_schema () in
  let mapping = Ppfx_shred.Mapping.of_schema schema in
  let show ?options q =
    let tr = Translate.create ?options mapping in
    match Translate.translate tr (Xparser.parse q) with
    | Some stmt -> Printf.printf "\n%s\n  => %s\n" q (Sql.to_string stmt)
    | None -> Printf.printf "\n%s\n  => (provably empty)\n" q
  in
  print_endline "\n-- Table 1: forward/backward paths as regular expressions --";
  List.iter
    (fun (path, pattern) -> Printf.printf "%-36s %s\n" path pattern)
    [
      ( "//B/C",
        Ppfx_translate.Regex_of_path.forward ~anchored:false
          [ { desc = true; name = Some "B" }; { desc = false; name = Some "C" } ] );
      ( "/A/B//F",
        Ppfx_translate.Regex_of_path.forward ~anchored:true
          [
            { desc = false; name = Some "A" };
            { desc = false; name = Some "B" };
            { desc = true; name = Some "F" };
          ] );
      ( "//C/*/F",
        Ppfx_translate.Regex_of_path.forward ~anchored:false
          [
            { desc = true; name = Some "C" };
            { desc = false; name = None };
            { desc = false; name = Some "F" };
          ] );
      ( "/parent::F/ancestor::B/parent::A",
        Ppfx_translate.Regex_of_path.backward ~context:(Some "F")
          [ Ppfx_xpath.Ast.Parent, Some "D"; Ppfx_xpath.Ast.Ancestor, Some "B" ] );
    ];
  print_endline "\n-- Table 3: forward and backward PPF translations --";
  let no_omit = { Translate.default_options with omit_path_filters = false } in
  show ~options:no_omit "/A[@x = 3]/B/C//F";
  show ~options:no_omit "/A[@x = 3]/B";
  show "//F/parent::E/ancestor::B";
  print_endline "\n-- Table 4: order-axis steps --";
  show "//D/following-sibling::E";
  show "//D/preceding::G";
  print_endline "\n-- Table 5: predicates --";
  show ~options:no_omit "/A/B[C/*/F = 2]";
  show "//F[parent::E or ancestor::G]";
  print_endline "\n-- Table 6: predicate splitting with OR --";
  show ~options:no_omit "/A/B[C/*]";
  print_endline "\n-- Section 4.4: SQL splitting on the backbone --";
  show "/A/B/*"

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation () =
  print_endline "\n== Ablation: PPF design choices toggled off (XMark) ==";
  let st = xmark_stores config.small in
  let variants =
    [
      "full", Translate.default_options;
      ( "no 4.5 filter omission",
        { Translate.default_options with omit_path_filters = false } );
      "no forward merging", { Translate.default_options with merge_forward = false };
      "no FK child joins", { Translate.default_options with fk_child_joins = false };
      "fully per-step", { Translate.default_options with force_per_step = true };
    ]
  in
  let queries = [ "Q1"; "Q2"; "Q3"; "Q4"; "Q5"; "Q6"; "Q12"; "Q13"; "Q21"; "Q23"; "QA" ] in
  Printf.printf "%-22s" "variant";
  List.iter (fun q -> Printf.printf " %8s" q) queries;
  print_newline ();
  List.iter
    (fun (name, options) ->
      Printf.printf "%-22s" name;
      List.iter
        (fun qname ->
          let q = Xmark.query qname in
          let expr = Xparser.parse q in
          let tr = Translate.create ~options st.schema_store.Loader.mapping in
          let t =
            time_med (fun () ->
                match Translate.translate tr expr with
                | None -> 0
                | Some stmt ->
                  List.length (Engine.run st.schema_store.Loader.db stmt).Engine.rows)
          in
          Printf.printf " %8.4f" t)
        queries;
      print_newline ();
      flush stdout)
    variants

(* ------------------------------------------------------------------ *)
(* Scale sweep: where do the engines cross over?                        *)
(* ------------------------------------------------------------------ *)

let sweep () =
  current_section := "sweep";
  print_endline
    "\n== Scale sweep: per-query series over document size (seconds) ==";
  (* The series is capped at --large so a smoke run (CI) stays small;
     the default --large 200 keeps the full crossover study. *)
  let scales = List.filter (fun s -> s <= max 5 config.large) [ 5; 10; 25; 50; 100; 200 ] in
  let queries = [ "Q3"; "Q6"; "Q10"; "Q13"; "QA" ] in
  let stores = List.map (fun s -> s, xmark_stores s) scales in
  List.iter
    (fun qname ->
      let q = Xmark.query qname in
      Printf.printf "\n%s: %s\n" qname q;
      Printf.printf "%-10s %10s %10s %10s %12s %10s\n" "elements" "#nodes" "PPF"
        "Edge-PPF" "MonetDB-sim" "Accel";
      List.iter
        (fun (_, st) ->
          let ppf = run_engine st `Ppf q in
          let edge = run_engine st `Edge_ppf q in
          let monet = run_engine st `Monet q in
          let accel = run_engine st `Accel q in
          List.iter
            (fun (engine, (r : engine_result)) ->
              record ~dataset:st.label ~query:qname ~engine ~nodes:r.nodes
                ~seconds:r.seconds ())
            [ "ppf", ppf; "edge-ppf", edge; "monet-sim", monet; "accel", accel ];
          Printf.printf "%-10d %10d %s    %s      %s   %s\n" (Doc.size st.doc)
            ppf.nodes (fmt_time ppf) (fmt_time edge) (fmt_time monet) (fmt_time accel);
          flush stdout)
        stores)
    queries

(* ------------------------------------------------------------------ *)
(* Extensions: twig joins (Section 7 future work) and the extended      *)
(* query set                                                            *)
(* ------------------------------------------------------------------ *)

let extensions () =
  print_endline "\n== Extensions: twig joins (paper Section 7) and extended queries ==";
  let st = xmark_stores config.small in
  let twig_store = Twig.of_doc st.doc in
  Printf.printf "\ntwig-join subset — PPF SQL vs stack-based twig joins\n";
  Printf.printf "%-5s %8s %8s %8s\n" "query" "#nodes" "PPF" "Twig";
  List.iter
    (fun (name, q) ->
      let expr = Xparser.parse q in
      let ppf = run_engine st `Ppf q in
      let t_twig = time_med (fun () -> List.length (Twig.run twig_store expr)) in
      let n_twig = List.length (Twig.run twig_store expr) in
      Printf.printf "%-5s %8d  %s  %s%s\n" name ppf.nodes (fmt_time ppf)
        (fmt_time { nodes = n_twig; seconds = t_twig })
        (if n_twig = ppf.nodes then "" else "  <-- DISAGREEMENT");
      flush stdout)
    Xmark.twig_queries;
  Printf.printf
    "\nextended queries (contains/starts-with/string-length/count) — PPF vs MonetDB-sim\n";
  Printf.printf "%-5s %8s %8s %12s\n" "query" "#nodes" "PPF" "MonetDB-sim";
  List.iter
    (fun (name, q) ->
      let ppf = run_engine st `Ppf q in
      let monet = run_engine st `Monet q in
      Printf.printf "%-5s %8d  %s      %s%s\n" name ppf.nodes (fmt_time ppf)
        (fmt_time monet)
        (if monet.nodes = ppf.nodes then "" else "  <-- DISAGREEMENT");
      flush stdout)
    Xmark.extension_queries

(* ------------------------------------------------------------------ *)
(* Service layer: cold vs warm prepared-query serving                  *)
(* ------------------------------------------------------------------ *)

module Session = Ppfx_service.Session

(* Cold = a cache-less arrival (parse + translate + plan + execute every
   time, measured by clearing the session cache before each rep). Warm =
   the same query arriving at a hot session: parse + O(1) cache hit +
   plan replay; translate and plan are skipped entirely, which the
   metrics dump proves (their stage counts stop at one per distinct
   query). *)
let service () =
  current_section := "service";
  print_endline
    "\n== Service layer: cold vs warm prepared-query serving (XPathMark) ==";
  let doc = Doc.of_tree (Xmark.generate ~items_per_region:config.small ()) in
  let store = Loader.shred (Xmark.schema ()) doc in
  let dataset = Printf.sprintf "XMark (%d elements)" (Doc.size doc) in
  Printf.printf "\n%s — median of %d runs, milliseconds\n" dataset config.reps;
  let cold_session = Session.create store in
  let warm_session = Session.create store in
  Printf.printf "%-5s %8s %10s %10s %9s\n" "query" "#nodes" "cold ms" "warm ms" "speedup";
  let cold_total = ref 0.0 and warm_total = ref 0.0 in
  List.iter
    (fun (name, q) ->
      let cold =
        time_med (fun () ->
            Session.invalidate_cache cold_session;
            List.length (Session.run_ids cold_session q))
      in
      (* Prime the warm session, then measure the steady-state serving
         path: parse + cache hit + plan replay. *)
      let nodes = List.length (Session.run_ids warm_session q) in
      let warm = time_med (fun () -> List.length (Session.run_ids warm_session q)) in
      cold_total := !cold_total +. cold;
      warm_total := !warm_total +. warm;
      record ~dataset ~query:name ~engine:"service-cold" ~nodes ~seconds:cold ();
      record ~dataset ~query:name ~engine:"service-warm" ~nodes ~seconds:warm ();
      Printf.printf "%-5s %8d %10.3f %10.3f %8.1fx\n" name nodes (1e3 *. cold)
        (1e3 *. warm) (cold /. warm);
      flush stdout)
    Xmark.queries;
  Printf.printf "%-5s %8s %10.3f %10.3f %8.1fx\n" "total" "" (1e3 *. !cold_total)
    (1e3 *. !warm_total)
    (!cold_total /. !warm_total);
  print_newline ();
  print_string (Metrics.dump (Session.metrics warm_session));
  Printf.printf "\nwarm < cold: %b\n" (!warm_total < !cold_total)

(* ------------------------------------------------------------------ *)
(* Cluster: shard-scaling scatter-gather                               *)
(* ------------------------------------------------------------------ *)

module Cluster = Ppfx_cluster.Cluster

(* Shard-count scaling of the scatter-gather cluster on XPathMark.

   Two series per shard count N:

   - [cluster-N]        measured wall-clock of the scatter-gather (or of
                        the single-store fallback, for non-partitionable
                        queries);
   - [cluster-N-critical] the critical path: the slowest shard's execute
                        latency plus the merge. On a host with >= N idle
                        cores the gather completes in exactly this time;
                        on this machine the domains time-slice, so the
                        measured wall-clock cannot drop below the sum of
                        the per-shard work and the critical path is the
                        honest scaling signal (same reasoning as the
                        monet_sim simulator baseline).

   Fallback queries report the same number for both series. *)
let cluster_bench () =
  current_section := "cluster";
  print_endline "\n== Cluster: shard-count scaling, scatter-gather (XPathMark) ==";
  let tree = Xmark.generate ~items_per_region:config.small () in
  let doc = Doc.of_tree tree in
  let schema = Xmark.schema () in
  let dataset = Printf.sprintf "XMark (%d elements)" (Doc.size doc) in
  let shard_counts = [ 1; 2; 4; 8 ] in
  let reps = max 1 config.reps in
  Printf.printf "\n%s — median of %d runs, milliseconds (wall / critical path)\n"
    dataset reps;
  let clusters =
    List.map
      (fun n ->
        let c = Cluster.create ~shards:n schema [ tree ] in
        Printf.printf "shards=%d: partition %s\n" n
          (String.concat " "
             (Array.to_list (Array.map string_of_int (Cluster.partition_counts c))));
        n, c)
      shard_counts
  in
  Printf.printf "%-5s %8s %9s" "query" "#nodes" "route";
  List.iter (fun n -> Printf.printf " %13s" (Printf.sprintf "%d-shard" n)) shard_counts;
  print_newline ();
  let speedups = ref [] in
  List.iter
    (fun (name, q) ->
      let route =
        match Cluster.verdict (snd (List.hd clusters)) q with
        | Some Ppfx_cluster.Analysis.Partitionable -> `Scatter
        | Some (Ppfx_cluster.Analysis.Order_partitionable _) -> `Order
        | Some (Ppfx_cluster.Analysis.Fallback _) | None -> `Fallback
      in
      let scatter = route <> `Fallback in
      let nodes = ref (-1) in
      let per_shard =
        List.map
          (fun (n, c) ->
            (* Prime: translate/plan once so the timed runs measure the
               warm serving path. *)
            nodes := List.length (Cluster.run_ids c q);
            let walls = ref [] and crits = ref [] in
            for _ = 1 to reps do
              let t0 = Metrics.now () in
              ignore (Cluster.run_ids c q);
              let wall = Metrics.now () -. t0 in
              let crit =
                if scatter then
                  match Cluster.last_stats c with
                  | Some s -> s.Cluster.critical_path
                  | None -> wall
                else wall
              in
              walls := wall :: !walls;
              crits := crit :: !crits
            done;
            let wall = median !walls and crit = median !crits in
            record ~dataset ~query:name ~engine:(Printf.sprintf "cluster-%d" n)
              ~nodes:!nodes ~seconds:wall ();
            record ~dataset ~query:name
              ~engine:(Printf.sprintf "cluster-%d-critical" n)
              ~nodes:!nodes ~seconds:crit ();
            n, wall, crit)
          clusters
      in
      let crit_of n =
        List.find_map (fun (m, _, c) -> if m = n then Some c else None) per_shard
      in
      (match crit_of 1, crit_of 4 with
       | Some c1, Some c4 when scatter && c4 > 0.0 ->
         speedups := (name, c1 /. c4) :: !speedups
       | _ -> ());
      Printf.printf "%-5s %8d %9s" name !nodes
        (match route with
         | `Scatter -> "scatter"
         | `Order -> "order"
         | `Fallback -> "fallback");
      List.iter
        (fun (_, wall, crit) ->
          Printf.printf " %6.2f/%6.2f" (1e3 *. wall) (1e3 *. crit))
        per_shard;
      print_newline ();
      flush stdout)
    Xmark.queries;
  (match List.sort (fun (_, a) (_, b) -> compare b a) !speedups with
   | (name, s) :: _ ->
     Printf.printf
       "\nbest critical-path speedup at 4 shards vs 1: %.2fx (%s); >= 2x: %b\n" s name
       (s >= 2.0)
   | [] -> ());
  List.iter (fun (_, c) -> Cluster.close c) clusters

(* ------------------------------------------------------------------ *)
(* Engine: optimizer pass (semi-join reduction + hash join) on vs off  *)
(* ------------------------------------------------------------------ *)

module Regex = Ppfx_regex.Regex

(* The steady state is where the semi-join reduction pays off: an
   optimized plan sweeps its path regex over the small Paths dimension
   once at prepare time and thereafter probes a cached integer set per
   execution, while an unoptimized plan re-evaluates the regex per paths
   row on every execution. One-shot timings hide the difference (both
   planners put the paths table outermost and scan it exactly once), so
   this section measures warm prepared plans: prepare once per opts
   configuration, execute it in [reps] batches ({!time_batched}), and
   read per-execution operator counters off the plan via
   [Engine.report_stats], divided by the executions run. Regex cache
   hits/misses are deltas around the prepare — compiled patterns are
   shared across prepares, so every configuration after the first hits. *)
(* Q9/Q10/Q11 are the order-axis queries (preceding-sibling, following
   and preceding) and Q21 a descendant containment window: Dewey range
   joins served by per-binding index range scans. Q6, XE1 (contains) and
   XE2 (starts-with) carry value/path regexes: the reduction resolves the
   path ones at plan time, and the rest run as residual frozen-DFA
   filters. *)
let engine_queries = [ "Q2"; "Q3"; "Q4"; "Q6"; "Q9"; "Q10"; "Q11"; "Q21"; "XE1"; "XE2" ]

(* Minor-heap words per warm execution of [plan], over five runs:
   deterministic for a plan, unlike its time. *)
let minor_words_per_exec plan =
  let n = 5 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Engine.run_plan plan)
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* A fixed 96k-element point (items_per_region 200), whatever --small
   says: the warm full-optimizer plans of the engine queries on a
   document large enough that per-row work — DISTINCT, the partition
   merge — dominates the execution. Q3 ([//keyword]: every row of one
   relation, merged across its path partitions) times that merge with
   almost no join work around it. *)
let engine_point_scale = 200

let engine_point () =
  let doc = Doc.of_tree (Xmark.generate ~items_per_region:engine_point_scale ()) in
  let store = Loader.shred (Xmark.schema ()) doc in
  let db = store.Loader.db in
  let tr = Translate.create store.Loader.mapping in
  let dataset = Printf.sprintf "XMark (%d elements)" (Doc.size doc) in
  Printf.printf "\n%s — warm full plans, median of %d batches\n" dataset (max 1 config.reps);
  Printf.printf "%-5s %7s %10s %10s %10s  %-8s %11s\n" "query" "#nodes" "exec ms" "p10 ms"
    "p90 ms" "distinct" "words/exec";
  List.iter
    (fun qname ->
      match Translate.translate tr (Xparser.parse (Xmark.query qname)) with
      | None -> ()
      | Some stmt ->
        let plan = Engine.prepare db stmt in
        let nodes = ref 0 in
        let timing =
          time_batched (fun () ->
              nodes := List.length (Translate.result_ids (Engine.run_plan plan)))
        in
        let mode =
          match Engine.plan_distinct plan with
          | Some `Elided -> "elided"
          | Some `Hash -> "hash"
          | Some `Rows -> "rows"
          | None -> "none"
        in
        let words = minor_words_per_exec plan in
        record ~dataset ~query:qname ~engine:"full" ~nodes:!nodes ~seconds:timing.b_med
          ~extra:
            (Printf.sprintf
               "\"p10_seconds\":%.9f,\"p90_seconds\":%.9f,\"execs\":%d,\"distinct\":\"%s\",\
                \"minor_words_per_exec\":%.1f"
               timing.b_p10 timing.b_p90 timing.b_runs mode words)
          ();
        Printf.printf "%-5s %7d %10.3f %10.3f %10.3f  %-8s %11.0f\n" qname !nodes
          (1e3 *. timing.b_med) (1e3 *. timing.b_p10) (1e3 *. timing.b_p90) mode words;
        flush stdout)
    engine_queries

(* Q2's path filter compiled cold, after clearing the regex cache: the
   once-per-pattern DFA build every serving set-up pays. Minor words and
   DFA states are deterministic; the time is the median of [reps]
   builds. *)
let q2_path_regex =
  "^/site/closed_auctions/closed_auction/annotation/description/parlist/listitem/text/keyword$"

let regex_build_point () =
  let build () =
    Regex.cache_clear ();
    let w0 = Gc.minor_words () and t0 = Metrics.now () in
    let re = Regex.compile_cached q2_path_regex in
    (Metrics.now () -. t0, Gc.minor_words () -. w0, Regex.dfa_states re)
  in
  let runs = List.init (max 1 config.reps) (fun _ -> build ()) in
  let seconds = median (List.map (fun (s, _, _) -> s) runs) in
  let _, words, states = List.hd runs in
  Regex.cache_clear ();
  record ~dataset:"regex" ~query:"Q2" ~engine:"cold-build" ~nodes:(-1) ~seconds
    ~extra:(Printf.sprintf "\"minor_words\":%.0f,\"dfa_states\":%d" words states)
    ();
  Printf.printf "Q2 path regex cold build: %.3f ms, %.0f minor words, %d DFA states\n"
    (1e3 *. seconds) words states

(* The allocation bound of the engine section's acceptance line. *)
let max_words_per_row = 10

let engine_bench () =
  current_section := "engine";
  print_endline
    "\n== Engine: optimizer pass (semi-join reduction + hash joins) on vs off ==";
  let st = xmark_stores config.small in
  let db = st.schema_store.Loader.db in
  let tr = Translate.create st.schema_store.Loader.mapping in
  let off = { Engine.semijoin_reduction = false; hash_join = false; force = None } in
  let configs =
    [
      "unopt", off;
      "reduce-only", { off with Engine.semijoin_reduction = true };
      "hash-only", { off with Engine.force = Some `Hash_join };
      "full", Engine.default_opts;
    ]
  in
  let queries = engine_queries in
  Printf.printf "\n%s — warm prepared plans, median of %d batches of >= %.0f ms each\n"
    st.label (max 1 config.reps) (1e3 *. min_batch_s);
  Printf.printf "%-5s %-12s %7s %10s %11s %12s %12s %10s %11s\n" "query" "plan" "#nodes"
    "exec ms" "regex/exec" "scanned/exec" "probed/exec" "rx-cache" "words/exec";
  Regex.cache_clear ();
  let outcomes = ref [] in
  let warm_dfa = ref 0 and warm_nfa = ref 0 and warm_pruned = ref 0 in
  let warm_words = ref 0.0 and warm_rows = ref 0 in
  List.iter
    (fun qname ->
      let q = Xmark.query qname in
      match Translate.translate tr (Xparser.parse q) with
      | None -> ()
      | Some stmt ->
        List.iter
          (fun (cname, opts) ->
            let h0 = Regex.cache_hits () and m0 = Regex.cache_misses () in
            let plan = Engine.prepare ~opts db stmt in
            let hits = Regex.cache_hits () - h0
            and misses = Regex.cache_misses () - m0 in
            (* Plan-time work and the first execution's (its one-time
               hash builds) are reported apart from the timed runs, so
               that every timed run does the same work and a per-exec
               rate does not depend on how many runs the time allowed. *)
            let lifetime = Engine.stats_create () and total = Engine.stats_create () in
            let nodes = ref (List.length (Translate.result_ids (Engine.run_plan plan))) in
            Engine.report_stats plan ~into:lifetime;
            let timing =
              time_batched (fun () ->
                  nodes := List.length (Translate.result_ids (Engine.run_plan plan)))
            in
            let seconds = timing.b_med in
            Engine.report_stats plan ~into:total;
            Engine.stats_accumulate ~into:lifetime total;
            let words_pe = minor_words_per_exec plan in
            let per_exec n = float_of_int n /. float_of_int timing.b_runs in
            (* Exec-time regex machine runs of either flavor: shared
               frozen-DFA executions plus NFA simulations. *)
            let regex_pe =
              per_exec (total.Engine.regex_exec_evals + total.Engine.dfa_execs)
            and scanned_pe = per_exec total.Engine.rows_scanned
            and probed_pe = per_exec total.Engine.rows_probed in
            if String.equal cname "full" then begin
              warm_words := !warm_words +. words_pe;
              warm_rows := !warm_rows + !nodes;
              warm_dfa := !warm_dfa + total.Engine.dfa_execs;
              warm_nfa := !warm_nfa + total.Engine.regex_exec_evals;
              warm_pruned := !warm_pruned + total.Engine.partitions_pruned
            end;
            let hit_rate =
              if hits + misses = 0 then nan
              else float_of_int hits /. float_of_int (hits + misses)
            in
            (* Per-execution counters as rates over the timed runs;
               plan-lifetime ones as the plan's value. *)
            record ~dataset:st.label ~query:qname ~engine:cname ~nodes:!nodes
              ~seconds
              ~extra:
                (String.concat ","
                   (List.map
                      (fun (c : Engine.counter) ->
                        match c.scope with
                        | Engine.Per_exec ->
                          Printf.sprintf "\"%s_per_exec\":%.1f" c.name
                            (per_exec (c.get total))
                        | Engine.Plan_lifetime ->
                          Printf.sprintf "\"%s\":%d" c.name (c.get lifetime))
                      Engine.counters
                   @ [
                       Printf.sprintf "\"p10_seconds\":%.9f,\"p90_seconds\":%.9f,\"execs\":%d"
                         timing.b_p10 timing.b_p90 timing.b_runs;
                       Printf.sprintf "\"minor_words_per_exec\":%.1f" words_pe;
                       Printf.sprintf
                         "\"regex_evals_per_exec\":%.1f,\
                          \"regex_cache_hits\":%d,\"regex_cache_misses\":%d,\
                          \"regex_cache_hit_rate\":%s"
                         regex_pe hits misses
                         (if Float.is_nan hit_rate then "null"
                          else Printf.sprintf "%.3f" hit_rate);
                     ]))
              ();
            outcomes := (qname, cname, seconds, regex_pe) :: !outcomes;
            Printf.printf "%-5s %-12s %7d %10.3f %11.1f %12.1f %12.1f %6d/%d %11.0f\n" qname
              cname !nodes (1e3 *. seconds) regex_pe scanned_pe probed_pe hits
              (hits + misses) words_pe;
            flush stdout)
          configs)
    queries;
  (* Acceptance summary: full-optimizer warm plans vs unoptimized ones. *)
  let find q c =
    List.find_map
      (fun (q', c', s, r) -> if q = q' && c = c' then Some (s, r) else None)
      !outcomes
  in
  print_newline ();
  let best = ref None in
  List.iter
    (fun qname ->
      match find qname "unopt", find qname "full" with
      | Some (s0, r0), Some (s1, r1) ->
        let regex_ratio = if r1 > 0.0 then r0 /. r1 else infinity in
        let speedup = s0 /. s1 in
        Printf.printf
          "%-5s full vs unopt: %5.1fx fewer regex evals/exec (%.1f -> %.1f), %4.1fx faster\n"
          qname regex_ratio r0 r1 speedup;
        let score = Float.min (regex_ratio /. 10.0) (speedup /. 2.0) in
        (match !best with
         | Some (_, _, _, bscore) when bscore >= score -> ()
         | _ -> best := Some (qname, regex_ratio, speedup, score))
      | _ -> ())
    queries;
  (match !best with
   | Some (qname, r, s, _) ->
     Printf.printf
       "\nbest (%s): regex reduction %.1fx (>= 10x: %b), speedup %.2fx (>= 2x: %b)\n"
       qname r (r >= 10.0) s (s >= 2.0)
   | None -> ());
  Printf.printf "warm full plans: dfa_execs > 0: %b; exec-time regex NFA simulations = 0: %b\n"
    (!warm_dfa > 0) (!warm_nfa = 0);
  (* Only the answer allocates: a two-column row and its list cell are 6
     words; the bound leaves room for an execution's fixed cost. *)
  let words_per_row = !warm_words /. float_of_int (max 1 !warm_rows) in
  Printf.printf "warm full plans: minor words per emitted row <= %d: %b (%.1f)\n"
    max_words_per_row
    (words_per_row <= float_of_int max_words_per_row)
    words_per_row;
  Printf.printf
    "regex compile cache: %d entries, %d DFA table entries, %d hits, %d misses overall\n"
    (Regex.cache_size ()) (Regex.cache_table_length ()) (Regex.cache_hits ())
    (Regex.cache_misses ());
  regex_build_point ();
  Printf.printf "partition pruning nonzero on a path-filter query: %b\n"
    (!warm_pruned > 0);
  (* How each XMark query's final DISTINCT removes duplicates: elided by
     a key proof, hashed on the projected key, or a set of whole rows. *)
  let xmark = Xmark.queries @ Xmark.extension_queries in
  let modes =
    List.filter_map
      (fun (_, q) ->
        Option.bind (Translate.translate tr (Xparser.parse q)) (fun stmt ->
            Engine.plan_distinct (Engine.prepare db stmt)))
      xmark
  in
  let count m = List.length (List.filter (( = ) m) modes) in
  Printf.printf
    "distinct modes over the %d XMark queries: elided %d, hash %d, rows %d; none uses rows: %b\n"
    (List.length xmark) (count `Elided) (count `Hash) (count `Rows) (count `Rows = 0);
  engine_point ()

(* ------------------------------------------------------------------ *)
(* Net: the wire-protocol server under open-loop load                  *)
(* ------------------------------------------------------------------ *)

module Server = Ppfx_net.Server
module Wire = Ppfx_net.Wire
module Client = Ppfx_client.Client

(* Open-loop load generation: requests fire on a fixed arrival schedule
   (t_i = t0 + i/qps) drawn from a shared atomic index by [conns]
   client threads, one wire connection each. Latency is measured from
   the scheduled arrival, not the send, so queueing delay under
   overload is part of the number — a closed-loop generator would hide
   it by slowing its arrival rate to match the server (coordinated
   omission). Percentiles come from the same log2 histograms the
   serving metrics use. *)

type load = {
  ok : int;
  req_rejected : int;  (* request-level admission errors *)
  conn_rejected : int;  (* connections refused at accept *)
  load_failed : int;  (* transport / protocol failures *)
  wall : float;
  lat : Metrics.t;  (* Execute stage = per-request latency *)
}

let open_loop ~port ~conns ~qps ~total ~queries =
  let lat = Metrics.create () in
  let ok = Atomic.make 0 and rejected = Atomic.make 0 in
  let conn_rejected = Atomic.make 0 and failed = Atomic.make 0 in
  let next = Atomic.make 0 in
  let period = 1.0 /. qps in
  let nq = Array.length queries in
  let t0 = Metrics.now () +. 0.05 in
  let worker _ =
    match Client.connect ~client_name:"ppfx-bench" ~port () with
    | exception Client.Server_error { code = Wire.Admission; _ } ->
      Atomic.incr conn_rejected
    | exception _ -> Atomic.incr failed
    | c ->
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < total then begin
          let sched = t0 +. (float_of_int i *. period) in
          let now = Metrics.now () in
          if sched > now then Unix.sleepf (sched -. now);
          (match Client.run_ids c queries.(i mod nq) with
           | _ ->
             Metrics.record lat Metrics.Execute (Metrics.now () -. sched);
             Atomic.incr ok
           | exception Client.Server_error { code = Wire.Admission; _ } ->
             Atomic.incr rejected
           | exception _ -> Atomic.incr failed);
          loop ()
        end
      in
      (try loop () with _ -> ());
      (try Client.close c with _ -> ())
  in
  let threads = List.init conns (fun i -> Thread.create worker i) in
  List.iter Thread.join threads;
  {
    ok = Atomic.get ok;
    req_rejected = Atomic.get rejected;
    conn_rejected = Atomic.get conn_rejected;
    load_failed = Atomic.get failed;
    wall = Metrics.now () -. t0;
    lat;
  }

let json_float f = if Float.is_nan f then "null" else Printf.sprintf "%.3f" f

let report_load ~dataset ~phase ~conns ~qps ~total (r : load) (m : Metrics.t) =
  let pct q = 1e3 *. Metrics.stage_percentile r.lat Metrics.Execute q in
  let p50 = pct 0.5 and p95 = pct 0.95 and p99 = pct 0.99 in
  let achieved = float_of_int r.ok /. r.wall in
  Printf.printf
    "%-9s %4d conns %6.0f qps -> %7.1f qps  p50 %8.2f  p95 %8.2f  p99 %8.2f ms  \
     ok %4d  adm rej %d+%d  failed %d\n"
    phase conns qps achieved p50 p95 p99 r.ok r.conn_rejected r.req_rejected
    r.load_failed;
  flush stdout;
  record ~dataset ~query:phase ~engine:"net" ~nodes:(-1) ~seconds:r.wall
    ~extra:
      (Printf.sprintf
         "\"conns\":%d,\"target_qps\":%.0f,\"achieved_qps\":%.1f,\"requests\":%d,\
          \"ok\":%d,\"rejected\":%d,\"conn_rejected\":%d,\"failed\":%d,\
          \"p50_ms\":%s,\"p95_ms\":%s,\"p99_ms\":%s,\"bytes_in\":%d,\
          \"bytes_out\":%d,\"queue_depth_hwm\":%d,\"peak_conns\":%d"
         conns qps achieved total r.ok r.req_rejected r.conn_rejected r.load_failed
         (json_float p50) (json_float p95) (json_float p99) (Metrics.get m Metrics.Bytes_in)
         (Metrics.get m Metrics.Bytes_out) (Metrics.get m Metrics.Queue_depth_hwm)
         (Metrics.get m Metrics.Peak_active))
    ()

let net () =
  current_section := "net";
  print_endline "\n== Net: wire-protocol server under open-loop load (XMark) ==";
  let doc = Doc.of_tree (Xmark.generate ~items_per_region:config.small ()) in
  let store = Loader.shred (Xmark.schema ()) doc in
  let dataset = Printf.sprintf "XMark (%d elements)" (Doc.size doc) in
  let factory () = Server.session_executor (Session.create store) in
  let queries =
    [| Xmark.query "Q1"; Xmark.query "Q3"; Xmark.query "Q6"; Xmark.query "Q13" |]
  in
  (* Sanity: the wire path must answer exactly like an in-process session. *)
  let serving =
    Server.start ~config:{ Server.default_config with workers = 2 } factory
  in
  let check_session = Session.create store in
  let agree =
    let c = Client.connect ~port:(Server.port serving) () in
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () ->
        Array.for_all
          (fun q -> Client.run_ids c q = Session.run_ids check_session q)
          queries)
  in
  Printf.printf "wire results match in-process session: %b\n%!" agree;
  record ~dataset ~query:"wire-vs-session" ~engine:"net" ~nodes:(if agree then 1 else 0)
    ~seconds:nan ();
  Printf.printf "\n%s — open-loop, latency from scheduled arrival\n" dataset;
  let phase name ~conns ~qps ~total ~on =
    let r = open_loop ~port:(Server.port on) ~conns ~qps ~total ~queries in
    report_load ~dataset ~phase:name ~conns ~qps ~total r (Server.metrics on);
    r
  in
  ignore (phase "steady" ~conns:8 ~qps:150.0 ~total:320 ~on:serving);
  ignore (phase "c32" ~conns:32 ~qps:400.0 ~total:640 ~on:serving);
  Server.stop serving;
  (* Overload: a deliberately tiny server — one worker, a two-deep
     dispatch queue, eight connection slots — hit far above capacity.
     Admission control must reject (error frames) rather than degrade:
     the served requests still complete and the server survives. *)
  let tiny =
    { Server.default_config with
      workers = 1; queue_depth = 2; max_connections = 8 }
  in
  let overload = Server.start ~config:tiny factory in
  let r = phase "overload" ~conns:16 ~qps:2000.0 ~total:480 ~on:overload in
  Printf.printf
    "overload admission: %d connections refused, %d requests rejected, %d served \
     — rejects && survivors: %b\n"
    r.conn_rejected r.req_rejected r.ok
    ((r.conn_rejected > 0 || r.req_rejected > 0) && r.ok > 0);
  let get = Metrics.get (Server.metrics overload) in
  Printf.printf
    "overload server counters: accepted %d, rejected %d, peak active %d, \
     queue hwm %d, bytes in %d, bytes out %d\n"
    (get Metrics.Accepted) (get Metrics.Rejected) (get Metrics.Peak_active)
    (get Metrics.Queue_depth_hwm) (get Metrics.Bytes_in) (get Metrics.Bytes_out);
  Server.stop overload

(* ------------------------------------------------------------------ *)
(* Write path: mutation throughput, plan retention, label growth       *)
(* ------------------------------------------------------------------ *)

module Update = Ppfx_update.Update
module Xtree = Ppfx_xml.Tree

(* Three measurements of the lib/update write path:
   - mutations/sec by subtree size (text patch, small fragment insert,
     full item-subtree insert, subtree delete);
   - a 90/10 read/write mix over a warm session: plan-cache retention
     across disjoint commits, from the plans-retained /
     plans-invalidated session counters;
   - label-length growth under adversarial front inserts — every insert
     lands before the current first child, the worst case for ORDPATH
     caret labels (existing labels never move; only new ones grow). *)
let write_bench () =
  current_section := "write";
  print_endline "\n== Write path: ORDPATH subtree mutations (XMark) ==";
  let tree = Xmark.generate ~items_per_region:config.small () in
  let schema = Xmark.schema () in
  let dataset =
    Printf.sprintf "XMark (%d elements)" (Xtree.count_elements tree)
  in
  let by_tag u tag =
    Hashtbl.fold
      (fun id _ acc ->
        if String.equal (Update.node_tag u id) tag then id :: acc else acc)
      (Update.ranks u) []
  in
  (* First subtree with the given root tag, paired with its parent's
     tag, so the clone can be re-inserted at a conforming position. *)
  let find_fragment tag =
    let rec go ptag = function
      | Xtree.Text _ -> None
      | Xtree.Element { tag = t; children; _ } as e ->
        if String.equal t tag && ptag <> None then
          Some (Option.get ptag, e)
        else
          List.fold_left
            (fun acc c -> match acc with Some _ -> acc | None -> go (Some t) c)
            None children
    in
    match go None tree with
    | Some p -> p
    | None -> failwith ("write_bench: no <" ^ tag ^ "> in the document")
  in
  (* (a) mutation throughput by subtree size *)
  let u = Update.create schema [ tree ] in
  let n_ops = max 50 (config.reps * 50) in
  let bench_ops name ~elems f =
    let t0 = Metrics.now () in
    for i = 0 to n_ops - 1 do
      f i
    done;
    let dt = Metrics.now () -. t0 in
    let rate = float_of_int n_ops /. dt in
    Printf.printf "  %-30s %10.0f mutations/s  (subtree = %d elements)\n" name
      rate elems;
    record ~dataset ~query:name ~engine:"update" ~nodes:elems
      ~seconds:(dt /. float_of_int n_ops)
      ~extra:(Printf.sprintf "\"ops\":%d,\"mutations_per_sec\":%.1f" n_ops rate)
      ()
  in
  let cities = Array.of_list (by_tag u "city") in
  bench_ops "set-text" ~elems:1 (fun i ->
      ignore
        (Update.exec u
           (Update.Set_text
              { target = cities.(i mod Array.length cities);
                text = Printf.sprintf "c%d" i })));
  let people = List.hd (by_tag u "people") in
  let person_frag =
    Ppfx_xml.Parser.parse
      {|<person id="wb"><name>w</name><emailaddress>mailto:w@b</emailaddress></person>|}
  in
  bench_ops "insert-small-fragment"
    ~elems:(Xtree.count_elements person_frag)
    (fun _ ->
      ignore
        (Update.exec u
           (Update.Insert_subtree
              { parent = people; before = None; fragment = person_frag })));
  let item_ptag, item_frag = find_fragment "item" in
  let item_parent = List.hd (by_tag u item_ptag) in
  let inserted_items = ref [] in
  bench_ops "insert-item-subtree"
    ~elems:(Xtree.count_elements item_frag)
    (fun _ ->
      ignore
        (Update.exec u
           (Update.Insert_subtree
              { parent = item_parent; before = None; fragment = item_frag }));
      match List.rev (Update.node_children u item_parent) with
      | last :: _ -> inserted_items := last :: !inserted_items
      | [] -> ());
  bench_ops "delete-item-subtree"
    ~elems:(Xtree.count_elements item_frag)
    (fun _ ->
      match !inserted_items with
      | id :: rest ->
        inserted_items := rest;
        ignore (Update.exec u (Update.Delete_subtree { target = id }))
      | [] -> ());
  (* (b) 90/10 read/write mix: plan retention across disjoint commits *)
  let u = Update.create schema [ tree ] in
  let session = Session.create (Update.store u) in
  let m = Session.metrics session in
  (* Reads whose path footprints are disjoint from the city-text writes
     below, so footprint revalidation should keep every plan. (Q13
     `//*[@id]` would legitimately re-plan every time: its footprint
     covers all paths.) *)
  let reads =
    [| Xmark.query "Q1"; Xmark.query "Q6"; Xmark.query "Q2" |]
  in
  let cities = Array.of_list (by_tag u "city") in
  let iters = max 20 (config.reps * 10) in
  let t0 = Metrics.now () in
  for i = 0 to iters - 1 do
    for r = 0 to 8 do
      ignore (Session.run_ids session reads.((i + r) mod Array.length reads))
    done;
    ignore
      (Update.exec u
         (Update.Set_text
            { target = cities.(i mod Array.length cities);
              text = Printf.sprintf "w%d" i }))
  done;
  let dt = Metrics.now () -. t0 in
  let retained = Metrics.get m Metrics.Retained
  and inval = Metrics.get m Metrics.Invalidations in
  let total = retained + inval in
  let retention =
    if total = 0 then 0.0 else float_of_int retained /. float_of_int total
  in
  Printf.printf
    "  90/10 read/write mix over a warm session: retained %d, re-planned %d \
     -> %.1f%% retention  (%.2f s)\n"
    retained inval (100. *. retention) dt;
  record ~dataset ~query:"mixed-90-10" ~engine:"fine-grained"
    ~nodes:(iters * 10) ~seconds:dt
    ~extra:
      (Printf.sprintf "\"retained\":%d,\"invalidated\":%d,\"retention\":%.4f"
         retained inval retention)
    ();
  (* (c) adversarial label growth: always insert before the first child *)
  let u = Update.create schema [ tree ] in
  let text_el = List.hd (by_tag u "text") in
  let base_len = Update.max_label_len u in
  let keyword = Ppfx_xml.Parser.parse "<keyword>w</keyword>" in
  Printf.printf
    "  adversarial front inserts under one <text> (base max label %d bytes):\n"
    base_len;
  let total = 64 in
  for i = 1 to total do
    let before =
      match Update.node_children u text_el with [] -> None | k :: _ -> Some k
    in
    ignore
      (Update.exec u
         (Update.Insert_subtree { parent = text_el; before; fragment = keyword }));
    if i land (i - 1) = 0 || i = total then begin
      let len = Update.max_label_len u in
      Printf.printf "    after %3d inserts: max label %3d bytes\n" i len;
      record ~dataset ~query:"adversarial-front-insert" ~engine:"update"
        ~nodes:i ~seconds:nan
        ~extra:(Printf.sprintf "\"max_label_bytes\":%d,\"base_label_bytes\":%d" len base_len)
        ()
    end
  done

(* ------------------------------------------------------------------ *)
(* Durability: WAL append policies and cold start                      *)
(* ------------------------------------------------------------------ *)

module Wstore = Ppfx_wal.Store
module Net_server = Ppfx_net.Server

(* Two measurements of the lib/wal durability layer:
   - mutations/sec with the log disabled (volatile baseline) and at the
     three append policies — Off (never fsync), Batch 32 (group
     commit), Fsync (fsync every ack): the price of each durability
     guarantee on the same set-text workload as the write section;
   - cold-start wall time: reopening a mutated store from its data
     directory — replaying the WAL against the last checkpoint, and
     from a clean-shutdown final checkpoint — vs re-shredding the
     mutated documents from source. *)
let durability_bench () =
  current_section := "durability";
  print_endline "\n== Durability: WAL append policies and cold start (XMark) ==";
  let tree = Xmark.generate ~items_per_region:config.small () in
  let schema = Xmark.schema () in
  let dataset =
    Printf.sprintf "XMark (%d elements)" (Xtree.count_elements tree)
  in
  let rec rm_rf path =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    | _ -> Unix.unlink path
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  in
  let scratch name =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ppfx-bench-wal-%d-%s" (Unix.getpid ()) name)
  in
  let by_tag u tag =
    Hashtbl.fold
      (fun id _ acc ->
        if String.equal (Update.node_tag u id) tag then id :: acc else acc)
      (Update.ranks u) []
  in
  let n_ops = max 200 (config.reps * 100) in
  (* (a) mutation throughput per append policy *)
  let bench_policy name durability =
    let u = Update.create schema [ tree ] in
    let cities = Array.of_list (by_tag u "city") in
    let w =
      match durability with
      | None -> None
      | Some durability ->
        let dir = scratch name in
        rm_rf dir;
        Some
          (Wstore.init ~durability ~dir ~db:(Update.db u)
             ~meta:(Net_server.store_meta u) ())
    in
    let exec op =
      match w with
      | None -> ignore (Update.exec u op)
      | Some w ->
        let cs = Update.stage u op in
        ignore (Wstore.append w ~op cs : int);
        Update.commit (Update.db u) cs
    in
    let t0 = Metrics.now () in
    for i = 0 to n_ops - 1 do
      exec
        (Update.Set_text
           { target = cities.(i mod Array.length cities);
             text = Printf.sprintf "d%d" i })
    done;
    Option.iter Wstore.flush w;
    let dt = Metrics.now () -. t0 in
    let rate = float_of_int n_ops /. dt in
    Printf.printf "  %-30s %10.0f mutations/s\n" name rate;
    record ~dataset ~query:"set-text" ~engine:name ~nodes:1
      ~seconds:(dt /. float_of_int n_ops)
      ~extra:(Printf.sprintf "\"ops\":%d,\"mutations_per_sec\":%.1f" n_ops rate)
      ();
    Option.iter
      (fun w ->
        let dir = Wstore.dir w in
        Wstore.close w;
        rm_rf dir)
      w
  in
  bench_policy "volatile (no wal)" None;
  bench_policy "wal durability=off" (Some Wstore.Off);
  bench_policy "wal durability=batch:32" (Some (Wstore.Batch 32));
  bench_policy "wal durability=fsync" (Some Wstore.Fsync);
  (* (b) cold start from the data directory vs re-shred from source *)
  let dir = scratch "cold" in
  rm_rf dir;
  let u = Update.create schema [ tree ] in
  let w =
    Wstore.init ~durability:Wstore.Off ~dir ~db:(Update.db u)
      ~meta:(Net_server.store_meta u) ()
  in
  let cities = Array.of_list (by_tag u "city") in
  let logged = max 200 (config.reps * 100) in
  for i = 0 to logged - 1 do
    let op =
      Update.Set_text
        { target = cities.(i mod Array.length cities);
          text = Printf.sprintf "r%d" i }
    in
    let cs = Update.stage u op in
    ignore (Wstore.append w ~op cs : int);
    Update.commit (Update.db u) cs
  done;
  let mutated = Update.current_trees u in
  let cold label =
    (* recover clears the clean marker, so only the first timed run sees
       a clean manifest — keep that one for reporting *)
    let recovered = ref None in
    let dt =
      time_med (fun () ->
          match Wstore.recover ~dir () with
          | Error e -> failwith ("durability bench: recover: " ^ e)
          | Ok r ->
            (match
               Wstore.rebuild_full ~db:r.Wstore.db ~meta:r.Wstore.meta
                 r.Wstore.records
             with
             | Error e -> failwith ("durability bench: rebuild: " ^ e)
             | Ok u' ->
               if !recovered = None then recovered := Some (r, u'));
            Wstore.close r.Wstore.store)
    in
    let r, u' = Option.get !recovered in
    Printf.printf "  %-30s %10.4f s  (replayed %d records)\n" label dt
      r.Wstore.recovery.Wstore.replayed;
    record ~dataset ~query:"cold-start" ~engine:label ~nodes:(Update.size u')
      ~seconds:dt
      ~extra:
        (Printf.sprintf "\"replayed\":%d,\"clean\":%b"
           r.Wstore.recovery.Wstore.replayed r.Wstore.recovery.Wstore.clean)
      ();
    u'
  in
  Wstore.close w;
  let u_replay = cold "recover (wal replay)" in
  (* a clean shutdown rolls the log into a final checkpoint *)
  let w =
    match Wstore.recover ~dir () with
    | Ok r ->
      (match Wstore.rebuild_full ~db:r.Wstore.db ~meta:r.Wstore.meta r.Wstore.records with
       | Ok u' -> Wstore.close_clean r.Wstore.store ~db:(Update.db u') ~meta:(Net_server.store_meta u')
       | Error e -> failwith e);
      r
    | Error e -> failwith e
  in
  ignore w;
  let u_clean = cold "recover (clean checkpoint)" in
  let dt_shred = time_med (fun () -> Update.create schema mutated) in
  Printf.printf "  %-30s %10.4f s\n" "re-shred from source" dt_shred;
  record ~dataset ~query:"cold-start" ~engine:"re-shred" ~nodes:(Update.size u)
    ~seconds:dt_shred ();
  (* the recovered stores answer exactly like the live mutated store *)
  let s_live = Session.create (Update.store u) in
  List.iter
    (fun u' ->
      let s' = Session.create (Update.store u') in
      List.iter
        (fun (name, q) ->
          if Session.run_ids s_live q <> Session.run_ids s' q then
            failwith ("durability bench: " ^ name ^ " diverged after recovery"))
        Xmark.queries)
    [ u_replay; u_clean ];
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro () =
  print_endline "\n== Bechamel micro-benchmarks ==";
  let open Bechamel in
  let open Toolkit in
  let dewey_a = Ppfx_dewey.Dewey.of_components [ 1; 4; 2; 9; 1 ] in
  let dewey_b = Ppfx_dewey.Dewey.of_components [ 1; 4; 2; 9; 1; 3; 2 ] in
  (* Cached, so the search runs the frozen DFA that served path filters use. *)
  let regex =
    Ppfx_regex.Regex.compile_cached "^/site/regions/[^/]+/item/description/(.+/)?keyword$"
  in
  let subject = "/site/regions/africa/item/description/parlist/listitem/text/keyword" in
  let btree = Ppfx_minidb.Btree.create ~width:1 () in
  for i = 0 to 9999 do
    Ppfx_minidb.Btree.insert btree [| Ppfx_minidb.Value.Int i |] i
  done;
  (* One Test.make per paper table/figure, at a tiny scale. *)
  let tiny = xmark_stores 5 in
  let tiny_dblp = dblp_stores 200 in
  let run_all st queries engines () =
    List.iter
      (fun (_, q) ->
        let expr = Xparser.parse q in
        List.iter
          (fun engine ->
            match engine with
            | `Ppf ->
              let tr = Translate.create st.schema_store.Loader.mapping in
              (match Translate.translate tr expr with
               | None -> ()
               | Some stmt -> ignore (Engine.run st.schema_store.Loader.db stmt))
            | `Edge_ppf ->
              (match Translate.translate Translate.edge expr with
               | None -> ()
               | Some stmt -> ignore (Engine.run st.edge_store.Edge.db stmt))
            | `Monet -> ignore (Monet_sim.run st.monet expr))
          engines)
      queries
  in
  let tests =
    Test.make_grouped ~name:"ppfx"
      [
        Test.make ~name:"dewey:is_descendant"
          (Staged.stage (fun () -> Ppfx_dewey.Dewey.is_descendant dewey_b ~of_:dewey_a));
        Test.make ~name:"regex:path-filter"
          (Staged.stage (fun () -> Ppfx_regex.Regex.search regex subject));
        Test.make ~name:"btree:point-lookup"
          (Staged.stage (fun () ->
               Ppfx_minidb.Btree.find_equal btree [| Ppfx_minidb.Value.Int 4242 |]));
        Test.make ~name:"monet:staircase-Q6"
          (Staged.stage
             (let expr = Xparser.parse (Xmark.query "Q6") in
              fun () -> Monet_sim.run tiny.monet expr));
        Test.make ~name:"fig3:xmark-ppf-vs-edge"
          (Staged.stage (run_all tiny Xmark.queries [ `Ppf; `Edge_ppf ]));
        Test.make ~name:"fig4:xmark-all-engines"
          (Staged.stage (run_all tiny Xmark.queries [ `Ppf; `Edge_ppf; `Monet ]));
        Test.make ~name:"appendixC:dblp-all-engines"
          (Staged.stage (run_all tiny_dblp Dblp.queries [ `Ppf; `Edge_ppf; `Monet ]));
      ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw_results = Benchmark.all cfg instances tests in
  let results = List.map (fun instance -> Analyze.all ols instance raw_results) instances in
  let results = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun measure_label by_test ->
      if String.equal measure_label (Measure.label Instance.monotonic_clock) then
        Hashtbl.iter
          (fun test_name ols_result ->
            match Analyze.OLS.estimates ols_result with
            | Some [ est ] -> Printf.printf "%-36s %14.0f ns/run\n" test_name est
            | Some _ | None -> Printf.printf "%-36s (no estimate)\n" test_name)
          by_test)
    results

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  parse_args ();
  Printf.printf "ppfx benchmark harness — scales: small=%d large=%d dblp=%d, reps=%d\n"
    config.small config.large config.dblp_entries config.reps;
  if wants "tables" then tables ();
  if wants "fig3" then fig3 ();
  if wants "fig4" then fig4 ();
  if wants "dblp" then dblp_table ();
  if wants "ablation" then ablation ();
  if wants "sweep" then sweep ();
  if wants "extensions" then extensions ();
  if wants "service" then service ();
  if wants "cluster" then cluster_bench ();
  if wants "engine" then engine_bench ();
  if wants "write" then write_bench ();
  if wants "durability" then durability_bench ();
  if wants "net" then net ();
  if wants "micro" then micro ();
  write_json ()
