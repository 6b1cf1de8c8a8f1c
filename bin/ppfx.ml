(* ppfx — PPF-based XPath execution on a relational backend.

   Subcommands:
     translate  print the SQL a query translates to
     run        execute a query against a document through an engine
     explain    show the relational plan for a translated query
     stats      show the relational store a document shreds into
     gen        generate XMark- or DBLP-like synthetic documents
     serve      wire-protocol TCP server over worker-domain sessions
                (--stdio: one-shot batch through an in-process session)
     query      run one query against a running ppfx server *)

open Cmdliner

module Doc = Ppfx_xml.Doc
module Graph = Ppfx_schema.Graph
module Loader = Ppfx_shred.Loader
module Edge = Ppfx_shred.Edge
module Translate = Ppfx_translate.Translate
module Accelerator = Ppfx_baselines.Accelerator
module Monet_sim = Ppfx_baselines.Monet_sim
module Engine = Ppfx_minidb.Engine
module Sql = Ppfx_minidb.Sql
module Value = Ppfx_minidb.Value
module Session = Ppfx_service.Session
module Batch = Ppfx_service.Batch
module Metrics = Ppfx_service.Metrics
module Cluster = Ppfx_cluster.Cluster
module Server = Ppfx_net.Server
module Update = Ppfx_update.Update
module Wstore = Ppfx_wal.Store
module Client = Ppfx_client.Client

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_doc path = Doc.of_tree (Ppfx_xml.Parser.parse (read_file path))

(* ------------------------------------------------------------------ *)
(* Common arguments                                                    *)
(* ------------------------------------------------------------------ *)

let doc_arg =
  let doc = "XML document (the schema is inferred from it unless --schema is given)." in
  Arg.(required & opt (some file) None & info [ "d"; "doc" ] ~docv:"FILE" ~doc)

let schema_arg =
  let doc = "XML Schema (XSD) file describing the documents." in
  Arg.(value & opt (some file) None & info [ "schema" ] ~docv:"XSD" ~doc)

let schema_of ~schema_path doc =
  match schema_path with
  | None -> Graph.infer doc
  | Some path ->
    (match Ppfx_schema.Xsd.parse (read_file path) with
     | s -> s
     | exception Ppfx_schema.Xsd.Error msg ->
       Printf.eprintf "XSD error: %s\n" msg;
       exit 1)

let query_arg =
  let doc = "XPath query." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"XPATH" ~doc)

let engine_arg =
  let doc =
    "Engine: ppf (schema-aware PPF SQL), edge (the same PPF translator on the \
     schema-oblivious Edge mapping), accel \
     (XPath Accelerator SQL), monet (column-store simulator), eval (in-memory \
     reference evaluator)."
  in
  Arg.(
    value
    & opt (enum [ "ppf", `Ppf; "edge", `Edge; "accel", `Accel; "monet", `Monet; "eval", `Eval ]) `Ppf
    & info [ "e"; "engine" ] ~docv:"ENGINE" ~doc)

let no_opt_arg =
  let doc = "Disable the Section 4.5 path-filter omission." in
  Arg.(value & flag & info [ "no-filter-omission" ] ~doc)

let handle_errors f =
  try f () with
  | Ppfx_xml.Parser.Error { line; column; message } ->
    Printf.eprintf "XML parse error at %d:%d: %s\n" line column message;
    exit 1
  | Ppfx_xpath.Parser.Error { position; message } ->
    Printf.eprintf "XPath parse error at offset %d: %s\n" position message;
    exit 1
  | Translate.Unsupported msg ->
    Printf.eprintf "not translatable: %s\n" msg;
    exit 1
  | Loader.Rejected msg ->
    Printf.eprintf "document rejected: %s\n" msg;
    exit 1
  | Update.Update_error msg ->
    Printf.eprintf "update error: %s\n" msg;
    exit 1

(* ------------------------------------------------------------------ *)
(* translate                                                           *)
(* ------------------------------------------------------------------ *)

let translate_cmd =
  let run doc_path schema_path query engine no_opt =
    handle_errors @@ fun () ->
    let expr = Ppfx_xpath.Parser.parse query in
    let stmt =
      match engine with
      | `Ppf ->
        let doc = load_doc doc_path in
        let schema = schema_of ~schema_path doc in
        let mapping = Ppfx_shred.Mapping.of_schema schema in
        let options =
          if no_opt then { Translate.default_options with omit_path_filters = false }
          else Translate.default_options
        in
        Translate.translate (Translate.create ~options mapping) expr
      | `Edge -> Translate.translate Translate.edge expr
      | `Accel -> Accelerator.translate expr
      | `Monet | `Eval ->
        Printf.eprintf "engine has no SQL translation; use ppf, edge or accel\n";
        exit 1
    in
    match stmt with
    | None -> print_endline "-- provably empty result"
    | Some stmt -> print_endline (Sql.to_string stmt)
  in
  let term =
    Term.(const run $ doc_arg $ schema_arg $ query_arg $ engine_arg $ no_opt_arg)
  in
  Cmd.v (Cmd.info "translate" ~doc:"Print the SQL a query translates to.") term

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let run_cmd =
  let run doc_path schema_path query engine =
    handle_errors @@ fun () ->
    let doc = load_doc doc_path in
    let expr = Ppfx_xpath.Parser.parse query in
    let ids =
      match engine with
      | `Eval -> Ppfx_xpath.Eval.select_elements doc expr
      | `Monet -> Monet_sim.run (Monet_sim.of_doc doc) expr
      | `Ppf ->
        let store = Loader.shred (schema_of ~schema_path doc) doc in
        (match Translate.translate (Translate.create store.Loader.mapping) expr with
         | None -> []
         | Some stmt -> Translate.result_ids (Engine.run store.Loader.db stmt))
      | `Edge ->
        let store = Edge.shred doc in
        (match Translate.translate Translate.edge expr with
         | None -> []
         | Some stmt -> Translate.result_ids (Engine.run store.Edge.db stmt))
      | `Accel ->
        let store = Accelerator.shred doc in
        (match Accelerator.translate expr with
         | None -> []
         | Some stmt -> Accelerator.result_ids (Engine.run store.Accelerator.db stmt))
    in
    Printf.printf "%d nodes\n" (List.length ids);
    List.iter
      (fun id ->
        let e = Doc.element doc id in
        let preview =
          let s = e.Doc.string_value in
          if String.length s > 60 then String.sub s 0 60 ^ "..." else s
        in
        Printf.printf "  %d  %-10s %-24s %s\n" id e.Doc.tag e.Doc.path preview)
      ids
  in
  let term = Term.(const run $ doc_arg $ schema_arg $ query_arg $ engine_arg) in
  Cmd.v (Cmd.info "run" ~doc:"Execute a query against a document.") term

(* ------------------------------------------------------------------ *)
(* explain                                                             *)
(* ------------------------------------------------------------------ *)

let explain_cmd =
  let run doc_path schema_path query =
    handle_errors @@ fun () ->
    let doc = load_doc doc_path in
    let store = Loader.shred (schema_of ~schema_path doc) doc in
    let expr = Ppfx_xpath.Parser.parse query in
    match Translate.translate (Translate.create store.Loader.mapping) expr with
    | None -> print_endline "-- provably empty result"
    | Some stmt ->
      print_endline (Sql.to_string stmt);
      print_endline "--";
      let plan, result, stats = Engine.explain_analyze store.Loader.db stmt in
      print_string plan;
      print_endline "--";
      print_endline (Engine.stats_to_string stats);
      Printf.printf "%d result rows\n" (List.length result.Engine.rows)
  in
  let term = Term.(const run $ doc_arg $ schema_arg $ query_arg) in
  Cmd.v (Cmd.info "explain" ~doc:"Show the relational plan for a query.") term

(* ------------------------------------------------------------------ *)
(* stats                                                               *)
(* ------------------------------------------------------------------ *)

let stats_cmd =
  let run doc_path schema_path =
    handle_errors @@ fun () ->
    let doc = load_doc doc_path in
    let schema = schema_of ~schema_path doc in
    Printf.printf "%d elements, %d distinct root-to-node paths\n\n" (Doc.size doc)
      (List.length (Doc.distinct_paths doc));
    print_endline "schema marking (Section 4.5):";
    List.iter
      (fun def ->
        let marking =
          match Graph.classification schema def with
          | Graph.Unique_path _ -> "U-P"
          | Graph.Finite_paths ps -> Printf.sprintf "F-P(%d)" (List.length ps)
          | Graph.Infinite_paths -> "I-P"
        in
        Printf.printf "  %-20s %s\n" def.Graph.name marking)
      (Graph.defs schema);
    let store = Loader.shred schema doc in
    print_endline "\nrelational store:";
    Format.printf "%a@." Ppfx_minidb.Database.pp_stats store.Loader.db
  in
  let term = Term.(const run $ doc_arg $ schema_arg) in
  Cmd.v (Cmd.info "stats" ~doc:"Show the relational store a document shreds into.") term

(* ------------------------------------------------------------------ *)
(* gen                                                                 *)
(* ------------------------------------------------------------------ *)

let gen_cmd =
  let kind_arg =
    Arg.(
      required
      & pos 0 (some (enum [ "xmark", `Xmark; "dblp", `Dblp ])) None
      & info [] ~docv:"KIND" ~doc:"xmark or dblp")
  in
  let scale_arg =
    Arg.(value & opt int 10 & info [ "s"; "scale" ] ~docv:"N"
           ~doc:"Items per region (xmark) or entries (dblp).")
  in
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.") in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output file (stdout if omitted).")
  in
  let run kind scale seed out =
    let tree =
      match kind with
      | `Xmark -> Ppfx_workloads.Xmark.generate ~seed ~items_per_region:scale ()
      | `Dblp -> Ppfx_workloads.Dblp.generate ~seed ~entries:scale ()
    in
    match out with
    | None -> Ppfx_xml.Printer.to_channel ~indent:2 stdout tree
    | Some path ->
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> Ppfx_xml.Printer.to_channel ~indent:2 oc tree);
      Printf.printf "wrote %s (%d elements)\n" path (Ppfx_xml.Tree.count_elements tree)
  in
  let term = Term.(const run $ kind_arg $ scale_arg $ seed_arg $ out_arg) in
  Cmd.v (Cmd.info "gen" ~doc:"Generate a synthetic benchmark document.") term

(* ------------------------------------------------------------------ *)
(* shred: persist a store                                              *)
(* ------------------------------------------------------------------ *)

let store_type_arg =
  Arg.(
    value
    & opt (enum [ "schema", `Schema; "edge", `Edge; "accel", `Accel ]) `Schema
    & info [ "store" ] ~docv:"STORE"
        ~doc:"Which shredded store to build: schema (schema-aware), edge, accel.")

let build_store ~schema_path ~store doc =
  match store with
  | `Schema -> (Loader.shred (schema_of ~schema_path doc) doc).Loader.db
  | `Edge -> (Edge.shred doc).Edge.db
  | `Accel -> (Accelerator.shred doc).Accelerator.db

let shred_cmd =
  let out_arg =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output database file.")
  in
  let run doc_path schema_path store out =
    handle_errors @@ fun () ->
    let doc = load_doc doc_path in
    let db = build_store ~schema_path ~store doc in
    Ppfx_minidb.Codec.save out db;
    Printf.printf "wrote %s (%d tables, %d rows)\n" out
      (List.length (Ppfx_minidb.Database.tables db))
      (Ppfx_minidb.Database.total_rows db)
  in
  let term = Term.(const run $ doc_arg $ schema_arg $ store_type_arg $ out_arg) in
  Cmd.v
    (Cmd.info "shred" ~doc:"Shred a document and persist the relational store.")
    term

(* ------------------------------------------------------------------ *)
(* sql                                                                 *)
(* ------------------------------------------------------------------ *)

let sql_cmd =
  let db_arg =
    Arg.(value & opt (some file) None & info [ "db" ] ~docv:"FILE"
           ~doc:"A persisted store file produced by the shred subcommand \
                 (alternative to --doc).")
  in
  let doc_opt_arg =
    Arg.(value & opt (some file) None & info [ "d"; "doc" ] ~docv:"FILE"
           ~doc:"XML document to shred on the fly.")
  in
  let sql_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL" ~doc:"SQL statement.")
  in
  let run doc_path db_path store sql =
    handle_errors @@ fun () ->
    let db =
      match db_path, doc_path with
      | Some path, _ ->
        (match Ppfx_minidb.Codec.load_result path with
         | Ok db -> db
         | Error e ->
           Printf.eprintf "cannot load store: %s\n"
             (Ppfx_minidb.Codec.error_to_string e);
           exit 1)
      | None, Some doc_path ->
        build_store ~schema_path:None ~store (load_doc doc_path)
      | None, None ->
        Printf.eprintf "one of --doc or --db is required\n";
        exit 1
    in
    match Ppfx_minidb.Sql_parser.parse sql with
    | exception Ppfx_minidb.Sql_parser.Error { position; message } ->
      Printf.eprintf "SQL parse error at offset %d: %s\n" position message;
      exit 1
    | stmt ->
      (match Engine.run db stmt with
       | exception Engine.Runtime_error msg ->
         Printf.eprintf "runtime error: %s\n" msg;
         exit 1
       | result ->
         print_endline (String.concat " | " result.Engine.columns);
         List.iter
           (fun row ->
             print_endline
               (String.concat " | "
                  (Array.to_list (Array.map Value.to_string row))))
           result.Engine.rows;
         Printf.printf "(%d rows)\n" (List.length result.Engine.rows))
  in
  let term = Term.(const run $ doc_opt_arg $ db_arg $ store_type_arg $ sql_arg) in
  Cmd.v
    (Cmd.info "sql" ~doc:"Run a SQL statement directly against a shredded document.")
    term

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let queries_arg =
    Arg.(value & opt (some file) None & info [ "q"; "queries" ] ~docv:"FILE"
           ~doc:"File with one XPath query per line ('#' starts a comment); \
                 stdin if omitted.")
  in
  let cache_arg =
    Arg.(value & opt int 256 & info [ "cache" ] ~docv:"N"
           ~doc:"Prepared-query LRU cache capacity.")
  in
  let repeat_arg =
    Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"N"
           ~doc:"Serve the whole batch N times through the same session; \
                 rounds after the first hit the translation/plan cache.")
  in
  let no_metrics_arg =
    Arg.(value & flag & info [ "no-metrics" ] ~doc:"Suppress the serving-metrics dump.")
  in
  let shards_arg =
    Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N"
           ~doc:"Partition the store into N subtree shards and execute \
                 partitionable queries scatter-gather on a domain pool; \
                 order-axis and counting queries fall back to the unsharded \
                 store. 1 (default) serves from a single store.")
  in
  let pool_arg =
    Arg.(value & opt (some int) None & info [ "pool" ] ~docv:"N"
           ~doc:"Worker domains for --shards (default: one per shard; 0 runs \
                 shard tasks inline).")
  in
  let stdio_arg =
    Arg.(value & flag & info [ "stdio" ]
           ~doc:"Serve a batch of queries from --queries/stdin through one \
                 in-process session and exit (the pre-network REPL behavior) \
                 instead of listening on TCP.")
  in
  let port_arg =
    Arg.(value & opt int 7464 & info [ "p"; "port" ] ~docv:"PORT"
           ~doc:"TCP port to listen on (0 picks an ephemeral port).")
  in
  let host_arg =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR"
           ~doc:"Bind address.")
  in
  let workers_arg =
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N"
           ~doc:"Executor worker domains; each owns a private session (plan \
                 cache included) over the shared store.")
  in
  let max_conns_arg =
    Arg.(value & opt int 64 & info [ "max-conns" ] ~docv:"N"
           ~doc:"Admission bound on concurrent connections; connections \
                 beyond it are refused with an admission error frame.")
  in
  let queue_depth_arg =
    Arg.(value & opt int 64 & info [ "queue-depth" ] ~docv:"N"
           ~doc:"Admission bound on queued requests; requests arriving over \
                 a full dispatch queue are answered with an admission error.")
  in
  let window_arg =
    Arg.(value & opt int 512 & info [ "window" ] ~docv:"ROWS"
           ~doc:"Server-side cap on rows per response frame; larger results \
                 stream through Fetch.")
  in
  let data_dir_arg =
    Arg.(value & opt (some string) None & info [ "data-dir" ] ~docv:"DIR"
           ~doc:"Durable store directory: every mutation is write-ahead \
                 logged (appended and fsynced per --durability) before it is \
                 acked, and the stores checkpoint periodically. When DIR \
                 already holds a store, the server cold-starts from the \
                 newest checkpoint plus the log — no --doc and no \
                 re-shredding.")
  in
  let durability_arg =
    Arg.(value & opt string "fsync" & info [ "durability" ] ~docv:"POLICY"
           ~doc:"WAL fsync policy for --data-dir: off (never fsync — the OS \
                 decides), fsync (every append — an acked mutation survives \
                 any crash), or batch[:N] (group commit, fsync every N \
                 appends; N defaults to 32).")
  in
  let doc_serve_arg =
    Arg.(value & opt (some file) None & info [ "d"; "doc" ] ~docv:"FILE"
           ~doc:"XML document to serve. Required unless --data-dir holds a \
                 recoverable store (then it is ignored: the store already \
                 contains the data).")
  in
  let serve_stdio ~queries_path ~cache ~repeat ~shards ~pool ~options ~schema
      ~no_metrics ~tree doc =
    let queries =
      match queries_path with
      | Some path -> Batch.parse_queries (read_file path)
      | None -> Batch.read_queries stdin
    in
    let serve_rounds run_ids metrics shard_metrics =
      for round = 1 to max 1 repeat do
        if repeat > 1 then Printf.printf "-- round %d\n" round;
        List.iter
          (fun (o : Batch.outcome) ->
            match o.Batch.result with
            | Ok ids ->
              Printf.printf "%6d nodes %10.3f ms  %s\n" (List.length ids)
                (1e3 *. o.Batch.seconds) o.Batch.query
            | Error msg ->
              Printf.printf " ERROR %10.3f ms  %s  -- %s\n" (1e3 *. o.Batch.seconds)
                o.Batch.query msg)
          (Batch.run_with run_ids queries)
      done;
      if not no_metrics then begin
        print_newline ();
        print_string (Metrics.dump metrics);
        Array.iteri
          (fun s m ->
            Printf.printf "\n-- shard %d --\n" s;
            print_string (Metrics.dump m))
          shard_metrics
      end
    in
    if shards = 1 then begin
      let session = Session.of_doc ~cache_capacity:cache ~options ~schema doc in
      serve_rounds (Session.run_ids session) (Session.metrics session) [||]
    end
    else
      Cluster.with_cluster ?pool_size:pool ~cache_capacity:cache ~options ~shards
        schema [ tree ]
        (fun cluster ->
          serve_rounds (Cluster.run_ids cluster) (Cluster.metrics cluster)
            (Cluster.shard_metrics cluster))
  in
  let serve_tcp ~host ~port ~workers ~max_conns ~queue_depth ~window ~cache
      ~shards ~pool ~options ~no_metrics ~data_dir ~durability ~load_source () =
    (* [sinks] are the executors' own metrics: the worker sessions' or
       the cluster's. At shutdown they and the server's absorb into one
       dump. *)
    let start_and_wait ?(attach = fun _ -> ()) ?(on_stop = fun () -> ())
        ?(sinks = fun () -> []) ~shards factory =
      let config =
        { Server.default_config with
          host; port; workers;
          max_connections = max_conns;
          queue_depth;
          fetch_window = window;
          shards }
      in
      let server = Server.start ~config factory in
      attach server;
      Printf.printf
        "ppfx serving on %s:%d (%d workers, %d shards) — Ctrl-C to stop\n%!"
        host (Server.port server) workers shards;
      let stop_requested = Atomic.make false in
      let request_stop _ = Atomic.set stop_requested true in
      Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
      Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
      while not (Atomic.get stop_requested) do
        try Unix.sleepf 0.2
        with Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done;
      print_endline "shutting down — draining in-flight requests...";
      Server.stop server;
      (* The drain finished: every acked mutation is appended and
         committed. Flush, checkpoint and mark the durable stores clean
         before exiting. *)
      on_stop ();
      if not no_metrics then begin
        let m = Metrics.create () in
        List.iter (fun s -> Metrics.absorb ~into:m s) (Server.metrics server :: sinks ());
        print_newline ();
        print_string (Metrics.dump m)
      end
    in
    if shards = 1 then begin
      let store_dir dir = Filename.concat dir "store" in
      (* One shared write path (shadow forest + commit lock) behind the
         worker domains' private read sessions: Update requests stage
         through it, and the store's fine-grained commit log lets each
         session retain footprint-disjoint prepared plans. *)
      let serve_single ?wal u store =
        let write_path = (Mutex.create (), u) in
        (* Each worker domain builds its session through the factory. *)
        let sessions = ref [] and sessions_lock = Mutex.create () in
        let sinks () =
          List.map Session.metrics (Mutex.protect sessions_lock (fun () -> !sessions))
        in
        start_and_wait ~shards:1 ~sinks
          ~attach:(fun server ->
            Option.iter
              (fun w -> Wstore.set_metrics w (Server.metrics server))
              wal)
          ~on_stop:(fun () ->
            Option.iter
              (fun w ->
                Wstore.close_clean w ~db:(Update.db u)
                  ~meta:(Server.store_meta u))
              wal)
          (fun () ->
            let s = Session.create ~cache_capacity:cache ~options store in
            Mutex.protect sessions_lock (fun () -> sessions := s :: !sessions);
            Server.session_executor ~update:write_path ?wal s)
      in
      match data_dir with
      | Some dir when Wstore.exists ~dir:(store_dir dir) ->
        (match Wstore.recover ~durability ~dir:(store_dir dir) () with
         | Error msg ->
           Printf.eprintf "cannot recover %s: %s\n" (store_dir dir) msg;
           exit 1
         | Ok r ->
           (match
              Wstore.rebuild_full ~db:r.Wstore.db ~meta:r.Wstore.meta
                r.Wstore.records
            with
            | Error msg ->
              Printf.eprintf "cannot replay %s: %s\n" (store_dir dir) msg;
              exit 1
            | Ok u ->
              let rv = r.Wstore.recovery in
              if rv.Wstore.clean then
                Printf.printf "clean start from %s (replay scan skipped)\n%!"
                  (store_dir dir)
              else
                Printf.printf
                  "recovered %s: %d records replayed, %d torn bytes truncated\n%!"
                  (store_dir dir) rv.Wstore.replayed rv.Wstore.truncated_bytes;
              serve_single ~wal:r.Wstore.store u (Update.store u)))
      | Some dir ->
        let tree, doc, schema = load_source () in
        let store = Loader.shred schema doc in
        let u = Update.of_store store [ tree ] in
        let w =
          Wstore.init ~durability ~dir:(store_dir dir) ~db:store.Loader.db
            ~meta:(Server.store_meta u) ()
        in
        serve_single ~wal:w u store
      | None ->
        let tree, doc, schema = load_source () in
        let store = Loader.shred schema doc in
        serve_single (Update.of_store store [ tree ]) store
    end
    else begin
      match data_dir with
      | Some dir when Wstore.exists ~dir:(Filename.concat dir "full") ->
        (match
           Cluster.open_durable ~durability ?pool_size:pool
             ~cache_capacity:cache ~options ~data_dir:dir ()
         with
         | Error msg ->
           Printf.eprintf "cannot recover cluster %s: %s\n" dir msg;
           exit 1
         | Ok cluster ->
           let n = Cluster.shards cluster in
           if n <> shards then
             Printf.printf "note: %s holds %d shards; ignoring --shards %d\n"
               dir n shards;
           Printf.printf "recovered cluster %s (%d shards)\n%!" dir n;
           Fun.protect
             ~finally:(fun () -> Cluster.close cluster)
             (fun () ->
               let lock = Mutex.create () in
               start_and_wait ~shards:n
                 ~sinks:(fun () -> [ Cluster.metrics cluster ])
                 (fun () -> Server.cluster_executor lock cluster)))
      | _ ->
        let tree, _doc, schema = load_source () in
        Cluster.with_cluster ?pool_size:pool ~cache_capacity:cache ~options
          ~shards schema [ tree ]
          (fun cluster ->
            (match data_dir with
             | Some dir ->
               Cluster.make_durable ~durability ~data_dir:dir cluster
             | None -> ());
            let lock = Mutex.create () in
            start_and_wait ~shards
              ~sinks:(fun () -> [ Cluster.metrics cluster ])
              (fun () -> Server.cluster_executor lock cluster))
    end
  in
  let run doc_path schema_path queries_path cache repeat shards pool no_opt
      no_metrics stdio host port workers max_conns queue_depth window data_dir
      durability =
    handle_errors @@ fun () ->
    if cache < 1 then (
      Printf.eprintf "--cache must be at least 1 (got %d)\n" cache;
      exit 1);
    if shards < 1 then (
      Printf.eprintf "--shards must be at least 1 (got %d)\n" shards;
      exit 1);
    if workers < 1 then (
      Printf.eprintf "--workers must be at least 1 (got %d)\n" workers;
      exit 1);
    if window < 1 then (
      Printf.eprintf "--window must be at least 1 (got %d)\n" window;
      exit 1);
    let durability =
      match Wstore.durability_of_string durability with
      | Ok d -> d
      | Error msg ->
        Printf.eprintf "--durability: %s\n" msg;
        exit 1
    in
    let options =
      if no_opt then { Translate.default_options with omit_path_filters = false }
      else Translate.default_options
    in
    let load_source () =
      match doc_path with
      | None ->
        Printf.eprintf
          "--doc is required (no recoverable store under --data-dir)\n";
        exit 1
      | Some path ->
        let tree = Ppfx_xml.Parser.parse (read_file path) in
        let doc = Doc.of_tree tree in
        (tree, doc, schema_of ~schema_path doc)
    in
    if stdio then begin
      if data_dir <> None then (
        Printf.eprintf "--data-dir requires the TCP server (drop --stdio)\n";
        exit 1);
      let tree, doc, schema = load_source () in
      serve_stdio ~queries_path ~cache ~repeat ~shards ~pool ~options ~schema
        ~no_metrics ~tree doc
    end
    else
      serve_tcp ~host ~port ~workers ~max_conns ~queue_depth ~window ~cache
        ~shards ~pool ~options ~no_metrics ~data_dir ~durability ~load_source ()
  in
  let term =
    Term.(
      const run $ doc_serve_arg $ schema_arg $ queries_arg $ cache_arg
      $ repeat_arg $ shards_arg $ pool_arg $ no_opt_arg $ no_metrics_arg
      $ stdio_arg $ host_arg $ port_arg $ workers_arg $ max_conns_arg
      $ queue_depth_arg $ window_arg $ data_dir_arg $ durability_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve prepared XPath queries over the ppfx wire protocol: listen \
             on TCP (--port), answer Prepare/Execute/Fetch requests from a \
             pool of worker domains each owning a session (translation/plan \
             cache) over the shared store, with admission control \
             (--max-conns, --queue-depth) and windowed result streaming \
             (--window). With --shards N queries execute scatter-gather \
             across a shard domain pool. --stdio instead answers a batch of \
             queries from stdin/--queries through one in-process session and \
             exits, dumping serving metrics.")
    term

(* ------------------------------------------------------------------ *)
(* update: one-shot subtree mutation                                   *)
(* ------------------------------------------------------------------ *)

let update_cmd =
  let kind_arg =
    Arg.(
      required
      & pos 0
          (some
             (enum
                [ "insert", `Insert; "delete", `Delete; "replace", `Replace;
                  "set-attr", `Set_attr; "set-text", `Set_text ]))
          None
      & info [] ~docv:"OP"
          ~doc:"insert, delete, replace, set-attr or set-text.")
  in
  let target_arg =
    Arg.(value & opt (some int) None & info [ "target" ] ~docv:"ID"
           ~doc:"Element id the mutation applies to (delete, replace, \
                 set-attr, set-text).")
  in
  let parent_arg =
    Arg.(value & opt (some int) None & info [ "parent" ] ~docv:"ID"
           ~doc:"Parent element id (insert).")
  in
  let before_arg =
    Arg.(value & opt (some int) None & info [ "before" ] ~docv:"ID"
           ~doc:"Existing child element to insert immediately before \
                 (insert; appended as last child if omitted).")
  in
  let fragment_arg =
    Arg.(value & opt (some string) None & info [ "fragment" ] ~docv:"XML"
           ~doc:"XML fragment to splice (insert, replace). Must conform \
                 to the schema at the target position.")
  in
  let name_arg =
    Arg.(value & opt (some string) None & info [ "name" ] ~docv:"NAME"
           ~doc:"Attribute name (set-attr).")
  in
  let value_arg =
    Arg.(value & opt (some string) None & info [ "value" ] ~docv:"VALUE"
           ~doc:"Attribute value (set-attr; omitting it removes the \
                 attribute).")
  in
  let text_arg =
    Arg.(value & opt (some string) None & info [ "text" ] ~docv:"TEXT"
           ~doc:"New direct text content (set-text).")
  in
  let query_opt_arg =
    Arg.(value & opt (some string) None & info [ "query" ] ~docv:"XPATH"
           ~doc:"XPath query to run against the mutated store afterwards.")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the mutated document back out as XML.")
  in
  let port_arg =
    Arg.(value & opt (some int) None & info [ "p"; "port" ] ~docv:"PORT"
           ~doc:"Send the mutation to a running ppfx server over the wire \
                 protocol instead of mutating a local document (--doc is \
                 not needed then).")
  in
  let host_arg =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR"
           ~doc:"Server address (with --port).")
  in
  let run doc_path schema_path kind target parent before fragment name value
      text query out host port =
    handle_errors @@ fun () ->
    let need what = function
      | Some v -> v
      | None ->
        Printf.eprintf "--%s is required for this operation\n" what;
        exit 1
    in
    match port with
    | Some port ->
      (match Client.connect ~host ~port () with
       | exception Unix.Unix_error (e, _, _) ->
         Printf.eprintf "cannot connect to %s:%d: %s\n" host port
           (Unix.error_message e);
         exit 1
       | c ->
         Fun.protect
           ~finally:(fun () -> Client.close c)
           (fun () ->
             try
               let o =
                 match kind with
                 | `Insert ->
                   Client.insert c ~parent:(need "parent" parent) ?before
                     (need "fragment" fragment)
                 | `Delete -> Client.delete c ~target:(need "target" target)
                 | `Replace ->
                   Client.replace c ~target:(need "target" target)
                     (need "fragment" fragment)
                 | `Set_attr ->
                   Client.set_attribute c ~target:(need "target" target)
                     ~name:(need "name" name) value
                 | `Set_text ->
                   Client.set_text c ~target:(need "target" target)
                     (need "text" text)
               in
               Printf.printf
                 "rows: +%d inserted, %d updated, -%d deleted; paths: +%d/-%d\n"
                 o.Client.inserted o.Client.updated o.Client.deleted
                 o.Client.new_paths o.Client.dead_paths;
               match query with
               | None -> ()
               | Some q ->
                 let ids = Client.run_ids c q in
                 Printf.printf "%d nodes: %s\n" (List.length ids)
                   (String.concat " " (List.map string_of_int ids))
             with
             | Client.Server_error { code; message } ->
               Printf.eprintf "server error (%s): %s\n"
                 (Ppfx_net.Wire.error_code_to_string code) message;
               exit 1
             | Client.Protocol_error msg ->
               Printf.eprintf "protocol error: %s\n" msg;
               exit 1))
    | None ->
    let doc_path = need "doc" doc_path in
    let frag () = Ppfx_xml.Parser.parse (need "fragment" fragment) in
    let op =
      match kind with
      | `Insert ->
        Update.Insert_subtree
          { parent = need "parent" parent; before; fragment = frag () }
      | `Delete -> Update.Delete_subtree { target = need "target" target }
      | `Replace ->
        Update.Replace_subtree
          { target = need "target" target; fragment = frag () }
      | `Set_attr ->
        Update.Set_attribute
          { target = need "target" target; name = need "name" name; value }
      | `Set_text ->
        Update.Set_text { target = need "target" target; text = need "text" text }
    in
    let tree = Ppfx_xml.Parser.parse (read_file doc_path) in
    let doc = Doc.of_tree tree in
    let schema = schema_of ~schema_path doc in
    let u = Update.create schema [ tree ] in
    let o = Update.exec u op in
    Printf.printf
      "rows: +%d inserted, %d updated, -%d deleted; paths: +%d/-%d; %d live \
       elements, max label %d bytes\n"
      o.Update.inserted o.Update.updated o.Update.deleted o.Update.new_paths
      o.Update.dead_paths (Update.size u)
      (Update.max_label_len u);
    (match query with
     | None -> ()
     | Some q ->
       let session = Session.create (Update.store u) in
       let ids = Session.run_ids session q in
       Printf.printf "%d nodes: %s\n" (List.length ids)
         (String.concat " " (List.map string_of_int ids)));
    match out with
    | None -> ()
    | Some path ->
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          List.iter
            (fun t -> Ppfx_xml.Printer.to_channel ~indent:2 oc t)
            (Update.current_trees u));
      Printf.printf "wrote %s\n" path
  in
  let doc_update_arg =
    Arg.(value & opt (some file) None & info [ "d"; "doc" ] ~docv:"FILE"
           ~doc:"XML document to mutate locally (required without --port).")
  in
  let term =
    Term.(
      const run $ doc_update_arg $ schema_arg $ kind_arg $ target_arg
      $ parent_arg $ before_arg $ fragment_arg $ name_arg $ value_arg
      $ text_arg $ query_opt_arg $ out_arg $ host_arg $ port_arg)
  in
  Cmd.v
    (Cmd.info "update"
       ~doc:"Apply one subtree mutation to a document's relational store \
             without re-shredding: fragments get ORDPATH caret labels \
             between their siblings, the Paths dimension is maintained \
             incrementally, and the commit is logged fine-grained for \
             prepared-plan revalidation. Prints the changeset row counts; \
             --query then runs an XPath query against the mutated store, \
             --output writes the mutated document back out.")
    term

(* ------------------------------------------------------------------ *)
(* query: wire-protocol client                                         *)
(* ------------------------------------------------------------------ *)

let query_cmd =
  let port_arg =
    Arg.(required & opt (some int) None & info [ "p"; "port" ] ~docv:"PORT"
           ~doc:"Port of a running ppfx server.")
  in
  let host_arg =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR"
           ~doc:"Server address.")
  in
  let values_arg =
    Arg.(value & flag & info [ "values" ]
           ~doc:"Also fetch each node's string value and print it after the id.")
  in
  let run host port values query =
    match Ppfx_client.Client.connect ~host ~port () with
    | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "cannot connect to %s:%d: %s\n" host port (Unix.error_message e);
      exit 1
    | c ->
      Fun.protect
        ~finally:(fun () -> Ppfx_client.Client.close c)
        (fun () ->
          let module Row = Ppfx_client.Row in
          match
            if values then
              List.map
                (fun (id, value) -> Printf.sprintf "%d  %s" id value)
                (List.sort_uniq compare
                   (List.map
                      (fun row ->
                        Row.int_exn row "id", Option.value ~default:"" (Row.text row "value"))
                      (Ppfx_client.Client.run ~values c query)))
            else List.map string_of_int (Ppfx_client.Client.run_ids c query)
          with
          | lines ->
            Printf.printf "%d nodes\n" (List.length lines);
            List.iter (Printf.printf "  %s\n") lines
          | exception Ppfx_client.Client.Server_error { code; message } ->
            Printf.eprintf "server error (%s): %s\n"
              (Ppfx_net.Wire.error_code_to_string code) message;
            exit 1
          | exception Ppfx_client.Client.Protocol_error msg ->
            Printf.eprintf "protocol error: %s\n" msg;
            exit 1)
  in
  let term = Term.(const run $ host_arg $ port_arg $ values_arg $ query_arg) in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Run one XPath query against a running ppfx server over the wire \
             protocol and print the matching element ids (with --values, \
             each followed by its string value).")
    term

let () =
  let info =
    Cmd.info "ppfx" ~version:"1.0.0"
      ~doc:"PPF-based XPath execution on a relational backend (EDBT 2006 reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ translate_cmd; run_cmd; explain_cmd; stats_cmd; gen_cmd; shred_cmd; sql_cmd;
            update_cmd; serve_cmd; query_cmd ]))
