(* The paper's motivating workload: an XMark-like auction site queried
   through four different engines, with plans and timings.

     dune exec examples/auction_site.exe -- [items-per-region] *)

module Doc = Ppfx_xml.Doc
module Loader = Ppfx_shred.Loader
module Edge = Ppfx_shred.Edge
module Translate = Ppfx_translate.Translate
module Monet_sim = Ppfx_baselines.Monet_sim
module Engine = Ppfx_minidb.Engine
module Sql = Ppfx_minidb.Sql
module Xmark = Ppfx_workloads.Xmark

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

let () =
  let scale = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 25 in
  let doc = Doc.of_tree (Xmark.generate ~items_per_region:scale ()) in
  Printf.printf "auction site with %d elements\n\n" (Doc.size doc);
  let store = Loader.shred (Xmark.schema ()) doc in
  let edge_store = Edge.shred doc in
  let monet = Monet_sim.of_doc doc in
  let translator = Translate.create store.Loader.mapping in

  (* Show how the PPF translation collapses a deep path into two
     relations. *)
  let showcase = "/site/open_auctions/open_auction[bidder/date = interval/start]" in
  Printf.printf "query (paper Q-A): %s\n\n" showcase;
  (match Translate.translate translator (Ppfx_xpath.Parser.parse showcase) with
   | Some stmt ->
     Printf.printf "PPF SQL:\n  %s\n\n" (Sql.to_string stmt);
     Printf.printf "plan:\n%s\n" (Engine.explain store.Loader.db stmt)
   | None -> print_endline "empty");

  (* Compare engines on a few benchmark queries. *)
  Printf.printf "%-5s %8s %10s %10s %12s\n" "query" "#nodes" "PPF" "Edge-PPF" "MonetDB-sim";
  List.iter
    (fun name ->
      let q = Xmark.query name in
      let expr = Ppfx_xpath.Parser.parse q in
      let t_ppf, n =
        time (fun () ->
            match Translate.translate translator expr with
            | None -> 0
            | Some stmt ->
              List.length (Translate.result_ids (Engine.run store.Loader.db stmt)))
      in
      let t_edge, _ =
        time (fun () ->
            match Translate.translate Translate.edge expr with
            | None -> 0
            | Some stmt ->
              List.length (Translate.result_ids (Engine.run edge_store.Edge.db stmt)))
      in
      let t_monet, _ = time (fun () -> List.length (Monet_sim.run monet expr)) in
      Printf.printf "%-5s %8d %9.3fs %9.3fs %11.3fs\n" name n t_ppf t_edge t_monet)
    [ "Q1"; "Q3"; "Q6"; "Q10"; "Q13"; "QA" ]
