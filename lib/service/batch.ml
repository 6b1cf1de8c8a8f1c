type outcome = {
  query : string;
  result : (int list, string) result;
  seconds : float;
}

let parse_queries text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None else Some line)

let read_queries ic =
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  parse_queries (Buffer.contents buf)

let run_with run_ids queries =
  List.map
    (fun query ->
      let t0 = Metrics.now () in
      let result =
        try Ok (run_ids query) with
        | Ppfx_xpath.Parser.Error { position; message } ->
          Error (Printf.sprintf "parse error at offset %d: %s" position message)
        | Session.Translate.Unsupported msg ->
          Error (Printf.sprintf "not translatable: %s" msg)
      in
      { query; result; seconds = Metrics.now () -. t0 })
    queries

let run session queries = run_with (Session.run_ids session) queries
