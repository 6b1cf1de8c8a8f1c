(* The paper's Figure 1 schema and document, and the query corpora the
   translator tests run over them. Shared by the schema-aware and Edge
   differential suites and the SQL golden. *)

module Graph = Ppfx_schema.Graph

let schema () =
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

let doc_src =
  "<A x=\"3\"><B><C><D>d1</D></C><C><E><F>1</F><F>2</F></E></C><G/></B><B><G><G/></G></B></A>"

(* The schema-aware translator's differential corpus. *)
let queries =
  [
    (* forward paths *)
    "/A";
    "/A/B";
    "/A/B/C";
    "/A/B/C/D";
    "/A/B/C/E/F";
    "//F";
    "//C";
    "//G";
    "/A//F";
    "/A/B//F";
    "/A/*";
    "/A/B/*";
    "/A/B/C/*/F";
    "/A/*/C";
    "//*";
    (* paper running examples *)
    "/A[@x = 3]/B/C//F";
    "/A[@x = 3]/B";
    "/A[@x = 4]//C";
    "/A/*[C//F = 2]";
    (* backward *)
    "//F/parent::E";
    "//F/parent::E/parent::C";
    "//F/ancestor::B";
    "//F/ancestor::C";
    "//F/parent::E/ancestor::B";
    "//G/ancestor::G";
    "//G/parent::G";
    "//G/ancestor::B";
    "//D/..";
    (* or-self axes *)
    "/descendant-or-self::G";
    "//G/ancestor-or-self::G";
    "//F/ancestor-or-self::B";
    (* order axes *)
    "/A/B/C/following-sibling::G";
    "/A/B/C/following-sibling::C";
    "//C/preceding-sibling::C";
    "//D/following::F";
    "//G/preceding::D";
    "//D/following::G";
    "//F/following-sibling::F";
    (* predicates *)
    "/A/B/C[E]";
    "/A/B/C[D]";
    "/A/B[C]";
    "/A/B[G]";
    "/A/B/C[E/F = 2]";
    "/A/B/C[E/F = 3]";
    "//F[. = 1]";
    "//F[. = 1.0]";
    "//C[D = 'd1']";
    "//B[C and G]";
    "//B[C or G]";
    "//B[not(C)]";
    "//C[not(D)]";
    "//F[parent::E]";
    "//F[ancestor::B]";
    "//G[parent::B or ancestor::G]";
    "//G[parent::G]";
    "//*[@x]";
    "/A[@x]";
    "/A[@x = 3]";
    "/A[@x = '3']";
    "/A[@x = 4]";
    "//C[E/F]";
    "/A/B[C/E/F = 2]";
    "/A/B[C/D]";
    "//B[.//F]";
    (* nested predicates *)
    "/A/B[C[E]]";
    "/A/B[C[E/F = 1]]";
    "//B[C[not(D)] and G]";
    (* join predicate (paper Q-A style) *)
    "/A/B[C/E/F = C/E/F]";
    "/A/B/C[E/F = E/F]";
    (* union *)
    "/A/B/C/D | //F";
    "//G | //F";
    "/A/B | /A/B/C";
    (* text() *)
    "//F/text()";
    "/A/B/C/E/F/text()";
    "//D/text()";
    (* wildcard backbone with predicate (SQL splitting, Table 6) *)
    "/A/B/*[//F]";
    "/A/B/C/*[F]";
    "/A/B/*";
    (* arithmetic predicate *)
    "//F[. + 1 = 3]";
    "//F[. * 2 = 2]";
    (* absolute path inside predicate (QD5 style) *)
    "/A/B/C[E/F = /A/B/C/E/F]";
    "//C[D = /A/B/C/D]";
    (* descendant into recursion *)
    "/A/B/G//G";
    "//G//G";
    "/A/B[G/G]";
    (* string functions (extension beyond the paper's subset) *)
    "//D[contains(., 'd')]";
    "//D[contains(., 'z')]";
    "//D[contains(., '')]";
    "//F[starts-with(., '1')]";
    "/A[contains(@x, '3')]";
    "/A[starts-with(@x, '9')]";
    "//D[string-length(.) = 2]";
    "//F[string-length(.) > 0]";
    "//C[D[contains(., 'd1')]]";
    (* positional predicates on child steps, via the ord column *)
    "/A/B[1]";
    "/A/B[2]";
    "/A/B[3]";
    "/A/B/C[2]";
    "/A/B/C[position() = 1]";
    "/A/B/C[position() > 1]";
    "/A/B/C[position() <= 2]";
    "/A/B/C[2][E]";
    "/A/B/C[last()]";
    "/A/B/C[position() = last()]";
    "/A/B/C[position() < last()]";
    "/A/B[last()]/G";
    "//E/F[last()]";
    "/A/B/C[last() = 2]";
    "//B/C[2]";
    "/A/B[2]/G";
    "/A/B[C[1]]";
    "/A/B/C[2]/E/F";
    (* count() via scalar sub-queries *)
    "//C[count(D) = 1]";
    "//E[count(F) = 2]";
    "//E[count(F) > 2]";
    "/A/B[count(C) = 2]";
    "/A/B[count(*) = 3]";
    "//B[count(.//F) = 2]";
    "//B[count(G) >= 1]";
    "//E[count(F) = count(F)]";
    "//C[count(E/F) + 1 = 3]";
  ]

(* The Edge translator's differential corpus: the same queries as the
   schema-aware one, so both variants must agree with the evaluator (and
   hence with each other). *)
let edge_queries =
  [
    "/A"; "/A/B"; "/A/B/C"; "/A/B/C/D"; "/A/B/C/E/F"; "//F"; "//C"; "//G"; "/A//F";
    "/A/B//F"; "/A/*"; "/A/B/*"; "/A/B/C/*/F"; "/A/*/C"; "//*";
    "/A[@x = 3]/B/C//F"; "/A[@x = 3]/B"; "/A[@x = 4]//C"; "/A/*[C//F = 2]";
    "//F/parent::E"; "//F/parent::E/parent::C"; "//F/ancestor::B"; "//F/ancestor::C";
    "//F/parent::E/ancestor::B"; "//G/ancestor::G"; "//G/parent::G"; "//G/ancestor::B";
    "//D/..";
    "/descendant-or-self::G"; "//G/ancestor-or-self::G"; "//F/ancestor-or-self::B";
    "/A/B/C/following-sibling::G"; "/A/B/C/following-sibling::C";
    "//C/preceding-sibling::C"; "//D/following::F"; "//G/preceding::D";
    "//D/following::G"; "//F/following-sibling::F";
    "/A/B/C[E]"; "/A/B/C[D]"; "/A/B[C]"; "/A/B[G]"; "/A/B/C[E/F = 2]";
    "/A/B/C[E/F = 3]"; "//F[. = 1]"; "//C[D = 'd1']"; "//B[C and G]"; "//B[C or G]";
    "//B[not(C)]"; "//C[not(D)]"; "//F[parent::E]"; "//F[ancestor::B]";
    "//G[parent::B or ancestor::G]"; "//G[parent::G]"; "//*[@x]"; "/A[@x]";
    "/A[@x = 3]"; "/A[@x = '3']"; "/A[@x = 4]"; "//C[E/F]"; "/A/B[C/E/F = 2]";
    "/A/B[C/D]"; "//B[.//F]";
    "/A/B[C[E]]"; "/A/B[C[E/F = 1]]"; "//B[C[not(D)] and G]";
    "/A/B[C/E/F = C/E/F]"; "/A/B/C[E/F = E/F]";
    "/A/B/C/D | //F"; "//G | //F"; "/A/B | /A/B/C";
    "//F/text()"; "/A/B/C/E/F/text()"; "//D/text()";
    "/A/B/*[//F]"; "/A/B/C/*[F]";
    "//F[. + 1 = 3]"; "//F[. * 2 = 2]";
    "/A/B/C[E/F = /A/B/C/E/F]"; "//C[D = /A/B/C/D]";
    "/A/B/G//G"; "//G//G"; "/A/B[G/G]";
    "//D[contains(., 'd')]"; "//D[contains(., 'z')]"; "//F[starts-with(., '1')]";
    "//D[string-length(.) = 2]"; "//C[D[contains(., 'd1')]]";
    "/A/B[1]"; "/A/B[2]"; "/A/B/C[2]"; "/A/B/C[position() = 1]"; "/A/B/C[last()]";
    "/A/B/C[position() < last()]"; "/A/B[2]/G"; "/A/B[C[1]]";
    (* wildcards are free on the Edge mapping: no SQL splitting *)
    "//*[@x]/B"; "/*/*";
    (* count() and last() comparisons through scalar sub-queries *)
    "/A/B/C[last() = 2]"; "//C[count(D) = 1]"; "//E[count(F) > 2]"; "/A/B[count(*) = 3]";
    "//B[count(.//F) = 2]"; "//E[count(F) = count(F)]"; "//C[count(E/F) + 1 = 3]";
  ]
