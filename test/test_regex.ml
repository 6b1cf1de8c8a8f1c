(* Unit and property tests for the POSIX-ERE engine.

   The property tests check both runtimes — NFA simulation and the
   frozen DFA — against a naive backtracking matcher over random
   patterns and subjects. *)

module Regex = Ppfx_regex.Regex
module Syntax = Ppfx_regex.Syntax

let check_search pattern subject expected () =
  let re = Regex.compile pattern in
  Alcotest.(check bool)
    (Printf.sprintf "search %S %S" pattern subject)
    expected (Regex.search re subject)

let check_matches pattern subject expected () =
  let re = Regex.compile pattern in
  Alcotest.(check bool)
    (Printf.sprintf "matches %S %S" pattern subject)
    expected (Regex.matches re subject)

let literal_tests =
  [
    "literal found", check_search "abc" "xxabcxx" true;
    "literal missing", check_search "abc" "xxabxcx" false;
    "empty pattern", check_search "" "anything" true;
    "empty subject no match", check_search "a" "" false;
    "empty subject empty pattern", check_search "" "" true;
    "case sensitive", check_search "ABC" "abc" false;
  ]

let metachar_tests =
  [
    "dot matches any", check_search "a.c" "abc" true;
    "dot needs a char", check_matches "a.c" "ac" false;
    "star zero", check_matches "ab*c" "ac" true;
    "star many", check_matches "ab*c" "abbbbc" true;
    "plus needs one", check_matches "ab+c" "ac" false;
    "plus many", check_matches "ab+c" "abbc" true;
    "opt present", check_matches "ab?c" "abc" true;
    "opt absent", check_matches "ab?c" "ac" true;
    "opt not two", check_matches "ab?c" "abbc" false;
    "alt left", check_matches "ab|cd" "ab" true;
    "alt right", check_matches "ab|cd" "cd" true;
    "alt neither", check_matches "ab|cd" "ad" false;
    "group star", check_matches "(ab)*" "ababab" true;
    "group star empty", check_matches "(ab)*" "" true;
    "nested groups", check_matches "((a|b)c)+" "acbc" true;
    "escaped dot", check_matches "a\\.c" "a.c" true;
    "escaped dot literal", check_matches "a\\.c" "abc" false;
    "escaped star", check_search "a\\*" "xa*y" true;
    "escaped slash irrelevant", check_matches "a/b" "a/b" true;
  ]

let class_tests =
  [
    "simple class", check_matches "[abc]" "b" true;
    "class miss", check_matches "[abc]" "d" false;
    "range", check_matches "[a-z]+" "hello" true;
    "range miss", check_matches "[a-z]+" "Hello" false;
    "negated", check_matches "[^/]+" "abc" true;
    "negated miss", check_matches "[^/]+" "a/c" false;
    "class with dash member", check_matches "[a-]" "-" true;
    "leading bracket member", check_matches "[]a]" "]" true;
    "multiple ranges", check_matches "[a-zA-Z0-9]+" "Az09" true;
  ]

let anchor_tests =
  [
    "bol anchored hit", check_search "^abc" "abcdef" true;
    "bol anchored miss", check_search "^abc" "xabc" false;
    "eol anchored hit", check_search "abc$" "xxabc" true;
    "eol anchored miss", check_search "abc$" "abcx" false;
    "both anchors", check_search "^abc$" "abc" true;
    "both anchors miss", check_search "^abc$" "abcd" false;
    "unanchored search mid", check_search "b.d" "abode abcd" true;
  ]

let repeat_tests =
  [
    "exact count hit", check_matches "a{3}" "aaa" true;
    "exact count under", check_matches "a{3}" "aa" false;
    "exact count over", check_matches "a{3}" "aaaa" false;
    "lo only", check_matches "a{2,}" "aaaaa" true;
    "lo only under", check_matches "a{2,}" "a" false;
    "lo hi", check_matches "a{1,3}" "aa" true;
    "lo hi over", check_matches "a{1,3}" "aaaa" false;
    "group repeat", check_matches "(ab){2}" "abab" true;
  ]

(* The regexes of paper Table 1. *)
let paper_table1_tests =
  let path_re = "^.*/B/C$" in
  let t1 = [
    ("//B/C on /A/B/C", path_re, "/A/B/C", true);
    ("//B/C on /A/B/C/D", path_re, "/A/B/C/D", false);
    ("//B/C on /B/C", path_re, "/B/C", true);
    ("/A/B//F hit deep", "^/A/B/(.+/)?F$", "/A/B/C/E/F", true);
    ("/A/B//F hit direct", "^/A/B/(.+/)?F$", "/A/B/F", true);
    ("/A/B//F miss", "^/A/B/(.+/)?F$", "/A/C/F", false);
    ("//C/*/F hit", "^.*/C/[^/]+/F$", "/A/B/C/E/F", true);
    ("//C/*/F miss two levels", "^.*/C/[^/]+/F$", "/A/B/C/D/E/F", false);
    ("backward path", "^.*/A/B/(.+/)?F$", "/A/B/C/E/F", true);
  ]
  in
  List.map
    (fun (name, pattern, subject, expected) -> name, check_search pattern subject expected)
    t1

let parse_error_tests =
  let expect_error pattern () =
    match Regex.compile pattern with
    | _ -> Alcotest.failf "expected parse error for %S" pattern
    | exception Regex.Parse_error _ -> ()
  in
  [
    "unbalanced paren", expect_error "(ab";
    "stray close paren", expect_error "ab)";
    "dangling star", expect_error "*a";
    "dangling backslash", expect_error "ab\\";
    "unterminated class", expect_error "[abc";
    "bad bounds order", expect_error "a{3,1}";
    "bad range order", expect_error "[z-a]";
  ]

(* Naive exponential-time oracle used by the qcheck property. *)
let rec naive_match (r : Syntax.t) (s : string) (i : int) (k : int -> bool) : bool =
  let n = String.length s in
  match r with
  | Syntax.Empty -> k i
  | Syntax.Char c -> i < n && Char.equal s.[i] c && k (i + 1)
  | Syntax.Any -> i < n && k (i + 1)
  | Syntax.Class (neg, items) ->
    i < n
    &&
    let c = s.[i] in
    let hit =
      List.exists
        (function
          | Syntax.Single x -> Char.equal x c
          | Syntax.Range (a, z) -> a <= c && c <= z)
        items
    in
    (if neg then not hit else hit) && k (i + 1)
  | Syntax.Seq (a, b) -> naive_match a s i (fun j -> naive_match b s j k)
  | Syntax.Alt (a, b) -> naive_match a s i k || naive_match b s i k
  | Syntax.Star a ->
    let rec loop i seen =
      k i
      || naive_match a s i (fun j -> (not (List.mem j seen)) && loop j (j :: seen))
    in
    loop i [ i ]
  | Syntax.Plus a -> naive_match (Syntax.Seq (a, Syntax.Star a)) s i k
  | Syntax.Opt a -> k i || naive_match a s i k
  | Syntax.Repeat (a, lo, hi) ->
    let rec mand cnt i =
      if cnt = 0 then opt (match hi with None -> -1 | Some h -> h - lo) i
      else naive_match a s i (fun j -> mand (cnt - 1) j)
    and opt budget i =
      if budget = 0 then k i
      else
        k i
        || naive_match a s i (fun j ->
               if j = i then k i else opt (if budget < 0 then budget else budget - 1) j)
    in
    mand lo i
  | Syntax.Bol -> i = 0 && k i
  | Syntax.Eol -> i = n && k i

let naive_search r s =
  let n = String.length s in
  let rec try_at i = i <= n && (naive_match r s i (fun _ -> true) || try_at (i + 1)) in
  try_at 0

let naive_matches r s = naive_match r s 0 (fun j -> j = String.length s)

(* Random pattern ASTs kept small so the naive oracle stays fast. *)
let gen_regex =
  let open QCheck.Gen in
  let gen_char = map (fun i -> Char.chr (97 + i)) (int_bound 3) in
  sized_size (int_bound 8) @@ fix (fun self n ->
      if n <= 0 then
        oneof
          [
            map (fun c -> Syntax.Char c) gen_char;
            return Syntax.Any;
            return Syntax.Empty;
            map2 (fun neg c -> Syntax.Class (neg, [ Syntax.Single c ])) bool gen_char;
          ]
      else
        oneof
          [
            map2 (fun a b -> Syntax.Seq (a, b)) (self (n / 2)) (self (n / 2));
            map2 (fun a b -> Syntax.Alt (a, b)) (self (n / 2)) (self (n / 2));
            map (fun a -> Syntax.Star a) (self (n - 1));
            map (fun a -> Syntax.Plus a) (self (n - 1));
            map (fun a -> Syntax.Opt a) (self (n - 1));
            map (fun c -> Syntax.Char c) gen_char;
          ])

let gen_subject =
  QCheck.Gen.(string_size ~gen:(map (fun i -> Char.chr (97 + i)) (int_bound 3)) (int_bound 10))

let prop_nfa_vs_naive =
  QCheck.Test.make ~count:2000 ~name:"NFA search agrees with backtracking oracle"
    (QCheck.make
       ~print:(fun (r, s) -> Printf.sprintf "pattern %s subject %S" (Syntax.to_string r) s)
       (QCheck.Gen.pair gen_regex gen_subject))
    (fun (r, s) ->
      let via_nfa =
        let re = Regex.compile (Syntax.to_string r) in
        Regex.search re s
      in
      via_nfa = naive_search r s)

let prop_print_parse_roundtrip =
  QCheck.Test.make ~count:2000 ~name:"print/parse round-trip"
    (QCheck.make ~print:Syntax.to_string gen_regex)
    (fun r ->
      let printed = Syntax.to_string r in
      let reparsed = Regex.ast (Regex.compile printed) in
      (* Round-tripping may rebalance Seq/Alt nesting; compare by observable
         behaviour on a deterministic set of subjects. *)
      let subjects = [ ""; "a"; "b"; "ab"; "ba"; "aab"; "abab"; "bbb"; "aaba" ] in
      List.for_all (fun s -> naive_search r s = naive_search reparsed s) subjects)

let prop_quote_literal =
  QCheck.Test.make ~count:500 ~name:"quote makes any string match itself"
    QCheck.(string_of_size (QCheck.Gen.int_bound 20))
    (fun s ->
      (* Exclude newline oddities: our subjects are path strings. *)
      let re = Regex.compile ("^" ^ Regex.quote s ^ "$") in
      Regex.search re s)

(* ------------------------------------------------------------------ *)
(* Shared compile cache                                                *)
(* ------------------------------------------------------------------ *)

let cache_tests =
  [
    ( "hit and miss accounting",
      fun () ->
        Regex.cache_clear ();
        let a = Regex.compile_cached "^/(.+/)?keyword$" in
        let b = Regex.compile_cached "^/(.+/)?keyword$" in
        let c = Regex.compile_cached "^/site(/.+)?$" in
        Alcotest.(check int) "misses" 2 (Regex.cache_misses ());
        Alcotest.(check int) "hits" 1 (Regex.cache_hits ());
        Alcotest.(check int) "size" 2 (Regex.cache_size ());
        Alcotest.(check bool) "same behaviour" true
          (Regex.search a "/a/keyword" && Regex.search b "/a/keyword"
          && Regex.search c "/site/x") );
    ( "cached handles behave like uncached ones",
      fun () ->
        Regex.cache_clear ();
        (* A handle is immutable, so the cache hands every caller the same
           one, whichever domain it runs on. Equality of observable
           behaviour with an uncached compile is the contract. *)
        let cached = Regex.compile_cached "^/a/(.+/)?b$" in
        let plain = Regex.compile "^/a/(.+/)?b$" in
        List.iter
          (fun s ->
            Alcotest.(check bool) s (Regex.search plain s) (Regex.search cached s))
          [ "/a/b"; "/a/x/b"; "/a/x/y/b"; "/b"; "/a/bc"; "" ] );
    ( "parse errors are not cached",
      fun () ->
        Regex.cache_clear ();
        (match Regex.compile_cached "(" with
        | exception Regex.Parse_error _ -> ()
        | _ -> Alcotest.fail "expected Parse_error");
        Alcotest.(check int) "size unchanged" 0 (Regex.cache_size ());
        (* and the error is deterministic on retry *)
        (match Regex.compile_cached "(" with
        | exception Regex.Parse_error _ -> ()
        | _ -> Alcotest.fail "expected Parse_error again") );
    ( "clear resets counters",
      fun () ->
        Regex.cache_clear ();
        ignore (Regex.compile_cached "abc");
        ignore (Regex.compile_cached "abc");
        Regex.cache_clear ();
        Alcotest.(check int) "hits" 0 (Regex.cache_hits ());
        Alcotest.(check int) "misses" 0 (Regex.cache_misses ());
        Alcotest.(check int) "size" 0 (Regex.cache_size ()) );
    ( "concurrent domains share the cache safely",
      fun () ->
        Regex.cache_clear ();
        let patterns =
          [| "^/(.+/)?keyword$"; "^/site(/.+)?$"; "^/a/(.+/)?b$"; "abc" |]
        in
        let subject = "/site/regions/item/keyword" in
        let expected = Array.map (fun p -> Regex.search (Regex.compile p) subject) patterns in
        let worker () =
          for i = 0 to 99 do
            let j = i mod Array.length patterns in
            let re = Regex.compile_cached patterns.(j) in
            assert (Regex.search re subject = expected.(j))
          done
        in
        let domains = List.init 4 (fun _ -> Domain.spawn worker) in
        List.iter Domain.join domains;
        Alcotest.(check int) "only one miss per pattern"
          (Array.length patterns) (Regex.cache_misses ());
        Alcotest.(check int) "size" (Array.length patterns) (Regex.cache_size ()) );
  ]

(* ------------------------------------------------------------------ *)
(* Frozen DFAs and required-literal extraction                         *)
(* ------------------------------------------------------------------ *)

let frozen_tests =
  [
    ( "compile_cached handles are frozen",
      fun () ->
        Regex.cache_clear ();
        let re = Regex.compile_cached "^/(.+/)?keyword$" in
        Alcotest.(check bool) "frozen" true (Regex.has_frozen re);
        Alcotest.(check bool) "uncached compile is not" false
          (Regex.has_frozen (Regex.compile "^/(.+/)?keyword$")) );
    ( "frozen DFA agrees with NFA simulation on paper paths",
      fun () ->
        Regex.cache_clear ();
        List.iter
          (fun (pattern, subject) ->
            let frozen = Regex.compile_cached pattern in
            let nfa = Regex.compile pattern in
            Alcotest.(check bool)
              (Printf.sprintf "search %S %S" pattern subject)
              (Regex.search nfa subject)
              (Regex.search frozen subject);
            Alcotest.(check bool)
              (Printf.sprintf "matches %S %S" pattern subject)
              (Regex.matches nfa subject)
              (Regex.matches frozen subject))
          [
            ("^.*/listitem(/.+)?/keyword$", "/site/listitem/keyword");
            ("^.*/listitem(/.+)?/keyword$", "/site/listitem/x/keyword");
            ("^.*/listitem(/.+)?/keyword$", "/keyword");
            ("^/(.+/)?keyword$", "/a/b/keyword");
            ("france", "in france today");
            ("^mailto:1", "mailto:1@example.org");
            ("^mailto:1", "xmailto:1");
            ("a{2,3}", "aaa");
            ("", "");
          ] );
  ]

(* A pattern whose subset construction needs 2^13 states — past the
   freezing cap — so even a cached handle runs by NFA simulation. *)
let over_cap = "(a|b)*a(a|b){12}"

let over_cap_subjects =
  (* Deterministic a/b strings around the 13-symbol window. *)
  List.init 64 (fun i ->
      String.init (8 + (i mod 13)) (fun j ->
          if (i * 7 + j * 3) mod 5 < 2 then 'a' else 'b'))

let over_cap_tests =
  let ast = Regex.ast (Regex.compile over_cap) in
  [
    ( "over-cap cached pattern runs by NFA simulation",
      fun () ->
        Regex.cache_clear ();
        let re = Regex.compile_cached over_cap in
        Alcotest.(check bool) "not frozen" false (Regex.has_frozen re);
        List.iter
          (fun s ->
            Alcotest.(check bool) ("search " ^ s) (naive_search ast s) (Regex.search re s);
            Alcotest.(check bool) ("matches " ^ s) (naive_matches ast s)
              (Regex.matches re s))
          over_cap_subjects );
    ( "unfrozen handles are shareable across domains",
      fun () ->
        (* No cache_clear: the over-cap handle is served from the test
           above when it ran, sparing a second failed freeze. *)
        let handles =
          [ Regex.compile "^/(.+/)?keyword$"; Regex.compile_cached over_cap ]
        in
        let cases =
          List.concat_map
            (fun re ->
              let ast = Regex.ast re in
              List.map
                (fun s -> (re, s, naive_search ast s, naive_matches ast s))
                ("/site/keyword" :: "/keyword" :: "keyword" :: over_cap_subjects))
            handles
        in
        let worker () =
          let wrong = ref 0 in
          for _ = 1 to 20 do
            List.iter
              (fun (re, s, search, matches) ->
                if Regex.search re s <> search || Regex.matches re s <> matches then
                  incr wrong)
              cases
          done;
          !wrong
        in
        let domains = List.init 4 (fun _ -> Domain.spawn worker) in
        Alcotest.(check (list int)) "every domain agrees with the oracle"
          [ 0; 0; 0; 0 ] (List.map Domain.join domains) );
  ]

(* Both runtimes must be equivalent to each other and to the
   backtracking oracle on arbitrary patterns: the frozen DFA of a cached
   handle and the NFA simulation of an uncached one. *)
let prop_frozen_vs_nfa_vs_naive =
  QCheck.Test.make ~count:2000
    ~name:"frozen DFA agrees with NFA simulation and backtracking oracle"
    (QCheck.make
       ~print:(fun (r, s) -> Printf.sprintf "pattern %s subject %S" (Syntax.to_string r) s)
       (QCheck.Gen.pair gen_regex gen_subject))
    (fun (r, s) ->
      let pattern = Syntax.to_string r in
      let frozen = Regex.compile_cached pattern in
      let nfa = Regex.compile pattern in
      Regex.search frozen s = naive_search r s
      && Regex.search frozen s = Regex.search nfa s
      && Regex.matches frozen s = naive_matches r s
      && Regex.matches frozen s = Regex.matches nfa s)

let check_literals pattern expected () =
  let got = Regex.required_literals (Regex.compile pattern) in
  Alcotest.(check (list (list string)))
    (Printf.sprintf "required_literals %S" pattern)
    (List.sort compare expected) (List.sort compare got)

let literal_extraction_tests =
  [
    (* The two regexes Q6's path filters compile to. *)
    "Q6 descendant filter", check_literals "^/(.+/)?keyword$" [ [ "keyword" ] ];
    ( "Q6 ancestor filter",
      check_literals "^.*/listitem(/.+)?/keyword$"
        [ [ "/listitem" ]; [ "/keyword" ] ] );
    (* XE1 contains() / XE2 starts-with() value predicates. *)
    "bare literal", check_literals "france" [ [ "france" ] ];
    "anchored prefix", check_literals "^mailto:1" [ [ "mailto:1" ] ];
    (* Alternation: union within a group. *)
    "alt of literals", check_literals "abcd|efgh" [ [ "abcd"; "efgh" ] ];
    ( "alt inside seq",
      check_literals "xx(abcd|efgh)yy" [ [ "xxabcdyy"; "xxefghyy" ] ] );
    (* Nothing required. *)
    "dot star", check_literals ".*" [];
    "short runs dropped", check_literals "^a.b$" [];
    "opt group not required", check_literals "(abcd)?" [];
    (* Plus / bounded repeat force one copy. *)
    "plus required", check_literals "(abcd)+" [ [ "abcd" ] ];
    "repeat required", check_literals "(abcd){2,3}" [ [ "abcd" ] ];
    "repeat zero not required", check_literals "(abcd){0,3}" [];
    (* Classes break runs but keep both sides. *)
    ( "class splits runs",
      check_literals "abcd[0-9]efgh" [ [ "abcd" ]; [ "efgh" ] ] );
  ]

(* Soundness: every extracted group is truly required — whenever the
   pattern accepts a subject, each group has an alternative occurring as
   a substring. Checked against random pattern/subject pairs. *)
let contains_substring subject lit =
  let n = String.length subject and m = String.length lit in
  let rec go i = i + m <= n && (String.sub subject i m = lit || go (i + 1)) in
  m = 0 || go 0

let prop_literals_sound =
  QCheck.Test.make ~count:2000
    ~name:"required literals occur in every accepted subject"
    (QCheck.make
       ~print:(fun (r, s) -> Printf.sprintf "pattern %s subject %S" (Syntax.to_string r) s)
       (QCheck.Gen.pair gen_regex gen_subject))
    (fun (r, s) ->
      let re = Regex.compile (Syntax.to_string r) in
      (not (Regex.search re s))
      || List.for_all
           (fun group -> List.exists (contains_substring s) group)
           (Regex.required_literals re))

let () =
  let tc (name, f) = Alcotest.test_case name `Quick f in
  Alcotest.run "regex"
    [
      "literals", List.map tc literal_tests;
      "metachars", List.map tc metachar_tests;
      "classes", List.map tc class_tests;
      "anchors", List.map tc anchor_tests;
      "repeats", List.map tc repeat_tests;
      "paper-table1", List.map tc paper_table1_tests;
      "parse-errors", List.map tc parse_error_tests;
      "compile-cache", List.map tc cache_tests;
      "frozen-dfa", List.map tc frozen_tests;
      "nfa-simulation", List.map tc over_cap_tests;
      "required-literals", List.map tc literal_extraction_tests;
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_nfa_vs_naive;
            prop_print_parse_roundtrip;
            prop_quote_literal;
            prop_frozen_vs_nfa_vs_naive;
            prop_literals_sound;
          ] );
    ]
