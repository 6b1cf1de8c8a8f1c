(* Unit and property tests for the POSIX-ERE engine.

   The property tests check both runtimes — NFA simulation and the
   frozen DFA — against a naive end-position-set matcher over random
   patterns and subjects. Whole-subject matching is a search of the
   pattern anchored at both ends. *)

module Regex = Ppfx_regex.Regex
module Syntax = Ppfx_regex.Syntax

let check_search pattern subject expected () =
  let re = Regex.compile pattern in
  Alcotest.(check bool)
    (Printf.sprintf "search %S %S" pattern subject)
    expected (Regex.search re subject)

(* [anchored p] matches exactly the subjects [p] matches as a whole. *)
let anchored pattern = "^(" ^ pattern ^ ")$"

let check_matches pattern subject expected () =
  let re = Regex.compile (anchored pattern) in
  Alcotest.(check bool)
    (Printf.sprintf "matches %S %S" pattern subject)
    expected (Regex.search re subject)

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

(* Naive oracle used by the qcheck properties, independent of the NFA
   and the DFA: [naive_ends r s i] is the set of positions at which a
   match of [r] starting at position [i] of [s] can end. Each subterm is
   compiled to a function memoized per start position, and Star/Plus
   close their end sets to a fixpoint, so the oracle is polynomial in the
   pattern and subject sizes, nested stars included. *)
module Ends = Set.Make (Int)

let naive_ends (r : Syntax.t) (s : string) : int -> Ends.t =
  let n = String.length s in
  let one_char pred i = if i < n && pred s.[i] then Ends.singleton (i + 1) else Ends.empty in
  (* The ends of one match of [a] from any position in [from]. *)
  let step a from = Ends.fold (fun j acc -> Ends.union (a j) acc) from Ends.empty in
  (* [from] plus everything reachable from it by repeating [a]. *)
  let closure a from =
    let rec grow reach frontier =
      if Ends.is_empty frontier then reach
      else
        let next = Ends.diff (step a frontier) reach in
        grow (Ends.union reach next) next
    in
    grow from from
  in
  let rec compile (r : Syntax.t) : int -> Ends.t =
    let f =
      match r with
      | Syntax.Empty -> Ends.singleton
      | Syntax.Char c -> one_char (Char.equal c)
      | Syntax.Any -> one_char (fun _ -> true)
      | Syntax.Class (neg, items) ->
        one_char (fun c ->
            let hit =
              List.exists
                (function
                  | Syntax.Single x -> Char.equal x c
                  | Syntax.Range (a, z) -> a <= c && c <= z)
                items
            in
            if neg then not hit else hit)
      | Syntax.Seq (a, b) ->
        let a = compile a and b = compile b in
        fun i -> step b (a i)
      | Syntax.Alt (a, b) ->
        let a = compile a and b = compile b in
        fun i -> Ends.union (a i) (b i)
      | Syntax.Star a ->
        let a = compile a in
        fun i -> closure a (Ends.singleton i)
      | Syntax.Plus a ->
        let a = compile a in
        fun i -> closure a (a i)
      | Syntax.Opt a ->
        let a = compile a in
        fun i -> Ends.add i (a i)
      | Syntax.Repeat (a, lo, hi) ->
        let a = compile a in
        fun i ->
          let rec mandatory k from = if k = 0 then from else mandatory (k - 1) (step a from) in
          let from = mandatory lo (Ends.singleton i) in
          (match hi with
           | None -> closure a from
           | Some hi ->
             let rec optional k from =
               if k = 0 then from else Ends.union from (optional (k - 1) (step a from))
             in
             optional (hi - lo) from)
      | Syntax.Bol -> fun i -> if i = 0 then Ends.singleton i else Ends.empty
      | Syntax.Eol -> fun i -> if i = n then Ends.singleton i else Ends.empty
    in
    let memo = Array.make (n + 1) None in
    fun i ->
      match memo.(i) with
      | Some e -> e
      | None ->
        let e = f i in
        memo.(i) <- Some e;
        e
  in
  compile r

let naive_search r s =
  let ends = naive_ends r s in
  List.exists (fun i -> not (Ends.is_empty (ends i))) (List.init (String.length s + 1) Fun.id)

let naive_matches r s = Ends.mem (String.length s) (naive_ends r s 0)

(* Random pattern ASTs over a four-letter alphabet, anchors included
   anywhere in the pattern. *)
let gen_regex =
  let open QCheck.Gen in
  let gen_char = map (fun i -> Char.chr (97 + i)) (int_bound 3) in
  sized_size (int_bound 8) @@ fix (fun self n ->
      if n <= 0 then
        frequency
          [
            3, map (fun c -> Syntax.Char c) gen_char;
            1, return Syntax.Any;
            1, return Syntax.Empty;
            1, map2 (fun neg c -> Syntax.Class (neg, [ Syntax.Single c ])) bool gen_char;
            1, return Syntax.Bol;
            1, return Syntax.Eol;
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
  QCheck.Test.make ~count:2000 ~name:"NFA search agrees with the oracle"
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
    ( "table lengths stay under the cap",
      fun () ->
        Regex.cache_clear ();
        let early = Regex.compile_cached "^/a/(.+/)?b$" in
        (* 60-byte literals: about 15k table entries each, so a few hundred
           distinct patterns pass the cap. *)
        let literal i = Printf.sprintf "%060d" i in
        let distinct = (Regex.max_cache_table_length / (60 * 256)) + 50 in
        let resets = ref 0 in
        for i = 1 to distinct do
          let size = Regex.cache_size () in
          let re = Regex.compile_cached (Regex.quote (literal i)) in
          if Regex.cache_size () <= size then incr resets;
          if Regex.cache_table_length () > Regex.max_cache_table_length then
            Alcotest.failf "table length %d past the cap" (Regex.cache_table_length ());
          assert (Regex.search re ("x" ^ literal i))
        done;
        Alcotest.(check bool) "reset at least once" true (!resets > 0);
        Alcotest.(check int) "misses" (distinct + 1) (Regex.cache_misses ());
        Alcotest.(check bool) "early handle still frozen" true (Regex.has_frozen early);
        List.iter
          (fun (s, expected) -> Alcotest.(check bool) s expected (Regex.search early s))
          [ "/a/b", true; "/a/x/y/b", true; "/a/bc", false; "/b", false ] );
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
(* Frozen DFAs                                                        *)
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
              (Regex.search (Regex.compile (anchored pattern)) subject)
              (Regex.search (Regex.compile_cached (anchored pattern)) subject))
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

(* Nested stars over a body that can match the empty string: exponential
   for a backtracking matcher, polynomial for the end-position oracle. *)
let nested_stars_test () =
  let pattern = "((((([a]+|()[^d])?)?)+)*)+" and subject = "aabbccbbda" in
  let ast = Regex.ast (Regex.compile pattern) in
  List.iter
    (fun (name, p, oracle, expected) ->
      Alcotest.(check bool) (name ^ " oracle") expected oracle;
      Alcotest.(check bool) (name ^ " frozen") expected
        (Regex.search (Regex.compile_cached p) subject);
      Alcotest.(check bool) (name ^ " nfa") expected (Regex.search (Regex.compile p) subject))
    [
      "search", pattern, naive_search ast subject, true;
      "matches", anchored pattern, naive_matches ast subject, false;
    ]

(* Q2's path filter: a 91-byte literal path between anchors. *)
let q2_path =
  "^/site/closed_auctions/closed_auction/annotation/description/parlist/listitem/text/keyword$"

(* A cold build of Q2's DFA stays cheap: one closure per distinct move
   set, keyed by kept NFA states only. Allocation is deterministic where
   wall time is not. *)
let q2_build_test () =
  Regex.cache_clear ();
  let before = Gc.minor_words () in
  let re = Regex.compile_cached q2_path in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "frozen" true (Regex.has_frozen re);
  Alcotest.(check int) "states" 91 (Regex.dfa_states re);
  if words >= 5e6 then Alcotest.failf "cold build allocated %.0f minor words" words;
  Alcotest.(check bool) "hit" true
    (Regex.search re "/site/closed_auctions/closed_auction/annotation/description/parlist/listitem/text/keyword");
  Alcotest.(check bool) "miss" false
    (Regex.search re "/site/closed_auctions/closed_auction/annotation/description/parlist/listitem/keyword")

(* On the empty subject the start is also the end: both anchors can be
   crossed, in either order. *)
let empty_subject_anchors_test () =
  List.iter
    (fun (pattern, expected) ->
      Alcotest.(check bool) (pattern ^ " frozen") expected
        (Regex.search (Regex.compile_cached pattern) "");
      Alcotest.(check bool) (pattern ^ " nfa") expected (Regex.search (Regex.compile pattern) ""))
    [ "^$", true; "$^", true; "(a|$)^", true; "$a^", false ]

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
        let whole = Regex.compile_cached (anchored over_cap) in
        Alcotest.(check bool) "not frozen" false (Regex.has_frozen re);
        Alcotest.(check bool) "anchored not frozen" false (Regex.has_frozen whole);
        List.iter
          (fun s ->
            Alcotest.(check bool) ("search " ^ s) (naive_search ast s) (Regex.search re s);
            Alcotest.(check bool) ("matches " ^ s) (naive_matches ast s)
              (Regex.search whole s))
          over_cap_subjects );
    ( "unfrozen handles are shareable across domains",
      fun () ->
        (* No cache_clear: the over-cap handles are served from the test
           above when it ran, sparing a second failed freeze. *)
        let handles =
          [ Regex.compile, "^/(.+/)?keyword$"; Regex.compile_cached, over_cap ]
        in
        let cases =
          List.concat_map
            (fun (compile, pattern) ->
              let re = compile pattern and whole = compile (anchored pattern) in
              let ast = Regex.ast re in
              List.map
                (fun s -> (re, whole, s, naive_search ast s, naive_matches ast s))
                ("/site/keyword" :: "/keyword" :: "keyword" :: over_cap_subjects))
            handles
        in
        let worker () =
          let wrong = ref 0 in
          for _ = 1 to 20 do
            List.iter
              (fun (re, whole, s, search, matches) ->
                if Regex.search re s <> search || Regex.search whole s <> matches then
                  incr wrong)
              cases
          done;
          !wrong
        in
        let domains = List.init 4 (fun _ -> Domain.spawn worker) in
        Alcotest.(check (list int)) "every domain agrees with the oracle"
          [ 0; 0; 0; 0 ] (List.map Domain.join domains) );
  ]

(* Both runtimes must be equivalent to each other and to the oracle on
   arbitrary patterns, unanchored and anchored at both ends: the frozen
   DFA of a cached handle and the NFA simulation of an uncached one. *)
let prop_frozen_vs_nfa_vs_naive =
  QCheck.Test.make ~count:2000
    ~name:"frozen DFA agrees with NFA simulation and the oracle"
    (QCheck.make
       ~print:(fun (r, s) -> Printf.sprintf "pattern %s subject %S" (Syntax.to_string r) s)
       (QCheck.Gen.pair gen_regex gen_subject))
    (fun (r, s) ->
      let pattern = Syntax.to_string r in
      let agree pattern oracle =
        let frozen = Regex.search (Regex.compile_cached pattern) s in
        frozen = oracle && frozen = Regex.search (Regex.compile pattern) s
      in
      agree pattern (naive_search r s) && agree (anchored pattern) (naive_matches r s))

(* The pattern shapes a REGEXP_LIKE residual filter runs: each cached
   (frozen) handle is checked against explicit accept/reject subjects,
   and against NFA simulation of the same pattern. *)
let check_filter pattern cases () =
  let frozen = Regex.compile_cached pattern in
  let nfa = Regex.compile pattern in
  Alcotest.(check bool) (Printf.sprintf "%S frozen" pattern) true (Regex.has_frozen frozen);
  List.iter
    (fun (subject, expected) ->
      Alcotest.(check bool)
        (Printf.sprintf "search %S %S" pattern subject)
        expected (Regex.search frozen subject);
      Alcotest.(check bool)
        (Printf.sprintf "nfa search %S %S" pattern subject)
        expected (Regex.search nfa subject))
    cases

let residual_filter_tests =
  [
    (* The two regexes Q6's path filters compile to. *)
    ( "Q6 descendant filter",
      check_filter "^/(.+/)?keyword$"
        [ "/keyword", true; "/site/a/keyword", true; "/site/keywords", false;
          "site/keyword", false; "/site/xkeyword", false ] );
    ( "Q6 ancestor filter",
      check_filter "^.*/listitem(/.+)?/keyword$"
        [ "/listitem/keyword", true; "/a/listitem/b/c/keyword", true;
          "/listitem/keyword/x", false; "/alistitem/keyword", false;
          "/listitemkeyword", false ] );
    (* XE1 contains() / XE2 starts-with() value predicates. *)
    ( "bare literal",
      check_filter "france" [ "in france today", true; "France", false; "", false ] );
    ( "anchored prefix",
      check_filter "^mailto:1" [ "mailto:1@x", true; "xmailto:1", false; "mailto:", false ] );
    ( "alt of literals",
      check_filter "abcd|efgh" [ "xxefgh", true; "abcd", true; "abce", false ] );
    ( "alt inside seq",
      check_filter "xx(abcd|efgh)yy"
        [ "xxabcdyy", true; "-xxefghyy-", true; "xxabcdefghyy", false ] );
    ( "dot star", check_filter ".*" [ "", true; "anything", true ] );
    ( "anchored single wildcard",
      check_filter "^a.b$" [ "axb", true; "ab", false; "axxb", false ] );
    ( "optional group",
      check_filter "^(abcd)?$" [ "", true; "abcd", true; "abc", false ] );
    ( "plus group",
      check_filter "^(abcd)+$" [ "abcdabcd", true; "", false; "abcdab", false ] );
    ( "bounded repeat",
      check_filter "^(abcd){2,3}$"
        [ "abcdabcd", true; "abcdabcdabcd", true; "abcd", false;
          "abcdabcdabcdabcd", false ] );
    ( "bounded repeat from zero",
      check_filter "^(abcd){0,3}$" [ "", true; "abcdabcdabcd", true; "abc", false ] );
    ( "class between runs",
      check_filter "abcd[0-9]efgh" [ "abcd7efgh", true; "abcdxefgh", false ] );
  ]

(* contains(): a quoted literal run through a frozen DFA accepts exactly
   the subjects that contain it as a substring. *)
let contains_substring subject lit =
  let n = String.length subject and m = String.length lit in
  let rec go i = i + m <= n && (String.sub subject i m = lit || go (i + 1)) in
  m = 0 || go 0

let prop_quoted_literal_is_substring =
  QCheck.Test.make ~count:2000
    ~name:"frozen quoted-literal search is substring containment"
    (QCheck.make
       ~print:(fun (lit, s) -> Printf.sprintf "literal %S subject %S" lit s)
       (QCheck.Gen.pair
          QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; '.'; '*' ]) (int_bound 3))
          QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; '.'; '*' ]) (int_bound 10))))
    (fun (lit, s) ->
      Regex.search (Regex.compile_cached (Regex.quote lit)) s = contains_substring s lit)

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
      ( "frozen-dfa",
        List.map tc
          (frozen_tests
          @ [ "nested stars agree with the oracle", nested_stars_test;
              "cold Q2 build allocates little", q2_build_test;
              "empty subject crosses both anchors", empty_subject_anchors_test ]) );
      "nfa-simulation", List.map tc over_cap_tests;
      "residual-filters", List.map tc residual_filter_tests;
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_nfa_vs_naive;
            prop_print_parse_roundtrip;
            prop_quote_literal;
            prop_frozen_vs_nfa_vs_naive;
            prop_quoted_literal_is_substring;
          ] );
    ]
