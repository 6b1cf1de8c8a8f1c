exception Parse_error = Parse.Error

type t = {
  source : string;
  ast : Syntax.t;
  nfa : Nfa.t;
  frozen_search : Dfa.frozen option;
  frozen_match : Dfa.frozen option;
}

(* Subset-construction cap for freezing. Path and value patterns stay in
   the tens of states; anything past this is pathological and runs by NFA
   simulation instead of paying a huge dense table. *)
let max_frozen_states = 4096

let compile source =
  let ast = Parse.parse source in
  { source; ast; nfa = Nfa.build ast; frozen_search = None; frozen_match = None }

(* Process-wide compile cache: pattern -> handle. A handle is immutable,
   so one copy can be read concurrently by every domain (service sessions,
   the cluster worker pool). The frozen DFAs are built once, on first
   miss, by running the subset construction to completion and copying it
   into dense arrays. Patterns whose construction blows past
   [max_frozen_states] cache a handle without them and run by NFA
   simulation. *)
let cache_lock = Mutex.create ()

let cache : (string, t) Hashtbl.t = Hashtbl.create 64

let cache_hit_count = Atomic.make 0

let cache_miss_count = Atomic.make 0

let compile_cached source =
  let found =
    Mutex.protect cache_lock (fun () -> Hashtbl.find_opt cache source)
  in
  match found with
  | Some t ->
    Atomic.incr cache_hit_count;
    t
  | None ->
    (* Build under the lock with a double-check: freezing is the once-
       per-pattern expensive step, and doing it inside the critical
       section guarantees exactly one miss (and one construction) per
       pattern even when N domains race on a cold cache. Parse errors
       propagate without caching anything. *)
    Mutex.protect cache_lock (fun () ->
        match Hashtbl.find_opt cache source with
        | Some t ->
          Atomic.incr cache_hit_count;
          t
        | None ->
          let t = compile source in
          let freeze reseed =
            Dfa.freeze t.nfa ~reseed ~max_states:max_frozen_states
          in
          let t =
            { t with frozen_search = freeze true; frozen_match = freeze false }
          in
          Hashtbl.add cache source t;
          Atomic.incr cache_miss_count;
          t)

let cache_hits () = Atomic.get cache_hit_count

let cache_misses () = Atomic.get cache_miss_count

let cache_size () = Mutex.protect cache_lock (fun () -> Hashtbl.length cache)

let cache_clear () =
  Mutex.protect cache_lock (fun () -> Hashtbl.reset cache);
  Atomic.set cache_hit_count 0;
  Atomic.set cache_miss_count 0

let has_frozen t = Option.is_some t.frozen_search

let search t subject =
  match t.frozen_search with
  | Some f -> Dfa.frozen_search f subject
  | None -> Nfa.search t.nfa subject

let matches t subject =
  match t.frozen_match with
  | Some f -> Dfa.frozen_matches f subject
  | None -> Nfa.matches t.nfa subject

let pattern t = t.source

let quote = Syntax.quote

let ast t = t.ast

(* Required-literal extraction: a CNF of substring alternatives. Each
   returned group [g] is a set of strings of which at least one MUST
   appear somewhere in any subject matched by [search] — so a content
   index can intersect posting lists across groups (union within a
   group) to get a candidate superset before verifying with the DFA.

   Per node we track [exact] — [Some xs] iff the node's language is
   exactly the finite set [xs] — and [req], the substring groups already
   forced. Sequences are flattened first and folded left-to-right,
   accumulating maximal exact runs by cross-product concatenation;
   an inexact item (a [.*], a class, an oversized product) demotes the
   run so far to a required group and starts a new run. Flattening
   matters: the parser right-nests [Seq], and a naive recursion would
   fragment "listitem" into single-character groups. *)

let cross_cap = 16

let group_of = function
  | Some xs when xs <> [] && not (List.mem "" xs) -> [ List.sort_uniq compare xs ]
  | _ -> []

(* Groups implied by a node: its exact language if usable, else what its
   structure already forces. *)
let groups_of_info (exact, req) =
  match group_of exact with [] -> req | g -> g

let rec lit_info (ast : Syntax.t) : string list option * string list list =
  match ast with
  | Syntax.Empty | Syntax.Bol | Syntax.Eol -> (Some [ "" ], [])
  | Syntax.Char c -> (Some [ String.make 1 c ], [])
  | Syntax.Any | Syntax.Class _ -> (None, [])
  | Syntax.Seq _ as s ->
    let rec flatten = function
      | Syntax.Seq (a, b) -> flatten a @ flatten b
      | x -> [ x ]
    in
    let acc = ref (Some [ "" ]) in
    let req = ref [] in
    let pure = ref true in
    let flush () =
      req := !req @ group_of !acc;
      acc := Some [ "" ]
    in
    List.iter
      (fun item ->
        let exact, ireq = lit_info item in
        match (exact, !acc) with
        | Some xs, Some a when List.length xs * List.length a <= cross_cap ->
          acc :=
            Some
              (List.concat_map (fun p -> List.map (fun s -> p ^ s) xs) a);
          req := !req @ ireq
        | Some xs, _ ->
          (* Run too big to extend: break it, start a fresh run at [xs]. *)
          flush ();
          pure := false;
          req := !req @ ireq;
          acc := Some xs
        | None, _ ->
          flush ();
          pure := false;
          req := !req @ ireq)
      (flatten s);
    if !pure then (!acc, !req)
    else begin
      flush ();
      (None, !req)
    end
  | Syntax.Alt (a, b) ->
    let (ea, _) as ia = lit_info a in
    let (eb, _) as ib = lit_info b in
    let exact =
      match (ea, eb) with
      | Some xa, Some xb when List.length xa + List.length xb <= cross_cap ->
        Some (xa @ xb)
      | _ -> None
    in
    (* A requirement of the alternation must hold on both branches: the
       pairwise union of one group per side is required. Cap the product
       to keep pathological alternations cheap. *)
    let ga = groups_of_info ia and gb = groups_of_info ib in
    let req =
      if ga = [] || gb = [] || List.length ga * List.length gb > 8 then []
      else
        List.concat_map
          (fun g1 -> List.map (fun g2 -> List.sort_uniq compare (g1 @ g2)) gb)
          ga
    in
    (exact, req)
  | Syntax.Star _ | Syntax.Opt _ -> (None, [])
  | Syntax.Plus a -> (None, groups_of_info (lit_info a))
  | Syntax.Repeat (a, lo, _) ->
    if lo >= 1 then (None, groups_of_info (lit_info a)) else (None, [])

(* Groups whose every alternative is shorter than 3 bytes can't drive a
   trigram probe and barely narrow a token probe; drop them here so
   planners see only usable groups. *)
let min_literal_len = 3

let required_literals t =
  let groups = groups_of_info (lit_info t.ast) in
  let usable =
    List.filter
      (fun g -> List.for_all (fun s -> String.length s >= min_literal_len) g)
      groups
  in
  List.sort_uniq compare usable
