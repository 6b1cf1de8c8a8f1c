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
