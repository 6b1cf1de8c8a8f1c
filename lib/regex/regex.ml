exception Parse_error = Parse.Error

type t = { source : string; ast : Syntax.t; nfa : Nfa.t; dfa : Dfa.t option }

(* Subset-construction cap. Path and value patterns stay in the tens of
   states; anything past this is pathological and runs by NFA simulation
   instead of paying a huge dense table. *)
let max_frozen_states = 4096

let compile source =
  let ast = Parse.parse source in
  { source; ast; nfa = Nfa.build ast; dfa = None }

(* Process-wide compile cache: pattern -> handle. A handle is immutable,
   so one copy can be read concurrently by every domain (service sessions,
   the cluster worker pool). The search DFA is built once, on first miss.
   Patterns whose construction blows past [max_frozen_states] cache a
   handle without one and run by NFA simulation.

   The summed length of the cached DFA tables is capped (an NFA-only
   handle counts as one 256-entry row): a miss that would pass the cap
   empties the cache first. Handles already given out stay valid, and
   the hit/miss counters carry on. *)
let max_cache_table_length = 1 lsl 21

let cache_lock = Mutex.create ()

let cache : (string, t) Hashtbl.t = Hashtbl.create 64

let cached_length = ref 0

let cache_hit_count = Atomic.make 0

let cache_miss_count = Atomic.make 0

let has_frozen t = Option.is_some t.dfa

let dfa_states t = match t.dfa with Some d -> Dfa.states d | None -> 0

let compile_cached source =
  let found =
    Mutex.protect cache_lock (fun () -> Hashtbl.find_opt cache source)
  in
  match found with
  | Some t ->
    Atomic.incr cache_hit_count;
    t
  | None ->
    (* Build under the lock with a double-check: the DFA build is the
       once-per-pattern expensive step, and doing it inside the critical
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
          let t = { t with dfa = Dfa.build t.nfa ~max_states:max_frozen_states } in
          let len = 256 * max 1 (dfa_states t) in
          if !cached_length + len > max_cache_table_length then begin
            Hashtbl.reset cache;
            cached_length := 0
          end;
          Hashtbl.add cache source t;
          cached_length := !cached_length + len;
          Atomic.incr cache_miss_count;
          t)

let cache_hits () = Atomic.get cache_hit_count

let cache_misses () = Atomic.get cache_miss_count

let cache_size () = Mutex.protect cache_lock (fun () -> Hashtbl.length cache)

let cache_table_length () = Mutex.protect cache_lock (fun () -> !cached_length)

let cache_clear () =
  Mutex.protect cache_lock (fun () ->
      Hashtbl.reset cache;
      cached_length := 0);
  Atomic.set cache_hit_count 0;
  Atomic.set cache_miss_count 0


let search t subject =
  match t.dfa with
  | Some d -> Dfa.search d subject
  | None -> Nfa.search t.nfa subject

let pattern t = t.source

let quote = Syntax.quote

let ast t = t.ast
