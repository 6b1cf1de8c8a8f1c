(* Subset construction over the Thompson NFA, frozen into a dense table.
   [create]/[step] build the machine one transition at a time, memoizing
   each; they exist only for [freeze], which forces every transition and
   copies the result into immutable arrays. Matching through a frozen DFA
   costs one table lookup per input byte, which is what makes path-filter
   regexes cheap enough to run over the whole Paths relation.

   Anchors: begin-of-line edges are only traversable in the closure taken
   at position 0, so the automaton distinguishes the initial closure from
   later ones; end-of-line edges contribute to a per-state
   [accept_at_eol] flag checked when input is exhausted.

   [reseed] builds the search variant: the start state's closure is
   re-injected before every transition, giving unanchored-substring
   semantics without restarting the scan. *)

type state = {
  id : int;
  nfa_states : int list;  (** sorted *)
  trans : int array;  (** by byte; -1 = not yet computed *)
  accept_now : bool;
  accept_at_eol : bool;
}

type t = {
  nfa : Nfa.t;
  reseed : bool;
  mutable states : state array;  (** grow-doubling *)
  mutable count : int;
  index : (int list, int) Hashtbl.t;
  start_mid : int list;  (** start closure without BOL edges, for reseeding *)
  start_id : int;
}

(* Epsilon-closure over a sorted work list; [at_bol] gates Eps_bol edges.
   Eps_eol edges are never taken here — they only matter for acceptance,
   handled by [eol_accepts]. *)
let closure nfa ~at_bol seed =
  let n = Array.length nfa.Nfa.transitions in
  let mark = Array.make n false in
  let rec visit s =
    if not mark.(s) then begin
      mark.(s) <- true;
      List.iter
        (fun (edge, dst) ->
          match edge with
          | Nfa.Eps -> visit dst
          | Nfa.Eps_bol -> if at_bol then visit dst
          | Nfa.Eps_eol | Nfa.Sym _ -> ())
        nfa.Nfa.transitions.(s)
    end
  in
  List.iter visit seed;
  let out = ref [] in
  for s = n - 1 downto 0 do
    if mark.(s) then out := s :: !out
  done;
  !out

(* Can the accept state be reached from [set] using only epsilon and
   end-of-line edges? *)
let eol_accepts nfa set =
  let n = Array.length nfa.Nfa.transitions in
  let mark = Array.make n false in
  let rec visit s =
    if not mark.(s) then begin
      mark.(s) <- true;
      List.iter
        (fun (edge, dst) ->
          match edge with
          | Nfa.Eps | Nfa.Eps_eol -> visit dst
          | Nfa.Eps_bol | Nfa.Sym _ -> ())
        nfa.Nfa.transitions.(s)
    end
  in
  List.iter visit set;
  mark.(nfa.Nfa.accept)

let intern t nfa_states =
  match Hashtbl.find_opt t.index nfa_states with
  | Some id -> id
  | None ->
    let id = t.count in
    let state =
      {
        id;
        nfa_states;
        trans = Array.make 256 (-1);
        accept_now = List.mem t.nfa.Nfa.accept nfa_states;
        accept_at_eol = eol_accepts t.nfa nfa_states;
      }
    in
    if t.count = Array.length t.states then begin
      let bigger = Array.make (max 16 (2 * t.count)) state in
      Array.blit t.states 0 bigger 0 t.count;
      t.states <- bigger
    end;
    t.states.(t.count) <- state;
    t.count <- t.count + 1;
    Hashtbl.add t.index nfa_states id;
    id

let create nfa ~reseed =
  let start_mid = closure nfa ~at_bol:false [ nfa.Nfa.start ] in
  let t =
    {
      nfa;
      reseed;
      states = [||];
      count = 0;
      index = Hashtbl.create 64;
      start_mid;
      start_id = 0;
    }
  in
  let start_set = closure nfa ~at_bol:true [ nfa.Nfa.start ] in
  let start_set =
    if reseed then List.sort_uniq Int.compare (start_set @ start_mid) else start_set
  in
  let id = intern t start_set in
  { t with start_id = id }

let step t state_id c =
  let state = t.states.(state_id) in
  let cached = state.trans.(Char.code c) in
  if cached >= 0 then cached
  else begin
    let moved = ref [] in
    List.iter
      (fun s ->
        List.iter
          (fun (edge, dst) ->
            match edge with
            | Nfa.Sym pred -> if pred c then moved := dst :: !moved
            | Nfa.Eps | Nfa.Eps_bol | Nfa.Eps_eol -> ())
          t.nfa.Nfa.transitions.(s))
      state.nfa_states;
    let next = closure t.nfa ~at_bol:false !moved in
    let next =
      if t.reseed then List.sort_uniq Int.compare (next @ t.start_mid) else next
    in
    let id = intern t next in
    state.trans.(Char.code c) <- id;
    id
  end

(* Frozen DFA: every transition forced, copied into dense immutable
   arrays. No mutation on the match path, so one frozen automaton is
   domain-shareable and can live in the process-wide compile cache.
   [freeze] walks states breadth-first forcing all 256 transitions per
   state; patterns whose subset construction blows past [max_states]
   (pathological alternation/counting) return [None] and run by NFA
   simulation instead. *)

type frozen = {
  f_trans : int array;  (** [(state lsl 8) lor byte] -> next state *)
  f_accept_now : bool array;
  f_accept_at_eol : bool array;
  f_start : int;
}

let freeze nfa ~reseed ~max_states =
  let t = create nfa ~reseed in
  let exception Too_big in
  try
    (* [t.count] grows as [step] interns new states; the loop chases it. *)
    let i = ref 0 in
    while !i < t.count do
      if t.count > max_states then raise Too_big;
      for c = 0 to 255 do
        ignore (step t !i (Char.chr c))
      done;
      incr i
    done;
    if t.count > max_states then raise Too_big;
    let n = t.count in
    let f_trans = Array.make (n * 256) 0 in
    let f_accept_now = Array.make n false in
    let f_accept_at_eol = Array.make n false in
    for s = 0 to n - 1 do
      let st = t.states.(s) in
      Array.blit st.trans 0 f_trans (s lsl 8) 256;
      f_accept_now.(s) <- st.accept_now;
      f_accept_at_eol.(s) <- st.accept_at_eol
    done;
    Some { f_trans; f_accept_now; f_accept_at_eol; f_start = t.start_id }
  with Too_big -> None

let frozen_search f subject =
  let n = String.length subject in
  let trans = f.f_trans in
  let rec go state i =
    if Array.unsafe_get f.f_accept_now state then true
    else if i >= n then Array.unsafe_get f.f_accept_at_eol state
    else
      go
        (Array.unsafe_get trans ((state lsl 8) lor Char.code (String.unsafe_get subject i)))
        (i + 1)
  in
  go f.f_start 0

let frozen_matches f subject =
  let n = String.length subject in
  let trans = f.f_trans in
  let rec go state i =
    if i >= n then Array.unsafe_get f.f_accept_at_eol state
    else
      go
        (Array.unsafe_get trans ((state lsl 8) lor Char.code (String.unsafe_get subject i)))
        (i + 1)
  in
  go f.f_start 0
