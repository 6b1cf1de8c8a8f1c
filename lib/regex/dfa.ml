(* Search DFA over the Thompson NFA, built by one worklist subset
   construction straight into a dense table. Searching through it costs
   one table lookup per input byte, which is what makes path-filter
   regexes cheap enough to run over the whole Paths relation.

   Search semantics: the start state's closure is re-injected on every
   transition, so reaching the accept state at any position is a match
   and the scan never restarts.

   A DFA state is keyed by its kept NFA states only: the accept state and
   every state with a [Sym], [Eps_bol] or [Eps_eol] out-edge. Closures are
   still taken in full, but the epsilon-only entry and exit states of
   Seq/Alt/Star nodes are left out of the key: every symbol move and every
   path to accept starts at a kept state, so two closures with the same
   kept states behave alike.

   Anchors: begin-of-line edges are only traversable in the closure taken
   at position 0, so the start state is the only one built with them;
   end-of-line edges contribute to a per-state [accept_at_eol] flag
   checked when input is exhausted. On the empty subject both kinds are
   traversable at once, which [accept_empty] records. *)

type t = {
  trans : int array;  (** [(state lsl 8) lor byte] -> next state; start is 0 *)
  accept_now : bool array;
  accept_at_eol : bool array;
  accept_empty : bool;
}

let states t = Array.length t.accept_now

(* Hash tables keyed by sorted NFA-state lists, hashing every element:
   the polymorphic hash stops after ten, and keys share long prefixes. *)
module Key = Hashtbl.Make (struct
  type t = int list

  let equal = List.equal Int.equal

  let hash = List.fold_left (fun h s -> (h * 31) + s) 0
end)

let build (nfa : Nfa.t) ~max_states =
  let edges = nfa.transitions in
  let n = Array.length edges in
  let kept =
    Array.init n (fun s ->
        s = nfa.accept
        || List.exists
             (fun (edge, _) ->
               match edge with
               | Nfa.Sym _ | Nfa.Eps_bol | Nfa.Eps_eol -> true
               | Nfa.Eps -> false)
             edges.(s))
  in
  (* One mark array for every traversal: [mark.(s) = !gen] marks [s]
     visited by the current one. *)
  let mark = Array.make n (-1) and gen = ref 0 in
  let fresh () =
    incr gen;
    !gen
  in
  (* Epsilon closure of [seeds], returned as its sorted kept states;
     [at_bol] gates Eps_bol edges, Eps_eol edges are never taken here. *)
  let closure ~at_bol seeds =
    let g = fresh () in
    let key = ref [] in
    let rec visit s =
      if mark.(s) <> g then begin
        mark.(s) <- g;
        if kept.(s) then key := s :: !key;
        List.iter
          (fun (edge, dst) ->
            match edge with
            | Nfa.Eps -> visit dst
            | Nfa.Eps_bol -> if at_bol then visit dst
            | Nfa.Eps_eol | Nfa.Sym _ -> ())
          edges.(s)
      end
    in
    List.iter visit seeds;
    List.sort Int.compare !key
  in
  (* Can accept be reached from [key] at the end of the subject, i.e.
     over epsilon and end-of-line edges (and begin-of-line ones too when
     the end is also the beginning)? *)
  let accepts_at_end ~at_bol key =
    let g = fresh () in
    let rec visit s =
      s = nfa.accept
      || mark.(s) <> g
         && begin
           mark.(s) <- g;
           List.exists
             (fun (edge, dst) ->
               match edge with
               | Nfa.Eps | Nfa.Eps_eol -> visit dst
               | Nfa.Eps_bol -> at_bol && visit dst
               | Nfa.Sym _ -> false)
             edges.(s)
         end
    in
    List.exists visit key
  in
  let exception Too_big in
  (* States are numbered in interning order, the start state first;
     [keys] holds their keys newest first. *)
  let index = Key.create 64 and pending = Queue.create () and keys = ref [] in
  let intern key =
    match Key.find_opt index key with
    | Some id -> id
    | None ->
      let id = Key.length index in
      if id >= max_states then raise Too_big;
      Key.add index key id;
      keys := key :: !keys;
      Queue.add (id, key) pending;
      id
  in
  (* The state a symbol move lands in depends only on the NFA states it
     reached; each distinct move set is closed once. *)
  let by_moved = Key.create 64 in
  let target moved =
    match Key.find_opt by_moved moved with
    | Some id -> id
    | None ->
      let id = intern (closure ~at_bol:false (nfa.start :: moved)) in
      Key.add by_moved moved id;
      id
  in
  let trans = ref [||] in
  try
    let start = closure ~at_bol:true [ nfa.start ] in
    ignore (intern start);
    while not (Queue.is_empty pending) do
      let id, key = Queue.pop pending in
      if id lsl 8 = Array.length !trans then
        trans := Array.append !trans (Array.make (max (16 lsl 8) (Array.length !trans)) 0);
      let syms =
        List.concat_map
          (fun s ->
            List.filter_map
              (fun (edge, dst) ->
                match edge with
                | Nfa.Sym pred -> Some (pred, dst)
                | Nfa.Eps | Nfa.Eps_bol | Nfa.Eps_eol -> None)
              edges.(s))
          key
      in
      for byte = 0 to 255 do
        let c = Char.chr byte in
        let moved =
          List.sort_uniq Int.compare
            (List.filter_map (fun (pred, dst) -> if pred c then Some dst else None) syms)
        in
        !trans.((id lsl 8) lor byte) <- target moved
      done
    done;
    let keys = Array.of_list (List.rev !keys) in
    Some
      {
        trans = Array.sub !trans 0 (Array.length keys lsl 8);
        accept_now = Array.map (List.mem nfa.accept) keys;
        accept_at_eol = Array.map (accepts_at_end ~at_bol:false) keys;
        accept_empty = accepts_at_end ~at_bol:true start;
      }
  with Too_big -> None

(* A top-level loop taking every operand: a local one capturing [t] and
   [subject] would be a closure built on every search. *)
let rec run t subject state i =
  if Array.unsafe_get t.accept_now state then true
  else if i >= String.length subject then Array.unsafe_get t.accept_at_eol state
  else
    run t subject
      (Array.unsafe_get t.trans ((state lsl 8) lor Char.code (String.unsafe_get subject i)))
      (i + 1)

let search t subject = if String.length subject = 0 then t.accept_empty else run t subject 0 0
