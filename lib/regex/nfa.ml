(** Thompson NFA construction and simulation.

    Simulation is linear in the subject: it carries a set of live states
    across the input, re-seeding the start state at every position to
    obtain unanchored-search semantics (the behaviour of [REGEXP_LIKE]).
    Anchors ([^] and [$]) are modelled as conditional epsilon edges that can
    only be crossed at the corresponding subject positions. The same graph
    is the input of {!Dfa.build}. *)

type edge =
  | Eps
  | Eps_bol  (** traversable only at the beginning of the subject *)
  | Eps_eol  (** traversable only at the end of the subject *)
  | Sym of (char -> bool)

type t = {
  transitions : (edge * int) list array;  (** adjacency, indexed by state *)
  start : int;
  accept : int;
}

let build root =
  let count = ref 0 in
  let new_state () =
    let s = !count in
    incr count;
    s
  in
  let class_pred negated items c =
    let member = function
      | Syntax.Single x -> Char.equal x c
      | Syntax.Range (a, z) -> Char.compare a c <= 0 && Char.compare c z <= 0
    in
    let hit = List.exists member items in
    if negated then not hit else hit
  in
  (* Expand bounded repetition structurally before compiling. *)
  let rec expand r =
    match r with
    | Syntax.Repeat (a, lo, hi) ->
      let a = expand a in
      let rec mandatory n = if n <= 0 then Syntax.Empty else Syntax.Seq (a, mandatory (n - 1)) in
      let tail =
        match hi with
        | None -> Syntax.Star a
        | Some hi ->
          let rec optional n =
            if n <= 0 then Syntax.Empty else Syntax.Opt (Syntax.Seq (a, optional (n - 1)))
          in
          optional (hi - lo)
      in
      Syntax.Seq (mandatory lo, tail)
    | Syntax.Seq (a, b2) -> Syntax.Seq (expand a, expand b2)
    | Syntax.Alt (a, b2) -> Syntax.Alt (expand a, expand b2)
    | Syntax.Star a -> Syntax.Star (expand a)
    | Syntax.Plus a -> Syntax.Plus (expand a)
    | Syntax.Opt a -> Syntax.Opt (expand a)
    | (Syntax.Empty | Syntax.Char _ | Syntax.Any | Syntax.Class _ | Syntax.Bol | Syntax.Eol) as r
      ->
      r
  in
  let root = expand root in
  (* Compile by returning (entry, exit) state pairs and queuing edges;
     the adjacency array is sized once every state is allocated. *)
  let pending : (int * edge * int) list ref = ref [] in
  let queue src edge dst = pending := (src, edge, dst) :: !pending in
  let rec compile r =
    let entry = new_state () and exit_ = new_state () in
    (match r with
     | Syntax.Empty -> queue entry Eps exit_
     | Syntax.Char c -> queue entry (Sym (Char.equal c)) exit_
     | Syntax.Any -> queue entry (Sym (fun _ -> true)) exit_
     | Syntax.Class (neg, items) -> queue entry (Sym (class_pred neg items)) exit_
     | Syntax.Bol -> queue entry Eps_bol exit_
     | Syntax.Eol -> queue entry Eps_eol exit_
     | Syntax.Seq (a, b2) ->
       let ea, xa = compile a in
       let eb, xb = compile b2 in
       queue entry Eps ea;
       queue xa Eps eb;
       queue xb Eps exit_
     | Syntax.Alt (a, b2) ->
       let ea, xa = compile a in
       let eb, xb = compile b2 in
       queue entry Eps ea;
       queue entry Eps eb;
       queue xa Eps exit_;
       queue xb Eps exit_
     | Syntax.Star a ->
       let ea, xa = compile a in
       queue entry Eps ea;
       queue entry Eps exit_;
       queue xa Eps ea;
       queue xa Eps exit_
     | Syntax.Plus a ->
       let ea, xa = compile a in
       queue entry Eps ea;
       queue xa Eps ea;
       queue xa Eps exit_
     | Syntax.Opt a ->
       let ea, xa = compile a in
       queue entry Eps ea;
       queue entry Eps exit_;
       queue xa Eps exit_
     | Syntax.Repeat _ -> assert false (* removed by [expand] *));
    entry, exit_
  in
  let start, accept = compile root in
  let transitions = Array.make !count [] in
  List.iter (fun (src, edge, dst) -> transitions.(src) <- (edge, dst) :: transitions.(src)) !pending;
  { transitions; start; accept }

(* [search nfa subject] tests whether any substring of [subject] matches,
   by simulation over the live-state set. [stamp.(s) = i] marks [s] live
   at subject position [i], so each step starts from an empty set without
   clearing an array, and only live states are visited. The start state
   is re-added at every position, and reaching the accept state at any
   position is a match. *)
let search nfa subject =
  let n = String.length subject in
  let stamp = Array.make (Array.length nfa.transitions) (-1) in
  (* Epsilon-closure of [s] at position [i], prepending new states to
     [live]; anchor edges are crossed only at their subject position. *)
  let rec visit i live s =
    if stamp.(s) = i then live
    else begin
      stamp.(s) <- i;
      List.fold_left
        (fun live (edge, dst) ->
          match edge with
          | Eps -> visit i live dst
          | Eps_bol when i = 0 -> visit i live dst
          | Eps_eol when i = n -> visit i live dst
          | Eps_bol | Eps_eol | Sym _ -> live)
        (s :: live) nfa.transitions.(s)
    end
  in
  let rec go i live =
    if i = n || stamp.(nfa.accept) = i then stamp.(nfa.accept) = i
    else begin
      let c = subject.[i] in
      let next =
        List.fold_left
          (fun next s ->
            List.fold_left
              (fun next (edge, dst) ->
                match edge with
                | Sym pred when pred c -> visit (i + 1) next dst
                | Sym _ | Eps | Eps_bol | Eps_eol -> next)
              next nfa.transitions.(s))
          [] live
      in
      go (i + 1) (visit (i + 1) next nfa.start)
    end
  in
  go 0 (visit 0 [] nfa.start)
