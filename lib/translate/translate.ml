module Ast = Ppfx_xpath.Ast
module Graph = Ppfx_schema.Graph
module Mapping = Ppfx_shred.Mapping
module Edge = Ppfx_shred.Edge
module Sql = Ppfx_minidb.Sql
module Value = Ppfx_minidb.Value
module Engine = Ppfx_minidb.Engine
module Rx = Regex_of_path

exception Unsupported = Ppf.Unsupported

let unsupported fmt = Format.kasprintf (fun m -> raise (Unsupported m)) fmt

type options = {
  omit_path_filters : bool;
  merge_forward : bool;
  fk_child_joins : bool;
  force_per_step : bool;
}

let default_options =
  {
    omit_path_filters = true;
    merge_forward = true;
    fk_child_joins = true;
    force_per_step = false;
  }

(* The store a translator targets: a schema-aware mapping, or the
   schema-oblivious Edge store (paper Section 5.1). *)
type target =
  | Schema of Mapping.t
  | Edge

(* Outcome of the Section 4.5 static check for one relation and regex. *)
type filter_decision =
  | Filter_skip  (** regex provably satisfied: no Paths join *)
  | Filter_join  (** join Paths and apply the regex *)
  | Filter_prune  (** regex provably unsatisfiable: empty branch *)

(* [decisions] memoises the Section 4.5 check per (definition id,
   pattern). A translator's schema and options never change, so an entry
   never goes stale. The lock lets domains share a translator, as they
   share the top-level [edge]. *)
type t = {
  target : target;
  options : options;
  decisions : (int * string, filter_decision) Hashtbl.t;
  decisions_lock : Mutex.t;
}

let make target options =
  { target; options; decisions = Hashtbl.create 64; decisions_lock = Mutex.create () }

let create ?(options = default_options) mapping = make (Schema mapping) options

let edge = make Edge default_options

(* Past this many entries the memo is cleared and refills from the
   queries that follow, so an ad-hoc stream cannot grow it without
   bound. *)
let memo_capacity = 4096

let memo_length t = Mutex.protect t.decisions_lock (fun () -> Hashtbl.length t.decisions)

let options_fingerprint o =
  Printf.sprintf "omit=%b;merge=%b;fk=%b;per_step=%b" o.omit_path_filters
    o.merge_forward o.fk_child_joins o.force_per_step

(* Canonical description of the schema graph: vertex ids, names, relations,
   attributes, text-capability and child edges, in definition order. Two
   translators with equal fingerprints produce identical SQL for any query,
   so the fingerprint is a sound cache key for compiled translations. *)
let fingerprint t =
  let buf = Buffer.create 512 in
  (match t.target with
   | Edge -> Buffer.add_string buf "edge;"
   | Schema mapping ->
     let schema = Mapping.schema mapping in
     Buffer.add_string buf (Printf.sprintf "root=%d;" (Graph.root schema).Graph.id);
     List.iter
       (fun (d : Graph.def) ->
         Buffer.add_string buf
           (Printf.sprintf "%d:%s:%s:[%s]:%b:(%s);" d.Graph.id d.Graph.name
              d.Graph.relation
              (String.concat "," d.Graph.attrs)
              d.Graph.has_text
              (String.concat ","
                 (List.map
                    (fun (c : Graph.def) -> string_of_int c.Graph.id)
                    (Graph.children schema d)))))
       (Graph.defs schema));
  Buffer.add_char buf '|';
  Buffer.add_string buf (options_fingerprint t.options);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* Branches                                                            *)
(* ------------------------------------------------------------------ *)

(* SQL splitting (Section 4.4) is modelled by translating in a list monad:
   a branch is one statement under construction. *)

(* Accumulated forward chain used for regexes; [None] means the chain's
   start anchor is unknown (after backward/order fragments). An anchored
   chain always starts at the document root. *)
type chain = Rx.seg list option

(* What a node is bound to: a schema definition, whose relation holds
   exactly that definition's elements, or a row of the one [edge]
   relation, whose tag is known statically only when the step names it. *)
type rel =
  | Def of Graph.def
  | Edge_row of string option

type node_ctx = {
  alias : string;
  rel : rel;
  chain : chain;  (** segments from the root down to this node *)
  paths_alias : string option;
}

type branch = {
  from_ : (string * string) list;  (** reversed *)
  conj : Sql.expr list;  (** reversed *)
  cur : node_ctx option;  (** [None] = virtual document root *)
}

let empty_branch = { from_ = []; conj = []; cur = None }

let add_from b table alias = { b with from_ = (table, alias) :: b.from_ }

let add_conj b e = { b with conj = e :: b.conj }

(* The conjunction of [conds]; true when there are none. *)
let conjoin = function
  | [] -> Sql.Bool_const true
  | c :: cs -> List.fold_left (fun a x -> Sql.And (a, x)) c cs

(* Fresh table aliases, unique within one translation. *)
type env = {
  t : t;
  counter : (string, int) Hashtbl.t;
}

let fresh env base =
  let n = 1 + Option.value ~default:0 (Hashtbl.find_opt env.counter base) in
  Hashtbl.replace env.counter base n;
  if n = 1 then base else Printf.sprintf "%s_%d" base n

let col alias c = Sql.Col (alias, c)

let dewey alias = col alias "dewey_pos"

let dewey_upper alias = Sql.Concat (dewey alias, Sql.Const (Value.Bin "\xFF"))

(* [Def] nodes only arise in a schema-aware translation, so these never
   see the Edge target. *)
let mapping env =
  match env.t.target with
  | Schema mapping -> mapping
  | Edge -> invalid_arg "Translate: the Edge mapping has no schema"

let graph env = Mapping.schema (mapping env)

let def_of = function
  | Def d -> d
  | Edge_row _ -> invalid_arg "Translate: an edge row has no schema definition"

let rel_name = function
  | Def d -> Some d.Graph.name
  | Edge_row tag -> tag

let tag_of_test = function
  | Ast.Name n -> Some n
  | Ast.Wildcard | Ast.Any_node -> None
  | Ast.Text -> unsupported "text() is not an element step"

(* Whether a relation can nest inside itself; any Edge tag may. *)
let can_stack env = function
  | Def def ->
    List.exists (fun d -> d.Graph.id = def.Graph.id) (Graph.descendants (graph env) def)
  | Edge_row _ -> true

(* Add [rel]'s relation to the branch under a fresh alias. *)
let bind env b rel ~chain =
  let alias, table =
    match rel with
    | Def def -> fresh env def.Graph.relation, Mapping.relation (mapping env) def
    | Edge_row _ -> fresh env "e", Edge.edge_table
  in
  add_from b table alias, { alias; rel; chain; paths_alias = None }

(* A schema relation holds one tag only; an [edge] row named by its step
   needs a tag condition. *)
let pin_tag b (node : node_ctx) =
  match node.rel with
  | Edge_row (Some tag) ->
    add_conj b (Sql.Cmp (Sql.Eq, col node.alias "tag", Sql.Const (Value.Str tag)))
  | Def _ | Edge_row None -> b

(* ------------------------------------------------------------------ *)
(* Definition-set resolution                                           *)
(* ------------------------------------------------------------------ *)

let match_test test (def : Graph.def) =
  match test with
  | Ast.Name n -> String.equal n def.Graph.name
  | Ast.Wildcard | Ast.Any_node -> true
  | Ast.Text -> false

(* Which relations a step may bind: every schema definition it can
   reach, or the one [edge] relation with the step's tag. *)
let resolve_axis env (context : rel option) axis test =
  match env.t.target with
  | Edge -> [ Edge_row (tag_of_test test) ]
  | Schema mapping ->
    let schema = Mapping.schema mapping in
    let all = Graph.defs schema in
    let filtered defs =
      List.filter_map (fun d -> if match_test test d then Some (Def d) else None) defs
    in
    (match Option.map def_of context, axis with
     | None, Ast.Child -> filtered [ Graph.root schema ]
     | None, Ast.Descendant -> filtered all
     | None, _ -> []
     | Some d, Ast.Child -> filtered (Graph.children schema d)
     | Some d, Ast.Descendant -> filtered (Graph.descendants schema d)
     | Some d, Ast.Parent -> filtered (Graph.parents schema d)
     | Some d, Ast.Ancestor -> filtered (Graph.ancestors schema d)
     | Some _, (Ast.Following | Ast.Following_sibling | Ast.Preceding | Ast.Preceding_sibling)
       ->
       filtered all
     | Some _, (Ast.Self | Ast.Descendant_or_self | Ast.Ancestor_or_self | Ast.Attribute) ->
       unsupported "axis %s should have been normalized away" (Ast.axis_name axis))

(* Relations reached by a whole fragment (without adding relations for
   intermediate steps). *)
let resolve_steps env context (steps : Ast.step list) =
  match env.t.target with
  | Edge -> [ Edge_row (tag_of_test (List.nth steps (List.length steps - 1)).Ast.test) ]
  | Schema _ ->
    List.fold_left
      (fun rels (step : Ast.step) ->
        List.sort_uniq
          (fun a b -> compare (def_of a).Graph.id (def_of b).Graph.id)
          (List.concat_map
             (fun r -> resolve_axis env (Some r) step.Ast.axis step.Ast.test)
             rels))
      (match context with
       | None -> resolve_axis env None (List.hd steps).Ast.axis (List.hd steps).Ast.test
       | Some r -> [ r ])
      (match context with None -> List.tl steps | Some _ -> steps)

(* ------------------------------------------------------------------ *)
(* Path filters (Sections 4.1 and 4.5)                                 *)
(* ------------------------------------------------------------------ *)

(* Without a schema nothing is provable: an [edge] row always joins. *)
let decide_filter env rel pattern =
  match rel with
  | Edge_row _ -> Filter_join
  | Def _ when not env.t.options.omit_path_filters -> Filter_join
  | Def def ->
    (* Memoised per translator: a miss searches one NFA-simulated handle
       against every root path of the definition. The handle is not put
       in the process-wide DFA cache, which would freeze an automaton for
       every pattern a translation ever decides on. *)
    let decide ps =
      let re = Ppfx_regex.Regex.compile pattern in
      let matching = List.filter (Ppfx_regex.Regex.search re) ps in
      if List.length matching = List.length ps then Filter_skip
      else if matching = [] then Filter_prune
      else Filter_join
    in
    let t = env.t and key = def.Graph.id, pattern in
    (match Mutex.protect t.decisions_lock (fun () -> Hashtbl.find_opt t.decisions key) with
     | Some d -> d
     | None ->
       let d =
         match Graph.classification (graph env) def with
         | Graph.Unique_path p -> decide [ p ]
         | Graph.Finite_paths ps -> decide ps
         | Graph.Infinite_paths -> Filter_join
       in
       Mutex.protect t.decisions_lock (fun () ->
           if Hashtbl.length t.decisions >= memo_capacity then Hashtbl.reset t.decisions;
           Hashtbl.replace t.decisions key d);
       d)

(* Ensure [node] is joined to the Paths relation; the join itself is
   lossless so it is always safe to add. Returns the paths alias and the
   updated context. *)
let ensure_paths_join b (node : node_ctx) =
  match node.paths_alias with
  | Some pa -> b, node, pa
  | None ->
    let pa = node.alias ^ "_paths" in
    let b = add_from b Mapping.paths_table pa in
    let b = add_conj b (Sql.Cmp (Sql.Eq, col node.alias "path_id", col pa "id")) in
    b, { node with paths_alias = Some pa }, pa

(* Apply a path regex filter to [node] under the 4.5 policy. Returns
   [None] for a pruned branch. *)
let apply_path_filter env b (node : node_ctx) pattern =
  match decide_filter env node.rel pattern with
  | Filter_skip -> Some (b, node)
  | Filter_prune -> None
  | Filter_join ->
    let b, node, pa = ensure_paths_join b node in
    Some (add_conj b (Sql.Regexp_like (col pa "path", pattern)), node)

(* ------------------------------------------------------------------ *)
(* Structural joins (Section 4.2, Table 2)                             *)
(* ------------------------------------------------------------------ *)

(* Table 2 row 1. BETWEEN is inclusive, so a self-join of a recursive
   relation could match a row with itself; a strict lower bound restores
   Lemma 1's strict inequality in exactly that case. Every Edge
   structural join is a self-join of [edge]. *)
let descendant_join ~anc ~desc =
  let between = Sql.Between (dewey desc.alias, dewey anc.alias, dewey_upper anc.alias) in
  let self_join =
    match anc.rel, desc.rel with
    | Def a, Def d -> a.Graph.id = d.Graph.id
    | _ -> true
  in
  if self_join then Sql.And (between, Sql.Cmp (Sql.Gt, dewey desc.alias, dewey anc.alias))
  else between

(* Child/parent equijoin on the child's foreign key, or an [edge] row's
   [par_id]. [None] when the schema never nests [child] in [parent]. *)
let fk_join env b ~child ~parent =
  match child.rel, parent.rel with
  | Def c, Def p ->
    if List.exists (fun q -> q.Graph.id = p.Graph.id) (Graph.parents (graph env) c) then
      let fk = Mapping.parent_fk (mapping env) ~child:c ~parent:p in
      Some (add_conj b (Sql.Cmp (Sql.Eq, col child.alias fk, col parent.alias "id")))
    else None
  | _ -> Some (add_conj b (Sql.Cmp (Sql.Eq, col child.alias "par_id", col parent.alias "id")))

(* A child of the virtual root is the document root element. The root's
   schema relation holds nothing else; an [edge] row must have no
   parent. *)
let root_join b (node : node_ctx) =
  match node.rel with
  | Def _ -> b
  | Edge_row _ -> add_conj b (Sql.Not (Sql.Is_not_null (col node.alias "par_id")))

(* Sibling join: the two relations must share a parent row. Each common
   parent definition gives one foreign-key equality; the caller branches
   per parent so every branch keeps an indexable equijoin (a NULL never
   equals NULL, so only real siblings remain). Edge rows share [par_id]. *)
let sibling_conditions env (a : node_ctx) (b : node_ctx) =
  match a.rel, b.rel with
  | Def da, Def db ->
    let parents d = Graph.parents (graph env) d in
    let common =
      List.filter
        (fun p -> List.exists (fun q -> q.Graph.id = p.Graph.id) (parents db))
        (parents da)
    in
    List.map
      (fun p ->
        let fka = Mapping.parent_fk (mapping env) ~child:da ~parent:p in
        let fkb = Mapping.parent_fk (mapping env) ~child:db ~parent:p in
        Sql.Cmp (Sql.Eq, col a.alias fka, col b.alias fkb))
      common
  | _ -> [ Sql.Cmp (Sql.Eq, col a.alias "par_id", col b.alias "par_id") ]

(* Exact level pinning via the binary dewey length (3 bytes per level). *)
let level_eq ~shallow ~deep k =
  Sql.Cmp
    ( Sql.Eq,
      Sql.Length (dewey deep),
      Sql.Arith (Sql.Add, Sql.Length (dewey shallow), Sql.Const (Value.Int (3 * k))) )

(* Minimum distance: [deep] is at least [k] levels below [shallow]. *)
let level_ge ~shallow ~deep k =
  Sql.Cmp
    ( Sql.Ge,
      Sql.Length (dewey deep),
      Sql.Arith (Sql.Add, Sql.Length (dewey shallow), Sql.Const (Value.Int (3 * k))) )

(* ------------------------------------------------------------------ *)
(* The translator core                                                 *)
(* ------------------------------------------------------------------ *)

(* Final-step result kind (what the statement projects / compares). *)
type value_kind =
  | V_element  (** the element's string value *)
  | V_text  (** a text() result: direct text *)
  | V_attr of Ast.node_test

let rec translate_steps env (b : branch) (steps : Ast.step list) : branch list =
  let ppfs = Ppf.split steps in
  List.fold_left
    (fun branches ppf -> List.concat_map (fun b -> translate_ppf env b ppf) branches)
    [ b ] ppfs

and translate_ppf env (b : branch) (ppf : Ppf.t) : branch list =
  match ppf with
  | Ppf.Forward steps -> translate_forward env b steps
  | Ppf.Backward steps -> translate_backward env b steps
  | Ppf.Order step -> translate_order env b step

(* --- Forward fragments --------------------------------------------- *)

and translate_forward env (b : branch) (steps : Ast.step list) : branch list =
  let segs =
    List.map
      (fun s ->
        match Rx.seg_of_step s with
        | Some seg -> seg
        | None -> unsupported "unsupported node test in forward step")
      steps
  in
  let context = Option.map (fun c -> c.rel) b.cur in
  let cur_chain = match b.cur with None -> Some [] | Some c -> c.chain in
  let holistic_ok =
    if env.t.options.force_per_step then `Per_step
    else
    match b.cur, cur_chain with
    | None, _ -> `Anchored [] (* first fragment: regex alone is exact *)
    | Some _, Some prefix when env.t.options.merge_forward ->
      if Rx.fixed_depth prefix then `Anchored prefix
      else if Rx.fixed_depth segs then `Child_exact prefix
      else if List.length segs = 1 then `Single_desc prefix
      else `Per_step
    | Some _, (Some _ | None) -> `Per_step
  in
  match holistic_ok with
  | `Per_step -> translate_per_step env b steps
  | (`Anchored prefix | `Child_exact prefix | `Single_desc prefix) as mode ->
    let full_segs = prefix @ segs in
    let prominent = resolve_steps env context steps in
    List.filter_map
      (fun rel ->
        (* The regex's final segment is this concrete relation's name (on
           Edge, the step's own tag); pin it so the 4.5 static checks are
           accurate per branch. *)
        let full_segs =
          match List.rev full_segs with
          | last :: rev_rest -> List.rev ({ last with Rx.name = rel_name rel } :: rev_rest)
          | [] -> assert false
        in
        let pattern = Rx.forward ~anchored:true full_segs in
        let b, node = bind env b rel ~chain:(Some full_segs) in
        (* Structural join to the previous fragment. *)
        let joined =
          match b.cur with
          | None -> Some b
          | Some prev ->
            (match steps with
             | [ { Ast.axis = Ast.Child; _ } ] when env.t.options.fk_child_joins ->
               fk_join env b ~child:node ~parent:prev
             | _ ->
               let b = add_conj b (descendant_join ~anc:prev ~desc:node) in
               let b =
                 match mode with
                 | `Child_exact _ ->
                   add_conj b
                     (level_eq ~shallow:prev.alias ~deep:node.alias (List.length segs))
                 | `Anchored _ | `Single_desc _ -> b
               in
               Some b)
        in
        match joined with
        | None -> None
        | Some b ->
          (match apply_path_filter env b node pattern with
           | None -> None
           | Some (b, node) ->
             let b = { b with cur = Some node } in
             let last_step = List.nth steps (List.length steps - 1) in
             Some
               (translate_predicates env b ~step:last_step
                  (List.concat_map (fun s -> s.Ast.predicates) steps))))
      prominent
    |> List.concat

(* Exact conventional translation: one relation per step. Used as the
   soundness fallback and by the "commercial RDBMS" baseline. *)
and translate_per_step env (b : branch) (steps : Ast.step list) : branch list =
  List.fold_left
    (fun branches (step : Ast.step) ->
      List.concat_map (fun b -> translate_single_step env b step) branches)
    [ b ] steps

and translate_single_step env (b : branch) (step : Ast.step) : branch list =
  let context = Option.map (fun c -> c.rel) b.cur in
  let rels = resolve_axis env context step.Ast.axis step.Ast.test in
  List.concat_map
    (fun rel ->
      let b, node = bind env b rel ~chain:None in
      let b = pin_tag b node in
      let joined =
        match b.cur, step.Ast.axis with
        | None, Ast.Child -> [ root_join b node ]
        | None, _ -> [ b ]
        | Some prev, Ast.Child ->
          if env.t.options.fk_child_joins then
            Option.to_list (fk_join env b ~child:node ~parent:prev)
          else
            [
              add_conj
                (add_conj b (descendant_join ~anc:prev ~desc:node))
                (level_eq ~shallow:prev.alias ~deep:node.alias 1);
            ]
        | Some prev, Ast.Parent ->
          if env.t.options.fk_child_joins then
            Option.to_list (fk_join env b ~child:prev ~parent:node)
          else
            [
              add_conj
                (add_conj b (descendant_join ~anc:node ~desc:prev))
                (level_eq ~shallow:node.alias ~deep:prev.alias 1);
            ]
        | Some prev, Ast.Descendant -> [ add_conj b (descendant_join ~anc:prev ~desc:node) ]
        | Some prev, Ast.Ancestor -> [ add_conj b (descendant_join ~anc:node ~desc:prev) ]
        | Some prev, (Ast.Following | Ast.Following_sibling | Ast.Preceding | Ast.Preceding_sibling)
          ->
          order_join env b ~prev ~node step.Ast.axis
        | Some _, (Ast.Self | Ast.Descendant_or_self | Ast.Ancestor_or_self | Ast.Attribute)
          ->
          unsupported "axis %s should have been normalized away"
            (Ast.axis_name step.Ast.axis)
      in
      List.concat_map
        (fun b ->
          let b = { b with cur = Some node } in
          translate_predicates env b ~step step.Ast.predicates)
        joined)
    rels

(* --- Backward fragments -------------------------------------------- *)

and translate_backward env (b : branch) (steps : Ast.step list) : branch list =
  let prev =
    match b.cur with
    | Some prev -> prev
    | None -> unsupported "backward fragment at the start of a path"
  in
  (* Holistic treatment is exact for parent*ancestor* shapes; an ancestor
     step followed by a parent step needs the per-step fallback when the
     prominent definition can stack on a root path. *)
  let axes = List.map (fun (s : Ast.step) -> s.Ast.axis) steps in
  (* Exact holistic shapes: parent* with an optional single trailing
     ancestor. Longer ancestor tails cannot pin which ancestor the Dewey
     join selects (see DESIGN.md), so they fall back to per-step joins
     unless the prominent definition is provably unique per root path. *)
  let rec parents_then_one_ancestor = function
    | Ast.Parent :: rest -> parents_then_one_ancestor rest
    | [ Ast.Ancestor ] -> true
    | _ -> false
  in
  let all_parents = List.for_all (fun a -> a = Ast.Parent) axes in
  let prominent = resolve_steps env (Some prev.rel) steps in
  let holistic =
    if env.t.options.force_per_step then `Per_step
    else
    match steps with
    | [ { Ast.axis = Ast.Parent; _ } ] when env.t.options.fk_child_joins -> `Fk
    | _ when all_parents -> `Dewey_exact
    | _ when parents_then_one_ancestor axes -> `Dewey
    | _ when List.for_all (fun r -> not (can_stack env r)) prominent -> `Dewey
    | _ -> `Per_step
  in
  match holistic with
  | `Per_step -> translate_per_step env b steps
  | (`Fk | `Dewey | `Dewey_exact) as mode ->
    let backward_steps =
      List.map (fun (s : Ast.step) -> s.Ast.axis, tag_of_test s.Ast.test) steps
    in
    let pattern = Rx.backward ~context:(rel_name prev.rel) backward_steps in
    List.filter_map
      (fun rel ->
        let b, node = bind env b rel ~chain:None in
        let b = pin_tag b node in
        let joined =
          match mode with
          | `Fk -> fk_join env b ~child:prev ~parent:node
          | `Dewey ->
            Some
              (add_conj
                 (add_conj b (descendant_join ~anc:node ~desc:prev))
                 (level_ge ~shallow:node.alias ~deep:prev.alias (List.length steps)))
          | `Dewey_exact ->
            Some
              (add_conj
                 (add_conj b (descendant_join ~anc:node ~desc:prev))
                 (level_eq ~shallow:node.alias ~deep:prev.alias (List.length steps)))
        in
        match joined with
        | None -> None
        | Some b ->
          (* The regex constrains the PREVIOUS fragment's path (Algorithm
             1 lines 4-5). *)
          (match apply_path_filter env b prev pattern with
           | None -> None
           | Some (b, _prev_with_paths) ->
             let b = { b with cur = Some node } in
             Some (translate_predicates env b (List.concat_map (fun s -> s.Ast.predicates) steps))))
      prominent
    |> List.concat

(* --- Order-axis fragments (Table 2 rows 3-6) ------------------------ *)

and order_join env (b : branch) ~prev ~node axis : branch list =
  match axis with
  | Ast.Following -> [ add_conj b (Sql.Cmp (Sql.Gt, dewey node.alias, dewey_upper prev.alias)) ]
  | Ast.Preceding -> [ add_conj b (Sql.Cmp (Sql.Gt, dewey prev.alias, dewey_upper node.alias)) ]
  | Ast.Following_sibling ->
    List.map
      (fun sib ->
        add_conj (add_conj b (Sql.Cmp (Sql.Gt, dewey node.alias, dewey prev.alias))) sib)
      (sibling_conditions env node prev)
  | Ast.Preceding_sibling ->
    List.map
      (fun sib ->
        add_conj (add_conj b (Sql.Cmp (Sql.Lt, dewey node.alias, dewey prev.alias))) sib)
      (sibling_conditions env node prev)
  | Ast.Child | Ast.Descendant | Ast.Descendant_or_self | Ast.Self | Ast.Parent
  | Ast.Ancestor | Ast.Ancestor_or_self | Ast.Attribute ->
    assert false

and translate_order env (b : branch) (step : Ast.step) : branch list =
  let prev =
    match b.cur with
    | Some prev -> prev
    | None -> unsupported "order axis at the start of a path"
  in
  let rels = resolve_axis env (Some prev.rel) step.Ast.axis step.Ast.test in
  List.concat_map
    (fun rel ->
      let b, node = bind env b rel ~chain:None in
      let b = pin_tag b node in
      (* Algorithm 1 lines 6-7: the path must end with the name test; the
         schema-aware relation already guarantees it, so the 4.5 check
         normally skips the join. An [edge] row's tag condition pins it. *)
      let named =
        match rel with
        | Def def -> apply_path_filter env b node (Rx.ends_with def.Graph.name)
        | Edge_row _ -> Some (b, node)
      in
      match named with
      | None -> []
      | Some (b, node) ->
        List.concat_map
          (fun b ->
            let b = { b with cur = Some node } in
            translate_predicates env b step.Ast.predicates)
          (order_join env b ~prev ~node step.Ast.axis))
    rels

(* --- Predicates (Section 4.3, Tables 5-6) --------------------------- *)

(* A positional predicate usable as the FIRST predicate of a child::name
   step: position() there is exactly the stored same-tag sibling ordinal
   ([ord] column). Later predicates filter the candidate list, after
   which positions no longer align with ordinals. *)
and positional_condition (node : node_ctx) (p : Ast.expr) : Sql.expr option =
  let ord = col node.alias "ord" in
  let last = col node.alias "sibs" in
  let num f =
    if Float.is_integer f then Some (Sql.Const (Value.Int (int_of_float f)))
    else None
  in
  let sql_op = function
    | Ast.Eq -> Some Sql.Eq
    | Ast.Ne -> Some Sql.Ne
    | Ast.Lt -> Some Sql.Lt
    | Ast.Le -> Some Sql.Le
    | Ast.Gt -> Some Sql.Gt
    | Ast.Ge -> Some Sql.Ge
    | _ -> None
  in
  match p with
  | Ast.Number f ->
    (match num f with
     | Some n -> Some (Sql.Cmp (Sql.Eq, ord, n))
     | None -> Some (Sql.Bool_const false) (* position() never equals 2.5 *))
  | Ast.Fn_position -> Some (Sql.Bool_const true) (* positions are >= 1 *)
  | Ast.Binop (op, Ast.Fn_position, Ast.Number f) ->
    (match sql_op op, num f with
     | Some op, Some n -> Some (Sql.Cmp (op, ord, n))
     | _ -> None)
  | Ast.Binop (op, Ast.Number f, Ast.Fn_position) ->
    let flip = function
      | Sql.Eq -> Sql.Eq
      | Sql.Ne -> Sql.Ne
      | Sql.Lt -> Sql.Gt
      | Sql.Le -> Sql.Ge
      | Sql.Gt -> Sql.Lt
      | Sql.Ge -> Sql.Le
    in
    (match sql_op op, num f with
     | Some op, Some n -> Some (Sql.Cmp (flip op, ord, n))
     | _ -> None)
  | Ast.Fn_last ->
    (* [last()] means position() = last(). *)
    Some (Sql.Cmp (Sql.Eq, ord, last))
  | Ast.Binop (op, Ast.Fn_position, Ast.Fn_last) ->
    (match sql_op op with
     | Some op -> Some (Sql.Cmp (op, ord, last))
     | None -> None)
  | Ast.Binop (op, Ast.Fn_last, Ast.Fn_position) ->
    (match sql_op op with
     | Some op ->
       let flip = function
         | Sql.Eq -> Sql.Eq
         | Sql.Ne -> Sql.Ne
         | Sql.Lt -> Sql.Gt
         | Sql.Le -> Sql.Ge
         | Sql.Gt -> Sql.Lt
         | Sql.Ge -> Sql.Le
       in
       Some (Sql.Cmp (flip op, ord, last))
     | None -> None)
  | Ast.Binop (op, Ast.Fn_last, Ast.Number f) ->
    (match sql_op op, num f with
     | Some op, Some n -> Some (Sql.Cmp (op, last, n))
     | _ -> None)
  | _ -> None

and translate_predicates env (b : branch) ?step (predicates : Ast.expr list) :
    branch list =
  match predicates with
  | [] -> [ b ]
  | p :: rest ->
    let node =
      match b.cur with Some n -> n | None -> unsupported "predicate without a context node"
    in
    let positional =
      match step with
      | Some { Ast.axis = Ast.Child; test = Ast.Name _; _ } -> positional_condition node p
      | _ -> None
    in
    let b, cond =
      match positional with
      | Some cond -> b, cond
      | None -> translate_predicate env b node p
    in
    let b =
      match Sql.simplify cond with
      | Sql.Bool_const true -> b
      | cond -> add_conj b cond
    in
    (* Only the first predicate may be positional. *)
    translate_predicates env b rest

(* Translate one predicate expression to a SQL condition. May extend the
   branch with a (lossless) Paths join for the predicated node. *)
and translate_predicate env (b : branch) (node : node_ctx) (p : Ast.expr) :
    branch * Sql.expr =
  (* A sub-predicate may extend the branch (e.g. add the node's Paths
     join); later siblings must see the updated node context. *)
  let refresh b node =
    match b.cur with
    | Some n when String.equal n.alias node.alias -> n
    | Some _ | None -> node
  in
  match p with
  | Ast.Binop (Ast.And, x, y) ->
    let b, cx = translate_predicate env b node x in
    let b, cy = translate_predicate env b (refresh b node) y in
    b, Sql.And (cx, cy)
  | Ast.Binop (Ast.Or, x, y) | Ast.Union (x, y) ->
    let b, cx = translate_predicate env b node x in
    let b, cy = translate_predicate env b (refresh b node) y in
    b, Sql.Or (cx, cy)
  | Ast.Fn_not x ->
    let b, cx = translate_predicate env b node x in
    b, Sql.Not cx
  | Ast.Binop ((Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op, x, y) ->
    translate_comparison env b node op x y
  | Ast.Path path -> translate_path_predicate env b node path
  | Ast.Literal s -> b, Sql.Bool_const (String.length s > 0)
  | Ast.Number _ | Ast.Fn_position | Ast.Fn_last ->
    unsupported "positional predicates are not translatable to SQL in this scheme"
  | Ast.Fn_count _ ->
    (* A bare numeric predicate is positional in XPath 1.0:
       [count(p)] means position() = count(p). *)
    unsupported "bare count() is a positional predicate; compare it instead"
  | Ast.Fn_contains (x, y) | Ast.Fn_starts_with (x, y) ->
    (* contains()/starts-with() over a single-valued operand and a
       constant pattern become REGEXP_LIKE filters. *)
    let anchored = match p with Ast.Fn_starts_with _ -> true | _ -> false in
    let empty_literal = match y with Ast.Literal "" -> true | _ -> false in
    let pattern =
      match y with
      | Ast.Literal s ->
        (if anchored then "^" else "") ^ Ppfx_regex.Regex.quote s
      | _ -> unsupported "the second argument of contains()/starts-with() must be a literal"
    in
    (* XPath: contains(x, '') is always true (string conversion), even when
       x converts from an empty node-set; a NULL SQL column would wrongly
       reject it. *)
    if empty_literal then (b, Sql.Bool_const true)
    else
    (match as_value env node x with
     | Some v -> b, Sql.Regexp_like (v, pattern)
     | None ->
       unsupported
         "contains()/starts-with() needs a single-valued operand (., @attr or text()); \
          rewrite path operands as nested predicates, e.g. p[contains(., 's')]")
  | Ast.Fn_string_length _ ->
    unsupported "string-length() is only supported inside comparisons"
  | Ast.Binop ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod), _, _) | Ast.Neg _ ->
    unsupported "bare arithmetic used as a predicate"

(* Existence of a relative path. *)
and translate_path_predicate env (b : branch) (node : node_ctx) (path : Ast.path) :
    branch * Sql.expr =
  if path.Ast.absolute then translate_exists env b node path []
  else begin
    let variants = Ppf.normalize_steps path.Ast.steps in
    if variants = [] then b, Sql.Bool_const false
    else begin
      (* Each normalization variant contributes a disjunct. *)
      let refresh b node =
        match b.cur with
        | Some n when String.equal n.alias node.alias -> n
        | Some _ | None -> node
      in
      let b, conds =
        List.fold_left
          (fun (b, conds) steps ->
            let b, c = translate_path_variant env b (refresh b node) steps in
            b, c :: conds)
          (b, []) variants
      in
      match List.rev conds with
      | [] -> b, Sql.Bool_const false
      | c :: cs -> b, List.fold_left (fun acc x -> Sql.Or (acc, x)) c cs
    end
  end

and translate_path_variant env (b : branch) (node : node_ctx) (steps : Ast.step list) :
    branch * Sql.expr =
  match steps with
  | [] -> b, Sql.Bool_const true (* '.' — always exists *)
  | [ { Ast.axis = Ast.Attribute; test; predicates = [] } ] ->
    b, conjoin (attr_conds env node test [])
  | [ { Ast.axis = Ast.Child; test = Ast.Text; predicates = [] } ] ->
    b, Sql.Cmp (Sql.Ne, col node.alias Mapping.dtext_column, Sql.Const (Value.Str ""))
  | _ when Ppf.backward_simple steps ->
    (* Table 5 (2): a backward-simple-path predicate is pure path-id
       filtering on the predicated step itself. *)
    let backward_steps =
      List.map (fun (s : Ast.step) -> s.Ast.axis, tag_of_test s.Ast.test) steps
    in
    let pattern = Rx.backward ~context:(rel_name node.rel) backward_steps in
    (match decide_filter env node.rel pattern with
     | Filter_skip -> b, Sql.Bool_const true
     | Filter_prune -> b, Sql.Bool_const false
     | Filter_join ->
       let b, node', pa = ensure_paths_join b node in
       let b = if b.cur = Some node then { b with cur = Some node' } else b in
       b, Sql.Regexp_like (col pa "path", pattern))
  | _ -> translate_exists env b node { Ast.absolute = false; steps } []

(* Build EXISTS sub-select(s) for a predicate path, with optional extra
   value conditions applied to the path's final node. [extra] receives
   the final node's value expression. *)
and translate_exists env (b : branch) (node : node_ctx) (path : Ast.path)
    (extra : (Sql.expr -> Sql.expr) list) : branch * Sql.expr =
  let start : branch =
    if path.Ast.absolute then { empty_branch with cur = None }
    else
      { empty_branch with cur = Some { node with paths_alias = None } }
  in
  (* Inside the sub-select the context alias's Paths join (if any) lives
     in the outer query; predicate paths re-join as needed. *)
  let variants = Ppf.normalize_steps path.Ast.steps in
  let sub_branches =
    List.concat_map
      (fun steps ->
        let steps, final_kind = strip_final_value_step steps in
        if steps = [] then
          (* e.g. 'text()' alone or '.': condition on the node itself *)
          [ (start, final_kind) ]
        else
          List.map (fun br -> br, final_kind) (translate_steps env start steps))
      variants
  in
  let conds =
    List.filter_map
      (fun ((sub : branch), final_kind) ->
        match sub.cur with
        | None -> None
        | Some final ->
          if sub.from_ = [] then
            (* The path collapsed onto the predicated node itself. *)
            Some (conjoin (value_conds env final final_kind extra))
          else begin
            let where = List.rev sub.conj in
            let all = where @ value_conds env final final_kind extra in
            let where_expr =
              match all with
              | [] -> None
              | c :: cs -> Some (List.fold_left (fun a x -> Sql.And (a, x)) c cs)
            in
            Some
              (Sql.Exists
                 {
                   Sql.distinct = false;
                   projections = [ Sql.Const Value.Null, "x" ];
                   from = List.rev sub.from_;
                   where = where_expr;
                   order_by = [];
                 })
          end)
      sub_branches
  in
  match conds with
  | [] -> b, Sql.Bool_const false
  | c :: cs -> b, List.fold_left (fun acc x -> Sql.Or (acc, x)) c cs

(* Conditions that [node] has a value of [kind] satisfying every [extra]
   (each applied to the value expression), as conjuncts. *)
and value_conds env (node : node_ctx) kind extra : Sql.expr list =
  let apply v = List.map (fun f -> f v) extra in
  match kind with
  | V_element -> apply (col node.alias Mapping.text_column)
  | V_text ->
    let v = col node.alias Mapping.dtext_column in
    Sql.Cmp (Sql.Ne, v, Sql.Const (Value.Str "")) :: apply v
  | V_attr test -> attr_conds env node test extra

(* Attribute existence, with [extra] constraining the value. A schema
   relation stores each declared attribute in an [attr_*] column; an
   [edge] row's attributes live in the [attr] relation (paper footnote 3),
   reached by an EXISTS. *)
and attr_conds env (node : node_ctx) test extra : Sql.expr list =
  match node.rel, test, extra with
  | Def def, Ast.Name a, _ ->
    let v = col node.alias (Mapping.attr_column a) in
    (if List.mem a def.Graph.attrs then Sql.Is_not_null v else Sql.Bool_const false)
    :: List.map (fun f -> f v) extra
  | Def def, Ast.Wildcard, [] ->
    (match def.Graph.attrs with
     | [] -> [ Sql.Bool_const false ]
     | attrs ->
       let conds =
         List.map (fun a -> Sql.Is_not_null (col node.alias (Mapping.attr_column a))) attrs
       in
       [ List.fold_left (fun acc c -> Sql.Or (acc, c)) (List.hd conds) (List.tl conds) ])
  | Def _, _, _ -> unsupported "unsupported attribute test"
  | Edge_row _, _, _ ->
    let alias = fresh env "a" in
    let conds =
      (Sql.Cmp (Sql.Eq, col alias "elem_id", col node.alias "id")
      :: (match tag_of_test test with
          | Some n -> [ Sql.Cmp (Sql.Eq, col alias "name", Sql.Const (Value.Str n)) ]
          | None -> []))
      @ List.map (fun f -> f (col alias "value")) extra
    in
    [
      Sql.Exists
        {
          Sql.distinct = false;
          projections = [ Sql.Const Value.Null, "x" ];
          from = [ Edge.attr_table, alias ];
          where = Some (conjoin conds);
          order_by = [];
        };
    ]

(* Remove a trailing text()/attribute step, remembering the value kind. *)
and strip_final_value_step (steps : Ast.step list) : Ast.step list * value_kind =
  match List.rev steps with
  | { Ast.axis = Ast.Attribute; test; predicates = [] } :: rev_rest ->
    List.rev rev_rest, V_attr test
  | { Ast.axis = Ast.Child; test = Ast.Text; predicates = [] } :: rev_rest ->
    List.rev rev_rest, V_text
  | _ -> steps, V_element

(* A predicate operand that denotes a single SQL value relative to the
   predicated node: literals, numbers, @attr, '.', text(), arithmetic. *)
and as_value env (node : node_ctx) (e : Ast.expr) : Sql.expr option =
  match e with
  | Ast.Literal s -> Some (Sql.Const (Value.Str s))
  | Ast.Number f -> Some (Sql.Const (Value.Float f))
  | Ast.Neg a ->
    Option.map (fun v -> Sql.Arith (Sql.Sub, Sql.Const (Value.Int 0), v)) (as_value env node a)
  | Ast.Binop ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod) as op, a, b) ->
    (match as_value env node a, as_value env node b with
     | Some va, Some vb ->
       let sop =
         match op with
         | Ast.Add -> Sql.Add
         | Ast.Sub -> Sql.Sub
         | Ast.Mul -> Sql.Mul
         | Ast.Div -> Sql.Div
         | Ast.Mod -> Sql.Mod
         | _ -> assert false
       in
       Some (Sql.Arith (sop, va, vb))
     | _ -> None)
  | Ast.Path { Ast.absolute = false; steps } ->
    (match Ppf.normalize_steps steps with
     | [ [] ] ->
       (* '.' — the node's string value. *)
       Some (col node.alias Mapping.text_column)
     | [ [ { Ast.axis = Ast.Attribute; test = Ast.Name a; predicates = [] } ] ] ->
       (* An [edge] row's attribute is no column: the caller's EXISTS
          reaches it. *)
       (match node.rel with
        | Def def when List.mem a def.Graph.attrs ->
          Some (col node.alias (Mapping.attr_column a))
        | Def _ -> Some (Sql.Const Value.Null)
        | Edge_row _ -> None)
     | [ [ { Ast.axis = Ast.Child; test = Ast.Text; predicates = [] } ] ] ->
       Some (col node.alias Mapping.dtext_column)
     | _ -> None)
  | Ast.Fn_string_length a ->
    Option.map (fun v -> Sql.Length v) (as_value env node a)
  | Ast.Fn_count (Ast.Path path) -> count_value env node path
  | Ast.Path _ | Ast.Union _ | Ast.Binop _ | Ast.Fn_not _ | Ast.Fn_count _
  | Ast.Fn_position | Ast.Fn_last | Ast.Fn_contains _ | Ast.Fn_starts_with _ ->
    None

(* count(p): one scalar COUNT sub-query per disjoint translation branch,
   summed. Branches are disjoint — SQL splitting partitions by relation
   and the or-self normalization variants partition by self/descendant. *)
and count_value env (node : node_ctx) (path : Ast.path) : Sql.expr option =
  let start : branch =
    if path.Ast.absolute then { empty_branch with cur = None }
    else { empty_branch with cur = Some { node with paths_alias = None } }
  in
  let variants = Ppf.normalize_steps path.Ast.steps in
  let counts =
    List.concat_map
      (fun steps ->
        let steps, final_kind = strip_final_value_step steps in
        if steps = [] then
          (* count(.) = 1; count(text()) / count(@a) on the node itself *)
          [ `Const final_kind ]
        else
          List.map (fun br -> `Branch (br, final_kind)) (translate_steps env start steps))
      variants
  in
  let exprs =
    List.map
      (fun c ->
        match c with
        | `Const V_element -> Some (Sql.Const (Value.Int 1))
        | `Const V_text ->
          (* 1 when the node has a text child, else 0: not expressible as
             a constant; out of scope. *)
          None
        | `Const (V_attr _) -> None
        | `Branch ((sub : branch), final_kind) ->
          (match sub.cur with
           | None -> None
           | Some final ->
             if sub.from_ = [] then None
             else begin
               let conjs = List.rev sub.conj @ value_conds env final final_kind [] in
               Some
                 (Sql.Count_subquery
                    {
                      Sql.distinct = false;
                      projections = [ Sql.Const Value.Null, "count" ];
                      from = List.rev sub.from_;
                      where =
                        (match conjs with
                         | [] -> None
                         | c :: cs ->
                           Some (List.fold_left (fun a x -> Sql.And (a, x)) c cs));
                      order_by = [];
                    })
             end))
      counts
  in
  (* Every component must be expressible or the sum would undercount. *)
  if List.exists Option.is_none exprs then None
  else
    match List.map Option.get exprs with
    | [] -> Some (Sql.Const (Value.Int 0))
    | e :: es -> Some (List.fold_left (fun acc x -> Sql.Arith (Sql.Add, acc, x)) e es)


(* Comparisons: XPath 1.0 existential semantics. *)
and translate_comparison env (b : branch) (node : node_ctx) (op : Ast.binop) (x : Ast.expr)
    (y : Ast.expr) : branch * Sql.expr =
  let sql_op =
    match op with
    | Ast.Eq -> Sql.Eq
    | Ast.Ne -> Sql.Ne
    | Ast.Lt -> Sql.Lt
    | Ast.Le -> Sql.Le
    | Ast.Gt -> Sql.Gt
    | Ast.Ge -> Sql.Ge
    | _ -> assert false
  in
  let vx = as_value env node x and vy = as_value env node y in
  match vx, vy with
  | Some ex, Some ey -> b, Sql.Cmp (sql_op, ex, ey)
  | Some ex, None ->
    (match y with
     | Ast.Path p ->
       let flipped =
         match sql_op with
         | Sql.Eq -> Sql.Eq
         | Sql.Ne -> Sql.Ne
         | Sql.Lt -> Sql.Gt
         | Sql.Le -> Sql.Ge
         | Sql.Gt -> Sql.Lt
         | Sql.Ge -> Sql.Le
       in
       translate_exists env b node p [ (fun v -> Sql.Cmp (flipped, v, ex)) ]
     | _ -> unsupported "unsupported comparison operand: %s" (Ast.to_string y))
  | None, Some ey ->
    (match x with
     | Ast.Path p ->
       translate_exists env b node p [ (fun v -> Sql.Cmp (sql_op, v, ey)) ]
     | _ -> unsupported "unsupported comparison operand: %s" (Ast.to_string x))
  | None, None ->
    (match x, y with
     | Ast.Path px, Ast.Path py ->
       (* Join predicate clause (paper footnote 1): nest the second
          EXISTS inside the first, comparing the two value columns. *)
       translate_exists env b node px
         [
           (fun vx ->
             let _, cond =
               translate_exists env b node py
                 [
                   (fun vy ->
                     match sql_op with
                     | Sql.Eq | Sql.Ne -> Sql.Cmp (sql_op, vx, vy)
                     | Sql.Lt | Sql.Le | Sql.Gt | Sql.Ge ->
                       Sql.Cmp (sql_op, Sql.To_number vx, Sql.To_number vy));
                 ]
             in
             cond);
         ]
     | _ ->
       unsupported "unsupported comparison: %s vs %s" (Ast.to_string x) (Ast.to_string y))

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

(* One SELECT per live branch, tagged with the kind of value it projects
   as [value]. *)
let finalize env (branches : branch list) (final_kind : value_kind) :
    (value_kind * Sql.select) list =
  List.filter_map
    (fun (b : branch) ->
      match b.cur with
      | None -> None
      | Some node ->
        let value =
          match final_kind, node.rel with
          | V_element, _ -> col node.alias Mapping.text_column
          | V_text, _ -> col node.alias Mapping.dtext_column
          | V_attr (Ast.Name a), Def def when List.mem a def.Graph.attrs ->
            col node.alias (Mapping.attr_column a)
          | V_attr (Ast.Name _), Def _ -> Sql.Const Value.Null
          | V_attr _, _ -> unsupported "attribute-final backbones need a schema attribute"
        in
        let conjs = List.rev b.conj @ value_conds env node final_kind [] in
        if List.mem (Sql.Bool_const false) conjs then None else
        let where =
          match conjs with
          | [] -> None
          | c :: cs -> Some (List.fold_left (fun a x -> Sql.And (a, x)) c cs)
        in
        Some
          ( final_kind,
            {
              Sql.distinct = true;
              projections =
                [
                  col node.alias "id", "id";
                  dewey node.alias, "dewey_pos";
                  value, "value";
                ];
              from = List.rev b.from_;
              where;
              order_by = [ dewey node.alias ];
            } ))
    branches

(* The path's selects, one group per value kind its or-self variants end
   in. *)
let translate_path env (path : Ast.path) : (value_kind * Sql.select) list =
  let variants = Ppf.normalize_steps path.Ast.steps in
  let all =
    List.concat_map
      (fun steps ->
        let steps, final_kind = strip_final_value_step steps in
        if steps = [] then []
        else
          List.map (fun b -> b, final_kind) (translate_steps env empty_branch steps))
      variants
  in
  List.concat_map
    (fun kind ->
      finalize env (List.filter_map (fun (b, k) -> if k = kind then Some b else None) all) kind)
    (List.sort_uniq compare (List.map snd all))

let rec collect_paths (e : Ast.expr) : Ast.path list =
  match e with
  | Ast.Path p -> [ p ]
  | Ast.Union (a, b) -> collect_paths a @ collect_paths b
  | Ast.Binop _ | Ast.Neg _ | Ast.Literal _ | Ast.Number _ | Ast.Fn_not _ | Ast.Fn_count _
  | Ast.Fn_position | Ast.Fn_last | Ast.Fn_contains _ | Ast.Fn_starts_with _
  | Ast.Fn_string_length _ ->
    unsupported "top-level expression must be a path or a union of paths"

let translate ?(values = false) t (e : Ast.expr) : Sql.statement option =
  let env = { t; counter = Hashtbl.create 16 } in
  let selects = List.concat_map (translate_path env) (collect_paths e) in
  (* A node-set answer needs no string values. A text()- or
     attribute-final branch's value is its answer, and one such branch
     keeps the column in every branch so the union's arity stays equal. *)
  let keep_value = values || List.exists (fun (kind, _) -> kind <> V_element) selects in
  let project (_, (s : Sql.select)) =
    if keep_value then s
    else { s with projections = List.filter (fun (_, name) -> name <> "value") s.projections }
  in
  match List.map project selects with
  | [] -> None
  | [ s ] -> Some (Sql.Select s)
  | ss -> Some (Sql.Union (List.map (fun s -> { s with Sql.order_by = [] }) ss, [ 1 ]))

let result_ids (r : Engine.result) =
  List.sort_uniq Int.compare
    (List.filter_map
       (fun row ->
         match row.(0) with
         | Value.Int id -> Some id
         | _ -> None)
       r.Engine.rows)
