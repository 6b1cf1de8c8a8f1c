module Sql = Ppfx_minidb.Sql

(* Static shard-safety analysis of a translated statement.

   The store is partitioned into frontier subtrees with the spine —
   every split element, root included — and the [Paths] relation
   replicated into every shard, so a join is shard-local exactly when
   every binding it accepts relates rows available in one shard. The
   translation emits a closed set of join shapes (translate.ml):

   - Dewey containment  [d BETWEEN a AND a || 0xFF]   — shard-local: the
     ancestor is in the same frontier subtree or a replicated spine row;
   - foreign-key joins  [child.fk = parent.id]        — the parent row is
     in the same subtree or replicated (spine, Paths);
   - sibling joins      [a.fk = b.fk, a.dewey > b.dewey] — local unless
     the common parent can be a spine element, whose children may be
     split across shards: those fk columns form the boundary set;
   - order joins        [d > a || 0xFF] (and mirrored) — compare Dewey
     positions of nodes in unrelated subtrees: never shard-local;
   - level pins, path regexes, value/ord comparisons  — row-local or
     riding on an already-local join.

   The analysis walks the full boolean tree (order conditions also occur
   under OR from predicate splitting), recurses into EXISTS, and treats
   any cross-alias comparison outside the known-local shapes as a
   fallback. Aggregation is also unsound per shard: COUNT sub-queries
   and top-level counts fall back, as does uncorrelated EXISTS (a global
   gate a shard cannot decide alone). A bare cross-alias Dewey
   comparison without the 0xFF sentinel is accepted: the translator only
   emits it alongside a sibling fk join or a recursive containment
   BETWEEN, either of which already pins both aliases to one subtree. *)

type order_side = {
  os_select : Sql.select;
  os_key : int;
  os_cols : (string * string * string) list;
}

type order_plan = {
  op_left : order_side;
  op_right : order_side;
  op_coord : Sql.select;
}

type verdict =
  | Partitionable
  | Order_partitionable of order_plan
  | Fallback of string

let dewey_column = "dewey_pos"

let is_dewey_col = function
  | Sql.Col (_, c) -> String.equal c dewey_column
  | _ -> false

let mentions_dewey = Sql.fold (fun acc e -> acc || is_dewey_col e) false

(* Whether the expression contains [dewey || _] — the sentinel upper end
   of a document-order comparison. *)
let has_dewey_concat =
  Sql.fold (fun acc e -> acc || match e with Sql.Concat (a, _) -> is_dewey_col a | _ -> false) false

let dewey_aliases =
  Sql.fold (fun acc e -> match e with Sql.Col (a, _) when is_dewey_col e -> a :: acc | _ -> acc)

let is_fk_column c =
  let n = String.length c in
  n > 3 && String.equal (String.sub c (n - 3) 3) "_id"

exception Stop of string

let fail reason = raise (Stop reason)

let containment_between e lo hi =
  match lo, hi with
  | Sql.Col (x, c1), Sql.Concat (Sql.Col (y, c2), _) ->
    String.equal c1 dewey_column && String.equal c2 dewey_column && String.equal x y
    && is_dewey_col e
  | _ -> false

(* [neg] tracks boolean polarity: inside an odd number of NOTs. A
   positive fk join to a replicated spine parent is shard-local — the
   child row lives on exactly one shard next to one of the parent's
   replicas, and the Dewey merge dedups the replicas a spine projection
   emits. Under negation the same join is NOT shard-local: every shard
   missing the child sees the (replicated) outer row as unmatched, so a
   per-shard anti-join invents rows the single store rejects. *)
let rec check_expr ~bfks ~neg (e : Sql.expr) =
  match e with
  | Sql.Cmp (op, a, b) -> check_cmp ~bfks ~neg op a b
  | Sql.Between (e1, lo, hi) ->
    if containment_between e1 lo hi then ()
    else if mentions_dewey e1 || mentions_dewey lo || mentions_dewey hi then
      fail "non-containment dewey BETWEEN"
    else begin
      check_value ~bfks ~neg e1;
      check_value ~bfks ~neg lo;
      check_value ~bfks ~neg hi
    end
  | Sql.And (a, b) | Sql.Or (a, b) ->
    check_expr ~bfks ~neg a;
    check_expr ~bfks ~neg b
  | Sql.Not a -> check_expr ~bfks ~neg:(not neg) a
  | Sql.Exists sel ->
    if Sql.free_aliases (Sql.Exists sel) = [] then
      fail "uncorrelated EXISTS (checks a global property per shard)"
    else check_select ~bfks ~neg sel
  | Sql.Count_subquery _ -> fail "COUNT sub-query (counts rows per shard)"
  | Sql.Regexp_like (a, _) | Sql.Is_not_null a -> check_value ~bfks ~neg a
  | Sql.Bool_const _ -> ()
  | Sql.Col _ | Sql.Const _ | Sql.Concat _ | Sql.Arith _ | Sql.To_number _
  | Sql.Length _ ->
    check_value ~bfks ~neg e

and check_cmp ~bfks ~neg op a b =
  match a, b with
  | Sql.Col (x, ca), Sql.Col (y, cb) when not (String.equal x y) ->
    if String.equal ca dewey_column && String.equal cb dewey_column then
      (* Bare dewey comparison: the order refinement of a sibling or
         recursive-containment join; those joins pin both aliases. *)
      ()
    else if op <> Sql.Eq then fail "cross-alias non-equality comparison"
    else if String.equal ca "id" || String.equal cb "id" then begin
      (* Foreign-key join: the parent side is in the same frontier
         subtree or replicated (spine / Paths). Under negation a join to
         a replicated parent stops being shard-local — the anti-joined
         child exists on one shard while the parent's replicas on every
         other shard count as unmatched. *)
      let fk = if String.equal ca "id" then cb else ca in
      if neg && List.mem fk bfks then
        fail "negated join through a replicated spine parent (per-shard anti-join is unsound)"
    end
    else if List.mem ca bfks || List.mem cb bfks then
      fail "sibling join at a partition boundary (children of a spine element)"
    else if is_fk_column ca && is_fk_column cb then ()
    else fail "cross-alias comparison outside known shard-local shapes"
  | _ ->
    ignore op;
    if has_dewey_concat a || has_dewey_concat b then begin
      (* [d cmp a || 0xFF]: a document-order comparison. Local only when
         a single alias is involved. *)
      match List.sort_uniq compare (dewey_aliases (dewey_aliases [] a) b) with
      | [] | [ _ ] -> ()
      | _ :: _ :: _ -> fail "order-axis dewey comparison (following/preceding)"
    end
    else begin
      check_value ~bfks ~neg a;
      check_value ~bfks ~neg b
    end

and check_value ~bfks ~neg (e : Sql.expr) =
  match e with
  | Sql.Col _ | Sql.Const _ | Sql.Bool_const _ -> ()
  | Sql.Concat (a, b) | Sql.Arith (_, a, b) ->
    check_value ~bfks ~neg a;
    check_value ~bfks ~neg b
  | Sql.To_number a | Sql.Length a -> check_value ~bfks ~neg a
  | Sql.Count_subquery _ -> fail "COUNT sub-query (counts rows per shard)"
  | Sql.Cmp _ | Sql.Between _ | Sql.And _ | Sql.Or _ | Sql.Not _
  | Sql.Regexp_like _ | Sql.Exists _ | Sql.Is_not_null _ ->
    check_expr ~bfks ~neg e

and check_select ~bfks ~neg (sel : Sql.select) =
  (match sel.Sql.where with None -> () | Some w -> check_expr ~bfks ~neg w);
  List.iter (fun (e, _) -> check_value ~bfks ~neg e) sel.Sql.projections;
  List.iter (fun e -> check_value ~bfks ~neg e) sel.Sql.order_by

(* ---- Order-axis decomposition ------------------------------------

   A statement that fails the shard-locality check only because it
   relates two node sets across subtree boundaries — an order-axis dewey
   comparison, or a sibling join on a boundary fk — can still avoid the
   full single-store fallback: split the FROM aliases into the two
   locally-joined groups, run each group's select per shard (these pass
   the ordinary check), k-way merge each side on the coordinator, and
   evaluate only the boundary-crossing conjuncts there with a final
   two-table select over the merged streams.

   The split is a union-find over aliases: conjuncts that are themselves
   shard-local join shapes (containment BETWEEN, fk equality off the
   boundary set) or that contain sub-queries glue their aliases into one
   side. Exactly two components must remain; every remaining conjunct
   either falls wholly inside one side (side WHERE) or spans both
   (coordinator WHERE — must be sub-query-free). Each side exports, with
   mangled names [c0..cn], every column the cross conjuncts and the
   final projections/ORDER BY touch, leading with a dewey merge key, and
   orders by the full export list so the per-side shard merge has a
   total key even when one alias's dewey repeats across side rows.

   Soundness: sides are DISTINCT projections, so under the statement's
   own DISTINCT, filtering the product of the two side sets by the cross
   conjuncts and projecting yields exactly the single-store answer. *)

exception Give_up

let has_subquery =
  Sql.fold
    (fun acc e -> acc || match e with Sql.Exists _ | Sql.Count_subquery _ -> true | _ -> false)
    false

let cols_of =
  Sql.fold (fun acc e ->
      match e with
      | Sql.Col (a, c) -> (a, c) :: acc
      | Sql.Exists _ | Sql.Count_subquery _ -> raise Give_up
      | _ -> acc)

(* The conjunct shapes that pin their aliases to one frontier subtree
   (mirroring the acceptances in [check_cmp]); these force their aliases
   onto the same side. *)
let localizing_join ~bfks = function
  | Sql.Between (e, lo, hi) -> containment_between e lo hi
  | Sql.Cmp (Sql.Eq, Sql.Col (x, ca), Sql.Col (y, cb))
    when not (String.equal x y) ->
    if String.equal ca "id" || String.equal cb "id" then true
    else if List.mem ca bfks || List.mem cb bfks then false
    else is_fk_column ca && is_fk_column cb
  | _ -> false

let decompose ~bfks (sel : Sql.select) =
  try
    if not sel.Sql.distinct then raise Give_up;
    let aliases = List.map snd sel.Sql.from in
    if List.length aliases < 2 then raise Give_up;
    let final_key_alias =
      match sel.Sql.order_by with
      | [ Sql.Col (a, c) ] when String.equal c dewey_column && List.mem a aliases
        ->
        a
      | _ -> raise Give_up
    in
    (* union-find over FROM aliases *)
    let parent = Hashtbl.create 16 in
    List.iter (fun a -> Hashtbl.replace parent a a) aliases;
    let rec find a =
      match Hashtbl.find_opt parent a with
      | None -> raise Give_up
      | Some p ->
        if String.equal p a then a
        else begin
          let r = find p in
          Hashtbl.replace parent a r;
          r
        end
    in
    let union a b =
      let ra = find a and rb = find b in
      if not (String.equal ra rb) then Hashtbl.replace parent ra rb
    in
    let conjs =
      match sel.Sql.where with None -> [] | Some w -> Sql.conjuncts w
    in
    List.iter
      (fun c ->
        if has_subquery c || localizing_join ~bfks c then
          match Sql.free_aliases c with
          | [] -> ()
          | a :: rest -> List.iter (union a) rest)
      conjs;
    let roots = List.sort_uniq compare (List.map find aliases) in
    let left_root = find (List.hd aliases) in
    (match roots with
     | [ r1; r2 ] -> ignore r1; ignore r2
     | _ -> raise Give_up);
    let on_left a = String.equal (find a) left_root in
    (* conjunct assignment *)
    let lconjs = ref [] and rconjs = ref [] and cross = ref [] in
    List.iter
      (fun c ->
        match Sql.free_aliases c with
        | [] -> lconjs := c :: !lconjs
        | fa ->
          if List.for_all on_left fa then lconjs := c :: !lconjs
          else if List.for_all (fun a -> not (on_left a)) fa then
            rconjs := c :: !rconjs
          else if has_subquery c then raise Give_up
          else cross := c :: !cross)
      conjs;
    let cross = List.rev !cross in
    (* columns each side must export *)
    let exported =
      let acc = List.fold_left cols_of [] cross in
      let acc =
        List.fold_left (fun acc (e, _) -> cols_of acc e) acc sel.Sql.projections
      in
      let acc = List.fold_left cols_of acc sel.Sql.order_by in
      List.sort_uniq compare acc
    in
    List.iter
      (fun (a, _) -> if not (List.mem a aliases) then raise Give_up)
      exported;
    let table_of a =
      match List.find_opt (fun (_, al) -> String.equal al a) sel.Sql.from with
      | Some (tbl, _) -> tbl
      | None -> raise Give_up
    in
    let build_side ~mine conjs_side =
      let side_aliases = List.filter mine aliases in
      let key_alias =
        if mine final_key_alias then final_key_alias
        else
          match
            List.find_opt
              (fun (a, c) -> mine a && String.equal c dewey_column)
              exported
          with
          | Some (a, _) -> a
          | None -> (
            match side_aliases with a :: _ -> a | [] -> raise Give_up)
      in
      let cols =
        (key_alias, dewey_column)
        :: List.filter
             (fun (a, c) ->
               mine a
               && not
                    (String.equal a key_alias && String.equal c dewey_column))
             exported
      in
      let mangled i = Printf.sprintf "c%d" i in
      let side_sel =
        {
          Sql.distinct = true;
          projections = List.mapi (fun i (a, c) -> (Sql.Col (a, c), mangled i)) cols;
          from = List.filter (fun (_, a) -> mine a) sel.Sql.from;
          where = List.fold_left Sql.and_opt None conjs_side;
          order_by = List.map (fun (a, c) -> Sql.Col (a, c)) cols;
        }
      in
      check_select ~bfks ~neg:false side_sel;
      ( {
          os_select = side_sel;
          os_key = 0;
          os_cols = List.mapi (fun i (a, c) -> (mangled i, table_of a, c)) cols;
        },
        List.mapi (fun i (a, c) -> ((a, c), mangled i)) cols )
    in
    let left, lmap = build_side ~mine:on_left (List.rev !lconjs) in
    let right, rmap =
      build_side ~mine:(fun a -> not (on_left a)) (List.rev !rconjs)
    in
    let lookup key =
      match List.assoc_opt key lmap with
      | Some m -> Some (Sql.Col ("L", m))
      | None -> (
        match List.assoc_opt key rmap with
        | Some m -> Some (Sql.Col ("R", m))
        | None -> None)
    in
    let rec rewrite e =
      match e with
      | Sql.Col (a, c) -> (
        match lookup (a, c) with Some e' -> e' | None -> raise Give_up)
      | Sql.Const _ | Sql.Bool_const _ -> e
      | Sql.Cmp (op, x, y) -> Sql.Cmp (op, rewrite x, rewrite y)
      | Sql.Between (x, y, z) -> Sql.Between (rewrite x, rewrite y, rewrite z)
      | Sql.And (x, y) -> Sql.And (rewrite x, rewrite y)
      | Sql.Or (x, y) -> Sql.Or (rewrite x, rewrite y)
      | Sql.Not x -> Sql.Not (rewrite x)
      | Sql.Concat (x, y) -> Sql.Concat (rewrite x, rewrite y)
      | Sql.Regexp_like (x, p) -> Sql.Regexp_like (rewrite x, p)
      | Sql.Arith (op, x, y) -> Sql.Arith (op, rewrite x, rewrite y)
      | Sql.To_number x -> Sql.To_number (rewrite x)
      | Sql.Length x -> Sql.Length (rewrite x)
      | Sql.Is_not_null x -> Sql.Is_not_null (rewrite x)
      | Sql.Exists _ | Sql.Count_subquery _ -> raise Give_up
    in
    let coord =
      {
        Sql.distinct = true;
        projections =
          List.map (fun (e, n) -> (rewrite e, n)) sel.Sql.projections;
        from = [ ("lhs", "L"); ("rhs", "R") ];
        where = List.fold_left Sql.and_opt None (List.map rewrite cross);
        order_by = List.map rewrite sel.Sql.order_by;
      }
    in
    Some { op_left = left; op_right = right; op_coord = coord }
  with Give_up | Stop _ -> None

(* The merge needs a projected, statement-wide Dewey ordering: for a
   single SELECT an ORDER BY equal to one projection, for a UNION one
   output-column ordinal. Returns the 0-based projection index. *)
let merge_key (stmt : Sql.statement) =
  let key_of_select (sel : Sql.select) =
    match sel.Sql.order_by with
    | [ e ] ->
      let rec find i = function
        | [] -> None
        | (p, _) :: rest -> if p = e then Some i else find (i + 1) rest
      in
      find 0 sel.Sql.projections
    | _ -> None
  in
  match stmt with
  | Sql.Select sel -> key_of_select sel
  | Sql.Union (branches, [ i ]) ->
    if List.for_all (fun (b : Sql.select) -> List.length b.Sql.projections > i) branches
    then Some i
    else None
  | Sql.Union _ | Sql.Select_count _ -> None

let analyze ~boundary_fks (stmt : Sql.statement) =
  let bfks = boundary_fks in
  let check () =
    match stmt with
    | Sql.Select_count _ -> fail "top-level COUNT aggregates across shards"
    | Sql.Select sel -> check_select ~bfks ~neg:false sel
    | Sql.Union (branches, _) -> List.iter (check_select ~bfks ~neg:false) branches
  in
  match check () with
  | () ->
    (match merge_key stmt with
     | Some _ -> Partitionable
     | None -> Fallback "no statement-wide dewey ordering to merge on")
  | exception Stop reason ->
    (match stmt with
     | Sql.Select sel ->
       (match decompose ~bfks sel with
        | Some plan -> Order_partitionable plan
        | None -> Fallback reason)
     | Sql.Union _ | Sql.Select_count _ -> Fallback reason)
