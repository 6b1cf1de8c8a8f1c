module Ast = Ppfx_xpath.Ast
module Doc = Ppfx_xml.Doc
module Table = Ppfx_minidb.Table
module Database = Ppfx_minidb.Database
module Value = Ppfx_minidb.Value
module Sql = Ppfx_minidb.Sql
module Engine = Ppfx_minidb.Engine
module Ppf = Ppfx_translate.Ppf

exception Unsupported of string

let unsupported fmt = Format.kasprintf (fun m -> raise (Unsupported m)) fmt

type t = {
  db : Database.t;
  docs : Doc.t list;
}

let accel_table = "accel"
let attr_table = "attr"

let create () =
  let db = Database.create () in
  let accel =
    Database.create_table db ~name:accel_table
      ~columns:
        [
          { Table.name = "id"; ty = Value.Tint };
          { Table.name = "pre"; ty = Value.Tint };
          { Table.name = "post"; ty = Value.Tint };
          { Table.name = "par"; ty = Value.Tint };
          { Table.name = "level"; ty = Value.Tint };
          { Table.name = "tag"; ty = Value.Tstr };
          { Table.name = "text"; ty = Value.Tstr };
          { Table.name = "dtext"; ty = Value.Tstr };
        ]
  in
  Table.create_index accel [ "id" ];
  Table.create_index accel [ "pre" ];
  Table.create_index accel [ "post" ];
  Table.create_index accel [ "par" ];
  Table.create_index accel [ "tag"; "pre" ];
  let attr =
    Database.create_table db ~name:attr_table
      ~columns:
        [
          { Table.name = "elem_id"; ty = Value.Tint };
          { Table.name = "name"; ty = Value.Tstr };
          { Table.name = "value"; ty = Value.Tstr };
        ]
  in
  Table.create_index attr [ "elem_id" ];
  { db; docs = [] }

let load t doc =
  let accel = Database.table t.db accel_table in
  let attr = Database.table t.db attr_table in
  (* Globalise preorder/postorder ranks across documents so windows never
     span two documents. *)
  let offset = List.fold_left (fun acc d -> acc + Doc.size d) 0 t.docs in
  Doc.iter
    (fun e ->
      let r = e.Doc.region in
      ignore
        (Table.insert accel
           [|
             Value.Int (e.Doc.id + offset);
             Value.Int (r.Ppfx_dewey.Region.pre + offset);
             Value.Int (r.Ppfx_dewey.Region.post + offset);
             (if e.Doc.parent = 0 then Value.Null else Value.Int (e.Doc.parent + offset));
             Value.Int r.Ppfx_dewey.Region.level;
             Value.Str e.Doc.tag;
             Value.Str e.Doc.string_value;
             Value.Str e.Doc.text;
           |]);
      List.iter
        (fun (name, value) ->
          ignore
            (Table.insert attr
               [| Value.Int (e.Doc.id + offset); Value.Str name; Value.Str value |]))
        e.Doc.attrs)
    doc;
  { t with docs = t.docs @ [ doc ] }

let shred doc = load (create ()) doc

(* ------------------------------------------------------------------ *)
(* Translation: one self-join per step, window conditions per axis      *)
(* ------------------------------------------------------------------ *)

type node_ctx = { alias : string }

type branch = {
  from_ : (string * string) list;
  conj : Sql.expr list;
  cur : node_ctx option;
}

let empty_branch = { from_ = []; conj = []; cur = None }

type env = { counter : int ref }

let fresh env =
  incr env.counter;
  Printf.sprintf "v%d" !(env.counter)

let col alias c = Sql.Col (alias, c)

let add_from b table alias = { b with from_ = (table, alias) :: b.from_ }

let add_conj b e = { b with conj = e :: b.conj }

let tag_condition alias (test : Ast.node_test) =
  match test with
  | Ast.Name n -> Some (Sql.Cmp (Sql.Eq, col alias "tag", Sql.Const (Value.Str n)))
  | Ast.Wildcard | Ast.Any_node -> None
  | Ast.Text -> unsupported "text() is not an element step"

(* Axis windows in the pre/post plane. *)
let axis_window ~(prev : node_ctx) ~(node : node_ctx) (axis : Ast.axis) : Sql.expr list =
  let p c = col prev.alias c and v c = col node.alias c in
  match axis with
  | Ast.Child -> [ Sql.Cmp (Sql.Eq, v "par", p "id") ]
  | Ast.Parent -> [ Sql.Cmp (Sql.Eq, p "par", v "id") ]
  | Ast.Descendant ->
    (* Staked-out window: descendants lie in
       pre(c)+1 <= pre(v) <= post(c)+level(c), post(v) < post(c). *)
    [
      Sql.Between
        ( v "pre",
          Sql.Arith (Sql.Add, p "pre", Sql.Const (Value.Int 1)),
          Sql.Arith (Sql.Add, p "post", p "level") );
      Sql.Cmp (Sql.Lt, v "post", p "post");
    ]
  | Ast.Ancestor ->
    [ Sql.Cmp (Sql.Lt, v "pre", p "pre"); Sql.Cmp (Sql.Gt, v "post", p "post") ]
  | Ast.Following ->
    [ Sql.Cmp (Sql.Gt, v "pre", p "pre"); Sql.Cmp (Sql.Gt, v "post", p "post") ]
  | Ast.Preceding ->
    [ Sql.Cmp (Sql.Lt, v "pre", p "pre"); Sql.Cmp (Sql.Lt, v "post", p "post") ]
  | Ast.Following_sibling ->
    [ Sql.Cmp (Sql.Gt, v "pre", p "pre"); Sql.Cmp (Sql.Eq, v "par", p "par") ]
  | Ast.Preceding_sibling ->
    [ Sql.Cmp (Sql.Lt, v "pre", p "pre"); Sql.Cmp (Sql.Eq, v "par", p "par") ]
  | Ast.Self | Ast.Descendant_or_self | Ast.Ancestor_or_self | Ast.Attribute ->
    unsupported "axis %s should have been normalized away" (Ast.axis_name axis)

let rec translate_steps env (b : branch) (steps : Ast.step list) : branch list =
  List.fold_left
    (fun branches step -> List.concat_map (fun b -> translate_step env b step) branches)
    [ b ] steps

and translate_step env (b : branch) (step : Ast.step) : branch list =
  let alias = fresh env in
  let node = { alias } in
  let b = add_from b accel_table alias in
  let b =
    match tag_condition alias step.Ast.test with Some c -> add_conj b c | None -> b
  in
  let joined =
    match b.cur, step.Ast.axis with
    | None, Ast.Child -> Some (add_conj b (Sql.Not (Sql.Is_not_null (col alias "par"))))
    | None, Ast.Descendant -> Some b
    | None, _ -> None
    | Some prev, axis ->
      Some (List.fold_left add_conj b (axis_window ~prev ~node axis))
  in
  match joined with
  | None -> []
  | Some b ->
    let b = { b with cur = Some node } in
    translate_predicates env b step.Ast.predicates

and translate_predicates env (b : branch) (predicates : Ast.expr list) : branch list =
  match predicates with
  | [] -> [ b ]
  | p :: rest ->
    let node =
      match b.cur with Some n -> n | None -> unsupported "predicate without context"
    in
    let cond = Sql.simplify (translate_predicate env node p) in
    let b = match cond with Sql.Bool_const true -> b | cond -> add_conj b cond in
    translate_predicates env b rest

and translate_predicate env (node : node_ctx) (p : Ast.expr) : Sql.expr =
  match p with
  | Ast.Binop (Ast.And, x, y) ->
    Sql.And (translate_predicate env node x, translate_predicate env node y)
  | Ast.Binop (Ast.Or, x, y) | Ast.Union (x, y) ->
    Sql.Or (translate_predicate env node x, translate_predicate env node y)
  | Ast.Fn_not x -> Sql.Not (translate_predicate env node x)
  | Ast.Binop ((Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op, x, y) ->
    translate_comparison env node op x y
  | Ast.Path path -> translate_path_predicate env node path
  | Ast.Literal s -> Sql.Bool_const (String.length s > 0)
  | Ast.Number _ | Ast.Fn_position | Ast.Fn_last ->
    unsupported "positional predicates are not supported"
  | Ast.Fn_count _ -> unsupported "count() in predicates is not supported"
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
    if empty_literal then (Sql.Bool_const true)
    else
    (match as_value node x with
     | Some v -> Sql.Regexp_like (v, pattern)
     | None ->
       unsupported
         "contains()/starts-with() needs a single-valued operand (., @attr or text()); \
          rewrite path operands as nested predicates, e.g. p[contains(., 's')]")
  | Ast.Fn_string_length _ ->
    unsupported "string-length() is only supported inside comparisons"
  | Ast.Binop ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod), _, _) | Ast.Neg _ ->
    unsupported "bare arithmetic used as a predicate"

and attr_exists env (node : node_ctx) (test : Ast.node_test) extra =
  let alias = fresh env in
  let conds =
    [ Sql.Cmp (Sql.Eq, col alias "elem_id", col node.alias "id") ]
    @ (match test with
       | Ast.Name n -> [ Sql.Cmp (Sql.Eq, col alias "name", Sql.Const (Value.Str n)) ]
       | Ast.Wildcard | Ast.Any_node -> []
       | Ast.Text -> assert false)
    @ List.map (fun f -> f (col alias "value")) extra
  in
  Sql.Exists
    {
      Sql.distinct = false;
      projections = [ Sql.Const Value.Null, "x" ];
      from = [ attr_table, alias ];
      where = Some (List.fold_left (fun a c -> Sql.And (a, c)) (List.hd conds) (List.tl conds));
      order_by = [];
    }

and translate_path_predicate env (node : node_ctx) (path : Ast.path) : Sql.expr =
  if path.Ast.absolute then translate_exists env node path []
  else begin
    let variants = Ppf.normalize_steps path.Ast.steps in
    let conds = List.map (translate_path_variant env node) variants in
    match conds with
    | [] -> Sql.Bool_const false
    | c :: cs -> List.fold_left (fun acc x -> Sql.Or (acc, x)) c cs
  end

and translate_path_variant env (node : node_ctx) (steps : Ast.step list) : Sql.expr =
  match steps with
  | [] -> Sql.Bool_const true
  | [ { Ast.axis = Ast.Attribute; test; predicates = [] } ] -> attr_exists env node test []
  | [ { Ast.axis = Ast.Child; test = Ast.Text; predicates = [] } ] ->
    Sql.Cmp (Sql.Ne, col node.alias "dtext", Sql.Const (Value.Str ""))
  | _ -> translate_exists env node { Ast.absolute = false; steps } []

and strip_final_value_step (steps : Ast.step list) =
  match List.rev steps with
  | { Ast.axis = Ast.Attribute; test; predicates = [] } :: rev_rest ->
    List.rev rev_rest, `Attr test
  | { Ast.axis = Ast.Child; test = Ast.Text; predicates = [] } :: rev_rest ->
    List.rev rev_rest, `Text
  | _ -> steps, `Element

and translate_exists env (node : node_ctx) (path : Ast.path)
    (extra : (Sql.expr -> Sql.expr) list) : Sql.expr =
  let start : branch =
    if path.Ast.absolute then empty_branch else { empty_branch with cur = Some node }
  in
  let variants = Ppf.normalize_steps path.Ast.steps in
  let sub_branches =
    List.concat_map
      (fun steps ->
        let steps, final_kind = strip_final_value_step steps in
        if steps = [] then [ (start, final_kind) ]
        else List.map (fun br -> br, final_kind) (translate_steps env start steps))
      variants
  in
  let conds =
    List.filter_map
      (fun ((sub : branch), final_kind) ->
        match sub.cur with
        | None -> None
        | Some final ->
          if sub.from_ = [] then begin
            match final_kind with
            | `Element ->
              let conds = List.map (fun f -> f (col final.alias "text")) extra in
              (match conds with
               | [] -> Some (Sql.Bool_const true)
               | c :: cs -> Some (List.fold_left (fun a x -> Sql.And (a, x)) c cs))
            | `Text ->
              let guard =
                Sql.Cmp (Sql.Ne, col final.alias "dtext", Sql.Const (Value.Str ""))
              in
              let conds = List.map (fun f -> f (col final.alias "dtext")) extra in
              Some (List.fold_left (fun a x -> Sql.And (a, x)) guard conds)
            | `Attr test -> Some (attr_exists env final test extra)
          end
          else begin
            let value_conds =
              match final_kind with
              | `Element -> List.map (fun f -> f (col final.alias "text")) extra
              | `Text ->
                Sql.Cmp (Sql.Ne, col final.alias "dtext", Sql.Const (Value.Str ""))
                :: List.map (fun f -> f (col final.alias "dtext")) extra
              | `Attr test -> [ attr_exists env final test extra ]
            in
            let all = List.rev sub.conj @ value_conds in
            Some
              (Sql.Exists
                 {
                   Sql.distinct = false;
                   projections = [ Sql.Const Value.Null, "x" ];
                   from = List.rev sub.from_;
                   where =
                     (match all with
                      | [] -> None
                      | c :: cs -> Some (List.fold_left (fun a x -> Sql.And (a, x)) c cs));
                   order_by = [];
                 })
          end)
      sub_branches
  in
  match conds with
  | [] -> Sql.Bool_const false
  | c :: cs -> List.fold_left (fun acc x -> Sql.Or (acc, x)) c cs

and as_value (node : node_ctx) (e : Ast.expr) : Sql.expr option =
  match e with
  | Ast.Literal s -> Some (Sql.Const (Value.Str s))
  | Ast.Number f -> Some (Sql.Const (Value.Float f))
  | Ast.Neg a ->
    Option.map (fun v -> Sql.Arith (Sql.Sub, Sql.Const (Value.Int 0), v)) (as_value node a)
  | Ast.Binop ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod) as op, a, b) ->
    (match as_value node a, as_value node b with
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
     | [ [] ] -> Some (col node.alias "text")
     | [ [ { Ast.axis = Ast.Child; test = Ast.Text; predicates = [] } ] ] ->
       Some (col node.alias "dtext")
     | _ -> None)
  | Ast.Fn_string_length a -> Option.map (fun v -> Sql.Length v) (as_value node a)
  | Ast.Path _ | Ast.Union _ | Ast.Binop _ | Ast.Fn_not _ | Ast.Fn_count _
  | Ast.Fn_position | Ast.Fn_last | Ast.Fn_contains _ | Ast.Fn_starts_with _ ->
    None

and translate_comparison env (node : node_ctx) (op : Ast.binop) (x : Ast.expr)
    (y : Ast.expr) : Sql.expr =
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
  let flip = function
    | Sql.Eq -> Sql.Eq
    | Sql.Ne -> Sql.Ne
    | Sql.Lt -> Sql.Gt
    | Sql.Le -> Sql.Ge
    | Sql.Gt -> Sql.Lt
    | Sql.Ge -> Sql.Le
  in
  match as_value node x, as_value node y with
  | Some ex, Some ey -> Sql.Cmp (sql_op, ex, ey)
  | Some ex, None ->
    (match y with
     | Ast.Path p -> translate_exists env node p [ (fun v -> Sql.Cmp (flip sql_op, v, ex)) ]
     | _ -> unsupported "unsupported comparison operand: %s" (Ast.to_string y))
  | None, Some ey ->
    (match x with
     | Ast.Path p -> translate_exists env node p [ (fun v -> Sql.Cmp (sql_op, v, ey)) ]
     | _ -> unsupported "unsupported comparison operand: %s" (Ast.to_string x))
  | None, None ->
    (match x, y with
     | Ast.Path px, Ast.Path py ->
       translate_exists env node px
         [
           (fun vx ->
             translate_exists env node py
               [
                 (fun vy ->
                   match sql_op with
                   | Sql.Eq | Sql.Ne -> Sql.Cmp (sql_op, vx, vy)
                   | Sql.Lt | Sql.Le | Sql.Gt | Sql.Ge ->
                     Sql.Cmp (sql_op, Sql.To_number vx, Sql.To_number vy));
               ]);
         ]
     | _ ->
       unsupported "unsupported comparison: %s vs %s" (Ast.to_string x) (Ast.to_string y))

let finalize ~values branches =
  let selects =
    List.filter_map
      (fun ((b : branch), kind) ->
        match b.cur with
        | None -> None
        | Some node ->
          let value, guards =
            match kind with
            | `Element -> col node.alias "text", []
            | `Text ->
              ( col node.alias "dtext",
                [ Sql.Cmp (Sql.Ne, col node.alias "dtext", Sql.Const (Value.Str "")) ] )
            | `Attr _ -> unsupported "attribute-final backbones are not supported"
          in
          let conjs = List.rev b.conj @ guards in
          if List.mem (Sql.Bool_const false) conjs then None else
          Some
            ( kind,
              {
                Sql.distinct = true;
                projections =
                  [ col node.alias "id", "id"; col node.alias "pre", "pre"; value, "value" ];
                from = List.rev b.from_;
                where =
                  (match conjs with
                   | [] -> None
                   | c :: cs -> Some (List.fold_left (fun a x -> Sql.And (a, x)) c cs));
                order_by = [ col node.alias "pre" ];
              } ))
      branches
  in
  (* As in [Translate.translate]: [value] only when asked for, or when a
     text() branch's value is its answer. *)
  let keep_value = values || List.exists (fun (kind, _) -> kind <> `Element) selects in
  let project (_, (s : Sql.select)) =
    if keep_value then s
    else { s with projections = List.filter (fun (_, name) -> name <> "value") s.projections }
  in
  match List.map project selects with
  | [] -> None
  | [ s ] -> Some (Sql.Select s)
  | ss -> Some (Sql.Union (List.map (fun s -> { s with Sql.order_by = [] }) ss, [ 1 ]))

let rec collect_paths (e : Ast.expr) : Ast.path list =
  match e with
  | Ast.Path p -> [ p ]
  | Ast.Union (a, b) -> collect_paths a @ collect_paths b
  | Ast.Binop _ | Ast.Neg _ | Ast.Literal _ | Ast.Number _ | Ast.Fn_not _ | Ast.Fn_count _
  | Ast.Fn_position | Ast.Fn_last | Ast.Fn_contains _ | Ast.Fn_starts_with _
  | Ast.Fn_string_length _ ->
    unsupported "top-level expression must be a path or a union of paths"

let translate ?(values = false) (e : Ast.expr) : Sql.statement option =
  let env = { counter = ref 0 } in
  let branches =
    List.concat_map
      (fun (path : Ast.path) ->
        List.concat_map
          (fun steps ->
            let steps, kind = strip_final_value_step steps in
            if steps = [] then []
            else
              List.map (fun b -> b, kind) (translate_steps env empty_branch steps))
          (Ppf.normalize_steps path.Ast.steps))
      (collect_paths e)
  in
  finalize ~values branches

let result_ids (r : Engine.result) =
  List.sort_uniq Int.compare
    (List.filter_map
       (fun row -> match row.(0) with Value.Int id -> Some id | _ -> None)
       r.Engine.rows)
