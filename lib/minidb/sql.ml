type cmp = Eq | Ne | Lt | Le | Gt | Ge

type arith = Add | Sub | Mul | Div | Mod

type expr =
  | Col of string * string
  | Const of Value.t
  | Cmp of cmp * expr * expr
  | Between of expr * expr * expr
  | And of expr * expr
  | Or of expr * expr
  | Not of expr
  | Concat of expr * expr
  | Regexp_like of expr * string
  | Exists of select
  | Arith of arith * expr * expr
  | To_number of expr
  | Length of expr
  | Is_not_null of expr
  | Bool_const of bool
  | Count_subquery of select

and select = {
  distinct : bool;
  projections : (expr * string) list;
  from : (string * string) list;
  where : expr option;
  order_by : expr list;
}

type statement =
  | Select of select
  | Select_count of select
  | Union of select list * int list

let and_opt where cond =
  match where with
  | None -> Some cond
  | Some w -> Some (And (w, cond))

let rec conjuncts = function
  | And (a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let rec simplify = function
  | And (a, b) ->
    (match simplify a, simplify b with
     | Bool_const true, x | x, Bool_const true -> x
     | Bool_const false, _ | _, Bool_const false -> Bool_const false
     | a, b -> And (a, b))
  | Or (a, b) ->
    (match simplify a, simplify b with
     | Bool_const false, x | x, Bool_const false -> x
     | Bool_const true, _ | _, Bool_const true -> Bool_const true
     | a, b -> Or (a, b))
  | Not a ->
    (match simplify a with
     | Bool_const b -> Bool_const (not b)
     | a -> Not a)
  | Exists sel -> Exists { sel with where = Option.map simplify sel.where }
  | Count_subquery sel -> Count_subquery { sel with where = Option.map simplify sel.where }
  | ( Col _ | Const _ | Cmp _ | Between _ | Concat _ | Regexp_like _ | Arith _
    | To_number _ | Length _ | Is_not_null _ | Bool_const _ ) as e ->
    e

module Sset = Set.Make (String)

(* The immediate sub-expressions, not entering sub-selects. *)
let children = function
  | Col _ | Const _ | Bool_const _ | Exists _ | Count_subquery _ -> []
  | Cmp (_, a, b) | Arith (_, a, b) | Concat (a, b) | And (a, b) | Or (a, b) -> [ a; b ]
  | Between (a, b, c) -> [ a; b; c ]
  | Not a | To_number a | Length a | Is_not_null a | Regexp_like (a, _) -> [ a ]

let rec fold f acc e = List.fold_left (fold f) (f acc e) (children e)

let rec free_set bound = function
  | Col (alias, _) -> if Sset.mem alias bound then Sset.empty else Sset.singleton alias
  | Exists sel | Count_subquery sel -> free_set_select bound sel
  | e -> List.fold_left (fun acc x -> Sset.union acc (free_set bound x)) Sset.empty (children e)

and free_set_select bound sel =
  let bound = List.fold_left (fun acc (_, alias) -> Sset.add alias acc) bound sel.from in
  let of_opt = function None -> Sset.empty | Some e -> free_set bound e in
  List.fold_left
    (fun acc (e, _) -> Sset.union acc (free_set bound e))
    (Sset.union (of_opt sel.where)
       (List.fold_left (fun acc e -> Sset.union acc (free_set bound e)) Sset.empty
          sel.order_by))
    sel.projections

let free_aliases e = Sset.elements (free_set Sset.empty e)

let cmp_symbol = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let arith_symbol = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "MOD"

(* Precedences for parenthesisation: Or=1, And=2, Not=3, comparisons=4,
   additive=5, multiplicative=6, concat=7, atoms=8. *)
let rec pp_prec prec ppf e =
  let open Format in
  let paren p body = if prec > p then fprintf ppf "(%t)" body else body ppf in
  match e with
  | Col (alias, col) -> fprintf ppf "%s.%s" alias col
  | Const v -> Value.pp ppf v
  | Cmp (op, a, b) ->
    paren 4 (fun ppf ->
        fprintf ppf "%a %s %a" (pp_prec 5) a (cmp_symbol op) (pp_prec 5) b)
  | Between (e, lo, hi) ->
    paren 4 (fun ppf ->
        fprintf ppf "%a BETWEEN %a AND %a" (pp_prec 5) e (pp_prec 5) lo (pp_prec 5) hi)
  | And (a, b) ->
    paren 2 (fun ppf -> fprintf ppf "%a AND %a" (pp_prec 2) a (pp_prec 2) b)
  | Or (a, b) -> paren 1 (fun ppf -> fprintf ppf "%a OR %a" (pp_prec 1) a (pp_prec 1) b)
  | Not a -> paren 3 (fun ppf -> fprintf ppf "NOT %a" (pp_prec 4) a)
  | Concat (a, b) ->
    paren 7 (fun ppf -> fprintf ppf "%a || %a" (pp_prec 7) a (pp_prec 8) b)
  | Regexp_like (e, pat) ->
    fprintf ppf "REGEXP_LIKE(%a, '%s')" (pp_prec 0) e
      (String.concat "''" (String.split_on_char '\'' pat))
  | Exists sel -> fprintf ppf "EXISTS (%a)" pp_select sel
  | Count_subquery sel ->
    fprintf ppf "(SELECT COUNT(*) FROM %a"
      (pp_print_list
         ~pp_sep:(fun ppf () -> pp_print_string ppf ", ")
         (fun ppf (table, alias) ->
           if String.equal table alias then pp_print_string ppf table
           else fprintf ppf "%s %s" table alias))
      sel.from;
    (match sel.where with
     | None -> ()
     | Some w -> fprintf ppf " WHERE %a" (pp_prec 0) w);
    pp_print_string ppf ")"
  | Arith ((Mod as op), a, b) ->
    fprintf ppf "%s(%a, %a)" (arith_symbol op) (pp_prec 0) a (pp_prec 0) b
  | Arith ((Add | Sub) as op, a, b) ->
    paren 5 (fun ppf ->
        fprintf ppf "%a %s %a" (pp_prec 5) a (arith_symbol op) (pp_prec 6) b)
  | Arith ((Mul | Div) as op, a, b) ->
    paren 6 (fun ppf ->
        fprintf ppf "%a %s %a" (pp_prec 6) a (arith_symbol op) (pp_prec 7) b)
  | To_number a -> fprintf ppf "TO_NUMBER(%a)" (pp_prec 0) a
  | Length a -> fprintf ppf "LENGTH(%a)" (pp_prec 0) a
  | Is_not_null a -> paren 4 (fun ppf -> fprintf ppf "%a IS NOT NULL" (pp_prec 5) a)
  | Bool_const b -> pp_print_string ppf (if b then "1=1" else "1=0")

and pp_select ppf sel =
  let open Format in
  fprintf ppf "SELECT %s%a FROM %a"
    (if sel.distinct then "DISTINCT " else "")
    (pp_print_list
       ~pp_sep:(fun ppf () -> pp_print_string ppf ", ")
       (fun ppf (e, name) ->
         match e with
         | Col (_, col) when String.equal col name -> pp_prec 0 ppf e
         | Const Value.Null -> pp_print_string ppf "NULL"
         | e -> fprintf ppf "%a AS %s" (pp_prec 0) e name))
    sel.projections
    (pp_print_list
       ~pp_sep:(fun ppf () -> pp_print_string ppf ", ")
       (fun ppf (table, alias) ->
         if String.equal table alias then pp_print_string ppf table
         else fprintf ppf "%s %s" table alias))
    sel.from;
  (match sel.where with
   | None -> ()
   | Some w -> fprintf ppf " WHERE %a" (pp_prec 0) w);
  match sel.order_by with
  | [] -> ()
  | order ->
    fprintf ppf " ORDER BY %a"
      (pp_print_list ~pp_sep:(fun ppf () -> pp_print_string ppf ", ") (pp_prec 0))
      order

let pp_expr ppf e = pp_prec 0 ppf e

let pp_statement ppf = function
  | Select sel -> pp_select ppf sel
  | Select_count sel ->
    Format.fprintf ppf "SELECT COUNT(*) FROM %a"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf (table, alias) ->
           if String.equal table alias then Format.pp_print_string ppf table
           else Format.fprintf ppf "%s %s" table alias))
      sel.from;
    (match sel.where with
     | None -> ()
     | Some w -> Format.fprintf ppf " WHERE %a" (pp_prec 0) w)
  | Union (branches, order_cols) ->
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " UNION ")
      pp_select ppf branches;
    (match order_cols, branches with
     | [], _ | _, [] -> ()
     | cols, first :: _ ->
       Format.fprintf ppf " ORDER BY %s"
         (String.concat ", "
            (List.map (fun i -> snd (List.nth first.projections i)) cols)))

let to_string stmt = Format.asprintf "%a" pp_statement stmt
