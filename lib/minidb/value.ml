type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bin of string

type ty = Tint | Tfloat | Tstr | Tbin

let type_of = function
  | Null -> None
  | Int _ -> Some Tint
  | Float _ -> Some Tfloat
  | Str _ -> Some Tstr
  | Bin _ -> Some Tbin

let rank = function Null -> 0 | Int _ | Float _ -> 1 | Str _ -> 2 | Bin _ -> 3

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Str s -> float_of_string_opt (String.trim s)
  | Null | Bin _ -> None

let compare_total a b =
  match a, b with
  | Null, Null -> 0
  | Int x, Int y -> Int.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Float x, Float y -> Float.compare x y
  | Str x, Str y -> String.compare x y
  | Bin x, Bin y -> String.compare x y
  | (Null | Int _ | Float _ | Str _ | Bin _), _ -> Int.compare (rank a) (rank b)

let equal a b = compare_total a b = 0

(* The comparison code of an unknown (three-valued) comparison. Every
   known comparison returns -1, 0 or 1. *)
let incomparable = min_int

(* [compare_sql] without the option: the executor compares on every row
   and probe, where a [Some] per comparison would allocate. *)
let compare_sql_code a b =
  match a, b with
  | Null, _ | _, Null -> incomparable
  | Int x, Int y -> Int.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Float x, Float y -> Float.compare x y
  | (Int _ | Float _), Str _ | Str _, (Int _ | Float _) ->
    (match to_float a, to_float b with
     | Some x, Some y -> Float.compare x y
     | None, _ | _, None -> incomparable)
  | Str x, Str y -> String.compare x y
  | Bin x, (Bin y | Str y) | Str x, Bin y -> String.compare x y
  | Bin _, (Int _ | Float _) | (Int _ | Float _), Bin _ -> incomparable

let compare_sql a b =
  let c = compare_sql_code a b in
  if c = incomparable then None else Some c

(* [String.compare x (String.sub y 0 ylen)] from byte [i] on, without the
   copy. Top-level loops taking every operand: without flambda a local
   [let rec] that captures variables is a closure built on each call. *)
let rec compare_sub x y ylen i =
  if i >= String.length x then if i >= ylen then 0 else -1
  else if i >= ylen then 1
  else
    let a = String.unsafe_get x i and b = String.unsafe_get y i in
    if Char.equal a b then compare_sub x y ylen (i + 1) else if a < b then -1 else 1

(* [String.compare x (p ^ q)] from byte [i] on, without the copy. *)
let rec compare_cat x p q i =
  let lp = String.length p in
  if i >= String.length x then if i >= lp + String.length q then 0 else -1
  else if i >= lp + String.length q then 1
  else
    let a = String.unsafe_get x i in
    let b = if i < lp then String.unsafe_get p i else String.unsafe_get q (i - lp) in
    if Char.equal a b then compare_cat x p q (i + 1) else if a < b then -1 else 1

let compare_total_bin_prefix v s len =
  match v with
  | Bin x -> compare_sub x s len 0
  | Null | Int _ | Float _ | Str _ -> Int.compare (rank v) 3

(* The one canonical numeric rendering, shared by [concat], [text] and the
   engine's REGEXP_LIKE operand coercion. Matches the XPath evaluator's
   number-to-string convention (and Oracle's TO_CHAR on integral values):
   integral floats print without a trailing dot — [string_of_float 3.0]
   would render "3.", which no regex written against TO_CHAR output
   expects to see. *)
let float_text f =
  if Float.is_nan f then "NaN"
  else if Float.is_integer f && Float.abs f < 1e15 then
    string_of_int (int_of_float f)
  else string_of_float f

let text = function
  | Null -> None
  | Int i -> Some (string_of_int i)
  | Float f -> Some (float_text f)
  | Str s | Bin s -> Some s

let concat a b =
  match a, b with
  | Null, _ | _, Null -> Null
  | (Int _ | Float _ | Str _ | Bin _), (Int _ | Float _ | Str _ | Bin _) ->
    let s = function
      | Int i -> string_of_int i
      | Float f -> float_text f
      | Str s | Bin s -> s
      | Null -> assert false
    in
    let binary = function Bin _ -> true | Null | Int _ | Float _ | Str _ -> false in
    if binary a || binary b then Bin (s a ^ s b) else Str (s a ^ s b)

(* With all three operands strings or binaries, the concatenation is one
   of them and compares bytewise against [v] whatever the tags: compare in
   place. Anything else (a NULL, a number, a numeric coercion) is rare
   and takes the exact path through [concat]. *)
let compare_total_concat v a b =
  match a, b with
  | (Str p | Bin p), (Str q | Bin q) ->
    let cat_rank = match a, b with Str _, Str _ -> 2 | _ -> 3 in
    (match v with
     | Str x when cat_rank = 2 -> compare_cat x p q 0
     | Bin x when cat_rank = 3 -> compare_cat x p q 0
     | Null | Int _ | Float _ | Str _ | Bin _ -> Int.compare (rank v) cat_rank)
  | _ -> compare_total v (concat a b)

let compare_sql_concat v a b =
  match v, a, b with
  | (Str x | Bin x), (Str p | Bin p), (Str q | Bin q) -> compare_cat x p q 0
  | _ -> compare_sql_code v (concat a b)

let pp ppf = function
  | Null -> Format.pp_print_string ppf "NULL"
  | Int i -> Format.pp_print_int ppf i
  | Float f -> Format.fprintf ppf "%g" f
  | Str s -> Format.fprintf ppf "'%s'" (String.concat "''" (String.split_on_char '\'' s))
  | Bin b ->
    Format.pp_print_string ppf "x'";
    String.iter (fun c -> Format.fprintf ppf "%02X" (Char.code c)) b;
    Format.pp_print_string ppf "'"

let to_string v = Format.asprintf "%a" pp v

let pp_ty ppf ty =
  Format.pp_print_string ppf
    (match ty with
     | Tint -> "INTEGER"
     | Tfloat -> "FLOAT"
     | Tstr -> "VARCHAR"
     | Tbin -> "RAW")
