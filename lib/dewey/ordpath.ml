type t = string

exception Invalid of string

let invalid fmt = Format.kasprintf (fun msg -> raise (Invalid msg)) fmt

let component_bytes = 3

let component_min = -0x3FFFFF

let component_max = 0x3FFFFF

(* Components are stored with a +0x400000 offset so that the encoded
   bytes compare in component order and the top bit stays clear. *)
let offset = 0x400000

let encode_component buf c =
  if c < component_min || c > component_max then
    invalid "ordpath component %d out of range" c;
  let v = c + offset in
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0x7F));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr (v land 0xFF))

let of_components = function
  | [] -> invalid "empty ordpath component vector"
  | components ->
    (match List.rev components with
     | last :: _ when last land 1 = 0 -> invalid "ordpath labels must end with an odd component"
     | _ -> ());
    let buf = Buffer.create (component_bytes * List.length components) in
    List.iter (encode_component buf) components;
    Buffer.contents buf

let root = of_components [ 1 ]

let to_components t =
  let n = String.length t in
  if n = 0 || n mod component_bytes <> 0 then invalid "malformed ordpath encoding";
  List.init (n / component_bytes) (fun i ->
      let b k = Char.code t.[(i * component_bytes) + k] in
      if b 0 land 0x80 <> 0 then invalid "ordpath component with top bit set";
      ((b 0 lsl 16) lor (b 1 lsl 8) lor b 2) - offset)

let child t i =
  if i < 1 then invalid "child ordinal must be >= 1";
  let buf = Buffer.create (String.length t + component_bytes) in
  Buffer.add_string buf t;
  encode_component buf ((2 * i) - 1);
  Buffer.contents buf

let is_odd c = c land 1 = 1 || c land 1 = -1

let level t = List.length (List.filter is_odd (to_components t))

let compare = String.compare

let max_suffix = "\xFF"

let upper_bound t = t ^ max_suffix

let is_descendant d ~of_:a = String.compare d a > 0 && String.compare d (upper_bound a) < 0

let is_following n2 ~of_:n1 = String.compare n2 (upper_bound n1) > 0

let is_preceding n2 ~of_:n1 = String.compare n1 (upper_bound n2) > 0

let parent t =
  match List.rev (to_components t) with
  | [] -> None
  | _odd :: rest ->
    (* strip the careting (even) components that preceded the final odd *)
    let rec strip = function
      | c :: more when not (is_odd c) -> strip more
      | remaining -> remaining
    in
    (match strip rest with
     | [] -> None
     | remaining -> Some (of_components (List.rev remaining)))

(* The position part of a label relative to its parent: the final odd
   component plus the careting components before it. *)
let split_tail t =
  let rec take_tail acc = function
    | c :: rest when not (is_odd c) -> take_tail (c :: acc) rest
    | rest -> List.rev rest, acc
  in
  match List.rev (to_components t) with
  | [] -> invalid "empty label"
  | last :: before -> take_tail [ last ] before

(* A fresh odd component strictly after the tail [x :: _]. *)
let rec after_tail = function
  | [] -> [ 1 ]
  | x :: _ -> [ (if is_odd x then x + 2 else x + 1) ]

(* A fresh odd component strictly before the tail [y :: _]. *)
and before_tail = function
  | [] -> invalid "before an empty tail"
  | y :: _ -> [ (if is_odd y then y - 2 else y - 1) ]

(* A tail strictly between [ta] and [tb] (ta < tb component-wise). *)
and between_tails ta tb =
  match ta, tb with
  | [], tb -> before_tail tb
  | ta, [] -> after_tail ta
  | x :: ra, y :: rb ->
    if x = y then x :: between_tails ra rb
    else begin
      (* x < y *)
      let odd_between =
        let o1 = x + 1 and o2 = x + 2 in
        if is_odd o1 && o1 < y then Some o1
        else if is_odd o2 && o2 < y then Some o2
        else None
      in
      match odd_between with
      | Some o -> [ o ]
      | None ->
        let even_between =
          let e1 = x + 1 and e2 = x + 2 in
          if (not (is_odd e1)) && e1 < y then Some e1
          else if (not (is_odd e2)) && e2 < y then Some e2
          else None
        in
        (match even_between with
         | Some e -> [ e; 1 ]
         | None ->
           (* y = x + 1 *)
           if not (is_odd x) then x :: after_tail ra
           else y :: before_tail rb)
    end

let insert_between a b =
  match a, b with
  | None, None -> invalid "insert_between: no reference siblings"
  | Some a, None ->
    let prefix, tail = split_tail a in
    of_components (prefix @ after_tail tail)
  | None, Some b ->
    let prefix, tail = split_tail b in
    of_components (prefix @ before_tail tail)
  | Some a, Some b ->
    if String.compare a b >= 0 then invalid "insert_between: left label must precede right";
    let pa, ta = split_tail a in
    let pb, tb = split_tail b in
    if pa <> pb then invalid "insert_between: labels are not siblings";
    of_components (pa @ between_tails ta tb)

let to_raw t = t

let of_raw s =
  (* Validate by decoding: raises {!Invalid} on malformed bytes. A raw
     label may legitimately end in a careting run only as an internal
     prefix of stored bytes, so enforce the odd-last invariant too. *)
  (match List.rev (to_components s) with
   | last :: _ when not (is_odd last) ->
     invalid "ordpath labels must end with an odd component"
   | _ -> ());
  s

(* [p]'s bytes, then careting (even) components, then one odd one. The
   offset is even, so a component's parity is that of its last byte. *)
let child_of_raw s ~parent:p =
  let n = String.length s and m = String.length p in
  if n <= m || (n - m) mod component_bytes <> 0 || not (String.starts_with ~prefix:p s)
  then invalid "label is not a child of its parent's";
  let i = ref m in
  while !i < n do
    if Char.code s.[!i] land 0x80 <> 0 then invalid "ordpath component with top bit set";
    let odd = Char.code s.[!i + 2] land 1 = 1 in
    if odd <> (!i + component_bytes = n) then invalid "label is not a child of its parent's";
    i := !i + component_bytes
  done;
  s

let to_dotted t = String.concat "." (List.map string_of_int (to_components t))

let pp ppf t = Format.pp_print_string ppf (to_dotted t)
