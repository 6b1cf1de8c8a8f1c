module Ast = Ppfx_xpath.Ast
module Regex = Ppfx_regex.Regex

type seg = {
  desc : bool;
  name : string option;
}

let seg_of_step (step : Ast.step) =
  let name =
    match step.Ast.test with
    | Ast.Name n -> Some (Some n)
    | Ast.Wildcard | Ast.Any_node -> Some None
    | Ast.Text -> None
  in
  match name, step.Ast.axis with
  | Some name, Ast.Child -> Some { desc = false; name }
  | Some name, Ast.Descendant -> Some { desc = true; name }
  | _, _ -> None

let name_pattern = function
  | Some n -> Regex.quote n
  | None -> "[^/]+"

let forward ~anchored segs =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (if anchored then "^" else "^.*");
  List.iteri
    (fun i seg ->
      (* The first segment of an unanchored chain is a descendant segment;
         its arbitrary-depth prefix is already covered by the ".*". *)
      if seg.desc && not ((not anchored) && i = 0) then Buffer.add_string buf "/(.+/)?"
      else Buffer.add_char buf '/';
      Buffer.add_string buf (name_pattern seg.name))
    segs;
  Buffer.add_char buf '$';
  Buffer.contents buf

let backward ~context steps =
  (* Build right-to-left: the context's own tag ends the path; each
     parent step prepends an adjacent segment, each ancestor step a
     segment followed by an arbitrary gap. *)
  let tail = "/" ^ name_pattern context ^ "$" in
  let pattern =
    List.fold_left
      (fun acc (axis, name) ->
        match axis with
        | Ast.Parent -> "/" ^ name_pattern name ^ acc
        | Ast.Ancestor -> "/" ^ name_pattern name ^ "(/.+)?" ^ acc
        | Ast.Ancestor_or_self | Ast.Child | Ast.Descendant | Ast.Descendant_or_self
        | Ast.Self | Ast.Following | Ast.Following_sibling | Ast.Preceding
        | Ast.Preceding_sibling | Ast.Attribute ->
          invalid_arg "Regex_of_path.backward: not a parent/ancestor step")
      tail steps
  in
  "^.*" ^ pattern

let ends_with name = "^(.*/)?" ^ Regex.quote name ^ "$"

let fixed_depth segs = List.for_all (fun s -> not s.desc) segs
