(* Entries are stored with the row id appended as a final key component, so
   every stored key is unique and duplicate user keys order by row id. *)

type entry = Value.t array

type node =
  | Leaf of leaf
  | Internal of internal

and leaf = {
  mutable entries : entry array;
  mutable next : leaf option;
}

and internal = {
  mutable seps : entry array;  (** separator keys; child [i] < seps.(i) <= child [i+1] *)
  mutable children : node array;
}

type t = {
  mutable root : node;
  mutable count : int;
  order : int;
  key_width : int;  (** user key width, excluding the row-id component *)
}

let create ?(order = 32) ~width () =
  if order < 4 then invalid_arg "Btree.create: order must be >= 4";
  if width < 1 then invalid_arg "Btree.create: width must be >= 1";
  { root = Leaf { entries = [||]; next = None }; count = 0; order; key_width = width }

let width t = t.key_width

let length t = t.count

(* Compare the first [n] components of [a] and [b] from [i] on. Compare
   loops are top-level functions taking every operand: without flambda a
   local [let rec] that captures variables is a closure built on each
   call, and a descent makes about twenty of these comparisons. *)
let rec compare_from (a : entry) (b : Value.t array) i n =
  if i >= n then 0
  else
    match Value.compare_total a.(i) b.(i) with
    | 0 -> compare_from a b (i + 1) n
    | c -> c

(* Compare two full stored entries (equal length: width + 1). *)
let compare_entries (a : entry) (b : entry) = compare_from a b 0 (Array.length a)

(* Compare a stored entry against a (possibly shorter) prefix bound. *)
let compare_to_prefix (e : entry) (prefix : Value.t array) =
  compare_from e prefix 0 (Array.length prefix)

let row_of (e : entry) =
  match e.(Array.length e - 1) with
  | Value.Int r -> r
  | Value.Null | Value.Float _ | Value.Str _ | Value.Bin _ -> assert false

(* Index of the first entry in [arr] that is >= [e]; length if none. *)
let lower_bound arr cmp e =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cmp arr.(mid) e < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let array_insert arr i x =
  let n = Array.length arr in
  let out = Array.make (n + 1) x in
  Array.blit arr 0 out 0 i;
  Array.blit arr i out (i + 1) (n - i);
  out

(* Route within an internal node: the child whose range contains [e]. *)
let child_index node e =
  let i = lower_bound node.seps compare_entries e in
  (* seps.(i) <= e goes right of separator i. *)
  if i < Array.length node.seps && compare_entries node.seps.(i) e <= 0 then i + 1 else i

let rec insert_node t node entry =
  match node with
  | Leaf leaf ->
    let i = lower_bound leaf.entries compare_entries entry in
    leaf.entries <- array_insert leaf.entries i entry;
    if Array.length leaf.entries > t.order then begin
      let n = Array.length leaf.entries in
      let mid = n / 2 in
      let right_entries = Array.sub leaf.entries mid (n - mid) in
      leaf.entries <- Array.sub leaf.entries 0 mid;
      let right = { entries = right_entries; next = leaf.next } in
      leaf.next <- Some right;
      Some (right_entries.(0), Leaf right)
    end
    else None
  | Internal inode ->
    let ci = child_index inode entry in
    (match insert_node t inode.children.(ci) entry with
     | None -> None
     | Some (sep, right) ->
       inode.seps <- array_insert inode.seps ci sep;
       inode.children <- array_insert inode.children (ci + 1) right;
       if Array.length inode.children > t.order then begin
         let n = Array.length inode.seps in
         let mid = n / 2 in
         let up = inode.seps.(mid) in
         let right_node =
           {
             seps = Array.sub inode.seps (mid + 1) (n - mid - 1);
             children = Array.sub inode.children (mid + 1) (n - mid);
           }
         in
         inode.seps <- Array.sub inode.seps 0 mid;
         inode.children <- Array.sub inode.children 0 (mid + 1);
         Some (up, Internal right_node)
       end
       else None)

let insert t key row =
  if Array.length key <> t.key_width then
    invalid_arg
      (Printf.sprintf "Btree.insert: key width %d, expected %d" (Array.length key)
         t.key_width);
  let entry = Array.append key [| Value.Int row |] in
  (match insert_node t t.root entry with
   | None -> ()
   | Some (sep, right) ->
     t.root <- Internal { seps = [| sep |]; children = [| t.root; right |] });
  t.count <- t.count + 1

let array_remove arr i =
  let n = Array.length arr in
  let out = Array.make (n - 1) arr.(0) in
  Array.blit arr 0 out 0 i;
  Array.blit arr (i + 1) out i (n - i - 1);
  out

(* Deletion with borrow/merge rebalancing. The minimum occupancy matches
   check_invariants: order/2 entries for leaves, order/2 children for
   internal nodes (root excepted). *)
let delete t key row =
  if Array.length key <> t.key_width then
    invalid_arg
      (Printf.sprintf "Btree.delete: key width %d, expected %d" (Array.length key)
         t.key_width);
  let entry = Array.append key [| Value.Int row |] in
  let min_leaf = t.order / 2 and min_children = t.order / 2 in
  let leaf_underfull leaf = Array.length leaf.entries < min_leaf in
  let node_underfull = function
    | Leaf leaf -> leaf_underfull leaf
    | Internal inode -> Array.length inode.children < min_children
  in
  (* Rebalance the underfull child at index [ci] of [inode] by borrowing
     from or merging with an adjacent sibling. *)
  let fix_child (inode : internal) ci =
    let merge_at li =
      (* merge children li and li+1 *)
      let sep = inode.seps.(li) in
      (match inode.children.(li), inode.children.(li + 1) with
       | Leaf left, Leaf right ->
         left.entries <- Array.append left.entries right.entries;
         left.next <- right.next
       | Internal left, Internal right ->
         left.seps <- Array.concat [ left.seps; [| sep |]; right.seps ];
         left.children <- Array.append left.children right.children
       | Leaf _, Internal _ | Internal _, Leaf _ -> assert false);
      inode.seps <- array_remove inode.seps li;
      inode.children <- array_remove inode.children (li + 1)
    in
    let borrow_from_left li =
      (* move the tail of children.(li) to the head of children.(li+1) *)
      match inode.children.(li), inode.children.(li + 1) with
      | Leaf left, Leaf right ->
        let n = Array.length left.entries in
        let moved = left.entries.(n - 1) in
        left.entries <- Array.sub left.entries 0 (n - 1);
        right.entries <- Array.append [| moved |] right.entries;
        inode.seps.(li) <- moved
      | Internal left, Internal right ->
        let nc = Array.length left.children in
        let moved_child = left.children.(nc - 1) in
        let moved_sep = left.seps.(Array.length left.seps - 1) in
        left.children <- Array.sub left.children 0 (nc - 1);
        left.seps <- Array.sub left.seps 0 (Array.length left.seps - 1);
        right.children <- Array.append [| moved_child |] right.children;
        right.seps <- Array.append [| inode.seps.(li) |] right.seps;
        inode.seps.(li) <- moved_sep
      | Leaf _, Internal _ | Internal _, Leaf _ -> assert false
    in
    let borrow_from_right li =
      (* move the head of children.(li+1) to the tail of children.(li) *)
      match inode.children.(li), inode.children.(li + 1) with
      | Leaf left, Leaf right ->
        let moved = right.entries.(0) in
        right.entries <- array_remove right.entries 0;
        left.entries <- Array.append left.entries [| moved |];
        inode.seps.(li) <- right.entries.(0)
      | Internal left, Internal right ->
        let moved_child = right.children.(0) in
        let moved_sep = right.seps.(0) in
        right.children <- array_remove right.children 0;
        right.seps <- array_remove right.seps 0;
        left.children <- Array.append left.children [| moved_child |];
        left.seps <- Array.append left.seps [| inode.seps.(li) |];
        inode.seps.(li) <- moved_sep
      | Leaf _, Internal _ | Internal _, Leaf _ -> assert false
    in
    let spare = function
      | Leaf leaf -> Array.length leaf.entries > min_leaf
      | Internal i -> Array.length i.children > min_children
    in
    if ci > 0 && spare inode.children.(ci - 1) then borrow_from_left (ci - 1)
    else if ci < Array.length inode.children - 1 && spare inode.children.(ci + 1) then
      borrow_from_right ci
    else if ci > 0 then merge_at (ci - 1)
    else merge_at ci
  in
  let rec del node =
    match node with
    | Leaf leaf ->
      let i = lower_bound leaf.entries compare_entries entry in
      if i < Array.length leaf.entries && compare_entries leaf.entries.(i) entry = 0
      then begin
        leaf.entries <- array_remove leaf.entries i;
        true
      end
      else false
    | Internal inode ->
      let ci = child_index inode entry in
      let removed = del inode.children.(ci) in
      if removed && node_underfull inode.children.(ci) then fix_child inode ci;
      removed
  in
  let removed = del t.root in
  if removed then begin
    t.count <- t.count - 1;
    (* Collapse a root with a single child. *)
    match t.root with
    | Internal inode when Array.length inode.children = 1 ->
      t.root <- inode.children.(0)
    | Internal _ | Leaf _ -> ()
  end;
  removed

type bound = { key : Value.t array; inclusive : bool; suffix : Value.t option }

(* Compare a stored entry against a bound; with a suffix, the bound's
   last component is its concatenation with the suffix. *)
let compare_to_bound (e : entry) b =
  match b.suffix with
  | None -> compare_to_prefix e b.key
  | Some sfx ->
    let n = Array.length b.key in
    (match compare_from e b.key 0 (n - 1) with
     | 0 -> Value.compare_total_concat e.(n - 1) b.key.(n - 1) sfx
     | c -> c)

(* Whether entry (or separator) [e] lies past the low bound [b]. *)
let past_lo e b =
  let c = compare_to_bound e b in
  if b.inclusive then c >= 0 else c > 0

let within_hi e = function
  | None -> true
  | Some b ->
    let c = compare_to_bound e b in
    if b.inclusive then c <= 0 else c < 0

(* Index of the first element of [arr] past the low bound: the bound is
   monotone in key order, so one binary search serves separators and
   leaf entries alike. *)
let first_past (arr : entry array) b =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if past_lo arr.(mid) b then hi := mid else lo := mid + 1
  done;
  !lo

(* The leaf holding the first entry past [b]: child [i] holds the
   entries below separator [i], and every entry below a separator that
   is not past [b] is not past it either. *)
let rec descend node b =
  match node with
  | Leaf leaf -> leaf
  | Internal inode -> descend inode.children.(first_past inode.seps b) b

let rec leftmost_leaf = function
  | Leaf leaf -> leaf
  | Internal inode -> leftmost_leaf inode.children.(0)

(* Hand [f] the row ids from entry [i] of [leaf] on while they are
   within [hi]. *)
let rec walk_to leaf i hi f =
  let entries = leaf.entries in
  if i < Array.length entries then begin
    let e = entries.(i) in
    if within_hi e hi then begin
      f (row_of e);
      walk_to leaf (i + 1) hi f
    end
  end
  else match leaf.next with Some next -> walk_to next 0 hi f | None -> ()

(* The first entry past [b] may sit in a later leaf than the descent
   reached when an exclusive bound's equal entries span leaves. *)
let rec walk_from leaf b hi f =
  let i = first_past leaf.entries b in
  if i < Array.length leaf.entries then walk_to leaf i hi f
  else match leaf.next with Some next -> walk_from next b hi f | None -> ()

let iter_range t ~lo ~hi f =
  match lo with
  | None -> walk_to (leftmost_leaf t.root) 0 hi f
  | Some b -> walk_from (descend t.root b) b hi f

let find_equal t key =
  let b = Some { key; inclusive = true; suffix = None } in
  let acc = ref [] in
  iter_range t ~lo:b ~hi:b (fun id -> acc := id :: !acc);
  List.rev !acc

(* Prefix probes: the entries whose first component is [Bin] of the
   first [len] bytes of [s], compared in place. *)
let first_bin (arr : entry array) s len =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Value.compare_total_bin_prefix arr.(mid).(0) s len >= 0 then hi := mid
    else lo := mid + 1
  done;
  !lo

let rec descend_bin node s len =
  match node with
  | Leaf leaf -> leaf
  | Internal inode -> descend_bin inode.children.(first_bin inode.seps s len) s len

let rec walk_bin leaf i s len f =
  let entries = leaf.entries in
  if i < Array.length entries then begin
    let e = entries.(i) in
    if Value.compare_total_bin_prefix e.(0) s len = 0 then begin
      f (row_of e);
      walk_bin leaf (i + 1) s len f
    end
  end
  else match leaf.next with Some next -> walk_bin next 0 s len f | None -> ()

let iter_bin_prefix t s len f =
  let leaf = descend_bin t.root s len in
  walk_bin leaf (first_bin leaf.entries s len) s len f

(* Index of the first entry in [arr] whose first component is >= [v]. No
   closure and no key array: the declared-key check runs this on every
   insert. *)
let lower_bound_first (arr : entry array) v =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Value.compare_total arr.(mid).(0) v < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let rec first_leaf node v =
  match node with
  | Leaf leaf -> leaf
  | Internal inode -> first_leaf inode.children.(lower_bound_first inode.seps v) v

let rec first_in_leaf leaf v =
  let i = lower_bound_first leaf.entries v in
  if i < Array.length leaf.entries then
    let e = leaf.entries.(i) in
    if Value.compare_total e.(0) v = 0 then Some (row_of e) else None
  else match leaf.next with Some next -> first_in_leaf next v | None -> None

let find_first t v = first_in_leaf (first_leaf t.root v) v

let rec walk_all f leaf =
  Array.iter (fun e -> f (Array.sub e 0 (Array.length e - 1)) (row_of e)) leaf.entries;
  match leaf.next with Some next -> walk_all f next | None -> ()

let iter f t = walk_all f (leftmost_leaf t.root)

let rec walk_ids f leaf =
  let entries = leaf.entries in
  for i = 0 to Array.length entries - 1 do
    f (row_of entries.(i))
  done;
  match leaf.next with Some next -> walk_ids f next | None -> ()

let iter_ids f t = walk_ids f (leftmost_leaf t.root)

let depth t =
  let rec go = function
    | Leaf _ -> 1
    | Internal inode -> 1 + go inode.children.(0)
  in
  go t.root

let check_invariants t =
  let exception Bad of string in
  let fail fmt = Format.kasprintf (fun m -> raise (Bad m)) fmt in
  (* Every node except the root must be at least half full; entries sorted;
     children ranges respect separators; all leaves at equal depth and
     linked left-to-right. *)
  let leaves = ref [] in
  let rec check node ~is_root ~depth_ =
    (match node with
     | Leaf leaf ->
       if (not is_root) && Array.length leaf.entries < t.order / 2 then
         fail "underfull leaf (%d entries)" (Array.length leaf.entries);
       Array.iteri
         (fun i e ->
           if i > 0 && compare_entries leaf.entries.(i - 1) e >= 0 then
             fail "leaf entries out of order")
         leaf.entries;
       leaves := (leaf, depth_) :: !leaves
     | Internal inode ->
       if Array.length inode.children <> Array.length inode.seps + 1 then
         fail "internal arity mismatch";
       if (not is_root) && Array.length inode.children < t.order / 2 then
         fail "underfull internal node";
       Array.iteri
         (fun i sep ->
           if i > 0 && compare_entries inode.seps.(i - 1) sep >= 0 then
             fail "separators out of order";
           ignore sep)
         inode.seps;
       Array.iter (fun c -> check c ~is_root:false ~depth_:(depth_ + 1)) inode.children)
  in
  (try
     check t.root ~is_root:true ~depth_:1;
     (match !leaves with
      | [] -> ()
      | (_, d0) :: rest ->
        List.iter (fun (_, d) -> if d <> d0 then fail "leaves at unequal depth") rest);
     (* The linked list must visit every entry in global order. *)
     let total = ref 0 in
     let prev = ref None in
     let rec walk leaf =
       Array.iter
         (fun e ->
           (match !prev with
            | Some p when compare_entries p e >= 0 -> fail "linked leaves out of order"
            | Some _ | None -> ());
           prev := Some e;
           incr total)
         leaf.entries;
       match leaf.next with Some next -> walk next | None -> ()
     in
     walk (leftmost_leaf t.root);
     if !total <> t.count then fail "linked leaves visit %d entries, expected %d" !total t.count;
     Ok ()
   with Bad msg -> Error msg)
