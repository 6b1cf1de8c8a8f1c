type column = { name : string; ty : Value.ty }

type partition_spec = { part_col : string; part_sort : string }

(* One partition: live row ids sorted ascending on the sort column's value
   (ties by id). Grow-doubling like the heap. *)
type part = { mutable p_ids : int array; mutable p_len : int }

type partitioning = {
  spec : partition_spec;
  part_idx : int;  (* position of the partition (fk) column *)
  sort_idx : int;  (* position of the sort column *)
  parts : (int, part) Hashtbl.t;  (* Int partition key -> segment *)
  overflow : part;  (* rows whose partition key is Null / non-Int *)
}

type t = {
  name : string;
  columns : column array;
  (* rows is a grow-doubling array of value arrays *)
  mutable rows : Value.t array array;  (** grow-doubling array *)
  mutable row_count : int;
  mutable indexes : (string list * int array * Btree.t) list;
      (** (columns, column positions, tree) *)
  mutable distinct_cache : (string * (int * int)) list;
      (** column -> (row count at computation, distinct estimate) *)
  mutable version : int;
      (** bumped on every insert, delete and index creation; feeds
          {!Database.epoch} so prepared plans can detect staleness *)
  partitioning : partitioning option;
}

let create ?partition ~name ~(columns : column list) () =
  (match columns with
   | [] -> invalid_arg "Table.create: no columns"
   | _ -> ());
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (c : column) ->
      if Hashtbl.mem seen c.name then
        invalid_arg (Printf.sprintf "Table.create: duplicate column %s" c.name);
      Hashtbl.add seen c.name ())
    columns;
  let find_col what c =
    let rec go i = function
      | [] ->
        invalid_arg
          (Printf.sprintf "Table.create(%s): %s column %s does not exist" name what c)
      | (col : column) :: rest -> if String.equal col.name c then i else go (i + 1) rest
    in
    go 0 columns
  in
  let partitioning =
    Option.map
      (fun spec ->
        let part_idx = find_col "partition" spec.part_col in
        (match (List.nth columns part_idx).ty with
         | Value.Tint -> ()
         | _ ->
           invalid_arg
             (Printf.sprintf "Table.create(%s): partition column %s must be int" name
                spec.part_col));
        let sort_idx = find_col "partition sort" spec.part_sort in
        { spec; part_idx; sort_idx;
          parts = Hashtbl.create 64;
          overflow = { p_ids = [||]; p_len = 0 } })
      partition
  in
  {
    name;
    columns = Array.of_list columns;
    rows = [||];
    row_count = 0;
    indexes = [];
    distinct_cache = [];
    version = 0;
    partitioning;
  }

(* ---- partition segment maintenance ------------------------------------ *)

(* Order within a segment: ascending on the sort column under
   {!Value.compare_total}, ties broken by row id. Bulk loads insert in
   document order, so the common case is an O(1) append; out-of-order
   inserts (ORDPATH caret labels from the write path) binary-search their
   slot and shift. *)
let seg_cmp t pn id_a id_b =
  match
    Value.compare_total t.rows.(id_a).(pn.sort_idx) t.rows.(id_b).(pn.sort_idx)
  with
  | 0 -> compare id_a id_b
  | c -> c

let seg_for pn v =
  match v with
  | Value.Int k ->
    (match Hashtbl.find_opt pn.parts k with
     | Some p -> p
     | None ->
       let p = { p_ids = [||]; p_len = 0 } in
       Hashtbl.add pn.parts k p;
       p)
  | _ -> pn.overflow

let seg_existing pn v =
  match v with
  | Value.Int k -> Hashtbl.find_opt pn.parts k
  | _ -> Some pn.overflow

let seg_add t pn p id =
  if p.p_len = Array.length p.p_ids then begin
    let cap = max 8 (2 * Array.length p.p_ids) in
    let bigger = Array.make cap 0 in
    Array.blit p.p_ids 0 bigger 0 p.p_len;
    p.p_ids <- bigger
  end;
  if p.p_len = 0 || seg_cmp t pn p.p_ids.(p.p_len - 1) id < 0 then
    p.p_ids.(p.p_len) <- id
  else begin
    (* first slot whose element sorts after the new row *)
    let lo = ref 0 and hi = ref p.p_len in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if seg_cmp t pn p.p_ids.(mid) id < 0 then lo := mid + 1 else hi := mid
    done;
    Array.blit p.p_ids !lo p.p_ids (!lo + 1) (p.p_len - !lo);
    p.p_ids.(!lo) <- id
  end;
  p.p_len <- p.p_len + 1

let seg_remove t pn p id =
  (* Binary search by the row's current sort key, then drop the slot. *)
  let lo = ref 0 and hi = ref p.p_len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if seg_cmp t pn p.p_ids.(mid) id < 0 then lo := mid + 1 else hi := mid
  done;
  let at =
    if !lo < p.p_len && p.p_ids.(!lo) = id then !lo
    else begin
      (* defensive fallback; unreachable while the sorted invariant holds *)
      let rec find i = if i >= p.p_len then -1 else if p.p_ids.(i) = id then i else find (i + 1) in
      find 0
    end
  in
  if at >= 0 then begin
    Array.blit p.p_ids (at + 1) p.p_ids at (p.p_len - at - 1);
    p.p_len <- p.p_len - 1
  end

let part_insert t id values =
  match t.partitioning with
  | None -> ()
  | Some pn -> seg_add t pn (seg_for pn values.(pn.part_idx)) id

(* Must run while [t.rows.(id)] still holds the row being removed (the
   binary search keys off the stored sort value). *)
let part_remove t id values =
  match t.partitioning with
  | None -> ()
  | Some pn ->
    (match seg_existing pn values.(pn.part_idx) with
     | Some p -> seg_remove t pn p id
     | None -> ())

let name t = t.name

let version t = t.version

let columns t = Array.to_list t.columns

let column_index t col =
  let rec go i =
    if i >= Array.length t.columns then None
    else if String.equal t.columns.(i).name col then Some i
    else go (i + 1)
  in
  go 0

let column_ty t col =
  Option.map (fun i -> t.columns.(i).ty) (column_index t col)

let type_ok ty v =
  match v, ty with
  | Value.Null, _ -> true
  | Value.Int _, Value.Tint
  | Value.Float _, Value.Tfloat
  | Value.Str _, Value.Tstr
  | Value.Bin _, Value.Tbin ->
    true
  | (Value.Int _ | Value.Float _ | Value.Str _ | Value.Bin _), _ -> false

let insert t values =
  if Array.length values <> Array.length t.columns then
    invalid_arg
      (Printf.sprintf "Table.insert(%s): %d values for %d columns" t.name
         (Array.length values) (Array.length t.columns));
  Array.iteri
    (fun i v ->
      if not (type_ok t.columns.(i).ty v) then
        invalid_arg
          (Printf.sprintf "Table.insert(%s): value %s does not match column %s : %s"
             t.name (Value.to_string v) t.columns.(i).name
             (Format.asprintf "%a" Value.pp_ty t.columns.(i).ty)))
    values;
  if t.row_count = Array.length t.rows then begin
    let cap = max 16 (2 * Array.length t.rows) in
    let bigger = Array.make cap [||] in
    Array.blit t.rows 0 bigger 0 t.row_count;
    t.rows <- bigger
  end;
  let id = t.row_count in
  t.rows.(id) <- values;
  t.row_count <- id + 1;
  part_insert t id values;
  List.iter
    (fun (_, positions, tree) ->
      Btree.insert tree (Array.map (fun p -> values.(p)) positions) id)
    t.indexes;
  t.version <- t.version + 1;
  id

let delete t id =
  if id < 0 || id >= t.row_count || Array.length t.rows.(id) = 0 then false
  else begin
    let values = t.rows.(id) in
    List.iter
      (fun (_, positions, tree) ->
        ignore (Btree.delete tree (Array.map (fun p -> values.(p)) positions) id))
      t.indexes;
    part_remove t id values;
    t.rows.(id) <- [||];
    (* Invalidate cached statistics. *)
    t.distinct_cache <- [];
    t.version <- t.version + 1;
    true
  end

let update t id values =
  if id < 0 || id >= t.row_count || Array.length t.rows.(id) = 0 then false
  else begin
    if Array.length values <> Array.length t.columns then
      invalid_arg
        (Printf.sprintf "Table.update(%s): %d values for %d columns" t.name
           (Array.length values) (Array.length t.columns));
    Array.iteri
      (fun i v ->
        if not (type_ok t.columns.(i).ty v) then
          invalid_arg
            (Printf.sprintf "Table.update(%s): value %s does not match column %s : %s"
               t.name (Value.to_string v) t.columns.(i).name
               (Format.asprintf "%a" Value.pp_ty t.columns.(i).ty)))
      values;
    let old_values = t.rows.(id) in
    List.iter
      (fun (_, positions, tree) ->
        let old_key = Array.map (fun p -> old_values.(p)) positions in
        let new_key = Array.map (fun p -> values.(p)) positions in
        if old_key <> new_key then begin
          ignore (Btree.delete tree old_key id);
          Btree.insert tree new_key id
        end)
      t.indexes;
    (match t.partitioning with
     | Some pn
       when not
              (Value.equal old_values.(pn.part_idx) values.(pn.part_idx)
               && Value.equal old_values.(pn.sort_idx) values.(pn.sort_idx)) ->
       part_remove t id old_values;
       t.rows.(id) <- values;
       part_insert t id values
     | Some _ | None -> t.rows.(id) <- values);
    t.distinct_cache <- [];
    t.version <- t.version + 1;
    true
  end

let row_count t = t.row_count

let live_count t =
  let n = ref 0 in
  for id = 0 to t.row_count - 1 do
    if Array.length t.rows.(id) > 0 then incr n
  done;
  !n

let row t id =
  if id < 0 || id >= t.row_count then
    invalid_arg (Printf.sprintf "Table.row(%s): id %d out of range" t.name id);
  t.rows.(id)

let iter_rows f t =
  for id = 0 to t.row_count - 1 do
    if Array.length t.rows.(id) > 0 then f id t.rows.(id)
  done

let create_index t cols =
  if List.exists (fun (existing, _, _) -> existing = cols) t.indexes then ()
  else begin
    let positions =
      Array.of_list
        (List.map
           (fun c ->
             match column_index t c with
             | Some i -> i
             | None ->
               invalid_arg
                 (Printf.sprintf "Table.create_index(%s): no column %s" t.name c))
           cols)
    in
    let tree = Btree.create ~width:(Array.length positions) () in
    iter_rows
      (fun id values -> Btree.insert tree (Array.map (fun p -> values.(p)) positions) id)
      t;
    t.indexes <- t.indexes @ [ (cols, positions, tree) ];
    t.version <- t.version + 1
  end

let index_on t cols =
  List.find_map
    (fun (existing, _, tree) -> if existing = cols then Some tree else None)
    t.indexes

let rec is_prefix prefix l =
  match prefix, l with
  | [], _ -> true
  | p :: ps, x :: xs -> String.equal p x && is_prefix ps xs
  | _ :: _, [] -> false

let index_with_prefix t cols =
  List.find_map
    (fun (existing, _, tree) ->
      if is_prefix cols existing then Some (tree, List.length existing) else None)
    t.indexes

let indexes t = List.map (fun (cols, _, tree) -> cols, tree) t.indexes

let distinct_estimate t col =
  match column_index t col with
  | None -> 1
  | Some pos ->
    (match List.assoc_opt col t.distinct_cache with
     | Some (stamp, d) when stamp = t.row_count -> d
     | Some _ | None ->
       let seen = Hashtbl.create 256 in
       for id = 0 to t.row_count - 1 do
         if Array.length t.rows.(id) > 0 then
           match t.rows.(id).(pos) with
           | Value.Null -> ()
           | v -> Hashtbl.replace seen (Value.to_string v) ()
       done;
       let d = max 1 (Hashtbl.length seen) in
       t.distinct_cache <-
         (col, (t.row_count, d)) :: List.remove_assoc col t.distinct_cache;
       d)

(* ---- partition introspection ------------------------------------------ *)

let partition_spec t = Option.map (fun pn -> pn.spec) t.partitioning

let partition_count t =
  match t.partitioning with
  | None -> 0
  | Some pn ->
    Hashtbl.fold (fun _ p n -> if p.p_len > 0 then n + 1 else n) pn.parts 0

let partition_keys t =
  match t.partitioning with
  | None -> []
  | Some pn ->
    Hashtbl.fold (fun k p acc -> if p.p_len > 0 then k :: acc else acc) pn.parts []
    |> List.sort compare

let partition_size t key =
  match t.partitioning with
  | None -> 0
  | Some pn ->
    (match Hashtbl.find_opt pn.parts key with Some p -> p.p_len | None -> 0)

let partition_view t key =
  match t.partitioning with
  | None -> [||], 0
  | Some pn ->
    (match Hashtbl.find_opt pn.parts key with
     | Some p -> p.p_ids, p.p_len
     | None -> [||], 0)

let iter_partition f t key =
  let ids, len = partition_view t key in
  for i = 0 to len - 1 do
    f ids.(i) t.rows.(ids.(i))
  done

let check_partitions t =
  match t.partitioning with
  | None -> Ok ()
  | Some pn ->
    let err fmt = Printf.ksprintf (fun s -> Error (t.name ^ ": " ^ s)) fmt in
    let seen = Hashtbl.create 256 in
    let check_seg label key_opt p =
      let rec go i =
        if i >= p.p_len then Ok ()
        else begin
          let id = p.p_ids.(i) in
          if id < 0 || id >= t.row_count || Array.length t.rows.(id) = 0 then
            err "%s holds dead row id %d" label id
          else if Hashtbl.mem seen id then err "row id %d appears in two segments" id
          else begin
            Hashtbl.add seen id ();
            let key_ok =
              match key_opt with
              | None -> (match t.rows.(id).(pn.part_idx) with Value.Int _ -> false | _ -> true)
              | Some k -> Value.equal t.rows.(id).(pn.part_idx) (Value.Int k)
            in
            if not key_ok then err "row id %d filed under wrong partition (%s)" id label
            else if i > 0 && seg_cmp t pn p.p_ids.(i - 1) id >= 0 then
              err "%s out of sort order at slot %d (row id %d)" label i id
            else go (i + 1)
          end
        end
      in
      go 0
    in
    let result =
      Hashtbl.fold
        (fun k p acc ->
          match acc with
          | Error _ -> acc
          | Ok () -> check_seg (Printf.sprintf "partition %d" k) (Some k) p)
        pn.parts (Ok ())
    in
    (match result with
     | Error _ as e -> e
     | Ok () ->
       (match check_seg "overflow segment" None pn.overflow with
        | Error _ as e -> e
        | Ok () ->
          let live = live_count t in
          if Hashtbl.length seen <> live then
            err "segments hold %d rows but table has %d live rows"
              (Hashtbl.length seen) live
          else Ok ()))
