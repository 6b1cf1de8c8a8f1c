type result = {
  columns : string list;
  rows : Value.t array list;
}

exception Runtime_error of string

let error fmt = Format.kasprintf (fun m -> raise (Runtime_error m)) fmt

(* A binding assigns a row to every alias slot; slot order is outer-query
   slots first, then the local aliases in plan order. *)
type binding = Value.t array array

type value_fn = binding -> Value.t

type pred_fn = binding -> bool option

(* Optimizer switches. [force] exists for differential testing: it makes
   the planner pick a hash join over an available index path, so the
   operator is exercised even on queries where an index would win. *)
type opts = {
  semijoin_reduction : bool;
  hash_join : bool;
  force : [ `Hash_join ] option;
}

let default_opts = { semijoin_reduction = true; hash_join = true; force = None }

(* Operator-level counters, shared by every operator compiled under one
   ctx (including sub-query plans). Mutable on purpose: they sit in the
   innermost loops. A plan is executed by one domain at a time (the
   cluster hands each shard plan to a single worker), so plain mutation
   is safe. The interface exports the record [private], so outside this
   module a snapshot is read-only. *)
type exec_stats = {
  mutable rows_scanned : int;
  mutable rows_probed : int;
  mutable rows_emitted : int;
  mutable regex_plan_evals : int;
  mutable regex_exec_evals : int;
  mutable dfa_execs : int;
  mutable hash_builds : int;
  mutable reductions : int;
  mutable partitions_scanned : int;
  mutable partitions_pruned : int;
  mutable peak_bytes : int;
  content_candidates : int;
  content_verified : int;
  merge_steps : int;
}

type scope = Per_exec | Plan_lifetime

(* The counter table: each counter declared once, as (field and JSON
   name, EXPLAIN label, scope, accessor), in field order. [make f] builds
   a fresh record by asking [f] for every counter in that order; zero,
   snapshot, sum, difference and {!counters} itself are all instances of
   it. *)
let make f =
  let rows_scanned = f "rows_scanned" "scanned" Per_exec (fun s -> s.rows_scanned) in
  let rows_probed = f "rows_probed" "probed" Per_exec (fun s -> s.rows_probed) in
  let rows_emitted = f "rows_emitted" "emitted" Per_exec (fun s -> s.rows_emitted) in
  let regex_plan_evals =
    f "regex_plan_evals" "plan regex evals" Plan_lifetime (fun s -> s.regex_plan_evals)
  in
  let regex_exec_evals =
    f "regex_exec_evals" "exec regex evals" Per_exec (fun s -> s.regex_exec_evals)
  in
  let dfa_execs = f "dfa_execs" "dfa execs" Per_exec (fun s -> s.dfa_execs) in
  let hash_builds = f "hash_builds" "hash builds" Plan_lifetime (fun s -> s.hash_builds) in
  let reductions = f "reductions" "reductions" Plan_lifetime (fun s -> s.reductions) in
  let partitions_scanned =
    f "partitions_scanned" "partitions scanned" Per_exec (fun s -> s.partitions_scanned)
  in
  let partitions_pruned =
    f "partitions_pruned" "partitions pruned" Per_exec (fun s -> s.partitions_pruned)
  in
  let peak_bytes = f "peak_bytes" "peak bytes" Plan_lifetime (fun s -> s.peak_bytes) in
  {
    rows_scanned; rows_probed; rows_emitted; regex_plan_evals; regex_exec_evals;
    dfa_execs; hash_builds; reductions; partitions_scanned; partitions_pruned;
    peak_bytes; content_candidates = 0; content_verified = 0; merge_steps = 0;
  }

type counter = { name : string; label : string; scope : scope; get : exec_stats -> int }

let counters =
  let acc = ref [] in
  ignore
    (make (fun name label scope get ->
         acc := { name; label; scope; get } :: !acc;
         0));
  List.rev !acc

let counters_create () = make (fun _ _ _ _ -> 0)

let stats_zero = counters_create ()

let stats_add a b = make (fun _ _ _ get -> get a + get b)

let stats_diff a b = make (fun _ _ _ get -> get a - get b)

let stats_to_string s =
  String.concat ", " (List.map (fun c -> Printf.sprintf "%s %d" c.label (c.get s)) counters)

(* What a compiled plan depends on, per table. [Dep_paths] means every
   access the plan makes to the table is guarded by a pathid set probe
   on the given set, so a commit that only changed rows of other pathids
   cannot alter the plan's result; anything weaker is [Dep_all]. *)
type fp_dep = Dep_all | Dep_paths of (int, unit) Hashtbl.t

type fp_entry = { mutable fe_version : int; mutable fe_dep : fp_dep }

(* A hash-join access: build an in-memory hash of the step's table keyed
   on [hp_col] (once, lazily, cached on the plan — sound under the same
   epoch guard that protects memoized EXISTS state), then probe it with
   the bound key expression per outer binding. *)
type hash_probe = {
  hp_table : Table.t;
  hp_col : string;
  hp_idx : int;
  hp_kind : [ `Str | `Num ];
  hp_key : value_fn;
  hp_build : (string, int list) Hashtbl.t option ref;
}

(* A pruned partition scan: the step's table is physically partitioned on
   the probed fk column (see {!Table.partition_spec}), so a plan-time
   pathid set resolves to the list of matching partitions and the scan
   k-way-merges just those segments. Each segment is kept sorted on the
   sort column (Dewey bytes), so emission is globally ascending on it —
   feeding ORDER BY elision — and the partition invariant
   (every row in partition k has key k) makes the per-row set probe
   redundant: pruning does the filtering with zero per-row work. The
   matched-key list is fixed at plan time; that is sound under the plan's
   footprint ([Dep_paths] over the full matched pathid set), which
   invalidates the plan before any commit can grow, shrink or create a
   partition the scan should have seen. *)
type partition_scan = {
  ps_table : Table.t;
  ps_keys : int array;  (* matched partition keys, ascending *)
  ps_total : int;  (* partitions present at plan time *)
  ps_rows : int;  (* live rows under the matched keys at plan time *)
  ps_sort_col : string;
  ps_sort_idx : int;
}

type access =
  [ `Scan
  | `Index_eq of Btree.t * value_fn array
  | `Index_range of
    Btree.t * value_fn array * (value_fn * bool) option * (value_fn * bool) option
  | `Index_order of Btree.t
  | `Prefix_lookup of Btree.t * value_fn * int array Lazy.t
  | `Hash_probe of hash_probe
  | `Partition_scan of partition_scan ]

type step = {
  st_slot : int;
  st_table : Table.t;
  st_access : access;
  st_filters : pred_fn list;
  st_probe_labels : string list;
      (* the trailing [List.length st_probe_labels] entries of
         [st_filters] are pathid set probes, not residual conjuncts *)
  mutable st_examined : int;  (* live rows fetched through the access *)
  mutable st_passed : int;  (* rows surviving the filters *)
  mutable st_ns : int;
      (* inclusive monotonic nanoseconds, accumulated only while the
         plan's profile flag is set *)
}

(* One applied path-filter semi-join reduction (EXPLAIN reporting). *)
type reduction = {
  rd_dim_table : string;
  rd_dim_alias : string;
  rd_pattern : string;
  rd_fact_alias : string;
  rd_fact_col : string;
  rd_matched : int;
  rd_total : int;
}

(* The materialized pathid set a reduction produces, to be probed on the
   fact alias's column. *)
type probe_src = {
  pb_alias : string;
  pb_col : string;
  pb_set : (int, unit) Hashtbl.t;
  pb_label : string;
}

(* How an EXISTS sub-plan is executed, fixed when the predicate is
   compiled (see {!exists_shape}). *)
type sub_shape =
  | Once  (* uncorrelated: evaluated once, the boolean cached *)
  | Semijoin of int  (* decorrelated: key tuples hashed once, probed per binding *)
  | Per_binding  (* correlated: executed per outer binding, early exit *)

type planned = {
  pl_ctx : ctx;
  pl_env : int;
  pl_pre : pred_fn list;
  pl_steps : step list;
  pl_project : (value_fn * string) list;
  pl_distinct : bool;
  pl_order_by : value_fn list;
  pl_order_preserved : bool;
      (* the pipeline provably emits rows nondecreasing on [pl_order_by],
         so the final stable sort is the identity and is skipped *)
  pl_total : int;
  pl_reductions : reduction list;
  pl_subs : (sub_shape * planned) list;
      (* the EXISTS sub-plans of this select's filters, in compile order *)
}

and ctx = {
  db : Database.t;
  slots : (string * Table.t) array;
  naive : bool;
  opts : opts;
  counters : exec_stats;
  profiling : bool ref;
      (** per-plan: time each step entry (EXPLAIN ANALYZE); never set on
          the served path *)
  subs : (sub_shape * planned) list ref;
      (** collects the EXISTS sub-plans compiled under the current select *)
  footprint : (string, fp_entry) Hashtbl.t;
      (** accumulated across every [plan_select] under one compile *)
  verdicts : (string * string, bool) Hashtbl.t;
      (** plan-time regex verdict memo, (pattern, path string) -> matched;
          shared across every reduction sweep of one compile (all UNION
          branches, sub-selects) so no statement evaluates a pattern more
          than once per distinct path *)
}


let fp_merge a b =
  match a, b with
  | Dep_all, _ | _, Dep_all -> Dep_all
  | Dep_paths sa, Dep_paths sb ->
    let u = Hashtbl.copy sa in
    Hashtbl.iter (fun k () -> Hashtbl.replace u k ()) sb;
    Dep_paths u

let footprint_add ctx table dep =
  let name = Table.name table in
  match Hashtbl.find_opt ctx.footprint name with
  | None ->
    Hashtbl.add ctx.footprint name { fe_version = Table.version table; fe_dep = dep }
  | Some e -> e.fe_dep <- fp_merge e.fe_dep dep

let slot_of ctx alias =
  (* Search from the end: inner FROM aliases shadow outer ones. *)
  let rec go i =
    if i < 0 then error "unknown alias %s" alias
    else if String.equal (fst ctx.slots.(i)) alias then i
    else go (i - 1)
  in
  go (Array.length ctx.slots - 1)

let column_slot ctx alias col =
  let slot = slot_of ctx alias in
  let table = snd ctx.slots.(slot) in
  match Table.column_index table col with
  | Some i -> slot, i
  | None -> error "table %s (alias %s) has no column %s" (Table.name table) alias col

(* The select's FROM list as (alias, table) pairs. *)
let from_tables ctx (sel : Sql.select) =
  List.map
    (fun (table, alias) ->
      match Database.table_opt ctx.db table with
      | Some t -> alias, t
      | None -> error "unknown table %s" table)
    sel.Sql.from

(* Static type of an expression, when derivable; used to gate EXISTS
   decorrelation and hash joins on hash-compatible comparison types. *)
let rec static_ty ctx = function
  | Sql.Col (alias, col) ->
    let slot = slot_of ctx alias in
    Table.column_ty (snd ctx.slots.(slot)) col
  | Sql.Const v -> Value.type_of v
  | Sql.Concat (a, _) ->
    (match static_ty ctx a with
     | Some Value.Tbin -> Some Value.Tbin
     | Some _ | None -> Some Value.Tstr)
  | Sql.To_number _ -> Some Value.Tfloat
  | Sql.Arith _ -> Some Value.Tfloat
  | Sql.Length _ | Sql.Count_subquery _ -> Some Value.Tint
  | Sql.Cmp _ | Sql.Between _ | Sql.And _ | Sql.Or _ | Sql.Not _
  | Sql.Regexp_like _ | Sql.Exists _ | Sql.Is_not_null _ | Sql.Bool_const _ ->
    None

(* Canonical hash key for a value under a kind — shared by the hash-join
   operator and EXISTS decorrelation. Complete w.r.t. {!Value.compare_sql}
   on the gated type combinations: values equal under three-valued SQL
   comparison canonicalize to the same key, so a hash lookup can never
   miss a row the join would produce. [-0.] is folded into [0.] because
   the two compare equal but print differently. *)
let canon_key kind v =
  match kind, v with
  | _, Value.Null -> None
  | `Str, (Value.Str s | Value.Bin s) -> Some s
  | `Str, (Value.Int _ | Value.Float _) -> None
  | `Num, v ->
    (match Value.to_float v with
     | Some f -> Some (if f = 0.0 then "0." else string_of_float f)
     | None -> None)


(* First column of the index backed by [tree] in [table], if any. *)
let index_first_col table tree =
  List.find_map
    (fun (cols, tr) ->
      if tr == tree then match cols with c0 :: _ -> Some c0 | [] -> None
      else None)
    (Table.indexes table)

(* Whether [access] over [table], run once per outer binding, emits rows
   ascending on column [c]. *)
let emits_ascending table (access : access) c =
  match access with
  | `Index_order tree | `Index_range (tree, [||], _, _) ->
    index_first_col table tree = Some c
  | `Partition_scan ps -> String.equal ps.ps_sort_col c
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Path-filter semi-join reduction                                     *)
(* ------------------------------------------------------------------ *)

(* Detect the PPF shape the translator emits — a dimension alias [p]
   whose only uses are an integer equijoin [f.fcol = p.idcol] and a
   [REGEXP_LIKE(p.pcol, pat)] — evaluate the regex once per dimension row
   at plan time, and replace both conjuncts (and the join itself) with an
   O(1) integer set probe on [f.fcol].

   Soundness requires the dimension ids to be unique non-null integers:
   then each fact row joins at most one dimension row, so dropping the
   join preserves multiplicity exactly. Uniqueness is verified by the
   plan-time scan itself (the reduction is abandoned on a duplicate), and
   the verdict stays valid for the lifetime of the plan because plans are
   epoch-guarded. A NULL id never joins and a NULL path never matches
   REGEXP_LIKE, so skipping those rows is exact, not approximate. Both
   columns must be declared INTEGER — {!Table.insert} enforces declared
   types, so at runtime the probe only ever sees [Int] or [Null] and an
   exact int lookup suffices. *)
let reduce_path_filters ctx (sel : Sql.select) local_aliases conjuncts =
  let projections_free =
    List.concat_map (fun (e, _) -> Sql.free_aliases e) sel.Sql.projections
  in
  let order_free = List.concat_map Sql.free_aliases sel.Sql.order_by in
  let try_alias ((locals, conjs, probes, reds) as acc) (p, ptable) =
    if not (List.mem_assoc p locals) then acc
    else begin
      let mentioned, others =
        List.partition (fun c -> List.mem p (Sql.free_aliases c)) conjs
      in
      let classify_eq = function
        | Sql.Cmp (Sql.Eq, Sql.Col (a, ca), Sql.Col (b, cb)) ->
          if String.equal b p && not (String.equal a p) then Some (a, ca, cb)
          else if String.equal a p && not (String.equal b p) then Some (b, cb, ca)
          else None
        | _ -> None
      in
      let classify_re = function
        | Sql.Regexp_like (Sql.Col (q, pcol), pat) when String.equal q p ->
          Some (pcol, pat)
        | _ -> None
      in
      let pair =
        match mentioned with
        | [ c1; c2 ] ->
          (match classify_eq c1, classify_re c2 with
           | Some eq, Some re -> Some (eq, re)
           | _ ->
             (match classify_eq c2, classify_re c1 with
              | Some eq, Some re -> Some (eq, re)
              | _ -> None))
        | _ -> None
      in
      match pair with
      | None -> acc
      | Some ((f, fcol, idcol), (pcol, pat)) ->
        let p_used_elsewhere =
          List.mem p projections_free || List.mem p order_free
        in
        let ftable =
          match List.assoc_opt f locals with
          | Some t -> Some t
          | None ->
            let rec go i =
              if i < 0 then None
              else if String.equal (fst ctx.slots.(i)) f then Some (snd ctx.slots.(i))
              else go (i - 1)
            in
            go (Array.length ctx.slots - 1)
        in
        (match ftable with
         | None -> acc
         | Some ft ->
           let ok_types =
             Table.column_ty ft fcol = Some Value.Tint
             && Table.column_ty ptable idcol = Some Value.Tint
           in
           (match
              (if p_used_elsewhere || not ok_types then None
               else
                 match Table.column_index ptable pcol, Table.column_index ptable idcol with
                 | Some pci, Some ici -> Some (pci, ici)
                 | _ -> None)
            with
            | None -> acc
            | Some (pci, ici) ->
              let re =
                try Ppfx_regex.Regex.compile_cached pat
                with Ppfx_regex.Regex.Parse_error msg ->
                  error "invalid regular expression %S: %s" pat msg
              in
              let set = Hashtbl.create 64 in
              let seen = Hashtbl.create 64 in
              let total = ref 0 in
              let sound = ref true in
              (try
                 Table.iter_rows
                   (fun _ row ->
                     incr total;
                     ctx.counters.rows_scanned <- ctx.counters.rows_scanned + 1;
                     match row.(ici) with
                     | Value.Null -> ()
                     | Value.Int id ->
                       if Hashtbl.mem seen id then begin
                         sound := false;
                         raise Exit
                       end;
                       Hashtbl.add seen id ();
                       (match Value.text row.(pci) with
                        | None -> ()
                        | Some s ->
                          let verdict =
                            match Hashtbl.find_opt ctx.verdicts (pat, s) with
                            | Some v -> v
                            | None ->
                              ctx.counters.regex_plan_evals <-
                                ctx.counters.regex_plan_evals + 1;
                              let v = Ppfx_regex.Regex.search re s in
                              Hashtbl.add ctx.verdicts (pat, s) v;
                              v
                          in
                          if verdict then Hashtbl.replace set id ())
                     | Value.Float _ | Value.Str _ | Value.Bin _ ->
                       (* declared INTEGER, so unreachable; bail rather
                          than guess at coercion semantics *)
                       sound := false;
                       raise Exit)
                   ptable
               with Exit -> ());
              if not !sound then acc
              else begin
                ctx.counters.reductions <- ctx.counters.reductions + 1;
                ctx.counters.peak_bytes <-
                  ctx.counters.peak_bytes + (32 * Hashtbl.length set) + 64;
                let matched = Hashtbl.length set in
                let label =
                  Printf.sprintf "pathid set probe (%d of %d paths)" matched !total
                in
                let pb =
                  { pb_alias = f; pb_col = fcol; pb_set = set; pb_label = label }
                in
                let rd =
                  {
                    rd_dim_table = Table.name ptable;
                    rd_dim_alias = p;
                    rd_pattern = pat;
                    rd_fact_alias = f;
                    rd_fact_col = fcol;
                    rd_matched = matched;
                    rd_total = !total;
                  }
                in
                ( List.filter (fun (a, _) -> not (String.equal a p)) locals,
                  others,
                  pb :: probes,
                  rd :: reds )
              end))
    end
  in
  List.fold_left try_alias (local_aliases, conjuncts, [], []) local_aliases

(* ------------------------------------------------------------------ *)
(* Access execution                                                    *)
(* ------------------------------------------------------------------ *)

let iter_access counters table (access : access) (bind : binding) (f : int -> unit) =
  let f id =
    counters.rows_scanned <- counters.rows_scanned + 1;
    f id
  in
  match access with
  | `Scan -> Table.iter_rows (fun id _ -> f id) table
  | `Partition_scan ps ->
    counters.partitions_scanned <- counters.partitions_scanned + Array.length ps.ps_keys;
    counters.partitions_pruned <-
      counters.partitions_pruned + max 0 (ps.ps_total - Array.length ps.ps_keys);
    let n = Array.length ps.ps_keys in
    if n = 1 then begin
      let ids, len = Table.partition_view ps.ps_table ps.ps_keys.(0) in
      for j = 0 to len - 1 do
        f ids.(j)
      done
    end
    else if n > 1 then begin
      (* K-way merge of the matched segments on (sort bytes, id): each
         segment is already sorted, so emission is globally ascending on
         the sort column. Linear min pick — k is the matched path count,
         small in practice. *)
      let seg_ids = Array.map (fun k -> fst (Table.partition_view ps.ps_table k)) ps.ps_keys in
      let seg_len = Array.map (fun k -> snd (Table.partition_view ps.ps_table k)) ps.ps_keys in
      let cur = Array.make n 0 in
      let sort_key id = (Table.row ps.ps_table id).(ps.ps_sort_idx) in
      let continue_ = ref true in
      while !continue_ do
        let best = ref (-1) in
        let best_id = ref 0 in
        for j = 0 to n - 1 do
          if cur.(j) < seg_len.(j) then begin
            let id = seg_ids.(j).(cur.(j)) in
            if
              !best < 0
              ||
              match Value.compare_total (sort_key id) (sort_key !best_id) with
              | 0 -> id < !best_id
              | c -> c < 0
            then begin
              best := j;
              best_id := id
            end
          end
        done;
        if !best < 0 then continue_ := false
        else begin
          f !best_id;
          cur.(!best) <- cur.(!best) + 1
        end
      done
    end
  | `Index_order tree ->
    (* Full walk of an index in key order: same rows as a scan (every
       row appears in every index exactly once), different order. Used
       to elide the final ORDER BY sort. *)
    Btree.iter (fun _ id -> f id) tree
  | `Prefix_lookup (tree, fn, lengths) ->
    (* One equality probe per candidate prefix length. Only lengths that
       exist as first-column key lengths in the index are probed — Dewey
       keys cluster on a handful of tree depths, so this turns
       |outer key| descents per binding into a few. The length set is
       collected once per plan; soundness under the fine-grained
       invalidation protocol: a pathid-scoped footprint only admits
       writes whose rows this alias's pathid probe would reject anyway,
       and any other write invalidates the plan outright. *)
    (match fn bind with
     | Value.Bin v | Value.Str v ->
       let n = String.length v in
       Array.iter
         (fun k ->
           if k <= n then
             List.iter f (Btree.find_equal tree [| Value.Bin (String.sub v 0 k) |]))
         (Lazy.force lengths)
     | Value.Null | Value.Int _ | Value.Float _ -> ())
  | `Index_eq (tree, fns) ->
    let key = Array.map (fun fn -> fn bind) fns in
    if Array.exists (function Value.Null -> true | _ -> false) key then ()
    else List.iter f (Btree.find_equal tree key)
  | `Index_range (tree, fns, lo, hi) ->
    let prefix = Array.map (fun fn -> fn bind) fns in
    if Array.exists (function Value.Null -> true | _ -> false) prefix then ()
    else begin
      let bound side =
        match side with
        | None -> Some { Btree.key = prefix; inclusive = true }
        | Some (fn, inclusive) ->
          (match fn bind with
           | Value.Null -> None
           | v -> Some { Btree.key = Array.append prefix [| v |]; inclusive })
      in
      (* A NULL range bound means the comparison is unknown: no rows. *)
      let lo_b = bound lo and hi_b = bound hi in
      match lo, lo_b, hi, hi_b with
      | Some _, None, _, _ | _, _, Some _, None -> ()
      | _, lo_b, _, hi_b -> List.iter f (Btree.range tree ~lo:lo_b ~hi:hi_b)
    end
  | `Hash_probe hp ->
    let build =
      match !(hp.hp_build) with
      | Some t -> t
      | None ->
        counters.hash_builds <- counters.hash_builds + 1;
        let t = Hashtbl.create (max 16 (Table.live_count hp.hp_table)) in
        Table.iter_rows
          (fun id row ->
            counters.rows_scanned <- counters.rows_scanned + 1;
            match canon_key hp.hp_kind row.(hp.hp_idx) with
            | Some k ->
              let prev = Option.value ~default:[] (Hashtbl.find_opt t k) in
              Hashtbl.replace t k (id :: prev)
            | None -> ())
          hp.hp_table;
        (* Reverse each bucket so probes emit row ids in ascending order —
           the same order a scan-plus-filter of this table would produce. *)
        Hashtbl.filter_map_inplace (fun _ ids -> Some (List.rev ids)) t;
        let bytes =
          Hashtbl.fold
            (fun k ids acc -> acc + String.length k + 48 + (24 * List.length ids))
            t 64
        in
        counters.peak_bytes <- counters.peak_bytes + bytes;
        hp.hp_build := Some t;
        t
    in
    counters.rows_probed <- counters.rows_probed + 1;
    (match canon_key hp.hp_kind (hp.hp_key bind) with
     | None -> ()
     | Some k ->
       (match Hashtbl.find_opt build k with
        | Some ids -> List.iter f ids
        | None -> ()))

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* The executor: the one loop over plan steps, shared by served
   execution, sub-plans and EXPLAIN ANALYZE. Every step counts the rows
   it examines and passes; only when the plan's profile flag is set does
   a step entry also read the clock (once per entry, never per row). *)
let rec exec_steps ctx steps bind emit =
  let counters = ctx.counters in
  match steps with
  | [] ->
    counters.rows_emitted <- counters.rows_emitted + 1;
    emit bind
  | st :: rest ->
    let body row_id =
      let row = Table.row st.st_table row_id in
      (* Memoized hash builds can outlive a retained plan's rows: a
         fine-grained commit may tombstone a row whose id they still
         hold. The commit's pathid-disjointness guarantees such rows
         could never satisfy this plan's probes, so skipping the
         tombstone is exact. *)
      if Array.length row > 0 then begin
        st.st_examined <- st.st_examined + 1;
        bind.(st.st_slot) <- row;
        if List.for_all (fun p -> p bind = Some true) st.st_filters then begin
          st.st_passed <- st.st_passed + 1;
          exec_steps ctx rest bind emit
        end
      end
    in
    if !(ctx.profiling) then begin
      let t0 = now_ns () in
      Fun.protect
        ~finally:(fun () -> st.st_ns <- st.st_ns + (now_ns () - t0))
        (fun () -> iter_access counters st.st_table st.st_access bind body)
    end
    else iter_access counters st.st_table st.st_access bind body

(* Execute a planned select under an outer binding (empty at top level):
   check the constant filters, then run the steps. *)
let run_planned p outer emit =
  let bind = Array.make p.pl_total [||] in
  Array.blit outer 0 bind 0 p.pl_env;
  if List.for_all (fun f -> f bind = Some true) p.pl_pre then
    exec_steps p.pl_ctx p.pl_steps bind emit

(* ------------------------------------------------------------------ *)
(* EXISTS shape analysis                                               *)
(* ------------------------------------------------------------------ *)

(* Classify an EXISTS sub-select against the enclosing slot table.
   [`Uncorrelated] — no conjunct references an outer alias: evaluate once,
   cache the boolean. [`Semijoin (pairs, kinds, inner_sel)] — every
   correlated conjunct is an outer-expr = inner-expr equality with
   hash-compatible types: evaluate [inner_sel] (the sub-select projecting
   the distinct inner key tuples) once and turn the EXISTS into hash-set
   membership. [`Correlated] — anything else: execute per binding.
   {!compile_exists} records the shape with the sub-plan it compiles, so
   EXPLAIN prints the shape the executor runs. *)
let exists_shape ctx (sel : Sql.select) :
    [ `Uncorrelated of Sql.select
    | `Semijoin of (Sql.expr * Sql.expr) list * [ `Str | `Num ] list * Sql.select
    | `Correlated ] =
  let outer_aliases = Array.to_list (Array.map fst ctx.slots) in
  let local_names = List.map snd sel.Sql.from in
  (* A name is outer if it is not bound by the inner FROM. *)
  let is_outer a = (not (List.mem a local_names)) && List.mem a outer_aliases in
  let conjuncts = match sel.Sql.where with None -> [] | Some w -> Sql.conjuncts w in
  let correlated, uncorrelated =
    List.partition (fun c -> List.exists is_outer (Sql.free_aliases c)) conjuncts
  in
  if correlated = [] then
    `Uncorrelated
      {
        sel with
        Sql.where =
          (match conjuncts with
           | [] -> None
           | c :: cs ->
             Some (List.fold_left (fun acc x -> Sql.And (acc, x)) c cs));
      }
  else begin
    let split = function
      | Sql.Cmp (Sql.Eq, a, b) ->
        let a_outer = List.for_all is_outer (Sql.free_aliases a)
        and b_outer = List.for_all is_outer (Sql.free_aliases b) in
        let a_inner =
          List.for_all (fun x -> not (is_outer x)) (Sql.free_aliases a)
          && Sql.free_aliases a <> []
        and b_inner =
          List.for_all (fun x -> not (is_outer x)) (Sql.free_aliases b)
          && Sql.free_aliases b <> []
        in
        if a_outer && b_inner then Some (a, b)
        else if b_outer && a_inner then Some (b, a)
        else None
      | _ -> None
    in
    let pairs = List.map split correlated in
    if List.exists (fun p -> p = None) pairs then `Correlated
    else begin
      let pairs = List.filter_map Fun.id pairs in
      (* Check hash-compatible types for each pair. *)
      let key_kind (outer_e, inner_e) =
        (* Inner expression types must be derived with inner aliases in
           scope; extend the slot table the same way plan_select will. *)
        let inner_ctx =
          {
            ctx with
            slots = Array.append ctx.slots (Array.of_list (from_tables ctx sel));
          }
        in
        match static_ty ctx outer_e, static_ty inner_ctx inner_e with
        | Some (Value.Tstr | Value.Tbin), Some (Value.Tstr | Value.Tbin) -> Some `Str
        | Some (Value.Tint | Value.Tfloat), Some (Value.Tint | Value.Tfloat) -> Some `Num
        | _ -> None
      in
      let kinds = List.map key_kind pairs in
      if List.exists (fun k -> k = None) kinds then `Correlated
      else begin
        let kinds = List.filter_map Fun.id kinds in
        (* Build the uncorrelated inner query projecting the inner key
           expressions. *)
        let inner_sel =
          {
            sel with
            Sql.where =
              (match uncorrelated with
               | [] -> None
               | c :: cs -> Some (List.fold_left (fun acc x -> Sql.And (acc, x)) c cs));
            Sql.projections =
              List.mapi (fun i (_, inner_e) -> inner_e, Printf.sprintf "k%d" i) pairs;
            Sql.distinct = true;
            Sql.order_by = [];
          }
        in
        (* The inner query must now be completely uncorrelated. *)
        let still_correlated =
          List.exists
            (fun (e, _) -> List.exists is_outer (Sql.free_aliases e))
            inner_sel.Sql.projections
        in
        if still_correlated then `Correlated
        else `Semijoin (pairs, kinds, inner_sel)
      end
    end
  end

let rec compile_value ctx (e : Sql.expr) : value_fn =
  match e with
  | Sql.Col (alias, col) ->
    let slot, i = column_slot ctx alias col in
    fun b -> b.(slot).(i)
  | Sql.Const v -> fun _ -> v
  | Sql.Concat (a, b) ->
    let fa = compile_value ctx a and fb = compile_value ctx b in
    fun bind -> Value.concat (fa bind) (fb bind)
  | Sql.To_number a ->
    let fa = compile_value ctx a in
    fun bind ->
      (match Value.to_float (fa bind) with
       | Some f -> Value.Float f
       | None -> Value.Null)
  | Sql.Arith (op, a, b) ->
    let fa = compile_value ctx a and fb = compile_value ctx b in
    fun bind ->
      (match Value.to_float (fa bind), Value.to_float (fb bind) with
       | Some x, Some y ->
         (match op with
          | Sql.Add -> Value.Float (x +. y)
          | Sql.Sub -> Value.Float (x -. y)
          | Sql.Mul -> Value.Float (x *. y)
          | Sql.Div -> Value.Float (x /. y)
          | Sql.Mod -> Value.Float (Float.rem x y))
       | None, _ | _, None -> Value.Null)
  | Sql.Length a ->
    let fa = compile_value ctx a in
    fun bind ->
      (match fa bind with
       | Value.Str s | Value.Bin s -> Value.Int (String.length s)
       | Value.Null -> Value.Null
       | Value.Int _ | Value.Float _ ->
         error "LENGTH applied to a numeric value")
  | Sql.Count_subquery sel ->
    (* Correlated scalar COUNT: plan once, count matching bindings per
       outer row. *)
    let p = plan_select ctx sel in
    fun outer ->
      let n = ref 0 in
      run_planned p outer (fun _ -> incr n);
      Value.Int !n
  | Sql.Cmp _ | Sql.Between _ | Sql.And _ | Sql.Or _ | Sql.Not _
  | Sql.Regexp_like _ | Sql.Exists _ | Sql.Is_not_null _ | Sql.Bool_const _ ->
    error "boolean expression used where a value is required: %s"
      (Format.asprintf "%a" Sql.pp_expr e)

and compile_pred ctx (e : Sql.expr) : pred_fn =
  match e with
  | Sql.Cmp (op, a, b) ->
    let fa = compile_value ctx a and fb = compile_value ctx b in
    let test c =
      match op with
      | Sql.Eq -> c = 0
      | Sql.Ne -> c <> 0
      | Sql.Lt -> c < 0
      | Sql.Le -> c <= 0
      | Sql.Gt -> c > 0
      | Sql.Ge -> c >= 0
    in
    fun bind -> Option.map test (Value.compare_sql (fa bind) (fb bind))
  | Sql.Between (e, lo, hi) ->
    let fe = compile_value ctx e
    and flo = compile_value ctx lo
    and fhi = compile_value ctx hi in
    fun bind ->
      let v = fe bind in
      (match Value.compare_sql v (flo bind), Value.compare_sql v (fhi bind) with
       | Some a, Some b -> Some (a >= 0 && b <= 0)
       | None, _ | _, None -> None)
  | Sql.And (a, b) ->
    let fa = compile_pred ctx a and fb = compile_pred ctx b in
    fun bind ->
      (* Kleene conjunction. *)
      (match fa bind, fb bind with
       | Some false, _ | _, Some false -> Some false
       | Some true, Some true -> Some true
       | None, _ | _, None -> None)
  | Sql.Or (a, b) ->
    let fa = compile_pred ctx a and fb = compile_pred ctx b in
    fun bind ->
      (match fa bind, fb bind with
       | Some true, _ | _, Some true -> Some true
       | Some false, Some false -> Some false
       | None, _ | _, None -> None)
  | Sql.Not a ->
    let fa = compile_pred ctx a in
    fun bind -> Option.map not (fa bind)
  | Sql.Regexp_like (e, pattern) ->
    let fe = compile_value ctx e in
    let counters = ctx.counters in
    let re =
      try Ppfx_regex.Regex.compile_cached pattern
      with Ppfx_regex.Regex.Parse_error msg ->
        error "invalid regular expression %S: %s" pattern msg
    in
    let frozen = Ppfx_regex.Regex.has_frozen re in
    fun bind ->
      (match Value.text (fe bind) with
       | None -> None
       | Some s ->
         if frozen then counters.dfa_execs <- counters.dfa_execs + 1
         else counters.regex_exec_evals <- counters.regex_exec_evals + 1;
         Some (Ppfx_regex.Regex.search re s))
  | Sql.Exists sel -> compile_exists ctx sel
  | Sql.Is_not_null a ->
    let fa = compile_value ctx a in
    fun bind -> Some (match fa bind with Value.Null -> false | _ -> true)
  | Sql.Bool_const b -> fun _ -> Some b
  | Sql.Col _ | Sql.Const _ | Sql.Concat _ | Sql.Arith _ | Sql.To_number _
  | Sql.Length _ | Sql.Count_subquery _ ->
    error "value expression used where a condition is required: %s"
      (Format.asprintf "%a" Sql.pp_expr e)

(* ------------------------------------------------------------------ *)
(* Planning                                                            *)
(* ------------------------------------------------------------------ *)

and plan_select ctx (sel : Sql.select) : planned =
  (* Extend the slot table with the select's own aliases. *)
  let local_aliases = from_tables ctx sel in
  (* Duplicate aliases in one FROM clause would make column references
     ambiguous and break slot binding. *)
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (alias, _) ->
      if Hashtbl.mem seen alias then error "duplicate alias %s in FROM" alias;
      Hashtbl.add seen alias ())
    local_aliases;
  let conjuncts = match sel.Sql.where with None -> [] | Some w -> Sql.conjuncts w in
  (* The semi-join reduction runs before slot assignment: it may remove
     aliases from the FROM list entirely. *)
  let local_aliases, conjuncts, probes, reductions =
    if ctx.naive || not ctx.opts.semijoin_reduction then
      local_aliases, conjuncts, [], []
    else reduce_path_filters ctx sel local_aliases conjuncts
  in
  let env_slots = Array.length ctx.slots in
  let ctx =
    { ctx with slots = Array.append ctx.slots (Array.of_list local_aliases); subs = ref [] }
  in
  let local_names = List.map fst local_aliases in
  let is_local a = List.mem a local_names in
  (* Greedy join-order selection. *)
  let order =
    if ctx.naive then List.mapi (fun i _ -> env_slots + i) local_aliases
    else begin
      let bound = ref [] in
      let remaining = ref (List.mapi (fun i (a, t) -> i + env_slots, a, t) local_aliases) in
      let order = ref [] in
      let outer_bound a = not (is_local a) in
      let applicable alias conj =
        let free = Sql.free_aliases conj in
        List.mem alias free
        && List.for_all (fun f -> String.equal f alias || outer_bound f || List.mem f !bound) free
      in
      (* Estimated rows this alias contributes per outer binding, using
         cached per-column distinct counts for equality conjuncts and the
         materialized set sizes for pathid probes. *)
      let estimate alias table =
        let n = float_of_int (max 1 (Table.row_count table)) in
        let eq_sel col = 1.0 /. float_of_int (Table.distinct_estimate table col) in
        let sel_of conj =
          match conj with
          | Sql.Cmp (Sql.Eq, Sql.Col (a, col), _) when String.equal a alias -> eq_sel col
          | Sql.Cmp (Sql.Eq, _, Sql.Col (a, col)) when String.equal a alias -> eq_sel col
          | Sql.Cmp (Sql.Eq, _, _) -> 0.05
          | Sql.Between _ -> 0.02
          | Sql.Cmp ((Sql.Lt | Sql.Le | Sql.Gt | Sql.Ge), _, _) -> 0.25
          | Sql.Regexp_like _ -> 0.2
          | Sql.Cmp (Sql.Ne, _, _) -> 0.9
          | Sql.And _ | Sql.Or _ | Sql.Not _ | Sql.Exists _ -> 0.5
          | Sql.Is_not_null _ -> 0.9
          | Sql.Bool_const _ -> 1.0
          | Sql.Col _ | Sql.Const _ | Sql.Concat _ | Sql.Arith _ | Sql.To_number _
          | Sql.Length _ | Sql.Count_subquery _ -> 1.0
        in
        let probe_sel =
          List.fold_left
            (fun acc pb ->
              if String.equal pb.pb_alias alias then
                acc
                *. Float.min 1.0
                     (float_of_int (Hashtbl.length pb.pb_set)
                     /. float_of_int (max 1 (Table.distinct_estimate table pb.pb_col)))
              else acc)
            1.0 probes
        in
        List.fold_left
          (fun acc conj -> if applicable alias conj then acc *. sel_of conj else acc)
          (n *. probe_sel) conjuncts
      in
      let connected alias =
        List.exists
          (fun conj ->
            let free = Sql.free_aliases conj in
            List.mem alias free
            && List.exists
                 (fun f -> (not (String.equal f alias)) && (outer_bound f || List.mem f !bound))
                 free)
          conjuncts
      in
      while !remaining <> [] do
        let scored =
          List.map
            (fun (slot, alias, table) ->
              let cost = estimate alias table in
              let penalty =
                if !bound = [] && env_slots = 0 then 1.0
                else if connected alias then 1.0
                else 1e6
              in
              (cost *. penalty, slot, alias))
            !remaining
        in
        let best =
          List.fold_left
            (fun acc entry ->
              match acc with
              | None -> Some entry
              | Some (c, _, _) ->
                let c', _, _ = entry in
                if c' < c then Some entry else acc)
            None scored
        in
        (match best with
         | None -> assert false
         | Some (_, slot, alias) ->
           order := slot :: !order;
           bound := alias :: !bound;
           remaining := List.filter (fun (s, _, _) -> s <> slot) !remaining)
      done;
      List.rev !order
    end
  in
  (* Assign each conjunct to the earliest step after which it is fully
     bound, and choose access paths. *)
  let alias_of_slot slot = fst ctx.slots.(slot) in
  let bound_after i alias =
    (* aliases bound once steps 0..i (in [order]) have run *)
    (not (is_local alias))
    ||
    let rec go j = function
      | [] -> false
      | slot :: rest ->
        if j > i then false
        else if String.equal (alias_of_slot slot) alias then true
        else go (j + 1) rest
    in
    go 0 order
  in
  let step_of_conjunct conj =
    let free = Sql.free_aliases conj in
    let rec earliest i =
      if i >= List.length order then
        (* references only outer aliases: evaluate before any local step *)
        -1
      else if List.for_all (bound_after i) free then i
      else earliest (i + 1)
    in
    if List.for_all (fun a -> not (is_local a)) free then -1
    else earliest 0
  in
  let assigned = List.map (fun c -> step_of_conjunct c, c) conjuncts in
  (* Compile each pathid probe against the final slot layout. The probed
     column is declared INTEGER (checked by the reduction), and declared
     types are enforced on insert, so only [Int] and [Null] can appear;
     NULL never equals any id. *)
  let probe_preds =
    List.map
      (fun pb ->
        let slot, i = column_slot ctx pb.pb_alias pb.pb_col in
        let counters = ctx.counters in
        let set = pb.pb_set in
        let pred : pred_fn =
         fun bind ->
          counters.rows_probed <- counters.rows_probed + 1;
          match bind.(slot).(i) with
          | Value.Int v -> Some (Hashtbl.mem set v)
          | Value.Null | Value.Float _ | Value.Str _ | Value.Bin _ -> Some false
        in
        (pb, pred))
      probes
  in
  let pre_filters =
    List.filter_map (fun (i, c) -> if i = -1 then Some (compile_pred ctx c) else None) assigned
    @ List.filter_map
        (fun (pb, pred) -> if is_local pb.pb_alias then None else Some pred)
        probe_preds
  in
  let order_arr = Array.of_list order in
  let nsteps = Array.length order_arr in
  let accesses : access array = Array.make nsteps `Scan in
  if not ctx.naive then
    Array.iteri
      (fun i slot ->
        accesses.(i) <-
          choose_access ctx ~table:(snd ctx.slots.(slot)) ~alias:(alias_of_slot slot)
            ~bound:(bound_after (i - 1)) ~probes conjuncts)
      order_arr;
  (* Sort elision: when the final ORDER BY is a single column of the
     outermost step and that step is still a full scan, walk an index
     leading on the column instead — same rows, but emitted already in
     the requested order, so the final stable sort becomes the identity
     and is skipped ([pl_order_preserved]). *)
  if (not ctx.naive) && env_slots = 0 && nsteps > 0 then begin
    match sel.Sql.order_by with
    | [ Sql.Col (oa, oc) ] when String.equal (alias_of_slot order_arr.(0)) oa ->
      (match accesses.(0) with
       | `Scan ->
         (match Table.index_with_prefix (snd ctx.slots.(order_arr.(0))) [ oc ] with
          | Some (tree, _) -> accesses.(0) <- `Index_order tree
          | None -> ())
       | _ -> ())
    | _ -> ()
  end;
  let steps =
    List.mapi
      (fun i slot ->
        let alias = alias_of_slot slot in
        let table = snd ctx.slots.(slot) in
        let my_conjuncts = List.filter_map (fun (j, c) -> if j = i then Some c else None) assigned in
        let my_probes =
          List.filter (fun (pb, _) -> String.equal pb.pb_alias alias) probe_preds
        in
        (* A pruned partition scan subsumes every set probe on the
           partition column: the partition invariant guarantees each
           emitted row's key is one of the matched keys, which were
           intersected over exactly those probe sets — so the per-row
           probe is dropped (the point of pruning) while the sets stay in
           the plan footprint for fine-grained invalidation. The
           retained plan state shrinks from the probe hashtable to the
           matched-key list; peak-bytes accounting follows. *)
        let my_probes =
          match accesses.(i), Table.partition_spec table with
          | `Partition_scan ps, Some spec ->
            let subsumed, kept =
              List.partition
                (fun (pb, _) -> String.equal pb.pb_col spec.Table.part_col)
                my_probes
            in
            List.iter
              (fun (pb, _) ->
                ctx.counters.peak_bytes <-
                  ctx.counters.peak_bytes - ((32 * Hashtbl.length pb.pb_set) + 64))
              subsumed;
            if subsumed <> [] then
              ctx.counters.peak_bytes <-
                ctx.counters.peak_bytes + (8 * Array.length ps.ps_keys) + 48;
            kept
          | _ -> my_probes
        in
        {
          st_slot = slot;
          st_table = table;
          st_access = accesses.(i);
          st_filters = List.map (compile_pred ctx) my_conjuncts @ List.map snd my_probes;
          st_probe_labels = List.map (fun (pb, _) -> pb.pb_label) my_probes;
          st_examined = 0;
          st_passed = 0;
          st_ns = 0;
        })
      order
  in
  let projections =
    List.map (fun (e, name) -> compile_value ctx e, name) sel.Sql.projections
  in
  let order_by = List.map (compile_value ctx) sel.Sql.order_by in
  (* The final stable sort is the identity exactly when (a) the sort key
     is a single column of the first (outermost) step — nested-loop
     emission is then grouped by outer row, hence nondecreasing on any
     key the outer step emits in nondecreasing order — and (b) that step
     walks an index leading on the key column. Requires no outer slots:
     a correlated sub-select's emission order depends on its caller. *)
  let order_preserved =
    env_slots = 0
    && (match sel.Sql.order_by, steps with
        | [ Sql.Col (oa, oc) ], st0 :: _ ->
          String.equal (alias_of_slot st0.st_slot) oa
          && emits_ascending st0.st_table st0.st_access oc
        | _ -> false)
  in
  (* Record what this select depends on. An alias is pathid-guarded only
     when a reduction probe on its literal [path_id] column filters every
     row it binds; the reduction's dimension table was swept at plan time,
     so any change to it (new or dropped pathids) invalidates. *)
  List.iter
    (fun (alias, table) ->
      let dep =
        match
          List.find_opt
            (fun pb ->
              String.equal pb.pb_alias alias && String.equal pb.pb_col "path_id")
            probes
        with
        | Some pb -> Dep_paths pb.pb_set
        | None -> Dep_all
      in
      footprint_add ctx table dep)
    local_aliases;
  List.iter
    (fun rd ->
      match Database.table_opt ctx.db rd.rd_dim_table with
      | Some t -> footprint_add ctx t Dep_all
      | None -> ())
    reductions;
  {
    pl_ctx = ctx;
    pl_env = env_slots;
    pl_pre = pre_filters;
    pl_steps = steps;
    pl_project = projections;
    pl_distinct = sel.Sql.distinct;
    pl_order_by = order_by;
    pl_order_preserved = order_preserved;
    pl_total = Array.length ctx.slots;
    pl_reductions = List.rev reductions;
    pl_subs = List.rev !(ctx.subs);
  }

(* Pick the best access for [table]/[alias], given that [bound] tells
   which other aliases are already available. Returns a strategy that
   computes B+tree bounds (or hash keys) per binding. The Dewey
   structural joins of paper Section 4.2 — [d > a || 0xFF], [d < a],
   [d BETWEEN a AND a || 0xFF] — are ranges on the inner alias's key
   column, so they become per-binding index range scans (or prefix
   lookups). All conjuncts are re-checked as filters afterwards, so a
   lossy-but-superset access is sound. A hash join is used for equijoins
   with no usable index path (the fact tables index
   [(dewey_pos, path_id)] but not [path_id] alone); which side builds is
   decided by the greedy join order, i.e. by the existing cardinality
   estimates. *)
and choose_access ctx ~table ~alias ~bound ~probes conjuncts : access =
  let bound_expr e =
    List.for_all (fun a -> (not (String.equal a alias)) && bound a) (Sql.free_aliases e)
    || Sql.free_aliases e = []
  in
  (* Ancestor-prefix candidates: [e BETWEEN col AND col || sfx] holds
     exactly when col is a byte-prefix of e, so the matching rows can be
     fetched by equality lookups on every prefix of e's value — turning a
     Dewey ancestor join into O(depth) index probes. *)
  let prefix_lookup =
    List.find_map
      (fun conj ->
        match conj with
        | Sql.Between (e, Sql.Col (a1, c1), Sql.Concat (Sql.Col (a2, c2), _))
          when String.equal a1 alias && String.equal a2 alias && String.equal c1 c2
               && bound_expr e ->
          (match Table.index_with_prefix table [ c1 ] with
           | Some (tree, _) -> Some (tree, compile_value ctx e)
           | None -> None)
        | _ -> None)
      conjuncts
  in
  (* Equality candidates: col = <bound expr>. *)
  let equalities =
    List.filter_map
      (fun conj ->
        match conj with
        | Sql.Cmp (Sql.Eq, Sql.Col (a, col), e) when String.equal a alias && bound_expr e ->
          Some (col, e)
        | Sql.Cmp (Sql.Eq, e, Sql.Col (a, col)) when String.equal a alias && bound_expr e ->
          Some (col, e)
        | _ -> None)
      conjuncts
  in
  (* Range candidates: col cmp <bound expr>, plus the sound relaxations of
     concat comparisons (col || suffix < e implies col < e). *)
  let ranges =
    List.filter_map
      (fun conj ->
        match conj with
        | Sql.Between (Sql.Col (a, col), lo, hi)
          when String.equal a alias && bound_expr lo && bound_expr hi ->
          Some (col, Some (lo, true), Some (hi, true))
        | Sql.Cmp (op, Sql.Col (a, col), e) when String.equal a alias && bound_expr e ->
          (match op with
           | Sql.Lt -> Some (col, None, Some (e, false))
           | Sql.Le -> Some (col, None, Some (e, true))
           | Sql.Gt -> Some (col, Some ((e, false) : Sql.expr * bool), None)
           | Sql.Ge -> Some (col, Some (e, true), None)
           | Sql.Eq | Sql.Ne -> None)
        | Sql.Cmp (op, e, Sql.Col (a, col)) when String.equal a alias && bound_expr e ->
          (match op with
           | Sql.Gt -> Some (col, None, Some (e, false))
           | Sql.Ge -> Some (col, None, Some (e, true))
           | Sql.Lt -> Some (col, Some (e, false), None)
           | Sql.Le -> Some (col, Some (e, true), None)
           | Sql.Eq | Sql.Ne -> None)
        | Sql.Cmp ((Sql.Lt | Sql.Le), Sql.Concat (Sql.Col (a, col), _), e)
          when String.equal a alias && bound_expr e ->
          (* col || sfx <= e implies col < e (sfx non-empty). *)
          Some (col, None, Some (e, false))
        | Sql.Cmp ((Sql.Gt | Sql.Ge), e, Sql.Concat (Sql.Col (a, col), _))
          when String.equal a alias && bound_expr e ->
          Some (col, None, Some (e, false))
        | _ -> None)
      conjuncts
  in
  (* Cost-based choice: estimate the rows each candidate access path
     fetches. Equality selectivity comes from cached per-column distinct
     counts; ranges use a fixed factor. Lowest estimate wins; residual
     filters re-check everything, so estimates only affect speed. *)
  let n_rows = float_of_int (max 1 (Table.row_count table)) in
  let eq_selectivity col = 1.0 /. float_of_int (Table.distinct_estimate table col) in
  let range_selectivity = 0.25 in
  let best = ref None in
  let consider cost (access : access) =
    match !best with
    | Some (c, _) when c <= cost -> ()
    | Some _ | None -> best := Some (cost, access)
  in
  List.iter
    (fun (cols, tree) ->
      let rec eq_prefix acc sel = function
        | [] -> List.rev acc, sel, []
        | col :: rest ->
          (match List.assoc_opt col equalities with
           | Some e -> eq_prefix (e :: acc) (sel *. eq_selectivity col) rest
           | None -> List.rev acc, sel, col :: rest)
      in
      let eqs, sel, rest = eq_prefix [] 1.0 cols in
      let range_next =
        match rest with
        | [] -> None
        | col :: _ ->
          List.fold_left
            (fun acc (rcol, lo, hi) ->
              if String.equal rcol col then
                match acc with
                | None -> Some (lo, hi)
                | Some (lo0, hi0) ->
                  (* Merge: keep any bound we have. *)
                  Some
                    ( (match lo0 with None -> lo | some -> some),
                      match hi0 with None -> hi | some -> some )
              else acc)
            None ranges
      in
      match eqs, range_next with
      | [], None -> ()
      | eqs, None ->
        let fns = Array.of_list (List.map (compile_value ctx) eqs) in
        consider (n_rows *. sel) (`Index_eq (tree, fns))
      | eqs, Some (lo, hi) ->
        let fns = Array.of_list (List.map (compile_value ctx) eqs) in
        let cbound = Option.map (fun (e, incl) -> compile_value ctx e, incl) in
        let rsel = if lo <> None && hi <> None then range_selectivity /. 2.0 else range_selectivity in
        consider (n_rows *. sel *. rsel) (`Index_range (tree, fns, cbound lo, cbound hi)))
    (Table.indexes table);
  (match prefix_lookup with
   | Some (tree, fn) ->
     (* One probe per prefix length present in the index: bounded by the
        tree's distinct key depths. The length set is forced on first
        execution, not at plan time, so EXPLAIN stays cheap. *)
     let lengths =
       lazy
         (let seen = Hashtbl.create 8 in
          Btree.iter
            (fun key _ ->
              match key.(0) with
              | Value.Bin s | Value.Str s ->
                Hashtbl.replace seen (String.length s) ()
              | Value.Null | Value.Int _ | Value.Float _ -> ())
            tree;
          let ls = Hashtbl.fold (fun l () acc -> l :: acc) seen [] in
          Array.of_list (List.sort compare ls))
     in
     consider 24.0 (`Prefix_lookup (tree, fn, lengths))
   | None -> ());
  (* Partition-pruning candidate: the table is physically partitioned on
     a column carrying a plan-time pathid set probe for this alias, so
     the probe set resolves to a matched-partition list and the scan cost
     is the exact matched row count — beating a full scan whenever any
     partition is pruned, and competing fairly (rows fetched per binding)
     with index paths. Emission is ascending on the partition sort
     column, which ORDER BY elision exploits. *)
  (match Table.partition_spec table with
   | None -> ()
   | Some spec ->
     let sets =
       List.filter_map
         (fun pb ->
           if
             String.equal pb.pb_alias alias
             && String.equal pb.pb_col spec.Table.part_col
           then Some pb.pb_set
           else None)
         probes
     in
     (match sets, Table.column_index table spec.Table.part_sort with
      | [], _ | _, None -> ()
      | sets, Some sort_idx ->
        let keys =
          List.filter
            (fun k -> List.for_all (fun s -> Hashtbl.mem s k) sets)
            (Table.partition_keys table)
        in
        let rows =
          List.fold_left (fun n k -> n + Table.partition_size table k) 0 keys
        in
        consider (float_of_int rows)
          (`Partition_scan
             {
               ps_table = table;
               ps_keys = Array.of_list keys;
               ps_total = Table.partition_count table;
               ps_rows = rows;
               ps_sort_col = spec.Table.part_sort;
               ps_sort_idx = sort_idx;
             })));
  (* Hash-join candidate: a true equijoin (the key references at least
     one already-bound alias — constant equalities are selections and
     gain nothing from a build) whose key types hash consistently (see
     {!canon_key}). Preferred only when no index path exists — the
     repeated full scans it replaces are the worst case — unless
     [force] pins it for differential testing. *)
  let hash_candidate =
    if ctx.opts.hash_join || ctx.opts.force = Some `Hash_join then
      List.find_map
        (fun (col, e) ->
          if Sql.free_aliases e = [] then None
          else
          match Table.column_index table col, Table.column_ty table col, static_ty ctx e with
          | Some idx, Some bty, Some pty ->
            let kind =
              match bty, pty with
              | (Value.Tstr | Value.Tbin), (Value.Tstr | Value.Tbin) -> Some `Str
              | (Value.Tint | Value.Tfloat), (Value.Tint | Value.Tfloat) -> Some `Num
              | (Value.Tstr | Value.Tbin), (Value.Tint | Value.Tfloat)
              | (Value.Tint | Value.Tfloat), (Value.Tstr | Value.Tbin) ->
                None
            in
            Option.map
              (fun kind ->
                {
                  hp_table = table;
                  hp_col = col;
                  hp_idx = idx;
                  hp_kind = kind;
                  hp_key = compile_value ctx e;
                  hp_build = ref None;
                })
              kind
          | _, _, _ -> None)
        equalities
    else None
  in
  match hash_candidate, !best with
  | Some hp, _ when ctx.opts.force = Some `Hash_join -> `Hash_probe hp
  | Some hp, None -> `Hash_probe hp
  | _, Some (_, access) -> access
  | None, None -> `Scan

(* ------------------------------------------------------------------ *)
(* EXISTS                                                              *)
(* ------------------------------------------------------------------ *)

(* Compile an EXISTS in the shape {!exists_shape} assigns it, recording
   the sub-plan (and the shape) on the enclosing select for EXPLAIN.
   [`Uncorrelated]: evaluate once, cache the boolean. [`Semijoin]: every
   correlated conjunct is an inner = outer equality over hash-consistent
   types, so evaluate the inner query once, hash its distinct key tuples
   and test membership per binding. [`Correlated]: plan once, execute per
   binding with early exit. *)
and compile_exists ctx (sel : Sql.select) : pred_fn =
  let sub shape sel =
    let p = plan_select ctx sel in
    ctx.subs := (shape, p) :: !(ctx.subs);
    p
  in
  let exception Found in
  let exists p outer =
    try
      run_planned p outer (fun _ -> raise Found);
      false
    with Found -> true
  in
  match if ctx.naive then `Correlated else exists_shape ctx sel with
  | `Correlated ->
    let p = sub Per_binding sel in
    fun outer -> Some (exists p outer)
  | `Uncorrelated merged ->
    let p = sub Once merged in
    let cache = ref None in
    fun outer ->
      (match !cache with
       | Some b -> Some b
       | None ->
         let b = exists p outer in
         cache := Some b;
         Some b)
  | `Semijoin (pairs, kinds, inner_sel) ->
    let p = sub (Semijoin (List.length pairs)) inner_sel in
    let outer_fns = List.map (fun (o, _) -> compile_value ctx o) pairs in
    let table = ref None in
    let build outer =
      match !table with
      | Some t -> t
      | None ->
        let t = Hashtbl.create 1024 in
        (* The inner query sees no outer slots it depends on; pass
           the current binding anyway (harmless). *)
        run_planned p outer (fun b ->
            let key = List.map2 (fun kind (fn, _) -> canon_key kind (fn b)) kinds p.pl_project in
            if List.for_all Option.is_some key then
              Hashtbl.replace t (List.map Option.get key) ());
        table := Some t;
        t
    in
    fun outer ->
      let t = build outer in
      let key =
        List.map2 (fun kind fn -> canon_key kind (fn outer)) kinds outer_fns
      in
      if List.exists Option.is_none key then Some false
      else Some (Hashtbl.mem t (List.map Option.get key))

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

let compare_rows (a : Value.t array) (b : Value.t array) =
  let n = min (Array.length a) (Array.length b) in
  let rec go i =
    if i >= n then Int.compare (Array.length a) (Array.length b)
    else
      match Value.compare_total a.(i) b.(i) with
      | 0 -> go (i + 1)
      | c -> c
  in
  go 0

module Row_set = Set.Make (struct
  type t = Value.t array

  let compare = compare_rows
end)

(* The items whose row has not been seen before, in order. *)
let first_occurrences row_of items =
  let seen = ref Row_set.empty in
  List.filter
    (fun item ->
      let row = row_of item in
      (not (Row_set.mem row !seen)) && (seen := Row_set.add row !seen; true))
    items

(* DISTINCT / ORDER BY tail for one select's emitted
   (sort keys, projected row) pairs, in emission order. DISTINCT keeps
   the first occurrence of each row. When the plan proved it emits rows
   nondecreasing on the sort keys ([pl_order_preserved]), the stable
   sort would be the identity and is skipped. *)
let finalize_select p rows =
  let rows = if p.pl_distinct then first_occurrences snd rows else rows in
  if p.pl_order_by = [] || p.pl_order_preserved then rows
  else List.stable_sort (fun (ka, _) (kb, _) -> compare_rows ka kb) rows

(* UNION tail: distinct over whole rows (first occurrence wins), then
   ORDER BY the given projection ordinals. *)
let finalize_union order_cols all =
  let rows = first_occurrences Fun.id all in
  if order_cols = [] then rows
  else
    List.stable_sort
      (fun a b ->
        let rec go = function
          | [] -> 0
          | i :: rest ->
            (match Value.compare_total a.(i) b.(i) with 0 -> go rest | c -> c)
        in
        go order_cols)
      rows

(* Plan a select once — planning, join ordering, access-path choice, the
   semi-join reduction and predicate compilation all happen here — and
   return the planned select with a closure executing it. Memoized state
   created at compile time (EXISTS caches, pathid sets, hash-join build
   tables) is shared across executions, which is sound as long as the
   database has not changed (enforced by {!run_plan}'s epoch check; the
   one-shot entry points execute immediately). *)
let compile_select ctx (sel : Sql.select) =
  let p = plan_select ctx sel in
  ( p,
    fun () ->
      let out = ref [] in
      run_planned p [||] (fun b ->
          let row = Array.of_list (List.map (fun (fn, _) -> fn b) p.pl_project) in
          let keys = Array.of_list (List.map (fun fn -> fn b) p.pl_order_by) in
          out := (keys, row) :: !out);
      let rows = finalize_select p (List.rev !out) in
      { columns = List.map snd sel.Sql.projections; rows = List.map snd rows } )

(* ------------------------------------------------------------------ *)
(* Prepared plans                                                      *)
(* ------------------------------------------------------------------ *)

(* A compiled statement: the plan tree that EXPLAIN prints and EXPLAIN
   ANALYZE reads back, the closure that executes it, and the root ctx
   holding the counters, footprint and profile flag every sub-plan
   shares. *)
type plan = {
  plan_db : Database.t;
  mutable plan_epoch : int;
  plan_tree : [ `Select of planned | `Union of planned list ];
  plan_exec : unit -> result;
  plan_ctx : ctx;
}

let compile ~naive ~opts db stmt =
  let ctx =
    {
      db;
      slots = [||];
      naive;
      opts;
      counters = counters_create ();
      profiling = ref false;
      subs = ref [];
      footprint = Hashtbl.create 8;
      verdicts = Hashtbl.create 16;
    }
  in
  let tree, exec =
    match stmt with
    | Sql.Select sel ->
      let p, run = compile_select ctx sel in
      `Select p, run
    | Sql.Select_count sel ->
      let p, counted =
        compile_select ctx
          {
            sel with
            Sql.distinct = false;
            projections = [ Sql.Const (Value.Int 1), "one" ];
            order_by = [];
          }
      in
      ( `Select p,
        fun () ->
          { columns = [ "count" ]; rows = [ [| Value.Int (List.length (counted ()).rows) |] ] }
      )
    | Sql.Union (branches, order_cols) ->
      let columns =
        match branches with
        | [] -> []
        | first :: _ ->
          let arity = List.length first.Sql.projections in
          List.iter
            (fun b ->
              if List.length b.Sql.projections <> arity then
                error "UNION branches project different arities")
            branches;
          List.map snd first.Sql.projections
      in
      let compiled = List.map (compile_select ctx) branches in
      ( `Union (List.map fst compiled),
        fun () ->
          let all = List.concat_map (fun (_, run) -> (run ()).rows) compiled in
          { columns; rows = finalize_union order_cols all } )
  in
  { plan_db = db; plan_epoch = Database.epoch db; plan_tree = tree; plan_exec = exec; plan_ctx = ctx }

let prepare ?(opts = default_opts) db stmt =
  Database.with_read db (fun () -> compile ~naive:false ~opts db stmt)

let plan_epoch p = p.plan_epoch

let plan_valid p = Database.epoch p.plan_db = p.plan_epoch

let plan_stats p = make (fun _ _ _ get -> get p.plan_ctx.counters)

let plan_footprint p =
  Hashtbl.fold
    (fun table e acc ->
      let dep =
        match e.fe_dep with
        | Dep_all -> `All
        | Dep_paths set ->
          `Paths (List.sort Int.compare (Hashtbl.fold (fun k () l -> k :: l) set []))
      in
      (table, dep) :: acc)
    p.plan_ctx.footprint []
  |> List.sort compare

(* Fine-grained revalidation: the plan stays runnable after commits whose
   changed-pathid sets are disjoint from its footprint. On success the
   recorded versions (and epoch) advance so the next check is O(1) when
   nothing further changed. *)
let plan_compatible p =
  Database.epoch p.plan_db = p.plan_epoch
  || Hashtbl.fold
       (fun table e ok ->
         ok
         &&
         match Database.delta_pathids p.plan_db ~table ~from_version:e.fe_version with
         | None -> false
         | Some changed -> (
           match e.fe_dep with
           | Dep_all -> (
             (* Any touch at all invalidates a Dep_all table. *)
             match Database.table_opt p.plan_db table with
             | None -> false
             | Some tbl -> Table.version tbl = e.fe_version)
           | Dep_paths set -> not (List.exists (Hashtbl.mem set) changed)))
       p.plan_ctx.footprint true
     && begin
          Hashtbl.iter
            (fun table e ->
              match Database.table_opt p.plan_db table with
              | Some tbl -> e.fe_version <- Table.version tbl
              | None -> ())
            p.plan_ctx.footprint;
          p.plan_epoch <- Database.epoch p.plan_db;
          true
        end

let run_plan p =
  Database.with_read p.plan_db (fun () ->
      if not (plan_compatible p) then
        error "stale plan: database epoch moved from %d to %d since prepare"
          p.plan_epoch (Database.epoch p.plan_db);
      p.plan_exec ())

(* ------------------------------------------------------------------ *)
(* EXPLAIN and EXPLAIN ANALYZE: readings of the plan tree               *)
(* ------------------------------------------------------------------ *)

type step_profile = {
  table : string;
  alias : string;
  access : string;
  examined : int;
  passed : int;
  seconds : float;
}

let access_label : access -> string = function
  | `Scan -> "full scan"
  | `Index_eq (tree, fns) ->
    Printf.sprintf "index eq lookup (%d cols, width %d)" (Array.length fns)
      (Btree.width tree)
  | `Index_range (tree, fns, lo, hi) ->
    Printf.sprintf "index range scan (eq prefix %d, lo %s, hi %s, width %d)"
      (Array.length fns)
      (if lo = None then "-inf" else "bound")
      (if hi = None then "+inf" else "bound")
      (Btree.width tree)
  | `Index_order tree -> Printf.sprintf "index order scan (width %d)" (Btree.width tree)
  | `Prefix_lookup (tree, _, _) -> Printf.sprintf "prefix lookups (width %d)" (Btree.width tree)
  | `Hash_probe hp -> Printf.sprintf "hash join (build %s.%s)" (Table.name hp.hp_table) hp.hp_col
  | `Partition_scan ps ->
    Printf.sprintf "partition scan (%s order), partitions: scanned %d/%d (pruned %d, %d rows)"
      ps.ps_sort_col (Array.length ps.ps_keys) ps.ps_total
      (ps.ps_total - Array.length ps.ps_keys)
      ps.ps_rows

let step_profile p st =
  {
    table = Table.name st.st_table;
    alias = fst p.pl_ctx.slots.(st.st_slot);
    access = String.concat " + " (access_label st.st_access :: st.st_probe_labels);
    examined = st.st_examined;
    passed = st.st_passed;
    seconds = float_of_int st.st_ns *. 1e-9;
  }

(* The one walk over a plan tree, in print order: [line indent text] for
   each plan line that is not a step, [step indent planned step] for each
   step. EXISTS sub-plans follow their select, indented. *)
let walk_plan ~line ~step plan =
  let rec select indent p =
    List.iter
      (fun rd ->
        line indent
          (Printf.sprintf
             "semi-join reduction: %s(%s) REGEXP '%s' -> %d of %d path ids, probed on %s.%s"
             rd.rd_dim_table rd.rd_dim_alias rd.rd_pattern rd.rd_matched rd.rd_total
             rd.rd_fact_alias rd.rd_fact_col))
      p.pl_reductions;
    if p.pl_pre <> [] then
      line indent (Printf.sprintf "constant filters: %d" (List.length p.pl_pre));
    List.iter (step indent p) p.pl_steps;
    if p.pl_distinct then line indent "distinct";
    if p.pl_order_by <> [] then
      line indent
        (if p.pl_order_preserved then
           Printf.sprintf "order: preserved (%d keys, sort elided)" (List.length p.pl_order_by)
         else Printf.sprintf "sort (%d keys)" (List.length p.pl_order_by));
    List.iter
      (fun (shape, sub) ->
        line indent
          (match shape with
           | Once -> "exists subquery (uncorrelated, evaluated once):"
           | Semijoin n ->
             Printf.sprintf "exists subquery (decorrelated semi-join, %d key%s):" n
               (if n = 1 then "" else "s")
           | Per_binding -> "exists subquery (correlated, per binding):");
        select (indent ^ "  ") sub)
      p.pl_subs
  in
  match plan.plan_tree with
  | `Select p -> select "" p
  | `Union ps ->
    List.iteri
      (fun i p ->
        line "" (Printf.sprintf "union branch %d:" i);
        select "  " p)
      ps

let render ~analyze plan =
  let buf = Buffer.create 256 in
  walk_plan plan
    ~line:(fun indent text -> Printf.bprintf buf "%s%s\n" indent text)
    ~step:(fun indent p st ->
      let sp = step_profile p st in
      Printf.bprintf buf "%sstep %s(%s): %s, %d residual filters" indent sp.table sp.alias
        sp.access
        (List.length st.st_filters - List.length st.st_probe_labels);
      if analyze then
        Printf.bprintf buf " — examined %d, passed %d, %.6fs" sp.examined sp.passed
          sp.seconds;
      Buffer.add_char buf '\n');
  Buffer.contents buf

let explain ?opts db stmt = render ~analyze:false (prepare ?opts db stmt)

(* EXPLAIN ANALYZE is the served executor over a freshly compiled plan
   with its profile flag set: planning and the single execution happen
   under one read lock, exactly as [prepare] followed by [run_plan]. *)
let run_analyzed ?(opts = default_opts) db stmt =
  Database.with_read db @@ fun () ->
  let plan = compile ~naive:false ~opts db stmt in
  plan.plan_ctx.profiling := true;
  let result = plan.plan_exec () in
  plan, result

let run_profiled ?opts db stmt =
  let plan, result = run_analyzed ?opts db stmt in
  let profiles = ref [] in
  walk_plan plan
    ~line:(fun _ _ -> ())
    ~step:(fun _ p st -> profiles := step_profile p st :: !profiles);
  result, List.rev !profiles, plan_stats plan

let explain_analyze ?opts db stmt =
  let plan, result = run_analyzed ?opts db stmt in
  render ~analyze:true plan, result, plan_stats plan

let run ?(opts = default_opts) db stmt =
  Database.with_read db (fun () -> (compile ~naive:false ~opts db stmt).plan_exec ())

let run_naive db stmt =
  Database.with_read db (fun () -> (compile ~naive:true ~opts:default_opts db stmt).plan_exec ())
