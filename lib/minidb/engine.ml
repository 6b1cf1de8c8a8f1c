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

(* A predicate's three-valued result. Constant constructors are
   immediate, so a predicate allocates nothing to answer. *)
type truth = False | True | Unknown

type pred_fn = binding -> truth

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
   innermost loops. A plan runs on one domain at a time: a session's
   plans run only on the domain that owns the session (a server worker
   runs only its own session's statements), and the cluster hands each
   shard plan to one pool worker per execution. So plain mutation is
   safe. A plan's counters are read ({!plan_stats}, {!report_stats}) only
   by the domain that ran it, or by another after [Pool.await] on the
   task that ran it, which orders the read after the writes. The
   interface exports the record [private], so outside this module a
   snapshot is read-only. *)
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

type counter = { name : string; label : string; scope : scope; get : exec_stats -> int }

(* The counter table: each counter declared once, as its field and JSON
   name, EXPLAIN label, scope, accessor and setter, in field order. Zero,
   snapshot, sum, difference, {!counters} and the in-place operations
   below all walk it. *)
let fields =
  let c name label scope get set = ({ name; label; scope; get }, set) in
  [
    c "rows_scanned" "scanned" Per_exec (fun s -> s.rows_scanned) (fun s n -> s.rows_scanned <- n);
    c "rows_probed" "probed" Per_exec (fun s -> s.rows_probed) (fun s n -> s.rows_probed <- n);
    c "rows_emitted" "emitted" Per_exec (fun s -> s.rows_emitted) (fun s n -> s.rows_emitted <- n);
    c "regex_plan_evals" "plan regex evals" Plan_lifetime (fun s -> s.regex_plan_evals)
      (fun s n -> s.regex_plan_evals <- n);
    c "regex_exec_evals" "exec regex evals" Per_exec (fun s -> s.regex_exec_evals)
      (fun s n -> s.regex_exec_evals <- n);
    c "dfa_execs" "dfa execs" Per_exec (fun s -> s.dfa_execs) (fun s n -> s.dfa_execs <- n);
    c "hash_builds" "hash builds" Plan_lifetime (fun s -> s.hash_builds)
      (fun s n -> s.hash_builds <- n);
    c "reductions" "reductions" Plan_lifetime (fun s -> s.reductions)
      (fun s n -> s.reductions <- n);
    c "partitions_scanned" "partitions scanned" Per_exec (fun s -> s.partitions_scanned)
      (fun s n -> s.partitions_scanned <- n);
    c "partitions_pruned" "partitions pruned" Per_exec (fun s -> s.partitions_pruned)
      (fun s n -> s.partitions_pruned <- n);
    c "peak_bytes" "peak bytes" Plan_lifetime (fun s -> s.peak_bytes)
      (fun s n -> s.peak_bytes <- n);
  ]

let counters = List.map fst fields

let stats_create () =
  {
    rows_scanned = 0; rows_probed = 0; rows_emitted = 0; regex_plan_evals = 0;
    regex_exec_evals = 0; dfa_execs = 0; hash_builds = 0; reductions = 0;
    partitions_scanned = 0; partitions_pruned = 0; peak_bytes = 0;
    content_candidates = 0; content_verified = 0; merge_steps = 0;
  }

(* A fresh record holding [f c] in every counter [c]. *)
let make f =
  let s = stats_create () in
  List.iter (fun (c, set) -> set s (f c)) fields;
  s

let stats_zero = stats_create ()

let stats_add a b = make (fun c -> c.get a + c.get b)

let stats_diff a b = make (fun c -> c.get a - c.get b)

(* [into] gains [cur - mark], then [mark] catches up with [cur]: a
   top-level loop over [fields] that takes every operand, so it
   allocates nothing. *)
let rec report_fields ~into cur mark = function
  | [] -> ()
  | ((c : counter), set) :: rest ->
    let n = c.get cur in
    set into (c.get into + n - c.get mark);
    set mark n;
    report_fields ~into cur mark rest

let stats_accumulate ~into src = report_fields ~into src (stats_create ()) fields

let stats_to_string s =
  String.concat ", " (List.map (fun c -> Printf.sprintf "%s %d" c.label (c.get s)) counters)

(* What a compiled plan depends on, per table: which changed pathids
   force a re-plan. [Dep_paths { matched; swept }]: every access the plan
   makes to the table is guarded by a pathid set probe that admits only
   [matched]. A change to a pathid in [matched] re-plans. With [swept =
   None] the probe's regex was decided on every [paths] row, so any
   other pathid is harmless. With [swept = Some keys] it was decided
   only on the table's partition keys at plan time: another pathid is
   harmless if it is in [keys], or if the table holds no row of it (a
   commit's pathid list covers every table it touched, so most such ids
   name rows of other relations); a pathid that now has rows but was
   never decided re-plans. Anything weaker is [Dep_all]: any touch
   re-plans. *)
type fp_dep =
  | Dep_all
  | Dep_paths of {
      matched : (int, unit) Hashtbl.t;
      swept : (int, unit) Hashtbl.t option;
    }

type fp_entry = { mutable fe_version : int; mutable fe_dep : fp_dep }

(* A hash-join access: build an in-memory hash of the step's table keyed
   on [hp_col] (once, lazily, cached on the plan — sound under the same
   epoch guard that protects memoized EXISTS state), then probe it with
   the bound key expression per outer binding. *)
(* A typed canonical join key (see {!canon_key}). *)
type key = Kint of int | Kfloat of float | Kstr of string

(* How the two sides of a hashed equality compare, from their static
   types: [`Int] both INTEGER (exact integer equality), [`Num] numeric
   with a FLOAT side (equality after conversion to float), [`Str] both
   strings or raw bytes. *)
type key_kind = [ `Int | `Num | `Str ]

let key_equal a b =
  match a, b with
  | Kint x, Kint y -> Int.equal x y
  | Kfloat x, Kfloat y -> Float.equal x y
  | Kstr x, Kstr y -> String.equal x y
  | (Kint _ | Kfloat _ | Kstr _), _ -> false

module Key_tbl = Hashtbl.Make (struct
  type t = key

  let equal = key_equal
  let hash = Hashtbl.hash
end)

module Int_tbl = Hashtbl.Make (Int)

(* Key tuples of a decorrelated EXISTS. *)
module Keys_tbl = Hashtbl.Make (struct
  type t = key list

  let equal = List.equal key_equal
  let hash = Hashtbl.hash
end)

type hash_probe = {
  hp_table : Table.t;
  hp_col : string;
  hp_idx : int;
  hp_kind : key_kind;
  hp_key : value_fn;
  hp_build : int list Key_tbl.t option ref;
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

(* An index probe run once per outer binding. Its bounds are built at
   plan time and only their key arrays are refilled from each binding (the
   equality prefix, then the range value), so a probe allocates nothing.
   A range value [x || c] with a constant string [c] fills in [x] and
   keeps [c] as the bound's suffix.
   A bound is [None] only when it constrains nothing: no equality prefix
   and no range value on that side. An equality probe's two bounds are
   one record. *)
type index_probe = {
  ix_tree : Btree.t;
  ix_eq : value_fn array;
  ix_lo : (value_fn * bool * Value.t option) option;
  ix_hi : (value_fn * bool * Value.t option) option;
  ix_lo_b : Btree.bound option;
  ix_hi_b : Btree.bound option;
}

type access =
  [ `Scan
  | `Index_eq of index_probe
  | `Index_range of index_probe
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
  mutable st_on_row : int -> unit;
      (* what the access hands each row id to: bind, filter, enter the
         next step. Built once per plan (see {!link_frame}). *)
}

(* A select's execution state, built once per plan and reused by every
   execution: the binding the steps fill and the consumer of complete
   bindings. A plan is executed by one domain at a time and a select
   never runs inside its own execution (a sub-plan is a different
   select), so one frame per select suffices. *)
type frame = {
  fr_bind : binding;
  mutable fr_emit : binding -> unit;
  fr_steps : step array;
}

(* One applied path-filter semi-join reduction (EXPLAIN reporting). *)
type reduction = {
  rd_dim_table : string;
  rd_dim_alias : string;
  rd_pattern : string;
  rd_fact_alias : string;
  rd_fact_col : string;
  rd_domain : [ `Paths | `Partitions ];
      (* what was swept: every dimension row, or the dimension rows of
         the fact table's partition keys *)
  rd_matched : int;
  rd_total : int;
}

(* The materialized pathid set a reduction produces, to be probed on the
   fact alias's column, with the footprint the sweep proves for it. *)
type probe_src = {
  pb_alias : string;
  pb_col : string;
  pb_set : (int, unit) Hashtbl.t;
  pb_dep : fp_dep;
  pb_label : string;
}

(* How an EXISTS sub-plan is executed, fixed when the predicate is
   compiled (see {!exists_shape}). *)
type sub_shape =
  | Once  (* uncorrelated: evaluated once, the boolean cached *)
  | Semijoin of int  (* decorrelated: key tuples hashed once, probed per binding *)
  | Per_binding  (* correlated: executed per outer binding, early exit *)

(* How a select removes duplicate rows, fixed at plan time (see
   {!dedup_of}). *)
type dedup =
  | Keep_all  (* no DISTINCT, or a sub-plan whose caller ignores it *)
  | Key_elided  (* declared keys prove every row distinct *)
  | Key_hash of int * string
      (* hash set on the INTEGER key at this projection ordinal; the
         label names it ("alias.col") *)
  | Row_set  (* tree set over whole rows *)

type planned = {
  pl_ctx : ctx;
  pl_env : int;
  pl_pre : pred_fn list;
  pl_steps : step list;
  pl_project : (value_fn * string) list;
  pl_dedup : dedup;
  pl_key : int option;
      (* ordinal of the projected declared key when every projection
         reads one alias (see {!projected_key}); UNION hashes on it *)
  pl_order_by : value_fn list;
  pl_order_preserved : bool;
      (* the pipeline provably emits rows nondecreasing on [pl_order_by],
         so the final stable sort is the identity and is skipped *)
  pl_total : int;
  pl_reductions : reduction list;
  pl_subs : (sub_shape * planned) list;
      (* the EXISTS sub-plans of this select's filters, in compile order *)
  pl_frame : frame;
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


(* Two deps on one table hold together: a pathid is harmless only if it
   is harmless to both, so the matched sets unite and the swept sets
   intersect. *)
let fp_merge a b =
  match a, b with
  | Dep_all, _ | _, Dep_all -> Dep_all
  | Dep_paths a, Dep_paths b ->
    let matched = Hashtbl.copy a.matched in
    Hashtbl.iter (fun k () -> Hashtbl.replace matched k ()) b.matched;
    let swept =
      match a.swept, b.swept with
      | None, s | s, None -> s
      | Some sa, Some sb ->
        let r = Hashtbl.create (Hashtbl.length sa) in
        Hashtbl.iter (fun k () -> if Hashtbl.mem sb k then Hashtbl.replace r k ()) sa;
        Some r
    in
    Dep_paths { matched; swept }

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

(* The key kind of an equality between expressions of these static
   types, or [None] when the types do not hash consistently. *)
let key_kind_of a b : key_kind option =
  match a, b with
  | Value.Tint, Value.Tint -> Some `Int
  | (Value.Tint | Value.Tfloat), (Value.Tint | Value.Tfloat) -> Some `Num
  | (Value.Tstr | Value.Tbin), (Value.Tstr | Value.Tbin) -> Some `Str
  | (Value.Tstr | Value.Tbin), (Value.Tint | Value.Tfloat)
  | (Value.Tint | Value.Tfloat), (Value.Tstr | Value.Tbin) ->
    None

(* A number as a key: integral values become [Kint], so [3 = 3.0] and
   [-0.0 = 0.0] meet in one bucket; the rest (NaN included) stay
   [Kfloat], whose equality is [Float.equal] — {!Value.compare_sql}'s. *)
let num_key f =
  if Float.is_integer f && Float.abs f < 0x1p62 then Kint (int_of_float f) else Kfloat f

(* Canonical hash key for a value under a kind — shared by the hash-join
   operator and EXISTS decorrelation. Exact w.r.t. {!Value.compare_sql}
   on the gated type combinations: two values get equal keys exactly
   when they compare equal, so a hash lookup neither misses a row the
   join would produce nor admits one it would not. Integers compared
   with integers keep every bit; compared with floats they go through
   [float_of_int], as the comparison does. [Str] and [Bin] share one
   string key; NULL has none. *)
let canon_key (kind : key_kind) v =
  match kind, v with
  | _, Value.Null -> None
  | `Str, (Value.Str s | Value.Bin s) -> Some (Kstr s)
  | `Str, (Value.Int _ | Value.Float _) -> None
  | `Int, Value.Int i -> Some (Kint i)
  | `Num, Value.Int i -> Some (num_key (float_of_int i))
  | (`Int | `Num), Value.Float f -> Some (num_key f)
  | (`Int | `Num), (Value.Str _ | Value.Bin _) -> Option.map num_key (Value.to_float v)

(* Estimated resident bytes of a key as a hashtable bucket entry. *)
let key_bytes = function
  | Kint _ -> 16
  | Kfloat _ -> 24
  | Kstr s -> 24 + String.length s


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
  | `Index_order tree -> index_first_col table tree = Some c
  | `Index_range ix when Array.length ix.ix_eq = 0 -> index_first_col table ix.ix_tree = Some c
  | `Partition_scan ps -> String.equal ps.ps_sort_col c
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Path-filter semi-join reduction                                     *)
(* ------------------------------------------------------------------ *)

(* Detect the PPF shape the translator emits — a dimension alias [p]
   whose only uses are an integer equijoin [f.fcol = p.idcol] and a
   [REGEXP_LIKE(p.pcol, pat)] — evaluate the regex at plan time, and
   replace both conjuncts (and the join itself) with an O(1) integer set
   probe on [f.fcol].

   Soundness requires the dimension ids to be unique non-null integers:
   then each fact row joins at most one dimension row, so dropping the
   join preserves multiplicity exactly. A NULL id never joins and a NULL
   path never matches REGEXP_LIKE, so skipping those rows is exact, not
   approximate. Both columns must be declared INTEGER — {!Table.insert}
   enforces declared types, so at runtime the probe only ever sees [Int]
   or [Null] and an exact int lookup suffices.

   The sweep's domain is the smaller of two. When the fact table is
   partitioned on [fcol] and [idcol] is a declared key of the dimension,
   only the fact table's partition keys are looked up, through the key's
   index: a fact row's key is always one of them (overflow rows hold NULL
   and never join), and the declaration already guarantees uniqueness.
   Otherwise every dimension row is swept and uniqueness is verified on
   the way (the reduction is abandoned on a duplicate).

   The probe carries the footprint the sweep proves ([fp_dep]): after a
   full sweep only a change to a matched pathid re-plans; after a
   partition sweep so does a change that gives the fact table rows of a
   pathid that was not swept (a new partition under an existing [paths]
   row). The dimension table itself is [Dep_all]. *)
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
        let ok_types ft =
          Table.column_ty ft fcol = Some Value.Tint
          && Table.column_ty ptable idcol = Some Value.Tint
        in
        (match ftable, Table.column_index ptable pcol, Table.column_index ptable idcol with
         | Some ft, Some pci, Some ici when ok_types ft && not p_used_elsewhere ->
           let re =
             try Ppfx_regex.Regex.compile_cached pat
             with Ppfx_regex.Regex.Parse_error msg ->
               error "invalid regular expression %S: %s" pat msg
           in
           let matches row =
             match Value.text row.(pci) with
             | None -> false
             | Some s ->
               (match Hashtbl.find_opt ctx.verdicts (pat, s) with
                | Some v -> v
                | None ->
                  ctx.counters.regex_plan_evals <- ctx.counters.regex_plan_evals + 1;
                  let v = Ppfx_regex.Regex.search re s in
                  Hashtbl.add ctx.verdicts (pat, s) v;
                  v)
           in
           let set = Hashtbl.create 64 in
           let key_index =
             match Table.partition_spec ft with
             | Some spec
               when String.equal spec.Table.part_col fcol
                    && List.mem idcol (Table.keys ptable) ->
               Table.index_on ptable [ idcol ]
             | _ -> None
           in
           let sweep =
             match key_index with
             | Some idx ->
               let keys = Table.partition_keys ft in
               let swept = Hashtbl.create 16 in
               List.iter
                 (fun k ->
                   Hashtbl.replace swept k ();
                   match Btree.find_first idx (Value.Int k) with
                   | Some rid ->
                     ctx.counters.rows_scanned <- ctx.counters.rows_scanned + 1;
                     if matches (Table.row ptable rid) then Hashtbl.replace set k ()
                   | None -> ())
                 keys;
               Some
                 ( `Partitions,
                   List.length keys,
                   Dep_paths { matched = set; swept = Some swept } )
             | None ->
               (* Every dimension row, verifying id uniqueness. *)
               let seen = Hashtbl.create 64 in
               let total = ref 0 in
               (try
                  Table.iter_rows
                    (fun _ row ->
                      incr total;
                      ctx.counters.rows_scanned <- ctx.counters.rows_scanned + 1;
                      match row.(ici) with
                      | Value.Null -> ()
                      | Value.Int id ->
                        if Hashtbl.mem seen id then raise Exit;
                        Hashtbl.add seen id ();
                        if matches row then Hashtbl.replace set id ()
                      | Value.Float _ | Value.Str _ | Value.Bin _ ->
                        (* declared INTEGER, so unreachable; bail rather
                           than guess at coercion semantics *)
                        raise Exit)
                    ptable;
                  Some (`Paths, !total, Dep_paths { matched = set; swept = None })
                with Exit -> None)
           in
           (match sweep with
            | None -> acc
            | Some (domain, total, dep) ->
              ctx.counters.reductions <- ctx.counters.reductions + 1;
              ctx.counters.peak_bytes <-
                ctx.counters.peak_bytes + (32 * Hashtbl.length set) + 64;
              let matched = Hashtbl.length set in
              let label =
                Printf.sprintf "pathid set probe (%d of %d %s)" matched total
                  (match domain with `Paths -> "paths" | `Partitions -> "partitions")
              in
              let pb = { pb_alias = f; pb_col = fcol; pb_set = set; pb_dep = dep; pb_label = label } in
              let rd =
                {
                  rd_dim_table = Table.name ptable;
                  rd_dim_alias = p;
                  rd_pattern = pat;
                  rd_fact_alias = f;
                  rd_fact_col = fcol;
                  rd_domain = domain;
                  rd_matched = matched;
                  rd_total = total;
                }
              in
              ( List.filter (fun (a, _) -> not (String.equal a p)) locals,
                others,
                pb :: probes,
                rd :: reds ))
         | _ -> acc)
    end
  in
  List.fold_left try_alias (local_aliases, conjuncts, [], []) local_aliases

(* ------------------------------------------------------------------ *)
(* Access execution                                                    *)
(* ------------------------------------------------------------------ *)

(* Fill key position [i] on of both bound keys with the equality prefix;
   false on a NULL, which equals nothing. An equality probe's two keys
   are one array, filled twice. *)
let rec fill_prefix (fns : value_fn array) bind lo_key hi_key i =
  if i >= Array.length fns then true
  else
    match fns.(i) bind with
    | Value.Null -> false
    | v ->
      lo_key.(i) <- v;
      hi_key.(i) <- v;
      fill_prefix fns bind lo_key hi_key (i + 1)

(* Put a range side's value last in its bound key; false on a NULL: the
   comparison is unknown, so no row qualifies. *)
let fill_side side bind key =
  match side with
  | None -> true
  | Some ((fn : value_fn), _, _) ->
    (match fn bind with
     | Value.Null -> false
     | v ->
       key.(Array.length key - 1) <- v;
       true)

let bound_key : Btree.bound option -> Value.t array = function
  | Some b -> b.Btree.key
  | None -> [||]

let probe_index ix bind f =
  let lo_key = bound_key ix.ix_lo_b and hi_key = bound_key ix.ix_hi_b in
  if fill_prefix ix.ix_eq bind lo_key hi_key 0 then begin
    let lo_ok = fill_side ix.ix_lo bind lo_key in
    let hi_ok = fill_side ix.ix_hi bind hi_key in
    if lo_ok && hi_ok then Btree.iter_range ix.ix_tree ~lo:ix.ix_lo_b ~hi:ix.ix_hi_b f
  end

let index_probe tree eq lo hi =
  let n = Array.length eq in
  let bound = function
    | None when n = 0 -> None
    | None -> Some { Btree.key = Array.make n Value.Null; inclusive = true; suffix = None }
    | Some (_, inclusive, suffix) ->
      Some { Btree.key = Array.make (n + 1) Value.Null; inclusive; suffix }
  in
  let lo_b = bound lo in
  let hi_b = if lo = None && hi = None then lo_b else bound hi in
  { ix_tree = tree; ix_eq = eq; ix_lo = lo; ix_hi = hi; ix_lo_b = lo_b; ix_hi_b = hi_b }

let iter_access counters table (access : access) (bind : binding) (f : int -> unit) =
  match access with
  | `Scan -> Table.iter_ids f table
  | `Partition_scan ps ->
    counters.partitions_scanned <- counters.partitions_scanned + Array.length ps.ps_keys;
    counters.partitions_pruned <-
      counters.partitions_pruned + max 0 (ps.ps_total - Array.length ps.ps_keys);
    Table.iter_merged f ps.ps_table ps.ps_keys
  | `Index_order tree ->
    (* Full walk of an index in key order: same rows as a scan (every
       row appears in every index exactly once), different order. Used
       to elide the final ORDER BY sort. *)
    Btree.iter_ids f tree
  | `Prefix_lookup (tree, fn, lengths) ->
    (* One equality probe per candidate prefix length, comparing the
       probe key's prefix in place. Only lengths that
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
       let lengths = Lazy.force lengths in
       for j = 0 to Array.length lengths - 1 do
         let k = lengths.(j) in
         if k <= n then Btree.iter_bin_prefix tree v k f
       done
     | Value.Null | Value.Int _ | Value.Float _ -> ())
  | `Index_eq ix | `Index_range ix -> probe_index ix bind f
  | `Hash_probe hp ->
    let build =
      match !(hp.hp_build) with
      | Some t -> t
      | None ->
        counters.hash_builds <- counters.hash_builds + 1;
        let t = Key_tbl.create (max 16 (Table.live_count hp.hp_table)) in
        Table.iter_rows
          (fun id row ->
            counters.rows_scanned <- counters.rows_scanned + 1;
            match canon_key hp.hp_kind row.(hp.hp_idx) with
            | Some k ->
              let prev = Option.value ~default:[] (Key_tbl.find_opt t k) in
              Key_tbl.replace t k (id :: prev)
            | None -> ())
          hp.hp_table;
        (* Reverse each bucket so probes emit row ids in ascending order —
           the same order a scan-plus-filter of this table would produce. *)
        Key_tbl.filter_map_inplace (fun _ ids -> Some (List.rev ids)) t;
        let bytes =
          Key_tbl.fold
            (fun k ids acc -> acc + key_bytes k + 48 + (24 * List.length ids))
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
       (match Key_tbl.find build k with
        | ids -> List.iter f ids
        | exception Not_found -> ()))

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let rec all_true bind = function
  | [] -> true
  | (p : pred_fn) :: ps ->
    (match p bind with True -> all_true bind ps | False | Unknown -> false)

let of_bool b = if b then True else False

(* The executor: the one loop over plan steps, shared by served
   execution, sub-plans and EXPLAIN ANALYZE. Every step counts the rows
   it examines and passes; only when the plan's profile flag is set does
   a step entry also read the clock (once per entry, never per row).
   Entering a step runs its access with the step's prebuilt row handler,
   so neither a step entry nor a row allocates. *)
let rec enter ctx fr i =
  let counters = ctx.counters in
  if i = Array.length fr.fr_steps then begin
    counters.rows_emitted <- counters.rows_emitted + 1;
    fr.fr_emit fr.fr_bind
  end
  else begin
    let st = fr.fr_steps.(i) in
    if !(ctx.profiling) then begin
      let t0 = now_ns () in
      Fun.protect
        ~finally:(fun () -> st.st_ns <- st.st_ns + (now_ns () - t0))
        (fun () -> iter_access counters st.st_table st.st_access fr.fr_bind st.st_on_row)
    end
    else iter_access counters st.st_table st.st_access fr.fr_bind st.st_on_row
  end

and on_row ctx fr i row_id =
  let st = fr.fr_steps.(i) in
  ctx.counters.rows_scanned <- ctx.counters.rows_scanned + 1;
  let row = Table.row st.st_table row_id in
  (* Memoized hash builds can outlive a retained plan's rows: a
     fine-grained commit may tombstone a row whose id they still
     hold. The commit's pathid-disjointness guarantees such rows
     could never satisfy this plan's probes, so skipping the
     tombstone is exact. *)
  if Array.length row > 0 then begin
    st.st_examined <- st.st_examined + 1;
    fr.fr_bind.(st.st_slot) <- row;
    if all_true fr.fr_bind st.st_filters then begin
      st.st_passed <- st.st_passed + 1;
      enter ctx fr (i + 1)
    end
  end

(* The frame of a select over [steps], each step's row handler built
   once here. *)
let link_frame ctx total steps =
  let fr = { fr_bind = Array.make total [||]; fr_emit = ignore; fr_steps = Array.of_list steps } in
  Array.iteri (fun i st -> st.st_on_row <- on_row ctx fr i) fr.fr_steps;
  fr

(* Execute a planned select under an outer binding (empty at top level):
   check the constant filters, then run the steps. *)
let run_planned p outer emit =
  let fr = p.pl_frame in
  Array.blit outer 0 fr.fr_bind 0 p.pl_env;
  fr.fr_emit <- emit;
  if all_true fr.fr_bind p.pl_pre then enter p.pl_ctx fr 0

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
    | `Semijoin of (Sql.expr * Sql.expr) list * key_kind list * Sql.select
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
        | Some a, Some b -> key_kind_of a b
        | None, _ | _, None -> None
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

(* ------------------------------------------------------------------ *)
(* Key-aware DISTINCT                                                  *)
(* ------------------------------------------------------------------ *)

(* Whether [k] is an INTEGER key [table] declares. *)
let int_key table k = List.mem k (Table.keys table) && Table.column_ty table k = Some Value.Tint

(* The projected declared key of [sel] over its FROM list [locals]: when
   every projection reads only one local alias X and one of them is X.k
   for an INTEGER key k that X's table declares ({!Table.create_key}),
   [Some (ordinal, X, k)]. Two bindings with equal X.k then bind the
   same X row, so they project equal rows. *)
let projected_key (sel : Sql.select) locals =
  match
    List.sort_uniq String.compare
      (List.concat_map (fun (e, _) -> Sql.free_aliases e) sel.Sql.projections)
  with
  | [ x ] ->
    (match List.assoc_opt x locals with
     | None -> None
     | Some table ->
       let rec find i = function
         | [] -> None
         | (Sql.Col (a, k), _) :: _ when String.equal a x && int_key table k -> Some (i, x, k)
         | _ :: rest -> find (i + 1) rest
       in
       find 0 sel.Sql.projections)
  | _ -> None

(* Whether the rows of alias [x] determine every other FROM alias of
   [sel]. The determined set grows through top-level conjuncts
   [Y.k = e] where k is an INTEGER key Y's table declares and e is an
   INTEGER expression over determined aliases: given those, at most one
   Y row joins ([paths.id] through a fact's [path_id], a parent's [id]
   through a child's fk). Aliases of EXISTS sub-selects are not in the
   FROM list and never multiply rows. When every alias is determined,
   each X row occurs in at most one binding. *)
let key_determines ctx (sel : Sql.select) locals x =
  let conjuncts = match sel.Sql.where with None -> [] | Some w -> Sql.conjuncts w in
  let scope = { ctx with slots = Array.append ctx.slots (Array.of_list locals) } in
  let rec grow det =
    let known a = List.mem a det || not (List.mem_assoc a locals) in
    let keyed y k e =
      (not (known y))
      && int_key (List.assoc y locals) k
      && List.for_all known (Sql.free_aliases e)
      && static_ty scope e = Some Value.Tint
    in
    match
      List.find_map
        (function
          | Sql.Cmp (Sql.Eq, Sql.Col (y, k), e) when keyed y k e -> Some y
          | Sql.Cmp (Sql.Eq, e, Sql.Col (y, k)) when keyed y k e -> Some y
          | _ -> None)
        conjuncts
    with
    | Some y -> grow (y :: det)
    | None -> det
  in
  let det = grow [ x ] in
  List.for_all (fun (a, _) -> List.mem a det) locals

(* The select's duplicate elimination and projected key. Only a
   top-level select ([ctx] has no outer slots) runs its DISTINCT; EXISTS
   and COUNT sub-plans only test or count bindings. The naive executor
   keeps the row set, so it stays an independent oracle. *)
let dedup_of ctx (sel : Sql.select) locals =
  if Array.length ctx.slots > 0 then None, Keep_all
  else begin
    let key = projected_key sel locals in
    let dedup =
      if not sel.Sql.distinct then Keep_all
      else if ctx.naive then Row_set
      else
        match key with
        | None -> Row_set
        | Some (i, x, k) ->
          if key_determines ctx sel locals x then Key_elided else Key_hash (i, x ^ "." ^ k)
    in
    Option.map (fun (i, _, _) -> i) key, dedup
  end

let null_int = min_int

let rec int_expr = function
  | Sql.Length (Sql.Col _) | Sql.Count_subquery _ -> true
  | Sql.Const (Value.Int k) -> abs k < 1 lsl 40
  | Sql.Const (Value.Float f) -> Float.is_integer f && Float.abs f < 0x1p40
  | Sql.Arith ((Sql.Add | Sql.Sub), a, b) -> int_expr a && int_expr b
  | _ -> false

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
  | Sql.Count_subquery _ ->
    let count = compile_int ctx e in
    fun outer -> Value.Int (count outer)
  | Sql.Cmp _ | Sql.Between _ | Sql.And _ | Sql.Or _ | Sql.Not _
  | Sql.Regexp_like _ | Sql.Exists _ | Sql.Is_not_null _ | Sql.Bool_const _ ->
    error "boolean expression used where a value is required: %s"
      (Format.asprintf "%a" Sql.pp_expr e)

(* An integer expression evaluated without a boxed value: [int_expr]
   admits LENGTH of a column, COUNT sub-queries and small integral
   constants under [+] and [-], whose float arithmetic in
   {!compile_value} is exact, so comparing the integers is comparing the
   values. [null_int] stands for NULL. The translator's depth bounds
   ([LENGTH(d) >= LENGTH(a) + 3]) and count predicates are such
   comparisons, checked on every row. *)
and compile_int ctx (e : Sql.expr) : binding -> int =
  match e with
  | Sql.Length a ->
    let fa = compile_value ctx a in
    fun bind ->
      (match fa bind with
       | Value.Str s | Value.Bin s -> String.length s
       | Value.Null -> null_int
       | Value.Int _ | Value.Float _ -> error "LENGTH applied to a numeric value")
  | Sql.Count_subquery sel ->
    (* Correlated scalar COUNT: plan once, count matching bindings per
       outer row. *)
    let p = plan_select ctx sel in
    let n = ref 0 in
    let count _ = incr n in
    fun outer ->
      n := 0;
      run_planned p outer count;
      !n
  | Sql.Const (Value.Int k) -> fun _ -> k
  | Sql.Const (Value.Float f) ->
    let k = int_of_float f in
    fun _ -> k
  | Sql.Arith (op, a, b) ->
    let fa = compile_int ctx a and fb = compile_int ctx b in
    let add = match op with Sql.Add -> true | _ -> false in
    fun bind ->
      let y = fb bind in
      let x = fa bind in
      if x = null_int || y = null_int then null_int else if add then x + y else x - y
  | _ -> assert false

(* [compare_with ctx e v bind] compares [v] against [e] under the
   binding, as {!Value.compare_sql_code}. A concatenation operand is
   compared without being built: the Dewey bound [d || x'FF'] is one. *)
and compare_with ctx (e : Sql.expr) : Value.t -> binding -> int =
  match e with
  | Sql.Concat (a, b) ->
    let fa = compile_value ctx a and fb = compile_value ctx b in
    fun v bind -> Value.compare_sql_concat v (fa bind) (fb bind)
  | _ ->
    let fe = compile_value ctx e in
    fun v bind -> Value.compare_sql_code v (fe bind)

and compile_pred ctx (e : Sql.expr) : pred_fn =
  match e with
  | Sql.Cmp (op, a, b) ->
    let holds c =
      match op with
      | Sql.Eq -> c = 0
      | Sql.Ne -> c <> 0
      | Sql.Lt -> c < 0
      | Sql.Le -> c <= 0
      | Sql.Gt -> c > 0
      | Sql.Ge -> c >= 0
    in
    let truth c = if c = Value.incomparable then Unknown else of_bool (holds c) in
    (match a, b with
     | a, b when int_expr a && int_expr b ->
       let ia = compile_int ctx a and ib = compile_int ctx b in
       fun bind ->
         let y = ib bind in
         let x = ia bind in
         if x = null_int || y = null_int then Unknown else of_bool (holds (Int.compare x y))
     | Sql.Concat _, _ when (match b with Sql.Concat _ -> false | _ -> true) ->
       (* Compare from the other side and flip the sign. *)
       let ca = compare_with ctx a and fb = compile_value ctx b in
       fun bind ->
         let c = ca (fb bind) bind in
         truth (if c = Value.incomparable then c else -c)
     | _ ->
       let fa = compile_value ctx a and cb = compare_with ctx b in
       fun bind -> truth (cb (fa bind) bind))
  | Sql.Between (e, lo, hi) ->
    let fe = compile_value ctx e
    and clo = compare_with ctx lo
    and chi = compare_with ctx hi in
    fun bind ->
      let v = fe bind in
      let b = chi v bind in
      let a = clo v bind in
      if a = Value.incomparable || b = Value.incomparable then Unknown
      else of_bool (a >= 0 && b <= 0)
  | Sql.And (a, b) ->
    let fa = compile_pred ctx a and fb = compile_pred ctx b in
    fun bind ->
      (* Kleene conjunction; both sides are evaluated. *)
      let y = fb bind in
      (match fa bind, y with
       | False, _ | _, False -> False
       | True, True -> True
       | Unknown, _ | _, Unknown -> Unknown)
  | Sql.Or (a, b) ->
    let fa = compile_pred ctx a and fb = compile_pred ctx b in
    fun bind ->
      let y = fb bind in
      (match fa bind, y with
       | True, _ | _, True -> True
       | False, False -> False
       | Unknown, _ | _, Unknown -> Unknown)
  | Sql.Not a ->
    let fa = compile_pred ctx a in
    fun bind -> (match fa bind with True -> False | False -> True | Unknown -> Unknown)
  | Sql.Regexp_like (e, pattern) ->
    let fe = compile_value ctx e in
    let counters = ctx.counters in
    let re =
      try Ppfx_regex.Regex.compile_cached pattern
      with Ppfx_regex.Regex.Parse_error msg ->
        error "invalid regular expression %S: %s" pattern msg
    in
    let frozen = Ppfx_regex.Regex.has_frozen re in
    let search s =
      if frozen then counters.dfa_execs <- counters.dfa_execs + 1
      else counters.regex_exec_evals <- counters.regex_exec_evals + 1;
      of_bool (Ppfx_regex.Regex.search re s)
    in
    fun bind ->
      (match fe bind with
       | Value.Null -> Unknown
       | Value.Str s | Value.Bin s -> search s
       | (Value.Int _ | Value.Float _) as v ->
         (match Value.text v with None -> Unknown | Some s -> search s))
  | Sql.Exists sel -> compile_exists ctx sel
  | Sql.Is_not_null a ->
    let fa = compile_value ctx a in
    fun bind -> (match fa bind with Value.Null -> False | _ -> True)
  | Sql.Bool_const b ->
    let t = of_bool b in
    fun _ -> t
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
  let key, dedup = dedup_of ctx sel local_aliases in
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
          | Value.Int v -> of_bool (Hashtbl.mem set v)
          | Value.Null | Value.Float _ | Value.Str _ | Value.Bin _ -> False
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
          st_on_row = ignore;
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
        | Some pb -> pb.pb_dep
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
    pl_dedup = dedup;
    pl_key = key;
    pl_order_by = order_by;
    pl_order_preserved = order_preserved;
    pl_total = Array.length ctx.slots;
    pl_reductions = List.rev reductions;
    pl_subs = List.rev !(ctx.subs);
    pl_frame = link_frame ctx (Array.length ctx.slots) steps;
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
        consider (n_rows *. sel) (`Index_eq (index_probe tree fns None None))
      | eqs, Some (lo, hi) ->
        let fns = Array.of_list (List.map (compile_value ctx) eqs) in
        let cbound =
          Option.map (fun ((e : Sql.expr), incl) ->
              match e with
              | Sql.Concat (x, Sql.Const ((Value.Str _ | Value.Bin _) as c)) ->
                compile_value ctx x, incl, Some c
              | _ -> compile_value ctx e, incl, None)
        in
        let rsel = if lo <> None && hi <> None then range_selectivity /. 2.0 else range_selectivity in
        consider (n_rows *. sel *. rsel)
          (`Index_range (index_probe tree fns (cbound lo) (cbound hi))))
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
              (key_kind_of bty pty)
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
  let found _ = raise Found in
  let exists p outer =
    try
      run_planned p outer found;
      False
    with Found -> True
  in
  match if ctx.naive then `Correlated else exists_shape ctx sel with
  | `Correlated ->
    let p = sub Per_binding sel in
    fun outer -> exists p outer
  | `Uncorrelated merged ->
    let p = sub Once merged in
    let cache = ref Unknown in
    fun outer ->
      (match !cache with
       | (True | False) as b -> b
       | Unknown ->
         let b = exists p outer in
         cache := b;
         b)
  | `Semijoin (pairs, kinds, inner_sel) ->
    let p = sub (Semijoin (List.length pairs)) inner_sel in
    let outer_fns = List.map (fun (o, _) -> compile_value ctx o) pairs in
    let inner_fns = List.map fst p.pl_project in
    (* The key tuple of a binding; [None] when a component is NULL, which
       equals nothing. *)
    let rec keys_of kinds fns b =
      match kinds, fns with
      | kind :: kinds, fn :: fns ->
        (match canon_key kind (fn b) with
         | None -> None
         | Some k ->
           (match keys_of kinds fns b with None -> None | Some ks -> Some (k :: ks)))
      | _ -> Some []
    in
    (* A one-integer tuple lives in [ints], every other in [tuples]: the
       common probe, an INTEGER key such as a parent id, then builds no
       key at all. *)
    let ints = Int_tbl.create 64 and tuples = Keys_tbl.create 16 in
    let add = function
      | Some [ Kint i ] -> Int_tbl.replace ints i ()
      | Some k -> Keys_tbl.replace tuples k ()
      | None -> ()
    in
    let built = ref false in
    let build outer =
      if not !built then begin
        (* The inner query sees no outer slots it depends on; pass
           the current binding anyway (harmless). *)
        run_planned p outer (fun b -> add (keys_of kinds inner_fns b));
        built := true
      end
    in
    let mem = function
      | Some [ Kint i ] -> of_bool (Int_tbl.mem ints i)
      | Some k -> of_bool (Keys_tbl.mem tuples k)
      | None -> False
    in
    (match kinds, outer_fns with
     | [ `Int ], [ fn ] ->
       fun outer ->
         build outer;
         (match fn outer with
          | Value.Int i -> of_bool (Int_tbl.mem ints i)
          | v -> mem (Option.map (fun k -> [ k ]) (canon_key `Int v)))
     | _ ->
       fun outer ->
         build outer;
         mem (keys_of kinds outer_fns outer))

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

(* Compare [a] and [b] on components [i] to [n - 1]. *)
let rec compare_cols (a : Value.t array) (b : Value.t array) i n =
  if i >= n then 0
  else
    match Value.compare_total a.(i) b.(i) with
    | 0 -> compare_cols a b (i + 1) n
    | c -> c

let compare_rows (a : Value.t array) (b : Value.t array) =
  let la = Array.length a and lb = Array.length b in
  match compare_cols a b 0 (min la lb) with 0 -> Int.compare la lb | c -> c

(* Compare rows [a] and [b] on the projection ordinals [cols]. *)
let rec compare_at (a : Value.t array) (b : Value.t array) = function
  | [] -> 0
  | i :: rest -> (match Value.compare_total a.(i) b.(i) with 0 -> compare_at a b rest | c -> c)

module Row_set = Set.Make (struct
  type t = Value.t array

  let compare = compare_rows
end)

(* The rows one select (or a UNION) emits, kept across executions so a
   warm execution allocates only its answer: the rows, then one column
   of sort keys per ORDER BY expression ([o_keys.(c).(i)] is key [c] of
   row [i]), an open-addressed DISTINCT set of rows ([[||]] marks a
   free slot), and the sort's index array. [o_used] is the number of
   rows the current execution emitted before DISTINCT. The row buffers
   grow by doubling and are dropped after an execution that used under
   a quarter of them ({!out_fit}); the set and the index array are sized
   by the execution at hand. So a cached plan holds buffers of the order
   of its last answer, not of its largest. *)
type out = {
  mutable o_rows : Value.t array array;
  mutable o_keys : Value.t array array;
  mutable o_len : int;
  mutable o_used : int;
  mutable o_set : Value.t array array;
  mutable o_perm : int array;
}

let out_create nkeys =
  { o_rows = [||]; o_keys = Array.make nkeys [||]; o_len = 0; o_used = 0; o_set = [||];
    o_perm = [||] }

(* Make room for one more row. *)
let out_reserve o =
  if o.o_len = Array.length o.o_rows then begin
    let cap = max 64 (2 * o.o_len) in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 o.o_len;
      b
    in
    o.o_rows <- grow o.o_rows [||];
    o.o_keys <- Array.map (fun col -> grow col Value.Null) o.o_keys
  end

let out_push o row =
  out_reserve o;
  o.o_rows.(o.o_len) <- row;
  o.o_len <- o.o_len + 1

(* Drop the rows from [n] on, releasing them. *)
let out_truncate o n =
  Array.fill o.o_rows n (o.o_len - n) [||];
  Array.iter (fun col -> Array.fill col n (o.o_len - n) Value.Null) o.o_keys;
  o.o_len <- n

(* Empty the buffer after an execution, dropping its row arrays when
   the execution used less than a quarter of them (beyond a floor of 64
   rows), so one large answer does not stay allocated with the plan. *)
let out_fit o =
  out_truncate o 0;
  if Array.length o.o_rows > 4 * max o.o_used 64 then begin
    o.o_rows <- [||];
    o.o_keys <- Array.map (fun _ -> [||]) o.o_keys
  end

(* Keep the rows [keep] accepts, in order, with their sort keys. *)
let out_filter o keep =
  let w = ref 0 in
  for r = 0 to o.o_len - 1 do
    let row = o.o_rows.(r) in
    if keep row then begin
      if !w < r then begin
        o.o_rows.(!w) <- row;
        for c = 0 to Array.length o.o_keys - 1 do
          o.o_keys.(c).(!w) <- o.o_keys.(c).(r)
        done
      end;
      incr w
    end
  done;
  out_truncate o !w

let key_at (row : Value.t array) i = match row.(i) with Value.Int k -> k | v -> Hashtbl.hash v

(* Add [row] to the open-addressed set probed from slot [h]; false when
   an equal row is already there. *)
let rec set_add (set : Value.t array array) i k row h =
  let r = set.(h) in
  if Array.length r = 0 then begin
    set.(h) <- row;
    true
  end
  else if key_at r i = k && compare_rows r row = 0 then false
  else set_add set i k row ((h + 1) land (Array.length set - 1))

(* DISTINCT keeps the first occurrence of each row. [Key_hash] hashes on
   the integer at its ordinal: rows with equal keys are still compared
   whole, so the result is the same for any rows, and one comparison
   settles a duplicate when equal keys mean equal rows (a declared key
   of the one projected alias). The set is at most half full, and is
   reallocated when over four times the size this execution needs, so
   clearing it costs O(rows). *)
let out_dedup dedup o =
  match dedup with
  | Keep_all | Key_elided -> ()
  | Key_hash (i, _) ->
    let cap = ref 16 in
    while !cap < 2 * o.o_len do
      cap := 2 * !cap
    done;
    let have = Array.length o.o_set in
    if have < !cap || have > 4 * !cap then o.o_set <- Array.make !cap [||];
    let set = o.o_set in
    out_filter o (fun row ->
        let k = key_at row i in
        set_add set i k row (Hashtbl.hash k land (Array.length set - 1)));
    Array.fill set 0 (Array.length set) [||]
  | Row_set ->
    let seen = ref Row_set.empty in
    out_filter o (fun row ->
        (not (Row_set.mem row !seen)) && (seen := Row_set.add row !seen; true))

let nth order r = match order with Some perm -> perm.(r) | None -> r

(* The buffered rows as the answer list, in [order] (row indexes) when
   given; the buffer is emptied. *)
let out_take order o =
  let rows = ref [] in
  for r = o.o_len - 1 downto 0 do
    rows := o.o_rows.(nth order r) :: !rows
  done;
  out_fit o;
  !rows

(* Move the buffered rows of [src] to the end of [dst], in [order]. *)
let out_move order src dst =
  for r = 0 to src.o_len - 1 do
    out_push dst src.o_rows.(nth order r)
  done;
  out_fit src

(* The stable order of the buffered rows under [cmp] over row indexes.
   The index array is reused while the answer keeps its size. *)
let out_order o cmp =
  let n = o.o_len in
  if Array.length o.o_perm <> n then o.o_perm <- Array.make n 0;
  for i = 0 to n - 1 do
    o.o_perm.(i) <- i
  done;
  Array.stable_sort cmp o.o_perm;
  o.o_perm

let rec compare_keys (keys : Value.t array array) i j c =
  if c >= Array.length keys then 0
  else
    match Value.compare_total keys.(c).(i) keys.(c).(j) with
    | 0 -> compare_keys keys i j (c + 1)
    | r -> r

(* The projected row of a binding. Arities one and two are built as
   literals, with no intermediate closure. *)
let project_row (fns : value_fn array) b =
  match fns with
  | [| f0 |] -> [| f0 b |]
  | [| f0; f1 |] ->
    let v0 = f0 b in
    let v1 = f1 b in
    [| v0; v1 |]
  | _ ->
    let row = Array.make (Array.length fns) Value.Null in
    for j = 0 to Array.length fns - 1 do
      row.(j) <- fns.(j) b
    done;
    row

(* Plan a select once — planning, join ordering, access-path choice, the
   semi-join reduction and predicate compilation all happen here — and
   return the planned select with a closure executing it. Memoized state
   created at compile time (EXISTS caches, pathid sets, hash-join build
   tables) is shared across executions, which is sound as long as the
   database has not changed (enforced by {!run_plan}'s epoch check; the
   one-shot entry points execute immediately). The emitted rows go to a
   buffer kept with the plan; DISTINCT keeps the first occurrence of
   each row, then the stable ORDER BY sort runs unless the plan proved
   it emits rows in order ([pl_order_preserved]). *)
let compile_select ctx (sel : Sql.select) =
  let p = plan_select ctx sel in
  let project = Array.of_list (List.map fst p.pl_project) in
  let sort_keys = if p.pl_order_preserved then [||] else Array.of_list p.pl_order_by in
  let o = out_create (Array.length sort_keys) in
  let emit b =
    out_reserve o;
    let i = o.o_len in
    o.o_rows.(i) <- project_row project b;
    for c = 0 to Array.length sort_keys - 1 do
      o.o_keys.(c).(i) <- sort_keys.(c) b
    done;
    o.o_len <- i + 1
  in
  (* Execute into [o]; the rows' order, when not the buffer's. *)
  let run () =
    out_truncate o 0;
    run_planned p [||] emit;
    o.o_used <- o.o_len;
    out_dedup p.pl_dedup o;
    if Array.length sort_keys = 0 then None
    else Some (out_order o (fun i j -> compare_keys o.o_keys i j 0))
  in
  p, o, run

(* ------------------------------------------------------------------ *)
(* Prepared plans                                                      *)
(* ------------------------------------------------------------------ *)

(* A compiled statement: the plan tree that EXPLAIN prints and EXPLAIN
   ANALYZE reads back, the closure that executes it, the root ctx
   holding the counters, footprint and profile flag every sub-plan
   shares, and the mark of the counts already reported
   ({!report_stats}). *)
type plan = {
  plan_db : Database.t;
  mutable plan_epoch : int;
  plan_tree : [ `Select of planned | `Union of planned list * dedup ];
  plan_exec : unit -> result;
  plan_ctx : ctx;
  plan_mark : exec_stats;
}

let compile ~naive ~opts db stmt =
  let ctx =
    {
      db;
      slots = [||];
      naive;
      opts;
      counters = stats_create ();
      profiling = ref false;
      subs = ref [];
      footprint = Hashtbl.create 8;
      verdicts = Hashtbl.create 16;
    }
  in
  let tree, exec =
    match stmt with
    | Sql.Select sel ->
      let p, o, run = compile_select ctx sel in
      let columns = List.map snd sel.Sql.projections in
      `Select p, fun () -> { columns; rows = out_take (run ()) o }
    | Sql.Select_count sel ->
      let p, o, run =
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
          ignore (run ());
          let n = o.o_len in
          out_fit o;
          { columns = [ "count" ]; rows = [ [| Value.Int n |] ] } )
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
      (* UNION is distinct. When every branch projects its declared key
         at one ordinal, hash on it; ids of different tables may
         coincide, which {!out_dedup}'s whole-row check absorbs. *)
      let dedup =
        match List.map (fun (p, _, _) -> p.pl_key) compiled with
        | Some i :: rest when (not naive) && List.for_all (( = ) (Some i)) rest ->
          Key_hash (i, List.nth columns i)
        | _ -> Row_set
      in
      let o = out_create 0 in
      ( `Union (List.map (fun (p, _, _) -> p) compiled, dedup),
        fun () ->
          (* UNION tail: distinct over whole rows (first occurrence
             wins), then ORDER BY the given projection ordinals. *)
          out_truncate o 0;
          List.iter (fun (_, branch, run) -> out_move (run ()) branch o) compiled;
          o.o_used <- o.o_len;
          out_dedup dedup o;
          let order =
            if order_cols = [] then None
            else Some (out_order o (fun i j -> compare_at o.o_rows.(i) o.o_rows.(j) order_cols))
          in
          { columns; rows = out_take order o } )
  in
  { plan_db = db; plan_epoch = Database.epoch db; plan_tree = tree; plan_exec = exec;
    plan_ctx = ctx; plan_mark = stats_create () }

let prepare ?(opts = default_opts) db stmt =
  Database.with_read db (fun () -> compile ~naive:false ~opts db stmt)

let plan_epoch p = p.plan_epoch

let plan_valid p = Database.epoch p.plan_db = p.plan_epoch

let plan_stats p = make (fun c -> c.get p.plan_ctx.counters)

let report_stats p ~into = report_fields ~into p.plan_ctx.counters p.plan_mark fields

let plan_footprint p =
  let sorted_keys set = List.sort Int.compare (Hashtbl.fold (fun k () l -> k :: l) set []) in
  Hashtbl.fold
    (fun table e acc ->
      let dep =
        match e.fe_dep with
        | Dep_all -> `All
        | Dep_paths { matched; swept = None } -> `Paths (sorted_keys matched)
        | Dep_paths { matched; swept = Some swept } ->
          `Swept (sorted_keys matched, sorted_keys swept)
      in
      (table, dep) :: acc)
    p.plan_ctx.footprint []
  |> List.sort compare

(* Fine-grained revalidation: the plan stays runnable after commits whose
   changed pathids its footprint proves harmless. On success the
   recorded versions (and epoch) advance so the next check is O(1) when
   nothing further changed. Reads table state, so it runs under the
   database's read lock. *)
let compatible_locked p =
  Database.epoch p.plan_db = p.plan_epoch
  || Hashtbl.fold
       (fun table e ok ->
         ok
         &&
         match
           Database.table_opt p.plan_db table,
           Database.delta_pathids p.plan_db ~table ~from_version:e.fe_version
         with
         | None, _ | _, None -> false
         | Some tbl, Some changed -> (
           match e.fe_dep with
           | Dep_all ->
             (* Any touch at all invalidates a Dep_all table. *)
             Table.version tbl = e.fe_version
           | Dep_paths { matched; swept } ->
             let harmless x =
               (not (Hashtbl.mem matched x))
               &&
               match swept with
               | None -> true
               | Some swept -> Hashtbl.mem swept x || Table.partition_size tbl x = 0
             in
             List.for_all harmless changed))
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

let plan_compatible p =
  plan_valid p || Database.with_read p.plan_db (fun () -> compatible_locked p)

let run_plan p =
  Database.with_read p.plan_db (fun () ->
      if not (compatible_locked p) then
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
  | `Index_eq ix ->
    Printf.sprintf "index eq lookup (%d cols, width %d)" (Array.length ix.ix_eq)
      (Btree.width ix.ix_tree)
  | `Index_range ix ->
    Printf.sprintf "index range scan (eq prefix %d, lo %s, hi %s, width %d)"
      (Array.length ix.ix_eq)
      (if ix.ix_lo = None then "-inf" else "bound")
      (if ix.ix_hi = None then "+inf" else "bound")
      (Btree.width ix.ix_tree)
  | `Index_order tree -> Printf.sprintf "index order scan (width %d)" (Btree.width tree)
  | `Prefix_lookup (tree, _, _) -> Printf.sprintf "prefix lookups (width %d)" (Btree.width tree)
  | `Hash_probe hp -> Printf.sprintf "hash join (build %s.%s)" (Table.name hp.hp_table) hp.hp_col
  | `Partition_scan ps ->
    Printf.sprintf "partition scan (%s order), partitions: scanned %d/%d (pruned %d, %d rows)"
      ps.ps_sort_col (Array.length ps.ps_keys) ps.ps_total
      (ps.ps_total - Array.length ps.ps_keys)
      ps.ps_rows

let dedup_label = function
  | Keep_all -> None
  | Key_elided -> Some "elided (key)"
  | Key_hash (_, key) -> Some (Printf.sprintf "hash (%s)" key)
  | Row_set -> Some "rows"

let plan_distinct plan =
  let mode = function
    | Keep_all -> None
    | Key_elided -> Some `Elided
    | Key_hash _ -> Some `Hash
    | Row_set -> Some `Rows
  in
  match plan.plan_tree with
  | `Select p -> mode p.pl_dedup
  | `Union (_, dedup) -> mode dedup

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
             "semi-join reduction: %s(%s) REGEXP '%s' -> %d of %d %s, probed on %s.%s"
             rd.rd_dim_table rd.rd_dim_alias rd.rd_pattern rd.rd_matched rd.rd_total
             (match rd.rd_domain with
              | `Paths -> "path ids"
              | `Partitions -> "partition keys")
             rd.rd_fact_alias rd.rd_fact_col))
      p.pl_reductions;
    if p.pl_pre <> [] then
      line indent (Printf.sprintf "constant filters: %d" (List.length p.pl_pre));
    List.iter (step indent p) p.pl_steps;
    Option.iter (fun l -> line indent ("distinct: " ^ l)) (dedup_label p.pl_dedup);
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
  | `Union (ps, dedup) ->
    List.iteri
      (fun i p ->
        line "" (Printf.sprintf "union branch %d:" i);
        select "  " p)
      ps;
    Option.iter (fun l -> line "" ("union distinct: " ^ l)) (dedup_label dedup)

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
