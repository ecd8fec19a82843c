(** Memoized IR evaluation and interned observational fingerprints.

    The synthesis search evaluates the same (expression, probe state)
    pairs over and over: every emit combination re-evaluates its guard,
    key and value on every probe, and the same pool expressions appear
    in thousands of candidates. This module computes each pair once.

    - [wrap] gives a probe environment a unique id; [meval] is keyed by
      [(expr id, env id)] and mirrors {!Eval.eval_expr} case for case
      (including [And]/[Or]/[If] short-circuiting and error messages),
      recursing through the memoized self so shared subtrees are also
      shared work ([fastpath.eval.props] checks it against
      {!Eval.eval_expr}).
    - [value_id] is the fingerprint cell: the id of the evaluated
      value's printed form (errors intern as ["#err"]). Interning by the
      printed string — not by the structural value — reproduces exactly
      the observational-equivalence classes of the original
      string-concatenation fingerprints (e.g. [Int 1] and [Float 1.0]
      both print as ["1"] and must stay in one class).
    - [cells] is an expression's cells on every probe of a
      [probe_set], computed once per (probe set, expression): its
      observational fingerprint. Two expressions share one exactly when
      they print the same values on every probe ([fastpath.dedup] checks
      emit dedup against a dedup by printed strings).

    [counters] says how much work the caches saved. Each mechanism is
    kept honest by a narrow reference test of its own (DESIGN.md §9),
    not by the counters.

    Domain-safety (DESIGN.md §10): every memo table is a per-domain
    shard ([Domain.DLS]), consistent with the per-domain hash-consing it
    is keyed by. A fragment search runs on one domain from start to
    finish, and [clear] (top of every [find_summary]) resets that
    domain's shard, so caches never leak results across searches and
    never across domains. Env and probe-set ids count up in the shard
    too, and are never reset: every [cenv] and [probe_set] is made and
    used inside one fragment's search, on one domain, so an id is unique
    among the ids that domain's tables ever see. *)

module Value = Casper_common.Value
module Library = Casper_common.Library
open Lang

type cenv = { env_id : int; env : Eval.env }

(* ------------------------------------------------------------------ *)
(* Per-domain memo shard                                               *)

(** Cache-effectiveness counters, read by the [synthesis] span and the
    tests. All are cumulative: {!clear} does not reset them. *)
type counters = {
  mutable eval_hits : int;  (** memoized (expr, env) evaluations reused *)
  mutable eval_misses : int;  (** memoized evaluations computed *)
  mutable cell_hits : int;  (** per-(probe set, expr) cell arrays reused *)
  mutable cell_misses : int;  (** cell arrays computed *)
  mutable loop_units : int;
      (** outer loop units run by prepared prefixes: one per prefix
          cell resumed from its predecessor, which runs at most one *)
}

type shard = {
  eval_tbl : (int, (Value.t, exn) result) Hashtbl.t;
  str_ids : (string, int) Hashtbl.t;
  mutable str_next : int;
  cells_tbl : (int, int array) Hashtbl.t;
      (** (expr id, probe-set id) -> the expression's value cells *)
  fires_tbl : (int, bool array) Hashtbl.t;
      (** (guard id, probe-set id) -> where the guard fires *)
  elt_envs_tbl : (int * string * string list, elt_cache) Hashtbl.t;
  emit_fp : (int * int * int, int array) Hashtbl.t;
  mutable env_last : int;  (** the last env id handed out *)
  mutable probe_set_last : int;  (** the last probe-set id handed out *)
  counters : counters;
}

and elt_cache = {
  mutable ec_elts : Value.t list;
  mutable ec_envs : cenv array;
}

(* Every table starts small and grows with the search. [Hashtbl.reset]
   shrinks a table back to its initial size, and [clear] resets them all
   at the top of every fragment search: a large initial size would be
   paid again by every search, most of which fill a few thousand
   entries. Growth doubles, so a large search rehashes each entry about
   once on average. *)
let shard_key : shard Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        eval_tbl = Hashtbl.create 4096;
        str_ids = Hashtbl.create 4096;
        str_next = 0;
        cells_tbl = Hashtbl.create 4096;
        fires_tbl = Hashtbl.create 256;
        elt_envs_tbl = Hashtbl.create 256;
        emit_fp = Hashtbl.create 4096;
        env_last = 0;
        probe_set_last = 0;
        counters =
          {
            eval_hits = 0;
            eval_misses = 0;
            cell_hits = 0;
            cell_misses = 0;
            loop_units = 0;
          };
      })

let shard () : shard = Domain.DLS.get shard_key

(** The calling domain's counters: searches on other domains never
    write to them, so a delta taken on one domain is that domain's
    work. *)
let counters () : counters = (shard ()).counters

let wrap (env : Eval.env) : cenv =
  let sh = shard () in
  sh.env_last <- sh.env_last + 1;
  { env_id = sh.env_last; env }

(** Fast-path cache of emit fingerprints, keyed by the interned ids of
    the emit's components: [(guard, key, value)] for key-value payloads,
    [(guard, -2, value)] for plain values, with [-1] for a missing
    guard, on the probe set of the search's pools. Every grammar class
    re-proposes the same component combinations from grown pools; their
    observed behaviour cannot change within one fragment search, so
    each combination's fingerprint is assembled from the components'
    {!cells} once, instead of once per class.
    Cleared by {!clear} together with the interners — stale ids can
    never collide because id counters are monotonic. *)
let emit_fp_tbl () : (int * int * int, int array) Hashtbl.t =
  (shard ()).emit_fp

(* ------------------------------------------------------------------ *)
(* Memoized evaluation                                                 *)

(* (expr id, env id) packed into one immediate int: both counters are
   domain-monotonic but stay far below 2^31, and an unboxed key avoids
   allocating a tuple per cache probe *)
let key (eid : int) (env_id : int) : int = (eid lsl 31) lor env_id

let rec meval (cv : cenv) (e : expr) : Value.t =
  match e with
  (* leaves are cheaper to evaluate than to look up *)
  | CInt n -> Int n
  | CFloat f -> Float f
  | CBool b -> Bool b
  | CStr s -> Str s
  | Var v -> Eval.lookup cv.env v
  | _ -> (
      let sh = shard () in
      let eval_tbl = sh.eval_tbl and c = sh.counters in
      let key = key (Hashcons.expr_id e) cv.env_id in
      match Hashtbl.find_opt eval_tbl key with
      | Some (Ok v) ->
          c.eval_hits <- c.eval_hits + 1;
          v
      | Some (Error ex) ->
          c.eval_hits <- c.eval_hits + 1;
          raise ex
      | None -> (
          c.eval_misses <- c.eval_misses + 1;
          match step cv e with
          | v ->
              Hashtbl.add eval_tbl key (Ok v);
              v
          | exception ((Eval.Eval_error _ | Value.Type_error _) as ex) ->
              Hashtbl.add eval_tbl key (Error ex);
              raise ex))

(* one evaluation step, mirroring Eval.eval_expr exactly through its
   per-constructor helpers; leaf cases are handled by [meval] above *)
and step (cv : cenv) (e : expr) : Value.t =
  match e with
  | CInt _ | CFloat _ | CBool _ | CStr _ | Var _ -> assert false
  | Unop (Neg, a) -> Eval.neg (meval cv a)
  | Unop (Not, a) -> Bool (not (Value.as_bool (meval cv a)))
  | Binop (And, a, b) ->
      if Value.as_bool (meval cv a) then meval cv b else Bool false
  | Binop (Or, a, b) ->
      if Value.as_bool (meval cv a) then Bool true else meval cv b
  | Binop (op, a, b) -> Eval.eval_binop op (meval cv a) (meval cv b)
  | Call (f, args) ->
      Eval.call (Library.resolve f) (List.map (meval cv) args)
  | MkTuple es -> Tuple (List.map (meval cv) es)
  | TupleGet (a, i) -> Eval.tuple_get (meval cv a) i
  | Field (a, f) -> Eval.field (meval cv a) f
  | If (cnd, t, e') ->
      if Value.as_bool (meval cv cnd) then meval cv t else meval cv e'

(* ------------------------------------------------------------------ *)
(* Fingerprint cells                                                   *)

(* printed value -> small id; the id space is shared by every dedup
   table of one domain so fingerprints are plain int arrays *)
let id_of_string (s : string) : int =
  let sh = shard () in
  match Hashtbl.find_opt sh.str_ids s with
  | Some i -> i
  | None ->
      let i = sh.str_next in
      sh.str_next <- i + 1;
      Hashtbl.add sh.str_ids s i;
      i

(** Fingerprint cell of [(e, cv)]: the interned printed value, ["#err"]
    on any evaluation error. Interning the printed form keeps [Int 1]
    and [Float 1.0] in one class, as printed-string fingerprints do. *)
let value_id (cv : cenv) (e : expr) : int =
  id_of_string
    (match Eval.eval_expr cv.env e with
    | v -> Value.to_string v
    | exception _ -> "#err")

(** Guard firing on a probe: [Some b] when the guard evaluates to a
    boolean, [None] on non-boolean results or evaluation errors. *)
let bool_of (cv : cenv) (e : expr) : bool option =
  match Eval.eval_expr cv.env e with
  | Value.Bool b -> Some b
  | _ -> None
  | exception _ -> None

(** A probe set: probe environments wrapped once, under an id of their
    own. The id keys the cell caches below, so two probe sets never
    share cells even when they fingerprint the same expression. *)
type probe_set = { ps_id : int; ps_envs : cenv array }

let probe_set (probes : Eval.env list) : probe_set =
  let sh = shard () in
  sh.probe_set_last <- sh.probe_set_last + 1;
  {
    ps_id = sh.probe_set_last;
    ps_envs = Array.of_list (List.map wrap probes);
  }

(* Per-(probe set, expression) cell arrays. A cache of single
   (expression, probe) cells would pay a table probe per cell for little
   reuse; whole arrays pay one probe per expression. They pay off in the
   emit fingerprints: every (guard, key, value) combination reads all
   three components on every probe, and one pool expression recurs in
   hundreds of combinations, so a miss there copies cached arrays
   instead of evaluating two cells per probe. The arrays become
   fingerprint keys: they are never mutated. *)
let cached (tbl : (int, 'a array) Hashtbl.t) (ps : probe_set) (e : expr)
    (cell : cenv -> 'a) : 'a array =
  let k = key (Hashcons.expr_id e) ps.ps_id in
  let c = counters () in
  match Hashtbl.find_opt tbl k with
  | Some a ->
      c.cell_hits <- c.cell_hits + 1;
      a
  | None ->
      c.cell_misses <- c.cell_misses + 1;
      let a = Array.map cell ps.ps_envs in
      Hashtbl.add tbl k a;
      a

(** [value_id] of [e] on every probe of [ps], in probe order. *)
let cells (ps : probe_set) (e : expr) : int array =
  cached (shard ()).cells_tbl ps e (fun cv -> value_id cv e)

(** Where guard [g] fires on the probes of [ps]: [bool_of] is
    [Some true]; a non-boolean result or an error does not fire. *)
let fires (ps : probe_set) (g : expr) : bool array =
  cached (shard ()).fires_tbl ps g (fun cv -> bool_of cv g = Some true)

(** Observational fingerprint key: interned value-cell ids, one or more
    per probe ({!cells} for an expression). One printed-value sequence
    maps to one key. *)
type fp = int array

(** Hash table keyed by fingerprints. The generic hash only examines ~10
    values; id arrays over up to 48 probes need every slot hashed or
    buckets collapse. *)
module Fp_tbl = Hashtbl.Make (struct
  type t = fp

  let equal (a : t) (b : t) = a = b
  let hash (a : t) = Hashtbl.hash_param 64 64 a
end)

(* ------------------------------------------------------------------ *)
(* Memoized summary application: the per-candidate verification check.

   [Vc.check_prepared] applies every candidate to the same states and
   dataset prefixes. For a Map stage over a source dataset, the element
   environments (entry state + λm parameter bindings) are candidate-
   independent, and the emit guard/key/value expressions are drawn from
   shared hash-consed pools — so the per-element evaluations repeat
   across candidates and across prefixes of one state. This mirror of
   [Eval.stage_node] wraps each element environment once per state and
   routes emit evaluation through the [(expr id, env id)] memo table.

   Exactness: results and raised exception constructors are identical to
   the plain evaluator. The only divergence is error *messages* when a
   λm arity error competes with an evaluation error on an earlier
   element (bindings are materialized per state, not per candidate);
   both collapse to the same [Invalid_summary]/[Ir_error] treatment. *)

(* (base env id, dataset, λm params) -> element envs; prefixes of one
   state share element values physically, so prefix k + 1 extends the
   cached array instead of rebinding elements 0..k *)
let rec phys_prefix (xs : Value.t list) (ys : Value.t list) : bool =
  match (xs, ys) with
  | [], _ -> true
  | x :: xs', y :: ys' -> x == y && phys_prefix xs' ys'
  | _ :: _, [] -> false

let map_elt_envs (base : cenv) (d : string) (params : string list)
    (elts : Value.t list) : cenv array =
  let elt_envs_tbl = (shard ()).elt_envs_tbl in
  let tkey = (base.env_id, d, params) in
  let build (prev : cenv array) : cenv array =
    let m = Array.length prev in
    Array.of_list
      (List.mapi
         (fun j elt ->
           if j < m then prev.(j)
           else wrap (Eval.bind_params base.env params elt))
         elts)
  in
  match Hashtbl.find_opt elt_envs_tbl tkey with
  | Some ec when phys_prefix elts ec.ec_elts -> ec.ec_envs
  | Some ec when phys_prefix ec.ec_elts elts ->
      let envs = build ec.ec_envs in
      ec.ec_elts <- elts;
      ec.ec_envs <- envs;
      envs
  | _ ->
      let envs = build [||] in
      Hashtbl.replace elt_envs_tbl tkey { ec_elts = elts; ec_envs = envs };
      envs

(* [Eval.apply_lam_m] against a pre-bound element env, each emit
   expression evaluated through the memo table: the same loop as
   [Eval.stage_emits], unstaged, since the memo table already shares
   the work across candidates *)
let apply_lam_m_c (lm : lam_m) (cv : cenv) : Eval.emitted =
  let rec run kvs vs = function
    | [] -> (
        match (kvs, vs) with
        | _ :: _, _ :: _ -> Eval.mixed_emits ()
        | _ -> Eval.kv_or_v (List.rev kvs) (List.rev vs))
    | { guard; payload } :: rest -> (
        match guard with
        | Some g when not (Value.as_bool (meval cv g)) -> run kvs vs rest
        | _ -> (
            match payload with
            | KV (k, v) ->
                let v = meval cv v in
                run ((meval cv k, v) :: kvs) vs rest
            | Val v -> run kvs (meval cv v :: vs) rest))
  in
  run [] [] lm.emits

(** [Eval.stage_node] with the Map stage memoized per (emit expression,
    element environment). [base] must wrap the environment the pipeline
    is staged against. The result is the pipeline's bag: the caller
    extracts the outputs.

    The staged pipeline sets [lr_ran] when it applies a λr. While it
    stays unset no key held two values, so every run so far computed the
    same bag, or raised the same error, whatever the λrs are (staging a
    λr never raises). *)
let rec stage_pipeline ~(lr_ran : bool ref) (base : cenv) (n : node) :
    Eval.staged_node =
  match n with
  | Map (Data d, lm) ->
      fun datasets ->
        let records = Eval.dataset datasets d in
        let envs = map_elt_envs base d lm.m_params records in
        Eval.map_bag (fun j _ -> apply_lam_m_c lm envs.(j)) records
  | Data _ -> Eval.stage_node base.env n
  | Map (src, lm) ->
      (* intermediate elements are not stable across candidates: staged *)
      Eval.map_node
        (stage_pipeline ~lr_ran base src)
        (Eval.apply_lam_m base.env lm)
  | Reduce (src, lr) ->
      let f = Eval.apply_lam_r base.env lr in
      Eval.reduce_node (stage_pipeline ~lr_ran base src) (fun a b ->
          lr_ran := true;
          f a b)
  | Join (a, b) ->
      Eval.join_node
        (stage_pipeline ~lr_ran base a)
        (stage_pipeline ~lr_ran base b)

(* ------------------------------------------------------------------ *)
(* Incremental prefixes (DESIGN.md §16).

   [Vc.check_prepared] runs one candidate's pipeline on prefixes 0, 1,
   2, … of a state's data, and the records of prefix k + 1 are those of
   prefix k followed by one outer unit's. For a map over source data,
   optionally reduced and then mapped once more, [stage_prefixes] keeps
   what the earlier prefixes computed and folds only the new records in:

   - λm runs on the new records only, in order, on the memoized element
     envs, so the first λm error is the one the from-scratch map raises
     (the earlier records raised none on the earlier prefix);
   - the mixed-shapes check then sees every emit so far, as
     [Eval.map_bag] does once all records are mapped;
   - pairs fold into one accumulator per key, keys identified by
     [Value.equal] and kept in first-seen order as
     [Multiset.group_by_key] keeps them. From-scratch reduction folds
     whole groups in that order, so a unit that adds values to several
     keys is folded group by group in key order, not in emit order: the
     first λr to raise is the from-scratch one;
   - a global reduction keeps one accumulator;
   - a post-map runs on the reduced bag of each prefix.

   λr is pure, so folding the new values into a key's accumulator makes
   the value the from-scratch fold over the whole group makes, bit for
   bit. [lr_ran] is set by the same applications, counted over all the
   prefixes run so far. *)

type group = {
  g_key : Value.t;  (** the key as first seen *)
  g_rank : int;  (** first-seen position among the keys *)
  mutable g_acc : Value.t;  (** λr folded over the values so far *)
  mutable g_new : Value.t list;  (** the current unit's values, newest first *)
}

(* [Eval.map_bag]'s error: records emitted both pairs and plain values.
   The targeted cases of verify.incremental pin the two messages equal. *)
let mixed_shapes () =
  raise (Eval.Eval_error "map emits mixed shapes across records")

(* [Map (Data d, lm)], reduced by [lr] when given *)
let prefix_fold ~(lr_ran : bool ref) (base : cenv) (d : string) (lm : lam_m)
    (lr : lam_r option) : Eval.staged_node =
  let f =
    Option.map
      (fun lr ->
        let f = Eval.apply_lam_r base.env lr in
        fun a b ->
          lr_ran := true;
          f a b)
      lr
  in
  (* records mapped so far, and what they emitted, newest first *)
  let seen = ref 0 and kvs = ref [] and vs = ref [] in
  let groups : group Value.Tbl.t = Value.Tbl.create 16 in
  let order = ref [] (* newest first *) and total = ref None in
  let rec drop n l =
    match l with _ :: l' when n > 0 -> drop (n - 1) l' | _ -> l
  in
  fun datasets ->
    let records = Eval.dataset datasets d in
    (* may be longer than [records]: index it, never measure it *)
    let envs = map_elt_envs base d lm.m_params records in
    let new_kvs = ref [] and new_vs = ref [] in
    List.iteri
      (fun i _ ->
        match apply_lam_m_c lm envs.(!seen + i) with
        | `KV l -> new_kvs := List.rev_append l !new_kvs
        | `V l -> new_vs := List.rev_append l !new_vs)
      (drop !seen records);
    seen := List.length records;
    kvs := !new_kvs @ !kvs;
    vs := !new_vs @ !vs;
    match f with
    | None -> (
        match (!kvs, !vs) with
        | [], [] -> Eval.Pairs []
        | kvs, [] -> Eval.Pairs (List.rev kvs)
        | [], vs -> Eval.Vals (List.rev vs)
        | _ -> mixed_shapes ())
    | Some f -> (
        (match (!kvs, !vs) with _ :: _, _ :: _ -> mixed_shapes () | _ -> ());
        let touched = ref [] in
        List.iter
          (fun (k, v) ->
            match Value.Tbl.find_opt groups k with
            | Some g ->
                (match g.g_new with [] -> touched := g :: !touched | _ -> ());
                g.g_new <- v :: g.g_new
            | None ->
                let g =
                  { g_key = k; g_rank = Value.Tbl.length groups; g_acc = v;
                    g_new = [] }
                in
                Value.Tbl.add groups k g;
                order := g :: !order)
          (List.rev !new_kvs);
        List.iter
          (fun g ->
            let news = List.rev g.g_new in
            g.g_new <- [];
            g.g_acc <- List.fold_left f g.g_acc news)
          (List.sort (fun a b -> Int.compare a.g_rank b.g_rank) !touched);
        (match List.rev !new_vs with
        | [] -> ()
        | v0 :: rest as news ->
            total :=
              Some
                (match !total with
                | None -> List.fold_left f v0 rest
                | Some acc -> List.fold_left f acc news));
        match (!order, !total) with
        | _ :: _, _ ->
            Eval.Pairs (List.rev_map (fun g -> (g.g_key, g.g_acc)) !order)
        | [], Some acc -> Eval.Vals [ acc ]
        | [], None -> Eval.Pairs [])

(** [stage_pipeline], for a caller that runs the result on prefixes 0,
    1, 2, … of one state's data, in that order, and stops at the first
    exception. A map over source data, optionally reduced and then
    mapped once more, runs incrementally: each prefix maps only the
    records it adds (see above). Every other pipeline is
    {!stage_pipeline}'s. *)
let stage_prefixes ~(lr_ran : bool ref) (base : cenv) (n : node) :
    Eval.staged_node =
  match n with
  | Map (Data d, lm) -> prefix_fold ~lr_ran base d lm None
  | Reduce (Map (Data d, lm), lr) -> prefix_fold ~lr_ran base d lm (Some lr)
  | Map (Reduce (Map (Data d, lm), lr), post) ->
      Eval.map_node
        (prefix_fold ~lr_ran base d lm (Some lr))
        (Eval.apply_lam_m base.env post)
  | _ -> stage_pipeline ~lr_ran base n

(* ------------------------------------------------------------------ *)

(** Drop the calling domain's memo tables (evaluations, fingerprint
    cells and cell arrays, emit fingerprints, element environments,
    interned expressions and summaries). Called at the top of
    [find_summary] so memory is bounded by one fragment's search; env
    ids and the {!counters} keep counting, so stale ids can never
    collide. *)
let clear () =
  let sh = shard () in
  Hashtbl.reset sh.eval_tbl;
  Hashtbl.reset sh.str_ids;
  Hashtbl.reset sh.cells_tbl;
  Hashtbl.reset sh.fires_tbl;
  Hashtbl.reset sh.elt_envs_tbl;
  Hashtbl.reset sh.emit_fp;
  Hashcons.clear ()
