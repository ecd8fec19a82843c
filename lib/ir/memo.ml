module Value = Casper_common.Value
open Lang

(* ------------------------------------------------------------------ *)
(* Fingerprint cells                                                   *)

type counts = {
  mutable cell_hits : int;  (** per-(probe set, expr) cell arrays reused *)
  mutable cell_misses : int;  (** cell arrays computed *)
}

type probe_set = {
  ps_envs : Eval.env array;
  ps_counts : counts;  (** shared by the probe sets of one search *)
  ps_values : (string, int) Hashtbl.t;
      (** printed value -> small id, so fingerprints are int arrays *)
  ps_cells : int array Hashcons.Tbl.t;  (** expression -> its cells *)
  ps_fires : bool array Hashcons.Tbl.t;  (** guard -> where it fires *)
}

(* Every table starts small and grows: over the Table-2 fragments a
   probe set holds at most about 200 printed values and cell arrays and
   30 firing vectors. Growth doubles, so a larger one rehashes each entry
   about once on average. *)
let probe_set (counts : counts) (probes : Eval.env list) : probe_set =
  {
    ps_envs = Array.of_list probes;
    ps_counts = counts;
    ps_values = Hashtbl.create 256;
    ps_cells = Hashcons.Tbl.create 256;
    ps_fires = Hashcons.Tbl.create 64;
  }

(* printed value -> small id, in [ps]'s id space: the table only grows,
   so its size is the next id *)
let id_of_string (ps : probe_set) (s : string) : int =
  match Hashtbl.find_opt ps.ps_values s with
  | Some i -> i
  | None ->
      let i = Hashtbl.length ps.ps_values in
      Hashtbl.add ps.ps_values s i;
      i

(** Fingerprint cell of [e] in [env]: the interned printed value,
    ["#err"] on any evaluation error. Interning the printed form keeps
    [Int 1] and [Float 1.0] in one class, as printed-string fingerprints
    do. *)
let value_id (ps : probe_set) (env : Eval.env) (e : expr) : int =
  id_of_string ps
    (match Eval.eval_expr env e with
    | v -> Value.to_string v
    | exception _ -> "#err")

(** Guard firing on a probe: [Some b] when the guard evaluates to a
    boolean, [None] on non-boolean results or evaluation errors. *)
let bool_of (env : Eval.env) (e : expr) : bool option =
  match Eval.eval_expr env e with
  | Value.Bool b -> Some b
  | _ -> None
  | exception _ -> None

let cached (ps : probe_set) (tbl : 'a array Hashcons.Tbl.t) (e : expr)
    (cell : Eval.env -> 'a) : 'a array =
  let c = ps.ps_counts in
  match Hashcons.Tbl.find_opt tbl e with
  | Some a ->
      c.cell_hits <- c.cell_hits + 1;
      a
  | None ->
      c.cell_misses <- c.cell_misses + 1;
      let a = Array.map cell ps.ps_envs in
      Hashcons.Tbl.add tbl e a;
      a

let cells (ps : probe_set) (e : expr) : int array =
  cached ps ps.ps_cells e (fun env -> value_id ps env e)

let fires (ps : probe_set) (g : expr) : bool array =
  cached ps ps.ps_fires g (fun env -> bool_of env g = Some true)

type fp = int array

module Fp_tbl = Hashtbl.Make (struct
  type t = fp

  let equal (a : t) (b : t) = a = b
  let hash (a : t) = Hashtbl.hash_param 64 64 a
end)

(* ------------------------------------------------------------------ *)
(* Incremental prefixes (DESIGN.md §16).

   [Vc.check_prepared] runs one candidate's pipeline on prefixes 0, 1,
   2, … of a state's data, and the records of prefix k + 1 are those of
   prefix k followed by one outer unit's. For a map over source data,
   optionally reduced and then mapped once more, [stage_prefixes] keeps
   what the earlier prefixes computed and folds only the new records in:

   - λm, staged once per check, runs on the new records only, in order,
     so the first λm error is the one the from-scratch map raises (the
     earlier records raised none on the earlier prefix);
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

(* [Map (Data d, lm)], reduced by [lr] when given *)
let prefix_fold ~(lr_ran : bool ref) (env : Eval.env) (d : string)
    (lm : lam_m) (lr : lam_r option) : Eval.staged_node =
  let m = Eval.apply_lam_m env lm in
  let f =
    Option.map
      (fun lr ->
        let f = Eval.apply_lam_r env lr in
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
    let new_kvs = ref [] and new_vs = ref [] in
    List.iter
      (fun r ->
        match m r with
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
        | _ -> Eval.mixed_shapes ())
    | Some f -> (
        (match (!kvs, !vs) with
        | _ :: _, _ :: _ -> Eval.mixed_shapes ()
        | _ -> ());
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

let stage_prefixes ~(lr_ran : bool ref) (env : Eval.env) (n : node) :
    Eval.staged_node =
  match n with
  | Map (Data d, lm) -> prefix_fold ~lr_ran env d lm None
  | Reduce (Map (Data d, lm), lr) -> prefix_fold ~lr_ran env d lm (Some lr)
  | Map (Reduce (Map (Data d, lm), lr), post) ->
      Eval.map_node
        (prefix_fold ~lr_ran env d lm (Some lr))
        (Eval.apply_lam_m env post)
  | _ -> Eval.stage_node ~lr_ran env n
