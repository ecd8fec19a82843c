(** Lineage-aware dataset cache with byte-budgeted LRU eviction.
    See cache.mli. *)

module Value = Casper_common.Value

(* ------------------------------------------------------------------ *)
(* Lineage keys                                                        *)

type key = {
  plan : Plan.t;
  cluster : Cluster.t;
  spill_budget : int option;
  inputs : (string * Value.t list option) list;
      (* one pair per Plan.sources entry; [None] = the dataset was not
         bound at key-build time (the run will raise before populating,
         but the key must still be well-formed) *)
  fp : int;
}

(* Structural skeleton hash: source names, stage constructors, labels
   and scalar flags, join sides recursively — never closures and never
   hash-cons ids, so the fingerprint of a given plan shape survives
   Hashcons.clear / re-interning unchanged. *)
let skeleton_hash (p : Plan.t) : int =
  let h acc x = (acc * 31) + x in
  let hs acc s = h acc (Hashtbl.hash (s : string)) in
  let rec go acc (p : Plan.t) =
    let acc = hs acc p.Plan.source in
    List.fold_left
      (fun acc (st : Plan.stage) ->
        match st with
        | Plan.Flat_map { label; _ } -> hs (h acc 1) label
        | Plan.Filter { label; _ } -> hs (h acc 2) label
        | Plan.Reduce_by_key { label; comm_assoc; _ } ->
            hs (h (h acc 3) (Bool.to_int comm_assoc)) label
        | Plan.Group_by_key { label } -> hs (h acc 4) label
        | Plan.Map_values { label; _ } -> hs (h acc 5) label
        | Plan.Global_reduce { label; comm_assoc; _ } ->
            hs (h (h acc 6) (Bool.to_int comm_assoc)) label
        | Plan.Join_with { label; right } -> go (hs (h acc 7) label) right
        | Plan.Sample_monitor { label; k; _ } -> hs (h (h acc 8) k) label)
      acc p.Plan.stages
  in
  go 17 p

(* Structural plan equality with closures compared physically: the only
   sound notion short of code comparison — a rebuilt closure may compute
   anything, so it must count as a different lineage. *)
let rec plan_equal (a : Plan.t) (b : Plan.t) : bool =
  a == b
  || String.equal a.Plan.source b.Plan.source
     && List.length a.Plan.stages = List.length b.Plan.stages
     && List.for_all2 stage_equal a.Plan.stages b.Plan.stages

and stage_equal (a : Plan.stage) (b : Plan.stage) : bool =
  match (a, b) with
  | Plan.Flat_map a, Plan.Flat_map b ->
      String.equal a.label b.label && a.f == b.f
  | Plan.Filter a, Plan.Filter b -> String.equal a.label b.label && a.p == b.p
  | Plan.Reduce_by_key a, Plan.Reduce_by_key b ->
      String.equal a.label b.label
      && Bool.equal a.comm_assoc b.comm_assoc
      && a.f == b.f
  | Plan.Group_by_key a, Plan.Group_by_key b -> String.equal a.label b.label
  | Plan.Map_values a, Plan.Map_values b ->
      String.equal a.label b.label && a.f == b.f
  | Plan.Global_reduce a, Plan.Global_reduce b ->
      String.equal a.label b.label
      && Bool.equal a.comm_assoc b.comm_assoc
      && a.f == b.f
  | Plan.Join_with a, Plan.Join_with b ->
      String.equal a.label b.label && plan_equal a.right b.right
  | Plan.Sample_monitor a, Plan.Sample_monitor b ->
      String.equal a.label b.label && a.k = b.k && a.observe == b.observe
  | _ -> false

let key ~(cluster : Cluster.t) ~(budget : int option)
    ~(datasets : (string * Value.t list) list) (plan : Plan.t) : key =
  let inputs =
    List.map (fun s -> (s, List.assoc_opt s datasets)) (Plan.sources plan)
  in
  let fp =
    (skeleton_hash plan * 31)
    + Hashtbl.hash (cluster.Cluster.name, cluster.Cluster.workers, budget)
  in
  { plan; cluster; spill_budget = budget; inputs; fp }

let fingerprint (k : key) : int = k.fp

let equal_key (a : key) (b : key) : bool =
  a.fp = b.fp
  && a.spill_budget = b.spill_budget
  && a.cluster = b.cluster
  && List.length a.inputs = List.length b.inputs
  && List.for_all2
       (fun (na, da) (nb, db) ->
         String.equal na nb
         &&
         match (da, db) with
         | Some la, Some lb -> la == lb
         | None, None -> true
         | _ -> false)
       a.inputs b.inputs
  && plan_equal a.plan b.plan

(* ------------------------------------------------------------------ *)
(* The cache proper                                                    *)

type 'a entry = {
  ekey : key;
  payload : 'a;
  ebytes : int;
  mutable tick : int;  (* larger = more recently used *)
}

type 'a t = {
  budget : int option;
  mutable entries : 'a entry list;  (* small under any real budget *)
  mutable live_bytes : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable insertions : int;
  lock : Mutex.t;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  insertions : int;
  entries : int;
  bytes : int;
  budget : int option;
}

let create ?budget () : 'a t =
  {
    budget = (match budget with Some b when b > 0 -> Some b | _ -> None);
    entries = [];
    live_bytes = 0;
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    insertions = 0;
    lock = Mutex.create ();
  }

let locked (t : 'a t) f = Mutex.protect t.lock f
let budget (t : 'a t) = t.budget

let find_entry (t : 'a t) (k : key) : 'a entry option =
  List.find_opt (fun e -> e.ekey.fp = k.fp && equal_key e.ekey k) t.entries

let remove_entry (t : 'a t) (e : 'a entry) =
  t.entries <- List.filter (fun e' -> e' != e) t.entries;
  t.live_bytes <- t.live_bytes - e.ebytes

let find (t : 'a t) (k : key) : 'a option =
  locked t (fun () ->
      match find_entry t k with
      | Some e ->
          t.clock <- t.clock + 1;
          e.tick <- t.clock;
          t.hits <- t.hits + 1;
          Some e.payload
      | None ->
          t.misses <- t.misses + 1;
          None)

(* evict entries, least recent first, until [target] holds *)
let evict_to (t : 'a t) (target : int) : int =
  let evicted = ref 0 in
  while t.live_bytes > target && t.entries <> [] do
    let victim =
      List.fold_left
        (fun (b : 'a entry) e -> if b.tick <= e.tick then b else e)
        (List.hd t.entries) (List.tl t.entries)
    in
    remove_entry t victim;
    incr evicted
  done;
  t.evictions <- t.evictions + !evicted;
  !evicted

let put (t : 'a t) (k : key) ~(bytes : int) (payload : 'a) : int =
  locked t (fun () ->
      (match find_entry t k with Some e -> remove_entry t e | None -> ());
      t.clock <- t.clock + 1;
      let e = { ekey = k; payload; ebytes = max 0 bytes; tick = t.clock } in
      t.entries <- e :: t.entries;
      t.live_bytes <- t.live_bytes + e.ebytes;
      t.insertions <- t.insertions + 1;
      match t.budget with None -> 0 | Some b -> evict_to t b)

let stats (t : 'a t) : stats =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        insertions = t.insertions;
        entries = List.length t.entries;
        bytes = t.live_bytes;
        budget = t.budget;
      })
