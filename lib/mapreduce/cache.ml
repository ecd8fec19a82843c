(** Dataset cache with byte-budgeted LRU eviction. See cache.mli. *)

module Value = Casper_common.Value

(* ------------------------------------------------------------------ *)
(* Lineage keys                                                        *)

type key = {
  plan : Plan.t;
  cluster : Cluster.t;
  spill_budget : int option;
  inputs : Value.t list option list;
      (* one per Plan.sources entry; [None] = the dataset was not bound
         at key-build time (the run will raise before populating, but
         the key must still be well-formed) *)
}

let key ~(cluster : Cluster.t) ~(budget : int option)
    ~(datasets : (string * Value.t list) list) (plan : Plan.t) : key =
  let inputs =
    List.map (fun s -> List.assoc_opt s datasets) (Plan.sources plan)
  in
  { plan; cluster; spill_budget = budget; inputs }

(* identity: the same plan object (so the same sources, in the same
   order) over physically identical dataset lists *)
let same_key (a : key) (b : key) : bool =
  a.plan == b.plan
  && a.spill_budget = b.spill_budget
  && a.cluster = b.cluster
  && List.equal (Option.equal ( == )) a.inputs b.inputs

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
  List.find_opt (fun e -> same_key e.ekey k) t.entries

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
