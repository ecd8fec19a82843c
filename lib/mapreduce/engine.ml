(** The simulated distributed MapReduce engine.

    Plans are executed in memory for real results, while the engine
    accounts the data volumes each stage produces — records and bytes
    emitted, bytes shuffled across the (simulated) network — and charges
    wall-clock time against a {!Cluster.t} profile. Shuffle accounting
    honors combiners by one rule: a commutative-associative reduction
    ships its combined output, and at nominal scale at most one
    combined record per key per worker (Appendix E.3 measures exactly
    this effect). The engine partitions nothing.

    Input datasets are in-memory samples of the nominal workload; the
    [scale] factor (nominal records / in-memory records) linearly scales
    volume-proportional costs so a 200k-record sample can stand in for a
    75 GB dataset without claiming absolute seconds. *)

module Value = Casper_common.Value
module Obs = Casper_obs.Obs

exception Engine_error of string

(** Raised when an execution's cooperative cancellation token
    ({!Exec_config.t} [cancel]) reports true at a stage boundary. *)
exception Cancelled

let err fmt = Fmt.kstr (fun s -> raise (Engine_error s)) fmt

(* the stage-metrics record lives in Exec_config so the config surface
   and the engine share one cache type; re-exported here so existing
   [Engine.stage_metrics] consumers are untouched *)
type stage_metrics = Exec_config.stage_metrics = {
  label : string;
  records_in : int;
  records_out : int;
  bytes_in : int;
  bytes_out : int;
  bytes_shuffled : int;
  is_shuffle : bool;
  combined : bool;
}

type run = {
  output : Value.t list;
  stages : stage_metrics list;
  input_records : int;
  input_bytes : int;
}

let as_kv = function
  | Value.Tuple [ k; v ] -> (k, v)
  | v -> err "expected a key-value record, got %s" (Value.to_string v)

(* ------------------------------------------------------------------ *)
(* Dataset cache plumbing                                               *)

type cached_run = Exec_config.cached_run = {
  c_batch : Batch.t;
  c_stages : stage_metrics list;
  c_input_records : int;
  c_input_bytes : int;
}

type cache = Exec_config.cache

let make_cache = Exec_config.make_cache
let cache_stats = Exec_config.cache_stats

(* ------------------------------------------------------------------ *)
(* Plan execution                                                       *)

(** Everything a plan execution threads through to nested (join-side)
    executions, resolved once at the {!run_plan} boundary. Bundling the
    recursive arguments into one value is what keeps the join branch
    honest: a new knob lands in this record once and cannot be silently
    dropped on one recursion path (the old code re-threaded each
    optional argument by hand and forgot none — by luck, not by
    construction). *)
type exec_ctx = {
  x_obs : Obs.ctx;
  x_budget : int option;  (** resolved spill budget *)
  x_spill_dir : string option;  (** [None] = the system temp directory *)
  x_cache : cache option;  (** [None] = off *)
  x_cancel : (unit -> bool) option;
      (** cooperative cancellation token, polled at stage boundaries *)
}

(* cancellation is cooperative and stage-granular: the token is polled
   at plan entry and before each stage, so a cancelled job stops at the
   next boundary — after any in-flight grouped stage has already swept
   its spill temp files via its own [Fun.protect] *)
let check_cancel (ctx : exec_ctx) : unit =
  match ctx.x_cancel with
  | Some cancelled when cancelled () -> raise Cancelled
  | _ -> ()

(** Execute one plan over named datasets.

    Raises {!Engine_error} when [datasets] binds the same name twice
    (the plan's reads would silently resolve to whichever binding comes
    first) and when a shuffle stage runs on a cluster with no worker
    slots. *)
let rec exec_plan (ctx : exec_ctx) ~(cluster : Cluster.t)
    ~(datasets : (string * Value.t list) list) (plan : Plan.t) : run =
  let obs = ctx.x_obs in
  check_cancel ctx;
  Obs.span obs ~args:[ ("source", plan.Plan.source) ] "engine.run_plan"
  @@ fun () ->
  (* duplicate-name guard: one Hashtbl pass (the old List.mem_assoc scan
     was O(n²) in the number of datasets) *)
  let seen = Hashtbl.create (max 16 (List.length datasets)) in
  List.iter
    (fun (name, _) ->
      if Hashtbl.mem seen name then err "duplicate dataset name %s" name
      else Hashtbl.add seen name ())
    datasets;
  (* Only side-effect-free plans participate, on any domain: session
     jobs run on whichever domain takes them (a runner or the awaiting
     caller), and their shared cache is the whole point (Cache ops are
     mutex-guarded, and served outputs are byte-identical to
     recomputation, so multi-domain population never changes
     results). The key binds the resolved spill budget (ctx.x_budget),
     so budgeted and in-memory executions of the same plan never share
     an entry. *)
  let cache_slot =
    match ctx.x_cache with
    | Some c when Plan.cacheable plan ->
        Some (c, Cache.key ~cluster ~budget:ctx.x_budget ~datasets plan)
    | _ -> None
  in
  let served =
    match cache_slot with
    | None -> None
    | Some (c, key) -> (
        match Cache.find c key with
        | None -> None
        | Some e ->
            Obs.span obs "engine.cache" (fun () -> Obs.add obs "cache_hits" 1);
            Some e)
  in
  match served with
  | Some e ->
      {
        output = Batch.to_list e.c_batch;
        stages = e.c_stages;
        input_records = e.c_input_records;
        input_bytes = e.c_input_bytes;
      }
  | None ->
  (* a shuffle on a cluster with no worker slots cannot execute *)
  let check_workers () =
    if cluster.Cluster.workers <= 0 then
      err "cannot shuffle on a cluster with %d workers"
        cluster.Cluster.workers
  in
  let input =
    match List.assoc_opt plan.Plan.source datasets with
    | Some l -> l
    | None -> err "unknown dataset %s" plan.Plan.source
  in
  let input_batch = Batch.of_list input in
  let input_bytes = Batch.bytes input_batch in
  (* Every stage runs on the calling domain: record-level stages are
     tight array loops over the whole batch with the byte accounting
     fused in ({!Batch}), and the cluster the plan stands for is
     simulated from the measured volumes, never from host wall-clock.

     [group_kv] hash-groups a batch of key-value records, one
     accumulator cell per key, arrival order per key = the sequential
     left fold. *)
  let group_kv b init step =
    let n = Batch.length b in
    let tbl = Hashtbl.create (max 64 (n / 4)) in
    let distinct = ref [] in
    let src = Batch.data b in
    for i = 0 to n - 1 do
      let k, v = as_kv src.(i) in
      let key = Value.to_string k in
      match Hashtbl.find tbl key with
      | (_, cell) -> step cell v
      | exception Not_found ->
          Hashtbl.add tbl key (k, init v);
          distinct := key :: !distinct
    done;
    (tbl, !distinct)
  in
  (* single-pass hash grouping with per-key accumulator cells (arrival
     order per key = the sequential left fold), output in key-string
     order: deterministic regardless of hash-table iteration order, and
     every consumer of grouped output is order-insensitive (DESIGN.md
     §11 records the argument) *)
  let grouped_output tbl distinct record =
    (* tbl : (string, Value.t * _) Hashtbl.t; output in key-string order *)
    let sorted = List.sort String.compare distinct in
    let by = ref 0 in
    let out =
      Array.of_list
        (List.map
           (fun key ->
             let k, cell = Hashtbl.find tbl key in
             let r = record k cell in
             by := !by + Value.size_of r;
             r)
           sorted)
    in
    Batch.of_array ~bytes:!by out
  in
  (* out-of-core variant of [group_kv] + [grouped_output]: feed the
     records in arrival order through a budgeted {!Spill} grouper —
     which keeps values raw, spilling sorted runs when the estimated
     live bytes exceed the budget — and fold each key's values in
     arrival order at merge time. The fold is applied to exactly the
     same values in exactly the same order and the output comes out in
     the same ascending key-string order, so outputs and the byte
     accounting are identical to the in-memory path at any budget
     (DESIGN.md §12). The [Fun.protect] sweep guarantees no temp file
     survives a raising reduce function. *)
  let grouped_spill label (b : Batch.t) ~spill_budget ~init ~step ~record :
      Batch.t =
    let src = Batch.data b in
    let g =
      Spill.create ~obs ?dir:ctx.x_spill_dir ~budget:spill_budget ~label ()
    in
    try
      Fun.protect ~finally:(fun () -> Spill.cleanup g) @@ fun () ->
      for i = 0 to Batch.length b - 1 do
        let k, v = as_kv src.(i) in
        Spill.add g (Value.to_string k) k v
      done;
      let rev = ref [] and by = ref 0 in
      Spill.finish g ~init ~step ~record
        ~emit:(fun r ->
          by := !by + Value.size_of r;
          rev := r :: !rev);
      Batch.of_array ~bytes:!by (Array.of_list (List.rev !rev))
    with Spill.Spill_error m -> err "spill (%s): %s" label m
  in
  let nested_metrics = ref [] in
  let exec (current : Batch.t) (stage : Plan.stage) :
      Batch.t * stage_metrics =
    let records_in = Batch.length current in
    let bytes_in = Batch.bytes current in
    let label = Plan.stage_label stage in
    let mk ?(shuffled = 0) ?(is_shuffle = false) ?(combined = false)
        (out : Batch.t) =
      ( out,
        {
          label;
          records_in;
          records_out = Batch.length out;
          bytes_in;
          bytes_out = Batch.bytes out;
          bytes_shuffled = shuffled;
          is_shuffle;
          combined;
        } )
    in
    (* a reduction ships its input, or with a combiner (a comm-assoc
       reduction) only its combined output: the time model bounds that
       at one combined record per key per worker ({!capped_shuffled}) *)
    let reduced ~comm_assoc out =
      if comm_assoc then
        mk ~shuffled:(Batch.bytes out) ~is_shuffle:true ~combined:true out
      else mk ~shuffled:bytes_in ~is_shuffle:true out
    in
    match stage with
    | Plan.Flat_map { f; _ } -> mk (Batch.concat_map f current)
    | Plan.Filter { p; _ } -> mk (Batch.filter p current)
    | Plan.Map_values { f; _ } ->
        mk
          (Batch.map
             (fun r ->
               let k, v = as_kv r in
               Value.Tuple [ k; f v ])
             current)
    | Plan.Reduce_by_key { f; comm_assoc; _ } ->
        check_workers ();
        let init v = ref v
        and step acc v = acc := f !acc v
        and record k acc = Value.Tuple [ k; !acc ] in
        let out =
          match ctx.x_budget with
          | Some spill_budget ->
              grouped_spill label current ~spill_budget ~init ~step ~record
          | None ->
              let tbl, distinct = group_kv current init step in
              grouped_output tbl distinct record
        in
        reduced ~comm_assoc out
    | Plan.Group_by_key _ ->
        check_workers ();
        let init v = ref [ v ]
        and step cell v = cell := v :: !cell
        and record k cell = Value.Tuple [ k; Value.List (List.rev !cell) ] in
        let out =
          match ctx.x_budget with
          | Some spill_budget ->
              grouped_spill label current ~spill_budget ~init ~step ~record
          | None ->
              let tbl, distinct = group_kv current init step in
              grouped_output tbl distinct record
        in
        mk ~shuffled:bytes_in ~is_shuffle:true out
    | Plan.Global_reduce { f; comm_assoc; _ } ->
        check_workers ();
        let out =
          if records_in = 0 then Batch.empty ()
          else begin
            let src = Batch.data current in
            let acc = ref src.(0) in
            for i = 1 to records_in - 1 do
              acc := f !acc src.(i)
            done;
            Batch.of_array ~bytes:(Value.size_of !acc) [| !acc |]
          end
        in
        reduced ~comm_assoc out
    | Plan.Join_with { right; _ } ->
        check_workers ();
        (* the whole context rides along — including the cache, so a
           join side repeated across (or within) plans is served from
           its previous materialization *)
        let right_run = exec_plan ctx ~cluster ~datasets right in
        nested_metrics := !nested_metrics @ right_run.stages;
        let tbl = Hashtbl.create 256 in
        List.iter
          (fun r ->
            let k, v = as_kv r in
            Hashtbl.add tbl (Value.to_string k) (k, v))
          right_run.output;
        let probe r =
          let k, v1 = as_kv r in
          Hashtbl.find_all tbl (Value.to_string k)
          |> List.rev_map (fun (_, v2) ->
                 Value.Tuple [ k; Value.Tuple [ v1; v2 ] ])
        in
        let joined = Batch.concat_map probe current in
        let shuffled = bytes_in + Value.size_of_list right_run.output in
        mk ~shuffled ~is_shuffle:true joined
    | Plan.Sample_monitor { k; observe; _ } ->
        let kk = max 0 (min k records_in) in
        observe (Array.to_list (Array.sub (Batch.data current) 0 kk));
        mk current
  in
  let output_batch, rev_stages =
    List.fold_left
      (fun (cur, ms) stage ->
        check_cancel ctx;
        let out, m =
          Obs.span obs (Plan.stage_label stage) @@ fun () ->
          let out, m = exec cur stage in
          Obs.add obs "records_out" m.records_out;
          if m.is_shuffle then begin
            Obs.add obs "shuffle_records" m.records_in;
            Obs.add obs "shuffle_bytes" m.bytes_shuffled
          end;
          (out, m)
        in
        (out, m :: ms))
      (input_batch, []) plan.Plan.stages
  in
  let stages = !nested_metrics @ List.rev rev_stages in
  let input_records = Batch.length input_batch in
  (* populate the cache with the materialized result and the metrics a
     future hit must report as if recomputed; insertion may evict in
     LRU order (including this very entry when it alone overflows the
     budget) *)
  (match cache_slot with
  | None -> ()
  | Some (c, key) ->
      let bytes = Batch.bytes output_batch in
      let evictions =
        Cache.put c key ~bytes
          {
            c_batch = output_batch;
            c_stages = stages;
            c_input_records = input_records;
            c_input_bytes = input_bytes;
          }
      in
      Obs.span obs "engine.cache" (fun () ->
          Obs.add obs "cache_misses" 1;
          Obs.add obs "cache_bytes" bytes;
          if evictions > 0 then Obs.add obs "cache_evictions" evictions));
  { output = Batch.to_list output_batch; stages; input_records; input_bytes }

let run_plan ?(config = Exec_config.default) ~(cluster : Cluster.t)
    ~(datasets : (string * Value.t list) list) (plan : Plan.t) : run =
  exec_plan
    {
      x_obs = Option.value config.Exec_config.obs ~default:Obs.null;
      (* [<= 0] means unbounded, so callers can force the in-memory
         path explicitly *)
      x_budget =
        (match config.Exec_config.memory_budget with
        | Some b when b > 0 -> Some b
        | _ -> None);
      x_spill_dir = config.Exec_config.spill_dir;
      x_cache = config.Exec_config.cache;
      x_cancel = config.Exec_config.cancel;
    }
    ~cluster ~datasets plan

(* ------------------------------------------------------------------ *)
(* Wall-clock model                                                     *)

(* one stage's shuffled bytes at nominal scale: a combined reduction
   ships at most one combined record per key per worker, a bound that
   does not grow with the nominal record count *)
let capped_shuffled ~(cluster : Cluster.t) ~(scale : float)
    (m : stage_metrics) : float =
  let linear = float_of_int m.bytes_shuffled *. scale in
  if m.combined then
    Float.min linear (float_of_int (cluster.Cluster.workers * m.bytes_out))
  else linear

(** Estimated wall-clock seconds for a completed run on [cluster], with
    in-memory volumes scaled by [scale] to the nominal workload: job
    start-up, the input read, then per stage its scheduling overhead,
    compute (per-record cpu + emit serialization, divided across
    workers), shuffle (bytes over aggregate cluster bandwidth, combiner
    cap honored) and materialization (per-job-boundary intermediate
    write). *)
let simulate_time ~(cluster : Cluster.t) ~(scale : float) (r : run) : float =
  let c = cluster in
  let w = float_of_int c.Cluster.workers in
  let ns v = v *. 1e-9 in
  let stage_time (m : stage_metrics) =
    let recs = float_of_int m.records_in *. scale in
    let emitted = float_of_int m.bytes_out *. scale in
    let cpu =
      if m.is_shuffle then c.Cluster.reduce_cpu_ns else c.Cluster.map_cpu_ns
    in
    let compute =
      ns ((recs *. cpu) +. (emitted *. c.Cluster.emit_byte_ns)) /. w
    in
    let shuffle =
      ns (capped_shuffled ~cluster ~scale m *. c.Cluster.shuffle_byte_ns)
    in
    let materialize =
      if c.Cluster.per_job_boundary && m.is_shuffle then
        ns (float_of_int m.bytes_out *. scale *. c.Cluster.materialize_byte_ns)
      else 0.0
    in
    c.Cluster.stage_overhead_s +. compute +. shuffle +. materialize
  in
  let jobs =
    if c.Cluster.per_job_boundary then
      max 1 (List.length (List.filter (fun m -> m.is_shuffle) r.stages))
    else 1
  in
  (float_of_int jobs *. c.Cluster.job_overhead_s)
  +. (float_of_int r.input_bytes *. scale *. c.Cluster.read_byte_ns *. 1e-9 /. w)
  +. List.fold_left (fun acc m -> acc +. stage_time m) 0.0 r.stages

(** Wall-clock of the sequential original: single core, every record and
    byte passes through one thread. [passes] = how many times the
    sequential code scans the data (iterative algorithms > 1). *)
let sequential_time ~(scale : float) ?(passes = 1) ~(records : int)
    ~(bytes : int) () : float =
  let recs = float_of_int records *. scale *. float_of_int passes in
  let bts = float_of_int bytes *. scale *. float_of_int passes in
  ((recs *. Cluster.sequential_cpu_ns) +. (bts *. Cluster.sequential_read_byte_ns))
  *. 1e-9

(* aggregate helpers used by the bench harness *)
let total_shuffled (r : run) =
  List.fold_left (fun a m -> a + m.bytes_shuffled) 0 r.stages

(** Shuffled bytes at nominal scale, honoring the combiner bound the
    time model applies. *)
let effective_shuffled ~(cluster : Cluster.t) ~(scale : float) (r : run) :
    float =
  List.fold_left (fun a m -> a +. capped_shuffled ~cluster ~scale m) 0.0
    r.stages

let total_emitted (r : run) =
  List.fold_left
    (fun a m -> if m.is_shuffle then a else a + m.bytes_out)
    0 r.stages
