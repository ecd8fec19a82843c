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
    ({!Config.t} [cancel]) reports true when it is polled. *)
exception Cancelled

let err fmt = Fmt.kstr (fun s -> raise (Engine_error s)) fmt

type stage_metrics = {
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
  | v -> err "expected a key-value record, got %a" Value.pp v

(* ------------------------------------------------------------------ *)
(* Dataset cache and configuration                                      *)

type cache = run Cache.t

let make_cache ?budget () : cache = Cache.create ?budget ()
let cache_stats (c : cache) = Cache.stats c

module Config = struct
  type t = {
    obs : Obs.ctx option;
    memory_budget : int option;
    spill_dir : string option;
    cache : cache option;
    cluster : Cluster.t option;
    concurrency : int option;
    cancel : (unit -> bool) option;
  }

  let default =
    {
      obs = None;
      memory_budget = None;
      spill_dir = None;
      cache = None;
      cluster = None;
      concurrency = None;
      cancel = None;
    }

  (* the only reader of CASPER_* variables: a positive integer is the
     field's value; unset, zero or negative leave the built-in, and
     garbage also warns once; a non-empty CASPER_SPILL_DIR is the spill
     directory *)
  let of_env () =
    let positive name ~on_garbage =
      match Sys.getenv_opt name with
      | None -> None
      | Some raw -> (
          match int_of_string_opt (String.trim raw) with
          | Some n when n > 0 -> Some n
          | Some _ -> None
          | None ->
              ignore
                (Obs.warn_once ~key:name
                   (Printf.sprintf "%s=%S is not an integer; %s" name raw
                      on_garbage)
                  : bool);
              None)
    in
    {
      default with
      memory_budget =
        positive "CASPER_MEM_BUDGET" ~on_garbage:"running unbounded";
      spill_dir =
        (match Sys.getenv_opt "CASPER_SPILL_DIR" with
        | Some d when d <> "" -> Some d
        | _ -> None);
      cache =
        Option.map
          (fun budget -> make_cache ~budget ())
          (positive "CASPER_CACHE_BUDGET" ~on_garbage:"cache disabled");
    }
end

(* ------------------------------------------------------------------ *)
(* Plan execution                                                       *)

(* records a record loop hands on between two polls of the cancellation
   token; a power of two *)
let poll_every = 4096

(* cancellation is cooperative: the token is polled at plan entry,
   before each stage (or fused map and shuffle pair) and every
   [poll_every] records of a record loop; a grouped stage that is
   interrupted sweeps its spill temp files before [Cancelled]
   propagates *)
let check_cancel (config : Config.t) : unit =
  match config.cancel with
  | Some cancelled when cancelled () -> raise Cancelled
  | _ -> ()

(** Execute one plan over named datasets under [config], whose spill
    budget {!run_plan} has normalized ([None] or positive). A join side
    runs under the same [config].

    Raises {!Engine_error} when [datasets] binds the same name twice
    (the plan's reads would silently resolve to whichever binding comes
    first) and when a shuffle stage runs on a cluster with no worker
    slots. *)
let rec exec_plan (config : Config.t) ~(cluster : Cluster.t)
    ~(datasets : (string * Value.t list) list) (plan : Plan.t) : run =
  let obs = Option.value config.obs ~default:Obs.null in
  check_cancel config;
  Obs.span obs ~args:[ ("source", plan.Plan.source) ] "engine.run_plan"
  @@ fun () ->
  let seen = Hashtbl.create (max 16 (List.length datasets)) in
  List.iter
    (fun (name, _) ->
      if Hashtbl.mem seen name then err "duplicate dataset name %s" name
      else Hashtbl.add seen name ())
    datasets;
  (* Every plan participates, on any domain: session jobs run on
     whichever domain takes them (a runner or the awaiting caller), and
     their shared cache is the whole point (Cache ops are mutex-guarded,
     and served runs are byte-identical to recomputation, so
     multi-domain population never changes results). The key binds the
     resolved spill budget, so budgeted and in-memory executions of the
     same plan never share an entry. *)
  let cache_slot =
    Option.map
      (fun c ->
        (c, Cache.key ~cluster ~budget:config.memory_budget ~datasets plan))
      config.cache
  in
  match Option.bind cache_slot (fun (c, key) -> Cache.find c key) with
  | Some r ->
      Obs.span obs "engine.cache" (fun () -> Obs.add obs "cache_hits" 1);
      r
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
  (* Every stage runs on the calling domain, and the cluster the plan
     stands for is simulated from the measured volumes, never from host
     wall-clock. A record stage is a feed transformer ({!Batch.feed});
     a batch's records enter one through [source], in index order. *)
  let source (b : Batch.t) : Batch.feed =
   fun sink ->
    let src = Batch.data b in
    for i = 0 to Array.length src - 1 do
      if i land (poll_every - 1) = 0 then check_cancel config;
      sink src.(i)
    done
  in
  (* the map kernel: λm over each input record, each emit handed on to
     the next stage's sink as it fires, in record order *)
  let emits f (input : Batch.feed) : Batch.feed =
   fun sink -> input (fun r -> f r sink)
  in
  (* [group] hash-groups key-value records in a single pass, one
     accumulator cell per key ({!Value.Tbl}: keys are identified by
     {!Value.equal}, as the IR's reduce identifies them), arrival order
     per key = the sequential left fold. The output comes in ascending
     {!Value.compare} order of the keys: deterministic regardless of
     hash-table iteration order, and every consumer of grouped output is
     order-insensitive (DESIGN.md §11 records the argument).

     Under a spill budget the records go through a budgeted {!Spill}
     grouper instead, which keeps values raw, spilling sorted runs when
     the estimated live bytes exceed the budget, and folds each key's
     values in arrival order at merge time. The fold is applied to
     exactly the same values in exactly the same order and the output
     comes out in the same key order, so outputs and
     the byte accounting are identical to the in-memory path at any
     budget (DESIGN.md §12).

     [group] consumes its feed as the records arrive and returns a
     function that makes the output, so a fused map can feed it in the
     map's span while the shuffle's own span makes the output. *)
  let group label ~hint (input : Batch.feed) ~init ~step ~record :
      unit -> Batch.t =
    match config.memory_budget with
    | None ->
        let tbl = Value.Tbl.create (max 64 (hint / 4)) in
        input (fun r ->
            let k, v = as_kv r in
            match Value.Tbl.find tbl k with
            | cell -> step cell v
            | exception Not_found -> Value.Tbl.add tbl k (init v));
        fun () ->
          let by = ref 0 in
          let out =
            Value.Tbl.fold (fun k cell acc -> (k, cell) :: acc) tbl []
            |> List.sort (fun (a, _) (b, _) -> Value.compare a b)
            |> List.map (fun (k, cell) ->
                   let r = record k cell in
                   by := !by + Value.size_of r;
                   r)
          in
          Batch.of_array ~bytes:!by (Array.of_list out)
    | Some spill_budget ->
        let g =
          Spill.create ~obs ?dir:config.spill_dir ~budget:spill_budget ~label
            ()
        in
        (* no temp file survives a raising feed (λm, a cancellation, a
           spill error) or a raising reduce: [Spill.finish] sweeps on
           its own exit paths, this on the rest *)
        let guarded f =
          match f () with
          | x -> x
          | exception e -> (
              let bt = Printexc.get_raw_backtrace () in
              Spill.cleanup g;
              match e with
              | Spill.Spill_error m -> err "spill (%s): %s" label m
              | e -> Printexc.raise_with_backtrace e bt)
        in
        guarded (fun () ->
            input (fun r ->
                let k, v = as_kv r in
                Spill.add g k v));
        fun () ->
          guarded @@ fun () ->
          let rev = ref [] and by = ref 0 in
          Spill.finish g ~init ~step ~record ~emit:(fun r ->
              by := !by + Value.size_of r;
              rev := r :: !rev);
          Batch.of_array ~bytes:!by (Array.of_list (List.rev !rev))
  in
  (* a shuffle stage consumes its input feed like [group]: whether it
     combines, and the function that makes its output *)
  let shuffle (stage : Plan.stage) ~hint (input : Batch.feed) :
      bool * (unit -> Batch.t) =
    let label = Plan.stage_label stage in
    match stage with
    | Plan.Reduce_by_key { f; comm_assoc; _ } ->
        ( comm_assoc,
          group label ~hint input ~init:ref
            ~step:(fun acc v -> acc := f !acc v)
            ~record:(fun k acc -> Value.Tuple [ k; !acc ]) )
    | Plan.Group_by_key _ ->
        ( false,
          group label ~hint input
            ~init:(fun v -> ref [ v ])
            ~step:(fun cell v -> cell := v :: !cell)
            ~record:(fun k cell ->
              Value.Tuple [ k; Value.List (List.rev !cell) ]) )
    | Plan.Global_reduce { f; comm_assoc; _ } ->
        let acc = ref None in
        input (fun v ->
            acc := Some (match !acc with None -> v | Some a -> f a v));
        ( comm_assoc,
          fun () ->
            match !acc with
            | None -> Batch.empty ()
            | Some v -> Batch.of_array ~bytes:(Value.size_of v) [| v |] )
    | _ -> invalid_arg "Engine: not a shuffle stage"
  in
  let measured label ~records_in ~bytes_in ~records_out ~bytes_out =
    {
      label;
      records_in;
      records_out;
      bytes_in;
      bytes_out;
      bytes_shuffled = 0;
      is_shuffle = false;
      combined = false;
    }
  in
  let of_batch label ~records_in ~bytes_in out =
    measured label ~records_in ~bytes_in ~records_out:(Batch.length out)
      ~bytes_out:(Batch.bytes out)
  in
  (* a reduction ships its input, or with a combiner (a comm-assoc
     reduction) only its combined output: the time model bounds that
     at one combined record per key per worker ({!capped_shuffled}) *)
  let shuffled label ~records_in ~bytes_in ~combined out =
    {
      (of_batch label ~records_in ~bytes_in out) with
      bytes_shuffled = (if combined then Batch.bytes out else bytes_in);
      is_shuffle = true;
      combined;
    }
  in
  let nested_metrics = ref [] in
  let exec (current : Batch.t) (stage : Plan.stage) :
      Batch.t * stage_metrics =
    let records_in = Batch.length current in
    let bytes_in = Batch.bytes current in
    let label = Plan.stage_label stage in
    let input = source current in
    let collect feed =
      let out = Batch.collect ~capacity:records_in feed in
      (out, of_batch label ~records_in ~bytes_in out)
    in
    match stage with
    | Plan.Flat_map { f; _ } -> collect (emits f input)
    | Plan.Filter { p; _ } ->
        collect (fun sink -> input (fun r -> if p r then sink r))
    | Plan.Map_values { f; _ } ->
        collect (fun sink ->
            input (fun r ->
                let k, v = as_kv r in
                sink (Value.Tuple [ k; f v ])))
    | Plan.Reduce_by_key _ | Plan.Group_by_key _ | Plan.Global_reduce _ ->
        check_workers ();
        let combined, build = shuffle stage ~hint:records_in input in
        let out = build () in
        (out, shuffled label ~records_in ~bytes_in ~combined out)
    | Plan.Join_with { right; _ } ->
        check_workers ();
        (* the whole config rides along — including the cache, so a
           join side run again is served from its previous run *)
        let right_run = exec_plan config ~cluster ~datasets right in
        nested_metrics := !nested_metrics @ right_run.stages;
        let tbl = Value.Tbl.create 256 in
        List.iter
          (fun r ->
            let k, v = as_kv r in
            Value.Tbl.add tbl k v)
          right_run.output;
        let probe r sink =
          let k, v1 = as_kv r in
          List.iter
            (fun v2 -> sink (Value.Tuple [ k; Value.Tuple [ v1; v2 ] ]))
            (List.rev (Value.Tbl.find_all tbl k))
        in
        let joined, m = collect (emits probe input) in
        let bytes_shuffled = bytes_in + Value.size_of_list right_run.output in
        (joined, { m with bytes_shuffled; is_shuffle = true })
  in
  (* a stage's span, carrying its record and shuffle counters *)
  let in_span label f =
    Obs.span obs label @@ fun () ->
    let out, m = f () in
    Obs.add obs "records_out" m.records_out;
    if m.is_shuffle then begin
      Obs.add obs "shuffle_records" m.records_in;
      Obs.add obs "shuffle_bytes" m.bytes_shuffled
    end;
    (out, m)
  in
  (* A map stage followed by a shuffle runs as one pass, the map-side
     combine of paper §6.3: each record λm emits is counted and sized,
     then fed straight into the shuffle's grouping or fold. The map's
     span covers that pass and the shuffle's span building its output;
     both stages report the metrics of the unfused pair. On a cluster
     without workers the pair runs unfused, so λm's errors still come
     before the shuffle's. *)
  let rec run cur ms = function
    | [] -> (cur, ms)
    | Plan.Flat_map { f; label }
      :: (( Plan.Reduce_by_key _ | Plan.Group_by_key _ | Plan.Global_reduce _
          ) as next)
      :: rest
      when cluster.Cluster.workers > 0 ->
        check_cancel config;
        let records_in = Batch.length cur and bytes_in = Batch.bytes cur in
        let n = ref 0 and by = ref 0 in
        let counted sink v =
          incr n;
          by := !by + Value.size_of v;
          sink v
        in
        let (combined, build), m_map =
          in_span label @@ fun () ->
          let c =
            shuffle next ~hint:records_in (fun sink ->
                emits f (source cur) (counted sink))
          in
          ( c,
            measured label ~records_in ~bytes_in ~records_out:!n
              ~bytes_out:!by )
        in
        let out, m =
          let label = Plan.stage_label next in
          in_span label @@ fun () ->
          let out = build () in
          ( out,
            shuffled label ~records_in:m_map.records_out
              ~bytes_in:m_map.bytes_out ~combined out )
        in
        run out (m :: m_map :: ms) rest
    | stage :: rest ->
        check_cancel config;
        let out, m =
          in_span (Plan.stage_label stage) (fun () -> exec cur stage)
        in
        run out (m :: ms) rest
  in
  let output_batch, rev_stages = run input_batch [] plan.Plan.stages in
  let stages = !nested_metrics @ List.rev rev_stages in
  let run =
    {
      output = Batch.to_list output_batch;
      stages;
      input_records = Batch.length input_batch;
      input_bytes;
    }
  in
  (* populate the cache with the run a future hit reports as if
     recomputed; insertion may evict in LRU order (including this very
     entry when it alone overflows the budget) *)
  (match cache_slot with
  | None -> ()
  | Some (c, key) ->
      let bytes = Batch.bytes output_batch in
      let evictions = Cache.put c key ~bytes run in
      Obs.span obs "engine.cache" (fun () ->
          Obs.add obs "cache_misses" 1;
          Obs.add obs "cache_bytes" bytes;
          if evictions > 0 then Obs.add obs "cache_evictions" evictions));
  run

let run_plan ?(config = Config.default) ~(cluster : Cluster.t)
    ~(datasets : (string * Value.t list) list) (plan : Plan.t) : run =
  (* [<= 0] means unbounded, so callers can force the in-memory path
     explicitly *)
  let memory_budget =
    match config.memory_budget with Some b when b > 0 -> Some b | _ -> None
  in
  exec_plan { config with memory_budget } ~cluster ~datasets plan

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
