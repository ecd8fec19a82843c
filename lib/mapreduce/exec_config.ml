(** One execution-configuration surface. See exec_config.mli. *)

module Value = Casper_common.Value
module Obs = Casper_obs.Obs

(* ------------------------------------------------------------------ *)
(* Types shared with the engine                                        *)

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

type cached_run = {
  c_batch : Batch.t;
  c_stages : stage_metrics list;
  c_input_records : int;
  c_input_bytes : int;
}

type cache = cached_run Cache.t

let make_cache ?budget () : cache = Cache.create ?budget ()
let cache_stats (c : cache) = Cache.stats c

(* ------------------------------------------------------------------ *)
(* The configuration record                                            *)

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

