(** Memory-budgeted external grouping for the engine's keyed shuffles.

    A grouper buffers key-value records in memory, charging each record
    at the engine's byte model ({!Casper_common.Value.size_of} of key
    and value). When the estimated live bytes exceed the budget, the
    buffer is sorted by key and appended to disk as one *run*
    ({!Codec} binary format, versioned header, length-prefixed frames),
    and the buffer is cleared. [finish] streams a k-way merge over the
    runs plus the in-memory tail, emitting one folded record per key in
    ascending {!Casper_common.Value.compare} order — with the per-key left fold applied in
    exact arrival order, so the result is byte-identical to the fully
    in-memory grouping at any budget (DESIGN.md §12 has the argument).

    Runs are consecutive arrival windows; when 64 accumulate, they are
    compacted into one (which preserves both the arrival-order and the
    first-arrival-representative invariants, because the windows are
    consecutive). A run file that is missing or truncated when it is
    reopened raises {!Spill_error}.

    Temp files live in a fresh subdirectory of [create]'s [dir] and are
    removed on every exit path: [finish] sweeps in a [Fun.protect], and
    {!cleanup} is idempotent for callers that wrap the whole stage. *)

module Value = Casper_common.Value
module Obs = Casper_obs.Obs

exception Spill_error of string

(* ------------------------------------------------------------------ *)
(* Groupers.                                                           *)

type t

type stats = {
  runs_written : int;  (** spill events (compaction rewrites excluded) *)
  bytes_spilled : int;  (** file bytes written, compaction included *)
  merge_fanin : int;  (** sources merged by [finish]; 0 if no run spilled *)
}

(** [create ~budget ~label ()] starts a grouper. [obs] (default
    disabled) receives [spill_runs] / [spill_bytes] /
    [spill_merge_fanin] counters and a ["spill.merge"] span. [dir]
    (default: the system temp directory) must exist; the grouper's
    subdirectory is created under it at the first spill. [budget] must
    be positive. *)
val create :
  ?obs:Obs.ctx ->
  ?dir:string ->
  budget:int ->
  label:string ->
  unit ->
  t

(** [add t k v] feeds the next record in arrival order; keys are
    identified by {!Value.equal}. May spill. *)
val add : t -> Value.t -> Value.t -> unit

(** Merge runs and the in-memory tail; for each key in ascending
    {!Value.compare} order, fold its values in arrival order — [init] on the
    first, [step] on the rest — then call [emit (record key cell)].
    Sweeps all temp files before returning, also on exceptions. The
    grouper cannot be used afterwards. *)
val finish :
  t ->
  init:(Value.t -> 'cell) ->
  step:('cell -> Value.t -> unit) ->
  record:(Value.t -> 'cell -> Value.t) ->
  emit:(Value.t -> unit) ->
  unit

(** Remove every temp file and the grouper's directory. Idempotent;
    called by [finish] itself, and again by callers guarding against
    exceptions raised before or during [finish]. *)
val cleanup : t -> unit

val stats : t -> stats
