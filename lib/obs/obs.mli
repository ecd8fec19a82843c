(** Pipeline observability: hierarchical spans with an injectable
    deterministic clock, integer counters, and Chrome [trace_event]
    export. Disabled contexts ({!null}) reduce every operation to a flag
    check, so instrumentation stays in place on hot paths at <2% cost
    (the [obs.overhead] test enforces the budget).

    Only the domain that created a context writes to it: work on another
    domain records into a {!fork} and is folded back with {!graft}. *)

type clock = unit -> float

(** The monotonic wall clock ([Unix.gettimeofday]). *)
val wall_clock : clock

(** A deterministic virtual clock: strictly increasing, with seeded
    pseudo-random sub-millisecond steps. Used by tests and the difftest
    oracle so span trees and [elapsed_s] statistics are reproducible. *)
val virtual_clock : ?seed:int -> unit -> clock

type ctx

(** The shared disabled context: every operation is a no-op. *)
val null : ctx

val create : ?clock:clock -> unit -> ctx
val enabled : ctx -> bool

(** The context's current time — the shared replacement for private
    [Unix.gettimeofday] timers. *)
val now : ctx -> float

(** [span c name f] runs [f] inside a span nested under the innermost
    open span; closed on exceptions too. [args] are free-form string
    annotations shown in the trace viewer. *)
val span : ctx -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a

(** Record an already-completed span with explicit timestamps, e.g. a
    session's per-job track. [track] separates its timeline from the
    wall clock's. *)
val span_at :
  ctx ->
  track:string ->
  ?args:(string * string) list ->
  t0:float ->
  t1:float ->
  string ->
  unit

(** Add to a typed counter, on the innermost open span and on the flat
    per-run totals. *)
val add : ctx -> string -> int -> unit

(** Flat total of a counter (0 when never bumped, or disabled). *)
val total : ctx -> string -> int

(** A child context for work that runs on another domain while this
    context's owner waits: enabled when [c] is, on [c]'s clock, owned by
    the calling domain (create it on the domain that does the work).
    Fold it back with {!graft}. [null] when [c] is disabled. *)
val fork : ctx -> ctx

(** [graft parent child], on [parent]'s owner once [child]'s work has
    finished: [child]'s top-level spans are appended under [parent]'s
    innermost open span, in order, and its counter totals are added to
    [parent]'s — the tree a sequential run under [parent]
    would have recorded. A no-op when either context is disabled. *)
val graft : ctx -> ctx -> unit

(** Read-side span view; children in start order, counters sorted. *)
type view = {
  v_name : string;
  v_track : string;
  v_t0 : float;
  v_t1 : float;
  v_args : (string * string) list;
  v_counters : (string * int) list;
  v_children : view list;
}

(** Top-level spans recorded so far (empty for disabled contexts). *)
val tree : ctx -> view list

(** Every [span] opened has been closed (trivially true when disabled). *)
val well_formed : ctx -> bool

(** Structural shape of the span tree — names, nesting, counter keys,
    duplicate siblings collapsed — the byte-stable surface golden tests
    assert against. *)
val shape : ctx -> string

(** Flat metrics: {["counters"]}, the per-run counter totals. *)
val metrics : ctx -> Casper_common.Jsonout.t

(** Chrome [trace_event] JSON ("X" complete events, one tid per track,
    metrics embedded under the extra "metrics" key). *)
val to_chrome_string : ctx -> string

(** Write the Chrome trace to [path] and the flat metrics next to it,
    as [<path minus extension>.metrics.json]. *)
val write_trace : string -> ctx -> unit

(** [warn_once ~key msg] prints ["casper: warning: <msg>"] to stderr
    the first time [key] is seen in this process and is a no-op after;
    returns whether it printed. Safe to call from any domain. Used for
    configuration diagnostics that would otherwise repeat on every run
    (e.g. the {!Casper_par.Par.recommended_jobs} domain clamp). *)
val warn_once : key:string -> string -> bool
