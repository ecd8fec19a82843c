(** Fuzz campaigns and corpus replay.

    A campaign is fully determined by its seed: program [i] of campaign
    [seed] is always the same program, so any failure can be replayed
    from the (seed, index) pair alone — and is also reported as
    compilable source, minimized when requested.

    The regression corpus ([test/corpus/*.mj]) is plain MiniJava source,
    one program per file; {!replay_corpus} pushes every file through the
    oracle, which is how past reproducers stay fixed in tier-1. *)

type failure = {
  index : int;  (** campaign index: replay with the same seed *)
  shape : string;
  divergence : Oracle.divergence;
  minimized : string option;  (** minimized source, when requested *)
}

type report = {
  total : int;
  translated : int;
  skipped : int;
  skip_reasons : (string * int) list;  (** reason → count *)
  failures : failure list;
}

(** Run [count] generated programs through the oracle.

    Programs are generated sequentially from the campaign rng — program
    [i] of campaign [seed] is the same at any [jobs] (default 1: the
    campaign runs inline) — then checked in waves of [4 × jobs], each
    wave mapped across [jobs] domains spawned for it
    ({!Casper_par.Par.spawn_map}), and the wave's verdicts are folded
    into the report in index order. A program's verdict is independent
    of every other program's (the oracle's caches are domain-local and
    outcome-transparent), so the report — counts, skip reasons,
    failures, log lines — is byte-identical at any [jobs]. Shrinking
    runs on the submitting domain, off the critical path. *)
val run_campaign :
  ?log:(string -> unit) ->
  ?config:Oracle.config ->
  ?shrink_budget:int ->
  ?jobs:int -> seed:int -> count:int -> minimize:bool -> unit -> report

(** All [*.mj] files under [dir], sorted, each run through the oracle. *)
val replay_corpus :
  ?config:Oracle.config ->
  dir:string -> unit -> (string * Oracle.verdict) list

(** Write a failure's (minimized, when present) source to
    [dir/repro-<index>.mj]; returns the path. *)
val write_repro : dir:string -> failure -> string
