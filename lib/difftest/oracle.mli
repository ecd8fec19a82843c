(** The differential pipeline oracle.

    One generated program is pushed through the full stack — printer →
    parser → typechecker → fragment analysis → CEGIS synthesis (once
    untraced, once traced) → verification on fresh states → compilation
    → the simulated engine on every backend — and the result multisets
    are compared at every stage boundary against the
    {!Minijava.Interp} reference execution. The engine run is then
    repeated out of core, against dataset caches and through serving
    sessions, and each must match the plain run byte for byte.

    Verdicts are three-valued: [Translated] (every check passed),
    [Skipped] (the pipeline *declined* the program — unsupported
    fragment, exhausted search budget, or an input state on which the
    sequential reference itself faults), and [Diverged] (two stages
    disagree, or a stage crashed — always a bug worth a reproducer).
    Skips are not failures: the fuzzer checks translation soundness, not
    completeness. *)

module Cegis = Casper_synth.Cegis
module Engine = Mapreduce.Engine
module Cluster = Mapreduce.Cluster
module Value = Casper_common.Value

type config = {
  backends : Cluster.t list;
  inputs : int;  (** fresh program states checked per program *)
  input_seed : int;
  synth : Cegis.config;
      (** the search configuration of both synthesis runs *)
}

(** All three backends, 5 input states drawn from [seed] (default 0),
    and a synthesis budget of 60,000 candidates. *)
val default_config : ?seed:int -> unit -> config

type divergence = {
  stage : string;  (** which boundary disagreed (or crashed) *)
  detail : string;
  source : string;  (** compilable MiniJava source of the program *)
}

type verdict =
  | Translated of string  (** fragment id that went through cleanly *)
  | Skipped of string
  | Diverged of divergence

(** Print a divergence: its stage, detail and source. *)
val pp_divergence : Format.formatter -> divergence -> unit

(** How run [r] departs from [base]: [None] when their outputs agree
    element by element under {!Value.equal} (so a NaN matches a NaN)
    and their stage metrics are equal, else which of the two differs. *)
val run_divergence : base:Engine.run -> Engine.run -> string option

(** Check one parsed program. [name] labels the fragment in reports. *)
val check_parsed : config -> name:string -> Minijava.Ast.program -> verdict

(** Check source text (corpus replay): parse errors are printer-stage
    divergences, everything else as {!check_parsed}. *)
val check_source : config -> name:string -> string -> verdict
