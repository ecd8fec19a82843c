(** Casper, end to end (paper Figure 2): the public compiler API.

    The typical flow is a single call to {!translate_source}, which runs
    the program analyzer, the incremental CEGIS summary search with
    two-phase verification, cost-based pruning, and code generation for
    the three target frameworks. *)

module F = Casper_analysis.Fragment
module Ir = Casper_ir.Lang
module Cegis = Casper_synth.Cegis

(** The result of translating one code fragment. *)
type translation = {
  frag : F.t;  (** the analyzed fragment *)
  outcome : Cegis.outcome;  (** raw synthesis result and statistics *)
  survivors : Cegis.solution list;
      (** verified summaries that survive static cost-dominance pruning
          (§5.2), cheapest first; several survive only when their
          relative cost depends on the data, in which case the generated
          runtime monitor picks among them *)
  spark_src : string option;
      (** generated Spark source for the best summary (Appendix C) *)
  flink_src : string option;
  hadoop_src : string option;
}

(** A whole-program translation report. *)
type report = {
  program : Minijava.Ast.program;
  suite : string;
  benchmark : string;
  translations : translation list;  (** one per identified fragment *)
}

(** Did this fragment translate (at least one verified summary)? *)
val translated : translation -> bool

(** Why the fragment failed, in the §7.1 failure taxonomy; [None] when
    it translated. *)
val failure_reason : translation -> string option

(** Translate a single analyzed fragment. [obs] (default disabled)
    wraps the work in a "fragment" span with "synthesis", "cost-prune"
    and per-target "codegen" children. *)
val translate_fragment :
  ?obs:Casper_obs.Obs.ctx ->
  ?config:Cegis.config ->
  Minijava.Ast.program ->
  F.t ->
  translation

(** Translate analyzed fragments of one program: equal to
    [List.map (translate_fragment ?obs ?config prog) frags], computed
    concurrently. The fragments are independent searches, so they run on
    [min (Domain.recommended_domain_count ()) s] domains, [s] being the
    number of supported fragments: the caller and freshly spawned
    domains that exit when no fragment is left
    ({!Casper_par.Par.spawn_map}). With one domain, or when called from
    inside a {!Casper_par.Par} task, they run inline on the caller. No
    spawned domain is alive once the call returns. Results come back in
    fragment order. If fragments raise, the lowest-index fragment's
    exception is re-raised after all have run.

    Each fragment records its spans into a child of [obs] on the domain
    that runs it; the children are grafted under the caller's innermost
    open span in fragment order ({!Casper_obs.Obs.graft}), up to and
    including the first that raised. The span tree and the counter
    totals are therefore those of a sequential run; only the
    timestamps of concurrent fragments overlap. *)
val translate_fragments :
  ?obs:Casper_obs.Obs.ctx ->
  ?config:Cegis.config ->
  Minijava.Ast.program ->
  F.t list ->
  translation list

(** Parse, type-check, analyze and translate MiniJava source text.
    With [obs] enabled the whole pipeline is recorded as spans — parse,
    typecheck, analysis, then one fragment subtree per translation, in
    fragment order. The fragments are translated concurrently, as in
    {!translate_fragments}.
    @raise Minijava.Lexer.Lex_error on lexical errors
    @raise Minijava.Parser.Parse_error on syntax errors
    @raise Minijava.Typecheck.Type_error on type errors *)
val translate_source :
  ?obs:Casper_obs.Obs.ctx ->
  ?config:Cegis.config ->
  suite:string ->
  benchmark:string ->
  string ->
  report

(** Like {!translate_source} for an already-parsed program: analysis,
    then {!translate_fragments} over every identified fragment. *)
val translate_program :
  ?obs:Casper_obs.Obs.ctx ->
  ?config:Cegis.config ->
  suite:string ->
  benchmark:string ->
  Minijava.Ast.program ->
  report
