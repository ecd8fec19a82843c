(** Weld-syntax emission for program summaries (paper §7.5).

    The paper argues WeldIR is too low-level to synthesize *in*, but
    that summaries in Casper's IR translate to Weld "through simple
    rewrite rules" — they demonstrate this on TPC-H Q6 and compile the
    result with the Weld compiler. We implement those rewrite rules:

    - a global reduction becomes [result(for(data, merger[T,op], …))]
    - a keyed reduction becomes [result(for(data, dictmerger[K,V,op], …))]
    - guarded emits become [if(cond, merge(b, x), b)]
    - a post-reduce map becomes a [map] over [tovec(...)].

    Verifying the emitted text against a real Weld runtime is out of
    scope (no Weld toolchain in this environment); the emitter is tested
    for shape on the Q6 summary the paper uses. *)

module Ir = Casper_ir.Lang

exception Unsupported of string

(** Emit a whole summary as a Weld program (one |data| lambda). *)
val emit : vty:Ir.ty -> Ir.summary -> string
