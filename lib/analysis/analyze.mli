(** The program analyzer (paper §3.2, §6.1–6.2, Appendix D).

    Identifies translatable code fragments (loops that iterate data
    structures), extracts the facts that drive grammar generation —
    variables in scope, variables modified, operators and library methods
    used — and classifies fragments that the IR cannot express, with the
    same failure taxonomy the paper reports. *)

module F = Fragment
module Ir = Casper_ir.Lang

(** The IR type of a MiniJava type: arrays and lists become bags, a map
    a bag of pairs. *)
val ir_ty : Minijava.Ast.ty -> Ir.ty

(** Each class of the program with its fields' IR types. *)
val struct_table :
  Minijava.Ast.program -> (string * (string * Ir.ty) list) list

(** Every candidate fragment of the program's methods, in source order;
    an untranslatable one carries its reason in [unsupported]. *)
val fragments_of_program :
  ?obs:Casper_obs.Obs.ctx ->
  Minijava.Ast.program -> suite:string -> benchmark:string -> F.t list
