(** Lightweight type inference for MiniJava.

    The program analyzer needs the static types of every variable in scope
    at a fragment boundary (paper §3.2 uses type information to prune the
    search-space grammar), and the code generator needs expression types to
    pick API variants (Appendix C). *)

open Ast

exception Type_error of string

type env = (string * ty) list

(** The static type of an expression in [env]; raises [Type_error]. *)
val infer : Ast.program -> env -> Ast.expr -> Ast.ty

(** Collect the static environment of a method: params plus every local
    declaration, in source order. Declared types win over inferred
    constructor types (e.g. [List<Foo> l = new ArrayList<>()]). *)
val method_env : Ast.meth -> env

(** Type-check every method of the program; raises [Type_error] on the
    first error. *)
val check_program : Ast.program -> unit
