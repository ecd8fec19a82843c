(** Source printer for MiniJava — the inverse of {!Parser}.

    The printer targets *re-parseability*, not pretty layout: every
    shrunk fuzzer failure and counter-example environment is reported as
    source that [Parser.parse_program] accepts and maps back to the same
    AST. The invariant tested (and the one that matters for reproducers)
    is idempotence: [parse (print (parse src))] equals [parse src].

    Printing choices forced by the parser/lexer:

    - Sub-expressions that are not primary/postfix forms (binops,
      unops, ternaries, casts, negative literals) are parenthesized.
      Parentheses are AST-transparent, so this is always safe and never
      changes the parse.
    - Float literals always carry a digit on both sides of the dot
      ([1.0], not [1.]) because the lexer requires one; the shortest
      representation that round-trips through [float_of_string] is used.
    - Op-assignments and [i++] have no dedicated AST form — the parser
      desugars them — so they print as plain assignments, which re-parse
      to the identical AST.
    - Bodies are always braced; [for] headers carry at most one init and
      one update statement (all the parser accepts). A [For] node with
      more — which the parser itself can never produce — is desugared to
      a block with a [while] loop so the printer stays total.
    - Constructor generics are dropped ([new ArrayList()]): the parser
      skips them, so they were never in the AST to begin with. *)

open Ast

(* ------------------------------------------------------------------ *)
(* Literals                                                            *)

let escape_string (s : string) : string =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* shortest decimal that round-trips, with a mandatory fraction digit so
   the lexer reads it back as a FLOAT *)
let float_literal (f : float) : string =
  if Float.is_nan f then "(0.0 / 0.0)"
  else if f = Float.infinity then "(1.0 / 0.0)"
  else if f = Float.neg_infinity then "(-1.0 / 0.0)"
  else
    let s =
      let short = Fmt.str "%.12g" f in
      if float_of_string short = f then short else Fmt.str "%.17g" f
    in
    if String.exists (function '.' | 'e' | 'E' -> true | _ -> false) s then s
    else s ^ ".0"

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)

(* anything the parser reads as a primary/postfix form can appear bare
   in operand, receiver, and index-base positions; the rest needs
   parentheses (negative literals lex as unary minus, so they get them
   too) *)
let needs_parens = function
  | Binop _ | Unop _ | Ternary _ | Cast _ -> true
  | IntLit n -> n < 0
  | FloatLit f -> f < 0.0 || Float.is_nan f || f = Float.infinity
  | _ -> false

let rec expr_to_string (e : expr) : string =
  match e with
  | IntLit n -> string_of_int n
  | FloatLit f -> float_literal f
  | BoolLit b -> if b then "true" else "false"
  | StrLit s -> "\"" ^ escape_string s ^ "\""
  | Var v -> v
  | Unop (op, a) ->
      let sym = match op with Neg -> "-" | Not -> "!" | BitNot -> "~" in
      sym ^ sub a
  | Binop (op, a, b) ->
      Fmt.str "%s %s %s" (sub a) (binop_to_string op) (sub b)
  | Index (b, i) -> Fmt.str "%s[%s]" (sub b) (expr_to_string i)
  | Field (b, f) -> Fmt.str "%s.%s" (sub b) f
  | Call (f, args) -> Fmt.str "%s(%s)" f (args_to_string args)
  | MethodCall (recv, m, args) ->
      Fmt.str "%s.%s(%s)" (sub recv) m (args_to_string args)
  | NewArray (t, dims) ->
      Fmt.str "new %s%s" (ty_to_string t)
        (String.concat ""
           (List.map (fun d -> "[" ^ expr_to_string d ^ "]") dims))
  | NewObj (cls, args) -> Fmt.str "new %s(%s)" cls (args_to_string args)
  | Ternary (c, t, f) -> Fmt.str "%s ? %s : %s" (sub c) (sub t) (sub f)
  | Cast (t, a) -> Fmt.str "(%s) %s" (ty_to_string t) (sub a)
  | ArrLen a -> sub a ^ ".length"

and sub (e : expr) : string =
  if needs_parens e then "(" ^ expr_to_string e ^ ")" else expr_to_string e

and args_to_string args = String.concat ", " (List.map expr_to_string args)

let lvalue_to_string = function
  | LVar v -> v
  | LIndex (b, i) -> Fmt.str "%s[%s]" (sub b) (expr_to_string i)
  | LField (b, f) -> Fmt.str "%s.%s" (sub b) f

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)

(* decl / assignment / expression statement without the trailing ';',
   as it appears in a for-header slot *)
let header_stmt_to_string = function
  | Decl (t, n, None) -> Fmt.str "%s %s" (ty_to_string t) n
  | Decl (t, n, Some e) ->
      Fmt.str "%s %s = %s" (ty_to_string t) n (expr_to_string e)
  | Assign (lv, e) ->
      Fmt.str "%s = %s" (lvalue_to_string lv) (expr_to_string e)
  | ExprStmt e -> expr_to_string e
  | _ -> invalid_arg "Pp.header_stmt_to_string: not a simple statement"

let rec bpf_stmt buf ind (s : stmt) : unit =
  let pad = String.make (2 * ind) ' ' in
  let line fmt = Fmt.kstr (fun s -> Buffer.add_string buf (pad ^ s ^ "\n")) fmt in
  match s with
  | Decl _ | Assign _ | ExprStmt _ -> line "%s;" (header_stmt_to_string s)
  | Return None -> line "return;"
  | Return (Some e) -> line "return %s;" (expr_to_string e)
  | Break -> line "break;"
  | Continue -> line "continue;"
  | If (c, t, []) ->
      line "if (%s) {" (expr_to_string c);
      bpf_body buf ind t;
      line "}"
  | If (c, t, f) ->
      line "if (%s) {" (expr_to_string c);
      bpf_body buf ind t;
      line "} else {";
      bpf_body buf ind f;
      line "}"
  | While (c, b) ->
      line "while (%s) {" (expr_to_string c);
      bpf_body buf ind b;
      line "}"
  | DoWhile (b, c) ->
      line "do {";
      bpf_body buf ind b;
      line "} while (%s);" (expr_to_string c)
  | For (([] | [ _ ]) as init, cond, (([] | [ _ ]) as upd), body) ->
      let h = function [] -> "" | s :: _ -> header_stmt_to_string s in
      let c = match cond with None -> "" | Some e -> expr_to_string e in
      line "for (%s; %s; %s) {" (h init) c (h upd);
      bpf_body buf ind body;
      line "}"
  | For (init, cond, upd, body) ->
      (* unprintable as a header (parser never produces this shape);
         desugar, preserving semantics *)
      let cond = match cond with None -> BoolLit true | Some c -> c in
      bpf_stmt buf ind (Block (init @ [ While (cond, body @ upd) ]))
  | ForEach (t, x, e, b) ->
      line "for (%s %s : %s) {" (ty_to_string t) x (expr_to_string e);
      bpf_body buf ind b;
      line "}"
  | Block b ->
      line "{";
      bpf_body buf ind b;
      line "}"

and bpf_body buf ind stmts = List.iter (bpf_stmt buf (ind + 1)) stmts

(* ------------------------------------------------------------------ *)
(* Declarations and programs                                           *)

let meth_to_string (m : meth) : string =
  let buf = Buffer.create 512 in
  let params =
    String.concat ", "
      (List.map (fun (t, n) -> Fmt.str "%s %s" (ty_to_string t) n) m.params)
  in
  Buffer.add_string buf
    (Fmt.str "%s %s(%s) {\n" (ty_to_string m.ret) m.mname params);
  bpf_body buf 0 m.body;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let class_to_string (c : class_decl) : string =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (Fmt.str "class %s {\n" c.cname);
  List.iter
    (fun (t, n) ->
      Buffer.add_string buf (Fmt.str "  %s %s;\n" (ty_to_string t) n))
    c.cfields;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let program_to_string (p : program) : string =
  String.concat "\n"
    (List.map class_to_string p.classes @ List.map meth_to_string p.methods)
