module Ir = Casper_ir.Lang

exception Unsupported of string

let err fmt = Fmt.kstr (fun s -> raise (Unsupported s)) fmt

let weld_ty : Ir.ty -> string = function
  | Ir.TInt | Ir.TDate -> "i64"
  | Ir.TFloat -> "f64"
  | Ir.TBool -> "bool"
  | Ir.TString -> "vec[i8]"
  | Ir.TTuple ts ->
      Fmt.str "{%s}"
        (String.concat ","
           (List.map
              (function
                | Ir.TInt | Ir.TDate -> "i64"
                | Ir.TFloat -> "f64"
                | Ir.TBool -> "bool"
                | _ -> "?")
              ts))
  | t -> err "no Weld type for %a" Ir.pp_ty t

let weld_op : Ir.binop -> string option = function
  | Ir.Add -> Some "+"
  | Ir.Mul -> Some "*"
  | Ir.Min -> Some "min"
  | Ir.Max -> Some "max"
  | Ir.Or -> Some "||"
  | Ir.And -> Some "&&"
  | _ -> None

let rec weld_expr (e : Ir.expr) : string =
  match e with
  | Ir.CInt n -> Fmt.str "%dL" n
  | Ir.CFloat f -> Fmt.str "%g" f
  | Ir.CBool b -> string_of_bool b
  | Ir.CStr s -> Fmt.str "%S" s
  | Ir.Var v -> v
  | Ir.Unop (Ir.Neg, a) -> "-" ^ weld_expr a
  | Ir.Unop (Ir.Not, a) -> "!" ^ weld_expr a
  | Ir.Binop ((Ir.Min | Ir.Max) as op, a, b) ->
      Fmt.str "%s(%s, %s)"
        (match op with Ir.Min -> "min" | _ -> "max")
        (weld_expr a) (weld_expr b)
  | Ir.Binop (op, a, b) ->
      let sym =
        match op with
        | Ir.Add -> "+" | Ir.Sub -> "-" | Ir.Mul -> "*" | Ir.Div -> "/"
        | Ir.Mod -> "%" | Ir.Lt -> "<" | Ir.Le -> "<=" | Ir.Gt -> ">"
        | Ir.Ge -> ">=" | Ir.Eq -> "==" | Ir.Ne -> "!=" | Ir.And -> "&&"
        | Ir.Or -> "||" | _ -> "?"
      in
      Fmt.str "(%s %s %s)" (weld_expr a) sym (weld_expr b)
  | Ir.Call (f, args) ->
      Fmt.str "%s(%s)"
        (String.map (fun c -> if c = '.' then '_' else c) f)
        (String.concat ", " (List.map weld_expr args))
  | Ir.MkTuple es ->
      Fmt.str "{%s}" (String.concat ", " (List.map weld_expr es))
  | Ir.TupleGet (a, i) -> Fmt.str "%s.$%d" (weld_expr a) i
  | Ir.Field (a, f) -> Fmt.str "%s.%s" (weld_expr a) f
  | Ir.If (c, t, e) ->
      Fmt.str "if(%s, %s, %s)" (weld_expr c) (weld_expr t) (weld_expr e)

let merge_of_emit builder elem_params ({ Ir.guard; payload } : Ir.emit) :
    string =
  ignore elem_params;
  let merged =
    match payload with
    | Ir.KV (k, v) ->
        Fmt.str "merge(%s, {%s, %s})" builder (weld_expr k) (weld_expr v)
    | Ir.Val v -> Fmt.str "merge(%s, %s)" builder (weld_expr v)
  in
  match guard with
  | None -> merged
  | Some g -> Fmt.str "if(%s, %s, %s)" (weld_expr g) merged builder

(** Rewrite a summary into Weld source. The value type of the reduction
    must be given (it selects the merger's Weld type). *)
let rec weld_node ~(vty : Ir.ty) (n : Ir.node) : string =
  match n with
  | Ir.Reduce (Ir.Map (Ir.Data d, lm), lr) ->
      let op =
        match lr.Ir.r_body with
        | Ir.Binop (op, Ir.Var a, Ir.Var b)
          when a = lr.Ir.r_left && b = lr.Ir.r_right -> (
            match weld_op op with
            | Some s -> s
            | None -> err "reducer operator has no Weld merger")
        | _ -> err "only binary-operator reducers translate to mergers"
      in
      let keyed =
        List.exists
          (fun e -> match e.Ir.payload with Ir.KV _ -> true | _ -> false)
          lm.Ir.emits
      in
      let builder =
        if keyed then
          Fmt.str "dictmerger[%s,%s,%s]" (weld_ty Ir.TString) (weld_ty vty) op
        else Fmt.str "merger[%s,%s]" (weld_ty vty) op
      in
      let params = String.concat "," lm.Ir.m_params in
      let body =
        List.fold_left
          (fun acc e -> merge_of_emit acc lm.Ir.m_params e)
          "b"
          (List.rev lm.Ir.emits)
      in
      (* fold emits right-to-left so the first emit is outermost *)
      let body =
        match lm.Ir.emits with
        | [ e ] -> merge_of_emit "b" lm.Ir.m_params e
        | _ -> body
      in
      Fmt.str "result(for(%s, %s, |b,i,%s| %s))" d builder params body
  | Ir.Map (inner, lm) ->
      let params = String.concat "," lm.Ir.m_params in
      let body =
        match lm.Ir.emits with
        | [ { Ir.guard = None; payload = Ir.KV (k, v) } ] ->
            Fmt.str "{%s, %s}" (weld_expr k) (weld_expr v)
        | [ { Ir.guard = None; payload = Ir.Val v } ] -> weld_expr v
        | _ -> err "post-reduce maps must be single unguarded emits"
      in
      Fmt.str "map(tovec(%s), |%s| %s)" (weld_node ~vty inner) params body
  | Ir.Reduce (inner, _) ->
      err "reduce over %s not in the rewrite rules"
        (Fmt.str "%a" Ir.pp_node inner)
  | Ir.Data d -> d
  | Ir.Join _ -> err "join has no direct Weld rewrite here"

let emit ~(vty : Ir.ty) (s : Ir.summary) : string =
  let datasets =
    List.sort_uniq compare (Ir.node_datasets s.Ir.pipeline)
  in
  Fmt.str "|%s| %s"
    (String.concat ", " (List.map (fun d -> d ^ ": vec[?]") datasets))
    (weld_node ~vty s.Ir.pipeline)
