open Lang
module Value = Casper_common.Value
module Library = Casper_common.Library
module Multiset = Casper_common.Multiset

exception Eval_error of string

let err fmt = Fmt.kstr (fun s -> raise (Eval_error s)) fmt

type env = (string * Value.t) list

type bag =
  | Records of Value.t list
  | Pairs of (Value.t * Value.t) list
  | Vals of Value.t list

type emitted = [ `KV of (Value.t * Value.t) list | `V of Value.t list ]

let num2 fi ff a b =
  let open Value in
  match (a, b) with
  | Int x, Int y -> Int (fi x y)
  | (Int _ | Float _), (Int _ | Float _) -> Float (ff (as_float a) (as_float b))
  | _ -> err "numeric operands expected"

let eval_binop op a b =
  let open Value in
  match op with
  | Add -> (
      match (a, b) with
      | Str x, Str y -> Str (x ^ y)
      | _ -> num2 ( + ) ( +. ) a b)
  | Sub -> num2 ( - ) ( -. ) a b
  | Mul -> num2 ( * ) ( *. ) a b
  | Div -> (
      match (a, b) with
      | Int _, Int 0 -> err "division by zero"
      | Int x, Int y -> Int (x / y)
      | _ -> num2 (fun _ _ -> 0) ( /. ) a b)
  | Mod -> (
      match (a, b) with
      | Int _, Int 0 -> err "mod by zero"
      | Int x, Int y -> Int (x mod y)
      | _ -> err "mod expects ints")
  | Lt -> Bool (compare a b < 0)
  | Le -> Bool (compare a b <= 0)
  | Gt -> Bool (compare a b > 0)
  | Ge -> Bool (compare a b >= 0)
  | Eq -> Bool (equal a b)
  | Ne -> Bool (not (equal a b))
  | And -> Bool (as_bool a && as_bool b)
  | Or -> Bool (as_bool a || as_bool b)
  | Min -> num2 min Float.min a b
  | Max -> num2 max Float.max a b

(* ------------------------------------------------------------------ *)
(* Per-constructor helpers: [eval_expr] and staged code both evaluate
   these constructors through here, so the two raise the same errors. *)

(* the innermost binding of [v], by [String.equal]: [List.assoc_opt]
   would compare the names with polymorphic [compare] *)
let rec lookup (env : env) (v : string) : Value.t =
  match env with
  | [] -> err "unbound IR variable %s" v
  | (name, x) :: rest -> if String.equal name v then x else lookup rest v

let neg : Value.t -> Value.t = function
  | Int n -> Int (-n)
  | Float f -> Float (-.f)
  | _ -> err "negation of non-number"

let tuple_get (v : Value.t) (i : int) : Value.t =
  match v with
  | Tuple xs -> (
      match List.nth_opt xs i with
      | Some x -> x
      | None -> err "tuple index %d out of range" i)
  | _ -> err "tuple projection of non-tuple"

(* the first field named [f], by [String.equal]: [List.assoc_opt]
   would compare the names with polymorphic [compare] *)
let rec find_field (f : string) = function
  | [] -> err "no field %s" f
  | (name, x) :: rest -> if String.equal name f then x else find_field f rest

let field (v : Value.t) (f : string) : Value.t =
  match v with
  | Struct (_, fields) -> find_field f fields
  | _ -> err "field access on non-struct"

(** Apply a resolved library method ({!Library.resolve}), turning its
    failures into [Eval_error]. Arguments are evaluated by the caller,
    outside the handler. *)
let call (f : Value.t list -> Value.t) (argv : Value.t list) : Value.t =
  try f argv with
  | Library.Unknown_method m -> err "unknown library method %s" m
  | Value.Type_error m -> err "%s" m

let rec eval_expr (env : env) (e : expr) : Value.t =
  match e with
  | CInt n -> Int n
  | CFloat f -> Float f
  | CBool b -> Bool b
  | CStr s -> Str s
  | Var v -> lookup env v
  | Unop (Neg, a) -> neg (eval_expr env a)
  | Unop (Not, a) -> Bool (not (Value.as_bool (eval_expr env a)))
  | Binop (And, a, b) ->
      if Value.as_bool (eval_expr env a) then eval_expr env b else Bool false
  | Binop (Or, a, b) ->
      if Value.as_bool (eval_expr env a) then Bool true else eval_expr env b
  | Binop (op, a, b) -> eval_binop op (eval_expr env a) (eval_expr env b)
  | Call (f, args) -> call (Library.resolve f) (List.map (eval_expr env) args)
  | MkTuple es -> Tuple (List.map (eval_expr env) es)
  | TupleGet (a, i) -> tuple_get (eval_expr env a) i
  | Field (a, f) -> field (eval_expr env a) f
  | If (c, t, e') ->
      if Value.as_bool (eval_expr env c) then eval_expr env t
      else eval_expr env e'

let arity_error (params : string list) (elt : Value.t) =
  err "λm arity mismatch: %d params vs record %s" (List.length params)
    (Value.to_string elt)

let bind_params (env : env) (params : string list) (elt : Value.t) : env =
  match (params, elt) with
  | [ p ], _ -> (p, elt) :: env
  | ps, Value.Tuple xs when List.length ps = List.length xs ->
      List.combine ps xs @ env
  | ps, _ -> arity_error ps elt

(* ------------------------------------------------------------------ *)
(* Staged evaluation (DESIGN.md §15).

   [stage env params e] compiles [e] once into an OCaml closure over an
   array of slots, slot i holding the i-th name of [params] (the first
   occurrence wins, as the innermost binding does in [eval_expr]'s env).
   Every other variable is resolved in [env] while staging, and every
   library method by name. The closure then evaluates [e] exactly as
   [eval_expr] does in the env that binds [params] in front of [env]:
   same value, same exception, same operand order. Errors are deferred
   to run time, so staging itself never raises. *)

type code = Value.t array -> Value.t

let rec slot_of (v : string) (i : int) : string list -> int option = function
  | [] -> None
  | p :: ps -> if String.equal p v then Some i else slot_of v (i + 1) ps

let vtrue = Value.Bool true
let vfalse = Value.Bool false

(* [Binop (op, a, b)] with [op] resolved once, [b] evaluated before
   [a]. An int or a float pair takes a fast path through the arithmetic
   and ordering operators that computes what [eval_binop] computes:
   [Value.compare] orders two floats by [Float.compare], NaN lowest.
   Every other pair, and every other operator, goes to [eval_binop]. *)
let stage_binop (op : binop) (a : code) (b : code) : code =
  match op with
  | Add -> (
      fun s ->
        let y = b s in
        match (a s, y) with
        | Value.Int x, Value.Int y -> Value.Int (x + y)
        | Value.Float x, Value.Float y -> Value.Float (x +. y)
        | x, y -> eval_binop Add x y)
  | Sub -> (
      fun s ->
        let y = b s in
        match (a s, y) with
        | Value.Int x, Value.Int y -> Value.Int (x - y)
        | Value.Float x, Value.Float y -> Value.Float (x -. y)
        | x, y -> eval_binop Sub x y)
  | Mul -> (
      fun s ->
        let y = b s in
        match (a s, y) with
        | Value.Int x, Value.Int y -> Value.Int (x * y)
        | Value.Float x, Value.Float y -> Value.Float (x *. y)
        | x, y -> eval_binop Mul x y)
  | Lt -> (
      fun s ->
        let y = b s in
        match (a s, y) with
        | Value.Int x, Value.Int y -> if x < y then vtrue else vfalse
        | Value.Float x, Value.Float y ->
            if Float.compare x y < 0 then vtrue else vfalse
        | x, y -> eval_binop Lt x y)
  | Le -> (
      fun s ->
        let y = b s in
        match (a s, y) with
        | Value.Int x, Value.Int y -> if x <= y then vtrue else vfalse
        | Value.Float x, Value.Float y ->
            if Float.compare x y <= 0 then vtrue else vfalse
        | x, y -> eval_binop Le x y)
  | Gt -> (
      fun s ->
        let y = b s in
        match (a s, y) with
        | Value.Int x, Value.Int y -> if x > y then vtrue else vfalse
        | Value.Float x, Value.Float y ->
            if Float.compare x y > 0 then vtrue else vfalse
        | x, y -> eval_binop Gt x y)
  | Ge -> (
      fun s ->
        let y = b s in
        match (a s, y) with
        | Value.Int x, Value.Int y -> if x >= y then vtrue else vfalse
        | Value.Float x, Value.Float y ->
            if Float.compare x y >= 0 then vtrue else vfalse
        | x, y -> eval_binop Ge x y)
  | op ->
      fun s ->
        let y = b s in
        eval_binop op (a s) y

let stage (env : env) (params : string list) (e : expr) : code =
  let rec go (e : expr) : code =
    match e with
    | CInt n ->
        let v = Value.Int n in
        fun _ -> v
    | CFloat f ->
        let v = Value.Float f in
        fun _ -> v
    | CBool b ->
        let v = Value.Bool b in
        fun _ -> v
    | CStr s ->
        let v = Value.Str s in
        fun _ -> v
    | Var v -> (
        match slot_of v 0 params with
        | Some i -> fun s -> s.(i)
        | None -> (
            match List.assoc_opt v env with
            | Some x -> fun _ -> x
            | None -> fun _ -> lookup env v))
    | Unop (Neg, a) ->
        let a = go a in
        fun s -> neg (a s)
    | Unop (Not, a) ->
        let a = go a in
        fun s -> Bool (not (Value.as_bool (a s)))
    | Binop (And, a, b) ->
        let a = go a and b = go b in
        fun s -> if Value.as_bool (a s) then b s else Bool false
    | Binop (Or, a, b) ->
        let a = go a and b = go b in
        fun s -> if Value.as_bool (a s) then Bool true else b s
    | Binop (op, a, b) -> stage_binop op (go a) (go b)
    | Call (name, args) -> (
        let f = Library.resolve name in
        match List.map go args with
        | [ a ] -> fun s -> call f [ a s ]
        | [ a; b ] ->
            fun s ->
              let x = a s in
              let y = b s in
              call f [ x; y ]
        | args -> fun s -> call f (List.map (fun a -> a s) args))
    | MkTuple es -> (
        match List.map go es with
        | [ a; b ] ->
            fun s ->
              let x = a s in
              let y = b s in
              Tuple [ x; y ]
        | es -> fun s -> Tuple (List.map (fun a -> a s) es))
    | TupleGet (a, i) ->
        let a = go a in
        fun s -> tuple_get (a s) i
    | Field (a, f) ->
        let a = go a in
        fun s -> field (a s) f
    | If (c, t, e') ->
        let c = go c and t = go t and e' = go e' in
        fun s -> if Value.as_bool (c s) then t s else e' s
  in
  go e

let param_slots ?(lead = 0) (params : string list) : Value.t -> Value.t array
    =
  match params with
  | [ _ ] -> fun elt -> Array.make (lead + 1) elt
  | ps ->
      let n = List.length ps in
      fun elt ->
        match elt with
        | Value.Tuple xs when List.length xs = n ->
            if lead = 0 then Array.of_list xs
            else (
              let a = Array.make (lead + n) elt in
              List.iteri (fun i x -> a.(lead + i) <- x) xs;
              a)
        | _ -> arity_error ps elt

let mixed_emits () = err "λm mixes key-value and plain emits"

let apply_lam_m (env : env) (lm : lam_m) : Value.t -> emitted =
  let code = stage env lm.m_params and bind = param_slots lm.m_params in
  let staged =
    List.map
      (fun { guard; payload } ->
        ( Option.map code guard,
          match payload with
          | KV (k, x) ->
              let k = code k and x = code x in
              Either.Left
                (fun s ->
                  let y = x s in
                  (k s, y))
          | Val x -> Either.Right (code x) ))
      lm.emits
  in
  let rec run s kvs vs = function
    | [] -> (
        match (kvs, vs) with
        | _ :: _, _ :: _ -> mixed_emits ()
        | kvs, [] -> `KV (List.rev kvs)
        | [], vs -> `V (List.rev vs))
    | (guard, emit) :: rest -> (
        match guard with
        | Some g when not (Value.as_bool (g s)) -> run s kvs vs rest
        | _ -> (
            match emit with
            | Either.Left f -> run s (f s :: kvs) vs rest
            | Either.Right f -> run s kvs (f s :: vs) rest))
  in
  fun elt -> run (bind elt) [] [] staged

let push_lam_m (env : env) (lm : lam_m) :
    Value.t -> (Value.t -> unit) -> unit =
  let code = stage env lm.m_params and bind = param_slots lm.m_params in
  let is_kv { payload; _ } = match payload with KV _ -> true | Val _ -> false in
  let stage_emit ({ guard; payload } : emit) :
      Value.t array -> (Value.t -> unit) -> unit =
    let fire =
      match payload with
      | KV (k, x) ->
          let k = code k and x = code x in
          fun s sink ->
            let y = x s in
            sink (Value.Tuple [ k s; y ])
      | Val x ->
          let x = code x in
          fun s sink -> sink (x s)
    in
    match guard with
    | None -> fire
    | Some g ->
        let g = code g in
        fun s sink -> if Value.as_bool (g s) then fire s sink
  in
  let rec run s sink = function
    | [] -> ()
    | e :: rest ->
        e s sink;
        run s sink rest
  in
  let staged = List.map stage_emit lm.emits
  and kinds = List.map is_kv lm.emits in
  if List.mem true kinds && List.mem false kinds then fun elt sink ->
    let s = bind elt and kvs = ref [] and vs = ref [] in
    List.iter2
      (fun kv e ->
        e s (fun v -> if kv then kvs := v :: !kvs else vs := v :: !vs))
      kinds staged;
    match (!kvs, !vs) with
    | _ :: _, _ :: _ -> mixed_emits ()
    | l, [] | [], l -> List.iter sink (List.rev l)
  else
    match staged with
    | [ e ] -> fun elt sink -> e (bind elt) sink
    | staged -> fun elt sink -> run (bind elt) sink staged

let apply_lam_r (env : env) (lr : lam_r) : Value.t -> Value.t -> Value.t =
  let body = stage env [ lr.r_left; lr.r_right ] lr.r_body in
  fun a b -> body [| a; b |]

(** The elements a stage's output feeds to the next map: records and
    plain values as they are, pairs as [Tuple [k; v]]. *)
let elements = function
  | Records l | Vals l -> l
  | Pairs l -> List.map (fun (k, v) -> Value.Tuple [ k; v ]) l

(* ------------------------------------------------------------------ *)
(* Pipeline stages over bags, shared by [eval_node] and the incremental
   prefixes of {!Memo.stage_prefixes}. *)

let mixed_shapes () = err "map emits mixed shapes across records"

(** Union what [f elt] emits for every element [elt]. *)
let map_bag (f : Value.t -> emitted) (elts : Value.t list) : bag =
  let kvs = ref [] and vs = ref [] in
  List.iter
    (fun elt ->
      match f elt with
      | `KV l -> kvs := List.rev_append l !kvs
      | `V l -> vs := List.rev_append l !vs)
    elts;
  match (List.rev !kvs, List.rev !vs) with
  | [], [] -> Pairs []
  | kvs, [] -> Pairs kvs
  | [], vs -> Vals vs
  | _ -> mixed_shapes ()

let dataset (datasets : (string * Value.t list) list) (d : string) :
    Value.t list =
  match List.assoc_opt d datasets with
  | Some records -> records
  | None -> err "unknown dataset %s" d

type staged_node = (string * Value.t list) list -> bag

let map_node (src : staged_node) (f : Value.t -> emitted) : staged_node =
 fun datasets -> map_bag f (elements (src datasets))

(** Fold λr over each key's group of a bag of pairs, or over the whole
    bag otherwise. *)
let reduce_node (src : staged_node) (f : Value.t -> Value.t -> Value.t) :
    staged_node =
  let fold = function
    | [] -> assert false
    | v0 :: rest -> List.fold_left f v0 rest
  in
  fun datasets ->
    match src datasets with
    | Pairs kvs ->
        Pairs
          (List.map (fun (k, vs) -> (k, fold vs)) (Multiset.group_by_key kvs))
    | Records [] | Vals [] -> Vals []
    | Records l | Vals l -> Vals [ fold l ]

(** All pairs with matching keys: (k,v1) ⋈ (k,v2) → (k,(v1,v2)). The
    right input is evaluated before the left one. *)
let join_node (a : staged_node) (b : staged_node) : staged_node =
 fun datasets ->
  match
    let b = b datasets in
    (a datasets, b)
  with
  | Pairs l1, Pairs l2 ->
      Pairs
        (List.concat_map
           (fun (k1, v1) ->
             List.filter_map
               (fun (k2, v2) ->
                 if Value.equal k1 k2 then Some (k1, Value.Tuple [ v1; v2 ])
                 else None)
               l2)
           l1)
  | _ -> err "join expects key-value inputs on both sides"

let rec stage_node ?lr_ran (env : env) (n : node) : staged_node =
  match n with
  | Data d -> fun datasets -> Records (dataset datasets d)
  | Map (src, lm) ->
      map_node (stage_node ?lr_ran env src) (apply_lam_m env lm)
  | Reduce (src, lr) ->
      let f = apply_lam_r env lr in
      reduce_node (stage_node ?lr_ran env src)
        (match lr_ran with
        | None -> f
        | Some r ->
            fun a b ->
              r := true;
              f a b)
  | Join (a, b) ->
      join_node (stage_node ?lr_ran env a) (stage_node ?lr_ran env b)

let eval_node (env : env) (datasets : (string * Value.t list) list) (n : node)
    : bag =
  stage_node env n datasets

type out_shape =
  | Scalar
  | Arr  (** fixed-size array: rebuilt from the initial value by Int key *)
  | MapAssoc  (** Java Map: the result *is* the association *)

let init_value (init : env) (var : string) : Value.t =
  match List.assoc_opt var init with
  | Some x -> x
  | None -> err "no initial value for output %s" var

let shape_of (shapes : (string * out_shape) list) (var : string) : out_shape =
  match List.assoc_opt var shapes with Some s -> s | None -> Scalar

let array_pos (len : int) (k : Value.t) : int =
  match k with
  | Value.Int i when i >= 0 && i < len -> i
  | Value.Int i -> err "array key %d out of bounds" i
  | k -> err "non-integer array key %s" (Value.to_string k)

let extract_binding (result : bag) (init : env)
    (shapes : (string * out_shape) list) ((var, ex) : string * extract) :
    Value.t =
  let lookup_init v = init_value init v in
  match (ex, result, shape_of shapes var) with
  | AtKey k, Pairs kvs, Scalar -> (
      match List.filter (fun (k', _) -> Value.equal k k') kvs with
      | [] -> lookup_init var
      | [ (_, v) ] -> v
      | _ -> err "key %s not reduced to a single value" (Value.to_string k))
  | AtKey _, Vals [], Scalar -> lookup_init var
  (* a map whose guarded emits never fired yields an empty bag of
     ambiguous shape: every extraction falls back to the entry value
     (the initiation case) *)
  | Proj _, Pairs [], _ -> lookup_init var
  | Whole, Pairs kvs, Arr ->
      let arr = Array.of_list (Value.as_list (lookup_init var)) in
      List.iter (fun (k, v) -> arr.(array_pos (Array.length arr) k) <- v) kvs;
      Value.List (Array.to_list arr)
  | Whole, Pairs kvs, MapAssoc ->
      Value.List
        (List.sort Value.compare
           (List.map (fun (k, v) -> Value.Tuple [ k; v ]) kvs))
  | Whole, Vals [], Arr -> lookup_init var
  | Whole, Vals [], MapAssoc -> Value.List []
  | Proj _, Vals [], _ -> lookup_init var
  | Proj None, Vals [ v ], _ -> v
  | Proj (Some i), Vals [ v ], _ -> (
      match v with
      | Value.Tuple xs when i < List.length xs -> List.nth xs i
      | _ -> err "projection %d of non-tuple result" i)
  | Proj _, Vals _, _ -> err "global reduction yielded multiple values"
  | _ -> err "extraction/result shape mismatch for %s" var

let extract_outputs (result : bag) (init : env)
    (shapes : (string * out_shape) list) (s : summary) : env =
  List.map (fun ((var, _) as b) -> (var, extract_binding result init shapes b))
    s.bindings

let stage_summary ?lr_ran (env : env) (shapes : (string * out_shape) list)
    (s : summary) : (string * Value.t list) list -> env -> env =
  let run = stage_node ?lr_ran env s.pipeline in
  fun datasets init -> extract_outputs (run datasets) init shapes s

let apply_summary (env : env) (datasets : (string * Value.t list) list)
    (init : env) (shapes : (string * out_shape) list) (s : summary) : env =
  stage_summary env shapes s datasets init
