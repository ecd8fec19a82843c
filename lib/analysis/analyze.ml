open Minijava.Ast
module F = Fragment
module Value = Casper_common.Value
module Library = Casper_common.Library
module Ir = Casper_ir.Lang

(* ------------------------------------------------------------------ *)
(* Type mapping MiniJava → IR                                          *)

let rec ir_ty : ty -> Ir.ty = function
  | TInt | TLong -> Ir.TInt
  | TFloat -> Ir.TFloat
  | TBool -> Ir.TBool
  | TString -> Ir.TString
  | TDate -> Ir.TDate
  | TClass c -> Ir.TRecord c
  | TArray t | TList t -> Ir.TBag (ir_ty t)
  | TMap (k, v) -> Ir.TBag (Ir.TPair (ir_ty k, ir_ty v))
  | TVoid -> Ir.TTuple []

let struct_table (prog : program) : (string * (string * Ir.ty) list) list =
  List.map
    (fun c -> (c.cname, List.map (fun (t, f) -> (f, ir_ty t)) c.cfields))
    prog.classes

(* ------------------------------------------------------------------ *)
(* Fact extraction                                                     *)

let ir_binop : binop -> Ir.binop option = function
  | Add -> Some Ir.Add
  | Sub -> Some Ir.Sub
  | Mul -> Some Ir.Mul
  | Div -> Some Ir.Div
  | Mod -> Some Ir.Mod
  | Lt -> Some Ir.Lt
  | Le -> Some Ir.Le
  | Gt -> Some Ir.Gt
  | Ge -> Some Ir.Ge
  | Eq -> Some Ir.Eq
  | Ne -> Some Ir.Ne
  | And -> Some Ir.And
  | Or -> Some Ir.Or
  | BitAnd | BitOr | BitXor | Shl | Shr -> None

let constants_of (body : stmt list) : Value.t list =
  let of_expr acc = function
    | IntLit n -> Value.Int n :: acc
    | FloatLit f -> Value.Float f :: acc
    | StrLit s -> Value.Str s :: acc
    | _ -> acc
  in
  fold_stmts ~expr:of_expr ~stmt:(fun acc _ -> acc) [] body
  |> List.sort_uniq Value.compare

let operators_of (body : stmt list) : Ir.binop list =
  let of_expr acc = function
    | Binop (op, _, _) -> (
        match ir_binop op with Some o -> o :: acc | None -> acc)
    | Call ("Math.min", _) -> Ir.Min :: acc
    | Call ("Math.max", _) -> Ir.Max :: acc
    | Ternary _ -> acc
    | _ -> acc
  in
  fold_stmts ~expr:of_expr ~stmt:(fun acc _ -> acc) [] body
  |> List.sort_uniq Stdlib.compare

(** Library methods invoked in the body: static calls plus method calls
    whose receiver type resolves them ([s.equals] → [String.equals]). *)
let methods_of prog env (body : stmt list) :
    string list * string list (* known, unknown *) =
  let known = ref [] and unknown = ref [] in
  let record name =
    if Library.is_known name then known := name :: !known
    else unknown := name :: !unknown
  in
  let of_expr () = function
    | Call (name, _) ->
        if find_method prog name <> None then () else record name
    | MethodCall (recv, name, args) -> (
        let recv_ty =
          try Some (Minijava.Typecheck.infer prog env recv)
          with Minijava.Typecheck.Type_error _ -> None
        in
        match (recv_ty, name) with
        | Some TString, _ -> record ("String." ^ name)
        | Some TDate, ("before" | "after") -> record ("Date." ^ name)
        | Some (TList _), ("get" | "size" | "add" | "contains" | "isEmpty"
                          | "set" | "indexOf") ->
            () (* collection primitives are modeled structurally *)
        | Some (TMap _), ("get" | "put" | "containsKey" | "getOrDefault"
                         | "size") ->
            ()
        | Some (TClass _), _ when List.is_empty args -> () (* field getter *)
        | _ -> record name)
    | _ -> ()
  in
  fold_stmts ~expr:(fun () e -> of_expr () e) ~stmt:(fun () _ -> ()) () body;
  (List.sort_uniq String.compare !known, List.sort_uniq String.compare !unknown)

(* counted-loop pattern: for (int i = 0; i < bound; i++) *)
let counted_loop = function
  | For (init, Some (Binop (Lt, Var i, bound)), upd, body) -> (
      let init_ok =
        match init with
        | [ Decl (TInt, v, Some (IntLit 0)) ] -> String.equal v i
        | [ Assign (LVar v, IntLit 0) ] -> String.equal v i
        | _ -> false
      in
      let upd_ok =
        match upd with
        | [ Assign (LVar v, Binop (Add, Var v', IntLit 1)) ] ->
            String.equal v i && String.equal v' i
        | _ -> false
      in
      match (init_ok && upd_ok, bound) with
      | true, _ -> Some (i, bound, body)
      | _ -> None)
  | _ -> None

(** All [a\[index\]] accesses in a statement list: (array root, index). *)
let array_accesses (body : stmt list) : (string * expr) list =
  let of_expr acc = function
    | Index (Var a, i) -> (a, i) :: acc
    | Index (Index (Var a, i), j) -> (a ^ "[][]", i) :: (a ^ "[][]", j) :: acc
    | _ -> acc
  in
  fold_stmts ~expr:of_expr ~stmt:(fun acc _ -> acc) [] body

let matrix_accesses (body : stmt list) : (string * expr * expr) list =
  let of_expr acc = function
    | Index (Index (Var a, i), j) -> (a, i, j) :: acc
    | _ -> acc
  in
  fold_stmts ~expr:of_expr ~stmt:(fun acc _ -> acc) [] body

(* statement-count proxy for fragment LOC (Table 2) *)
let rec stmt_lines = function
  | If (_, a, b) ->
      1 + List.fold_left (fun n s -> n + stmt_lines s) 0 (a @ b)
      + if List.is_empty b then 0 else 1
  | While (_, b) | DoWhile (b, _) | ForEach (_, _, _, b) ->
      1 + List.fold_left (fun n s -> n + stmt_lines s) 0 b
  | For (_, _, _, b) ->
      1 + List.fold_left (fun n s -> n + stmt_lines s) 0 b
  | Block b -> List.fold_left (fun n s -> n + stmt_lines s) 0 b
  | _ -> 1

(* ------------------------------------------------------------------ *)
(* Schema detection                                                    *)

let rec first_inner_loop = function
  | [] -> None
  | (For _ as l) :: _ | (ForEach _ as l) :: _ | (While _ as l) :: _ -> Some l
  | If (_, a, b) :: rest -> (
      match first_inner_loop a with
      | Some l -> Some l
      | None -> (
          match first_inner_loop b with
          | Some l -> Some l
          | None -> first_inner_loop rest))
  | Block b :: rest -> (
      match first_inner_loop b with
      | Some l -> Some l
      | None -> first_inner_loop rest)
  | _ :: rest -> first_inner_loop rest

type detected =
  | Schema of F.schema
  | Not_supported of F.unsupported

let elem_ty_of env d =
  match List.assoc_opt d env with
  | Some (TList t) | Some (TArray t) -> Some t
  | _ -> None

(** Does [e] mention variable [v]? *)
let mentions v e = List.mem v (vars_of_expr e)

let detect_schema (env : Minijava.Typecheck.env)
    (outer_outputs : string list) (loop : stmt) : detected =
  match loop with
  | ForEach (t, x, Var d, body) -> (
      (* nested iteration over a second dataset inside? *)
      match first_inner_loop body with
      | Some (ForEach (t2, x2, Var d2, _)) when not (String.equal d d2) ->
          Schema
            (F.SJoin { d1 = d; x1 = x; ty1 = t; d2; x2; ty2 = t2 })
      | Some _ -> Not_supported F.Transformer_needs_loop
      | None -> Schema (F.SList { data = d; elem = x; elem_ty = t }))
  | For _ -> (
      match counted_loop loop with
      | None -> Not_supported F.No_iteration_space
      | Some (i, bound, body) -> (
          (* Matrix pattern: an inner counted loop whose index j pairs with
             i on a 2-D access m[i][j]. *)
          let inner = first_inner_loop body in
          match inner with
          | Some (For _ as il) -> (
              match counted_loop il with
              | Some (j, cols, ibody) -> (
                  let mats = matrix_accesses ibody in
                  let data_mat =
                    List.find_opt
                      (fun (_, ei, ej) ->
                        (match ei with Var v -> String.equal v i | _ -> false)
                        && match ej with
                           | Var v -> String.equal v j
                           | _ -> false)
                      mats
                  in
                  match data_mat with
                  | Some (m, _, _) -> (
                      (* any other 2-D access with shifted indices means a
                         stencil/convolution: transformer would need loops *)
                      let shifted =
                        List.exists
                          (fun (_, ei, ej) ->
                            (match ei with
                            | Var v -> not (String.equal v i)
                            | _ -> true)
                            || match ej with
                               | Var v -> not (String.equal v j)
                               | _ -> true)
                          mats
                      in
                      if shifted then
                        Not_supported F.Transformer_needs_loop
                      else
                        match elem_ty_of env m with
                        | Some (TArray et) | Some (TList et) ->
                            Schema
                              (F.SMatrix
                                 {
                                   data = m;
                                   i;
                                   j;
                                   rows = bound;
                                   cols;
                                   elem_ty = et;
                                 })
                        | _ -> Not_supported F.No_iteration_space)
                  | None ->
                      (* inner counted loop that does not walk the input
                         data: it fans one record out to many output keys *)
                      let touches_output =
                        List.exists
                          (fun (a, _) -> List.mem a outer_outputs)
                          (array_accesses ibody)
                      in
                      if touches_output then Not_supported F.Broadcast_mapper
                      else Not_supported F.Transformer_needs_loop)
              | None -> Not_supported F.Transformer_needs_loop)
          | Some (ForEach (t2, x2, Var d2, _)) ->
              (* counted outer loop + foreach over another dataset *)
              ignore (t2, x2, d2);
              Not_supported F.Transformer_needs_loop
          | Some _ -> Not_supported F.Transformer_needs_loop
          | None -> (
              (* Parallel-array pattern: arrays indexed by i. *)
              let accesses = array_accesses body in
              let arrays_i, arrays_other =
                List.partition
                  (fun (_, idx) ->
                    match idx with Var v -> String.equal v i | _ -> false)
                  accesses
              in
              (* cross-record access (a[i+1], a[j]) over an *input* array
                 means λm cannot express it *)
              let bad_other =
                List.exists
                  (fun (a, idx) ->
                    (not (List.mem a outer_outputs)) && mentions i idx)
                  arrays_other
              in
              if bad_other then Not_supported F.Transformer_needs_loop
              else
                let input_arrays =
                  arrays_i
                  |> List.map fst
                  |> List.sort_uniq String.compare
                  |> List.filter (fun a -> not (List.mem a outer_outputs))
                  |> List.filter_map (fun a ->
                         match elem_ty_of env a with
                         | Some t -> Some (a, t)
                         | None -> None)
                in
                if List.is_empty input_arrays then
                  (* counted loop writing outputs only (e.g. initialization
                     loops): there is data to iterate only if an input
                     array exists *)
                  Not_supported F.No_iteration_space
                else
                  Schema (F.SArrays { idx = i; bound; arrays = input_arrays })
              )))
  | While (Binop (Lt, Var i, bound), body) ->
      (* counted while-loop over arrays: the §6.1 "while" form —
         int i = 0; while (i < n) { ...; i++; } *)
      let increments =
        fold_stmts
          ~expr:(fun acc _ -> acc)
          ~stmt:(fun acc s ->
            match s with
            | Assign (LVar v, Binop (Add, Var v', IntLit 1))
              when String.equal v i && String.equal v' i ->
                true
            | _ -> acc)
          false body
      in
      if not increments then Not_supported F.No_iteration_space
      else if first_inner_loop body <> None then
        Not_supported F.Transformer_needs_loop
      else
        let accesses = array_accesses body in
        let arrays_i, arrays_other =
          List.partition
            (fun (_, idx) ->
              match idx with Var v -> String.equal v i | _ -> false)
            accesses
        in
        let bad_other =
          List.exists
            (fun (a, idx) ->
              (not (List.mem a outer_outputs)) && mentions i idx)
            arrays_other
        in
        if bad_other then Not_supported F.Transformer_needs_loop
        else
          let input_arrays =
            arrays_i |> List.map fst
            |> List.sort_uniq String.compare
            |> List.filter (fun a -> not (List.mem a outer_outputs))
            |> List.filter_map (fun a ->
                   match elem_ty_of env a with
                   | Some t -> Some (a, t)
                   | None -> None)
          in
          if List.is_empty input_arrays then
            Not_supported F.No_iteration_space
          else Schema (F.SArrays { idx = i; bound; arrays = input_arrays })
  | While _ | DoWhile _ -> Not_supported F.No_iteration_space
  | _ -> Not_supported F.No_iteration_space

(* ------------------------------------------------------------------ *)
(* Fragment construction                                               *)

let has_break_or_continue body =
  (* a break/continue belonging to the fragment's own loop nest is an
     early exit; we look for any, which is conservative but matches the
     benchmarks *)
  fold_stmts
    ~expr:(fun acc _ -> acc)
    ~stmt:(fun acc s ->
      match s with Break | Continue -> true | _ -> acc)
    false body

let features_of prog env schema body : F.feature list =
  let has_cond =
    fold_stmts
      ~expr:(fun acc e -> (match e with Ternary _ -> true | _ -> acc))
      ~stmt:(fun acc s -> match s with If _ -> true | _ -> acc)
      false body
  in
  let has_nested =
    match first_inner_loop body with Some _ -> true | None -> false
  in
  let udt =
    match schema with
    | F.SList { elem_ty = TClass _; _ } -> true
    | F.SJoin { ty1 = TClass _; _ } | F.SJoin { ty2 = TClass _; _ } -> true
    | _ ->
        fold_stmts
          ~expr:(fun acc e ->
            match e with
            | Field (r, _) -> (
                (try
                   match Minijava.Typecheck.infer prog env r with
                   | TClass _ -> true
                   | _ -> acc
                 with Minijava.Typecheck.Type_error _ -> acc))
            | _ -> acc)
          ~stmt:(fun acc _ -> acc)
          false body
  in
  let multi =
    match schema with
    | F.SJoin _ -> true
    | F.SArrays { arrays; _ } -> List.length arrays > 1
    | _ -> false
  in
  let multidim = match schema with F.SMatrix _ -> true | _ -> false in
  List.filter_map
    (fun (c, f) -> if c then Some f else None)
    [
      (has_cond, F.FConditionals);
      (udt, F.FUserDefinedTypes);
      (has_nested, F.FNestedLoops);
      (multi, F.FMultipleDatasets);
      (multidim, F.FMultidimDataset);
    ]

let is_scalar_ty = function
  | TInt | TLong | TFloat | TBool | TString | TDate -> true
  | _ -> false

let fragment_of_loop prog ~suite ~benchmark (m : meth) ~(pre : stmt list)
    ~(index : int) (loop : stmt) : F.t =
  let env = Minijava.Typecheck.method_env m in
  let body =
    match loop with
    | ForEach (_, _, _, b) | For (_, _, _, b) | While (_, b) | DoWhile (b, _)
      ->
        b
    | _ -> []
  in
  (* variables declared before the loop (or parameters) *)
  let outer_vars =
    List.map snd (List.map (fun (t, v) -> (t, v)) m.params)
    @ List.filter_map
        (function Decl (_, v, _) -> Some v | _ -> None)
        pre
  in
  let assigned = assigned_vars body in
  let loop_locals =
    (* declared inside the loop body or bound by the loop itself *)
    let bound =
      match loop with
      | ForEach (_, v, _, _) -> [ v ]
      | For (init, _, _, _) ->
          List.filter_map
            (function Decl (_, v, _) -> Some v | _ -> None)
            init
      | _ -> []
    in
    bound
    @ fold_stmts
        ~expr:(fun acc _ -> acc)
        ~stmt:(fun acc s ->
          match s with Decl (_, v, _) -> v :: acc | _ -> acc)
        [] body
  in
  let outputs =
    assigned
    |> List.filter (fun v ->
           List.mem v outer_vars && not (List.mem v loop_locals))
    |> List.filter_map (fun v ->
           match List.assoc_opt v env with
           | Some t -> Some (v, t, F.out_kind_of_ty t)
           | None -> None)
  in
  let output_names = List.map (fun (v, _, _) -> v) outputs in
  let detected = detect_schema env output_names loop in
  let schema, unsupported =
    match detected with
    | Schema s -> (s, None)
    | Not_supported r ->
        (* keep a placeholder schema so the fragment can still be listed *)
        ( F.SList { data = "?"; elem = "?"; elem_ty = TInt },
          Some r )
  in
  (* a while-loop's counter is assigned in the body but is the iteration
     index, not a computed output *)
  let outputs =
    match schema with
    | F.SArrays { idx; _ } ->
        List.filter (fun (v, _, _) -> not (String.equal v idx)) outputs
    | _ -> outputs
  in
  let output_names = List.map (fun (v, _, _) -> v) outputs in
  let index_vars =
    match schema with
    | F.SArrays { idx; _ } -> [ idx ]
    | F.SMatrix { i; j; _ } -> [ i; j ]
    | _ -> []
  in
  let known_methods, unknown_methods = methods_of prog env body in
  let unsupported =
    match (unsupported, unknown_methods) with
    | None, m :: _ -> Some (F.Unmodeled_method m)
    | u, _ -> u
  in
  let unsupported =
    match unsupported with
    | None when has_break_or_continue body -> Some F.Early_exit
    | u -> u
  in
  let datasets = F.datasets_of_schema schema in
  let input_scalars =
    read_vars (body @ [ loop ])
    |> List.filter (fun v ->
           (not (List.mem v loop_locals))
           && (not (List.mem v output_names))
           && (not (List.mem v index_vars))
           && not (List.mem v datasets))
    |> List.filter_map (fun v ->
           match List.assoc_opt v env with
           | Some t when is_scalar_ty t -> Some (v, t)
           | _ -> None)
  in
  {
    F.frag_id = Fmt.str "%s#%d" m.mname index;
    suite;
    benchmark;
    meth = m;
    pre;
    loop;
    body;
    schema;
    input_scalars;
    outputs;
    constants = constants_of body;
    operators = operators_of body;
    methods = known_methods;
    features = features_of prog env schema body;
    unsupported;
    loc = stmt_lines loop;
  }

(** Identify candidate fragments in a method: every top-level loop
    statement (§6.2: "lenient to avoid false negatives"). *)
let fragments_of_method prog ~suite ~benchmark (m : meth) : F.t list =
  let rec go idx pre acc = function
    | [] -> List.rev acc
    | ((For _ | ForEach _ | While _ | DoWhile _) as loop) :: rest ->
        let f =
          fragment_of_loop prog ~suite ~benchmark m ~pre:(List.rev pre)
            ~index:idx loop
        in
        go (idx + 1) (loop :: pre) (f :: acc) rest
    | s :: rest -> go idx (s :: pre) acc rest
  in
  go 0 [] [] m.body

let fragments_of_program ?(obs = Casper_obs.Obs.null) prog ~suite ~benchmark
    : F.t list =
  Casper_obs.Obs.span obs "analysis" @@ fun () ->
  let frags =
    List.concat_map (fragments_of_method prog ~suite ~benchmark) prog.methods
  in
  Casper_obs.Obs.add obs "fragments" (List.length frags);
  Casper_obs.Obs.add obs "unsupported_fragments"
    (List.length (List.filter (fun f -> f.F.unsupported <> None) frags));
  frags
