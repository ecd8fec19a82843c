module F = Casper_analysis.Fragment
module Ir = Casper_ir.Lang

let jop : Ir.binop -> string = function
  | Ir.Add -> "+"
  | Ir.Sub -> "-"
  | Ir.Mul -> "*"
  | Ir.Div -> "/"
  | Ir.Mod -> "%"
  | Ir.Lt -> "<"
  | Ir.Le -> "<="
  | Ir.Gt -> ">"
  | Ir.Ge -> ">="
  | Ir.Eq -> "=="
  | Ir.Ne -> "!="
  | Ir.And -> "&&"
  | Ir.Or -> "||"
  | Ir.Min -> "Math.min"
  | Ir.Max -> "Math.max"

let rec jexpr : Ir.expr -> string = function
  | Ir.CInt n -> string_of_int n
  | Ir.CFloat f -> Fmt.str "%g" f
  | Ir.CBool b -> string_of_bool b
  | Ir.CStr s -> Fmt.str "%S" s
  | Ir.Var v -> v
  | Ir.Unop (Ir.Neg, a) -> "-" ^ jatom a
  | Ir.Unop (Ir.Not, a) -> "!" ^ jatom a
  | Ir.Binop ((Ir.Min | Ir.Max) as op, a, b) ->
      Fmt.str "%s(%s, %s)" (jop op) (jexpr a) (jexpr b)
  | Ir.Binop (op, a, b) -> Fmt.str "%s %s %s" (jatom a) (jop op) (jatom b)
  | Ir.Call (f, args) -> (
      (* method models print back as Java method calls *)
      match (f, args) with
      | "String.equals", [ r; x ] -> Fmt.str "%s.equals(%s)" (jatom r) (jexpr x)
      | "Date.before", [ r; x ] -> Fmt.str "%s.before(%s)" (jatom r) (jexpr x)
      | "Date.after", [ r; x ] -> Fmt.str "%s.after(%s)" (jatom r) (jexpr x)
      | _ -> Fmt.str "%s(%s)" f (String.concat ", " (List.map jexpr args)))
  | Ir.MkTuple es ->
      Fmt.str "new Tuple%d<>(%s)" (List.length es)
        (String.concat ", " (List.map jexpr es))
  | Ir.TupleGet (a, i) -> Fmt.str "%s._%d()" (jatom a) (i + 1)
  | Ir.Field (a, f) -> Fmt.str "%s.%s" (jatom a) f
  | Ir.If (c, t, e) -> Fmt.str "(%s ? %s : %s)" (jexpr c) (jexpr t) (jexpr e)

and jatom e =
  match e with
  | Ir.Binop _ | Ir.If _ -> "(" ^ jexpr e ^ ")"
  | _ -> jexpr e

let lambda_params (lm : Ir.lam_m) =
  match lm.Ir.m_params with
  | [ p ] -> p
  | ps -> "(" ^ String.concat ", " ps ^ ")"

let emit_stmt ({ Ir.guard; payload } : Ir.emit) : string =
  let body =
    match payload with
    | Ir.KV (k, v) ->
        Fmt.str "out.add(new Tuple2<>(%s, %s));" (jexpr k) (jexpr v)
    | Ir.Val v -> Fmt.str "out.add(%s);" (jexpr v)
  in
  match guard with
  | None -> body
  | Some g -> Fmt.str "if (%s) %s" (jexpr g) body

let lam_m_src (lm : Ir.lam_m) : string =
  match lm.Ir.emits with
  | [ { Ir.guard = None; payload = Ir.KV (k, v) } ] ->
      Fmt.str "%s -> new Tuple2<>(%s, %s)" (lambda_params lm) (jexpr k)
        (jexpr v)
  | emits ->
      Fmt.str "%s -> { List out = new ArrayList<>(); %s return out.iterator(); }"
        (lambda_params lm)
        (String.concat " " (List.map emit_stmt emits))

let lam_r_src (lr : Ir.lam_r) : string =
  Fmt.str "(%s, %s) -> (%s)" lr.Ir.r_left lr.Ir.r_right (jexpr lr.Ir.r_body)

(* single-emit unguarded KV maps compile to mapToPair; everything else to
   flatMapToPair (Appendix C) *)
let map_variant (lm : Ir.lam_m) =
  match lm.Ir.emits with
  | [ { Ir.guard = None; payload = Ir.KV _ } ] -> `MapToPair
  | [ { Ir.guard = None; payload = Ir.Val _ } ] -> `Map
  | _ -> (
      match lm.Ir.emits with
      | { Ir.payload = Ir.KV _; _ } :: _ -> `FlatMapToPair
      | _ -> `FlatMap)

type ctx = { mutable n : int; buf : Buffer.t }

let line ctx fmt = Fmt.kstr (fun s -> Buffer.add_string ctx.buf (s ^ "\n")) fmt

let fresh ctx prefix =
  ctx.n <- ctx.n + 1;
  Fmt.str "%s%d" prefix ctx.n

(* ------------------------------------------------------------------ *)
(* Spark                                                               *)

let rec spark_node ctx ~ca (n : Ir.node) : string =
  match n with
  | Ir.Data d ->
      let v = fresh ctx "rdd" in
      line ctx "JavaRDD %s = sc.parallelize(%s);" v d;
      v
  | Ir.Map (src, lm) ->
      let s = spark_node ctx ~ca src in
      let v = fresh ctx "rdd" in
      let call =
        match map_variant lm with
        | `MapToPair -> "mapToPair"
        | `Map -> "map"
        | `FlatMapToPair -> "flatMapToPair"
        | `FlatMap -> "flatMap"
      in
      line ctx "JavaRDD %s = %s.%s(%s);" v s call (lam_m_src lm);
      v
  | Ir.Reduce (src, lr) ->
      let s = spark_node ctx ~ca src in
      let v = fresh ctx "rdd" in
      let keyed =
        match src with
        | Ir.Map (_, lm) -> (
            match map_variant lm with
            | `MapToPair | `FlatMapToPair -> true
            | _ -> false)
        | Ir.Join _ -> true
        | _ -> false
      in
      (if keyed then
         if ca then
           line ctx "JavaPairRDD %s = %s.reduceByKey(%s);" v s (lam_r_src lr)
         else (
           line ctx "JavaPairRDD %s_g = %s.groupByKey();" v s;
           line ctx
             "JavaPairRDD %s = %s_g.mapValues(vs -> fold(vs, %s));" v v
             (lam_r_src lr))
       else line ctx "Object %s = %s.reduce(%s);" v s (lam_r_src lr));
      v
  | Ir.Join (a, b) ->
      let l = spark_node ctx ~ca a in
      let r = spark_node ctx ~ca b in
      let v = fresh ctx "rdd" in
      line ctx "JavaPairRDD %s = %s.join(%s);" v l r;
      v

let alias_guard (frag : F.t) body =
  match F.datasets_of_schema frag.F.schema with
  | [ d1; d2 ] when not (String.equal d1 d2) ->
      Fmt.str "if (%s != %s) {\n%s} else {\n  /* original code */\n}" d1 d2
        body
  | _ -> body

let spark ?(ca = true) (frag : F.t) (s : Ir.summary) : string =
  let ctx = { n = 0; buf = Buffer.create 256 } in
  line ctx "// Casper translation of %s (Spark)" frag.F.frag_id;
  line ctx "JavaSparkContext sc = new JavaSparkContext(conf);";
  List.iter
    (fun (v, _) -> line ctx "Broadcast bc_%s = sc.broadcast(%s);" v v)
    frag.F.input_scalars;
  let final = spark_node ctx ~ca s.Ir.pipeline in
  List.iter
    (fun (var, ex) ->
      match ex with
      | Ir.AtKey k ->
          line ctx "%s = %s.lookup(%s).get(0);" var final
            (Casper_common.Value.to_string k)
      | Ir.Whole -> line ctx "%s = rebuild(%s.collectAsMap());" var final
      | Ir.Proj None -> line ctx "%s = %s;" var final
      | Ir.Proj (Some i) -> line ctx "%s = %s._%d();" var final (i + 1))
    s.Ir.bindings;
  alias_guard frag (Buffer.contents ctx.buf)

(* ------------------------------------------------------------------ *)
(* Flink                                                               *)

let rec flink_node ctx ~ca (n : Ir.node) : string =
  match n with
  | Ir.Data d ->
      let v = fresh ctx "ds" in
      line ctx "DataSet %s = env.fromCollection(%s);" v d;
      v
  | Ir.Map (src, lm) ->
      let s = flink_node ctx ~ca src in
      let v = fresh ctx "ds" in
      line ctx "DataSet %s = %s.flatMap(%s);" v s (lam_m_src lm);
      v
  | Ir.Reduce (src, lr) ->
      let s = flink_node ctx ~ca src in
      let v = fresh ctx "ds" in
      let keyed =
        match src with
        | Ir.Map (_, lm) -> (
            match map_variant lm with
            | `MapToPair | `FlatMapToPair -> true
            | _ -> false)
        | Ir.Join _ -> true
        | _ -> false
      in
      if keyed then
        line ctx "DataSet %s = %s.groupBy(0).reduce(%s);" v s (lam_r_src lr)
      else line ctx "DataSet %s = %s.reduce(%s);" v s (lam_r_src lr);
      v
  | Ir.Join (a, b) ->
      let l = flink_node ctx ~ca a in
      let r = flink_node ctx ~ca b in
      let v = fresh ctx "ds" in
      line ctx "DataSet %s = %s.join(%s).where(0).equalTo(0);" v l r;
      v

let flink ?(ca = true) (frag : F.t) (s : Ir.summary) : string =
  let ctx = { n = 0; buf = Buffer.create 256 } in
  line ctx "// Casper translation of %s (Flink)" frag.F.frag_id;
  line ctx
    "ExecutionEnvironment env = ExecutionEnvironment.getExecutionEnvironment();";
  let final = flink_node ctx ~ca s.Ir.pipeline in
  List.iter
    (fun (var, _) -> line ctx "%s = materialize(%s.collect());" var final)
    s.Ir.bindings;
  alias_guard frag (Buffer.contents ctx.buf)

(* ------------------------------------------------------------------ *)
(* Hadoop: mapper/reducer classes per shuffle stage                     *)

let hadoop ?(ca = true) (frag : F.t) (s : Ir.summary) : string =
  ignore ca;
  let ctx = { n = 0; buf = Buffer.create 256 } in
  line ctx "// Casper translation of %s (Hadoop)" frag.F.frag_id;
  let rec walk (n : Ir.node) : unit =
    match n with
    | Ir.Data d -> line ctx "// input: %s (from HDFS)" d
    | Ir.Map (src, lm) ->
        walk src;
        let cls = fresh ctx "CasperMapper" in
        line ctx "static class %s extends Mapper<Object, Object, Object, Object> {" cls;
        line ctx "  protected void map(Object key, Object rec, Context c) {";
        List.iter
          (fun ({ Ir.guard; payload } : Ir.emit) ->
            let body =
              match payload with
              | Ir.KV (k, v) ->
                  Fmt.str "c.write(%s, %s);" (jexpr k) (jexpr v)
              | Ir.Val v -> Fmt.str "c.write(NullWritable.get(), %s);" (jexpr v)
            in
            match guard with
            | None -> line ctx "    %s" body
            | Some g -> line ctx "    if (%s) %s" (jexpr g) body)
          lm.Ir.emits;
        line ctx "  }";
        line ctx "}"
    | Ir.Reduce (src, lr) ->
        walk src;
        let cls = fresh ctx "CasperReducer" in
        line ctx
          "static class %s extends Reducer<Object, Object, Object, Object> {"
          cls;
        line ctx "  protected void reduce(Object key, Iterable vals, Context c) {";
        line ctx "    Object acc = null;";
        line ctx "    for (Object %s : vals) acc = acc == null ? %s : apply(acc, %s);"
          lr.Ir.r_right lr.Ir.r_right lr.Ir.r_right;
        line ctx "    // apply(%s, %s) = %s" lr.Ir.r_left lr.Ir.r_right
          (jexpr lr.Ir.r_body);
        line ctx "    c.write(key, acc);";
        line ctx "  }";
        line ctx "}"
    | Ir.Join (a, b) ->
        walk a;
        walk b;
        line ctx "// reduce-side join of the two tagged inputs"
  in
  walk s.Ir.pipeline;
  line ctx "Job job = Job.getInstance(conf, %S);" frag.F.frag_id;
  line ctx "job.waitForCompletion(true);";
  Buffer.contents ctx.buf

let loc_of (src : string) : int =
  List.length
    (List.filter
       (fun l -> String.trim l <> "")
       (String.split_on_char '\n' src))
