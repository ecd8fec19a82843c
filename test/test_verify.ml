(** Tests for VC checking and the two-phase verifier: valid summaries
    pass, subtly-wrong summaries are caught (bounded-domain artifacts by
    the full phase), and reducer property analysis is sound. *)

module An = Casper_analysis.Analyze
module F = Casper_analysis.Fragment
module Vc = Casper_vcgen.Vc
module V = Casper_verify.Verifier
module Ir = Casper_ir.Lang
module Value = Casper_common.Value
open Minijava

let check = Alcotest.(check bool)

let fragment src =
  let prog = Parser.parse_program src in
  ( prog,
    List.hd (An.fragments_of_program prog ~suite:"t" ~benchmark:"t") )

let sum_src =
  "int sum(int[] data, int n) { int s = 0; for (int i = 0; i < n; i++) s += data[i]; return s; }"

let add_r =
  { Ir.r_left = "v1"; r_right = "v2"; r_body = Ir.Binop (Ir.Add, Ir.Var "v1", Ir.Var "v2") }

let sum_summary value_expr =
  {
    Ir.pipeline =
      Ir.Reduce
        ( Ir.Map
            ( Ir.Data "data",
              {
                Ir.m_params = [ "i"; "data" ];
                emits = [ { Ir.guard = None; payload = Ir.KV (Ir.CStr "s", value_expr) } ];
              } ),
          add_r );
    bindings = [ ("s", Ir.AtKey (Value.Str "s")) ];
  }

(* phase 1 and phase 2 decide on the search's own states *)
let phases prog frag summary =
  let on phase = V.check_batch prog frag summary (V.states phase prog frag) in
  (on V.Bounded, on V.Full)

let test_valid_summary_accepted () =
  let prog, frag = fragment sum_src in
  match phases prog frag (sum_summary (Ir.Var "data")) with
  | V.Valid, V.Valid -> ()
  | _ -> Alcotest.fail "both phases should accept"

let test_wrong_summary_rejected () =
  let prog, frag = fragment sum_src in
  (* sums data[i] * 2 — wrong *)
  let wrong = sum_summary (Ir.Binop (Ir.Mul, Ir.Var "data", Ir.CInt 2)) in
  match phases prog frag wrong with
  | V.Counterexample _, V.Counterexample _ -> ()
  | _ -> Alcotest.fail "both phases should reject"

let test_two_phase_catches_bounded_artifact () =
  (* the §4.1 example: min(4, v) ≡ v in a domain bounded by 4.
     Construct a summary that sums min(4, data[i]); it agrees with the
     true sum whenever all values are ≤ 4, which holds on every bounded
     state but not in the full domain. *)
  let prog, frag = fragment sum_src in
  let tricky =
    sum_summary (Ir.Binop (Ir.Min, Ir.CInt 4, Ir.Var "data"))
  in
  (* the bounded phase passes it; the full phase must reject it — its
     wide value pool contains values above 4 *)
  match phases prog frag tricky with
  | V.Valid, V.Counterexample _ -> ()
  | V.Valid, V.Valid -> Alcotest.fail "full verifier missed the artifact"
  | _, V.Invalid_summary m -> Alcotest.failf "unexpected invalid: %s" m
  | _ -> Alcotest.fail "bounded phase should accept the artifact"

let test_check_state_reports_prefix () =
  let prog, frag = fragment sum_src in
  let wrong = sum_summary (Ir.Binop (Ir.Add, Ir.Var "data", Ir.CInt 1)) in
  let entry =
    Vc.entry_of_params prog frag
      [ ("data", Value.List [ Value.Int 3; Value.Int 4 ]); ("n", Value.Int 2) ]
  in
  match Vc.check_state prog frag wrong entry with
  | Vc.Fails { prefix; var = "s"; _ } -> check "fails at prefix >= 1" true (prefix >= 1)
  | _ -> Alcotest.fail "expected Fails"

let test_check_state_holds () =
  let prog, frag = fragment sum_src in
  let entry =
    Vc.entry_of_params prog frag
      [ ("data", Value.List [ Value.Int 3; Value.Int 4; Value.Int (-1) ]); ("n", Value.Int 3) ]
  in
  match Vc.check_state prog frag (sum_summary (Ir.Var "data")) entry with
  | Vc.Holds -> ()
  | _ -> Alcotest.fail "expected Holds"

let matrix_src =
  {|int[] f(int[][] m, int rows, int cols) {
      int[] o = new int[rows];
      for (int i = 0; i < rows; i++) {
        int s = 0;
        for (int j = 0; j < cols; j++) s += m[i][j];
        o[i] = s;
      }
      return o;
    }|}

let test_datasets_at_matrix () =
  let prog, frag = fragment matrix_src in
  let entry =
    Vc.entry_of_params prog frag
      [
        ( "m",
          Value.List
            [
              Value.List [ Value.Int 1; Value.Int 2 ];
              Value.List [ Value.Int 3; Value.Int 4 ];
            ] );
        ("rows", Value.Int 2);
        ("cols", Value.Int 2);
      ]
  in
  let ds = Vc.datasets_at prog frag entry 1 in
  (* one row prefix = 2 (i,j,v) records *)
  Alcotest.(check int) "records of first row" 2 (List.length (snd (List.hd ds)));
  let all = Vc.datasets_at prog frag entry 2 in
  Alcotest.(check int) "all records" 4 (List.length (snd (List.hd all)))

(* [xs] is physically the first records of [ys] *)
let rec begins_physically (xs : Value.t list) (ys : Value.t list) : bool =
  match (xs, ys) with
  | [], _ -> true
  | x :: xs', y :: ys' -> x == y && begins_physically xs' ys'
  | _ :: _, [] -> false

(* SArrays and SMatrix prefixes share their records: [Vc.datasets_at]
   builds each record once per prepared state, so prefix k + 1 does not
   rebuild the records of prefix k *)
let test_prefix_records_shared () =
  let prefix_records (ps : Vc.prepared_state) =
    Array.to_list
      (Array.map
         (fun cell ->
           match Lazy.force cell with
           | Vc.PReady { datasets; _ } -> snd (List.hd datasets)
           | _ -> Alcotest.fail "prefix did not run")
         (Lazy.force ps.Vc.p_cells))
  in
  let check_shared what prog frag params n_records =
    let ps = Vc.prepare_state prog frag (Vc.entry_of_params prog frag params) in
    let prefixes = prefix_records ps in
    Alcotest.(check int)
      (what ^ ": records of the full prefix")
      n_records
      (List.length (List.nth prefixes (List.length prefixes - 1)));
    ignore
      (List.fold_left
         (fun prev recs ->
           check (what ^ ": prefix k's records begin prefix k + 1") true
             (begins_physically prev recs
             && List.length recs > List.length prev);
           recs)
         (List.hd prefixes) (List.tl prefixes))
  in
  let prog, frag = fragment sum_src in
  check "sum iterates counted arrays" true
    (match frag.F.schema with F.SArrays _ -> true | _ -> false);
  check_shared "arrays" prog frag
    [
      ("data", Value.List [ Value.Int 3; Value.Int 4; Value.Int (-1) ]);
      ("n", Value.Int 3);
    ]
    3;
  let prog, frag = fragment matrix_src in
  check "row sums iterate a matrix" true
    (match frag.F.schema with F.SMatrix _ -> true | _ -> false);
  check_shared "matrix" prog frag
    [
      ( "m",
        Value.List
          [
            Value.List [ Value.Int 1; Value.Int 2 ];
            Value.List [ Value.Int 3; Value.Int 4 ];
            Value.List [ Value.Int 5; Value.Int 6 ];
          ] );
      ("rows", Value.Int 3);
      ("cols", Value.Int 2);
    ]
    6

(* a record that cannot be built fails its prefix on the prepared path
   exactly as on the plain one. The loops below never read the short
   input, so the sequential code runs on: a short counted array is a VC
   error at the first prefix that reaches past it, a matrix with fewer
   rows than its bound raises [Failure "nth"] there. *)
let test_short_inputs_fail_alike () =
  let outcome f = match f () with r -> Ok r | exception e -> Error e in
  let same what prog frag summary params =
    let entry = Vc.entry_of_params prog frag params in
    let plain = outcome (fun () -> Vc.check_state prog frag summary entry) in
    let prepared =
      outcome (fun () ->
          fst (Vc.check_prepared frag summary (Vc.prepare_state prog frag entry)))
    in
    check (what ^ ": prepared check fails as the plain one") true
      (plain = prepared);
    plain
  in
  let ints l = Value.List (List.map (fun i -> Value.Int i) l) in
  let prog, frag =
    fragment
      "int f(int[] a, int[] b, int n) { int s = 0; for (int i = 0; i < n; \
       i++) { if (a[i] > 100) s += b[i]; else s += a[i]; } return s; }"
  in
  let d = F.primary_dataset frag in
  let sum_a =
    {
      Ir.pipeline =
        Ir.Reduce
          ( Ir.Map
              ( Ir.Data d,
                {
                  Ir.m_params = [ "i"; "a"; "b" ];
                  emits =
                    [ { Ir.guard = None; payload = Ir.KV (Ir.CStr "s", Ir.Var "a") } ];
                } ),
            add_r );
      bindings = [ ("s", Ir.AtKey (Value.Str "s")) ];
    }
  in
  check "short array: a VC error past its end" true
    (same "short array" prog frag sum_a
       [ ("a", ints [ 1; 2; 3 ]); ("b", ints [ 1 ]); ("n", Value.Int 3) ]
    = Ok (Vc.Ir_error "array shorter than iteration bound"));
  let prog, frag =
    fragment
      {|int[] f(int[][] m, int rows, int cols) {
          int[] o = new int[rows];
          for (int i = 0; i < rows; i++) {
            int s = 0;
            for (int j = 0; j < cols; j++) { if (i > 100) s += m[i][j]; }
            o[i] = s;
          }
          return o;
        }|}
  in
  let zeros =
    {
      Ir.pipeline =
        Ir.Reduce
          ( Ir.Map
              ( Ir.Data (F.primary_dataset frag),
                {
                  Ir.m_params = [ "i"; "j"; "v" ];
                  emits =
                    [ { Ir.guard = None; payload = Ir.KV (Ir.Var "i", Ir.CInt 0) } ];
                } ),
            add_r );
      bindings = [ ("o", Ir.Whole) ];
    }
  in
  check "missing row: Failure nth" true
    (same "missing row" prog frag zeros
       [ ("m", Value.List [ ints [ 1; 2 ] ]); ("rows", Value.Int 2); ("cols", Value.Int 2) ]
    = Error (Failure "nth"));
  check "the summary holds on a full matrix" true
    (same "full matrix" prog frag zeros
       [
         ("m", Value.List [ ints [ 1; 2 ]; ints [ 3; 4 ] ]);
         ("rows", Value.Int 2);
         ("cols", Value.Int 2);
       ]
    = Ok Vc.Holds)

(* ---------------- sparse array outputs ---------------- *)

(* One array-output comparison: the pipeline's bag, the entry and
   sequential environments, and the bindings, drawn so that keys fall
   out of bounds or are not ints, positions are written twice, floats
   are NaN or infinite or nearly equal, and expected arrays have
   another length or are not arrays at all. *)
type sparse_case = {
  bag : Casper_ir.Eval.bag;
  init : Casper_ir.Eval.env;
  seq : Casper_ir.Eval.env;
  bindings : (string * Ir.extract) list;
}

let gen_sparse_case : sparse_case QCheck.Gen.t =
  let open QCheck.Gen in
  let value =
    oneofl
      [
        Value.Int 0;
        Value.Int 1;
        Value.Float 1.0;
        Value.Float (1.0 +. 1e-9);
        Value.Float 0.5;
        Value.Float Float.nan;
        Value.Float Float.infinity;
        Value.Float Float.neg_infinity;
      ]
  in
  let arr n = list_repeat n value in
  let* n = int_range 0 4 in
  let key =
    frequency
      [
        (12, map (fun i -> Value.Int i) (int_range 0 n));
        (1, return (Value.Int (-1)));
        (1, return (Value.Str "k"));
      ]
  in
  let* kvs = list_size (int_range 0 6) (pair key value) in
  let* bag =
    frequency
      [
        (10, return (Casper_ir.Eval.Pairs kvs));
        (1, return (Casper_ir.Eval.Vals []));
        (1, map (fun v -> Casper_ir.Eval.Vals [ v ]) value);
      ]
  in
  (* what the writes make of an array, ignoring the bad keys *)
  let written l =
    let a = Array.of_list l in
    List.iter
      (fun (k, v) ->
        match k with
        | Value.Int i when i >= 0 && i < Array.length a -> a.(i) <- v
        | _ -> ())
      kvs;
    Array.to_list a
  in
  let output init_l =
    frequency
      [
        (4, return (Value.List (written init_l)));
        ( 3,
          map2
            (fun i v ->
              Value.List
                (List.mapi (fun j x -> if j = i then v else x) (written init_l)))
            (int_range 0 n) value );
        (1, return (Value.List init_l));
        (1, map (fun m -> Value.List m) (int_range 0 5 >>= arr));
        (1, return (Value.Int 0));
      ]
  in
  let* init_h = arr n and* init_g = arr n in
  let* seq_h = output init_h and* seq_g = output init_g in
  let* init =
    frequency
      [
        (10, return [ ("h", Value.List init_h); ("g", Value.List init_g) ]);
        (1, return [ ("g", Value.List init_g) ]);
        (1, return [ ("h", Value.Int 3); ("g", Value.List init_g) ]);
      ]
  in
  let* seq =
    frequency
      [ (10, return [ ("h", seq_h); ("g", seq_g) ]); (1, return [ ("g", seq_g) ]) ]
  in
  let+ bindings =
    oneofl
      [
        [ ("h", Ir.Whole); ("g", Ir.Whole) ];
        [ ("g", Ir.Whole); ("h", Ir.Whole) ];
        [ ("h", Ir.Whole) ];
        [ ("h", Ir.Whole); ("h", Ir.Whole); ("g", Ir.Whole) ];
        [ ("h", Ir.Whole); ("g", Ir.Proj None) ];
      ]
  in
  { bag; init; seq; bindings }

let print_sparse_case (c : sparse_case) =
  let env e =
    String.concat "; "
      (List.map (fun (v, x) -> v ^ " = " ^ Value.to_string x) e)
  in
  let bag =
    match c.bag with
    | Casper_ir.Eval.Pairs kvs ->
        "pairs "
        ^ String.concat " "
            (List.map
               (fun (k, v) ->
                 "(" ^ Value.to_string k ^ ", " ^ Value.to_string v ^ ")")
               kvs)
    | Casper_ir.Eval.Vals vs ->
        "vals " ^ String.concat " " (List.map Value.to_string vs)
    | Casper_ir.Eval.Records _ -> "records"
  in
  Fmt.str "%s | init %s | seq %s | bindings %s" bag (env c.init) (env c.seq)
    (String.concat ", "
       (List.map (fun (v, ex) -> Fmt.str "%s %a" v Ir.pp_extract ex) c.bindings))

let sparse_matches_dense =
  QCheck.Test.make ~count:2000
    ~name:"sparse array outputs: same verdict, output and exception as dense"
    (QCheck.make ~print:print_sparse_case gen_sparse_case)
    (fun c ->
      let _, frag = fragment sum_src in
      let frag =
        {
          frag with
          F.outputs =
            [
              ("h", Ast.TArray Ast.TInt, F.KArray);
              ("g", Ast.TArray Ast.TInt, F.KArray);
            ];
        }
      in
      let shapes = Vc.shapes_of frag in
      let s = { Ir.pipeline = Ir.Data "data"; bindings = c.bindings } in
      let outcome f = match f () with r -> Ok r | exception e -> Error e in
      let dense =
        outcome (fun () ->
            Vc.output_mismatch frag.F.outputs c.seq
              (Casper_ir.Eval.extract_outputs c.bag c.init shapes s))
      in
      let sparse =
        outcome (fun () ->
            Vc.sparse_mismatch frag.F.outputs c.seq (Vc.expect_of c.seq c.init)
              (Vc.extract_sparse
                 ~init_len:(fun _ l -> List.length l)
                 c.bag c.init shapes s))
      in
      dense = sparse)

let test_reducer_props () =
  let ca = V.reducer_props add_r Ir.TInt in
  check "addition is CA" true (ca = `Comm_assoc);
  let keep_left = { Ir.r_left = "v1"; r_right = "v2"; r_body = Ir.Var "v1" } in
  check "projection is not commutative" true
    (V.reducer_props keep_left Ir.TInt = `Not_comm_assoc);
  let sub = { add_r with Ir.r_body = Ir.Binop (Ir.Sub, Ir.Var "v1", Ir.Var "v2") } in
  check "subtraction is not associative" true
    (V.reducer_props sub Ir.TInt = `Not_comm_assoc);
  let fmax = { add_r with Ir.r_body = Ir.Binop (Ir.Max, Ir.Var "v1", Ir.Var "v2") } in
  check "max is CA" true (V.reducer_props fmax Ir.TFloat = `Comm_assoc);
  (* λr sees only v1 and v2: a free variable cannot be evaluated, even
     in a body that would be CA with it bound (a clamp at k) *)
  let free =
    { add_r with
      Ir.r_body =
        Ir.Binop (Ir.Min, Ir.Binop (Ir.Max, Ir.Var "v1", Ir.Var "v2"), Ir.Var "k") }
  in
  check "a free variable is not CA" true
    (V.reducer_props free Ir.TInt = `Not_comm_assoc);
  (* records and bags cannot be sampled: keep-left must not read as CA
     over them, alone or inside a tuple whose other part is summed *)
  check "keep-left over a record is not CA" true
    (V.reducer_props keep_left (Ir.TRecord "Point") = `Not_comm_assoc);
  check "keep-left over a bag is not CA" true
    (V.reducer_props keep_left (Ir.TBag Ir.TInt) = `Not_comm_assoc);
  let get v i = Ir.TupleGet (Ir.Var v, i) in
  let sum_keep_left =
    { add_r with
      Ir.r_body =
        Ir.MkTuple [ Ir.Binop (Ir.Add, get "v1" 0, get "v2" 0); get "v1" 1 ] }
  in
  check "sum and keep-left over (int, record) is not CA" true
    (V.reducer_props sum_keep_left (Ir.TTuple [ Ir.TInt; Ir.TRecord "Point" ])
    = `Not_comm_assoc)

let test_statesgen_consistency () =
  let prog, frag = fragment sum_src in
  let dom = Casper_verify.Statesgen.bounded_domain frag in
  let envs = Casper_verify.Statesgen.gen_batch ~seed:3 ~count:12 dom prog frag in
  check "first state is empty-data" true
    (match List.assoc "data" (List.hd envs) with
    | Value.List [] -> true
    | _ -> false);
  List.iter
    (fun env ->
      match (List.assoc "data" env, List.assoc "n" env) with
      | Value.List l, Value.Int n ->
          Alcotest.(check int) "bound var consistent with data" (List.length l) n
      | _ -> Alcotest.fail "bad state")
    envs

let test_bounded_domain_includes_constants () =
  let _, frag =
    fragment
      "int f(int[] data, int n) { int c = 0; for (int i = 0; i < n; i++) { if (data[i] > 37) c += 1; } return c; }"
  in
  let dom = Casper_verify.Statesgen.bounded_domain frag in
  check "fragment constant in domain" true (List.mem 37 dom.Casper_verify.Statesgen.ints)

(* ---------------- incremental prefixes ---------------- *)

let outcome f = match f () with r -> Ok r | exception e -> Error e

(* the prepared check against the from-scratch one on one state: result,
   message, lr_ran and any exception the same *)
let same_check prog frag summary entry ps =
  let lr_ran = ref false in
  let plain =
    outcome (fun () ->
        let r = Vc.check_state ~lr_ran prog frag summary entry in
        (r, !lr_ran))
  in
  plain = outcome (fun () -> Vc.check_prepared frag summary ps)

(* the resumed sequential run of every prefix of [entry] against
   [Vc.run_prefix]: outputs equal under [compare], so NaN equals NaN,
   and a prefix faults where [run_prefix] faults, with its exception *)
let same_prefixes prog (frag : F.t) entry =
  match Vc.outer_count prog frag entry with
  | exception _ -> true
  | n ->
      let outputs env =
        List.map (fun (v, _, _) -> List.assoc_opt v env) frag.F.outputs
      in
      let rec go k step =
        k > n
        ||
        match
          (outcome (fun () -> Vc.run_prefix prog frag entry k), outcome step)
        with
        | Ok env, Ok (s : Vc.seq_step) ->
            compare (outputs env) (outputs s.Vc.s_env) = 0
            && go (k + 1) s.Vc.s_next
        | Error e, Error e' -> e = e'
        | _ -> false
      in
      go 0 (Vc.seq_steps prog frag entry)

let candidates prog frag n =
  let module G = Casper_synth.Grammar in
  let module E = Casper_synth.Enumerate in
  let pools = G.build prog frag (Casper_synth.Cegis.make_probes prog frag) in
  let dead = E.make_dead () in
  List.to_seq (G.classes frag)
  |> Seq.concat_map (fun k -> E.candidates ~dead prog frag pools k)
  |> Seq.filter_map (function E.Cand c -> Some c.E.summary | E.Bulk _ -> None)
  |> Seq.take n |> List.of_seq

(* every supported Table-2 fragment: its first 200 candidates on its
   bounded and full states, with the prepared states shared by all
   candidates as a search shares them. Also pins the work counter: a
   forced prefix cell after cell 0 resumes its loop for one unit. *)
let test_incremental_table2 () =
  let diffs = ref [] and checks = ref 0 and prefixes = ref 0 in
  let forced = ref 0 and forced0 = ref 0 and units = ref 0 in
  List.iter
    (fun (b : Casper_suites.Suite.benchmark) ->
      let prog = Parser.parse_program b.source in
      List.iter
        (fun (frag : F.t) ->
          if frag.F.unsupported = None then begin
            let cands = candidates prog frag 200 in
            let states =
              V.states V.Bounded prog frag @ V.states V.Full prog frag
            in
            List.iter
              (fun params ->
                match Vc.entry_of_params prog frag params with
                | exception Interp.Runtime_error _ -> ()
                | entry ->
                    incr prefixes;
                    if not (same_prefixes prog frag entry) then
                      diffs := (frag.F.frag_id ^ " prefixes") :: !diffs;
                    let ps = Vc.prepare_state prog frag entry in
                    List.iter
                      (fun c ->
                        incr checks;
                        if not (same_check prog frag c entry ps) then
                          diffs :=
                            (frag.F.frag_id ^ ": " ^ Ir.summary_to_string c)
                            :: !diffs)
                      cands;
                    units := !units + ps.Vc.p_loop_units;
                    if Lazy.is_val ps.Vc.p_cells then
                      Array.iteri
                        (fun k c ->
                          if Lazy.is_val c then (
                            incr forced;
                            if k = 0 then incr forced0))
                        (Lazy.force ps.Vc.p_cells))
              states
          end)
        (An.fragments_of_program prog ~suite:b.suite ~benchmark:b.name))
    Casper_suites.Registry.all_benchmarks;
  Alcotest.(check (list string)) "no differences" [] (List.rev !diffs);
  check (Fmt.str "%d checks over %d states" !checks !prefixes) true
    (!checks > 100_000);
  Alcotest.(check int)
    "loop units = forced cells - forced cell 0s"
    (!forced - !forced0) !units

let ints l = Value.List (List.map (fun i -> Value.Int i) l)

let kv ?guard k v = { Ir.guard; payload = Ir.KV (k, v) }
let i_is op n = Ir.Binop (op, Ir.Var "i", Ir.CInt n)

(* [s] stays 0 over zeros: a summary whose bag holds no ["s"] key, or
   holds ["s"] at 0, agrees with it on every prefix it evaluates *)
let zeros_src =
  "int f(int[] x, int n) { int s = 0; for (int i = 0; i < n; i++) s += 0 \
   * (12 / x[i]); return s; }"

let over_x ?lr emits =
  let frag = snd (fragment zeros_src) in
  let m =
    Ir.Map
      (Ir.Data (F.primary_dataset frag), { Ir.m_params = [ "i"; "x" ]; emits })
  in
  {
    Ir.pipeline = (match lr with Some lr -> Ir.Reduce (m, lr) | None -> m);
    bindings = [ ("s", Ir.AtKey (Value.Str "s")) ];
  }

(* the prepared check of [summary] on x = [xs], against the plain one;
   returns the prepared result *)
let incremental_case what summary xs =
  let prog, frag = fragment zeros_src in
  let entry =
    Vc.entry_of_params prog frag
      [ ("x", ints xs); ("n", Value.Int (List.length xs)) ]
  in
  let ps = Vc.prepare_state prog frag entry in
  check (what ^ ": resumed prefixes") true (same_prefixes prog frag entry);
  check (what ^ ": prepared = plain") true
    (same_check prog frag summary entry ps);
  fst (Vc.check_prepared frag summary ps)

let result = Alcotest.testable (Fmt.of_to_string (function
    | Vc.Holds -> "Holds"
    | Vc.Fails { prefix; var } -> Fmt.str "Fails %d %s" prefix var
    | Vc.Ir_error m -> "Ir_error " ^ m
    | Vc.State_skipped m -> "State_skipped " ^ m)) ( = )

let test_incremental_cases () =
  let add = Some add_r in
  let s0 = kv (Ir.CStr "s") (Ir.CInt 0) in
  Alcotest.check result "the loop faults at unit 2"
    (Vc.State_skipped "sequential fault at prefix 3")
    (incremental_case "loop fault" (over_x ?lr:add [ s0 ]) [ 1; 1; 0; 1 ]);
  Alcotest.check result "λm raises at unit 2"
    (Vc.Ir_error "division by zero")
    (incremental_case "λm fault"
       (over_x ?lr:add
          [
            kv (Ir.CStr "t")
              (Ir.Binop (Ir.Div, Ir.CInt 1, Ir.Binop (Ir.Sub, Ir.Var "i", Ir.CInt 2)));
          ])
       [ 1; 1; 1; 1 ]);
  (* unit 0 sees key a before key b; unit 1 emits b before a, and both
     λr applications raise: the from-scratch fold raises a's error *)
  let lr =
    {
      Ir.r_left = "v1";
      r_right = "v2";
      r_body =
        Ir.If
          ( Ir.Binop (Ir.Eq, Ir.Var "v2", Ir.CInt 0),
            Ir.Binop (Ir.Div, Ir.Var "v1", Ir.Var "v2"),
            Ir.Binop (Ir.Mod, Ir.Var "v1", Ir.CInt 0) );
    }
  in
  Alcotest.check result "two raising groups fold in key order"
    (Vc.Ir_error "division by zero")
    (incremental_case "group order"
       (over_x ~lr
          [
            kv ~guard:(i_is Ir.Eq 0) (Ir.CStr "a") (Ir.CInt 5);
            kv (Ir.CStr "b") (Ir.Var "i");
            kv ~guard:(i_is Ir.Gt 0) (Ir.CStr "a") (Ir.CInt 0);
          ])
       [ 1; 1; 1 ]);
  let mixing =
    [ kv ~guard:(i_is Ir.Eq 0) (Ir.CStr "s") (Ir.CInt 0);
      { Ir.guard = Some (i_is Ir.Eq 2); payload = Ir.Val (Ir.CInt 0) } ]
  in
  List.iter
    (fun (what, lr) ->
      Alcotest.check result what
        (Vc.Ir_error "map emits mixed shapes across records")
        (incremental_case what (over_x ?lr mixing) [ 1; 1; 1; 1 ]))
    [
      ("plain and pair emits mix at unit 2", add);
      ("mixing without a reduce", None);
    ];
  (* a map over a map is not folded incrementally: it keeps the staged
     pipeline *)
  let twice =
    let s = over_x ?lr:None [ kv (Ir.CStr "s") (Ir.Var "x") ] in
    {
      s with
      Ir.pipeline =
        Ir.Reduce
          ( Ir.Map
              ( s.Ir.pipeline,
                {
                  Ir.m_params = [ "k"; "v" ];
                  emits =
                    [ kv (Ir.Var "k") (Ir.Binop (Ir.Sub, Ir.Var "v", Ir.Var "v")) ];
                } ),
            add_r );
    }
  in
  Alcotest.check result "a map over a map" Vc.Holds
    (incremental_case "fallback" twice [ 1; 2; 3 ])

(* ---------------- prefix folds against the staged reference -------------- *)

(* integer expressions over [vars] (over the first component of a
   record too, when [proj]), with [Div] and [Mod] so that evaluation can
   raise *)
let gen_arith ?(proj = false) (vars : string list) : Ir.expr QCheck.Gen.t =
  let open QCheck.Gen in
  let var = oneofl (List.map (fun v -> Ir.Var v) vars) in
  sized_size (int_bound 4)
  @@ fix (fun self n ->
         let leaf =
           frequency
             [
               (4, var);
               ((if proj then 2 else 0), map (fun v -> Ir.TupleGet (v, 0)) var);
               (3, map (fun i -> Ir.CInt i) (int_range (-1) 3));
             ]
         in
         if n <= 0 then leaf
         else
           let sub = self (n / 2) in
           frequency
             [
               (1, leaf);
               ( 3,
                 map3
                   (fun op x y -> Ir.Binop (op, x, y))
                   (frequency
                      [
                        (3, oneofl [ Ir.Add; Ir.Sub; Ir.Mul ]);
                        (1, oneofl [ Ir.Div; Ir.Mod ]);
                      ])
                   sub sub );
               ( 1,
                 map3
                   (fun c t e -> Ir.If (Ir.Binop (Ir.Lt, c, Ir.CInt 1), t, e))
                   sub sub sub );
             ])

(* λm over [x], or over [x] and [y]: guarded or not, all pairs or all
   plain values, now and then a mix *)
let gen_lam_m : Ir.lam_m QCheck.Gen.t =
  let open QCheck.Gen in
  let* m_params = oneofl [ [ "x" ]; [ "x"; "y" ] ] in
  let e = gen_arith ~proj:(List.length m_params = 1) m_params in
  let* kind = frequency [ (2, return `KV); (2, return `V); (1, return `Mix) ] in
  let emit =
    let* guard =
      option ~ratio:0.4 (map (fun g -> Ir.Binop (Ir.Lt, g, Ir.CInt 2)) e)
    in
    let kv = map2 (fun k v -> Ir.KV (k, v)) e e
    and v = map (fun v -> Ir.Val v) e in
    let+ payload =
      match kind with `KV -> kv | `V -> v | `Mix -> oneof [ kv; v ]
    in
    { Ir.guard; payload }
  in
  let+ emits = list_size (int_range 1 3) emit in
  { Ir.m_params; emits }

let gen_lam_r : Ir.lam_r QCheck.Gen.t =
  QCheck.Gen.map
    (fun r_body -> { Ir.r_left = "v1"; r_right = "v2"; r_body })
    (gen_arith [ "v1"; "v2" ])

(* ints and tuples of arity 1-3, so a two-parameter λm binds some
   records and not others *)
let gen_record : Value.t QCheck.Gen.t =
  let open QCheck.Gen in
  let int = map (fun i -> Value.Int i) (int_range (-1) 4) in
  let tuple n = map (fun l -> Value.Tuple l) (list_repeat n int) in
  frequency [ (2, int); (3, tuple 2); (1, tuple 1); (1, tuple 3) ]

(* a map, reduce∘map or map∘reduce∘map over dataset [d], its records
   and the sizes of the units they arrive in *)
let gen_fold_case =
  let open QCheck.Gen in
  let src = map (fun lm -> Ir.Map (Ir.Data "d", lm)) gen_lam_m in
  let* pipeline =
    oneof
      [
        src;
        map2 (fun m lr -> Ir.Reduce (m, lr)) src gen_lam_r;
        map3 (fun m lr post -> Ir.Map (Ir.Reduce (m, lr), post)) src gen_lam_r
          gen_lam_m;
      ]
  in
  triple (return pipeline)
    (list_size (int_range 0 8) gen_record)
    (list_size (int_range 1 8) (int_range 1 3))

let print_fold_case (pipeline, records, units) =
  Fmt.str "%a@.records %s@.units %s" Ir.pp_node pipeline
    (Value.to_string (Value.List records))
    (String.concat " " (List.map string_of_int units))

(* [Memo.stage_prefixes] run as [Vc.check_prepared] runs it, on prefixes
   that grow unit by unit, stopping at the first exception: at each
   prefix, the same bag or the same exception as [Eval.stage_node]
   staged from scratch, and the same [lr_ran] over the prefixes so far *)
let prefix_folds_match_staged =
  QCheck.Test.make ~name:"prefix folds equal the staged reference" ~count:20_000
    (QCheck.make ~print:print_fold_case gen_fold_case)
    (fun (pipeline, records, units) ->
      let inc_ran = ref false and ref_ran = ref false in
      let run = Casper_ir.Memo.stage_prefixes ~lr_ran:inc_ran [] pipeline in
      let n = List.length records in
      let rec walk k units =
        let datasets = [ ("d", List.filteri (fun i _ -> i < k) records) ] in
        let got = outcome (fun () -> run datasets) in
        let want =
          outcome (fun () ->
              Casper_ir.Eval.stage_node ~lr_ran:ref_ran [] pipeline datasets)
        in
        got = want && !inc_ran = !ref_ran
        && (Result.is_error got || k >= n
           ||
           match units with
           | u :: us -> walk (min n (k + u)) us
           | [] -> walk n [])
      in
      walk 0 units)

let suite =
  [
    ( "verify.incremental",
      [
        Alcotest.test_case "targeted cases" `Quick test_incremental_cases;
        Alcotest.test_case "Table 2: first 200 candidates" `Slow
          test_incremental_table2;
        Testenv.qcheck prefix_folds_match_staged;
      ] );
    ( "verify.phases",
      [
        Alcotest.test_case "valid accepted" `Quick test_valid_summary_accepted;
        Alcotest.test_case "wrong rejected" `Quick test_wrong_summary_rejected;
        Alcotest.test_case "two-phase catches min(4,v)" `Quick
          test_two_phase_catches_bounded_artifact;
      ] );
    ( "verify.vc",
      [
        Alcotest.test_case "failure reports prefix" `Quick
          test_check_state_reports_prefix;
        Alcotest.test_case "holds on valid state" `Quick test_check_state_holds;
        Alcotest.test_case "matrix prefix datasets" `Quick
          test_datasets_at_matrix;
        Alcotest.test_case "prefix records are shared" `Quick
          test_prefix_records_shared;
        Alcotest.test_case "short inputs fail alike" `Quick
          test_short_inputs_fail_alike;
      ] );
    ("verify.sparse", [ Testenv.qcheck sparse_matches_dense ]);
    ( "verify.props",
      [
        Alcotest.test_case "reducer algebra" `Quick test_reducer_props;
      ] );
    ( "verify.statesgen",
      [
        Alcotest.test_case "state consistency" `Quick test_statesgen_consistency;
        Alcotest.test_case "constants seeded" `Quick
          test_bounded_domain_includes_constants;
      ] );
  ]
