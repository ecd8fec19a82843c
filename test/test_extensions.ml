(** Tests for the §7.5 / future-work extensions: the Weld emitter and
    the cache-insertion heuristic. *)

module Ir = Casper_ir.Lang
module Weld = Casper_codegen.Emit_weld
module Cacheopt = Casper_codegen.Cacheopt
module Engine = Mapreduce.Engine
module Cluster = Mapreduce.Cluster
module Plan = Mapreduce.Plan
module Value = Casper_common.Value

let check = Alcotest.(check bool)

let contains needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* the Q6-style summary the paper translated to Weld *)
let q6_summary =
  {
    Ir.pipeline =
      Ir.Reduce
        ( Ir.Map
            ( Ir.Data "lineitem",
              {
                Ir.m_params = [ "l" ];
                emits =
                  [
                    {
                      Ir.guard =
                        Some
                          (Ir.Binop
                             ( Ir.Lt,
                               Ir.Field (Ir.Var "l", "l_quantity"),
                               Ir.CInt 24 ));
                      payload =
                        Ir.Val
                          (Ir.Binop
                             ( Ir.Mul,
                               Ir.Field (Ir.Var "l", "l_extendedprice"),
                               Ir.Field (Ir.Var "l", "l_discount") ));
                    };
                  ];
              } ),
          {
            Ir.r_left = "v1";
            r_right = "v2";
            r_body = Ir.Binop (Ir.Add, Ir.Var "v1", Ir.Var "v2");
          } );
    bindings = [ ("revenue", Ir.Proj None) ];
  }

let test_weld_q6 () =
  let w = Weld.emit ~vty:Ir.TFloat q6_summary in
  check "has for loop" true (contains "result(for(lineitem" w);
  check "uses a merger builder" true (contains "merger[f64,+]" w);
  check "guard becomes if" true (contains "if((l.l_quantity < 24L)" w);
  check "merge on fire" true (contains "merge(b," w)

let test_weld_keyed_uses_dictmerger () =
  let s =
    {
      Ir.pipeline =
        Ir.Reduce
          ( Ir.Map
              ( Ir.Data "words",
                {
                  Ir.m_params = [ "w" ];
                  emits =
                    [ { Ir.guard = None; payload = Ir.KV (Ir.Var "w", Ir.CInt 1) } ];
                } ),
            {
              Ir.r_left = "v1";
              r_right = "v2";
              r_body = Ir.Binop (Ir.Add, Ir.Var "v1", Ir.Var "v2");
            } );
      bindings = [ ("counts", Ir.Whole) ];
    }
  in
  check "dictmerger" true (contains "dictmerger" (Weld.emit ~vty:Ir.TInt s))

let test_weld_rejects_nonoperator_reducer () =
  let s =
    {
      q6_summary with
      Ir.pipeline =
        (match q6_summary.Ir.pipeline with
        | Ir.Reduce (m, _) ->
            Ir.Reduce
              (m, { Ir.r_left = "v1"; r_right = "v2"; r_body = Ir.Var "v1" })
        | n -> n);
    }
  in
  match Weld.emit ~vty:Ir.TFloat s with
  | exception Weld.Unsupported _ -> ()
  | _ -> Alcotest.fail "expected Unsupported"

(* ---------------- cache insertion ---------------- *)

let pagerank_like_run () =
  let rng = Casper_common.Rng.create 17 in
  let data =
    List.init 2000 (fun _ ->
        Value.Tuple [ Value.Int (Casper_common.Rng.int rng 50); Value.Float 1.0 ])
  in
  Engine.run_plan ~config:Testenv.config ~cluster:Cluster.spark
    ~datasets:[ ("edges", data) ]
    Plan.(
      data "edges"
      |>> reduce_by_key (fun a b -> Value.Float (Value.as_float a +. Value.as_float b)))

let test_cache_decision_scales_with_iters () =
  let run = pagerank_like_run () in
  let d1 = Cacheopt.decide ~cluster:Cluster.spark ~scale:1e5 ~iters:1 run in
  let d10 = Cacheopt.decide ~cluster:Cluster.spark ~scale:1e5 ~iters:10 run in
  check "never cache for one pass" false d1.Cacheopt.cache;
  check "cache for ten passes" true d10.Cacheopt.cache

let test_cached_time_is_smaller () =
  let run = pagerank_like_run () in
  let plain =
    Cacheopt.iterative_time ~cluster:Cluster.spark ~scale:1e5 ~iters:10 run
  in
  let cached =
    Cacheopt.iterative_time ~cluster:Cluster.spark ~scale:1e5 ~iters:10
      ~cached:true run
  in
  check "cache saves time over 10 iters" true (cached < plain)

let test_run_iterative_applies_heuristic () =
  let run = pagerank_like_run () in
  let t, cached =
    Cacheopt.run_iterative ~cluster:Cluster.spark ~scale:1e5 ~iters:10 run
  in
  check "heuristic caches" true cached;
  check "matches cached pricing" true
    (Float.abs
       (t
       -. Cacheopt.iterative_time ~cluster:Cluster.spark ~scale:1e5 ~iters:10
            ~cached:true run)
    < 1e-9)

let suite =
  [
    ( "extensions.weld",
      [
        Alcotest.test_case "Q6 rewrite (paper §7.5)" `Quick test_weld_q6;
        Alcotest.test_case "keyed uses dictmerger" `Quick
          test_weld_keyed_uses_dictmerger;
        Alcotest.test_case "non-operator reducer rejected" `Quick
          test_weld_rejects_nonoperator_reducer;
      ] );
    ( "extensions.cacheopt",
      [
        Alcotest.test_case "decision scales with iterations" `Quick
          test_cache_decision_scales_with_iters;
        Alcotest.test_case "cached time smaller" `Quick
          test_cached_time_is_smaller;
        Alcotest.test_case "run_iterative" `Quick
          test_run_iterative_applies_heuristic;
      ] );
  ]
