(** Fragment-level parallelism in the compiler entry points.

    [Casper.translate_program] runs a program's fragments on several
    domains. It must return exactly what the sequential
    [List.map (translate_fragment prog)] returns, in fragment order,
    re-raise the lowest-index fragment's exception, run inline when
    called from inside a [Par.spawn_map] task, and leave no domain
    behind. *)

module Casper = Casper_core.Casper
module Cegis = Casper_synth.Cegis
module F = Casper_analysis.Fragment
module An = Casper_analysis.Analyze
module Suite = Casper_suites.Suite
module Par = Casper_par.Par
module Obs = Casper_obs.Obs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let parse (b : Suite.benchmark) =
  let prog = Minijava.Parser.parse_program b.Suite.source in
  (prog, An.fragments_of_program prog ~suite:b.Suite.suite ~benchmark:b.Suite.name)

(* everything a translation decides; [elapsed_s] is wall time *)
let digest (t : Casper.translation) =
  let sol (s : Cegis.solution) =
    ( Casper_ir.Lang.summary_to_string s.Cegis.summary,
      s.Cegis.klass,
      s.Cegis.comm_assoc,
      s.Cegis.static_cost )
  in
  ( t.Casper.frag.F.frag_id,
    { t.Casper.outcome.Cegis.stats with Cegis.elapsed_s = 0.0 },
    List.map sol t.Casper.outcome.Cegis.solutions,
    List.map sol t.Casper.survivors,
    (t.Casper.spark_src, t.Casper.flink_src, t.Casper.hadoop_src) )

let sequential prog frags = List.map (Casper.translate_fragment prog) frags

let test_table2_equivalence () =
  List.iter
    (fun (b : Suite.benchmark) ->
      let prog, frags = parse b in
      let par =
        Casper.translate_program ~suite:b.Suite.suite ~benchmark:b.Suite.name
          prog
      in
      check
        (b.Suite.name ^ ": same translations, same order")
        true
        (List.map digest par.Casper.translations
        = List.map digest (sequential prog frags)))
    Casper_suites.Registry.all_benchmarks

(* Two ways to break a fragment so that its search raises, each with
   its own exception: without the statements before the loop, the
   output is unbound after it (Not_found); a list read as a matrix has
   rows that are not lists (Failure "nth"). *)
let unbound_output (f : F.t) = { f with F.pre = [] }

let list_as_matrix (f : F.t) =
  match f.F.schema with
  | F.SList { data; _ } ->
      {
        f with
        F.schema =
          F.SMatrix
            {
              data;
              i = "i";
              j = "j";
              rows = Minijava.Ast.IntLit 2;
              cols = Minijava.Ast.IntLit 2;
              elem_ty = Minijava.Ast.TInt;
            };
      }
  | _ -> Alcotest.fail "expected a list fragment"

let test_lowest_index_exception () =
  let prog, frags = parse (Casper_suites.Registry.find_benchmark "Q17") in
  let f0, f1 =
    match frags with f0 :: f1 :: _ -> (f0, f1) | _ -> Alcotest.fail "Q17"
  in
  let raised g =
    match g () with
    | _ -> "no exception"
    | exception e -> Printexc.to_string e
  in
  let both_ways frags =
    let seq = raised (fun () -> sequential prog frags) in
    (seq, raised (fun () -> Casper.translate_fragments prog frags))
  in
  let seq, par = both_ways [ f0; unbound_output f1; list_as_matrix f0; f1 ] in
  check_str "the first broken fragment raises" "Not_found" seq;
  check_str "its exception wins" seq par;
  let seq, par = both_ways [ f0; list_as_matrix f0; unbound_output f1; f1 ] in
  check_str "swapped, the other one raises" "Failure(\"nth\")" seq;
  check_str "and wins" seq par

(* Inside a spawn_map task the fragments run inline on the task's
   domain. The witness is the trace clock: each fragment's search reads
   it on the domain that runs the search, so a fragment spawned off the
   task's domain would read it from another domain. *)
let test_inline_in_spawn_map_task () =
  let prog, _ = parse (Casper_suites.Registry.find_benchmark "Q17") in
  let m = Mutex.create () and readers = ref [] in
  let clock () =
    let d = (Domain.self () :> int) in
    Mutex.protect m (fun () ->
        if not (List.mem d !readers) then readers := d :: !readers);
    Unix.gettimeofday ()
  in
  let in_task =
    Par.spawn_map ~jobs:2
      (fun run ->
        if run then (
          let obs = Obs.create ~clock () in
          ignore
            (Casper.translate_program ~obs ~suite:"tpch" ~benchmark:"Q17" prog);
          Some (Par.on_worker (), (Domain.self () :> int), obs))
        else None)
      [ true; false ]
  in
  match in_task with
  | [ Some (on_worker, task_domain, obs); None ] ->
      check "called from a task" true on_worker;
      check "Q17's searches ran" true (Obs.total obs "candidates" > 0);
      check "every fragment read the clock on the task's domain" true
        (!readers = [ task_domain ])
  | _ -> Alcotest.fail "unexpected spawn_map result"

(* The call leaves no domain behind: the process's thread count comes
   back to where it was (a domain is an OS thread). *)
let test_no_domain_outlives () =
  let b = Casper_suites.Registry.find_benchmark "Q17" in
  let before = Testenv.steady_threads () in
  ignore
    (Casper.translate_source ~suite:b.Suite.suite ~benchmark:b.Suite.name
       b.Suite.source);
  match before with
  | None -> ()
  | Some n -> check_int "threads after the call" n (Testenv.settled_threads n)

let suite =
  [
    ( "core.fragments",
      [
        Alcotest.test_case "Table 2: translate_program = List.map" `Slow
          test_table2_equivalence;
        Alcotest.test_case "lowest-index exception propagates" `Quick
          test_lowest_index_exception;
        Alcotest.test_case "runs inline inside a spawn_map task" `Quick
          test_inline_in_spawn_map_task;
        Alcotest.test_case "no domain outlives the call" `Quick
          test_no_domain_outlives;
      ] );
  ]
