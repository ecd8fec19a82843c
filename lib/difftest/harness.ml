(** Fuzz campaigns and corpus replay.

    A campaign is fully determined by its seed: program [i] of campaign
    [seed] is always the same program, so any failure can be replayed
    from the (seed, index) pair alone — and is also reported as
    compilable source, minimized when requested.

    The regression corpus ([test/corpus/*.mj]) is plain MiniJava source,
    one program per file; {!replay_corpus} pushes every file through the
    oracle, which is how past reproducers stay fixed in tier-1. *)

module Rng = Casper_common.Rng
module Par = Casper_par.Par

type failure = {
  index : int;  (** campaign index: replay with the same seed *)
  shape : string;
  divergence : Oracle.divergence;
  minimized : string option;  (** minimized source, when requested *)
}

type report = {
  total : int;
  translated : int;
  skipped : int;
  skip_reasons : (string * int) list;  (** reason → count *)
  failures : failure list;
}

let bump assoc key =
  match List.assoc_opt key assoc with
  | Some n -> (key, n + 1) :: List.remove_assoc key assoc
  | None -> (key, 1) :: assoc

let still_fails cfg ~name p =
  match Oracle.check_parsed cfg ~name p with
  | Oracle.Diverged _ -> true
  | Oracle.Translated _ | Oracle.Skipped _ -> false

(** Run [count] generated programs through the oracle.

    Programs are generated sequentially from the campaign rng — program
    [i] of campaign [seed] is the same at any [jobs] (default 1: the
    campaign runs inline) — then checked in waves of [4 × jobs], each
    wave mapped across [jobs] domains spawned for it
    ({!Casper_par.Par.spawn_map}), and the wave's verdicts are folded
    into the report in index order. A program's verdict is independent
    of every other program's (the oracle's caches are domain-local and
    outcome-transparent), so the report — counts, skip reasons,
    failures, log lines — is byte-identical at any [jobs]. Shrinking
    runs on the submitting domain, off the critical path. *)
let run_campaign ?(log = ignore) ?config ?(shrink_budget = 150) ?(jobs = 1)
    ~(seed : int) ~(count : int) ~(minimize : bool) () : report =
  let cfg =
    match config with Some c -> c | None -> Oracle.default_config ~seed ()
  in
  let rng = Rng.create seed in
  let translated = ref 0 in
  let skipped = ref 0 in
  let skip_reasons = ref [] in
  let failures = ref [] in
  let wave_size = 4 * jobs in
  let index = ref 0 in
  while !index < count do
    let n = min wave_size (count - !index) in
    (* generation order must not depend on [jobs]: draw the whole wave
       from the rng before dispatching *)
    let wave = ref [] in
    for k = 0 to n - 1 do
      wave := (!index + k, Gen.program rng) :: !wave
    done;
    let wave = List.rev !wave in
    index := !index + n;
    let check (i, g) =
      let name = Fmt.str "%s-%d" g.Gen.shape i in
      (i, g, Oracle.check_parsed cfg ~name g.Gen.prog)
    in
    let verdicts = Par.spawn_map ~jobs check wave in
    List.iter
      (fun (i, g, verdict) ->
        (match verdict with
        | Oracle.Translated _ -> incr translated
        | Oracle.Skipped reason ->
            incr skipped;
            skip_reasons := bump !skip_reasons reason
        | Oracle.Diverged d ->
            log (Fmt.str "[%d] DIVERGENCE (%s) at stage %s" i g.Gen.shape
                   d.Oracle.stage);
            let name = Fmt.str "%s-%d" g.Gen.shape i in
            let minimized =
              if minimize then begin
                let small =
                  Shrink.minimize ~budget:shrink_budget
                    ~still_fails:(still_fails cfg ~name)
                    (Minijava.Parser.parse_program d.Oracle.source)
                in
                Some (Minijava.Pp.program_to_string small)
              end
              else None
            in
            failures :=
              { index = i; shape = g.Gen.shape; divergence = d; minimized }
              :: !failures);
        if (i + 1) mod 25 = 0 then
          log
            (Fmt.str
               "%d/%d checked (%d translated, %d skipped, %d divergent)"
               (i + 1) count !translated !skipped (List.length !failures)))
      verdicts
  done;
  {
    total = count;
    translated = !translated;
    skipped = !skipped;
    skip_reasons = List.rev !skip_reasons;
    failures = List.rev !failures;
  }

(* ------------------------------------------------------------------ *)
(* Corpus replay                                                       *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** All [*.mj] files under [dir], sorted, each run through the oracle. *)
let replay_corpus ?config ~(dir : string) () :
    (string * Oracle.verdict) list =
  let cfg =
    match config with Some c -> c | None -> Oracle.default_config ()
  in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".mj")
  |> List.sort String.compare
  |> List.map (fun f ->
         let src = read_file (Filename.concat dir f) in
         (f, Oracle.check_source cfg ~name:(Filename.chop_extension f) src))

(* ------------------------------------------------------------------ *)
(* Reproducer files                                                    *)

(** Write a failure's (minimized, when present) source to
    [dir/repro-<index>.mj]; returns the path. *)
let write_repro ~(dir : string) (fl : failure) : string =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (Fmt.str "repro-%d.mj" fl.index) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc
        (Fmt.str "// shape: %s  stage: %s\n// %s\n%s" fl.shape
           fl.divergence.Oracle.stage fl.divergence.Oracle.detail
           (match fl.minimized with
           | Some s -> s
           | None -> fl.divergence.Oracle.source)));
  path
