(** The execution config the test suite runs under by default.

    The library reads no environment; the suite reads it once, here, at
    start-up, so the CI passes that set [CASPER_MEM_BUDGET] or
    [CASPER_CACHE_BUDGET] still reach every test that takes its config
    from this module — and must leave its expected output unchanged.
    Tests that pin a knob (goldens, matrices) build on
    [Exec.Config.default] instead. *)

module Config = Casper_exec.Exec.Config

let config = Config.of_env ()

(** [config] for a traced run: [obs] records the run, and the
    environment's cache is left out, because a hit would skip the
    stages whose spans and counters the test reads. *)
let traced obs = { config with Config.obs = Some obs; cache = None }

(** [QCheck_alcotest.to_alcotest] from a fixed seed: every run tests
    the same cases, and a failure reproduces without its printed seed. *)
let qcheck t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t

(** A suite of QCheck properties, each run by {!qcheck}. *)
let qsuite name tests = (name, List.map qcheck tests)

(** The process's OS thread count (one per live domain, plus runtime
    helpers), from [/proc/self/status]; [None] where that file is
    missing. *)
let threads () : int option =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> None
  | status ->
      List.find_map
        (fun line -> Scanf.sscanf_opt line "Threads: %d" Fun.id)
        (String.split_on_char '\n' status)

(** {!threads} once two reads 20 ms apart agree (up to 5 s): a domain
    joined just before may still be exiting, and a count taken then
    would drop later. *)
let steady_threads () : int option =
  let rec poll prev tries =
    Unix.sleepf 0.02;
    match threads () with
    | Some k when Some k <> prev && tries > 0 -> poll (Some k) (tries - 1)
    | k -> k
  in
  poll (threads ()) 250

(** Poll {!threads} for up to 5 s until it drops to [n]; the last count
    read. A joined domain's thread may take a moment to exit. *)
let settled_threads (n : int) : int =
  let rec poll tries =
    match threads () with
    | Some k when k > n && tries > 0 ->
        Unix.sleepf 0.01;
        poll (tries - 1)
    | Some k -> k
    | None -> n
  in
  poll 500
