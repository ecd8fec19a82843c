(** The execution config the test suite runs under by default.

    The library reads no environment; the suite reads it once, here, at
    start-up, so the CI passes that set [CASPER_MEM_BUDGET],
    [CASPER_CACHE_BUDGET] or [CASPER_EXEC_CONCURRENCY] still reach every
    test that takes its config from this module — and must leave its
    expected output unchanged. Tests that pin a knob (goldens, matrices)
    build on [Exec.Config.default] instead. *)

module Config = Casper_exec.Exec.Config

let config = Config.of_env ()

(** [config] for a traced run: [obs] records the run, and the
    environment's cache is left out, because a hit would skip the
    stages whose spans and counters the test reads. *)
let traced obs = { config with Config.obs = Some obs; cache = None }
