#!/bin/sh
# Source hygiene gate used by CI (and runnable locally). The toolchain
# image has no ocamlformat, so instead of a full formatter pass this
# enforces the invariants a formatter would: no trailing whitespace, no
# hard tabs in OCaml sources, no leftover conflict markers, and every
# .ml/.mli ends with a newline.
set -eu

cd "$(dirname "$0")/.."
fail=0

files=$(find lib bin bench test examples -name '*.ml' -o -name '*.mli' | sort)

for f in $files; do
  if grep -qn ' $' "$f"; then
    echo "trailing whitespace: $f"
    grep -n ' $' "$f" | head -3
    fail=1
  fi
  if grep -qnP '\t' "$f"; then
    echo "hard tab: $f"
    fail=1
  fi
  if [ -s "$f" ] && [ "$(tail -c 1 "$f" | od -An -c | tr -d ' \n')" != '\n' ]; then
    echo "no trailing newline: $f"
    fail=1
  fi
done

if grep -rn '^<<<<<<< \|^>>>>>>> ' --include='*.ml' --include='*.mli' \
    --include='*.md' --include='dune' lib bin bench test examples; then
  echo "conflict markers found"
  fail=1
fi

# One reader of the environment: outside this file no CASPER_*
# variable is read under lib/ bin/ bench/ (Engine.Config.of_env owns
# the memory and cache budgets and the spill directory).
env_readers="lib/mapreduce/engine.ml"
for f in $(grep -rl 'getenv' --include='*.ml' lib bin bench | sort); do
  case " $env_readers " in *" $f "*) continue ;; esac
  if grep -q '"CASPER_' "$f"; then
    echo "CASPER_* read outside Engine.Config: $f"
    grep -n '"CASPER_' "$f" | head -3
    fail=1
  fi
done

# The process-global defaults are gone, the default pool included;
# configuration travels in an Engine.Config.t record only, and a pool is
# created, owned and passed in by its caller. The speculative search is gone too: a
# fragment search runs on one domain, so the memo needs no generation.
# lib/par keeps one task queue and one claim loop: the work-stealing
# deques, the futures and the chunking combinators are gone. An engine
# run executes on the domain that calls it: the config carries no pool,
# and the stage fan-out, its range kernels and counters, the per-domain
# trace tracks and the oracle's pool-size stage are gone. The simulated
# task scheduler and its fault model are gone: run time comes from the
# closed-form Engine.simulate_time, a spill run or cache entry is never
# declared lost, and the cache keeps no pin or invalidation API.
deleted='with_default_|set_default_cache_budget|default_mem_budget|Spill\.default_budget'
deleted="$deleted"'|inline_cutoff|max_fanin :=|set_base_dir|Spill\.base_dir'
deleted="$deleted"'|\b(sync_shard|spec_round|speculate|Sp_failed|Memo\.generation)\b'
deleted="$deleted"'|\b(Par\.global|set_jobs|env_jobs)\b|Par\.jobs \(\)'
deleted="$deleted"'|\bPar\.(parallel_chunks|concat_map|filter|chunks|await|is_done|future)\b|deque_'
deleted="$deleted"'|\b(domain_span|task_ranges|records_per_task|check_parallel|map_range|filter_range|concat_map_range|engine_batches|engine_tasks)\b'
deleted="$deleted"'|Config\.pool\b'
deleted="$deleted"'|Sched\.|\b(sched_plan|x_spill_fault|x_cache_fault|rematerialize|io_faults|fault_detect_s|task_relaunch_s)\b'
deleted="$deleted"'|Engine\.schedule\b|Cache\.(invalidate|pin|unpin|clear)\b'
if grep -rnE "$deleted" --include='*.ml' --include='*.mli' lib bin bench test; then
  echo "deleted process-default, search, pool, fan-out or scheduler API reappeared"
  fail=1
fi

# One bench harness: bench/main.ml reproduces the paper's tables and
# figures, perfbench measures, and the tracing-overhead budget is the
# obs.overhead test. The bench's perf sections, their JSON reports, the
# overhead script and the fast-path counters only they read are gone.
perf='\b(synth_perf|spill_perf|cache_perf|serve_perf|json_synth|check_overhead)\b'
perf="$perf"'|\bBENCH_(synth|spill|cache|serve)'
perf="$perf"'|\b(reset_counters|pp_counters|lm_records|emit_fp_(hits|misses)|prefix_(forced|reused))\b'
if grep -rnE --exclude=check_hygiene.sh "$perf" lib bin bench test tools .github; then
  echo "a deleted bench perf section, report, script or counter reappeared"
  fail=1
fi

# One search path: the synthesis fast path is how the search runs, not
# a domain-local switch with an uncached copy of the search behind it.
# The switch, the printed-text blocked set, the oracle's knobs that had
# one value and the bench's one-span-per-section trace flag are gone.
onepath='Fastpath\.enabled'
onepath="$onepath"'|\b(with_enabled|enabled_key|blocked_text|check_fastpath|check_spill|check_cache|check_session|trace_path)\b'
if grep -rnE "$onepath" --include='*.ml' --include='*.mli' lib bin bench test; then
  echo "the deleted fast-path switch, oracle knobs or bench trace flag reappeared"
  fail=1
fi

# No library, executable or test links the deleted scheduler.
if grep -rnw 'sched' --include='dune' lib bin bench test examples perfbench; then
  echo "a dune file names the deleted sched library"
  fail=1
fi

# The engine links no domain pool.
if grep -n 'casper_par' lib/mapreduce/dune; then
  echo "lib/mapreduce links casper_par"
  fail=1
fi

# There is no pool: lib/par's one map spawns domains that exit when no
# element is left, and a session's runners exit when no job is ready.
# The pool, its task API and the test suite's pool are gone.
pool='\bPar\.(create|size|shutdown|with_pool|parallel_map|async|help|pool)\b'
pool="$pool"'|\bTestenv\.pool\b'
if grep -rnE "$pool" --include='*.ml' --include='*.mli' \
    lib bin bench test examples perfbench; then
  echo "the deleted domain pool reappeared"
  fail=1
fi

# A search owns every table it fills: its interner, candidate keys,
# fingerprint cells and their counts are values the search makes and
# drops with it (DESIGN.md §10). So the search's libraries (lib/ir,
# lib/synth, lib/vcgen, lib/verify) keep no domain-local state: no
# Domain.DLS, and no process-global Atomic (a top-level binding to
# Atomic.make, on its line or the next). The per-domain memo and
# hash-cons shards, their clear functions, the per-domain counters'
# reader and the global probe-set counter are gone (whole words).
search_libs="lib/ir lib/synth lib/vcgen lib/verify"
if grep -rn 'Domain\.DLS' --include='*.ml' --include='*.mli' $search_libs; then
  echo "Domain.DLS in a search library"
  fail=1
fi
if find $search_libs -name '*.ml' | sort | xargs awk '
    /^(let|and) / && /Atomic\.make/ { print FILENAME ":" FNR ": " $0; bad = 1 }
    prev ~ /^(let|and) [a-z_][A-Za-z0-9_'"'"']*( *:[^=]*)? *=$/ && /^ +Atomic\.make/ {
      print FILENAME ":" FNR ": " $0; bad = 1 }
    { prev = $0 }
    END { exit !bad }'; then
  echo "a process-global Atomic in a search library"
  fail=1
fi
shards='\b(Memo\.clear|Hashcons\.clear|Memo\.counters|shard_key|key_shard|probe_set_last)\b'
if grep -rnE "$shards" lib bin bench test examples; then
  echo "a deleted per-domain shard, its clear, its counters or the probe-set counter reappeared"
  fail=1
fi

# A session is a FIFO job runner: its priorities, its bounded admission
# queue and the introspection only their tests used are gone, and so
# are the variables that set session concurrency, the queue bound and
# difftest's domains (difftest --jobs is the one way), and casperc's
# second way to set the cache budget (CASPER_CACHE_BUDGET is the one).
admission='\b(Overloaded|queue_capacity|jobs_rejected|job_id|jobs_of_env)\b'
admission="$admission"'|~priority\b|Session\.state\b|Testenv\.jobs\b'
admission="$admission"'|\bCASPER_(EXEC_QUEUE|EXEC_CONCURRENCY|JOBS)\b|cache-budget'
if grep -rnE "$admission" --include='*.ml' --include='*.mli' --include='dune' \
    lib bin bench test; then
  echo "a deleted session admission policy or CASPER_* knob reappeared"
  fail=1
fi

# Each memory bound has one owner: the spill budget bounds a grouped
# stage, the cache's own budget bounds the cache. The session's byte
# ledger, the engine's cache-pressure eviction, the cost model's
# cached-input term and the per-job cluster override are gone.
memory='\b(ledger_bytes|ledger_high_water|shrink_to|pressure_evictions)\b'
memory="$memory"'|\b(cached_input|w_read|dataset_bytes|j_cluster)\b'
if grep -rnE "$memory" --include='*.ml' --include='*.mli' \
    lib bin bench test; then
  echo "a deleted memory-bound mechanism reappeared"
  fail=1
fi

# One verifier: the combiner licence is judged once, in Cost, and each
# phase's states are named once, in Verifier.states. The unused phase
# entry points, the threaded ϵ closure and the search's state-count
# fields are gone.
verifier='\b(bounded_check|full_verify|reduce_eps|bounded_states|full_states)\b'
if grep -rnE "$verifier" --include='*.ml' --include='*.mli' \
    lib bin bench test; then
  echo "a deleted verifier entry point or state knob reappeared"
  fail=1
fi

# One combiner rule: a reduction combines exactly when its plan stage
# says comm_assoc, and the nominal bound on a combined shuffle is
# derived in the time model. The always-on cluster flag and the stored
# per-stage cap are gone.
combiner='\bshuffle_cap_bytes\b|\bCluster\.combiner\b|\bcombiner = (true|false)\b'
if grep -rnE "$combiner" --include='*.ml' --include='*.mli' \
    lib bin bench test examples; then
  echo "a deleted combiner knob or stored shuffle cap reappeared"
  fail=1
fi

# The engine owns its config, and the dataset cache keys a run by the
# plan object's identity: the separate config module, the cached-run
# mirror record, the engine's context mirror, the structural lineage
# key, the test-only monitor stage with its cacheability check, and the
# shuffle count only a test read are gone.
identity='\b(Exec_config|cached_run|exec_ctx|skeleton_hash|plan_equal|equal_key)\b'
identity="$identity"'|\b(Sample_monitor|cacheable|shuffle_count)\b'
if grep -rnE "$identity" --include='*.ml' --include='*.mli' --include='dune' \
    lib bin bench test examples; then
  echo "a deleted config module, lineage key or monitor stage reappeared"
  fail=1
fi

# The search keeps no verdicts: no candidate is judged twice on the same
# evidence, so the Φ-pass memo, the bounded and full verdict caches, the
# Φ check's dead-set lookups and their counters are gone; the cell
# counts live in the search's probe sets. Obs keeps counters only, and
# there is no loop-normalization pass.
memos='\b(phi_passed|bounded_verdicts|full_verdicts|verdict_hits|phi_hits|family_hits)\b'
memos="$memos"'|\b(holds_on_cached|phi_memo_hits|verdict_memo_hits|phi_family_hits)\b'
memos="$memos"'|\b(Fastpath|set_gauge|Loopnorm)\b'
if grep -rnE "$memos" lib bin bench test examples; then
  echo "a deleted search cache, its counter, Fastpath, Obs gauges or Loopnorm reappeared"
  fail=1
fi

# One evaluator: the search evaluates the IR through Eval only. Memo's
# memoized evaluator with its wrapped envs, the element-env cache, the
# emit-fingerprint cache, the summary interner and the counters only
# they fed are gone.
evals='\b(meval|cenv|map_elt_envs|elt_envs_tbl|apply_lam_m_c|stage_pipeline)\b'
evals="$evals"'|\b(phys_prefix|emit_fp_tbl|memo_eval_hits|memo_eval_misses)\b'
evals="$evals"'|\b(summary_id|p_cenv)\b'
if grep -rnE "$evals" lib bin bench test examples; then
  echo "a deleted memoized evaluator, its caches or its counters reappeared"
  fail=1
fi

# The engine runs λm through one kernel, Eval.push_lam_m, which hands
# each emit to the next stage as it fires; the list-returning kernel it
# replaced is gone.
if grep -rnE '\bstage_lam_m\b' lib bin bench test examples; then
  echo "the deleted list-returning λm kernel reappeared"
  fail=1
fi

# Domains are spawned in lib/par only, by Par.spawn: a domain left
# waiting elsewhere would slow every stop-the-world minor collection
# (DESIGN.md §10). Tests are exempt.
if grep -rn 'Domain\.spawn' --include='*.ml' --include='*.mli' \
    lib bin bench examples perfbench | grep -v '^lib/par/'; then
  echo "Domain.spawn outside lib/par"
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "hygiene check FAILED"
  exit 1
fi
echo "hygiene check OK ($(echo "$files" | wc -l) files)"
