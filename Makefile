# Convenience targets for the SafeFlow workspace.
#
# `make smoke` is the pre-merge gate for the parallel engine: a release
# build, the full test suite, and a determinism spot-check that compares
# CLI reports at two thread counts byte-for-byte on the whole corpus.

CARGO ?= cargo
SAFEFLOW = target/release/safeflow

.PHONY: all help build test lint bench sfbench bench-check bench-serve smoke serve-smoke policy-smoke require-release oracle-smoke oracle-deep metrics-demo incremental-demo fuzz-smoke golden clean

# One line per target; kept in sync by hand when targets change.
help:
	@echo "SafeFlow make targets:"
	@echo "  build            release build of the whole workspace"
	@echo "  test             cargo test -q (full suite)"
	@echo "  lint             rustfmt --check + clippy -D warnings (incl. sfbench)"
	@echo "  bench            paper-evaluation benches (cargo bench)"
	@echo "  sfbench          BENCHMARK.json workload W (default cold), traced"
	@echo "                   per-layer run, seed 1, 20 s"
	@echo "  bench-check      exact work counters of the benchmark corpus"
	@echo "                   (cold and two one-line edits; SCCs hashed,"
	@echo "                   summaries and body passes, restriction checks,"
	@echo "                   solver calls, store invalidations; the context"
	@echo "                   engine's contexts and body passes) against pinned"
	@echo "                   values, and the allocation budgets of the frontend"
	@echo "                   and of a whole cold check on it, plus that check's"
	@echo "                   peak-bytes budget (live heap above its input) and"
	@echo "                   the growth of its peak bytes per LOC from 6 to 36"
	@echo "                   branches per stage"
	@echo "  bench-serve      daemon latency + overload drill -> BENCH_serve.json"
	@echo "  fuzz-smoke       long parser/lexer robustness fuzz run"
	@echo "  oracle-smoke     64-seed differential oracle, both engines (CI gate)"
	@echo "  oracle-deep      512-seed oracle sweep with minimization"
	@echo "  serve-smoke      daemon drill: 32 concurrent clients, injected"
	@echo "                   fault, byte-identity vs one-shot CLI, SIGKILL"
	@echo "  policy-smoke     3-label mixed-criticality example through all"
	@echo "                   implicit-flow modes, diffed against goldens;"
	@echo "                   both engines agree on every policy example"
	@echo "  smoke            pre-merge gate: lint+build+test+determinism"
	@echo "  metrics-demo     Table 1 with the observability layer on"
	@echo "  incremental-demo incremental-session store lifecycle walk"
	@echo "  golden           regenerate golden report snapshots"
	@echo "  clean            cargo clean"

all: build

build:
	$(CARGO) build --release

test:
	$(CARGO) test -q

# sfbench/ is a workspace of its own, so it is linted by manifest path:
# a core API change must not break the benchmark unnoticed.
lint:
	$(CARGO) fmt --all --check
	$(CARGO) clippy --workspace --all-targets -- -D warnings
	$(CARGO) fmt --check --manifest-path sfbench/Cargo.toml
	$(CARGO) clippy --offline --all-targets --manifest-path sfbench/Cargo.toml -- -D warnings

bench:
	$(CARGO) bench -q -p safeflow-bench

# One traced run of a BENCHMARK.json workload (cold, warm_noop, warm_edit
# or findings): prints per-layer medians and, last, one JSON line. The
# sfbench package is a workspace of its own, built from this checkout.
W ?= cold
sfbench:
	$(CARGO) run --release --offline --manifest-path sfbench/Cargo.toml -- \
	  --workload $(W) --seed 1 --seconds 20 --trace 1

# The benchmark's work counters (SCCs hashed, summaries recomputed, passes
# over function bodies, functions restriction-checked, solver calls, store
# invalidations, and the context-sensitive engine's contexts, rounds and
# body passes) are pure functions of its input, so they are gated
# exactly, where wall time cannot be. A change that lowers one on purpose
# updates the pinned value. The allocation counts of the frontend and of a
# whole cold check on the same corpus are exact too, and are held under a
# budget, as are the check's peak live bytes.
bench-check:
	$(CARGO) test --release -q -p safeflow --test monorepo bench_corpus_
	$(CARGO) test --release -q -p safeflow --test frontend_allocs
	$(CARGO) test --release -q -p safeflow --test analysis_allocs

# Daemon latency trajectory: warm-path (store replay) vs cold-path p50/p99
# over loopback, plus a 4x-overload shedding drill against a bounded
# queue. Rewrites the checked-in BENCH_serve.json artifact (schema locked
# by crates/bench/tests/bench_schema.rs).
bench-serve:
	$(CARGO) run --release -q -p safeflow-bench --bin bench-serve -- $(BENCH_ARGS)

# Run-only targets must never fall back to a silent debug rebuild: they
# fail fast with instructions when the release binaries are missing.
require-release:
	@test -x $(SAFEFLOW) || { \
	  echo "error: $(SAFEFLOW) is missing or stale — run \`make build\` first"; \
	  echo "       (smoke's determinism and warm-replay checks must run the"; \
	  echo "        release build, never an implicit debug rebuild)"; \
	  exit 1; }

# Process-level daemon drill: start a release daemon with one injected
# protocol fault, drive 32 concurrent clients, assert every report is
# byte-identical to the one-shot CLI, SIGKILL it, restart warm from the
# store, and drain cleanly. The harness is crates/serve/src/bin/serve-smoke.rs.
serve-smoke: require-release
	@test -x target/release/serve-smoke || { \
	  echo "error: target/release/serve-smoke is missing — run \`make build\` first"; \
	  exit 1; }
	target/release/serve-smoke $(SAFEFLOW)

# Regenerate the golden report snapshots (clean + degraded) after an
# intentional change.
golden:
	UPDATE_GOLDEN=1 $(CARGO) test -q -p safeflow --test golden
	UPDATE_GOLDEN=1 $(CARGO) test -q -p safeflow --test faults

# Longer run of the parser-robustness fuzz smoke test (the same cases run
# at a small count on every `cargo test`).
fuzz-smoke:
	FUZZ_CASES=2000 $(CARGO) test -q -p safeflow-syntax --test fuzz_smoke

# Differential oracle, CI window: a fixed 64-seed sweep cross-checking
# the parallel, warm-cache, store-replay, and incremental configurations
# against the naive reference analyzer, and the context-sensitive
# engine's findings against the reference's (320 comparisons). Seeds
# draw macro-enabled shapes (function-like macros, config conditionals)
# since ISSUE 8. Exit 0 =
# zero divergences; the oracle's own output is byte-identical across runs
# and --jobs (locked by crates/cli/tests/cli.rs).
oracle-smoke: require-release
	$(SAFEFLOW) oracle --seeds 0..64
	@echo "oracle-smoke OK: 64 seeds (incl. macro-enabled shapes), 5 configurations incl. the context engine, zero divergences"

# Wider overnight sweep with minimization: any divergence is shrunk and
# written under /tmp/safeflow-oracle-repros for triage (promote keepers
# into tests/oracle-repros/).
oracle-deep: require-release
	$(SAFEFLOW) oracle --seeds 0..512 --minimize --repro-dir /tmp/safeflow-oracle-repros
	@echo "oracle-deep OK: 512 seeds, zero divergences"

# Label-lattice policy gate: the 3-label mixed-criticality example runs
# under every --implicit-flow mode and must match its checked-in golden
# byte-for-byte (strict promotes the control-only finding, taint-only
# drops it, report-separately keeps it distinct). The JSON run pins the
# safeflow-report-v2 schema with per-finding label/flow_kind fields; its
# trailing metrics block is volatile (timings, pool scheduling) and is
# stripped before the diff, per the observability contract.
# Goldens live in tests/policy-goldens/; regenerate by re-running the
# same commands by hand after an intentional report change.
# Then every policy example runs under both phase-3 engines in every mode,
# and the two reports, flow lines stripped (the summary engine's flows are
# coarser), must match.
POLICY_EXAMPLES := mixed_criticality lateral_declassify
policy-smoke: require-release
	$(SAFEFLOW) --implicit-flow strict examples/policy/mixed_criticality.c \
	  > /tmp/safeflow-policy-strict.txt; test $$? -eq 2
	cmp /tmp/safeflow-policy-strict.txt tests/policy-goldens/strict.txt
	$(SAFEFLOW) --implicit-flow taint-only examples/policy/mixed_criticality.c \
	  > /tmp/safeflow-policy-taint-only.txt; test $$? -eq 2
	cmp /tmp/safeflow-policy-taint-only.txt tests/policy-goldens/taint-only.txt
	$(SAFEFLOW) --implicit-flow report-separately examples/policy/mixed_criticality.c \
	  > /tmp/safeflow-policy-separate.txt; test $$? -eq 2
	cmp /tmp/safeflow-policy-separate.txt tests/policy-goldens/report-separately.txt
	$(SAFEFLOW) --implicit-flow report-separately --format json \
	  examples/policy/mixed_criticality.c \
	  | sed '/^  "metrics": {$$/,$$d' \
	  > /tmp/safeflow-policy-separate.json
	cmp /tmp/safeflow-policy-separate.json tests/policy-goldens/report-separately.json
	@for ex in $(POLICY_EXAMPLES); do \
	  for mode in strict taint-only report-separately; do \
	    for engine in context summary; do \
	      $(SAFEFLOW) --engine $$engine --implicit-flow $$mode examples/policy/$$ex.c \
	        | grep -v -e '^ *source: ' -e '^ *then: ' \
	        > /tmp/safeflow-policy-$$ex-$$mode-$$engine.txt; \
	    done; \
	    cmp /tmp/safeflow-policy-$$ex-$$mode-context.txt \
	      /tmp/safeflow-policy-$$ex-$$mode-summary.txt || exit 1; \
	  done; \
	done
	@echo "policy-smoke OK: all three implicit-flow modes match their goldens, and both engines agree on every policy example"

# Lint + build + test + determinism at two thread counts: the summary
# engine's corpus reports must be byte-identical at --jobs 1 and --jobs 8.
# (The `--format json` byte-identity contract, with volatile metric
# sections stripped, is covered by crates/core/tests/observability.rs.)
# incremental-demo is the CLI-level check that a session hands its summary
# table to the store and back: an edit hits the stored summaries.
smoke: lint build test oracle-smoke serve-smoke policy-smoke incremental-demo
	@$(MAKE) --no-print-directory require-release
	$(SAFEFLOW) --engine summary --jobs 1 --fig2 > /tmp/safeflow-smoke-j1.txt || true
	$(SAFEFLOW) --engine summary --jobs 8 --fig2 > /tmp/safeflow-smoke-j8.txt || true
	cmp /tmp/safeflow-smoke-j1.txt /tmp/safeflow-smoke-j8.txt
	$(SAFEFLOW) --engine summary --jobs 1 --table1 > /tmp/safeflow-smoke-t1-j1.txt
	$(SAFEFLOW) --engine summary --jobs 8 --table1 > /tmp/safeflow-smoke-t1-j8.txt
	cmp /tmp/safeflow-smoke-t1-j1.txt /tmp/safeflow-smoke-t1-j8.txt
	# Degradation contract: a fault-injected run (panic in SCC 0's task)
	# must stay deterministic across thread counts and exit 3.
	$(SAFEFLOW) --engine summary --inject scc:0 --jobs 1 --fig2 > /tmp/safeflow-smoke-fault-j1.txt; \
	  test $$? -eq 3
	$(SAFEFLOW) --engine summary --inject scc:0 --jobs 8 --fig2 > /tmp/safeflow-smoke-fault-j8.txt; \
	  test $$? -eq 3
	cmp /tmp/safeflow-smoke-fault-j1.txt /tmp/safeflow-smoke-fault-j8.txt
	# Same for a panic in every restriction check (phase 2's pool tasks):
	# each of fig2's three checked functions degrades, at any thread count.
	$(SAFEFLOW) --inject solver:panic --jobs 1 --fig2 > /tmp/safeflow-smoke-solver-j1.txt; \
	  test $$? -eq 3
	$(SAFEFLOW) --inject solver:panic --jobs 8 --fig2 > /tmp/safeflow-smoke-solver-j8.txt; \
	  test $$? -eq 3
	cmp /tmp/safeflow-smoke-solver-j1.txt /tmp/safeflow-smoke-solver-j8.txt
	test "$$(grep -c 'restriction checks panicked' /tmp/safeflow-smoke-solver-j1.txt)" -eq 3
	# Incremental sessions: a warm no-change `check` run against a store
	# must replay the cold run's report byte-for-byte at any --jobs.
	rm -rf /tmp/safeflow-smoke-store /tmp/safeflow-smoke-src
	mkdir -p /tmp/safeflow-smoke-src
	cp examples/incremental/core.c examples/incremental/util.c /tmp/safeflow-smoke-src/
	cd /tmp/safeflow-smoke-src && $(CURDIR)/$(SAFEFLOW) check core.c util.c \
	  --store /tmp/safeflow-smoke-store --jobs 1 > /tmp/safeflow-smoke-cold.txt; test $$? -eq 2
	cd /tmp/safeflow-smoke-src && $(CURDIR)/$(SAFEFLOW) check core.c util.c \
	  --store /tmp/safeflow-smoke-store --jobs 8 > /tmp/safeflow-smoke-warm.txt; test $$? -eq 2
	cmp /tmp/safeflow-smoke-cold.txt /tmp/safeflow-smoke-warm.txt
	@echo "smoke OK: reports byte-identical at --jobs 1 and --jobs 8 (incl. fault-injected + warm replay)"

# Reproduce the paper's Table 1 with the observability layer on: per-phase
# timings, solver/taint counters, and summary-cache statistics.
metrics-demo: require-release
	$(SAFEFLOW) --table1 --metrics

# Walk the incremental-session lifecycle on examples/incremental: a cold
# run populates the store, editing one unit re-analyzes only the dirty
# SCC region (cache hits + store invalidations in the metrics), and an
# unchanged rerun replays the manifest without analyzing anything.
incremental-demo: require-release
	rm -rf /tmp/safeflow-demo-store /tmp/safeflow-demo-src
	mkdir -p /tmp/safeflow-demo-src
	cp examples/incremental/core.c examples/incremental/util.c /tmp/safeflow-demo-src/
	@echo "== cold run: populates the store =="
	cd /tmp/safeflow-demo-src && $(CURDIR)/$(SAFEFLOW) check core.c util.c \
	  --store /tmp/safeflow-demo-store --metrics=json > /tmp/safeflow-demo-cold.txt; \
	  test $$? -eq 2
	grep -q '"store.manifest_misses": 1' /tmp/safeflow-demo-cold.txt
	@grep -E '"(store|summary)\.[a-z_]+":' /tmp/safeflow-demo-cold.txt
	@echo "== edit util.c: only the dirty SCC region re-analyzes =="
	sed -i 's/x + 1/x + 2/' /tmp/safeflow-demo-src/util.c
	cd /tmp/safeflow-demo-src && $(CURDIR)/$(SAFEFLOW) check core.c util.c \
	  --store /tmp/safeflow-demo-store --metrics=json > /tmp/safeflow-demo-edit.txt; \
	  test $$? -eq 2
	grep -q '"summary.cache_hits": 2' /tmp/safeflow-demo-edit.txt
	grep -q '"store.sccs_invalidated": 2' /tmp/safeflow-demo-edit.txt
	@grep -E '"(store|summary)\.[a-z_]+":' /tmp/safeflow-demo-edit.txt
	@echo "== unchanged rerun: whole-program replay, zero SCCs re-analyzed =="
	cd /tmp/safeflow-demo-src && $(CURDIR)/$(SAFEFLOW) check core.c util.c \
	  --store /tmp/safeflow-demo-store --metrics=json > /tmp/safeflow-demo-warm.txt; \
	  test $$? -eq 2
	grep -q '"store.manifest_hits": 1' /tmp/safeflow-demo-warm.txt
	@grep -E '"(store|summary)\.[a-z_]+":' /tmp/safeflow-demo-warm.txt
	@echo "incremental-demo OK: dirty-region re-analysis + whole-program replay"

clean:
	$(CARGO) clean
