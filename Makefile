# Tier-1 gate: everything a change must pass before it lands.
#   make check   build + full test suite + a fast end-to-end benchmark smoke

JOBS ?= 2
BENCH_JSON ?= BENCH_PR9.json

# CI gates stamped into $(BENCH_JSON): the quick-mode solved floor and
# the quick-mode total-nodes ceiling (see .github/workflows/check.yml).
# A quick sweep solves 48/50 at ~8.2M nodes locally; the two
# timeout-bound tasks scale with machine speed, so the ceiling leaves
# ~2x headroom.
CI_MIN_SOLVED ?= 45
CI_MAX_NODES ?= 16000000

.PHONY: all build test smoke ablation-smoke optimal-smoke serve-smoke router-smoke fault-smoke stream-smoke perfbench-smoke check bench-json trend clean

all: build

build:
	dune build @all

test:
	dune runtest

# Three benchmark tasks (one per domain) through the real CLI sweep, on a
# small dataset and a Domain pool — exercises synthesis, the interaction
# loop, and the parallel runner end to end in a few seconds.  An unknown
# task id is a usage error and must exit 2.
smoke: build
	./_build/default/bin/imageeye.exe sweep --tasks 1,17,30 --images 8 \
	  --timeout 30 --jobs $(JOBS)
	./_build/default/bin/imageeye.exe show 99; test $$? -eq 2

# An ablation row end to end through the CLI: with the fwd-bwd analysis
# off the smoke tasks must still solve and the JSON must record the
# config the sweep actually ran ("fwd_bwd": false); an unknown ablation
# name must list the table and exit non-zero.
ablation-smoke: build
	./_build/default/bin/imageeye.exe sweep --tasks 1,17,30 --images 8 \
	  --timeout 30 --jobs $(JOBS) --ablation no-fwd-bwd --json _build/ablation-smoke.json
	test "$$(jq .fwd_bwd _build/ablation-smoke.json)" = false
	! ./_build/default/bin/imageeye.exe sweep --tasks 1 --ablation bogus

# Cost-directed optimal search end to end through the CLI: the three
# smoke tasks must still all solve with --optimal, and the mean
# synthesized program size must stay at the first-consistent optimum
# (these tasks' minimal programs average 4.67 AST nodes; the ceiling
# leaves a third of a node of slack so the gate trips on any real
# quality regression, not on float formatting).
optimal-smoke: build
	./_build/default/bin/imageeye.exe sweep --tasks 1,17,30 --images 8 \
	  --timeout 30 --jobs $(JOBS) --optimal --min-solved 3 --max-mean-size 5.0

# Daemon lifecycle end to end: serve on a temp socket, a loadgen run, a
# deadline probe, a wire-driven session, adversarial probes (nesting
# bomb, oversized line), a graceful SIGTERM drain that must exit 0, then
# a loadgen run against the dead socket that must count 4 transport
# errors and exit non-zero.
serve-smoke: build
	bash scripts/serve_smoke.sh

# The sharded tier end to end: two daemons behind a consistent-hash
# router, mixed-op loadgen with percentile assertions, a worker
# SIGKILLed mid-run (degrade, don't fail), that worker restarted and
# serving its keys again after --retry-dead, and graceful drains.
router-smoke: build
	bash scripts/router_smoke.sh

# Hostile-input hardening: the deterministic fault-injection harness
# (torn frames, slow-loris, bombs, disconnects, overload shedding)
# plus the adversarial end-to-end smoke above.
fault-smoke: build
	dune exec test/test_faults.exe
	bash scripts/serve_smoke.sh

# The streaming tier end to end: a seeded drifting corpus, a program
# bootstrapped from its prefix, one forced mid-stream repair (the warm
# resume must beat a cold restart on synthesis nodes), the O(window)
# universe-cache bound, a byte-identical rerun, and the stream-apply
# op over the wire.
stream-smoke: build
	bash scripts/stream_smoke.sh

# The benchmark's own output checks on one stream pass (every frame
# streamed, the recorded edit digest, no mismatch after the last repair),
# one serve pass (synthesize over the wire on all three domains, every
# returned program checked against its demonstrations), one sweep pass
# (every solved program replayed on the task's full dataset, so the
# search's worklist and fwd-bwd fixpoint run end to end) and one
# sweep-optimal pass (every minimized program replayed the same way, so
# the optimal search's cost-bound hooks run end to end).  It fails only
# when perfbench exits non-zero; timings are printed, not gated.
perfbench-smoke:
	bash perfbench/run.sh --workload stream --seconds 1
	bash perfbench/run.sh --workload serve --seconds 1
	bash perfbench/run.sh --workload sweep --seconds 1
	bash perfbench/run.sh --workload sweep-optimal --seconds 1

check: build test smoke ablation-smoke optimal-smoke stream-smoke
	@echo "check OK"

# Benchmark trajectory for the committed before/after record: the full
# table-2 sweep runs twice — first-consistent synthesis first (optimal
# mode off; the baseline, embedded into the final document) then the
# cost-directed optimal search — writing $(BENCH_JSON) at the repo
# root, stamped with the quick-mode CI gates.
# Set IMAGEEYE_QUICK=1 for the CI-sized variant.
bench-json: build
	IMAGEEYE_OPTIMAL=0 \
	  ./_build/default/bench/main.exe table2 \
	  --json $(BENCH_JSON).baseline
	IMAGEEYE_OPTIMAL=1 \
	IMAGEEYE_JSON_BASELINE=$(BENCH_JSON).baseline \
	IMAGEEYE_JSON_CI_MIN_SOLVED=$(CI_MIN_SOLVED) \
	IMAGEEYE_JSON_CI_MAX_NODES=$(CI_MAX_NODES) \
	  ./_build/default/bench/main.exe table2 --json $(BENCH_JSON)
	rm -f $(BENCH_JSON).baseline

# Render the static perf-trend page from the committed history.
trend: build
	./_build/default/bin/imageeye.exe trend --history PERF_HISTORY.jsonl \
	  -o trend.html

clean:
	dune clean
