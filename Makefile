# Developer entry points.  `make verify` is the pre-merge gate: the full
# tier-1 suite (the two source rules, tests/test_source_rules.py,
# included), the golden differential check, the metrics exporter
# selftest, the end-to-end benchmark smoke and the reduced scenario matrix
# CI gates on, with its float32 precision gate (docs/TESTING.md).

PY := PYTHONPATH=src python

.PHONY: verify test fast golden-check golden-record bench bench-full \
        bench-check scale-smoke bench-scale-full metrics-selftest \
        telemetry serve-smoke e2e-smoke e2e-compare e2e-pairs e2e-neutral \
        sanitize-test scenarios scenarios-check scenarios-ci examples-smoke

test:
	$(PY) -m pytest -x -q

fast:
	$(PY) -m pytest -x -q -m "not slow" $(PYTEST_ARGS)

golden-check:
	$(PY) -m repro.cli golden check

golden-record:
	$(PY) -m repro.cli golden record

# Smoke-mode training benchmarks: exercises every case + the JSON
# round-trip in seconds without touching the committed results
# (docs/PERFORMANCE.md).
bench:
	$(PY) -m repro.cli bench --suite train --smoke --out /tmp/repro-bench

# Full-size run that refreshes the committed BENCH_train.json.
bench-full:
	$(PY) -m repro.cli bench --suite train

# Compare a fresh full-size run against the committed baseline without
# overwriting it; host mismatches warn instead of fail.
bench-check:
	$(PY) -m repro.cli bench --suite train --check

# Scale suite (docs/PERFORMANCE.md): streamed lazy-world compressed days
# at growing customer counts, each cell in its own subprocess for a clean
# ru_maxrss.  scale-smoke runs the 10k/100k cells at 30 minutes and
# compares against the committed BENCH_scale.json (host mismatches and
# smoke runs demote to warnings); -full runs all three cells (incl. 1M) at
# the full compressed day and refreshes the committed baseline.  The
# memory gates (every cell under 512 MB, 1M within 2x of 100k) fail both.
scale-smoke:
	$(PY) -m repro.cli bench --suite scale --smoke --check

bench-scale-full:
	$(PY) -m repro.cli bench --suite scale

# Scenario matrix (docs/TESTING.md): every registered paper/adversarial/
# drift scenario through all four detector lanes.  `scenarios` refreshes
# the committed SCENARIOS.json baseline (~5 min); `scenarios-check`
# re-runs and compares without overwriting; `scenarios-ci` is the reduced
# deterministic subset CI gates on (~1 min).
scenarios:
	$(PY) -m repro.cli scenarios run

scenarios-check:
	$(PY) -m repro.cli scenarios check

scenarios-ci:
	$(PY) -m repro.cli scenarios check --ci

# Example smoke (examples/README.md): the four examples that reach the
# streamed and persisted paths must run to completion (~35 s together),
# with TMPDIR set to one fresh directory that must be empty afterwards: an
# example that leaves temporary files behind fails.
EXAMPLES_SMOKE := reproducible_workflow quickstart online_deployment why_xatu_works
examples-smoke:
	set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for ex in $(EXAMPLES_SMOKE); do \
	    echo "== examples/$$ex.py"; TMPDIR=$$tmp $(PY) examples/$$ex.py; \
	done; \
	if [ -n "$$(ls -A "$$tmp")" ]; then \
	    echo "examples left files in TMPDIR:"; ls -A "$$tmp"; exit 1; \
	fi

# Telemetry (docs/OBSERVABILITY.md): exporter selftest, and a pipeline
# run that writes a full snapshot to /tmp/repro-telemetry.json.
metrics-selftest:
	$(PY) -m repro.cli metrics --selftest

telemetry:
	$(PY) -m repro.cli pipeline --epochs 2 --telemetry /tmp/repro-telemetry.json
	$(PY) -m repro.cli metrics /tmp/repro-telemetry.json

# Serving-engine smoke (docs/SERVING.md): the same replayed deployment
# three times — once uninterrupted, then with an induced crash + restore at
# minute 180 on the inline and on the process backend (where the
# deployment-digest check runs inside forked shards) — each restarted
# stream byte-compared against the first (the crash-equivalence guarantee).
serve-smoke:
	rm -rf /tmp/repro-serve && mkdir -p /tmp/repro-serve
	$(PY) -m repro.cli serve --days 3 --customers 6 --epochs 1 --shards 2 \
	    --threshold 0.95 --alerts-out /tmp/repro-serve/alerts-base.json
	$(PY) -m repro.cli serve --days 3 --customers 6 --epochs 1 --shards 2 \
	    --threshold 0.95 --checkpoint-dir /tmp/repro-serve/ckpt \
	    --checkpoint-every 60 --restart-at 180 \
	    --telemetry /tmp/repro-serve/telemetry.json \
	    --alerts-out /tmp/repro-serve/alerts-restart.json
	cmp /tmp/repro-serve/alerts-base.json /tmp/repro-serve/alerts-restart.json
	$(PY) -m repro.cli serve --days 3 --customers 6 --epochs 1 --shards 2 \
	    --threshold 0.95 --backend process --checkpoint-dir /tmp/repro-serve/ckpt-process \
	    --checkpoint-every 60 --restart-at 180 \
	    --alerts-out /tmp/repro-serve/alerts-process.json
	cmp /tmp/repro-serve/alerts-base.json /tmp/repro-serve/alerts-process.json
	@echo "crash-equivalence holds: alert streams byte-identical (inline and process)"

# End-to-end benchmark smoke (benchmarks/e2e/README.md): the tracer patches
# its 29 TARGETS callables by name, so a deleted or renamed one fails here
# (and so in `make verify`) rather than in the bench pipeline.
e2e-smoke:
	$(PY) -m pytest benchmarks/e2e -q

# Regression sweep for a perf PR (docs/TESTING.md): the full e2e suite on
# the working tree, then the per-metric diff against BASE — by default the
# committed trajectory point benchmarks/results/BENCH_e2e.json (the last
# perf-affecting PR's `--suite` report, host block included), or the
# report the same command wrote in a clone of the parent commit
# (`python3 benchmarks/e2e/run.py --suite --out parent.json` there).
# A BASE from another host warns: its timings then say nothing, its exact
# counts and alert digests (`differs` lines) still must match.
E2E_OUT ?= /tmp/repro-e2e/change.json
BASE ?= benchmarks/results/BENCH_e2e.json
# The host rule is repro.bench.harness.host_differences, the one `bench
# --check` applies too.
define E2E_HOST_DIFF
import json, sys
from repro.bench.harness import host_differences
hosts = [next(iter(json.load(open(p))["workloads"].values()))["untraced"]["info"]["host"] for p in sys.argv[1:]]
differ = host_differences(*hosts)
if differ: print(f"e2e-compare: warning: {sys.argv[1]} was recorded on another host ({', '.join(differ)} differ): read the counts and digests below, not the timings")
endef
export E2E_HOST_DIFF
e2e-compare:
	mkdir -p $(dir $(E2E_OUT))
	python3 benchmarks/e2e/run.py --suite --out $(E2E_OUT)
	@$(PY) -c "$$E2E_HOST_DIFF" $(BASE) $(E2E_OUT)
	python3 benchmarks/e2e/run.py --compare $(BASE) $(E2E_OUT)

# The claim procedure for a perf PR (docs/TESTING.md): N alternating
# parent/change runs of one workload, each side's median and quartiles per
# end-to-end metric, wins/ties, and whether the median gap exceeds the
# parent's inter-quartile distance.  Non-zero if any run was not correct.
# LAYERS=share.checkpoint,... adds a traced run per side per pair and prints
# those per-layer medians under the table (never part of the verdict).
WORKLOAD ?= fleet_score
N ?= 10
SEED ?= 7
e2e-pairs:
	@test -n "$(PARENT)" || { echo "usage: make e2e-pairs PARENT=<parent checkout> [WORKLOAD=fleet_score N=10 SEED=7 LAYERS=<per-layer metrics>]"; exit 2; }
	python3 benchmarks/pairs.py --parent $(PARENT) --workload $(WORKLOAD) -n $(N) --seed $(SEED) $(if $(LAYERS),--trace-layers $(LAYERS)) $(if $(OUT),--out $(OUT))

# The same procedure for a PR that claims no gain (docs/TESTING.md): PAIRS
# alternating pairs of every BENCHMARK.json workload, and per end-to-end
# metric ok / worse than bound / unresolved.  Non-zero on any metric worse
# than its bound or any run that was not correct.
PAIRS ?= 3
e2e-neutral:
	@test -n "$(PARENT)" || { echo "usage: make e2e-neutral PARENT=<parent checkout> [PAIRS=3 SEED=7]"; exit 2; }
	python3 benchmarks/pairs.py --parent $(PARENT) --neutral -n $(PAIRS) --seed $(SEED)

# Tier-1 suite under the runtime sanitizer: frozen tape buffers +
# NaN/inf kernel-boundary guards (docs/ANALYSIS.md).
sanitize-test:
	REPRO_SANITIZE=1 $(PY) -m pytest -x -q -m "not slow"

verify: test golden-check metrics-selftest e2e-smoke scenarios-ci
