# Developer entry points.  PYTHONPATH=src everywhere: the repo runs
# from a source checkout without installation.

PY := PYTHONPATH=src python
JOBS ?= 4

.PHONY: test bench perf perf-quick perf-baseline smoke-sweep campaigns \
	golden-refresh clean-cache

test:            ## tier-1 test suite
	$(PY) -m pytest -x -q

bench:           ## full benchmark suite (regenerates every figure)
	$(PY) -m pytest benchmarks/ --benchmark-only

perf:            ## full perf suite, gated against the committed baseline
	$(PY) -m repro perf run --out /tmp/BENCH_suite.json
	$(PY) -m repro perf compare --baseline BENCH_suite.json \
		/tmp/BENCH_suite.json

perf-quick:      ## quick perf smoke (the CI configuration, warn-only)
	$(PY) -m repro perf run --quick --out /tmp/BENCH_suite.json
	$(PY) -m repro perf compare --baseline BENCH_suite.json \
		/tmp/BENCH_suite.json --warn-only

perf-baseline:   ## deliberately refresh the committed BENCH_suite.json
	$(PY) -m repro perf run --out BENCH_suite.json
	@git --no-pager diff --stat BENCH_suite.json || true

smoke-sweep:     ## quick parallel sweep: figure 7 with 2 workers
	$(PY) -m repro figure7 --jobs 2

campaigns:       ## every SLO campaign in the table, each gated on its verdict
	for name in $$($(PY) -c "from repro.experiments.campaign import \
	CAMPAIGNS; print(*CAMPAIGNS)"); do \
		$(PY) -m repro campaign $$name --compare --jobs $(JOBS) \
			|| exit 1; \
	done

golden-refresh:  ## deliberately regenerate tests/golden/*.json
	$(PY) -m repro golden-refresh --no-cache
	@git --no-pager diff --stat tests/golden || true

clean-cache:     ## drop the persistent sweep cache
	rm -rf $${REPRO_CACHE_DIR:-$$HOME/.cache/repro/sweeps}
