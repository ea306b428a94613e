# Developer entry points.  PYTHONPATH=src everywhere: the repo runs
# from a source checkout without installation.

PY := PYTHONPATH=src python
JOBS ?= 4

.PHONY: test bench e2e smoke-sweep campaigns \
	golden-refresh clean-cache

test:            ## tier-1 test suite
	$(PY) -m pytest -x -q

bench:           ## full benchmark suite (regenerates every figure)
	$(PY) -m pytest benchmarks/ --benchmark-only

e2e:             ## end-to-end benchmark: every workload, per-layer shares
	python3 e2ebench/e2e.py run

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
