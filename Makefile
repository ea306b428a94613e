# Developer entry points.  PYTHONPATH=src everywhere: the repo runs
# from a source checkout without installation.

PY := PYTHONPATH=src python
JOBS ?= 4
SEED ?= 1
PAIRS ?= 10

.PHONY: test e2e pair smoke-sweep campaigns \
	golden-refresh clean-cache

test:            ## tier-1 test suite
	$(PY) -m pytest -x -q

e2e:             ## end-to-end benchmark: every workload, per-layer shares
	python3 e2ebench/e2e.py run

pair:            ## speed-up check: make pair BASE=<rev> WORKLOAD=<w>
	@test -n "$(BASE)" -a -n "$(WORKLOAD)" \
		|| { echo "usage: make pair BASE=<rev> WORKLOAD=<w>" \
			"[SEED=$(SEED)] [PAIRS=$(PAIRS)]"; exit 2; }
	@tmp=$$(mktemp -d); \
	git worktree add --detach $$tmp/base $(BASE) \
		|| { rmdir $$tmp; exit 1; }; \
	python3 e2ebench/e2e.py pair --base $$tmp/base --head . \
		--workload $(WORKLOAD) --seed $(SEED) --pairs $(PAIRS); \
		status=$$?; \
	git worktree remove --force $$tmp/base; rmdir $$tmp; exit $$status

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
