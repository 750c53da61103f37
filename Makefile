# Convenience targets for the reproduction.

PYTHON ?= python

.PHONY: install test lint bench bench-session faults guard chaos chaos-smoke corruption-smoke scrub meta meta-smoke service report examples clean

# Meta-campaign knobs for `make meta` (override on the command line).
META_SEEDS ?= 2
META_CANDIDATES ?= 4
META_NMAX ?= 30

# Chaos knobs for `make chaos` (override on the command line).
CHAOS_RATE ?= 0.5
CHAOS_HANG_RATE ?= 0.2
CHAOS_SEED ?= 7
CHAOS_PLANS ?= 13

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/
	$(PYTHON) -m pytest -x -q tests/reliability

test-fast:
	$(PYTHON) -m pytest tests/ -x -q -m "not slow"

# Import-graph discipline (no runtime cycles, no TYPE_CHECKING-hidden
# internal imports) and a dead-code sweep over the whole package.
lint:
	$(PYTHON) -m repro.devtools.lint

# --benchmark-only deselects the plain perf-regression suites, so run
# them explicitly; they write benchmarks/results/BENCH_ml.json,
# BENCH_session.json and BENCH_service.json and fail on >25%
# regressions vs the committed baselines (override with
# REPRO_BENCH_ALLOW_REGRESSION=1 when rebaselining on new hardware).
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only
	$(PYTHON) -m pytest benchmarks/test_perf_ml.py -q -s
	$(PYTHON) -m pytest benchmarks/test_perf_session.py -q -s
	$(PYTHON) -m pytest benchmarks/test_perf_service.py -q -s

# Full-session macro-benchmark: batched engine + native kernels vs the
# reconstructed PR-2-era serial session (trace-identical by assertion),
# with the >=5x native / >=2.5x NumPy-fallback floors and the 25%
# regression gate vs the committed BENCH_session.json.
bench-session:
	$(PYTHON) -m pytest benchmarks/test_perf_session.py -q -s

faults:
	$(PYTHON) -m pytest -x -q benchmarks/test_ablations.py::test_fault_ablation --benchmark-only

# Negative-transfer guardrails: adversarial sources x guard on/off,
# written to benchmarks/results/ablation_guard.txt (journaled grid,
# REPRO_RESUME applies).
guard:
	$(PYTHON) -m pytest -x -q benchmarks/test_ablations.py::test_negative_transfer --benchmark-only

# Full chaos gauntlet: (1) the executor test suite under amplified
# deterministic worker kills and hangs (REPRO_CHAOS_* injection), (2) a
# seeded cross-layer chaos campaign — CHAOS_PLANS seeds x two
# intensities, each cell running search+grid+service under composed
# evaluator/worker/filesystem/deadline faults and verified against the
# crash-consistency oracle — then (3) the tier-1 suite to prove the
# chaos run left nothing broken behind.
chaos:
	REPRO_CHAOS_RATE=$(CHAOS_RATE) REPRO_CHAOS_HANG_RATE=$(CHAOS_HANG_RATE) \
		REPRO_CHAOS_SEED=$(CHAOS_SEED) \
		$(PYTHON) -m pytest -x -q tests/exec
	$(PYTHON) -m repro.chaos.campaign --seeds $(CHAOS_PLANS)
	$(PYTHON) -m pytest -x -q tests/

# Bounded (<60s asserted in-test) chaos smoke: two full oracle cells
# mixing all five fault layers — the tier-1-friendly slice of `make
# chaos`.
chaos-smoke:
	$(PYTHON) -m pytest -x -q tests/chaos/test_smoke.py

# Bounded bit-rot smoke: oracle cells whose plans are checked to cover
# bit-flip, mid-file truncate, and flip-during-compaction against the
# registry/store/checkpoints — the tier-1-friendly slice of the
# silent-corruption layer.
corruption-smoke:
	$(PYTHON) -m pytest -x -q tests/chaos/test_corruption_smoke.py

# Offline integrity pass: verify CRC32 framing of every journal under
# benchmarks/results/ (and the meta campaign registry), quarantining
# damaged records to .quarantine sidecars and reporting salvage
# provenance.  `--check` would report without rewriting.
scrub:
	$(PYTHON) -m repro.exec.scrub benchmarks/results

# The self-meta-tuning campaign: search TunerSpec knobs over
# (kernel, machine-pair) cells through the journaled grid and write the
# recommendation artifacts (benchmarks/results/meta_recommendations.*).
# Journaled under benchmarks/results/registry/, so a killed campaign
# resumes with zero re-executed cells (REPRO_RESUME applies).
meta:
	$(PYTHON) -m repro.meta.campaign --seeds $(META_SEEDS) \
		--candidates $(META_CANDIDATES) --nmax $(META_NMAX) \
		--registry benchmarks/results/registry/meta.jsonl

# Bounded meta-tuning smoke: a tiny meta-grid run as a subprocess,
# SIGKILLed mid-campaign, and resumed with zero re-executed cells —
# the tier-1-friendly slice of `make meta`.
meta-smoke:
	$(PYTHON) -m pytest -x -q tests/meta/test_smoke.py

# The tuning-service robustness suite: multi-tenant load (latency
# percentiles vs the committed BENCH_service.json baseline) plus the
# SIGKILL/recovery and fault-injection chaos tests.
service:
	$(PYTHON) -m pytest -x -q tests/service
	$(PYTHON) -m pytest benchmarks/test_perf_service.py -q -s

report:
	$(PYTHON) -m repro report --output EXPERIMENTS.generated.md

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/codegen_tour.py
	$(PYTHON) examples/cross_architecture_study.py
	$(PYTHON) examples/compiler_flag_tuning.py
	$(PYTHON) examples/beyond_the_paper.py

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
