# LightDAG reproduction — developer entry points.

PYTHON ?= python
# The src layout runs without `make install`, as CI's tier-1 step does.
export PYTHONPATH := src

.PHONY: install test loc bench bench-full pairs examples table1 figs clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

# benchmarks/suite's own tests are the only check that a src/ refactor
# has not broken the benchmark's frozen entry-point table.
test:
	$(PYTHON) -m pytest tests/
	$(PYTHON) -m pytest benchmarks/suite -q

# Lines per package: the acceptance number of every simplicity PR.
loc:
	@for d in src/repro/*/; do \
		printf '%7d %s\n' "$$(cat $$d*.py | wc -l)" "$$d"; \
	done
	@printf '%7d %s\n' "$$(cat src/repro/*.py | wc -l)" "src/repro/*.py"
	@printf '%7d %s\n' "$$(find src -name '*.py' | xargs cat | wc -l)" "total"

test-output:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-output:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

bench-full:
	REPRO_BENCH_SCALE=full $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Alternating parent/change pairs of one pinned-suite workload (W=all: every
# workload back to back, one table): the procedure behind every claimed
# gain (docs/PERFORMANCE.md §7).  LAYERS=1 adds one traced rep per side
# and the before/after layer rows.
W ?= sim_scale_n64
BASE ?= HEAD~1
N ?= 10
pairs:
	$(PYTHON) benchmarks/pairs.py --workload $(W) --base $(BASE) --pairs $(N) \
		$(if $(LAYERS),--layers)

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/byzantine_equivocation.py
	$(PYTHON) examples/wan_prototype.py
	$(PYTHON) examples/smr_service.py

table1:
	$(PYTHON) -m repro table1

figs:
	$(PYTHON) -m repro fig 12 --small
	$(PYTHON) -m repro fig 13 --small

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
