# Convenience targets for the ElMem reproduction.

PYTHON ?= python

.PHONY: install test test-fast bench report examples clean

install:
	pip install -e . || $(PYTHON) -c "import site,os;open(os.path.join(site.getsitepackages()[0],'repro-dev.pth'),'w').write(os.path.abspath('src'))"

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow" -x -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

report:
	$(PYTHON) -m repro report

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/fusecache_demo.py
	$(PYTHON) examples/migration_comparison.py
	$(PYTHON) examples/diurnal_autoscaling.py
	$(PYTHON) examples/protocol_server.py --smoke

clean:
	rm -rf .pytest_cache .hypothesis benchmarks/e2e/out build *.egg-info src/*.egg-info
	rm -f benchmarks/out/obs_overhead*.txt
	find . -name __pycache__ -type d -exec rm -rf {} +
