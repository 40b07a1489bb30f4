# linecov.py: lines of src/superext that no test runs (stdlib only).
# Run from the repository root (about 5 min under tracing; tests/ only, as collecting perfbench/ needs BENCHMARK.json): PYTHONPATH=src:tools python -m pytest tests -q -p linecov
import os, sys, threading
SRC = os.path.abspath("src/superext") + os.sep
hit = {}
def trace(frame, event, arg):
    if not frame.f_code.co_filename.startswith(SRC):
        return None
    lines = hit.setdefault(frame.f_code.co_filename, set())
    def local(frame, event, arg):
        lines.add(frame.f_lineno)
        return local
    return local(frame, event, arg)
def code_lines(code):
    own = {line for _, _, line in code.co_lines() if line}
    return own.union(*(code_lines(c) for c in code.co_consts if hasattr(c, "co_lines")))
# trace from import on: tests/conftest.py imports superext before any pytest hook runs
sys.settrace(trace)
threading.settrace(trace)
def pytest_unconfigure(config):
    sys.settrace(None)
    for name in sorted(f for f in os.listdir(SRC) if f.endswith(".py")):
        missed = sorted(code_lines(compile(open(SRC + name).read(), SRC + name, "exec")) - hit.get(SRC + name, set()))
        print(f"{name}: {len(missed)} never run: {missed}", file=sys.stderr)
