"""Guarantees that span modules: no bare asserts, one class for internal
failures, no private name read across modules, a line budget for src/,
no process-wide cache, no engine -> cli import, fresh file specs, and
loader errors reported in document indices."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from superext.cli import parse_spec
from superext.groups import GroupValidationError, from_cayley_document, make_cyclic, to_cayley_document

SRC = Path(__file__).resolve().parents[1] / "src"


def test_no_assert_statements_in_src():
    # invariant checks must survive python -O, which strips assert statements
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert found == []


def test_internal_failures_raise_invariant_error():
    # one failure class for internal checks: no bare RuntimeError or AssertionError is raised
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call) and getattr(exc.func, "id", None) in ("RuntimeError", "AssertionError"):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert found == []


def test_src_modules_use_every_name_they_import():
    # a deletion that leaves its import behind fails here, not in review
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.relative_to(SRC)}:{line} {name}" for name, line in imported.items() if name not in used]
    assert found == []


def private_reads_across_modules(root: Path) -> list[str]:
    """Each place a module under root reads a _-prefixed name of another
    superext module through from-import, or a _-prefixed attribute of
    anything but self or cls (another module, or an object it handed out)."""
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("superext")):
                private = [a.name for a in node.names if a.name.startswith("_") and not a.name.endswith("__")]
                found += [f"{path.relative_to(root)}:{node.lineno} {name}" for name in private]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id not in ("self", "cls")
                and node.attr.startswith("_")
                and not node.attr.endswith("__")
            ):
                found.append(f"{path.relative_to(root)}:{node.lineno} {node.value.id}.{node.attr}")
    return found


def test_group_validation_errors_pass_a_documented_kind():
    # kind is part of the error contract: each raise names one of the four kinds as a literal
    kinds = {"shape", "latin_square", "identity", "associativity"}
    calls, found = 0, []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            func = node.func if isinstance(node, ast.Call) else None
            if getattr(func, "id", getattr(func, "attr", None)) == "GroupValidationError":
                calls += 1
                kind = node.args[0] if node.args else next((k.value for k in node.keywords if k.arg == "kind"), None)
                if not (isinstance(kind, ast.Constant) and kind.value in kinds):
                    found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert calls > 0 and found == []


def test_src_reads_no_private_name_of_another_module():
    # a private helper called from another module is an entry point in disguise
    assert private_reads_across_modules(SRC) == []


def test_src_stays_within_its_line_budget():
    # the ceiling that the roadmap sets for src/superext once the oracle and the full catalog land
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in (SRC / "superext").glob("*.py"))
    assert lines <= 2508


def test_src_keeps_no_process_wide_cache():
    # caches live on the group they describe; a module-level memo outlives its groups
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.FunctionDef):
                for deco in node.decorator_list:
                    target = deco.func if isinstance(deco, ast.Call) else deco
                    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                    if name in ("lru_cache", "cache"):
                        found.append(f"{path.relative_to(SRC / 'superext')}:{node.lineno} {node.name}")
    assert found == []


def test_engine_does_not_import_cli():
    code = (
        "import sys, superext\n"
        "from superext import engine\n"
        "engine.catalog_specs()\n"
        "engine.reference_reports()\n"
        "assert 'superext.cli' not in sys.modules, 'engine imported superext.cli'\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_file_spec_is_reread_after_edit(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(to_cayley_document(make_cyclic(2))))
    assert parse_spec(f"file:{path}").order == 2
    path.write_text(json.dumps(to_cayley_document(make_cyclic(3))))
    assert parse_spec(f"file:{path}").order == 3


def test_loader_witness_is_in_document_indices():
    # a non-associative loop whose identity sits at index 2, so the loader renumbers
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]]
    perm = [2, 1, 0, 3, 4]
    t = [[0] * 5 for _ in range(5)]
    for i in range(5):
        for j in range(5):
            t[perm[i]][perm[j]] = perm[loop[i][j]]
    with pytest.raises(GroupValidationError) as exc:
        from_cayley_document({"order": 5, "table": t})
    assert exc.value.kind == "associativity"
    i, j, k = exc.value.witness
    assert t[t[i][j]][k] != t[i][t[j][k]]


def test_bench_span_targets_resolve():
    # the bench harness wraps these names by string: a rename would silently drop a span
    import importlib.util

    spec = importlib.util.spec_from_file_location("tracing", SRC.parent / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.TARGETS + (tracing.CLI_TARGET,)
    assert len(targets) > 1
    for module, name, _ in targets:
        assert callable(getattr(importlib.import_module(f"superext.{module}"), name, None)), (module, name)
