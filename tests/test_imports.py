"""Every module-level import in the package is used by its module, and
importing the package and its CLI loads only the layers they need.

``__init__.py`` is skipped by the unused-import check: its imports are the
package's re-exports.
"""

import ast
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bitype
from bitype import sorting

MODULES = sorted(
    p for p in Path(bitype.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by a top-level import that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_check_sees_an_unused_import():
    source = "import os\nfrom itertools import chain, product\nprint(os.sep, chain)\n"
    assert unused_imports(source) == ["product"]


# Layers the CLI imports inside the subcommands that run them.
LAZY = ("assoc", "covers", "homology", "report", "sorting", "graphs")


def test_cli_import_leaves_subcommand_layers_unloaded():
    code = (
        "import sys, bitype, bitype.cli; "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('bitype'))))"
    )
    src = str(Path(bitype.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60,
    ).stdout.split()
    assert "bitype.cli" in out
    assert [name for name in LAZY if f"bitype.{name}" in out] == []


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_probes_find_their_targets(monkeypatch):
    # the tracer patches every name it traces; a missing one raises here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    # perfbench/run.py calls it when it times the import
    assert callable(bitype.kernels.implementation_name)


def test_benchmark_selfcheck_passes():
    # frozen ops match their references, and a tampered reference or a
    # perturbed program is caught, for every workload
    out = subprocess.run(
        [sys.executable, str(PERFBENCH / "selfcheck.py")], capture_output=True, text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 4 and all(line.endswith(" ok") for line in lines), out.stdout


def test_benchmark_guard_caps_resolve():
    # run.py reports headroom against each cap; a renamed default breaks it
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name, (_field, cap) in workloads.GUARDS.items():
        assert isinstance(cap(), int) and cap() > 0, name
    default = inspect.signature(sorting.fibers_of_degree).parameters["multiset_cap"].default
    assert workloads.multiset_cap() == default
