"""The benchmark's hooks into the package stay valid.

perfbench/ wraps the hot-path entry points named in tracer.PATCHES and
checks itself with selftest.py. A renamed or removed entry point would
break the traced benchmark without failing any solver test, and one that
resolves but is never called would report zero calls and seconds, so all
three are checked here. perfbench/ is only read, never changed, by these
tests.
"""

import importlib.util
import os
import subprocess
import sys

import pytest

from sdmortar.interface import METHODS, run_method

from conftest import load_case

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(PERFBENCH, "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracer()


@pytest.mark.parametrize("path,attr",
                         [(p, a) for p, a, _ in TRACER.PATCHES],
                         ids=[f"{p}.{a}" for p, a, _ in TRACER.PATCHES])
def test_traced_entry_point_resolves(path, attr):
    owner = TRACER._owner(path)
    assert callable(owner.__dict__[attr])


def test_perfbench_selftest_passes():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "selftest.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest: 0 failure(s)" in proc.stdout


def test_every_traced_entry_point_is_entered():
    """Set-up and one sweep per method enter every span of PATCHES."""
    tracer = TRACER.Tracer()
    with tracer.installed():
        case = load_case("case1_mini")
        for method in METHODS:
            run_method(case.problem, case.grid, method=method)
    problem = case.problem
    expected = set()
    for _, _, name in TRACER.PATCHES:
        if callable(name):
            expected.update(name(problem, sid)
                            for sid in range(problem.layout.n_subdomains))
        else:
            expected.add(name)
    entered = {span[0] for span in tracer.spans}
    assert expected - entered == set()
