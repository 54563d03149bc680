"""Shared fixtures: the two mini cases and their collocation sweeps."""

import copy
import multiprocessing
import os
import time
from types import SimpleNamespace

import pytest

from sdmortar.config import build_from_config, parse_config
from sdmortar.interface import run_method

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def load_case(name, **tweaks):
    """Build (cfg, problem, grid, options) from a shipped config file.

    tweaks patch top-level config entries (deep-copied) before building,
    e.g. physics={"alpha": 0.0}.
    """
    cfg = parse_config(os.path.join(CONFIG_DIR, name + ".json"))
    for key, val in tweaks.items():
        if isinstance(val, dict):
            patched = copy.deepcopy(cfg[key])
            patched.update(val)
            cfg[key] = patched
        else:
            cfg[key] = val
    problem, grid, options = build_from_config(cfg)
    return SimpleNamespace(cfg=cfg, problem=problem, grid=grid,
                           options=options)


def sweep_all_methods(case, tol=1e-11):
    """Run S1, S2, S3 on one case, recording wall time per method.

    The tight tolerance keeps iterative-solver truncation well below the
    bounds used when comparing the method variants against each other.
    """
    results, seconds = {}, {}
    for method in ("S1", "S2", "S3"):
        t0 = time.perf_counter()
        results[method] = run_method(case.problem, case.grid, method=method,
                                     tol=tol)
        seconds[method] = time.perf_counter() - t0
    return SimpleNamespace(results=results, seconds=seconds)


@pytest.fixture(scope="session")
def case1():
    return load_case("case1_mini")


@pytest.fixture(scope="session")
def case1_sweeps(case1):
    return sweep_all_methods(case1)


@pytest.fixture(scope="session")
def case1_alpha0_sweeps():
    case = load_case("case1_mini", physics={"alpha": 0.0})
    return sweep_all_methods(case)


@pytest.fixture(scope="session")
def case2():
    return load_case("case2_mini")


@pytest.fixture(scope="session")
def case2_result(case2):
    return run_method(case2.problem, case2.grid, method="S2")


@pytest.fixture(scope="session")
def twoblock():
    return load_case("darcy_twoblock")


@pytest.fixture(autouse=True)
def no_leaked_children():
    """Fail any test that leaves worker processes running."""
    yield
    leaked = multiprocessing.active_children()
    for proc in leaked:
        proc.terminate()
        proc.join()
    assert not leaked, f"test left child processes running: {leaked}"
