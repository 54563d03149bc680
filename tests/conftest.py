"""Shared fixtures: the two mini cases and their collocation sweeps."""

import copy
import multiprocessing
import os
import time
from types import SimpleNamespace

import pytest

from sdmortar.config import build_from_config, parse_config
from sdmortar.interface import (SolveStats, _Group, _Groups, _lifetimes,
                                run_method, visit_order)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def one_block_raw(physics, collocation=None):
    """Raw config of one 4x4 block, so with no interface.

    Darcy: pressure 1 on the left and 0 on the right, one KL region of
    two terms, tensor m = 2 by default. Stokes: velocity on the left and
    stress on the right, no KL region, tensor m = 1 by default.
    """
    block = {"rect": [0, 0, 1, 1], "physics": physics, "mesh": [4, 4]}
    if physics == "darcy":
        raw = {"kl_regions": [{"rect": [0, 0, 1, 1], "sigma2": 0.5,
                               "eta": [0.4, 0.4], "n_term": 2}],
               "collocation": {"kind": "tensor", "m": 2},
               "bcs": {"0": {"left": {"kind": "pressure", "value": 1.0},
                             "right": {"kind": "pressure", "value": 0.0}}}}
        block["kl_region"] = 0
    else:
        raw = {"collocation": {"kind": "tensor", "m": 1},
               "bcs": {"0": {"left": {"kind": "velocity",
                                      "value": [1.0, 0.0]},
                             "right": {"kind": "stress"}}}}
    raw["domain"] = {"blocks": [block]}
    if collocation is not None:
        raw["collocation"] = collocation
    return raw


def load_case(name, refine=1, **tweaks):
    """Build (cfg, problem, grid, options) from a shipped config file.

    refine multiplies every block mesh and mortar element count. tweaks
    patch top-level config entries (deep-copied) before building, e.g.
    physics={"alpha": 0.0}.
    """
    cfg = copy.deepcopy(parse_config(os.path.join(CONFIG_DIR,
                                                  name + ".json")))
    for block in cfg["domain"]["blocks"]:
        block["mesh"] = [n * refine for n in block["mesh"]]
    mortars = cfg["mortars"]
    for kind in ("dd", "sd", "ss"):
        if kind in mortars:
            mortars[kind] *= refine
    mortars["per_interface"] = {k: n * refine for k, n in
                                mortars["per_interface"].items()}
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


def sweep_visits(grid):
    """[(k, y)] of a sweep of grid, in the order run_method visits them."""
    return [(k, grid.points[k]) for k in visit_order(grid)]


def new_group(case, method, sids=None):
    """A _Group of `sids` (every subdomain by default) with the entry
    lifetimes run_method gives a sweep of case.grid."""
    problem, grid = case.problem, case.grid
    n_sub = problem.layout.n_subdomains
    return _Group(problem, list(range(n_sub)) if sids is None else sids,
                  method, SolveStats.new(method, n_sub), grid,
                  _lifetimes(problem, grid, method, sweep_visits(grid)))


def build_operators(group):
    """Fetch or build every owned subdomain's (operator, basis) at every
    grid point, in grid order, dropping nothing."""
    for k, y in enumerate(group.grid.points):
        for sid in group.sids:
            group._operator(sid, k, y)


def sweep_groups(case, method, stats, workers=1):
    """The _Groups of a sweep of case.grid (one process by default), as
    run_method opens it."""
    problem, grid = case.problem, case.grid
    return _Groups(problem, method, workers, stats, grid,
                   _lifetimes(problem, grid, method, sweep_visits(grid)))


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
