"""Regression oracles: lambda per realization and moments of shipped runs.

The reference data in tests/golden/ was recorded with make_golden.py before
the subdomain systems were split into realization-invariant maps and
per-realization factors. Any later change may reorder round-off but must
not move an answer by more than RTOL: CG stops at 1e-9 (1e-11 for the
case1_mini sweeps), and reordered sums drift well below 1e-8.
"""

import os

import numpy as np
import pytest

from sdmortar.interface import run_method

from golden.make_golden import RUNS, pack

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
RTOL = 1e-8


def _load(name):
    with np.load(os.path.join(GOLDEN, name + ".npz")) as data:
        return {k: data[k] for k in data.files}


def _check(ref, method, result):
    got = pack(result)
    want = {k.split(":", 1)[1]: v for k, v in ref.items()
            if k.startswith(method + ":")}
    assert set(got) == set(want)
    for lam, lam_ref in zip(got["lambda"], want["lambda"]):
        assert np.linalg.norm(lam - lam_ref) <= RTOL * np.linalg.norm(lam_ref)
    for key in want:
        if not key.startswith("mean/"):
            continue
        field = key[len("mean/"):]
        mean, mean_ref = got[key], want[key]
        var, var_ref = got["var/" + field], want["var/" + field]
        assert np.linalg.norm(mean - mean_ref) <= (
            RTOL * np.linalg.norm(mean_ref)), field
        # var = E[x^2] - mean^2 cancels, so it is held to the size of E[x^2]
        second = np.linalg.norm(var_ref + mean_ref ** 2)
        assert np.linalg.norm(var - var_ref) <= RTOL * second, field


@pytest.mark.parametrize("method", ["S1", "S2", "S3"])
def test_golden_case1_mini(case1_sweeps, method):
    assert RUNS["case1_mini"][2] == 1e-11  # the case1_sweeps tolerance
    _check(_load("case1_mini"), method, case1_sweeps.results[method])


def test_golden_case2_mini(case2_result):
    assert RUNS["case2_mini"][1:] == (("S2",), 1e-9)
    _check(_load("case2_mini"), "S2", case2_result)


@pytest.mark.parametrize("method", ["S1", "S2", "S3"])
def test_golden_darcy_twoblock(twoblock, method):
    tol = RUNS["darcy_twoblock"][2]
    result = run_method(twoblock.problem, twoblock.grid, method=method,
                        tol=tol)
    _check(_load("darcy_twoblock"), method, result)
