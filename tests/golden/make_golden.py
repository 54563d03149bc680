"""Record the golden lambda/moment data that tests/test_golden.py checks.

Run from the root of a source checkout:

    PYTHONPATH=src:tests python3 tests/golden/make_golden.py

Each shipped run below is solved and its mortar solution per realization
plus the moments of lambda and of the cell fields (the values the output
files hold) are written to tests/golden/<name>.npz. Only
re-record when a change is meant to move the answer, and say so.
"""

import os

import numpy as np

from sdmortar.interface import run_method

from conftest import load_case

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_FIELDS = ("lambda", "cv", "cp")

# name -> (config, methods, CG tolerance); the tolerances match the
# session fixtures in tests/conftest.py so the tests can reuse their sweeps.
RUNS = {
    "case1_mini": ("case1_mini", ("S1", "S2", "S3"), 1e-11),
    "case2_mini": ("case2_mini", ("S2",), 1e-9),
    "darcy_twoblock": ("darcy_twoblock", ("S1", "S2", "S3"), 1e-9),
}


def pack(result):
    """Flat array dict of one RunResult: lambdas, then mean/var per field."""
    out = {"lambda": np.array(result.lambdas)}
    for key, (mean, var) in result.moments.items():
        if key.split(":")[-1] not in GOLDEN_FIELDS:
            continue
        out[f"mean/{key}"] = mean
        out[f"var/{key}"] = var
    return out


def main():
    for name, (config, methods, tol) in RUNS.items():
        case = load_case(config)
        arrays = {}
        for method in methods:
            res = run_method(case.problem, case.grid, method=method, tol=tol)
            arrays.update({f"{method}:{k}": v
                           for k, v in pack(res).items()})
        path = os.path.join(HERE, name + ".npz")
        np.savez_compressed(path, **arrays)
        print(f"wrote {path} ({os.path.getsize(path)} bytes)")


if __name__ == "__main__":
    main()
