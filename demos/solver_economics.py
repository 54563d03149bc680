"""Backsolve counts of the three interface solve strategies on one sweep."""

import os
import time

from sdmortar.config import build_from_config, parse_config
from sdmortar.interface import run_method

CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                      "case1_mini.json")

cfg = parse_config(CONFIG)
problem, grid, options = build_from_config(cfg)
n_real = grid.n_real
n_dof = [problem.space.sub_dofs(problem.layout, s).size
         for s in range(problem.layout.n_subdomains)]
n_loc = [int(c) for c in grid.local_counts]

print(f"sweep of {n_real} realizations; mortar dofs per subdomain {n_dof}; "
      f"distinct local\nrealizations per region {n_loc} "
      f"(Stokes blocks reuse one frozen basis)\n")
print("S1 solves the interface system by cg, paying one backsolve per")
print("subdomain per iteration. A Stokes one is two small products on the")
print("sweep's mean-field unit responses, with no LU solve; its reference")
print("counts that mean-field solve as set-up. All three methods precondition")
print("the cg with the interface operator of the mean field, built once per")
print("sweep from every subdomain's flux basis (set-up backsolves) and")
print("rescaled per realization by the permeability under each mortar dof, so")
print("every realization, the first included, needs only a few iterations. S2")
print("assembles each subdomain's flux response basis per realization. S3")
print("reuses each basis across all realizations that share the subdomain's")
print("local permeability.\n")

rows = {}
for method in ("S1", "S2", "S3"):
    t0 = time.perf_counter()
    result = run_method(problem, grid, method=method)
    secs = time.perf_counter() - t0
    rows[method] = (result.stats, secs)

print("Every method factors each Stokes block sparsely once per sweep, at the")
print("mean field (set-up); in S1 and S2 each realization's Stokes operator is")
print("that LU plus a small dense factorization of its slip-coefficient")
print("change. The LU solves only set-up columns: the mean-field bar load, the")
print("unit star loads and the slip update's unit columns. Every bar, star and")
print("recovery solve of a realization is products on those responses. The")
print("preconditioner's mean-field Darcy factors and unit solves are set-up")
print("work too, the same for every method. Set-up work (set-up f/bs:")
print("factorizations / backsolves) is counted apart from the per-realization")
print("identities.\n")
print(f"{'method':6s}   {'factorizations':23s}   {'set-up f/bs':12s}   "
      f"{'backsolves (per subdomain)':29s}   seconds")
for method, (stats, secs) in rows.items():
    f = " ".join(f"{int(v):3d}" for v in stats.factorizations)
    setup = (f"{int(stats.setup_factorizations.sum())}/"
             f"{int(stats.setup_backsolves.sum())}")
    b = " ".join(f"{int(v):4d}" for v in stats.backsolves)
    print(f"{method:6s}   {f:23s}   {setup:>12s}   {b:29s}   {secs:7.2f}")

s1, s3 = rows["S1"][0], rows["S3"][0]
gain = s1.backsolves.sum() / s3.backsolves.sum()
print(f"\ncg iterations per realization (S1): at most {max(s1.cg_iters)}, "
      f"{s1.cg_iters_total} in all")
print(f"total backsolves: S1 {int(s1.backsolves.sum())}, "
      f"S3 {int(s3.backsolves.sum())}, a factor {gain:.1f} saved")
print("moment fields of all three methods agree; see the test suite for the")
print("tolerance this is held to")
