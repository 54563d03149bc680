"""Output checks of one sweep: identities, residuals, moments, references.

A sweep fails when any of these finds a problem:

* the backsolve identities of its method do not hold exactly, per
  subdomain (S1: sum of CG iterations + 2 N_real; S2: N_dof N_real +
  2 N_real; S3: N_dof N_loc + 2 N_real; factorizations and basis
  backsolves likewise);
* a realization's final CG residual is above the tolerance;
* a moment is not finite;
* for a seed with a committed reference, a moment digest differs from it
  by more than REF_RTOL of the field's size.

References are per workload and therefore per method: S3 freezes the
Stokes basis at the mean field and the methods' CG round-off differs, so
moments of different methods are never compared with each other here.
"""

import json
import os

import numpy as np

REFS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")
REF_RTOL = 1e-6
_GOLDEN = 2.399963229728653  # golden angle: a fixed quasi-random projection


def local_count(problem, grid, sid):
    """N_loc of subdomain sid: distinct local realizations S3 builds for."""
    block = problem.layout.blocks[sid]
    if block.physics == "darcy":
        return int(grid.local_counts[block.kl_region])
    return 1


def identity_errors(problem, grid, result):
    """Broken backsolve/factorization identities, as messages."""
    stats = result.stats
    n_real = grid.n_real
    errors = []
    if len(stats.cg_iters) != n_real:
        errors.append(f"{len(stats.cg_iters)} CG solves for {n_real} "
                      f"realizations")
    for sid in range(problem.layout.n_subdomains):
        n_dof = len(problem.space.sub_dofs(problem.layout, sid))
        if stats.method == "S1":
            fac, basis = n_real, 0
            back = stats.cg_iters_total + 2 * n_real
        elif stats.method == "S2":
            fac, basis = n_real, n_dof * n_real
            back = basis + 2 * n_real
        else:
            fac = local_count(problem, grid, sid)
            basis = n_dof * fac
            back = basis + 2 * n_real
        for what, want, got in (
                ("factorizations", fac, stats.factorizations[sid]),
                ("backsolves", back, stats.backsolves[sid]),
                ("basis_backsolves", basis, stats.basis_backsolves[sid])):
            if int(got) != want:
                errors.append(f"subdomain {sid}: {what} {int(got)} != "
                              f"{stats.method} identity {want}")
    return errors


def final_residuals(result):
    """Final relative CG residual of each realization (0 if g = 0)."""
    return [res[-1] if res else 0.0 for res in result.residuals]


def residual_errors(result, tol):
    return [f"realization {k}: final residual {r:.3e} > tol {tol:g}"
            for k, r in enumerate(final_residuals(result)) if not r <= tol]


def finite_errors(moments):
    return [f"{key}: non-finite moments" for key, (mean, var)
            in sorted(moments.items())
            if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(var)))]


def _summary(a):
    a = np.ravel(np.asarray(a, dtype=float))
    r = np.cos(_GOLDEN * np.arange(a.size))
    return [float(np.linalg.norm(a)), float(r @ a)]


def digest(moments):
    """Norm and one fixed projection of each mean and variance field.

    Covers the mortar solution and the cell velocities and pressures,
    the fields `moments.csv` is written from.
    """
    return {key: _summary(mean) + _summary(var)
            for key, (mean, var) in sorted(moments.items())
            if key == "lambda" or key.endswith((":cv", ":cp"))}


def digest_errors(got, ref, rtol=REF_RTOL):
    """Fields whose digest moved by more than rtol of the field's norm."""
    errors = []
    if sorted(got) != sorted(ref):
        return [f"moment fields {sorted(got)} != reference {sorted(ref)}"]
    for key, r in ref.items():
        g = got[key]
        mean_scale = r[0]
        var_scale = max(r[2], 1e-12 * mean_scale ** 2)
        for i, scale in enumerate((mean_scale, mean_scale,
                                   var_scale, var_scale)):
            if not abs(g[i] - r[i]) <= rtol * scale:
                part = "mean" if i < 2 else "variance"
                errors.append(f"{key}: {part} digest {g[i]!r} differs from "
                              f"reference {r[i]!r} by more than {rtol:g}")
                break
    return errors


def load_refs(workload_name):
    """{seed: reference record} of one workload, or {} if none committed."""
    path = os.path.join(REFS, workload_name + ".json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return {int(k): v for k, v in json.load(fh)["seeds"].items()}


def check_sweep(problem, grid, result, tol, reference=None):
    """All failure messages of one sweep (empty list: it passed)."""
    errors = identity_errors(problem, grid, result)
    errors += residual_errors(result, tol)
    errors += finite_errors(result.moments)
    if reference is not None:
        errors += digest_errors(digest(result.moments), reference["digest"])
    return errors
