"""Bitwise comparison of sweep results between a git revision and the tree.

Runs 35 collocation sweeps on a `git archive` of a revision and on the
working tree and prints every array that differs: S1, S2 and S3 on each
shipped config at `workers` 1 and 2, S1, S2 and S3 on `case1_mini` with
meshes and mortars x2 at `workers` 1 and 2, S3 on `case1_mini` x4 at
`workers` 1 (its Darcy band solves have up to 8128 rows), and S2 on
`case2_mini` with boundary data that no shipped config has (traction
values on a stress side, an expression pressure on a Darcy side) at
`workers` 1, and S3 on `case1_mini_sparse` with KL region 0 made
anisotropic (eta [0.05, 0.4], n_term 6), so that truncating to the
largest products takes more than one pass, at `workers` 1, and S1 and S2
on `case1_mini` with block 0's inflow made nonzero where it meets the sd
interface, so that its bar load has a slip (BJS) lift, at `workers` 1.
The arrays of a sweep are lambda per realization, every moment (mean and
variance), the CG iteration counts and the per-subdomain counters that
side's `sdmortar.interface.COUNTERS` names. A counter that one side does
not report is compared as missing. For changes that are not meant to be
bitwise, the summary line also gives the largest relative change of a
sweep's CG iteration total, each sweep whose total differs is listed
with both totals, and a last line gives the largest relative gap per
array family (lambda, mean, var, cg_iters and each counter), scaled by
the larger of the two sides; a variance's gap is scaled by its second
moment mean^2 + var. Run from the root of a source checkout:

    python3 tools/compare_parent.py --parent HEAD --scratch /tmp/cmp-parent

The revision is extracted under --scratch, which must not exist or be
empty; each side's sweeps run in a fresh process with one BLAS thread,
importing that side's src/. The exit code is 0 when nothing differs.
"""

import argparse
import copy
import logging
import os
import subprocess
import sys
import tempfile

import numpy as np

from bench_pairs import extract, working_tree

# perfbench's refine: every block mesh and mortar element count times n
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "perfbench"))
from workloads import refine  # noqa: E402

CONFIGS = ("case1_mini", "case1_mini_sparse", "case2_mini", "darcy_twoblock")


def boundary_data(cfg):
    """case2_mini with a traction on block 1's right side and an
    expression pressure on block 4's bottom side."""
    cfg = copy.deepcopy(cfg)
    cfg["bcs"]["1"]["right"]["value"] = ["0.5*sin(pi*y)", "0.25 - x*y"]
    cfg["bcs"]["4"]["bottom"]["value"] = "1 + 0.5*cos(pi*x)"
    return cfg


def anisotropic_kl(cfg):
    """case1_mini_sparse with KL region 0 (1 x 0.4) at eta [0.05, 0.4]
    and 6 terms: its truncation loop grows the 1D mode count once."""
    cfg = copy.deepcopy(cfg)
    cfg["kl_regions"][0].update(eta=[0.05, 0.4], n_term=6)
    return cfg


def corner_inflow(cfg):
    """case1_mini with block 0's left inflow shifted by 1, so that it is
    not zero at the sd interface (y = 0.8): the Stokes bar load then
    depends on the slip coefficients."""
    cfg = copy.deepcopy(cfg)
    cfg["bcs"]["0"]["left"]["value"] = ["1 + (y - 0.8)*(1.2 - y)/0.04",
                                        "0.5"]
    return cfg


def sweeps():
    """(tag, config, edit of its parsed config, method, workers) of the
    35 sweeps."""
    def refined(n):
        return lambda cfg: refine(cfg, n)

    out = [(f"{name}/{method}/w{w}", name, refined(1), method, w)
           for name in CONFIGS for method in ("S1", "S2", "S3")
           for w in (1, 2)]
    out += [(f"case1_mini_x2/{method}/w{w}", "case1_mini", refined(2),
             method, w) for method in ("S1", "S2", "S3") for w in (1, 2)]
    out.append(("case1_mini_x4/S3/w1", "case1_mini", refined(4), "S3", 1))
    out.append(("case2_mini_bc/S2/w1", "case2_mini", boundary_data, "S2", 1))
    out.append(("case1_mini_sparse_kl/S3/w1", "case1_mini_sparse",
                anisotropic_kl, "S3", 1))
    out += [(f"case1_mini_lift/{method}/w1", "case1_mini", corner_inflow,
             method, 1) for method in ("S1", "S2")]
    return out


def dump(root, path):
    """Run every sweep with the sdmortar of root/src; save its arrays."""
    sys.path.insert(0, os.path.join(root, "src"))
    logging.disable(logging.WARNING)  # mesh/mortar ratio notes
    from sdmortar.config import build_from_config, parse_config
    from sdmortar.interface import COUNTERS, run_method

    arrays = {}
    for tag, name, edit, method, workers in sweeps():
        cfg = parse_config(os.path.join(root, "configs", name + ".json"))
        problem, grid, options = build_from_config(edit(cfg))
        result = run_method(problem, grid, method=method,
                            tol=options["tol"], max_iter=options["max_iter"],
                            workers=workers)
        arrays[f"{tag}/lambda"] = np.array(result.lambdas)
        arrays[f"{tag}/cg_iters"] = np.array(result.stats.cg_iters)
        for field, (mean, var) in result.moments.items():
            arrays[f"{tag}/mean/{field}"] = mean
            arrays[f"{tag}/var/{field}"] = var
        for counter in COUNTERS:
            arrays[f"{tag}/{counter}"] = np.asarray(getattr(result.stats,
                                                            counter))
        print(f"{tag}: {grid.n_real} realizations", flush=True)
    np.savez(path, **arrays)


def run_side(root, path):
    """Dump the arrays of root in a fresh process."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH="")
    subprocess.run([sys.executable, os.path.abspath(__file__), "--dump",
                    path, "--root", root], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    with np.load(path) as data:
        return {k: data[k] for k in data.files}


def describe(a, b):
    """One line on how two arrays of the same key differ."""
    if a is None or b is None:
        return "missing on the " + ("revision" if a is None else "tree")
    if a.shape != b.shape:
        return f"shape {a.shape} -> {b.shape}"
    if a.size <= 8:
        return f"{a.tolist()} -> {b.tolist()}"
    gap = np.max(np.abs(a.astype(float) - b.astype(float)))
    scale = np.max(np.abs(a.astype(float)), initial=0.0)
    return (f"{int(np.sum(a != b))} of {a.size} entries differ, max gap "
            f"{gap:.3e} (max |value| {scale:.3e})")


def compare(base, new):
    """Keys whose arrays are not bitwise equal, with a description."""
    diffs = []
    for key in sorted(set(base) | set(new)):
        a, b = base.get(key), new.get(key)
        same = (a is not None and b is not None and a.dtype == b.dtype
                and a.shape == b.shape and a.tobytes() == b.tobytes())
        if not same:
            diffs.append((key, describe(a, b)))
    return diffs


def family_gaps(base, new):
    """Largest relative gap per array family: the key without its sweep
    tag and field name (lambda, mean, var, cg_iters or a counter), over
    the keys both sides report with one shape. A gap max |b - a| is
    scaled by the larger of max |a| and max |b|, which keeps a counter
    that one side leaves at zero finite (1.0) instead of dividing by
    zero. A variance var = E[x^2] - mean^2 cancels, so its gap is scaled
    by the larger side's max E[x^2] = mean^2 + var instead, as
    tests/test_golden.py holds it."""
    gaps = {}
    for key in sorted(set(base) & set(new)):
        a, b = base[key].astype(float), new[key].astype(float)
        if a.shape != b.shape:
            continue
        gap = np.max(np.abs(a - b), initial=0.0)
        family = key.split("/")[3]
        if family == "var":
            mean = key.replace("/var/", "/mean/", 1)
            a, b = a + base[mean] ** 2, b + new[mean] ** 2
        scale = max(np.max(np.abs(a), initial=0.0),
                    np.max(np.abs(b), initial=0.0))
        gaps[family] = max(gaps.get(family, 0.0),
                           gap / scale if gap else 0.0)
    return gaps


def cg_totals(base, new):
    """(tag, revision total, tree total) of each sweep's CG iterations,
    over the sweeps both sides report."""
    keys = [(tag, f"{tag}/cg_iters") for tag, *_ in sweeps()]
    return [(tag, int(base[key].sum()), int(new[key].sum()))
            for tag, key in keys if key in base and key in new]


def _parser():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", default="HEAD",
                   help="git revision to compare against (default HEAD)")
    p.add_argument("--scratch", help="directory for the revision's copy")
    p.add_argument("--dump", help=argparse.SUPPRESS)
    p.add_argument("--root", help=argparse.SUPPRESS)
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.dump:
        dump(args.root, args.dump)
        return 0
    if not args.scratch:
        sys.exit("compare_parent: --scratch is required")
    root = os.path.abspath(args.scratch)
    rev = extract(args.parent, os.path.join(root, "tree"))
    sides = {}
    for side, src in (("revision", os.path.join(root, "tree")),
                      ("tree", os.getcwd())):
        fd, path = tempfile.mkstemp(suffix=".npz", dir=root)
        os.close(fd)
        sides[side] = run_side(src, path)
    diffs = compare(sides["revision"], sides["tree"])
    totals = cg_totals(sides["revision"], sides["tree"])
    worst = max((abs(b - a) / max(a, 1) for _, a, b in totals), default=0.0)
    print(f"revision {rev} against {working_tree()}: "
          f"{len(sweeps())} sweeps, "
          f"{len(set(sides['revision']) | set(sides['tree']))} arrays, "
          f"{len(diffs)} differ; largest change of a sweep's CG "
          f"iteration total {worst:.2%}")
    for key, text in diffs:
        print(f"  {key}: {text}")
    for tag, a, b in totals:
        if a != b:
            print(f"  {tag}: CG iterations {a} -> {b}")
    print("largest relative gap per family: " + ", ".join(
        f"{family} {gap:.2e}" for family, gap in
        family_gaps(sides["revision"], sides["tree"]).items()))
    return 0 if not diffs else 1


if __name__ == "__main__":
    sys.exit(main())
