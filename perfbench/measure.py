"""Work done inside one benchmark process, through the public API.

One attempt is what ``sdmortar run`` does after import: ``parse_config`` +
``build_from_config`` (set-up), ``run_method`` over the full grid (sweep),
``write_outputs``, followed here by the output checks. A timed process
makes one untraced attempt; a traced process makes an untraced attempt and
then a traced one, so their difference is the tracing overhead. Each
returns a JSON-able record that metrics.py reduces.
"""

import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback

import numpy as np
import scipy

from sdmortar import build_from_config, parse_config, run_method
from sdmortar.output import write_outputs

from checks import (check_sweep, digest, final_residuals, load_refs,
                    local_count)
from metrics import MODULES, median
from tracer import Tracer, summarize
from workloads import make_config

OUT_ROOT = ".perfbench_out"
SETUP_REPS = 7  # per process; set-up takes ~10 ms, so it is repeated


class Case:
    """One workload at one seed: its generated config and output folder."""

    def __init__(self, workload, seed, root):
        self.workload = workload
        self.root = root
        self.dir = os.path.join(root, OUT_ROOT, f"{workload.name}-seed{seed}")
        os.makedirs(self.dir, exist_ok=True)
        self.config_path = os.path.join(self.dir, "config.json")
        cfg = make_config(workload, seed, os.path.join(self.dir, "out"))
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=2)
        self.reference = load_refs(workload.name).get(seed)


class Attempt:
    """Times, outputs and check failures of one set-up/sweep/write."""

    def __init__(self):
        self.setup_s = self.sweep_s = self.write_s = None
        self.problem = self.grid = self.result = self.options = None
        self.paths = None
        self.errors = []

    @property
    def total_s(self):
        return self.setup_s + self.sweep_s + self.write_s


def _untraced(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def setup(config_path):
    cfg = parse_config(config_path)
    problem, grid, options = build_from_config(
        cfg, os.path.dirname(config_path))
    return cfg, problem, grid, options


def sweep(problem, grid, options):
    return run_method(problem, grid, method=options["method"],
                      tol=options["tol"], max_iter=options["max_iter"],
                      workers=options["workers"],
                      basis_cap_mb=options["basis_cap_mb"])


def attempt(case, tracer=None):
    """One full run of the case; failures are recorded, never raised."""
    call = tracer.call if tracer is not None else _untraced
    a = Attempt()
    try:
        t0 = time.perf_counter()
        cfg, a.problem, a.grid, a.options = call("setup", setup,
                                                 case.config_path)
        t1 = time.perf_counter()
        a.result = call("sweep", sweep, a.problem, a.grid, a.options)
        t2 = time.perf_counter()
        a.paths = call("output.write", write_outputs, a.options["out_dir"],
                       cfg, a.problem, a.grid, a.result,
                       timing_in_csv=a.options["timing_in_csv"])
        t3 = time.perf_counter()
        a.setup_s, a.sweep_s, a.write_s = t1 - t0, t2 - t1, t3 - t2
        a.errors = check_sweep(a.problem, a.grid, a.result,
                               a.options["tol"], case.reference)
    except Exception:  # a failed run is counted, not fatal
        a.errors = [traceback.format_exc(limit=3)]
    return a


def _timed_setups(case, n):
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        setup(case.config_path)
        out.append(time.perf_counter() - t0)
    return out


def timed_process(case):
    """Record of one untraced attempt, after SETUP_REPS timed set-ups."""
    setups = _timed_setups(case, SETUP_REPS)
    a = attempt(case)
    rec = {"attempted": 1, "failed": int(bool(a.errors)),
           "errors": a.errors, "peak_rss_mb": peak_rss_mb()}
    if a.sweep_s is not None:
        rec.update(setup_s=setups + [a.setup_s], sweep_s=a.sweep_s,
                   total_s=a.total_s)
    return rec


def layer_metrics(plain, traced, tracer):
    """Per-layer metrics of one (untraced, traced) pair of attempts."""
    spans = tracer.spans
    sweep_root = next(i for i, s in enumerate(spans) if s[0] == "sweep")
    write_root = next(i for i, s in enumerate(spans)
                      if s[0] == "output.write")
    layers = summarize(spans, sweep_root)
    layers.update(summarize(spans, write_root))

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def total(name):
        return layers.get(name, {}).get("total_s", 0.0)

    stats = plain.result.stats
    grid, problem = plain.grid, plain.problem
    lam_dim = problem.space.n_dof
    n_sub = problem.layout.n_subdomains
    busy = np.asarray(stats.wall_seconds, dtype=float)
    served = 0 if stats.method == "S1" else n_sub * grid.n_real
    m = {}
    for phys in ("darcy", "stokes"):
        m[f"{phys}.assemble_calls"] = calls(f"{phys}.assemble")
        m[f"{phys}.assemble_s"] = total(f"{phys}.assemble")
        m[f"{phys}.solve_calls"] = calls(f"{phys}.solve")
        m[f"{phys}.solve_s"] = total(f"{phys}.solve")
    m.update({
        "problem.star_data_calls": calls("problem.star_data"),
        "problem.star_data_s": total("problem.star_data"),
        "problem.side_functionals_s": total("problem.side_functionals"),
        "mortar.jump_calls": calls("mortar.jump"),
        "mortar.jump_s": total("mortar.jump"),
        "problem.postprocess_s": total("problem.postprocess"),
        "interface.factorizations": int(stats.factorizations.sum()),
        "interface.backsolves": int(stats.backsolves.sum()),
        "interface.basis_backsolves": int(stats.basis_backsolves.sum()),
        "interface.cg_iters": stats.cg_iters_total,
        "interface.cg_iters_per_dim":
            stats.cg_iters_total / grid.n_real / lam_dim,
        "interface.cg_resid_max": max(final_residuals(plain.result)),
        "interface.cg_s": total("interface.cg"),
        "interface.cg_self_s": layers.get("interface.cg", {}).get(
            "self_s", 0.0),
        "interface.basis_calls": calls("interface.basis"),
        "interface.basis_s": total("interface.basis"),
        "interface.basis_reuse": (served / calls("interface.basis")
                                  if calls("interface.basis") else 0.0),
        "interface.recover_s": total("interface.recover"),
        "interface.sub_busy_s": float(busy.sum()),
        "interface.sub_imbalance": float(busy.max() / busy.mean()),
        "interface.parallel_eff": float(
            busy.sum() / (plain.options["workers"] * plain.sweep_s)),
        "random_field.realize_calls": calls("random_field.realize"),
        "random_field.realize_s": total("random_field.realize"),
        "moments.add_s": total("moments.add"),
        "moments.finalize_s": total("moments.finalize"),
        "output.write_s": total("output.write"),
        "output.bytes": output_bytes(traced.paths),
        "trace.overhead_s": traced.sweep_s - plain.sweep_s,
        "trace.unattributed_s": layers["sweep"]["self_s"],
    })
    return m


SETUP_LAYERS = {"random_field.kl_build_s": "random_field.kl_build",
                "mortar.space_s": "mortar.space",
                "collocation.grid_s": "collocation.grid",
                "problem.build_s": "problem.build"}


def setup_layer_metrics(case, n):
    """Median per-layer set-up times over n traced set-ups."""
    tracer = Tracer()
    with tracer.installed():
        for _ in range(n):
            tracer.call("setup", setup, case.config_path)
    roots = [i for i, s in enumerate(tracer.spans) if s[0] == "setup"]
    per_rep = [summarize(tracer.spans, r) for r in roots]
    return {metric: median([rep.get(span, {}).get("total_s", 0.0)
                             for rep in per_rep])
            for metric, span in SETUP_LAYERS.items()}


def traced_process(case):
    """Record of per-layer metrics from one (untraced, traced) pair."""
    setup_layers = setup_layer_metrics(case, SETUP_REPS)
    plain = attempt(case)
    tracer = Tracer()
    with tracer.installed():
        traced = attempt(case, tracer)
    rec = {"attempted": 2,
           "failed": int(bool(plain.errors)) + int(bool(traced.errors)),
           "errors": plain.errors + traced.errors, "metrics": None}
    if not rec["errors"]:
        tracer.write_jsonl(os.path.join(case.dir, "spans.jsonl"))
        m = layer_metrics(plain, traced, tracer)
        m.update(setup_layers)
        m.update(sizes(plain.problem, plain.grid, case.workload.method))
        m.update(source_loc(case.root))
        rec["metrics"] = m
    return rec


def output_bytes(paths):
    files = list(paths["vtk"]) + [paths[k] for k in
                                  ("moments_csv", "stats_csv", "manifest")]
    return sum(os.path.getsize(p) for p in files)


def peak_rss_mb():
    """Peak resident set of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sizes(problem, grid, method):
    layout = problem.layout
    n_dof = [len(problem.space.sub_dofs(layout, s))
             for s in range(layout.n_subdomains)]
    n_loc = [local_count(problem, grid, sid)
             for sid in range(layout.n_subdomains)]
    if method == "S1":
        basis = 0
    elif method == "S2":
        basis = sum(8 * nd * nd for nd in n_dof)
    else:
        basis = sum(8 * nd * nd * k for nd, k in zip(n_dof, n_loc))
    counts = list(grid.local_counts) + [0, 0]
    return {"size.lambda_dim": int(problem.space.n_dof),
            "size.n_real": int(grid.n_real),
            "size.n_dims": int(grid.n_dims),
            "size.n_loc.r0": int(counts[0]),
            "size.n_loc.r1": int(counts[1]),
            "size.basis_bytes": int(basis)}


def source_loc(root):
    """Line counts of the sdmortar modules (0 for a module that is gone)."""
    out = {}
    for mod in MODULES:
        path = os.path.join(root, "src", "sdmortar", mod + ".py")
        if os.path.exists(path):
            with open(path, "rb") as fh:
                out[f"loc.{mod}"] = fh.read().count(b"\n")
        else:
            out[f"loc.{mod}"] = 0
    out["loc.total"] = sum(out.values())
    return out


def _git_commit(root):
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.exists(head):
        return "unknown (not a git checkout)"
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(root, ".git", ref[5:])
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    return ref[5:]


def _source_sha256(root):
    h = hashlib.sha256()
    src = os.path.join(root, "src", "sdmortar")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_version(module):
    try:
        info = module.show_config(mode="dicts")
        return info["Build Dependencies"]["blas"].get("version", "unknown")
    except (TypeError, KeyError):
        return "unknown"


def environment(root):
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": _blas_version(np),
        "openblas_scipy": _blas_version(scipy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(root),
        "src_sha256": _source_sha256(root),
        "argv": sys.argv[1:],
    }


def reference_record(a):
    """What make_refs commits for one seed: moment digest and counters."""
    stats = a.result.stats
    return {"digest": digest(a.result.moments),
            "factorizations": int(stats.factorizations.sum()),
            "backsolves": int(stats.backsolves.sum()),
            "basis_backsolves": int(stats.basis_backsolves.sum()),
            "cg_iters": stats.cg_iters_total}
