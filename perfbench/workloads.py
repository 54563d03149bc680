"""Workload definitions and seeded config generation.

Every workload starts from a frozen copy of a shipped config (under
``inputs/``). Seed 0 leaves its values unchanged; any other seed perturbs
values only: the mean-log-permeability amplitude, each KL region's
``sigma2`` and the scale of the driving boundary data. Meshes, KL term
counts, the collocation grid and mortar counts never change, so the
size-only counters (factorizations, basis backsolves) stay fixed while CG
iterations move a little.
"""

import copy
import json
import os
import random
from dataclasses import dataclass

INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "inputs")


@dataclass(frozen=True)
class Workload:
    name: str
    base: str  # config file under inputs/, without .json
    method: str
    workers: int
    refine: int  # factor on every block mesh and mortar element count
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("s1_case1", "case1_mini", "S1", 1, 1,
             "matrix-free S1: star solves and mortar plumbing dominate; "
             "single-threaded baseline"),
    Workload("s2_case1_w2", "case1_mini", "S2", 2, 1,
             "S2 with 2 workers: assembly, factorization and basis rebuild "
             "per realization dominate; the only run of the thread pool"),
    Workload("s3_case1_x2", "case1_mini", "S3", 1, 2,
             "S3 on meshes and mortars x2: bases reused ~7.4x; bar solves, "
             "recovery, basis-matvec CG and output writing remain"),
)}

# Not a benchmark workload: the small input of the self-test.
SELFTEST = Workload("selftest_twoblock", "darcy_twoblock", "S1", 1, 1,
                    "self-test input, runs in well under a second")


def _scaled(value, factor):
    """A BC or mean value (number or expression string) times factor."""
    if value is None:
        return None
    if isinstance(value, str):
        return f"{factor!r}*({value})"
    return value * factor


def perturb(cfg, seed):
    """Seeded value perturbation of a raw config dict (seed 0: unchanged)."""
    cfg = copy.deepcopy(cfg)
    if seed == 0:
        return cfg
    rng = random.Random(seed)
    amp = round(rng.uniform(0.9, 1.1), 6)
    inflow = round(rng.uniform(0.9, 1.1), 6)
    for region in cfg["kl_regions"]:
        region["sigma2"] = round(region["sigma2"] * rng.uniform(0.9, 1.1), 6)
    mean = cfg["mean_log_perm"]
    if mean["kind"] == "expression":
        mean["expr"] = _scaled(mean["expr"], amp)
    elif mean["kind"] == "constant":
        mean["value"] = _scaled(mean["value"], amp) + (amp - 1.0)
    elif mean["kind"] == "per_region":
        mean["values"] = {k: _scaled(v, amp)
                          for k, v in mean["values"].items()}
    for sides in cfg["bcs"].values():
        for bc in sides.values():
            if bc.get("value") is None:
                continue
            if isinstance(bc["value"], list):
                bc["value"] = [_scaled(v, inflow) for v in bc["value"]]
            else:
                bc["value"] = _scaled(bc["value"], inflow)
    return cfg


def refine(cfg, factor):
    """Multiply every block mesh and every mortar element count."""
    cfg = copy.deepcopy(cfg)
    if factor == 1:
        return cfg
    for block in cfg["domain"]["blocks"]:
        block["mesh"] = [n * factor for n in block["mesh"]]
    mortars = cfg["mortars"]
    for kind in ("dd", "sd", "ss"):
        if kind in mortars:
            mortars[kind] *= factor
    if "per_interface" in mortars:
        mortars["per_interface"] = {k: n * factor for k, n in
                                    mortars["per_interface"].items()}
    return cfg


def make_config(workload, seed, out_dir):
    """Raw config dict of one workload at one seed, writing into out_dir."""
    with open(os.path.join(INPUTS, workload.base + ".json"),
              encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg = perturb(refine(cfg, workload.refine), seed)
    cfg["method"] = workload.method
    cfg["workers"] = workload.workers
    cfg["output"] = {"dir": out_dir}
    return cfg
