"""Paired benchmark runs of a parent commit against the working tree.

Runs `perfbench/run.py` on a `git archive` of the parent and on the
working tree, one pair per (workload, seed), alternating which side runs
first, and writes a JSON summary: for every end-to-end metric of
BENCHMARK.json its median and quartiles per side, the per-pair change
and how many pairs the working tree won. Timed runs last perfbench's own
default time. One `--trace 1` run per side at seed 0 adds the exact
counters and every per-layer metric of that run, and the line count of
every src/sdmortar/*.py is recorded per side. The workloads default to those of BENCHMARK.json. Run from the
root of a source checkout:

    python3 tools/bench_pairs.py --parent HEAD --seeds 1-10 \\
        --scratch /tmp/bench-parent --out BENCH.json

The parent copy is extracted under --scratch, which must not exist or be
empty. Runs are sequential, so only one benchmark process is alive at a
time; the machine should otherwise be idle.
"""

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile

import numpy as np

COUNTERS = ("interface.factorizations", "interface.backsolves",
            "interface.basis_backsolves", "interface.cg_iters")


def _seeds(text):
    """'1-10' or '1,4,7' -> list of ints."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _parser():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", default="HEAD",
                   help="git revision to compare against (default HEAD)")
    p.add_argument("--workloads", nargs="+",
                   help="default: the workloads of BENCHMARK.json")
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    p.add_argument("--scratch", required=True,
                   help="directory for the parent's source copy")
    p.add_argument("--out", required=True, help="JSON file to write")
    return p


def _git(*args):
    return subprocess.run(["git", *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def extract(rev, dest):
    """The tree of git revision rev, written to dest; its full hash."""
    if os.path.isdir(dest) and os.listdir(dest):
        sys.exit(f"bench_pairs: {dest} is not empty")
    os.makedirs(dest, exist_ok=True)
    tar = subprocess.run(["git", "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return _git("rev-parse", rev)


def working_tree():
    """The commit checked out here, marked when the tree differs from it."""
    head = _git("rev-parse", "HEAD")
    dirty = bool(_git("status", "--porcelain"))
    return f"working tree on {head}" if dirty else head


def source_loc(root):
    """Line count of every src/sdmortar/*.py under root, and their total."""
    pkg = os.path.join(root, "src", "sdmortar")
    loc = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                loc[name] = sum(1 for _ in fh)
    loc["total"] = sum(loc.values())
    return loc


def run(root, workload, seed, trace):
    """Last-line record and environment of one perfbench run in root.

    A traced run is a single process (--seconds 0): its counters are exact.
    """
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if trace:
        cmd += ["--seconds", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench_pairs: {' '.join(cmd)} in {root} exited "
                 f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    env = next((json.loads(line[len("# environment "):]) for line in lines
                if line.startswith("# environment ")), {})
    return json.loads(lines[-1]), env


def quartiles(values):
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3)}


def summarize(pairs, metrics):
    """Per metric: both sides' quartiles, per-pair change, wins."""
    out = {}
    for name, better in metrics.items():
        base = [p["parent"][name] for p in pairs]
        new = [p["change"][name] for p in pairs]
        if better == "lower":
            wins = sum(n < b for b, n in zip(base, new))
        else:
            wins = sum(n > b for b, n in zip(base, new))
        rel = [(n - b) / b for b, n in zip(base, new) if b]
        out[name] = {"parent": quartiles(base), "change": quartiles(new),
                     "change_wins": int(wins), "pairs": len(pairs),
                     "pair_change_median": (float(np.median(rel)) if rel
                                            else None)}
        p, c = out[name]["parent"], out[name]["change"]
        out[name]["median_gap_exceeds_parent_iqr"] = bool(
            abs(c["median"] - p["median"]) > p["q3"] - p["q1"])
    return out


def main(argv=None):
    args = _parser().parse_args(argv)
    here = os.getcwd()
    with open(os.path.join(here, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    parent_root = os.path.abspath(args.scratch)
    parent_rev = extract(args.parent, parent_root)
    sides = {"parent": parent_root, "change": here}
    report = {"parent": parent_rev, "change": working_tree(),
              "seeds": args.seeds,
              "source_loc": {side: source_loc(root)
                             for side, root in sides.items()},
              "workloads": {}, "counters_seed0": {}, "layers_seed0": {},
              "correct": True}
    for w in workloads:
        pairs = []
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                             "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                rec, env = run(sides[side], w, seed, 0)
                pair[side] = {m: rec["metrics"][m]["value"] for m in metrics}
                pair[side + "_correct"] = rec["correct"]
                report["correct"] &= rec["correct"]
                report.setdefault("machine", {
                    k: v for k, v in env.items()
                    if k not in ("argv", "git_commit", "src_sha256")})
            pairs.append(pair)
            print(f"{w} seed {seed}: " + ", ".join(
                f"{s} sweep_s {pair[s].get('sweep_s', float('nan')):.4f}"
                for s in order), flush=True)
        report["workloads"][w] = {"pairs": pairs,
                                  "metrics": summarize(pairs, metrics)}
        for side, root in sides.items():
            rec, _ = run(root, w, 0, 1)
            report["correct"] &= rec["correct"]
            report["counters_seed0"].setdefault(side, {})[w] = {
                c: rec["metrics"][c]["value"] for c in COUNTERS}
            report["layers_seed0"].setdefault(side, {})[w] = {
                name: m["value"] for name, m in rec["metrics"].items()}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for w, data in report["workloads"].items():
        for name, m in data["metrics"].items():
            print(f"{w:14s} {name:12s} parent {m['parent']['median']:.5g} "
                  f"change {m['change']['median']:.5g} wins "
                  f"{m['change_wins']}/{m['pairs']}")
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
