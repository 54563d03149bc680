"""Regenerate the committed moment references of the benchmark workloads.

Run from the root of a source checkout, only when the program's answers
are meant to change (a reference records what this commit computes):

    python3 perfbench/make_refs.py [--seeds 32] [workload ...]

Each seed gets one untraced sweep in a process of its own (repeated
threaded sweeps in one process keep memory, see NOTES.md). The sweep must
pass every other check before its moment digest and counters are written
to refs/<workload>.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SWEEP_TIMEOUT_S = 300


def one_record(name, seed):
    """Sweep one seed in this process; print its reference record."""
    root = os.getcwd()
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [os.path.join(root, "src"), HERE]
    # Imported here so that numpy starts after the thread pinning above.
    import measure
    from workloads import WORKLOADS

    case = measure.Case(WORKLOADS[name], seed, root)
    case.reference = None
    a = measure.attempt(case)
    if a.errors:
        print(f"{name} seed {seed}: FAILED\n" + "\n".join(a.errors),
              file=sys.stderr)
        return 1
    record = measure.reference_record(a)
    record["environment"] = {k: v for k, v in measure.environment(
        root).items() if k in ("git_commit", "src_sha256", "cpu")}
    print(f"{name} seed {seed}: cg_iters {record['cg_iters']} "
          f"sweep {a.sweep_s:.2f} s", file=sys.stderr)
    print(json.dumps(record))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=32,
                   help="references for seeds 0 .. SEEDS-1")
    p.add_argument("--one", nargs=2, metavar=("WORKLOAD", "SEED"),
                   help=argparse.SUPPRESS)
    p.add_argument("workloads", nargs="*")
    args = p.parse_args(argv)
    if args.one:
        return one_record(args.one[0], int(args.one[1]))
    sys.path.insert(0, HERE)
    from checks import REFS
    from workloads import WORKLOADS

    for name in args.workloads or list(WORKLOADS):
        seeds, env = {}, None
        for seed in range(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--one", name, str(seed)],
                stdout=subprocess.PIPE, text=True, timeout=SWEEP_TIMEOUT_S,
                check=False)
            if proc.returncode != 0:
                return proc.returncode
            record = json.loads(proc.stdout)
            env = record.pop("environment")
            seeds[str(seed)] = record
        os.makedirs(REFS, exist_ok=True)
        with open(os.path.join(REFS, name + ".json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"generated_at": env, "seeds": seeds}, fh, indent=1,
                      sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
