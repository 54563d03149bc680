"""Benchmark of sdmortar collocation sweeps, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload s1_case1 --seed 0 --seconds 30 \
        --trace 0

Every attempt runs in a fresh Python process, as `sdmortar run` does, and
new processes are started one after another until `--seconds` have passed
(at least MIN_TIMED timed or one traced). ``--trace 0`` reports the
end-to-end metrics of untraced attempts; ``--trace 1`` the per-layer
metrics of untraced/traced pairs. ``--workload all`` runs every workload
both ways. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. See NOTES.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_TIMED = 3
DEADLINE_S = 170  # a run, all of its processes included, ends by then


def _parser():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return p


def _pin_threads(env):
    """One BLAS thread, so `workers` alone sets the thread count."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"


def child(args, root):
    """One timed or traced process: print its record as a JSON line."""
    _pin_threads(os.environ)
    sys.path[:0] = [os.path.join(root, "src"), HERE]
    # Imported here so that numpy starts after the thread pinning above.
    import measure
    from workloads import WORKLOADS

    case = measure.Case(WORKLOADS[args.workload], args.seed, root)
    if args.trace:
        rec = measure.traced_process(case)
    else:
        rec = measure.timed_process(case)
    rec["environment"] = measure.environment(root)
    print(json.dumps(rec))
    return 0


def _spawn(args, timeout):
    cmd = [sys.executable, os.path.abspath(__file__), "--child",
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace)]
    env = dict(os.environ)
    _pin_threads(env)
    failed = {"attempted": 1 + args.trace, "failed": 1 + args.trace}
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        return {**failed, "errors": [f"process timed out after {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {**failed, "errors": [f"process exited {proc.returncode}: "
                                     f"{proc.stderr[-2000:]}"]}
    return json.loads(lines[-1])


def run_workload(args, root):
    from metrics import END_TO_END, PER_LAYER, reduce_timed, reduce_traced
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    at_least = 1 if args.trace else MIN_TIMED
    records = []
    start = time.monotonic()
    while len(records) < at_least or time.monotonic() - start < args.seconds:
        left = DEADLINE_S - (time.monotonic() - start)
        if left <= 0:
            break
        records.append(_spawn(args, left))
    if args.trace:
        metrics, extra = reduce_traced(records)
        units = PER_LAYER
    else:
        metrics, extra = reduce_timed(records)
        units = END_TO_END
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}
    env = next((r["environment"] for r in records if "environment" in r), {})
    errors = [e for r in records for e in r["errors"]]
    out_dir = os.path.join(root, ".perfbench_out",
                           f"{workload.name}-seed{args.seed}")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"report-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": args.seed,
                   "trace": args.trace, "seconds": args.seconds,
                   "processes": len(records), "environment": env, **extra,
                   "metrics": line["metrics"], "errors": errors}, fh,
                  indent=2)
    print(f"# {workload.name} seed {args.seed} trace {args.trace}: "
          f"{workload.why}")
    print("# environment " + json.dumps(env))
    for err in errors:
        print("# FAILED " + err.replace("\n", "\n#   "))
    for key, val in extra.items():
        print(f"{key:32s} {val}")
    for name, rec in line["metrics"].items():
        print(f"{name:32s} {rec['value']:.6g} {rec['unit']}")
    print(json.dumps(line))
    return 0


def run_all(args):
    """Every workload, timed then traced, with a summary table."""
    from workloads import WORKLOADS

    rows, ok = {}, True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=DEADLINE_S + 10, check=False)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= res["correct"]
            for metric, rec in res["metrics"].items():
                rows.setdefault(metric, {})[name] = rec
    names = list(WORKLOADS)
    print(f"# summary, seed {args.seed}: all outputs correct: {ok}")
    print(f"{'metric':32s} {'unit':8s} "
          + " ".join(f"{n:>14s}" for n in names))
    for metric, per in rows.items():
        unit = next(iter(per.values()))["unit"]
        print(f"{metric:32s} {unit:8s} "
              + " ".join(f"{per[n]['value']:14.6g}" for n in names))
    return 0 if ok else 1


def main(argv=None):
    args = _parser().parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sdmortar",
                                       "__init__.py")):
        print("perfbench: run from the root of an sdmortar source checkout "
              "(src/sdmortar not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.child:
        return child(args, root)
    return run_workload(args, root)


if __name__ == "__main__":
    sys.exit(main())
