"""Self-test of the benchmark on the small darcy_twoblock input.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

It checks that BENCHMARK.json names exactly the metrics the benchmark
emits, with their units; that every metric is produced; that the output
check rejects a perturbed moment field and a broken backsolve identity;
that traced self times plus the unattributed remainder add up to the traced
sweep; and that the wrappers count what the program counts. Exit code 0
means every check passed.
"""

import copy
import json
import logging
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


class SelfTest:
    def __init__(self):
        self.failures = 0

    def expect(self, ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        self.failures += not ok


def main():
    root = os.getcwd()
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [os.path.join(root, "src"), HERE]
    # Imported here so that numpy starts after the thread pinning above.
    import sdmortar.interface
    import sdmortar.mortar
    import measure
    from checks import digest, digest_errors, identity_errors
    from metrics import END_TO_END, PER_LAYER, reduce_timed, reduce_traced
    from tracer import Tracer, summarize
    from workloads import SELFTEST, WORKLOADS

    # darcy_twoblock's mortar is deliberately fine; its warning is expected.
    logging.getLogger("sdmortar").setLevel(logging.ERROR)
    t = SelfTest()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    t.expect({m["name"]: m["unit"] for m in bench["end_to_end"]}
             == END_TO_END, "BENCHMARK.json end_to_end names/units")
    t.expect({m["name"]: m["unit"] for m in bench["per_layer"]}
             == PER_LAYER, "BENCHMARK.json per_layer names/units")
    t.expect([w["name"] for w in bench["workloads"]] == list(WORKLOADS),
             "BENCHMARK.json workloads")

    case = measure.Case(SELFTEST, 0, root)
    records = [measure.timed_process(case) for _ in range(3)]
    t.expect(not any(r["errors"] for r in records), "untraced attempts pass")
    e2e, _ = reduce_timed(records)
    t.expect(set(e2e) == set(END_TO_END)
             and all(math.isfinite(v) and v > 0 for v in e2e.values()),
             "every end-to-end metric present, finite and non-zero")
    record = measure.traced_process(case)
    t.expect(not record["errors"], "traced attempts pass")
    t.expect(set(record["metrics"]) == set(PER_LAYER),
             "traced process measures exactly the per-layer metrics")
    layers, _ = reduce_traced([record])
    t.expect(all(math.isfinite(v) for v in layers.values()),
             "every per-layer metric finite")
    t.expect(sdmortar.interface.jump is sdmortar.mortar.jump,
             "wrappers removed after the traced run")

    a = measure.attempt(case)
    ref = measure.reference_record(a)
    t.expect(not digest_errors(digest(a.result.moments), ref["digest"]),
             "output check accepts the unperturbed moments")
    moments = copy.deepcopy(a.result.moments)
    mean, _ = moments["1:cp"]
    mean[len(mean) // 2] *= 1.0 + 1e-3
    t.expect(bool(digest_errors(digest(moments), ref["digest"])),
             "output check rejects one moment perturbed by 1e-3")
    a.result.stats.backsolves[0] += 1
    t.expect(bool(identity_errors(a.problem, a.grid, a.result)),
             "output check rejects a broken backsolve identity")
    a.result.stats.backsolves[0] -= 1

    other = measure.attempt(measure.Case(SELFTEST, 5, root))
    t.expect(not other.errors and measure.sizes(
        other.problem, other.grid, "S1") == measure.sizes(
        a.problem, a.grid, "S1"), "seed 5 keeps every size")
    t.expect(bool(digest_errors(digest(other.result.moments),
                                ref["digest"])), "seed 5 moves the moments")

    tracer = Tracer()
    with tracer.installed():
        traced = measure.attempt(case, tracer)
    root_span = next(i for i, s in enumerate(tracer.spans)
                     if s[0] == "sweep")
    sweep_s = tracer.spans[root_span][2] - tracer.spans[root_span][1]
    self_sum = sum(rec["self_s"] for rec in
                   summarize(tracer.spans, root_span).values())
    t.expect(abs(self_sum - sweep_s) <= 1e-9 + 1e-9 * sweep_s,
             f"self times + unattributed = traced sweep_s "
             f"({self_sum:.9f} vs {sweep_s:.9f} s)")
    stats = traced.result.stats
    m = measure.layer_metrics(a, traced, tracer)
    t.expect(m["darcy.solve_calls"] + m["stokes.solve_calls"]
             == int(stats.backsolves.sum()), "solve spans = backsolves")
    t.expect(m["darcy.assemble_calls"] + m["stokes.assemble_calls"]
             == int(stats.factorizations.sum()),
             "assemble spans = factorizations")
    reals = {s[4] for s in tracer.spans if s[0] == "interface.cg"}
    t.expect(reals == set(range(a.grid.n_real)),
             "each CG span tagged with its realization")
    print(f"selftest: {t.failures} failure(s)")
    return 1 if t.failures else 0


if __name__ == "__main__":
    sys.exit(main())
