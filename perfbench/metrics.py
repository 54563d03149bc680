"""Metric names, units and the reduction of per-process records.

Every attempt runs in a fresh process (see run.py). A timed process
reports one untraced attempt; a traced process reports the per-layer
metrics of one untraced/traced pair. This module turns a run's records
into the reported metrics and needs neither numpy nor sdmortar.
"""

import statistics

END_TO_END = {
    "sweep_s": "s",
    "total_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

MODULES = ("__init__", "cli", "collocation", "config", "darcy", "driver",
           "errors", "geometry", "interface", "moments", "mortar", "output",
           "problem", "random_field", "stokes")

PER_LAYER = {
    "darcy.assemble_calls": "count", "darcy.assemble_s": "s",
    "stokes.assemble_calls": "count", "stokes.assemble_s": "s",
    "darcy.solve_calls": "count", "darcy.solve_s": "s",
    "stokes.solve_calls": "count", "stokes.solve_s": "s",
    "problem.star_data_calls": "count", "problem.star_data_s": "s",
    "problem.side_functionals_s": "s",
    "mortar.jump_calls": "count", "mortar.jump_s": "s",
    "problem.postprocess_s": "s",
    "interface.factorizations": "count", "interface.backsolves": "count",
    "interface.basis_backsolves": "count", "interface.cg_iters": "count",
    "interface.cg_iters_per_dim": "ratio", "interface.cg_resid_max": "ratio",
    "interface.cg_s": "s", "interface.cg_self_s": "s",
    "interface.basis_calls": "count", "interface.basis_s": "s",
    "interface.basis_reuse": "ratio", "interface.recover_s": "s",
    "interface.sub_busy_s": "s", "interface.sub_imbalance": "ratio",
    "interface.parallel_eff": "ratio",
    "random_field.realize_calls": "count", "random_field.realize_s": "s",
    "moments.add_s": "s", "moments.finalize_s": "s",
    "output.write_s": "s", "output.bytes": "bytes",
    "random_field.kl_build_s": "s", "mortar.space_s": "s",
    "collocation.grid_s": "s", "problem.build_s": "s",
    "trace.overhead_s": "s", "trace.unattributed_s": "s",
    "size.lambda_dim": "count", "size.n_real": "count",
    "size.n_dims": "count", "size.n_loc.r0": "count",
    "size.n_loc.r1": "count", "size.basis_bytes": "bytes",
    **{f"loc.{m}": "lines" for m in MODULES},
    "loc.total": "lines",
}


def median(values):
    return statistics.median(values) if values else 0.0


def reduce_timed(records):
    """End-to-end metrics and report extras from timed-process records."""
    done = [r for r in records if r.get("sweep_s") is not None]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    metrics = {
        "sweep_s": median([r["sweep_s"] for r in done]),
        "total_s": median([r["total_s"] for r in done]),
        "setup_s": median([s for r in done for s in r["setup_s"]]),
        # Worst process: one process's peak is bimodal (see NOTES.md).
        "peak_rss_mb": max((r["peak_rss_mb"] for r in done), default=0.0),
        "ok_frac": (attempted - failed) / attempted,
    }
    extra = {
        "failed_frac": failed / attempted,
        "sweep_samples": len(done),
        "sweep_s_all": [round(r["sweep_s"], 4) for r in done],
        "sweep_s_max": max((r["sweep_s"] for r in done), default=0.0),
        "setup_samples": sum(len(r["setup_s"]) for r in done),
        "peak_rss_mb_all": [round(r["peak_rss_mb"], 1) for r in done],
    }
    return metrics, extra


def reduce_traced(records):
    """Per-layer metrics (medians over traced processes) and extras."""
    done = [r["metrics"] for r in records if r.get("metrics")]
    metrics = {name: median([m[name] for m in done if name in m])
               for name in PER_LAYER}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    extra = {"failed_frac": failed / attempted, "pairs": len(done)}
    return metrics, extra
