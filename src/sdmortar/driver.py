"""End-to-end runs: config in, moment fields and effort reports out."""

from .config import (build_from_config, config_dir_of, parse_config,
                     validate_config)
from .interface import run_method
from .output import write_outputs


def run_config(cfg, config_dir=None, overrides=None):
    """Run one configured sweep and write its outputs.

    overrides maps option names (method, workers, out_dir) to replacement
    values; None entries are ignored. They are written into a copy of cfg,
    which is validated again, run and echoed in the manifest. Returns
    (problem, grid, result, paths).
    """
    over = {k: v for k, v in (overrides or {}).items() if v is not None}
    output = dict(cfg["output"])
    if "out_dir" in over:
        output["dir"] = over.pop("out_dir")
    cfg = validate_config({**cfg, **over, "output": output})
    problem, grid, options = build_from_config(cfg, config_dir)
    result = run_method(problem, grid,
                        method=options["method"],
                        tol=options["tol"],
                        max_iter=options["max_iter"],
                        workers=options["workers"],
                        basis_cap_mb=options["basis_cap_mb"])
    paths = write_outputs(options["out_dir"], cfg, problem, grid, result,
                          timing_in_csv=options["timing_in_csv"])
    return problem, grid, result, paths


def run_file(path, overrides=None):
    """Parse a config file, run it, and write outputs next to out_dir."""
    return run_config(parse_config(path), config_dir=config_dir_of(path),
                      overrides=overrides)
