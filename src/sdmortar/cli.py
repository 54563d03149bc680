"""Command line tool: run, validate, eig, and grid subcommands."""

import argparse
import json
import sys

from .config import (COLLOCATION, KL_REGIONS, build_from_config, build_grid,
                     build_kl_regions, check_collocation, config_dir_of,
                     integer, load_json, parse_config, validate_config)
from .errors import (ConfigError, ConvergenceError, SingularOperatorError,
                     SizeCapError)
from .interface import METHODS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_RESOURCE = 4
EXIT_SINGULAR = 5

_SPLITS = integer("{path}: splits must be a list of ints >= 1", 1, n=0,
                  scalar=False)


def _fail(exc, code):
    """Emit a machine-readable error record on stderr and return the code."""
    record = {"error": type(exc).__name__, "exit_code": code,
              "message": str(exc)}
    if isinstance(exc, ConfigError):
        record["messages"] = exc.messages
    print(json.dumps(record), file=sys.stderr)
    return code


def _cmd_run(args):
    from .driver import run_file

    overrides = {"method": args.method, "workers": args.workers,
                 "out_dir": args.out_dir}
    problem, grid, result, paths = run_file(args.config,
                                            overrides=overrides)
    stats = result.stats
    print(f"method {stats.method}: {grid.n_real} realizations, "
          f"lambda dim {problem.space.n_dof}, "
          f"{stats.cg_iters_total} cg iterations total")
    print(f"wrote {len(paths['vtk'])} vtk files, {paths['moments_csv']}, "
          f"{paths['stats_csv']}, {paths['manifest']}")
    return EXIT_OK


def _cmd_validate(args):
    cfg = parse_config(args.config)
    problem, grid, options = build_from_config(cfg,
                                               config_dir_of(args.config))
    problem.systems()  # a singular block fails as it would in run
    layout = problem.layout
    print(f"config ok: {layout.n_subdomains} subdomains, "
          f"{len(layout.interfaces)} interfaces, method {options['method']}")
    for g in layout.interfaces:
        blk = problem.space.block(g.index)
        print(f"  interface {g.index}: {g.kind} between {g.i} and {g.j}, "
              f"{blk.n_elem} mortar elements, {blk.n_dof} dofs")
    print(f"lambda dim {problem.space.n_dof}, {grid.n_dims} random "
          f"dimensions, {grid.n_real} realizations")
    return EXIT_OK


def _region_specs(data):
    """KL region list from either a run config or one bare region object."""
    if isinstance(data, dict) and "kl_regions" in data:
        data = data["kl_regions"]
    else:
        data = [data]
    errors = []
    specs = KL_REGIONS(data, "", "kl_regions", errors)
    if errors:
        raise ConfigError(errors)
    return specs


def _cmd_eig(args):
    regions = build_kl_regions(_region_specs(load_json(args.spec)))
    print("region,index,eigenvalue")
    for i, exp in enumerate(regions):
        for j, lam in enumerate(exp.eigenvalues()):
            print(f"{i},{j},{lam:.17g}")
    return EXIT_OK


def _build_bare_grid(data):
    """Grid of a bare spec: a collocation object plus `splits`, the number
    of random dimensions per region (optional when m is a list)."""
    if not isinstance(data, dict):
        raise ConfigError(["grid spec: JSON object required"])
    spec = dict(data)
    splits = spec.pop("splits", None)
    errors = []
    if splits is not None:
        splits = _SPLITS(splits, "", "grid spec", errors)
    n_dims = sum(splits) if splits else None
    col = COLLOCATION(spec, "", "collocation", errors)
    check_collocation(col, n_dims, errors)
    if not errors and splits is None and not isinstance(col.get("m"), list):
        errors.append("grid spec: 'splits' required unless m is a list")
    if errors:
        raise ConfigError(errors)
    return build_grid(col, n_dims, tuple(splits) if splits else None)


def _cmd_grid(args):
    data = load_json(args.spec)
    if isinstance(data, dict) and "domain" in data:
        cfg = validate_config(data)
        _, grid, _ = build_from_config(cfg, config_dir_of(args.spec))
    else:
        grid = _build_bare_grid(data)
    n_regions = len(grid.local_counts)
    head = ["k", "weight"]
    head += [f"local_{i}" for i in range(n_regions)]
    head += [f"y{d}" for d in range(grid.n_dims)]
    print(",".join(head))
    for k in range(grid.n_real):
        row = [str(k), f"{grid.weights[k]:.17g}"]
        row += [str(int(grid.local_indices[i][k]))
                for i in range(n_regions)]
        row += [f"{v:.17g}" for v in grid.points[k]]
        print(",".join(row))
    counts = ",".join(str(int(c)) for c in grid.local_counts)
    print(f"# n_real={grid.n_real} local_counts={counts}", file=sys.stderr)
    return EXIT_OK


def _parser():
    p = argparse.ArgumentParser(
        prog="sdmortar",
        description="Stochastic Stokes-Darcy mortar solver")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a configured collocation sweep")
    run.add_argument("config")
    run.add_argument("--method", choices=METHODS, default=None)
    run.add_argument("--workers", type=int, default=None)
    run.add_argument("--out-dir", dest="out_dir", default=None)
    run.set_defaults(func=_cmd_run)

    val = sub.add_parser("validate", help="check a config and print sizes")
    val.add_argument("config")
    val.set_defaults(func=_cmd_validate)

    eig = sub.add_parser("eig", help="dump KL eigenvalues of region specs")
    eig.add_argument("spec")
    eig.set_defaults(func=_cmd_eig)

    grd = sub.add_parser("grid", help="dump collocation points and tables")
    grd.add_argument("spec")
    grd.set_defaults(func=_cmd_grid)
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail(exc, EXIT_CONFIG)
    except ConvergenceError as exc:
        return _fail(exc, EXIT_CONVERGENCE)
    except SizeCapError as exc:
        return _fail(exc, EXIT_RESOURCE)
    except SingularOperatorError as exc:
        return _fail(exc, EXIT_SINGULAR)


if __name__ == "__main__":
    sys.exit(main())
