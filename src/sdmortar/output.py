"""Run outputs: legacy VTK fields, moment and stats CSVs, manifest."""

import json
import os

import numpy as np

from .interface import COUNTERS


STATS_COLUMNS = ("method", "subdomain", "factorizations", "backsolves",
                 "cg_iters_total", "wall_seconds")


# 17 significant digits: an exact decimal form of a float, stable across
# runs. The writers format Python floats from .tolist(), which gives the
# same text as a numpy scalar at a fraction of the cost.
_F = "{:.17g}"
_fmt = _F.format


def _darcy_cells(mesh, rect):
    """Node coordinates and quad connectivity of a rectangular grid."""
    x0, y0, x1, y1 = rect
    xs = x0 + (x1 - x0) / mesh.nx * np.arange(mesh.nx + 1)
    ys = y0 + (y1 - y0) / mesh.ny * np.arange(mesh.ny + 1)
    XX, YY = np.meshgrid(xs, ys)
    points = np.column_stack([XX.ravel(), YY.ravel()])
    w = mesh.nx + 1
    iy, ix = np.divmod(np.arange(mesh.n_cells), mesh.nx)  # row-major cells
    n00 = iy * w + ix
    conn = np.column_stack([n00, n00 + 1, n00 + w + 1, n00 + w])
    return points, conn, 9  # VTK_QUAD


def _cell_arrays(moments, sid):
    """mean/var arrays of the cell velocity and pressure of one subdomain."""
    cv_mean, cv_var = moments[f"{sid}:cv"]
    cp_mean, cp_var = moments[f"{sid}:cp"]
    return {
        "mean_u": cv_mean[:, 0], "mean_v": cv_mean[:, 1], "mean_p": cp_mean,
        "var_u": cv_var[:, 0], "var_v": cv_var[:, 1], "var_p": cp_var,
    }


def write_vtk(path, problem, sid, moments):
    """One subdomain's cell moments as a legacy ASCII VTK unstructured grid."""
    mesh = problem.meshes[sid]
    block = problem.layout.blocks[sid]
    if block.physics == "darcy":
        points, conn, ctype = _darcy_cells(mesh, block.rect)
    else:
        points, conn, ctype = mesh.p1_xy, mesh.conn_p1, 5  # VTK_TRIANGLE
    arrays = _cell_arrays(moments, sid)
    n_pts, n_cells = len(points), len(conn)
    lines = [
        "# vtk DataFile Version 3.0",
        f"subdomain {sid} ({block.physics}) moment fields",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {n_pts} double",
    ]
    lines.extend(map(f"{_F} {_F} 0".format, *points.T.tolist()))
    lines.append(f"CELLS {n_cells} {n_cells * (1 + conn.shape[1])}")
    row_fmt = " ".join(["{}"] * (1 + conn.shape[1])).format
    lines.extend(row_fmt(conn.shape[1], *row) for row in conn.tolist())
    lines.append(f"CELL_TYPES {n_cells}")
    lines.extend([str(ctype)] * n_cells)
    lines.append(f"CELL_DATA {n_cells}")
    for name, arr in arrays.items():
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(map(_fmt, arr.tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_moments_csv(path, problem, moments):
    """Cell-center moments of every subdomain, one merged CSV."""
    lines = ["x,y,mean_u,mean_v,mean_p,var_u,var_v,var_p"]
    row_fmt = ",".join([_F] * 8).format
    for sid in range(problem.layout.n_subdomains):
        centers = problem.cell_centers(sid)
        arrays = _cell_arrays(moments, sid)
        columns = [centers[:, 0], centers[:, 1], *arrays.values()]
        lines.extend(map(row_fmt, *(c.tolist() for c in columns)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_stats_csv(path, stats, timing_in_csv=False):
    """Per-subdomain solver effort. Wall time is 0.0 unless opted in."""
    lines = [",".join(STATS_COLUMNS)]
    for sid in range(stats.n_sub):
        wall = float(stats.wall_seconds[sid]) if timing_in_csv else 0.0
        lines.append(",".join([
            stats.method, str(sid), str(int(stats.factorizations[sid])),
            str(int(stats.backsolves[sid])), str(stats.cg_iters_total),
            repr(wall)]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def run_manifest(cfg, problem, grid, result):
    """Summary record of one run: config echo plus derived sizes."""
    layout = problem.layout
    stats = result.stats
    n_regions = len(problem.perm.regions)
    return {
        "config": cfg,
        "method": stats.method,
        "n_subdomains": layout.n_subdomains,
        "n_interfaces": len(layout.interfaces),
        "interfaces": [
            {"index": g.index, "between": [g.i, g.j], "kind": g.kind,
             "mortar_dofs": int(problem.space.block(g.index).n_dof)}
            for g in layout.interfaces],
        "lambda_dim": int(problem.space.n_dof),
        "n_dims": int(grid.n_dims),
        "n_real": int(grid.n_real),
        "n_real_per_region": {
            str(i): int(grid.local_counts[i])
            for i in range(n_regions)},
        "subdomain_dofs": {
            str(sid): int(problem.sub_dofs[sid].size)
            for sid in range(layout.n_subdomains)},
        "cg_iters": [int(n) for n in stats.cg_iters],
        "cg_final_residual": [res[-1] if res else 0.0
                              for res in result.residuals],
        "cg_residuals": [list(res) for res in result.residuals],
        "cg_cond_estimate": result.cg_cond,
        **{f"total_{name}": int(getattr(stats, name).sum())
           for name in COUNTERS},
    }


def write_outputs(out_dir, cfg, problem, grid, result,
                  timing_in_csv=False):
    """Write every run artifact into out_dir and return the paths."""
    os.makedirs(out_dir, exist_ok=True)
    moments = result.moments
    paths = {"vtk": []}
    for sid in range(problem.layout.n_subdomains):
        p = os.path.join(out_dir, f"subdomain_{sid:02d}.vtk")
        write_vtk(p, problem, sid, moments)
        paths["vtk"].append(p)
    paths["moments_csv"] = os.path.join(out_dir, "moments.csv")
    write_moments_csv(paths["moments_csv"], problem, moments)
    paths["stats_csv"] = os.path.join(out_dir, "stats.csv")
    write_stats_csv(paths["stats_csv"], result.stats,
                    timing_in_csv=timing_in_csv)
    paths["manifest"] = os.path.join(out_dir, "manifest.json")
    manifest = run_manifest(cfg, problem, grid, result)
    with open(paths["manifest"], "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths
