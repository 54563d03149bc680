"""JSON run configuration: validation, normalization, and problem building."""

import json
import math
import os

import numpy as np

from .collocation import build_sparse_grid, build_tensor_grid
from .darcy import DarcyBC
from .errors import ConfigError
from .geometry import SIDES, Block, build_layout, build_subdomain_mesh
from .mortar import build_mortar_space
from .problem import Physics, build_problem
from .random_field import (CovarianceSpec, LogPermField, MeanLogPerm,
                           build_kl_region)
from .stokes import StokesBC

METHOD_NAMES = ("S1", "S2", "S3")

_TOP_KEYS = ("domain", "kl_regions", "mean_log_perm", "collocation",
             "physics", "mortars", "bcs", "sources", "method", "cg",
             "output", "workers", "basis_cap_mb")

_EXPR_NAMES = {
    "pi": math.pi,
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "tanh": np.tanh,
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "abs": np.abs,
    "minimum": np.minimum, "maximum": np.maximum, "where": np.where,
}


def _is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_int(v, least=None):
    """v is an int (JSON true/false are not), and >= least if given."""
    return (isinstance(v, int) and not isinstance(v, bool)
            and (least is None or v >= least))


def _is_index_key(k):
    """k is the canonical decimal text of an int >= 0: "3", not "03"."""
    return (isinstance(k, str) and k.isascii() and k.isdigit()
            and str(int(k)) == k)


def _check_keys(d, allowed, where, errors):
    for k in d:
        if k not in allowed:
            errors.append(f"{where}: unknown key {k!r}")


def compile_expression(text, where, errors):
    """Compile an expression in x and y into a vectorized callable."""
    try:
        code = compile(str(text), "<config>", "eval")
    except SyntaxError as exc:
        errors.append(f"{where}: bad expression {text!r} ({exc.msg})")
        return None
    unknown = set(code.co_names) - set(_EXPR_NAMES) - {"x", "y"}
    if unknown:
        errors.append(f"{where}: unknown name(s) {sorted(unknown)} "
                      f"in expression {text!r}")
        return None

    def func(x, y):
        env = dict(_EXPR_NAMES)
        env["x"] = x
        env["y"] = y
        return eval(code, {"__builtins__": {}}, env)

    try:
        probe = np.array([0.25, 0.75])
        np.asarray(func(probe, probe), dtype=float)
    except Exception as exc:
        errors.append(f"{where}: expression {text!r} fails to evaluate "
                      f"({exc})")
        return None
    return func


def _scalar_value(v, where, errors, allow_none=True):
    """Validate a scalar data value: null, number, or expression string."""
    if v is None:
        if not allow_none:
            errors.append(f"{where}: value required")
        return None
    if _is_num(v):
        return float(v) if isinstance(v, float) else v
    if isinstance(v, str):
        compile_expression(v, where, errors)
        return v
    errors.append(f"{where}: expected null, number, or expression string, "
                  f"got {v!r}")
    return None


def _pair_value(v, where, errors):
    """Validate a vector data value: null or a 2-list of scalar values."""
    if v is None:
        return None
    if not isinstance(v, list) or len(v) != 2:
        errors.append(f"{where}: expected null or [vx, vy]")
        return None
    return [_scalar_value(v[0], f"{where}[0]", errors, allow_none=False),
            _scalar_value(v[1], f"{where}[1]", errors, allow_none=False)]


def _rect(v, where, errors):
    if (not isinstance(v, list) or len(v) != 4
            or not all(_is_num(c) for c in v)):
        errors.append(f"{where}: rect must be [x0, y0, x1, y1]")
        return [0.0, 0.0, 1.0, 1.0]
    out = [float(c) for c in v]
    if out[2] <= out[0] or out[3] <= out[1]:
        errors.append(f"{where}: rect {out} is not increasing")
    return out


def _validate_domain(raw, errors):
    dom = raw.get("domain")
    if not isinstance(dom, dict) or "blocks" not in dom:
        errors.append("domain: required object with a 'blocks' list")
        return {"blocks": []}
    _check_keys(dom, ("blocks",), "domain", errors)
    src = dom.get("blocks")
    if not isinstance(src, list) or not src:
        errors.append("domain.blocks: non-empty list required")
        return {"blocks": []}
    blocks = []
    for k, b in enumerate(src):
        where = f"domain.blocks[{k}]"
        if not isinstance(b, dict):
            errors.append(f"{where}: must be an object")
            blocks.append(None)  # keeps the later blocks' subdomain ids
            continue
        _check_keys(b, ("rect", "physics", "mesh", "kl_region"),
                    where, errors)
        rect = _rect(b.get("rect"), where, errors)
        phys = b.get("physics")
        if phys not in ("stokes", "darcy"):
            errors.append(f"{where}: physics must be 'stokes' or 'darcy'")
            phys = "darcy"
        mesh = b.get("mesh")
        if (not isinstance(mesh, list) or len(mesh) != 2
                or not all(_is_int(m, 1) for m in mesh)):
            errors.append(f"{where}: mesh must be [nx, ny] with nx, ny >= 1")
            mesh = [1, 1]
        klr = b.get("kl_region")
        if phys == "darcy":
            if not _is_int(klr, 0):
                errors.append(f"{where}: darcy block needs a kl_region index")
                klr = 0
        elif klr is not None:
            errors.append(f"{where}: stokes block takes no kl_region")
            klr = None
        blocks.append({"rect": rect, "physics": phys,
                       "mesh": [int(m) for m in mesh], "kl_region": klr})
    return {"blocks": blocks}


def _validate_kl_regions(raw, errors):
    src = raw.get("kl_regions", [])
    if not isinstance(src, list):
        errors.append("kl_regions: must be a list")
        return []
    out = []
    for i, r in enumerate(src):
        where = f"kl_regions[{i}]"
        if not isinstance(r, dict):
            errors.append(f"{where}: must be an object")
            out.append(None)  # keeps the later regions' indices
            continue
        _check_keys(r, ("rect", "sigma2", "eta", "n_term", "selection"),
                    where, errors)
        rect = _rect(r.get("rect"), where, errors)
        sigma2 = r.get("sigma2")
        if not _is_num(sigma2) or sigma2 < 0:
            errors.append(f"{where}: sigma2 must be a number >= 0")
            sigma2 = 1.0
        eta = r.get("eta")
        if (not isinstance(eta, list) or len(eta) != 2
                or not all(_is_num(e) and e > 0 for e in eta)):
            errors.append(f"{where}: eta must be [eta_x, eta_y] with both > 0")
            eta = [0.1, 0.1]
        n_term = r.get("n_term")
        sel = r.get("selection")
        if _is_int(n_term, 1):
            if sel is None:
                sel = "largest"
            if sel != "largest":
                errors.append(f"{where}: scalar n_term requires "
                              f"selection 'largest'")
                sel = "largest"
        elif (isinstance(n_term, list) and len(n_term) == 2
                and all(_is_int(m, 1) for m in n_term)):
            if sel is None:
                sel = "box"
            if sel != "box":
                errors.append(f"{where}: n_term [nx, ny] requires "
                              f"selection 'box'")
                sel = "box"
        else:
            errors.append(f"{where}: n_term must be an int >= 1 or [nx, ny]")
            n_term, sel = 1, "largest"
        out.append({"rect": rect, "sigma2": float(sigma2),
                    "eta": [float(e) for e in eta],
                    "n_term": n_term, "selection": sel})
    return out


def _region_dims(region):
    n = region["n_term"]
    return n[0] * n[1] if isinstance(n, list) else n


def _validate_mean(raw, errors):
    src = raw.get("mean_log_perm", {"kind": "constant", "value": 0.0})
    where = "mean_log_perm"
    if not isinstance(src, dict) or "kind" not in src:
        errors.append(f"{where}: object with a 'kind' key required")
        return {"kind": "constant", "value": 0.0}
    kind = src["kind"]
    if kind == "constant":
        _check_keys(src, ("kind", "value"), where, errors)
        v = src.get("value", 0.0)
        if not _is_num(v):
            errors.append(f"{where}: constant value must be a number")
            v = 0.0
        return {"kind": "constant", "value": float(v)}
    if kind == "expression":
        _check_keys(src, ("kind", "expr"), where, errors)
        expr = src.get("expr")
        if not isinstance(expr, str):
            errors.append(f"{where}: 'expr' string required")
            return {"kind": "constant", "value": 0.0}
        compile_expression(expr, where, errors)
        return {"kind": "expression", "expr": expr}
    if kind == "per_region":
        _check_keys(src, ("kind", "values"), where, errors)
        vals = src.get("values")
        if not isinstance(vals, dict) or not vals:
            errors.append(f"{where}: 'values' mapping region -> mean required")
            return {"kind": "constant", "value": 0.0}
        out = {}
        for k, v in vals.items():
            if not (_is_index_key(k) and _is_num(v)):
                errors.append(f"{where}.values: bad entry {k!r}: {v!r}")
                continue
            out[k] = float(v)
        return {"kind": "per_region", "values": out}
    if kind == "raster":
        _check_keys(src, ("kind", "rect", "shape", "values", "path"),
                    where, errors)
        rect = _rect(src.get("rect"), where, errors)
        shape = src.get("shape")
        if (not isinstance(shape, list) or len(shape) != 2
                or not all(_is_int(m, 1) for m in shape)):
            errors.append(f"{where}: shape must be [nx, ny]")
            shape = [1, 1]
        values, path = src.get("values"), src.get("path")
        if (values is None) == (path is None):
            errors.append(f"{where}: raster needs exactly one of "
                          f"'values' or 'path'")
        out = {"kind": "raster", "rect": rect,
               "shape": [int(m) for m in shape]}
        if values is not None:
            nx, ny = shape
            ok = (isinstance(values, list) and len(values) == ny
                  and all(isinstance(row, list) and len(row) == nx
                          and all(_is_num(v) for v in row)
                          for row in values))
            if not ok:
                errors.append(f"{where}: values must be ny rows of nx "
                              f"numbers (row 0 at the bottom)")
                values = [[0.0] * shape[0] for _ in range(shape[1])]
            out["values"] = [[float(v) for v in row] for row in values]
        elif isinstance(path, str):
            out["path"] = path
        else:
            errors.append(f"{where}: path must be a string")
            out["values"] = [[0.0] * shape[0] for _ in range(shape[1])]
        return out
    errors.append(f"{where}: unknown kind {kind!r}")
    return {"kind": "constant", "value": 0.0}


def _validate_collocation(raw, n_dims, errors):
    """Collocation spec on n_dims random dimensions (None: not known, as
    for a bare grid spec without splits or a bad kl_regions entry)."""
    src = raw.get("collocation")
    where = "collocation"
    if not isinstance(src, dict) or "kind" not in src:
        errors.append(f"{where}: object with kind 'tensor' or 'sparse' "
                      f"required")
        return {"kind": "tensor", "m": 1}
    kind = src.get("kind")
    if kind == "tensor":
        _check_keys(src, ("kind", "m"), where, errors)
        m = src.get("m")
        if _is_int(m, 1):
            return {"kind": "tensor", "m": m}
        if isinstance(m, list) and m and all(_is_int(v, 1) for v in m):
            if n_dims is not None and len(m) != n_dims:
                errors.append(f"{where}: m has {len(m)} entries but the KL "
                              f"regions define {n_dims} dimensions")
            return {"kind": "tensor", "m": list(m)}
        errors.append(f"{where}: m must be an int >= 1 or a list of them")
        return {"kind": "tensor", "m": 1}
    if kind == "sparse":
        _check_keys(src, ("kind", "level"), where, errors)
        lev = src.get("level")
        if not _is_int(lev, 0):
            errors.append(f"{where}: level must be an int >= 0")
            lev = 0
        if n_dims == 0:
            errors.append(f"{where}: a sparse grid needs at least one KL "
                          f"dimension")
        return {"kind": "sparse", "level": lev}
    errors.append(f"{where}: unknown kind {kind!r}")
    return {"kind": "tensor", "m": 1}


def _validate_physics(raw, errors):
    src = raw.get("physics", {})
    out = {"nu_s": 1.0, "nu_d": 1.0, "alpha": 1.0}
    if not isinstance(src, dict):
        errors.append("physics: must be an object")
        return out
    _check_keys(src, tuple(out), "physics", errors)
    for key in out:
        if key in src:
            v = src[key]
            if not _is_num(v) or v < 0:
                errors.append(f"physics.{key}: number >= 0 required")
            else:
                out[key] = float(v)
    return out


def _validate_mortars(raw, errors):
    src = raw.get("mortars", {})
    out = {"degree": 1, "allow_fine": False, "per_interface": {}}
    if not isinstance(src, dict):
        errors.append("mortars: must be an object")
        return out
    _check_keys(src, ("dd", "sd", "ss", "degree", "allow_fine",
                      "per_interface"), "mortars", errors)
    for kind in ("dd", "sd", "ss"):
        if kind in src:
            v = src[kind]
            if not _is_int(v, 1):
                errors.append(f"mortars.{kind}: int >= 1 required")
            else:
                out[kind] = v
    if "degree" in src:
        if not _is_int(src["degree"]) or src["degree"] not in (0, 1):
            errors.append("mortars.degree: 0 or 1 supported")
        else:
            out["degree"] = src["degree"]
    if "allow_fine" in src:
        if not isinstance(src["allow_fine"], bool):
            errors.append("mortars.allow_fine: bool required")
        else:
            out["allow_fine"] = src["allow_fine"]
    pi = src.get("per_interface", {})
    if not isinstance(pi, dict):
        errors.append("mortars.per_interface: mapping interface -> count "
                      "required")
    else:
        for k, v in pi.items():
            if not _is_index_key(k):
                errors.append(f"mortars.per_interface: bad interface key "
                              f"{k!r}")
            elif not _is_int(v, 1):
                errors.append(f"mortars.per_interface[{k}]: int >= 1 "
                              f"required")
            else:
                out["per_interface"][k] = v
    return out


def _validate_bcs(raw, blocks, errors):
    src = raw.get("bcs", {})
    if not isinstance(src, dict):
        errors.append("bcs: must be an object keyed by subdomain id")
        return {}
    out = {}
    for key, sides in src.items():
        if not (_is_index_key(key) and int(key) < len(blocks)):
            errors.append(f"bcs: unknown subdomain {key!r}")
            continue
        if blocks[int(key)] is None:  # reported by _validate_domain
            continue
        phys = blocks[int(key)]["physics"]
        if not isinstance(sides, dict):
            errors.append(f"bcs.{key}: must be an object keyed by side")
            continue
        out_sides = {}
        for side, bc in sides.items():
            where = f"bcs.{key}.{side}"
            if side not in SIDES:
                errors.append(f"bcs.{key}: unknown side {side!r}")
                continue
            if not isinstance(bc, dict) or "kind" not in bc:
                errors.append(f"{where}: object with a 'kind' key required")
                continue
            _check_keys(bc, ("kind", "value"), where, errors)
            kind = bc["kind"]
            val = bc.get("value")
            if phys == "darcy":
                if kind == "noflow":
                    if val is not None:
                        errors.append(f"{where}: noflow takes no value")
                    out_sides[side] = {"kind": "noflow", "value": None}
                elif kind == "pressure":
                    out_sides[side] = {
                        "kind": "pressure",
                        "value": _scalar_value(val, where, errors)}
                else:
                    errors.append(f"{where}: darcy side must be 'noflow' "
                                  f"or 'pressure', got {kind!r}")
            else:
                if kind in ("velocity", "stress"):
                    out_sides[side] = {
                        "kind": kind,
                        "value": _pair_value(val, where, errors)}
                else:
                    errors.append(f"{where}: stokes side must be 'velocity' "
                                  f"or 'stress', got {kind!r}")
        out[key] = out_sides
    return out


def _validate_sources(raw, errors):
    src = raw.get("sources", {})
    out = {"f_s": None, "f_d": None, "q_d": None}
    if not isinstance(src, dict):
        errors.append("sources: must be an object")
        return out
    _check_keys(src, tuple(out), "sources", errors)
    out["f_s"] = _pair_value(src.get("f_s"), "sources.f_s", errors)
    out["f_d"] = _pair_value(src.get("f_d"), "sources.f_d", errors)
    out["q_d"] = _scalar_value(src.get("q_d"), "sources.q_d", errors)
    return out


def _covers(outer, inner, tol=1e-12):
    return (outer[0] <= inner[0] + tol and outer[1] <= inner[1] + tol
            and outer[2] >= inner[2] - tol and outer[3] >= inner[3] - tol)


def validate_config(raw):
    """Normalize a raw config dict, collecting every error before raising."""
    if not isinstance(raw, dict):
        raise ConfigError(["top level must be a JSON object"])
    errors = []
    _check_keys(raw, _TOP_KEYS, "config", errors)

    cfg = {}
    cfg["domain"] = _validate_domain(raw, errors)
    cfg["kl_regions"] = _validate_kl_regions(raw, errors)
    cfg["mean_log_perm"] = _validate_mean(raw, errors)
    n_dims = (None if None in cfg["kl_regions"]
              else sum(_region_dims(r) for r in cfg["kl_regions"]))
    cfg["collocation"] = _validate_collocation(raw, n_dims, errors)
    cfg["physics"] = _validate_physics(raw, errors)
    cfg["mortars"] = _validate_mortars(raw, errors)
    cfg["bcs"] = _validate_bcs(raw, cfg["domain"]["blocks"], errors)
    cfg["sources"] = _validate_sources(raw, errors)

    method = raw.get("method", "S1")
    if method not in METHOD_NAMES:
        errors.append(f"method: must be one of {METHOD_NAMES}")
        method = "S1"
    cfg["method"] = method

    cg = raw.get("cg", {})
    out_cg = {"tol": 1e-9, "max_iter": None}
    if not isinstance(cg, dict):
        errors.append("cg: must be an object")
    else:
        _check_keys(cg, ("tol", "max_iter"), "cg", errors)
        if "tol" in cg:
            if not _is_num(cg["tol"]) or cg["tol"] <= 0:
                errors.append("cg.tol: number > 0 required")
            else:
                out_cg["tol"] = float(cg["tol"])
        if cg.get("max_iter") is not None:
            if not _is_int(cg["max_iter"], 1):
                errors.append("cg.max_iter: int >= 1 or null required")
            else:
                out_cg["max_iter"] = cg["max_iter"]
    cfg["cg"] = out_cg

    output = raw.get("output", {})
    out_out = {"dir": "out", "timing_in_csv": False}
    if not isinstance(output, dict):
        errors.append("output: must be an object")
    else:
        _check_keys(output, ("dir", "timing_in_csv"), "output", errors)
        if "dir" in output:
            if not isinstance(output["dir"], str) or not output["dir"]:
                errors.append("output.dir: non-empty string required")
            else:
                out_out["dir"] = output["dir"]
        if "timing_in_csv" in output:
            if not isinstance(output["timing_in_csv"], bool):
                errors.append("output.timing_in_csv: bool required")
            else:
                out_out["timing_in_csv"] = output["timing_in_csv"]
    cfg["output"] = out_out

    workers = raw.get("workers", 1)
    if not _is_int(workers, 1):
        errors.append("workers: int >= 1 required")
        workers = 1
    cfg["workers"] = workers

    cap = raw.get("basis_cap_mb", 1024.0)
    if not _is_num(cap) or cap <= 0:
        errors.append("basis_cap_mb: number > 0 required")
        cap = 1024.0
    cfg["basis_cap_mb"] = float(cap)

    # cross checks
    n_regions = len(cfg["kl_regions"])
    used = set()  # KL regions some Darcy block reads its mean from
    for k, b in enumerate(cfg["domain"]["blocks"]):
        if b is None or b["physics"] != "darcy":
            continue
        r = b["kl_region"]
        used.add(r)
        if r >= n_regions:
            errors.append(f"domain.blocks[{k}]: kl_region {r} out of range "
                          f"(have {n_regions} regions)")
        elif (cfg["kl_regions"][r] is not None
              and not _covers(cfg["kl_regions"][r]["rect"], b["rect"])):
            errors.append(f"domain.blocks[{k}]: rect {b['rect']} not "
                          f"covered by kl_regions[{r}] rect "
                          f"{cfg['kl_regions'][r]['rect']}")
    if used and n_dims == 0:
        errors.append("kl_regions: at least one KL term is required when "
                      "darcy blocks are present")
    if cfg["mean_log_perm"]["kind"] == "per_region":
        given = cfg["mean_log_perm"]["values"]
        for key in given:
            if int(key) >= n_regions:
                errors.append(f"mean_log_perm.values: region {key} out of "
                              f"range")
        missing = sorted({r for r in used if r < n_regions}
                         - {int(k) for k in given})
        if missing:
            errors.append(f"mean_log_perm.values: no mean for KL region(s) "
                          f"{', '.join(map(str, missing))}")

    if errors:
        raise ConfigError(errors)
    return cfg


def load_json(path):
    """The JSON value in file `path`; ConfigError if unreadable or invalid."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError([f"cannot read {path}: {exc}"]) from None
    except json.JSONDecodeError as exc:
        raise ConfigError([f"invalid JSON in {path}: {exc}"]) from None


def config_dir_of(path):
    """The directory that relative paths in config file `path` (raster
    files) are read from: the file's own."""
    return os.path.dirname(os.path.abspath(path))


def parse_config(path):
    """Parse a JSON config file into a normalized config dict."""
    return validate_config(load_json(path))


def serialize_config(cfg):
    """Canonical JSON text of a normalized config (round-trips exactly)."""
    return json.dumps(cfg, indent=2, sort_keys=True) + "\n"


def _scalar_func(v):
    if v is None:
        return None
    if _is_num(v):
        c = float(v)
        return lambda x, y: np.broadcast_to(c, np.shape(x)) if np.ndim(x) \
            else c
    return compile_expression(v, "value", [])


def _pair_func(v):
    if v is None:
        return None
    f0, f1 = _scalar_func(v[0]), _scalar_func(v[1])
    return lambda x, y: (f0(x, y), f1(x, y))


def _raster_func(spec, config_dir):
    x0, y0, x1, y1 = spec["rect"]
    nx, ny = spec["shape"]
    if "values" in spec:
        vals = np.asarray(spec["values"], dtype=float)
    else:
        path = spec["path"]
        if config_dir is not None and not os.path.isabs(path):
            path = os.path.join(config_dir, path)
        try:
            vals = np.loadtxt(path, delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            raise ConfigError([f"mean_log_perm: cannot read raster "
                               f"{path}: {exc}"]) from None
    if vals.shape != (ny, nx):
        raise ConfigError([f"mean_log_perm: raster data has shape "
                           f"{vals.shape}, expected ({ny}, {nx})"])
    hx, hy = (x1 - x0) / nx, (y1 - y0) / ny

    def func(x, y):
        ix = np.clip(((np.asarray(x) - x0) / hx).astype(int), 0, nx - 1)
        iy = np.clip(((np.asarray(y) - y0) / hy).astype(int), 0, ny - 1)
        return vals[iy, ix]

    return func


def _build_mean(spec, config_dir):
    kind = spec["kind"]
    if kind == "constant":
        return MeanLogPerm("constant", value=spec["value"])
    if kind == "expression":
        return MeanLogPerm("expression",
                           func=compile_expression(spec["expr"], "mean", []))
    if kind == "per_region":
        per = {int(k): v for k, v in spec["values"].items()}
        return MeanLogPerm("per_region", per_region=per)
    return MeanLogPerm("expression", func=_raster_func(spec, config_dir))


def _build_bcs(cfg):
    bcs = {}
    for key, sides in cfg["bcs"].items():
        out = {}
        for side, bc in sides.items():
            if bc["kind"] in ("noflow", "pressure"):
                out[side] = DarcyBC(bc["kind"], _scalar_func(bc["value"]))
            else:
                out[side] = StokesBC(bc["kind"], _pair_func(bc["value"]))
        bcs[int(key)] = out
    return bcs


def build_kl_regions(specs):
    """KL expansion of every validated kl_regions entry, in order."""
    out = []
    for r in specs:
        cov = CovarianceSpec(tuple(r["rect"]), r["sigma2"], tuple(r["eta"]))
        n_term = tuple(r["n_term"]) if r["selection"] == "box" \
            else r["n_term"]
        out.append(build_kl_region(cov, n_term, selection=r["selection"]))
    return out


def build_grid(col, n_dims, splits=None):
    """Collocation grid of a validated collocation spec on n_dims dims.

    A tensor spec with one m uses it in every dimension; `splits` is the
    number of dimensions per KL region.
    """
    if col["kind"] == "sparse":
        return build_sparse_grid(n_dims, col["level"], splits=splits)
    m = col["m"]
    return build_tensor_grid(m if isinstance(m, list) else [m] * n_dims,
                             splits=splits)


def build_from_config(cfg, config_dir=None):
    """Construct (problem, grid, options) from a normalized config."""
    blocks = [Block(tuple(b["rect"]), b["physics"], tuple(b["mesh"]),
                    b["kl_region"])
              for b in cfg["domain"]["blocks"]]
    layout = build_layout(blocks)
    meshes = {sid: build_subdomain_mesh(b)
              for sid, b in enumerate(layout.blocks)}

    errors = []
    mort = cfg["mortars"]
    counts = {}
    for g in layout.interfaces:
        n = mort["per_interface"].get(str(g.index), mort.get(g.kind))
        if n is None:
            errors.append(f"interface {g.index} ({g.kind}, between {g.i} "
                          f"and {g.j}): no mortar element count configured")
        else:
            counts[g.index] = n
    for key in mort["per_interface"]:
        if int(key) >= len(layout.interfaces):
            errors.append(f"mortars.per_interface: interface {key} does "
                          f"not exist (found {len(layout.interfaces)})")
    if errors:
        raise ConfigError(errors)
    space = build_mortar_space(layout, meshes, counts,
                               degree=mort["degree"],
                               allow_fine=mort["allow_fine"])

    regions = build_kl_regions(cfg["kl_regions"])
    perm = LogPermField(regions, _build_mean(cfg["mean_log_perm"],
                                             config_dir))
    grid = build_grid(cfg["collocation"], perm.n_dims,
                      tuple(r.n_term for r in regions))

    phys = Physics(cfg["physics"]["nu_s"], cfg["physics"]["nu_d"],
                   cfg["physics"]["alpha"])
    src = cfg["sources"]
    problem = build_problem(layout, space, perm, phys, _build_bcs(cfg),
                            f_s=_pair_func(src["f_s"]),
                            f_d=_pair_func(src["f_d"]),
                            q_d=_scalar_func(src["q_d"]), meshes=meshes)
    options = {
        "method": cfg["method"],
        "tol": cfg["cg"]["tol"],
        "max_iter": cfg["cg"]["max_iter"],
        "workers": cfg["workers"],
        "basis_cap_mb": cfg["basis_cap_mb"],
        "out_dir": cfg["output"]["dir"],
        "timing_in_csv": cfg["output"]["timing_in_csv"],
    }
    return problem, grid, options
