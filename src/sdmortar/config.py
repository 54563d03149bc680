"""JSON run configuration: validation, normalization, and problem building.

Validation is one walk over a field table. `CONFIG` describes each section
once: every field has a type (finite number, int, bool, string, choice,
rect, [a, b] pair, index-keyed map, list of objects, or a tagged union
whose tag picks the table of the other fields), its bounds, its default
and its message. A type is a function `walk(v, where, path, errors)` that
returns the normalized form of the raw JSON value `v`, or None after
appending one message per fault (`where` is the enclosing object's path,
`path` the value's own). By construction the walk keeps every list
position (a rejected entry becomes None, so later subdomain ids and KL
region indices stay put), accepts only canonical index keys ("3", not
"03"), never counts a JSON true/false as a number and accepts only finite
numbers (JSON NaN and Infinity are faults). What relates sections stays
as code in `validate_config`: the bcs of each block's physics, the Darcy
blocks' KL region range and cover, at least one KL term, the per-region
means and the collocation rule's dimension count.
"""

import json
import math
import os
import sys
from functools import lru_cache

import numpy as np

from .collocation import build_sparse_grid, build_tensor_grid
from .darcy import DarcyBC
from .errors import ConfigError
from .geometry import SIDES, Block, build_layout, build_subdomain_mesh
from .interface import METHODS
from .mortar import build_mortar_space
from .problem import Physics, build_problem
from .random_field import CovarianceSpec, LogPermField, build_kl_region
from .stokes import StokesBC

OMIT = object()  # the default of a field that stays absent if not given
_MAX = sys.float_info.max

_EXPR_NAMES = {
    "pi": math.pi,
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "tanh": np.tanh,
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "abs": np.abs,
    "minimum": np.minimum, "maximum": np.maximum, "where": np.where,
}


def _is_num(v):
    """v is a finite number: JSON true/false, NaN and Infinity are not."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and -_MAX <= v <= _MAX)


def _is_int(v, least):
    """v is an int >= least (JSON true/false are not)."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= least


def _list_of(v, n, ok):
    """v is a list of n entries (n None: of at least one), each ok."""
    return (isinstance(v, list) and (len(v) == n if n else len(v) > 0)
            and all(map(ok, v)))


def _is_index_key(k):
    """k is the canonical decimal text of an int >= 0: "3", not "03"."""
    return (isinstance(k, str) and k.isascii() and k.isdigit()
            and str(int(k)) == k)


def _evaluate(code, x, y):
    env = dict(_EXPR_NAMES)
    env["x"] = x
    env["y"] = y
    return eval(code, {"__builtins__": {}}, env)


@lru_cache(maxsize=256)
def _expression_code(text):
    """(code, "") for an expression in x and y that compiles, names only
    known functions and gives one value per point or a constant on a
    probe; else (None, its fault). The probe is a 2-D point array because
    readers pass both point lists and (edge, point) arrays. A single value
    is checked on a second probe, scaled and shifted, so that one that
    reads the points (such as "x[0, 1]") is caught, and so is one that is
    not finite (such as "sqrt(-1)"). A value per point is not judged on
    the probe, where it may be undefined and still be fine on the mesh.
    Validation and building check the same texts, so each is compiled
    once."""
    try:
        code = compile(text, "<config>", "eval")
    except SyntaxError as exc:
        return None, f"bad expression {text!r} ({exc.msg})"
    unknown = set(code.co_names) - set(_EXPR_NAMES) - {"x", "y"}
    if unknown:
        return None, (f"unknown name(s) {sorted(unknown)} in expression "
                      f"{text!r}")
    probe = np.array([[0.25, 0.5, 0.75], [0.125, 0.375, 0.625]])
    try:
        with np.errstate(all="ignore"):
            value = np.asarray(_evaluate(code, probe, probe), dtype=float)
            if value.shape == ():
                other = 1.5 * probe + 0.125
                again = np.asarray(_evaluate(code, other, other),
                                   dtype=float)
    except Exception as exc:
        return None, f"expression {text!r} fails to evaluate ({exc})"
    if value.shape not in ((), probe.shape):
        return None, (f"expression {text!r} gives shape {value.shape} on "
                      f"points of shape {probe.shape}: one value per point "
                      f"or a constant required")
    if value.shape == () and not np.array_equal(value, again,
                                                equal_nan=True):
        return None, (f"expression {text!r} gives a single value that "
                      f"depends on the points ({float(value):g}, then "
                      f"{float(again):g}): one value per point or a "
                      f"constant required")
    if value.shape == () and not np.isfinite(value):
        return None, (f"expression {text!r} gives the non-finite value "
                      f"{float(value):g}: a finite constant required")
    return code, ""


def compile_expression(text, where, errors):
    """Compile an expression in x and y into a vectorized callable."""
    code, fault = _expression_code(str(text))
    if code is None:
        errors.append(f"{where}: {fault}")
        return None
    return lambda x, y: _evaluate(code, x, y)


def leaf(ok, msg, norm=None):
    """A value `ok` accepts, normalized by `norm`; else the message `msg`,
    formatted with `where`, `path` and the value `v`."""
    def walk(v, where, path, errors):
        if ok(v):
            return v if norm is None else norm(v)
        errors.append(msg.format(where=where, path=path, v=v))
    return walk


def number(msg, least=-_MAX, strict=False):
    """A finite number >= least, or > least if strict; as a float."""
    return leaf(lambda v: (_is_num(v) and (v > least if strict
                                           else v >= least)), msg, float)


def integer(msg, least, n=None, scalar=True):
    """An int >= least (unless not `scalar`) or, given n, a list of n such
    ints (n 0: of at least one), as a new list."""
    def ok(v):
        if not isinstance(v, list):
            return scalar and _is_int(v, least)
        return (n is not None and (len(v) == n if n else v)
                and all(_is_int(m, least) for m in v))
    return leaf(ok, msg, lambda v: list(v) if isinstance(v, list) else v)


def rect(v, where, path, errors):
    """[x0, y0, x1, y1]: finite and increasing, as floats."""
    if not _list_of(v, 4, _is_num):
        errors.append(f"{where}: rect must be [x0, y0, x1, y1]")
        return None
    out = [float(c) for c in v]
    if out[2] <= out[0] or out[3] <= out[1]:
        errors.append(f"{where}: rect {out} is not increasing")
        return None
    return out


def value(up=False, none=True):
    """A data value: null (if `none`), a finite number as written, or an
    expression string in x and y; reported at the enclosing object's path
    if `up`, else at its own."""
    def walk(v, where, path, errors):
        at = where if up else path
        if _is_num(v) or (v is None and none):
            return v
        if isinstance(v, str):
            compile_expression(v, at, errors)
            return v
        errors.append(f"{at}: value required" if v is None else
                      f"{at}: expected null, number, or expression string, "
                      f"got {v!r}")
    return walk


def vector(up=False):
    """A vector data value: null or [vx, vy] of non-null data values."""
    component = value(none=False)

    def walk(v, where, path, errors):
        if v is None:
            return None
        at = where if up else path
        if not isinstance(v, list) or len(v) != 2:
            errors.append(f"{at}: expected null or [vx, vy]")
            return None
        return [component(c, at, f"{at}[{i}]", errors)
                for i, c in enumerate(v)]
    return walk


def obj(table, need="{path}: must be an object",
        unknown="{path}: unknown key {k!r}", check=None):
    """An object with the fields of `table`, {key: (spec, default)}; a
    field of spec None is taken as it is. An absent field is walked as its
    default (None where a value is required, so the field's own message
    reports it) or, with default OMIT, stays absent. `check(v, out, path,
    errors)`, if given, relates the walked fields `out` of the raw object
    `v`."""
    specs = {key: spec for key, (spec, _) in table.items()}
    absent = [(key, spec, default) for key, (spec, default) in table.items()
              if default is not OMIT]

    def walk(v, where, path, errors):
        if not isinstance(v, dict):
            errors.append(need.format(path=path))
            return None
        out = {}
        prefix = path + "." if path else ""
        for key, x in v.items():
            spec = specs.get(key, OMIT)
            if spec is OMIT:
                errors.append(unknown.format(path=path, k=key))
            else:
                out[key] = x if spec is None else spec(x, path, prefix + key,
                                                       errors)
        for key, spec, default in absent:
            if key not in v:
                out[key] = (default if spec is None else
                            spec(default, path, prefix + key, errors))
        if check is not None:
            check(v, out, path, errors)
        return out
    return walk


def union(tag, variants, need, bad, missing=None):
    """An object whose `tag` field names the obj of `variants` that walks
    it. Messages: `need` for a non-object, `missing` (default `need`) for
    an absent tag, `bad` for a tag `v` that names no variant."""
    def walk(v, where, path, errors):
        if not isinstance(v, dict) or tag not in v:
            errors.append((missing or need if isinstance(v, dict)
                           else need).format(path=path))
            return None
        t = v[tag]
        variant = variants.get(t) if isinstance(t, str) else None
        if variant is None:
            errors.append(bad.format(path=path, v=t))
            return None
        return variant(v, where, path, errors)
    return walk


def items(item, need, nonempty=False):
    """A list (of at least one entry if `nonempty`) walked entry by entry;
    an entry `item` rejects keeps its position as None."""
    def walk(v, where, path, errors):
        if not isinstance(v, list) or (nonempty and not v):
            errors.append(need.format(path=path))
            return None
        return [item(x, path, f"{path}[{i}]", errors)
                for i, x in enumerate(v)]
    return walk


def index_map(entry, need, bad_key, nonempty=False):
    """An object keyed by canonical indices, each value walked by `entry`
    with `where` the map's path and `path` its key. A bad key (`bad_key`,
    formatted the same way) is reported and left out; a bad value keeps
    its key as None."""
    def walk(v, where, path, errors):
        if not isinstance(v, dict) or (nonempty and not v):
            errors.append(need.format(where=where, path=path))
            return None
        out = {}
        for k, x in v.items():
            if _is_index_key(k):
                out[k] = entry(x, path, k, errors)
            else:
                errors.append(bad_key.format(where=path, path=k, v=x))
        return out
    return walk


def _raster_source(v, out, path, errors):
    """A raster has exactly one source; inline values fill its shape."""
    if ("values" in v) == ("path" in v):
        errors.append(f"{path}: raster needs exactly one of 'values' or "
                      f"'path'")
    elif "values" in out and out["shape"] is not None:
        nx, ny = out["shape"]
        rows = out["values"]
        if _list_of(rows, ny, lambda row: _list_of(row, nx, _is_num)):
            out["values"] = [[float(c) for c in row] for row in rows]
        else:
            errors.append(f"{path}: values must be ny rows of nx numbers "
                          f"(row 0 at the bottom)")


def _compile_mean(v, out, path, errors):
    if out["expr"] is not None:
        compile_expression(out["expr"], path, errors)


_TAG = (None, None)  # a union's tag field, checked by the union
_RECT = (rect, None)
_MESH = (integer("{where}: mesh must be [nx, ny] with nx, ny >= 1", 1,
                 n=2, scalar=False), None)
_POSITIVE = "{path}: number > 0 required"
_KIND = "{path}: object with a 'kind' key required"


def _is_str(v):
    return isinstance(v, str)


def _is_bool(v):
    return isinstance(v, bool)


BLOCK = union("physics", {
    "darcy": obj({"physics": _TAG, "rect": _RECT, "mesh": _MESH,
                  "kl_region": (integer("{where}: darcy block needs a "
                                        "kl_region index", 0), None)}),
    "stokes": obj({"physics": _TAG, "rect": _RECT, "mesh": _MESH,
                   "kl_region": (leaf(lambda v: v is None, "{where}: stokes "
                                      "block takes no kl_region"), None)}),
}, need="{path}: must be an object",
    bad="{path}: physics must be 'stokes' or 'darcy'",
    missing="{path}: physics must be 'stokes' or 'darcy'")

KL_REGIONS = items(obj({
    "rect": _RECT,
    "sigma2": (number("{where}: sigma2 must be a number >= 0", 0), None),
    "eta": (leaf(lambda v: _list_of(v, 2, lambda e: _is_num(e) and e > 0),
                 "{where}: eta must be [eta_x, eta_y] with both > 0",
                 lambda v: [float(e) for e in v]), None),
    "n_term": (integer("{where}: n_term must be an int >= 1 or [nx, ny]",
                       1, n=2), None),
}), need="{path}: must be a list")

MEAN_LOG_PERM = union("kind", {
    "constant": obj({"kind": _TAG, "value": (
        number("{where}: constant value must be a number"), 0.0)}),
    "expression": obj({"kind": _TAG, "expr": (
        leaf(_is_str, "{where}: 'expr' string required"), None)},
        check=_compile_mean),
    "per_region": obj({"kind": _TAG, "values": (index_map(
        number("{where}: bad entry {path!r}: {v!r}"),
        need="{where}: 'values' mapping region -> mean required",
        bad_key="{where}: bad entry {path!r}: {v!r}", nonempty=True), None)}),
    "raster": obj({
        "kind": _TAG, "rect": _RECT,
        "shape": (integer("{where}: shape must be [nx, ny]", 1, n=2,
                          scalar=False), None),
        "values": (None, OMIT),
        "path": (leaf(_is_str, "{where}: path must be a string"), OMIT),
    }, check=_raster_source),
}, need=_KIND, bad="{path}: unknown kind {v!r}")

COLLOCATION = union("kind", {
    "tensor": obj({"kind": _TAG, "m": (integer(
        "{where}: m must be an int >= 1 or a list of them", 1, n=0), None)}),
    "sparse": obj({"kind": _TAG, "level": (
        integer("{where}: level must be an int >= 0", 0), None)}),
}, need="{path}: object with kind 'tensor' or 'sparse' required",
    bad="{path}: unknown kind {v!r}")

_BCS = {  # the bc of one side, by block physics
    "darcy": union("kind", {
        "noflow": obj({"kind": _TAG, "value": (leaf(
            lambda v: v is None, "{where}: noflow takes no value"), None)}),
        "pressure": obj({"kind": _TAG, "value": (value(up=True), None)}),
    }, need=_KIND,
        bad="{path}: darcy side must be 'noflow' or 'pressure', got {v!r}"),
    "stokes": union("kind", {
        kind: obj({"kind": _TAG, "value": (vector(up=True), None)})
        for kind in ("velocity", "stress")
    }, need=_KIND,
        bad="{path}: stokes side must be 'velocity' or 'stress', got {v!r}"),
}
_SIDES = {physics: obj({side: (bc, OMIT) for side in SIDES},
                       need="{path}: must be an object keyed by side",
                       unknown="{path}: unknown side {k!r}")
          for physics, bc in _BCS.items()}

CONFIG = obj({
    "domain": (obj({"blocks": (items(
        BLOCK, "{path}: non-empty list required", nonempty=True), None)},
        need="domain: required object with a 'blocks' list"), None),
    "kl_regions": (KL_REGIONS, []),
    "mean_log_perm": (MEAN_LOG_PERM, {"kind": "constant", "value": 0.0}),
    "collocation": (COLLOCATION, None),
    "physics": (obj({
        "nu_s": (number(_POSITIVE, 0, strict=True), 1.0),
        "nu_d": (number(_POSITIVE, 0, strict=True), 1.0),
        "alpha": (number("{path}: number >= 0 required", 0), 1.0),
    }), {}),
    "mortars": (obj({
        **{kind: (integer("{path}: int >= 1 required", 1), OMIT)
           for kind in ("dd", "sd", "ss")},
        "degree": (leaf(lambda v: _is_int(v, 0) and v <= 1,
                        "{path}: 0 or 1 supported"), 1),
        "allow_fine": (leaf(_is_bool, "{path}: bool required"), False),
        "per_interface": (index_map(
            integer("{where}[{path}]: int >= 1 required", 1),
            need="{path}: mapping interface -> count required",
            bad_key="{where}: bad interface key {path!r}"), {}),
    }), {}),
    "bcs": (None, {}),  # walked by validate_config with the blocks' physics
    "sources": (obj({"f_s": (vector(), None), "f_d": (vector(), None),
                     "q_d": (value(), None)}), {}),
    "method": (leaf(lambda v: v in METHODS,
                    f"{{path}}: must be one of {METHODS}"), "S1"),
    "cg": (obj({
        "tol": (number(_POSITIVE, 0, strict=True), 1e-9),
        "max_iter": (leaf(lambda v: v is None or _is_int(v, 1),
                          "{path}: int >= 1 or null required"), None),
    }), {}),
    "output": (obj({
        "dir": (leaf(lambda v: _is_str(v) and v != "",
                     "{path}: non-empty string required"), "out"),
        "timing_in_csv": (leaf(_is_bool, "{path}: bool required"), False),
    }), {}),
    "workers": (integer("{path}: int >= 1 required", 1), 1),
    "basis_cap_mb": (number(_POSITIVE, 0, strict=True), 1024.0),
}, need="top level must be a JSON object", unknown="config: unknown key {k!r}")


def _walk_bcs(v, blocks, errors):
    """bcs keyed by subdomain id: each side takes a bc kind of its block's
    physics (the bcs of a rejected block go unchecked)."""
    if not isinstance(v, dict):
        errors.append("bcs: must be an object keyed by subdomain id")
        return None
    out = {}
    for key, sides in v.items():
        if not (_is_index_key(key) and int(key) < len(blocks)):
            errors.append(f"bcs: unknown subdomain {key!r}")
        elif blocks[int(key)] is not None:
            out[key] = _SIDES[blocks[int(key)]["physics"]](
                sides, "bcs", f"bcs.{key}", errors)
    return out


def _region_dims(region):
    n = region["n_term"]
    return n[0] * n[1] if isinstance(n, list) else n


def _covers(outer, inner, tol=1e-12):
    return (outer[0] <= inner[0] + tol and outer[1] <= inner[1] + tol
            and outer[2] >= inner[2] - tol and outer[3] >= inner[3] - tol)


def check_collocation(col, n_dims, errors):
    """Check a walked collocation spec against n_dims random dimensions
    (None: not known, as for a bare grid spec without splits or a rejected
    kl_regions entry)."""
    if col is None or n_dims is None:
        return
    m = col.get("m")
    if isinstance(m, list) and len(m) != n_dims:
        errors.append(f"collocation: m has {len(m)} entries but the KL "
                      f"regions define {n_dims} dimensions")
    if col["kind"] == "sparse" and n_dims == 0:
        errors.append("collocation: a sparse grid needs at least one KL "
                      "dimension")


def validate_config(raw):
    """Normalize a raw config dict, collecting every error before raising."""
    errors = []
    cfg = CONFIG(raw, "", "", errors)
    if cfg is None:
        raise ConfigError(errors)
    blocks = cfg["domain"] and cfg["domain"]["blocks"]
    if blocks is not None:
        cfg["bcs"] = _walk_bcs(cfg["bcs"], blocks, errors)

    # cross checks
    regions = cfg["kl_regions"]
    n_dims = (None if regions is None or any(r is None or r["n_term"] is None
                                             for r in regions)
              else sum(_region_dims(r) for r in regions))
    check_collocation(cfg["collocation"], n_dims, errors)
    if regions is None:  # not a list, reported
        raise ConfigError(errors)
    n_regions = len(regions)
    used = set()  # KL regions some Darcy block reads its mean from
    for k, b in enumerate(blocks or ()):
        if b is None or b["kl_region"] is None:
            continue
        r = b["kl_region"]
        used.add(r)
        if r >= n_regions:
            errors.append(f"domain.blocks[{k}]: kl_region {r} out of range "
                          f"(have {n_regions} regions)")
        elif (regions[r] and regions[r]["rect"] and b["rect"]
              and not _covers(regions[r]["rect"], b["rect"])):
            errors.append(f"domain.blocks[{k}]: rect {b['rect']} not "
                          f"covered by kl_regions[{r}] rect "
                          f"{regions[r]['rect']}")
    if used and n_dims == 0:
        errors.append("kl_regions: at least one KL term is required when "
                      "darcy blocks are present")
    mean = cfg["mean_log_perm"]
    if mean and mean["kind"] == "per_region" and mean["values"] is not None:
        given = mean["values"]
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
    """Vectorized callable (x, y) of a data value; a number's returns the
    number, which its reader broadcasts to the points."""
    if v is None:
        return None
    if _is_num(v):
        c = float(v)
        return lambda x, y: c
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
        bad = int(np.count_nonzero(~np.isfinite(vals)))
        if bad:
            raise ConfigError([f"mean_log_perm: {bad} of {vals.size} values "
                               f"of raster {path} are not finite"])
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
    """Mean of log K as a callable (x, y, region=None) -> array of x's
    shape."""
    kind = spec["kind"]
    if kind == "constant":
        c = spec["value"]
        return lambda x, y, region=None: np.full(np.shape(x), c)
    if kind == "per_region":
        per = {int(k): v for k, v in spec["values"].items()}
        return lambda x, y, region=None: np.full(np.shape(x), per[region])
    func = (compile_expression(spec["expr"], "mean", [])
            if kind == "expression" else _raster_func(spec, config_dir))
    return lambda x, y, region=None: np.full(np.shape(x), func(x, y),
                                             dtype=float)


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
        out.append(build_kl_region(cov, r["n_term"]))
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
