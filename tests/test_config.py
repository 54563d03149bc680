"""Config validation, normalization, round-trips, and problem building."""

import copy
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdmortar.config import (build_from_config, compile_expression,
                             parse_config, serialize_config, validate_config)
from sdmortar.errors import ConfigError

from conftest import CONFIG_DIR, one_block_raw
from _oracles import parse_config_text

SHIPPED = ("case1_mini", "case1_mini_sparse", "case2_mini", "darcy_twoblock")


def minimal_raw():
    """Smallest valid two-block Darcy config, as a fresh dict."""
    return {
        "domain": {"blocks": [
            {"rect": [0, 0, 1, 1], "physics": "darcy", "mesh": [4, 4],
             "kl_region": 0},
            {"rect": [1, 0, 2, 1], "physics": "darcy", "mesh": [4, 4],
             "kl_region": 0},
        ]},
        "kl_regions": [{"rect": [0, 0, 2, 1], "sigma2": 1.0,
                        "eta": [0.5, 0.5], "n_term": 2}],
        "mean_log_perm": {"kind": "constant", "value": 0.0},
        "collocation": {"kind": "tensor", "m": 2},
        "mortars": {"dd": 2},
        "bcs": {"0": {"left": {"kind": "pressure", "value": 1.0}},
                "1": {"right": {"kind": "pressure", "value": 0.0}}},
    }


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_configs_round_trip(name):
    """validate -> serialize -> validate is the identity."""
    cfg = parse_config(os.path.join(CONFIG_DIR, name + ".json"))
    text = serialize_config(cfg)
    cfg2 = parse_config_text(text)
    assert cfg2 == cfg
    assert serialize_config(cfg2) == text


def test_defaults_filled_in():
    cfg = validate_config(minimal_raw())
    assert cfg["method"] == "S1"
    assert cfg["cg"] == {"tol": 1e-9, "max_iter": None}
    assert cfg["output"] == {"dir": "out", "timing_in_csv": False}
    assert cfg["workers"] == 1
    assert cfg["basis_cap_mb"] == 1024.0
    assert cfg["physics"] == {"nu_s": 1.0, "nu_d": 1.0, "alpha": 1.0}
    assert cfg["mortars"]["degree"] == 1
    assert cfg["mortars"]["allow_fine"] is False
    assert cfg["mortars"]["per_interface"] == {}
    assert cfg["sources"] == {"f_s": None, "f_d": None, "q_d": None}
    # n_term's form alone says how a region is truncated
    assert "selection" not in cfg["kl_regions"][0]


def test_box_truncation_normalized():
    raw = minimal_raw()
    raw["kl_regions"][0]["n_term"] = [2, 1]
    cfg = validate_config(raw)
    assert "selection" not in cfg["kl_regions"][0]
    assert cfg["kl_regions"][0]["n_term"] == [2, 1]
    problem, _, _ = build_from_config(cfg)
    region = problem.perm.regions[0]
    assert (region.n_term, region.p.tolist(), region.q.tolist()) == (
        2, [0, 1], [0, 0])


@pytest.mark.parametrize("selection", ["largest", "box"])
def test_selection_is_an_unknown_key(selection):
    raw = minimal_raw()
    raw["kl_regions"][0]["selection"] = selection
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    assert exc.value.messages == ["kl_regions[0]: unknown key 'selection'"]


def test_errors_are_collected():
    """One pass reports every problem, not just the first."""
    raw = minimal_raw()
    raw["domain"]["blocks"][0]["physics"] = "plasma"
    raw["domain"]["blocks"][1]["mesh"] = [0, 4]
    raw["kl_regions"][0]["eta"] = [0.0, 0.5]
    raw["collocation"] = {"kind": "magic"}
    raw["method"] = "S7"
    raw["workers"] = 0
    raw["cg"] = {"tol": -1}
    raw["typo_key"] = 1
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    messages = err.value.messages
    assert len(messages) >= 7
    joined = "\n".join(messages)
    for frag in ("physics", "mesh", "eta", "unknown kind", "method",
                 "workers", "cg.tol", "typo_key"):
        assert frag in joined


def _set(raw, path, value):
    """Set the value at key path `path` of a raw config, making objects."""
    node = raw
    for key in path[:-1]:
        node = node[key] if isinstance(key, int) else node.setdefault(key, {})
    node[path[-1]] = value


# every integer field: (key path in the raw config, value, the name its
# error message carries)
BOOLEAN_INTS = [
    (("domain", "blocks", 0, "mesh"), [True, 4], "mesh"),
    (("domain", "blocks", 0, "kl_region"), False, "kl_region"),
    (("kl_regions", 0, "n_term"), True, "n_term"),
    (("kl_regions", 0, "n_term"), [True, 2], "n_term"),
    (("collocation", "m"), True, "m must be"),
    (("collocation", "m"), [True, 2], "m must be"),
    (("collocation",), {"kind": "sparse", "level": False}, "level"),
    (("mortars", "dd"), True, "mortars.dd"),
    (("mortars", "sd"), True, "mortars.sd"),
    (("mortars", "ss"), True, "mortars.ss"),
    (("mortars", "degree"), True, "mortars.degree"),
    (("mortars", "per_interface"), {"0": True}, "mortars.per_interface[0]"),
    (("cg", "max_iter"), True, "cg.max_iter"),
    (("workers",), True, "workers"),
    (("mean_log_perm",), {"kind": "raster", "rect": [0, 0, 2, 1],
                          "shape": [True, 1], "values": [[1.0]]}, "shape"),
]


@pytest.mark.parametrize(
    "path, value, field", BOOLEAN_INTS,
    ids=["/".join(map(str, p)) + f"-{type(v).__name__}"
         for p, v, _ in BOOLEAN_INTS])
def test_booleans_are_not_ints(path, value, field):
    """JSON true/false are rejected wherever an int is required."""
    raw = minimal_raw()
    _set(raw, path, value)
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    assert any(field in m for m in err.value.messages), err.value.messages


def _stokes_raw():
    return one_block_raw("stokes")


# every number field: (raw config maker, key path, the value holding the
# number x, the start of the one message that reports it)
NUMBER_FIELDS = [
    (minimal_raw, ("domain", "blocks", 0, "rect"), lambda x: [x, 0, 1, 1],
     "domain.blocks[0]: rect must be"),
    (minimal_raw, ("kl_regions", 0, "rect"), lambda x: [0, 0, 2, x],
     "kl_regions[0]: rect must be"),
    (minimal_raw, ("kl_regions", 0, "sigma2"), lambda x: x,
     "kl_regions[0]: sigma2"),
    (minimal_raw, ("kl_regions", 0, "eta"), lambda x: [0.5, x],
     "kl_regions[0]: eta"),
    (minimal_raw, ("mean_log_perm",),
     lambda x: {"kind": "constant", "value": x},
     "mean_log_perm: constant value"),
    (minimal_raw, ("mean_log_perm",),
     lambda x: {"kind": "per_region", "values": {"0": x}},
     "mean_log_perm.values: bad entry '0'"),
    (minimal_raw, ("mean_log_perm",),
     lambda x: {"kind": "raster", "rect": [0, 0, 2, 1], "shape": [2, 1],
                "values": [[1.0, x]]},
     "mean_log_perm: values must be"),
    (minimal_raw, ("mean_log_perm",),
     lambda x: {"kind": "raster", "rect": [0, 0, x, 1], "shape": [1, 1],
                "values": [[1.0]]},
     "mean_log_perm: rect must be"),
    (minimal_raw, ("physics", "nu_s"), lambda x: x, "physics.nu_s"),
    (minimal_raw, ("physics", "nu_d"), lambda x: x, "physics.nu_d"),
    (minimal_raw, ("physics", "alpha"), lambda x: x, "physics.alpha"),
    (minimal_raw, ("cg", "tol"), lambda x: x, "cg.tol"),
    (minimal_raw, ("basis_cap_mb",), lambda x: x, "basis_cap_mb"),
    (minimal_raw, ("bcs", "0", "left", "value"), lambda x: x, "bcs.0.left"),
    (minimal_raw, ("sources", "q_d"), lambda x: x, "sources.q_d"),
    (minimal_raw, ("sources", "f_d"), lambda x: [x, 0], "sources.f_d[0]"),
    (_stokes_raw, ("bcs", "0", "left", "value"), lambda x: [1.0, x],
     "bcs.0.left[1]"),
]


@pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "make, path, value, field", NUMBER_FIELDS,
    ids=[f"{m.__name__}-" + "/".join(map(str, p)) + f"-{i}"
         for i, (m, p, _, _) in enumerate(NUMBER_FIELDS)])
def test_numbers_must_be_finite(make, path, value, field, x):
    """JSON NaN, Infinity and -Infinity are faults of the field that holds
    them, reported once."""
    raw = make()
    _set(raw, path, value(x))
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    messages = err.value.messages
    assert len(messages) == 1 and messages[0].startswith(field), messages


@pytest.mark.parametrize("key", ["nu_s", "nu_d"])
def test_viscosities_must_be_positive(key):
    raw = minimal_raw()
    raw["physics"] = {key: 0}
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    assert err.value.messages == [f"physics.{key}: number > 0 required"]
    raw["physics"] = {key: 1e-3, "alpha": 0}  # alpha = 0 drops BJS
    assert validate_config(raw)["physics"][key] == 1e-3


def test_bc_kind_cross_checked_against_physics():
    raw = minimal_raw()
    raw["bcs"]["0"]["left"] = {"kind": "velocity", "value": [1.0, 0.0]}
    with pytest.raises(ConfigError, match="darcy side"):
        validate_config(raw)


def test_kl_region_coverage_checked():
    raw = minimal_raw()
    raw["kl_regions"][0]["rect"] = [0, 0, 1.5, 1]
    with pytest.raises(ConfigError, match="not\\s+covered"):
        validate_config(raw)
    raw2 = minimal_raw()
    raw2["domain"]["blocks"][1]["kl_region"] = 3
    with pytest.raises(ConfigError, match="out of range"):
        validate_config(raw2)


def test_collocation_m_length_checked():
    raw = minimal_raw()
    raw["collocation"] = {"kind": "tensor", "m": [2, 2, 2]}
    with pytest.raises(ConfigError, match="2"):
        validate_config(raw)
    raw["collocation"] = {"kind": "tensor", "m": [3, 2]}
    cfg = validate_config(raw)
    assert cfg["collocation"]["m"] == [3, 2]


@pytest.mark.parametrize("collocation, match", [
    ({"kind": "sparse", "level": 1},
     "a sparse grid needs at least one KL dimension"),
    ({"kind": "tensor", "m": [2]},
     "m has 1 entries but the KL regions define 0 dimensions"),
])
def test_collocation_checked_on_zero_dimensions(collocation, match):
    with pytest.raises(ConfigError, match=match):
        validate_config(one_block_raw("stokes", collocation))


def test_tensor_grid_on_zero_dimensions_has_one_point():
    _, grid, _ = build_from_config(validate_config(one_block_raw("stokes")))
    assert (grid.n_real, grid.n_dims) == (1, 0)


def test_expression_name_whitelist():
    errors = []
    compile_expression("sin(pi * x) + q", "test", errors)
    assert errors and "unknown name" in errors[0]
    errors = []
    compile_expression("x.__class__", "test", errors)
    assert errors and "unknown name" in errors[0]
    errors = []
    compile_expression("exp(x)(y)", "test", errors)
    assert errors and "fails to evaluate" in errors[0]
    errors = []
    f = compile_expression("sin(pi * x) * (1 - y)", "test", errors)
    assert not errors
    assert f(0.5, 1.0) == pytest.approx(0.0)
    assert f(0.5, 0.0) == pytest.approx(1.0)


@pytest.mark.parametrize("text, shape", [("[1, 2, 3]", (3,)),
                                         ("x[0]", (3,)), ("x[:1]", (1, 3)),
                                         ("[x, y]", (2, 2, 3))])
def test_expression_needs_one_value_per_point(text, shape):
    """An expression gives a constant or one value per point, on point
    lists and (edge, point) arrays alike; any other shape is named."""
    errors = []
    assert compile_expression(text, "test", errors) is None
    assert errors == [f"test: expression {text!r} gives shape {shape} on "
                      f"points of shape (2, 3): one value per point or a "
                      f"constant required"]
    errors = []
    for ok in ("2", "x + y", "where(x > 0.3, 1.0, y)"):
        f = compile_expression(ok, "test", errors)
        pts = np.full((4, 5), 0.5)
        assert not errors and np.shape(f(pts, pts)) in ((), (4, 5))


@pytest.mark.parametrize("text, values", [("x[0, 1]", "0.5, then 0.875"),
                                          ("y[1, 2]", "0.625, then 1.0625"),
                                          ("x[0, 1] - x[0, 0]",
                                           "0.25, then 0.375")])
def test_expression_single_value_must_not_read_the_points(text, values):
    """A scalar that changes between two point probes is not a constant."""
    errors = []
    assert compile_expression(text, "test", errors) is None
    assert errors == [f"test: expression {text!r} gives a single value "
                      f"that depends on the points ({values}): one value "
                      f"per point or a constant required"]
    for ok in ("2*pi", "sqrt(2) - 1", "where(1 > 0, 3.0, 4.0)"):
        assert compile_expression(ok, "test", errors) is not None
    assert len(errors) == 1


@pytest.mark.parametrize("text, value", [("sqrt(-1)", "nan"),
                                         ("log(0)", "-inf"),
                                         ("1e308*10", "inf")])
def test_expression_single_value_must_be_finite(text, value):
    """A constant that is NaN or +-inf is a fault that names it; a value
    per point is not judged on the probe."""
    errors = []
    assert compile_expression(text, "test", errors) is None
    assert errors == [f"test: expression {text!r} gives the non-finite "
                      f"value {value}: a finite constant required"]
    assert compile_expression("sqrt(x - 0.5)", "test", errors) is not None
    assert len(errors) == 1


def test_expression_no_builtins():
    """The evaluation environment carries no builtins to reach."""
    errors = []
    compile_expression("open('x')", "test", errors)
    assert errors
    errors = []
    compile_expression("__import__('os')", "test", errors)
    assert errors


def test_expression_bc_value():
    raw = minimal_raw()
    raw["bcs"]["0"]["left"]["value"] = "1 + 0.5*sin(pi*y)"
    cfg = validate_config(raw)
    problem, _, _ = build_from_config(cfg)
    bc = problem.bcs[0]["left"]
    assert bc.kind == "pressure"
    assert bc.value(0.0, 0.5) == pytest.approx(1.5)


def test_raster_mean_inline():
    raw = minimal_raw()
    raw["mean_log_perm"] = {
        "kind": "raster", "rect": [0, 0, 2, 1], "shape": [2, 1],
        "values": [[1.0, 3.0]],
    }
    cfg = validate_config(raw)
    problem, _, _ = build_from_config(cfg)
    mean = problem.perm.mean
    assert np.allclose(mean(np.array([0.3, 1.7]), np.array([0.5, 0.5])),
                       [1.0, 3.0])


def test_raster_mean_inline_wrong_shape():
    raw = minimal_raw()
    raw["mean_log_perm"] = {
        "kind": "raster", "rect": [0, 0, 2, 1], "shape": [2, 2],
        "values": [[1.0, 3.0]],
    }
    with pytest.raises(ConfigError, match="values"):
        validate_config(raw)


def test_raster_mean_from_csv(tmp_path):
    raw = minimal_raw()
    csv = tmp_path / "mean.csv"
    csv.write_text("0.5,1.5\n2.5,3.5\n")
    raw["mean_log_perm"] = {
        "kind": "raster", "rect": [0, 0, 2, 1], "shape": [2, 2],
        "path": "mean.csv",
    }
    cfg = validate_config(raw)
    problem, _, _ = build_from_config(cfg, config_dir=str(tmp_path))
    mean = problem.perm.mean
    x = np.array([0.5, 1.5, 0.5, 1.5])
    y = np.array([0.2, 0.2, 0.8, 0.8])
    assert np.allclose(mean(x, y), [0.5, 1.5, 2.5, 3.5])


def test_raster_csv_wrong_shape(tmp_path):
    raw = minimal_raw()
    (tmp_path / "mean.csv").write_text("0.5,1.5,2.0\n")
    raw["mean_log_perm"] = {
        "kind": "raster", "rect": [0, 0, 2, 1], "shape": [2, 2],
        "path": "mean.csv",
    }
    cfg = validate_config(raw)
    with pytest.raises(ConfigError, match="shape"):
        build_from_config(cfg, config_dir=str(tmp_path))


def test_raster_requires_exactly_one_source():
    raw = minimal_raw()
    raw["mean_log_perm"] = {
        "kind": "raster", "rect": [0, 0, 2, 1], "shape": [1, 1],
        "values": [[1.0]], "path": "x.csv",
    }
    with pytest.raises(ConfigError, match="exactly one"):
        validate_config(raw)
    del raw["mean_log_perm"]["values"], raw["mean_log_perm"]["path"]
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    assert err.value.messages == [
        "mean_log_perm: raster needs exactly one of 'values' or 'path'"]


def test_raster_file_unreadable_or_malformed_is_a_config_error(tmp_path):
    raw = minimal_raw()
    raw["mean_log_perm"] = {
        "kind": "raster", "rect": [0, 0, 2, 1], "shape": [2, 2],
        "path": "mean.csv",
    }
    cfg = validate_config(raw)
    with pytest.raises(ConfigError, match="cannot read raster .*mean.csv"):
        build_from_config(cfg, config_dir=str(tmp_path))
    (tmp_path / "mean.csv").write_text("0.5,one\n2.5,3.5\n")
    with pytest.raises(ConfigError, match="cannot read raster .*mean.csv"):
        build_from_config(cfg, config_dir=str(tmp_path))


@pytest.mark.parametrize("text, bad", [("0.0,nan\n1.0,inf\n", 2),
                                       ("-inf,0.5\n2.5,3.5\n", 1)])
def test_raster_file_non_finite_values_are_a_config_error(tmp_path, text,
                                                          bad):
    """Inline values must be finite numbers; so must a raster file's."""
    raw = minimal_raw()
    (tmp_path / "mean.csv").write_text(text)
    raw["mean_log_perm"] = {
        "kind": "raster", "rect": [0, 0, 2, 1], "shape": [2, 2],
        "path": "mean.csv",
    }
    cfg = validate_config(raw)
    with pytest.raises(ConfigError) as err:
        build_from_config(cfg, config_dir=str(tmp_path))
    assert err.value.messages == [
        f"mean_log_perm: {bad} of 4 values of raster "
        f"{tmp_path / 'mean.csv'} are not finite"]


def test_per_region_mean_names_every_missing_region():
    raw = minimal_raw()
    raw["kl_regions"] = [dict(raw["kl_regions"][0], rect=rect)
                         for rect in ([0, 0, 1, 1], [1, 0, 2, 1],
                                      [0, 0, 2, 1])]
    raw["domain"]["blocks"][1]["kl_region"] = 2
    raw["mean_log_perm"] = {"kind": "per_region", "values": {"1": 0.5}}
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    assert err.value.messages == [
        "mean_log_perm.values: no mean for KL region(s) 0, 2"]
    # region 1 is read by no block, so it needs no mean
    raw["mean_log_perm"]["values"] = {"0": 0.1, "2": -0.3}
    problem, grid, _ = build_from_config(validate_config(raw))
    for sid in (0, 1):
        assert np.all(problem.sample_permeability(sid, grid.points[0]) > 0)


def test_per_interface_override_and_unknown_index():
    raw = minimal_raw()
    raw["mortars"] = {"per_interface": {"0": 2}}
    problem, _, _ = build_from_config(validate_config(raw))
    assert problem.space.block(0).n_elem == 2

    raw["mortars"] = {"dd": 2, "per_interface": {"7": 2}}
    with pytest.raises(ConfigError, match="does not exist"):
        build_from_config(validate_config(raw))


def test_bad_kl_region_entry_keeps_the_later_indices():
    """A kl_regions entry that is not an object is reported once; the
    block on the valid region after it is not."""
    raw = one_block_raw("darcy")
    raw["kl_regions"] = [7] + raw["kl_regions"]
    raw["domain"]["blocks"][0]["kl_region"] = 1
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    assert err.value.messages == ["kl_regions[0]: must be an object"]


def test_bad_block_entry_keeps_the_later_subdomain_ids():
    """A domain.blocks entry that is not an object is reported once; the
    bcs of the valid block after it still name that block."""
    raw = one_block_raw("darcy")
    raw["domain"]["blocks"] = [7] + raw["domain"]["blocks"]
    raw["bcs"] = {"1": raw["bcs"]["0"]}
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    assert err.value.messages == ["domain.blocks[0]: must be an object"]


@pytest.mark.parametrize("path, mapping, messages", [
    (("mortars", "per_interface"), {"03": 2, "06": 2},
     ["mortars.per_interface: bad interface key '03'",
      "mortars.per_interface: bad interface key '06'"]),
    (("mortars", "per_interface"), {"3": 1, "03": 2},
     ["mortars.per_interface: bad interface key '03'"]),
    (("bcs",), {"0": {}, "00": {}}, ["bcs: unknown subdomain '00'"]),
    (("mean_log_perm", "values"), {"0": 1.0, "00": 0.0, "1": -1.0},
     ["mean_log_perm.values: bad entry '00': 0.0"]),
])
def test_integer_keys_must_be_canonical(path, mapping, messages):
    """A key naming an interface, subdomain or region by non-canonical
    digits ("03") would be ignored, or would shadow another entry."""
    raw = json.load(open(os.path.join(CONFIG_DIR, "case2_mini.json")))
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = mapping
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    assert err.value.messages == messages


def test_missing_mortar_count():
    raw = minimal_raw()
    raw["mortars"] = {"sd": 2}
    with pytest.raises(ConfigError, match="no mortar element count"):
        build_from_config(validate_config(raw))


def test_unknown_bc_subdomain_and_side():
    raw = minimal_raw()
    raw["bcs"]["9"] = {"left": {"kind": "noflow"}}
    raw["bcs"]["0"]["north"] = {"kind": "noflow"}
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    joined = "\n".join(err.value.messages)
    assert "unknown subdomain" in joined
    assert "unknown side" in joined


def test_case1_build_sizes(case1):
    """The flagship mini case builds with the documented dimensions."""
    problem, grid = case1.problem, case1.grid
    assert problem.layout.n_subdomains == 6
    assert problem.space.n_dof == 48
    assert grid.n_real == 32
    assert grid.n_dims == 5
    assert [len(problem.space.sub_dofs(problem.layout, s)) for s in range(6)] \
        == [12, 12, 20, 20, 16, 16]
    assert grid.local_counts == [4, 8]


def test_sparse_case_build_sizes():
    cfg = parse_config(os.path.join(CONFIG_DIR, "case1_mini_sparse.json"))
    _, grid, options = build_from_config(cfg)
    assert grid.n_real == 21
    assert grid.local_counts == [11, 11]
    assert options["method"] == "S3"


def test_validate_is_idempotent():
    raw = minimal_raw()
    cfg = validate_config(raw)
    again = validate_config(json.loads(serialize_config(cfg)))
    assert again == cfg
    # the original raw dict is not mutated
    assert "method" not in raw


def test_tweaked_copy_does_not_leak(case1):
    """load_case style deep copies leave the parsed config untouched."""
    cfg = copy.deepcopy(case1.cfg)
    cfg["physics"]["alpha"] = 0.0
    assert case1.cfg["physics"]["alpha"] == 1.0


# values a faulty config may hold; ints stay <= 2, so no large mesh is built
FAULT_POOL = [None, True, False, -1, 0, 1, 2, 1.5, "x", "03", [], {}, [1, 2],
              float("nan"), float("inf")]


def _leaf_paths(node, path=()):
    """Key paths of every value in a JSON tree that is no object or list."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [p for key, value in items
            for p in _leaf_paths(value, path + (key,))]


def _shipped_raw(name):
    with open(os.path.join(CONFIG_DIR, name + ".json")) as fh:
        return json.load(fh)


# a shipped config and one or two (leaf path, value) replacements
_REPLACEMENTS = {name: st.lists(
    st.tuples(st.sampled_from(_leaf_paths(_shipped_raw(name))),
              st.sampled_from(FAULT_POOL)),
    min_size=1, max_size=2, unique_by=lambda t: t[0]) for name in SHIPPED}
FAULTY_CONFIGS = st.sampled_from(SHIPPED).flatmap(
    lambda name: st.tuples(st.just(name), _REPLACEMENTS[name]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(FAULTY_CONFIGS)
def test_config_faults_are_config_errors(faulty):
    """A shipped config with one or two leaves replaced is a ConfigError or
    validates and builds."""
    name, replacements = faulty
    raw = _shipped_raw(name)
    for path, value in replacements:
        _set(raw, path, copy.deepcopy(value))
    try:
        build_from_config(validate_config(raw), CONFIG_DIR)
    except ConfigError:
        pass
