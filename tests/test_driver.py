"""End-to-end runs, output files, and the command line tool."""

import json
import os

import numpy as np
import pytest

from sdmortar import cli
from sdmortar.config import parse_config
from sdmortar.driver import run_config, run_file
from sdmortar.interface import run_method
from sdmortar.output import STATS_COLUMNS, write_moments_csv, write_vtk

from _oracles import per_value_write_moments_csv, per_value_write_vtk
from conftest import CONFIG_DIR, load_case, one_block_raw

TWOBLOCK = os.path.join(CONFIG_DIR, "darcy_twoblock.json")


def run_twoblock(tmp_path, sub="a", **overrides):
    out = str(tmp_path / sub)
    return run_file(TWOBLOCK, overrides={"out_dir": out, **overrides})


def test_run_file_outputs(tmp_path):
    problem, grid, result, paths = run_twoblock(tmp_path)
    assert len(paths["vtk"]) == 2
    for p in paths["vtk"]:
        assert os.path.exists(p)
        text = open(p).read()
        assert text.startswith("# vtk DataFile Version 3.0")
        assert "CELL_DATA" in text and "mean_p" in text and "var_p" in text
    assert os.path.basename(paths["vtk"][0]) == "subdomain_00.vtk"
    assert os.path.exists(paths["moments_csv"])
    assert os.path.exists(paths["stats_csv"])
    assert os.path.exists(paths["manifest"])


def test_stats_csv_contract(tmp_path):
    """Exact header, one row per subdomain, zero wall seconds by default."""
    _, _, result, paths = run_twoblock(tmp_path)
    lines = open(paths["stats_csv"]).read().splitlines()
    assert lines[0] == "method,subdomain,factorizations,backsolves," \
        "cg_iters_total,wall_seconds"
    assert lines[0] == ",".join(STATS_COLUMNS)
    assert len(lines) == 3
    for sid, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert cells[0] == "S1"
        assert int(cells[1]) == sid
        assert int(cells[2]) == result.stats.factorizations[sid]
        assert int(cells[3]) == result.stats.backsolves[sid]
        assert int(cells[4]) == result.stats.cg_iters_total
        assert cells[5] == "0.0"


def test_stats_csv_with_timing(tmp_path):
    cfg = load_case("darcy_twoblock").cfg
    cfg["output"] = dict(cfg["output"], timing_in_csv=True,
                         dir=str(tmp_path / "t"))
    _, _, _, paths = run_config(cfg)
    lines = open(paths["stats_csv"]).read().splitlines()
    walls = [float(line.split(",")[5]) for line in lines[1:]]
    assert all(w > 0.0 for w in walls)


def test_moments_csv_layout(tmp_path):
    problem, _, result, paths = run_twoblock(tmp_path)
    lines = open(paths["moments_csv"]).read().splitlines()
    assert lines[0] == "x,y,mean_u,mean_v,mean_p,var_u,var_v,var_p"
    n_cells = sum(len(problem.cell_centers(s)) for s in (0, 1))
    assert len(lines) == 1 + n_cells
    row = np.array(lines[1].split(","), dtype=float)
    c0 = problem.cell_centers(0)[0]
    assert row[0] == pytest.approx(c0[0])
    assert row[1] == pytest.approx(c0[1])
    mean_p = result.moments["0:cp"][0]
    assert row[4] == pytest.approx(mean_p[0], rel=1e-15)


def _odd_moments(moments, rng):
    """The moment fields with values of every magnitude, signed zeros and
    whole numbers, to stress the number format."""
    out = {}
    for name, (mean, var) in moments.items():
        pair = []
        for arr in (mean, var):
            arr = rng.standard_normal(arr.shape) * 10.0 ** rng.integers(
                -300, 300, arr.shape)
            arr.ravel()[::7] = np.round(arr.ravel()[::7] * 1e-290)
            arr.ravel()[::11] = -0.0
            pair.append(arr)
        out[name] = tuple(pair)
    return out


@pytest.mark.parametrize("name", ("case1_mini", "case1_mini_sparse",
                                  "case2_mini", "darcy_twoblock"))
def test_writers_match_the_per_value_writers_byte_for_byte(tmp_path, name):
    """write_vtk and write_moments_csv format rows of Python floats; the
    files are the bytes of the per-value writers (tests/_oracles.py), for
    a sweep's moments and for moments of every magnitude."""
    case = load_case(name)
    problem = case.problem
    swept = run_method(problem, case.grid, method="S3").moments
    for tag, moments in (("swept", swept),
                         ("odd", _odd_moments(swept,
                                              np.random.default_rng(7)))):
        files = []
        for side, vtk, csv in (
                ("new", write_vtk, write_moments_csv),
                ("old", per_value_write_vtk, per_value_write_moments_csv)):
            paths = [tmp_path / f"{tag}_{side}_{sid}.vtk"
                     for sid in range(problem.layout.n_subdomains)]
            for sid, path in enumerate(paths):
                vtk(path, problem, sid, moments)
            paths.append(tmp_path / f"{tag}_{side}.csv")
            csv(paths[-1], problem, moments)
            files.append([path.read_bytes() for path in paths])
        assert files[0] == files[1], tag


def test_manifest_contents(tmp_path):
    _, grid, result, paths = run_twoblock(tmp_path)
    man = json.load(open(paths["manifest"]))
    assert man["method"] == "S1"
    assert man["n_real"] == grid.n_real == 8
    assert man["lambda_dim"] == 8
    assert man["n_dims"] == 3
    assert man["n_subdomains"] == 2
    assert len(man["interfaces"]) == 1
    assert man["interfaces"][0] == {"index": 0, "between": [0, 1],
                                    "kind": "dd", "mortar_dofs": 8}
    assert man["n_real_per_region"] == {"0": 8}
    assert man["subdomain_dofs"] == {"0": 8, "1": 8}
    assert man["total_backsolves"] == int(result.stats.backsolves.sum())
    assert man["total_basis_backsolves"] == 0  # S1 builds no basis
    assert man["cg_iters"] == [int(n) for n in result.stats.cg_iters]
    assert man["cg_final_residual"] == [res[-1] for res in result.residuals]
    assert all(0.0 < r <= 1e-9 for r in man["cg_final_residual"])
    # full relative residual history of every realization's CG
    assert man["cg_residuals"] == result.residuals
    assert [len(h) for h in man["cg_residuals"]] == man["cg_iters"]
    assert [h[-1] for h in man["cg_residuals"]] == man["cg_final_residual"]
    assert man["cg_cond_estimate"] == result.cg_cond
    assert len(man["cg_cond_estimate"]) == grid.n_real
    assert all(c >= 1.0 for c in man["cg_cond_estimate"])
    assert man["config"]["method"] == "S1"
    assert "wall" not in json.dumps(man)

    _, _, result2, paths2 = run_twoblock(tmp_path, sub="s2", method="S2")
    man2 = json.load(open(paths2["manifest"]))
    # S2: one basis backsolve per local mortar dof per realization
    assert man2["total_basis_backsolves"] == 2 * 8 * 8
    assert man2["total_basis_backsolves"] == int(
        result2.stats.basis_backsolves.sum())


def test_reruns_are_bitwise_identical(tmp_path):
    _, _, _, paths_a = run_twoblock(tmp_path, sub="a")
    _, _, _, paths_b = run_twoblock(tmp_path, sub="b")
    for key in ("moments_csv", "stats_csv"):
        assert open(paths_a[key]).read() == open(paths_b[key]).read()
    for pa, pb in zip(paths_a["vtk"], paths_b["vtk"]):
        assert open(pa).read() == open(pb).read()


def test_worker_override_keeps_outputs_identical(tmp_path):
    _, _, _, paths_1 = run_twoblock(tmp_path, sub="w1", workers=1)
    _, _, _, paths_4 = run_twoblock(tmp_path, sub="w4", workers=4)
    assert open(paths_1["moments_csv"]).read() == \
        open(paths_4["moments_csv"]).read()
    stats_1 = open(paths_1["stats_csv"]).read()
    stats_4 = open(paths_4["stats_csv"]).read()
    assert stats_1 == stats_4


def test_method_override(tmp_path):
    _, _, result, paths = run_twoblock(tmp_path, method="S2")
    assert result.stats.method == "S2"
    assert open(paths["stats_csv"]).read().splitlines()[1].startswith("S2,")


def test_cli_run_and_exit_codes(tmp_path, capsys):
    out = str(tmp_path / "cli_out")
    code = cli.main(["run", TWOBLOCK, "--out-dir", out])
    captured = capsys.readouterr()
    assert code == cli.EXIT_OK
    assert "realizations" in captured.out
    assert os.path.exists(os.path.join(out, "stats.csv"))


def test_cli_validate(capsys):
    code = cli.main(["validate", TWOBLOCK])
    captured = capsys.readouterr()
    assert code == cli.EXIT_OK
    assert "config ok" in captured.out
    assert "interface 0: dd" in captured.out


def test_cli_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"domain": {"blocks": []}}))
    code = cli.main(["validate", str(bad)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_CONFIG
    record = json.loads(captured.err)
    assert record["error"] == "ConfigError"
    assert record["exit_code"] == 2
    assert record["messages"]


def assert_config_error(code, capsys):
    assert code == cli.EXIT_CONFIG
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
    assert record["exit_code"] == cli.EXIT_CONFIG
    return record["messages"]


@pytest.mark.parametrize("command", ["run", "validate"])
def test_cli_missing_config_is_a_config_error(tmp_path, capsys, command):
    missing = str(tmp_path / "nope.json")
    messages = assert_config_error(cli.main([command, missing]), capsys)
    assert messages[0].startswith(f"cannot read {missing}")


def test_cli_per_region_mean_missing_a_region_is_a_config_error(tmp_path,
                                                               capsys):
    with open(os.path.join(CONFIG_DIR, "case1_mini.json")) as fh:
        raw = json.load(fh)
    raw["mean_log_perm"] = {"kind": "per_region", "values": {"0": 0.5}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    for command in ("validate", "run"):
        messages = assert_config_error(cli.main([command, str(path)]),
                                       capsys)
        assert messages == ["mean_log_perm.values: no mean for KL "
                            "region(s) 1"]


@pytest.mark.parametrize("text", ["x[0, 1]", "y[1, 2]"])
@pytest.mark.parametrize("use", ["mean", "bc", "q_d"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_point_dependent_scalar_is_a_config_error(tmp_path, capsys,
                                                      command, use, text):
    """A single value read off the points is not a constant: it would give
    one point's value everywhere."""
    with open(TWOBLOCK) as fh:
        raw = json.load(fh)
    if use == "mean":
        raw["mean_log_perm"] = {"kind": "expression", "expr": text}
    elif use == "bc":
        raw["bcs"]["0"]["left"]["value"] = text
    else:
        raw["sources"] = {"q_d": text}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    args = [command, str(path)]
    if command == "run":
        args += ["--out-dir", str(tmp_path / "out")]
    messages = assert_config_error(cli.main(args), capsys)
    assert len(messages) == 1
    assert (f"expression {text!r} gives a single value that depends on the "
            f"points") in messages[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_non_finite_constant_is_a_config_error(tmp_path, capsys,
                                                   command):
    """A bc value of NaN exits 2 naming the expression, before any solve
    could meet it."""
    with open(TWOBLOCK) as fh:
        raw = json.load(fh)
    raw["bcs"]["0"]["left"]["value"] = "sqrt(-1)"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    args = [command, str(path)]
    if command == "run":
        args += ["--out-dir", str(tmp_path / "out")]
    messages = assert_config_error(cli.main(args), capsys)
    assert len(messages) == 1
    assert ("expression 'sqrt(-1)' gives the non-finite value nan"
            in messages[0])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_non_finite_raster_is_a_config_error(tmp_path, capsys, command):
    """A raster file holding NaN exits 2 naming the file and the count,
    before any permeability is sampled."""
    with open(TWOBLOCK) as fh:
        raw = json.load(fh)
    raw["mean_log_perm"] = {"kind": "raster", "rect": [0, 0, 2, 1],
                            "shape": [2, 1], "path": "r.csv"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    (tmp_path / "r.csv").write_text("0.0,nan\n")
    args = [command, str(path)]
    if command == "run":
        args += ["--out-dir", str(tmp_path / "out")]
    messages = assert_config_error(cli.main(args), capsys)
    assert messages == [f"mean_log_perm: 1 of 2 values of raster "
                        f"{tmp_path / 'r.csv'} are not finite"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_constant_expressions_pass(tmp_path, capsys, command):
    with open(TWOBLOCK) as fh:
        raw = json.load(fh)
    raw["mean_log_perm"] = {"kind": "expression", "expr": "0.1*pi"}
    raw["bcs"]["0"]["left"]["value"] = "2*pi"
    raw["sources"] = {"q_d": "sin(pi/4)*0"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    args = [command, str(path)]
    if command == "run":
        args += ["--out-dir", str(tmp_path / "out")]
    assert cli.main(args) == cli.EXIT_OK
    capsys.readouterr()


@pytest.mark.parametrize("command", ["validate", "grid"])
def test_cli_reads_a_raster_next_to_the_config(tmp_path, capsys, monkeypatch,
                                               command):
    """A relative raster path is read from the config's directory, not the
    working directory; an unreadable raster is a config error."""
    with open(TWOBLOCK) as fh:
        raw = json.load(fh)
    raw["mean_log_perm"] = {"kind": "raster", "rect": [0, 0, 2, 1],
                            "shape": [2, 1], "path": "field.csv"}
    (tmp_path / "cfgs").mkdir()
    path = tmp_path / "cfgs" / "cfg.json"
    path.write_text(json.dumps(raw))
    monkeypatch.chdir(tmp_path)
    messages = assert_config_error(cli.main([command, "cfgs/cfg.json"]),
                                   capsys)
    assert "cannot read raster" in messages[0]
    (tmp_path / "cfgs" / "field.csv").write_text("0.5,-0.5\n")
    assert cli.main([command, "cfgs/cfg.json"]) == cli.EXIT_OK
    capsys.readouterr()


@pytest.mark.parametrize("method", ["S1", "S2", "S3"])
@pytest.mark.parametrize("physics", ["darcy", "stokes"])
def test_cli_runs_a_block_without_interfaces(tmp_path, capsys, physics,
                                             method):
    path = tmp_path / "one.json"
    path.write_text(json.dumps(one_block_raw(physics)))
    out = tmp_path / "out"
    code = cli.main(["run", str(path), "--method", method,
                     "--out-dir", str(out)])
    capsys.readouterr()
    assert code == cli.EXIT_OK
    man = json.load(open(out / "manifest.json"))
    assert man["lambda_dim"] == 0
    assert man["cg_iters"] == [0] * man["n_real"]
    moments = np.loadtxt(out / "moments.csv", delimiter=",", skiprows=1)
    n_cells = {"darcy": 16, "stokes": 32}[physics]  # cells or triangles
    assert len(moments) == n_cells and np.all(np.isfinite(moments))


@pytest.mark.parametrize("command", ["validate", "run", "grid"])
@pytest.mark.parametrize("collocation, message", [
    ({"kind": "sparse", "level": 1},
     "collocation: a sparse grid needs at least one KL dimension"),
    ({"kind": "tensor", "m": [2]},
     "collocation: m has 1 entries but the KL regions define 0 dimensions"),
])
def test_cli_collocation_on_zero_dimensions_is_a_config_error(
        tmp_path, capsys, command, collocation, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(one_block_raw("stokes", collocation)))
    args = [command, str(path)]
    if command == "run":
        args += ["--out-dir", str(tmp_path / "out")]
    assert assert_config_error(cli.main(args), capsys) == [message]


def _bad_kl_entry():
    raw = one_block_raw("darcy")
    raw["kl_regions"] = [7] + raw["kl_regions"]
    raw["domain"]["blocks"][0]["kl_region"] = 1
    return raw, "kl_regions[0]: must be an object"


def _bad_block_entry():
    raw = one_block_raw("darcy")
    raw["domain"]["blocks"] = [7] + raw["domain"]["blocks"]
    raw["bcs"] = {"1": raw["bcs"]["0"]}
    return raw, "domain.blocks[0]: must be an object"


def _padded_interface_key():
    raw = json.load(open(os.path.join(CONFIG_DIR, "case2_mini.json")))
    raw["mortars"]["per_interface"] = {"3": 2, "06": 2}
    return raw, "mortars.per_interface: bad interface key '06'"


def _non_finite_rect():
    raw = one_block_raw("darcy")
    raw["domain"]["blocks"][0]["rect"] = [float("nan"), 0, 1, 1]
    return raw, "domain.blocks[0]: rect must be [x0, y0, x1, y1]"


def _zero_nu_d():
    raw = json.load(open(TWOBLOCK))
    raw["physics"] = {"nu_d": 0}
    return raw, "physics.nu_d: number > 0 required"


def _zero_nu_s():
    raw = json.load(open(os.path.join(CONFIG_DIR, "case1_mini.json")))
    raw["physics"] = {"nu_s": 0}
    return raw, "physics.nu_s: number > 0 required"


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("make", [_bad_kl_entry, _bad_block_entry,
                                  _padded_interface_key, _non_finite_rect,
                                  _zero_nu_d, _zero_nu_s])
def test_cli_config_entry_errors(tmp_path, capsys, command, make):
    """A kl_regions or domain.blocks entry that is not an object, a
    zero-padded interface key, a non-finite number (JSON NaN) and a zero
    viscosity are config errors, each reported once."""
    raw, message = make()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    args = [command, str(path)]
    if command == "run":
        args += ["--out-dir", str(tmp_path / "out")]
    assert assert_config_error(cli.main(args), capsys) == [message]


def test_cli_rejects_workers_below_one(tmp_path, capsys):
    code = cli.main(["run", TWOBLOCK, "--workers", "0",
                     "--out-dir", str(tmp_path / "x")])
    assert assert_config_error(code, capsys) == [
        "workers: int >= 1 required"]
    assert not (tmp_path / "x").exists()


def test_cli_rejects_an_empty_out_dir(capsys):
    code = cli.main(["run", TWOBLOCK, "--out-dir", ""])
    assert assert_config_error(code, capsys) == [
        "output.dir: non-empty string required"]


def test_cli_overrides_are_echoed_in_the_manifest(tmp_path, capsys):
    """The manifest's config echo is the config that ran: the command
    line's method, workers and output directory replace the file's."""
    out = str(tmp_path / "d")
    code = cli.main(["run", TWOBLOCK, "--method", "S3", "--workers", "2",
                     "--out-dir", out])
    assert code == cli.EXIT_OK
    capsys.readouterr()
    man = json.load(open(os.path.join(out, "manifest.json")))
    assert man["method"] == man["config"]["method"] == "S3"
    assert man["config"]["workers"] == 2
    assert man["config"]["output"]["dir"] == out
    # everything else is the file's config as validated
    cfg = parse_config(TWOBLOCK)
    cfg.update(method="S3", workers=2, output=dict(cfg["output"], dir=out))
    assert man["config"] == cfg


def _mean_expr(text):
    raw = json.load(open(TWOBLOCK))
    raw["mean_log_perm"] = {"kind": "expression", "expr": text}
    return raw, "mean_log_perm"


def _bc_value(text):
    raw = json.load(open(TWOBLOCK))
    side = next(iter(raw["bcs"]["0"]))
    raw["bcs"]["0"][side]["value"] = text
    return raw, f"bcs.0.{side}"


def _q_d(text):
    raw = json.load(open(TWOBLOCK))
    raw.setdefault("sources", {})["q_d"] = text
    return raw, "sources.q_d"


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("text, shape", [("[1, 2, 3]", (3,)),
                                         ("x[0]", (3,))])
@pytest.mark.parametrize("make", [_mean_expr, _bc_value, _q_d])
def test_cli_expression_without_one_value_per_point(tmp_path, capsys,
                                                    command, text, shape,
                                                    make):
    """A mean, a bc value or a source whose expression does not give one
    value per point is a config error for validate and run alike."""
    raw, where = make(text)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    args = [command, str(path)]
    if command == "run":
        args += ["--out-dir", str(tmp_path / "out")]
    assert assert_config_error(cli.main(args), capsys) == [
        f"{where}: expression {text!r} gives shape {shape} on points of "
        f"shape (2, 3): one value per point or a constant required"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("spec", [
    {"kind": "tensor", "m": [2, 2], "splits": [3]},
    {"kind": "sparse", "level": -1, "splits": [2]},
    [1, 2],
    {"kind": "tensor", "m": [0]},
    {"kind": "tensor", "m": 2, "splits": [2, "a"]},
])
def test_cli_grid_rejects_malformed_specs(tmp_path, capsys, spec):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(spec))
    assert assert_config_error(cli.main(["grid", str(path)]), capsys)


@pytest.mark.parametrize("spec, field", [
    ({"kind": "tensor", "m": [True, 2], "splits": [2]}, "m must be"),
    ({"kind": "tensor", "m": 2, "splits": [True, 1]}, "splits"),
    ({"kind": "sparse", "level": True, "splits": [2]}, "level"),
])
def test_cli_grid_rejects_booleans(tmp_path, capsys, spec, field):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(spec))
    messages = assert_config_error(cli.main(["grid", str(path)]), capsys)
    assert any(field in m for m in messages), messages


def test_cli_convergence_error(tmp_path, capsys):
    cfg = load_case("darcy_twoblock").cfg
    cfg["cg"] = {"tol": 1e-9, "max_iter": 1}
    cfg["output"] = dict(cfg["output"], dir=str(tmp_path / "x"))
    path = tmp_path / "hard.json"
    path.write_text(json.dumps(cfg))
    code = cli.main(["run", str(path)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_CONVERGENCE
    record = json.loads(captured.err)
    assert record["error"] == "ConvergenceError"
    assert record["exit_code"] == 3


def test_cli_resource_error(tmp_path, capsys):
    cfg = load_case("darcy_twoblock").cfg
    cfg["method"] = "S2"
    cfg["basis_cap_mb"] = 1e-9
    cfg["output"] = dict(cfg["output"], dir=str(tmp_path / "x"))
    path = tmp_path / "capped.json"
    path.write_text(json.dumps(cfg))
    code = cli.main(["run", str(path)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_RESOURCE
    record = json.loads(captured.err)
    assert record["error"] == "SizeCapError"
    assert record["exit_code"] == 4


def test_cli_singular_subdomain_error(tmp_path, capsys):
    """A block whose data leave its pressure undetermined, a Stokes block
    with velocity data alone or a Darcy block with no-flow alone, fails
    run and validate alike: exit code 5 and a record that names the
    subdomain."""
    stokes = one_block_raw("stokes")
    stokes["bcs"]["0"]["right"] = {"kind": "velocity", "value": [1.0, 0.0]}
    darcy = one_block_raw("darcy")
    darcy["bcs"] = {}
    path = tmp_path / "closed.json"
    for raw, message in (
            (stokes, "stokes block has only velocity data"),
            (darcy, "darcy block has no pressure data and no interface")):
        path.write_text(json.dumps(raw))
        for args in (["run", str(path), "--out-dir", str(tmp_path / "x")],
                     ["validate", str(path)]):
            code = cli.main(args)
            captured = capsys.readouterr()
            assert code == cli.EXIT_SINGULAR == 5
            assert "config ok" not in captured.out
            record = json.loads(captured.err)
            assert record["error"] == "SingularOperatorError"
            assert record["exit_code"] == 5
            assert record["message"] == (f"subdomain 0: {message}; "
                                         "pressure is undetermined")


def test_cli_eig(tmp_path, capsys):
    spec = tmp_path / "region.json"
    spec.write_text(json.dumps(
        {"rect": [0, 0, 1, 1], "sigma2": 1.0, "eta": [0.1, 0.1],
         "n_term": 4}))
    code = cli.main(["eig", str(spec)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_OK
    lines = captured.out.splitlines()
    assert lines[0] == "region,index,eigenvalue"
    assert len(lines) == 5
    vals = [float(line.split(",")[2]) for line in lines[1:]]
    assert vals == sorted(vals, reverse=True)


def test_cli_grid(tmp_path, capsys):
    spec = tmp_path / "grid.json"
    spec.write_text(json.dumps(
        {"kind": "sparse", "level": 1, "splits": [5, 5]}))
    code = cli.main(["grid", str(spec)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_OK
    lines = captured.out.splitlines()
    assert lines[0].startswith("k,weight,local_0,local_1,y0")
    assert len(lines) == 1 + 21
    assert "n_real=21" in captured.err
    assert "local_counts=11,11" in captured.err


def test_cli_grid_from_run_config(capsys):
    code = cli.main(["grid", TWOBLOCK])
    captured = capsys.readouterr()
    assert code == cli.EXIT_OK
    assert len(captured.out.splitlines()) == 1 + 8
