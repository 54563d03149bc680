"""Mixed RT0/P0 Darcy subdomain solver."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

from sdmortar.darcy import DarcyBC, DarcySystem, trace_dofs
from sdmortar.errors import SingularOperatorError
from sdmortar.geometry import (Block, build_layout, build_subdomain_mesh,
                               locate_trace)

from _oracles import (assemble_darcy, darcy_saddle_matrix, factor_rows,
                      flux_on_interface, lu_solution, saddle_gap, solve_star,
                      star_load, trace_coupling)
from conftest import load_case


def make_op(rect, n, K, nu=1.0, bcs=None, f=None, q=None):
    mesh = build_subdomain_mesh(Block(rect, "darcy", (n, n), 0))
    Kc = np.full(mesh.n_cells, float(K)) if np.isscalar(K) else K
    return mesh, assemble_darcy(mesh, Kc, nu, bcs or {}, [], f=f, q=q)


def test_single_cell_hand_solution():
    """One cell, pressure drop 5 -> 1: u = (K/nu) dp/L, p = mean."""
    bcs = {"left": DarcyBC("pressure", lambda x, y: 5.0),
           "right": DarcyBC("pressure", lambda x, y: 1.0)}
    mesh, op = make_op((0, 0, 1, 1), 1, K=2.0, nu=3.0, bcs=bcs)
    sol = op.solve_bar()
    assert sol.u[mesh.vedge(0, 0)] == pytest.approx(8.0 / 3.0)
    assert sol.u[mesh.vedge(1, 0)] == pytest.approx(8.0 / 3.0)
    assert sol.p[0] == pytest.approx(3.0)
    assert op.factorizations == 1
    assert op.backsolves == 1


def test_uniform_flow_exact():
    """Linear pressure and constant velocity are reproduced exactly."""
    bcs = {"left": DarcyBC("pressure", lambda x, y: 1.0),
           "right": DarcyBC("pressure", lambda x, y: 0.0)}
    mesh, op = make_op((0, 0, 1, 1), 8, K=1.0, bcs=bcs)
    sol = op.solve_bar()
    v = op.cell_values(sol)[0]
    assert np.allclose(v[:, 0], 1.0, atol=1e-12)
    assert np.allclose(v[:, 1], 0.0, atol=1e-12)
    assert np.allclose(sol.p, 1.0 - mesh.centroids[:, 0], atol=1e-12)
    # velocity values sit directly on the edge dofs
    assert np.allclose(sol.u[:mesh.n_vedges], 1.0, atol=1e-12)
    assert np.allclose(sol.u[mesh.n_vedges:], 0.0, atol=1e-12)


def test_permeability_scaling():
    """Doubling K (or halving nu) doubles the flux."""
    bcs = {"left": DarcyBC("pressure", lambda x, y: 1.0),
           "right": DarcyBC("pressure", lambda x, y: 0.0)}
    _, op1 = make_op((0, 0, 1, 1), 4, K=1.0, nu=1.0, bcs=bcs)
    _, op2 = make_op((0, 0, 1, 1), 4, K=2.0, nu=1.0, bcs=bcs)
    _, op3 = make_op((0, 0, 1, 1), 4, K=1.0, nu=0.5, bcs=bcs)
    u1 = op1.solve_bar().u
    assert np.allclose(op2.solve_bar().u, 2 * u1)
    assert np.allclose(op3.solve_bar().u, 2 * u1)


def test_pressure_bc_value_function():
    """Linear pressure data on all four sides is reproduced exactly."""
    g = lambda x, y: x + 2 * y
    bcs = {s: DarcyBC("pressure", g) for s in ("left", "right", "bottom", "top")}
    mesh, op = make_op((0, 0, 1, 1), 8, K=1.0, bcs=bcs)
    sol = op.solve_bar()
    v = op.cell_values(sol)[0]
    assert np.allclose(v, [[-1.0, -2.0]] * mesh.n_cells, atol=1e-11)
    assert np.allclose(sol.p, mesh.centroids @ [1.0, 2.0], atol=1e-11)


def test_manufactured_solution_convergence():
    """Cell-center errors of p = cos(pi x) cos(pi y) shrink by ~4x per level."""
    p_ex = lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y)
    u_ex = lambda x, y: np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)
    v_ex = lambda x, y: np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)
    q = lambda x, y: 2 * np.pi ** 2 * p_ex(x, y)
    bcs = {"left": DarcyBC("pressure", lambda x, y: p_ex(x, y)),
           "right": DarcyBC("pressure", lambda x, y: p_ex(x, y))}
    p_errs, u_errs = [], []
    for n in (8, 16, 32):
        mesh, op = make_op((0, 0, 1, 1), n, K=1.0, bcs=bcs, q=q)
        sol = op.solve_bar()
        xc, yc = mesh.centroids[:, 0], mesh.centroids[:, 1]
        area = mesh.hx * mesh.hy
        p_errs.append(np.sqrt(np.sum((sol.p - p_ex(xc, yc)) ** 2 * area)))
        v = op.cell_values(sol)[0]
        du = (v[:, 0] - u_ex(xc, yc)) ** 2 + (v[:, 1] - v_ex(xc, yc)) ** 2
        u_errs.append(np.sqrt(np.sum(du * area)))
    p_errs, u_errs = np.array(p_errs), np.array(u_errs)
    assert np.all(p_errs[:-1] / p_errs[1:] > 3.0)
    assert np.all(u_errs[:-1] / u_errs[1:] > 3.0)


def test_momentum_source_balances_gravity():
    """f = grad(p) with matching pressure data gives zero velocity."""
    bcs = {"left": DarcyBC("pressure", lambda x, y: x + 2 * y),
           "right": DarcyBC("pressure", lambda x, y: x + 2 * y)}
    f = lambda x, y: (np.ones_like(x), 2 * np.ones_like(x))
    mesh, op = make_op((0, 0, 1, 1), 8, K=1.0, bcs=bcs, f=f)
    sol = op.solve_bar()
    assert np.max(np.abs(sol.u)) < 1e-10
    assert np.allclose(sol.p, mesh.centroids @ [1.0, 2.0], atol=1e-10)


def star_setup(n=8):
    """Two Darcy blocks joined at x = 1, star data on the interface."""
    layout = build_layout([
        Block((0, 0, 1, 1), "darcy", (n, n), 0),
        Block((1, 0, 2, 1), "darcy", (n, n), 0),
    ])
    meshes = {i: build_subdomain_mesh(b) for i, b in enumerate(layout.blocks)}
    g = layout.interfaces[0]
    ops, traces = {}, {}
    for sid in (0, 1):
        traces[sid] = locate_trace(meshes[sid], layout.blocks[sid], g)
        ops[sid] = assemble_darcy(meshes[sid], np.ones(meshes[sid].n_cells),
                                  1.0, {}, [traces[sid]])
    return g, ops, traces


def test_star_constant_lambda_gives_constant_pressure():
    """With only interface data lam = c the solution is p = c, u = 0."""
    g, ops, traces = star_setup()
    for sid in (0, 1):
        sol = solve_star(ops[sid], sid, [(g, traces[sid])],
                         {g.index: np.full(8, 2.5)})
        assert np.allclose(sol.p, 2.5, atol=1e-11)
        assert np.max(np.abs(sol.u)) < 1e-11
        assert np.allclose(flux_on_interface(traces[sid], sol), 0.0,
                           atol=1e-11)


def test_star_linearity():
    """solve_star is linear in the interface data: its three calls count
    three backsolves, and the test oracle's solve of the same star load,
    which it matches, counts none."""
    _, ops, traces = star_setup(4)
    mesh, tr = ops[0].mesh, traces[0]
    system = DarcySystem(mesh, 1.0, {}, [tr],
                         coupling=trace_coupling(tr, trace_dofs))
    op = system.factor(np.ones(mesh.n_cells))
    rng = np.random.default_rng(3)
    a = rng.standard_normal(4)
    b = rng.standard_normal(4)
    sa, sb, sab = (op.solve_star(lam) for lam in (a, b, a + 2 * b))
    assert np.allclose(sab, sa + 2 * sb, atol=1e-12)
    assert op.factorizations == 1
    assert op.backsolves == 3
    sol = lu_solution(op, star_load(op, a))
    assert np.allclose(system.coupling.functionals(sol.u), sa, atol=1e-12)
    assert op.backsolves == 3


def test_flux_orientation_matches_interface_normal():
    """Uniform left-to-right flow has equal interface flux on both sides."""
    layout = build_layout([
        Block((0, 0, 1, 1), "darcy", (4, 4), 0),
        Block((1, 0, 2, 1), "darcy", (4, 4), 0),
    ])
    meshes = {i: build_subdomain_mesh(b) for i, b in enumerate(layout.blocks)}
    g = layout.interfaces[0]
    bcs = [{"left": DarcyBC("pressure", lambda x, y: 2.0)},
           {"right": DarcyBC("pressure", lambda x, y: 0.0)}]
    flux = {}
    for sid in (0, 1):
        tr = locate_trace(meshes[sid], layout.blocks[sid], g)
        op = assemble_darcy(meshes[sid], np.ones(16), 1.0, bcs[sid], [tr])
        sol = solve_star(op, sid, [(g, tr)], {g.index: np.full(4, 1.0)})
        flux[sid] = flux_on_interface(tr, sol)
    # both sides see the same fixed normal, so the jump is the difference
    assert np.allclose(flux[0], -flux[1], atol=1e-12)
    # block 0 drains toward its zero-pressure outer side: net flux -1
    assert flux[0] @ np.full(4, 0.25) == pytest.approx(-1.0)


def test_all_noflow_is_singular():
    with pytest.raises(SingularOperatorError):
        make_op((0, 0, 1, 1), 4, K=1.0, bcs={})


def test_bad_permeability_rejected():
    mesh = build_subdomain_mesh(Block((0, 0, 1, 1), "darcy", (4, 4), 0))
    bcs = {"left": DarcyBC("pressure", None)}
    with pytest.raises(ValueError, match="positive"):
        assemble_darcy(mesh, np.full(16, -1.0), 1.0, bcs, [])
    with pytest.raises(ValueError, match="per cell"):
        assemble_darcy(mesh, np.ones(5), 1.0, bcs, [])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_permeability_rejected(bad):
    mesh = build_subdomain_mesh(Block((0, 0, 1, 1), "darcy", (4, 4), 0))
    K = np.ones(16)
    K[[3, 7]] = bad
    with pytest.raises(ValueError, match="2 of 16 permeability values"):
        assemble_darcy(mesh, K, 1.0, {"left": DarcyBC("pressure", None)}, [])


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
def test_bad_permeability_names_the_subdomain(twoblock, bad, monkeypatch):
    problem = twoblock.problem
    y = np.zeros(3)
    problem.assemble_subdomain(0, y)
    K = problem.sample_permeability(1, y)
    K[5] = bad
    monkeypatch.setattr(problem, "sample_permeability", lambda sid, y: K)
    with pytest.raises(ValueError, match="subdomain 1: 1 of 64"):
        problem.assemble_subdomain(1, y)


# -- the hybridized solve against a sparse LU of the saddle matrix ------

CONFIGS = ("case1_mini", "case1_mini_sparse", "case2_mini", "darcy_twoblock")
GAP = 1e-12  # 6.8e-14 measured (darcy_twoblock at x2)


@pytest.mark.parametrize("bcs, f, q", [
    ({"left": DarcyBC("pressure", lambda x, y: 2 + x * y)}, None, None),
    ({"left": DarcyBC("pressure", lambda x, y: 1 + y),
      "top": DarcyBC("pressure", lambda x, y: x)},
     lambda x, y: (np.sin(x), x * y), None),
    ({s: DarcyBC("pressure", lambda x, y: x - y)
      for s in ("left", "right", "bottom", "top")},
     lambda x, y: (1 + 0 * x, -y), lambda x, y: np.cos(3 * x) + y)])
def test_hybrid_bar_solve_matches_the_saddle_lu(bcs, f, q):
    """Bar loads: outer pressure data, momentum and mass sources."""
    mesh = build_subdomain_mesh(Block((0.2, 0.0, 1.4, 0.9), "darcy", (7, 5),
                                      0))
    K = np.exp(np.random.default_rng(4).standard_normal(mesh.n_cells))
    op = assemble_darcy(mesh, K, 0.7, bcs, [], f=f, q=q)
    bar_load = op.system.bar_load
    assert np.any(bar_load != 0.0)
    assert saddle_gap(op, K, bar_load) <= GAP
    sol = op.solve_bar()
    ref = splu(darcy_saddle_matrix(op.system, K)).solve(bar_load)
    assert np.max(np.abs(sol.u[op.system.free] - ref[:op.system.n_u])) <= (
        GAP * np.max(np.abs(ref)))


@pytest.mark.parametrize("refine", (1, 2))
@pytest.mark.parametrize("name", CONFIGS)
def test_hybrid_solve_matches_the_saddle_lu_on_shipped_configs(name, refine):
    """Every Darcy block at the first and last collocation points: the bar
    load where it is not zero, one star load, a block of five and random
    saddle loads."""
    case = load_case(name, refine=refine)
    problem = case.problem
    rng = np.random.default_rng(5)
    for sid, block in enumerate(problem.layout.blocks):
        if block.physics != "darcy":
            continue
        nd = len(problem.sub_dofs[sid])
        for y in (case.grid.points[0], case.grid.points[-1]):
            K = problem.sample_permeability(sid, y)
            op = problem.assemble_subdomain(sid, y)
            n = factor_rows(op)
            for rhs in (op.system.bar_load,
                        star_load(op, rng.standard_normal(nd)),
                        star_load(op, rng.standard_normal((nd, 5))),
                        rng.standard_normal((n, 3))):
                if rhs.any():
                    assert saddle_gap(op, K, rhs) <= GAP, (sid, rhs.shape)


@pytest.mark.parametrize("refine", (1, 2, 4))
@pytest.mark.parametrize("name", CONFIGS)
def test_multiplier_order_is_as_banded_as_scipy_rcm(name, refine):
    """H's half bandwidth kd, in the system's multiplier order, is at most
    2 min(nx, ny) + 1 and at most the bandwidth of scipy.sparse.csgraph's
    reverse Cuthill-McKee order of the same graph, started from the
    multipliers numbered by edge."""
    problem = load_case(name, refine=refine).problem
    for sid, block in enumerate(problem.layout.blocks):
        if block.physics != "darcy":
            continue
        system = problem._build_system(sid)
        mesh = system.mesh
        iy, ix = np.divmod(np.arange(mesh.n_cells), mesh.nx)
        cell = np.column_stack(mesh.cell_edges(ix, iy))
        has = system.multiplier >= 0
        pairs = []
        for mult in (system.multiplier, np.where(has, np.cumsum(has) - 1,
                                                 -1)):
            i = np.repeat(mult[cell], 4, axis=1).ravel()
            j = np.tile(mult[cell], (1, 4)).ravel()
            ok = (i >= 0) & (j >= 0)
            pairs.append((i[ok], j[ok]))
        (i, j), (ei, ej) = pairs
        assert np.max(i - j) == system.kd
        assert system.kd <= 2 * min(mesh.nx, mesh.ny) + 1, sid
        n = int(has.sum())
        graph = sp.csr_matrix((np.ones(len(ei)), (ei, ej)), shape=(n, n))
        rank = np.empty(n, dtype=int)
        rank[reverse_cuthill_mckee(graph, symmetric_mode=True)] = (
            np.arange(n))
        assert system.kd <= np.max(rank[ei] - rank[ej]), sid


def test_hybrid_solve_with_k_over_eight_decades():
    """K log-uniform over 1e-4..1e4 cell by cell, with an interface trace,
    pressure data and a mass source."""
    layout = build_layout([Block((0, 0, 1, 1), "darcy", (9, 8), 0),
                           Block((1, 0, 2, 1), "darcy", (9, 8), 0)])
    mesh = build_subdomain_mesh(layout.blocks[0])
    tr = locate_trace(mesh, layout.blocks[0], layout.interfaces[0])
    rng = np.random.default_rng(6)
    K = 10.0 ** rng.uniform(-4.0, 4.0, mesh.n_cells)
    bcs = {"left": DarcyBC("pressure", lambda x, y: 1 + y)}
    op = assemble_darcy(mesh, K, 0.7, bcs, [tr], q=lambda x, y: x - y)
    assert K.max() / K.min() > 1e7
    n = factor_rows(op)
    for rhs in (op.system.bar_load, rng.standard_normal(n),
                rng.standard_normal((n, 4))):
        assert saddle_gap(op, K, rhs) <= GAP


def test_multiplier_matrix_not_spd_names_the_subdomain(twoblock,
                                                       monkeypatch):
    system = twoblock.problem.systems()[1]
    band = system.multiplier_band

    def indefinite(K):
        out = band(K)
        out[0, 7] = -out[0, 7]
        return out

    monkeypatch.setattr(system, "multiplier_band", indefinite)
    with pytest.raises(SingularOperatorError,
                       match="subdomain 1: multiplier matrix is not positive "
                             r"definite \(leading minor 8\)"):
        twoblock.problem.assemble_subdomain(1, np.zeros(3))
