"""Array-op assembly and post-processing against element-loop references.

The loops below are the element-by-element forms the array code replaced.
Where the arithmetic is unchanged (scatter order, per-row dots, integer
tables) the results must be bitwise equal; the Darcy matrix refill sums
duplicate entries in another order and is held to round-off.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from _oracles import assemble_stokes, loop_body_force
from conftest import load_case
from sdmortar.darcy import DarcyBC, DarcySystem
from sdmortar.geometry import Block, build_subdomain_mesh
from sdmortar.output import _darcy_cells
from sdmortar.stokes import StokesBC, StokesSystem, _p1_shapes, _p2_shapes


def _darcy_mesh(nx=5, ny=3):
    return build_subdomain_mesh(Block((0.0, 0.0, 1.0, 0.6), "darcy",
                                      (nx, ny), 0))


def _stokes_mesh(nx=3, ny=4):
    return build_subdomain_mesh(Block((0.0, 0.0, 0.9, 1.2), "stokes",
                                      (nx, ny)))


def test_darcy_matrix_refill_matches_element_loop():
    mesh = _darcy_mesh()
    system = DarcySystem(mesh, 0.7, {"left": DarcyBC("pressure", None)}, [])
    K = np.exp(np.random.default_rng(3).standard_normal(mesh.n_cells))
    red = system.red_index
    rows, cols, vals, brows, bcols, bvals = [], [], [], [], [], []
    for iy in range(mesh.ny):
        for ix in range(mesh.nx):
            c = mesh.cell(ix, iy)
            w, e, s, n = mesh.cell_edges(ix, iy)
            coef = 0.7 / K[c] * mesh.hx * mesh.hy
            for (a, b), m in (((w, w), 1 / 3), ((e, e), 1 / 3),
                              ((w, e), 1 / 6), ((e, w), 1 / 6),
                              ((s, s), 1 / 3), ((n, n), 1 / 3),
                              ((s, n), 1 / 6), ((n, s), 1 / 6)):
                if red[a] >= 0 and red[b] >= 0:
                    rows.append(red[a])
                    cols.append(red[b])
                    vals.append(coef * m)
            for a, bv in ((w, mesh.hy), (e, -mesh.hy), (s, mesh.hx),
                          (n, -mesh.hx)):
                if red[a] >= 0:
                    brows.append(c)
                    bcols.append(red[a])
                    bvals.append(bv)
    A = sp.coo_matrix((vals, (rows, cols)), shape=(system.n_u,) * 2)
    B = sp.coo_matrix((bvals, (brows, bcols)),
                      shape=(system.n_p, system.n_u))
    ref = sp.bmat([[A.tocsr(), B.T], [B, None]], format="csc")
    got = system.matrix(0.7 / K)
    ref.sort_indices()
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert np.allclose(got.data, ref.data, rtol=1e-15, atol=0.0)


def test_stokes_blocks_match_element_loop():
    mesh = _stokes_mesh()
    system = StokesSystem(mesh, 0.7, 0.0, {"top": StokesBC("stress")}, [])
    tables = system._shape_tables()
    rows, cols, vals, brows, bcols, bvals = [], [], [], [], [], []
    for t in range(mesh.n_tri):
        A11, A22, A12, B1, B2 = tables[t % 2]
        nd, pd = mesh.conn_p2[t], mesh.conn_p1[t]
        d1, d2 = 2 * nd, 2 * nd + 1
        for i in range(6):
            for j in range(6):
                rows += [d1[i], d2[i], d1[i], d2[i]]
                cols += [d1[j], d2[j], d2[j], d1[j]]
                vals += [A11[i, j], A22[i, j], A12[i, j], A12[j, i]]
        for i in range(3):
            for j in range(6):
                brows += [pd[i], pd[i]]
                bcols += [2 * nd[j], 2 * nd[j] + 1]
                bvals += [B1[i, j], B2[i, j]]
    n = system.n_udof
    A_ref = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    B_ref = sp.coo_matrix((bvals, (brows, bcols)),
                          shape=(system.n_p, n)).tocsr()
    A = system._assemble_viscous(tables)
    B = system._assemble_divergence(tables)
    for got, ref in ((A, A_ref), (B, B_ref)):
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.data, ref.data)


def test_cell_samples_match_loops():
    rng = np.random.default_rng(8)
    mesh = _darcy_mesh()
    op = DarcySystem(mesh, 1.0, {"left": DarcyBC("pressure", None)},
                     []).factor(np.ones(mesh.n_cells))
    sol = op.solve_bar()
    sol.u[:] = rng.standard_normal(mesh.n_edges)
    ref = np.empty((mesh.n_cells, 2))
    for iy in range(mesh.ny):
        for ix in range(mesh.nx):
            w, e, s, n = mesh.cell_edges(ix, iy)
            ref[mesh.cell(ix, iy)] = [0.5 * (sol.u[w] + sol.u[e]),
                                      0.5 * (sol.u[s] + sol.u[n])]
    assert np.array_equal(op.cell_values(sol)[0], ref)

    smesh = _stokes_mesh()
    sop = assemble_stokes(smesh, 1.0, 0.0, {"top": StokesBC("stress")}, [])
    ssol = sop.solve_bar()
    ssol.u[:] = rng.standard_normal(ssol.u.shape) * 1e3
    ssol.p[:] = rng.standard_normal(ssol.p.shape)
    N, _ = _p2_shapes(1 / 3, 1 / 3)
    M = _p1_shapes(1 / 3, 1 / 3)
    vel, prs = sop.cell_values(ssol)
    for t in range(smesh.n_tri):
        nd = smesh.conn_p2[t]
        assert vel[t, 0] == N @ ssol.u[2 * nd]
        assert vel[t, 1] == N @ ssol.u[2 * nd + 1]
        assert prs[t] == M @ ssol.p[smesh.conn_p1[t]]


@pytest.mark.parametrize("nx,ny", [(1, 1), (5, 3), (2, 7)])
def test_darcy_vtk_cells_match_loop(nx, ny):
    mesh = _darcy_mesh(nx, ny)
    _, conn, ctype = _darcy_cells(mesh, mesh.rect)
    w = nx + 1
    for iy in range(ny):
        for ix in range(nx):
            n00 = iy * w + ix
            assert list(conn[mesh.cell(ix, iy)]) == [n00, n00 + 1,
                                                     n00 + w + 1, n00 + w]
    assert ctype == 9 and conn.shape == (nx * ny, 4)


@pytest.mark.parametrize("refine", (1, 2))
def test_stokes_body_force_matches_element_loop(refine):
    """The loop sums every dof's contributions in (triangle, point) order,
    as the array code does, so the loads are bitwise equal."""
    case = load_case(
        "case2_mini", refine=refine,
        sources={"f_s": ["1 + x*y", "x - 2*y*y"], "f_d": None, "q_d": None})
    problem = case.problem
    checked = 0
    for sid, system in enumerate(problem.systems()):
        if problem.layout.blocks[sid].physics != "stokes":
            continue
        body = system._body_force()
        assert np.any(body != 0.0)
        assert np.array_equal(body, loop_body_force(system))
        checked += 1
    assert checked == 2
