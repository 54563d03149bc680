"""Array-op assembly and post-processing against element-loop references.

The loops below are the element-by-element forms the array code replaced.
Where the arithmetic is unchanged (scatter order, per-row dots, integer
tables) the results must be bitwise equal; the Darcy matrix refill sums
duplicate entries in another order and is held to round-off.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from _oracles import assemble_stokes, darcy_saddle_matrix, loop_body_force
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
    """The multiplier matrix H of the hybridized Darcy solve, refilled from
    K, against a loop over cells that eliminates each cell's fluxes and
    pressure from its own 5 x 5 saddle block; and the saddle oracle
    against the same loop's element matrices."""
    _check_darcy_refill(_darcy_mesh())


def test_darcy_band_of_a_small_block_matches_element_loop():
    """The same check on a 2 x 2 block: 8 multipliers, so the band's
    kd + 1 rows must not outnumber them."""
    _check_darcy_refill(_darcy_mesh(2, 2))


def _check_darcy_refill(mesh):
    bcs = {"left": DarcyBC("pressure", None), "top": DarcyBC("pressure")}
    system = DarcySystem(mesh, 0.7, bcs, [])
    K = np.exp(np.random.default_rng(3).standard_normal(mesh.n_cells))
    red, mult = system.red_index, system.multiplier
    n_mult = int((mult >= 0).sum())
    H = np.zeros((n_mult, n_mult))
    rows, cols, vals, brows, bcols, bvals = [], [], [], [], [], []
    cells_of = {}
    for iy in range(mesh.ny):
        for ix in range(mesh.nx):
            c = mesh.cell(ix, iy)
            edges = mesh.cell_edges(ix, iy)
            for e in edges:
                cells_of.setdefault(e, []).append(c)
            coef = 0.7 / K[c] * mesh.hx * mesh.hy
            local = np.zeros((5, 5))
            for (a, b), m in (((0, 0), 1 / 3), ((1, 1), 1 / 3),
                              ((0, 1), 1 / 6), ((1, 0), 1 / 6),
                              ((2, 2), 1 / 3), ((3, 3), 1 / 3),
                              ((2, 3), 1 / 6), ((3, 2), 1 / 6)):
                local[a, b] = coef * m
                if red[edges[a]] >= 0 and red[edges[b]] >= 0:
                    rows.append(red[edges[a]])
                    cols.append(red[edges[b]])
                    vals.append(coef * m)
            for a, bv in enumerate((mesh.hy, -mesh.hy, mesh.hx, -mesh.hx)):
                local[4, a] = local[a, 4] = bv
                if red[edges[a]] >= 0:
                    brows.append(c)
                    bcols.append(red[edges[a]])
                    bvals.append(bv)
            # flux block of the local inverse: the cell's Schur response
            X = np.linalg.inv(local)[:4, :4]
            outward = (-1.0, 1.0, -1.0, 1.0)
            for a in range(4):
                for b in range(4):
                    if mult[edges[a]] >= 0 and mult[edges[b]] >= 0:
                        H[mult[edges[a]], mult[edges[b]]] += (
                            outward[a] * outward[b] * X[a, b])
    # multipliers sit on the interior and the no-flow edges
    noflow = [e for s in ("right", "bottom") for e in mesh.boundary_edges(s)]
    want = [e for e, cs in cells_of.items() if len(cs) == 2 or e in noflow]
    assert sorted(np.flatnonzero(mult >= 0)) == sorted(want)
    assert sorted(mult[mult >= 0]) == list(range(n_mult))
    band = system.multiplier_band(K)
    got = np.zeros_like(H)
    for d in range(band.shape[0]):
        got[np.arange(d, n_mult), np.arange(n_mult - d)] = band[d, :n_mult - d]
    got = np.tril(got) + np.tril(got, -1).T
    assert np.max(np.abs(got - H)) <= 1e-13 * np.max(np.abs(H))
    assert np.array_equal(got == 0.0, np.abs(H) <= 1e-13 * np.max(np.abs(H)))
    A = sp.coo_matrix((vals, (rows, cols)), shape=(system.n_u,) * 2)
    B = sp.coo_matrix((bvals, (brows, bcols)),
                      shape=(system.n_p, system.n_u))
    ref = sp.bmat([[A.tocsr(), B.T], [B, None]], format="csc")
    saddle = darcy_saddle_matrix(system, K)
    ref.sort_indices()
    assert np.array_equal(saddle.indptr, ref.indptr)
    assert np.array_equal(saddle.indices, ref.indices)
    assert np.allclose(saddle.data, ref.data, rtol=1e-15, atol=0.0)


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
