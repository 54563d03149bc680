"""Coupling maps E_i/F_i against the dict-based reference path.

The reference path (tests/_oracles.py) projects the mortar onto the trace
spaces (star_data), solves with per-edge/nodal data, and sums per-side
functionals (side_functionals + entry_jump). The maps must reproduce it
to round-off for the S1 apply, the flux bases, the bar jump that the
interface solver ships and the recovered fields, on the shipped configs
and on random small tilings.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdmortar.darcy import DarcyBC
from sdmortar.geometry import Block, build_layout, build_subdomain_mesh
from sdmortar.interface import (SolveStats, _Groups, _lifetimes,
                                compute_flux_basis, recover_fields)
from sdmortar.mortar import build_mortar_space
from sdmortar.problem import Physics, build_problem
from sdmortar.stokes import StokesBC

import _oracles as oracles
from conftest import load_case

TOL = 1e-12


def _close(got, want, tol=TOL):
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    return float(np.max(np.abs(got - want), initial=0.0)) <= tol * scale


def _recovery_tol(op):
    """Bound on a recovered field's gap to the dict path, relative to the
    field's size: TOL, or n eps cond_1(A) if larger.

    The two paths solve with the block's factored n x n system A in
    different splits (bar and interface data together, or apart), so
    they differ by the forward error of backward-stable solves, which
    is at most about n eps cond_1(A) of the solution (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., Thm 9.4 and 7.2).
    Ill-conditioned Stokes blocks of small tilings (all-stress sides,
    cond_1 up to ~1e4) reach tens of TOL; 3000 random tilings stayed
    below a quarter of this bound. cond_1 is exact: A^-1 from n unit
    solves.
    """
    n = oracles.factor_rows(op)
    inverse = oracles.lu_unknowns(op, np.eye(n))
    return max(TOL, n * np.finfo(float).eps * np.linalg.cond(inverse, 1))


def _reference_star(problem, sid, op, lam):
    """Signed global mortar functionals of the star solve for global lam."""
    sol = oracles.solve_star(op, sid, oracles.trace_sides(problem, sid),
                             oracles.star_data(problem, sid, lam))
    return sol, oracles.side_functionals(problem, sid, sol)


def _scatter(problem, entries):
    out = np.zeros(problem.space.n_dof)
    for idx, sigma, funcs in entries:
        block = problem.space.block(idx)
        for comp, f in enumerate(funcs):
            out[oracles.component_dofs(block, comp)] += sigma * f
    return out


@pytest.mark.parametrize("refine", [1, 2])
@pytest.mark.parametrize("name", ["case1_mini", "case1_mini_sparse",
                                  "case2_mini", "darcy_twoblock"])
def test_coupling_block_is_the_sparse_product(name, refine):
    """CouplingMaps placed from trace dof ids keeps exactly the nonzero
    columns of the sparse side_sign R T pipeline, and its dense block is
    that matrix on them, bit for bit."""
    problem = load_case(name, refine=refine).problem
    for sid, system in enumerate(problem.systems()):
        F = oracles.sparse_coupling(problem, sid)
        cols = np.unique(F.indices)
        assert np.array_equal(system.coupling.cols, cols)
        want = F[:, cols].toarray()
        got = system.coupling._F_block
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def assert_maps_match_dicts(problem, y, rng, recovery_tol=False):
    """Maps against the dict path at the permeability of point y.

    Every comparison is held to TOL, except that with `recovery_tol` the
    recovered fields are held to _recovery_tol of their block: the small
    random tilings reach Stokes blocks conditioned badly enough that
    solving in two splits drifts past TOL.
    """
    n_sub = problem.layout.n_subdomains
    sids = list(range(n_sub))
    stats = SolveStats.new("S2", n_sub)
    ops = [problem.assemble_subdomain(sid, y) for sid in sids]
    dofs = [problem.space.sub_dofs(problem.layout, sid) for sid in sids]

    # S1 apply, subdomain by subdomain
    for _ in range(2):
        lam = rng.standard_normal(problem.space.n_dof)
        for sid in sids:
            _, entries = _reference_star(problem, sid, ops[sid], lam)
            assert _close(ops[sid].solve_star(lam[dofs[sid]]),
                          _scatter(problem, entries)[dofs[sid]])

    # flux bases, column by column
    for sid in sids:
        got_dofs, B = compute_flux_basis(problem, sid, ops[sid], stats)
        assert np.array_equal(got_dofs, dofs[sid])
        ref = np.empty_like(B)
        for j, gdof in enumerate(dofs[sid]):
            lam = np.zeros(problem.space.n_dof)
            lam[gdof] = 1.0
            _, entries = _reference_star(problem, sid, ops[sid], lam)
            ref[:, j] = -_scatter(problem, entries)[dofs[sid]]
        assert _close(B, ref)

    # the bar jump the interface solver ships, against the dict jump of the
    # bar solutions of the same operators; F_i on the bar velocity includes
    # the Dirichlet lift
    with _Groups(problem, "S1", 1, SolveStats.new("S1", n_sub), None,
                 _lifetimes(problem, None, "S1", [(0, y)])) as groups:
        g, _ = groups.realize(0, y)
        ship_ops = groups._local.ops
        want = oracles.entry_jump(problem.space, [
            e for sid in sids
            for e in oracles.side_functionals(problem, sid,
                                              ship_ops[sid].solve_bar())])
        assert _close(g, want)

    # recovered fields: one solve with bar and interface data, against the
    # bar solution plus the dict path's star solution
    bars = [op.solve_bar() for op in ops]
    lam = rng.standard_normal(problem.space.n_dof)
    for sid in sids:
        fields = recover_fields(problem, sid, ops[sid], lam[dofs[sid]])
        star, _ = _reference_star(problem, sid, ops[sid], lam)
        total = type(star)(bars[sid].u + star.u, bars[sid].p + star.p)
        want = problem.postprocess(sid, ops[sid], total)
        tol = _recovery_tol(ops[sid]) if recovery_tol else TOL
        for name, arr in want.items():
            assert _close(fields[name], arr, tol), (sid, name)


@pytest.mark.parametrize("name", ["case1_mini", "case1_mini_sparse",
                                  "case2_mini", "darcy_twoblock"])
def test_maps_match_dict_path_on_shipped_configs(name):
    case = load_case(name)
    y = case.grid.points[min(3, case.grid.n_real - 1)]
    assert_maps_match_dicts(case.problem, y, np.random.default_rng(5))


def _mortar_count(length, h_max, draw_frac):
    """An element count with H = length / n >= 2 h_max."""
    n_max = max(1, int(length / (2 * h_max) + 1e-9))
    return 1 + int(draw_frac * n_max) % n_max


SIDES = ("left", "right", "bottom", "top")


def _bc(physics, kind, v):
    """A side's condition: Darcy noflow or pressure v, Stokes stress or
    velocity (v, v x / 2)."""
    if physics == "darcy":
        return (DarcyBC("noflow") if kind == "noflow"
                else DarcyBC("pressure", lambda x, y, v=v: v))
    return (StokesBC("stress") if kind == "stress"
            else StokesBC("velocity", lambda x, y, v=v: (v, 0.5 * v * x)))


def build_tiling(width, rows, degree, physics, bcs, fractions, seed):
    """A tiling of unit-high blocks `width` wide and its problem, with the
    rng that drew its permeability.

    `rows` lists the blocks row by row from the bottom, each as (physics,
    (nx, ny)); `bcs` gives per block, in the same order, (kind, v) for
    each of SIDES. Interface g gets the mortar element count that
    fractions[g] picks (_mortar_count). Every Darcy block is its own KL
    region with per-cell K = exp(N(0, 1)) drawn from `seed`.
    """
    blocks = []
    for iy, row in enumerate(rows):
        for ix, (kind, mesh) in enumerate(row):
            region = len(blocks) if kind == "darcy" else None
            blocks.append(Block((ix * width, float(iy), (ix + 1) * width,
                                 iy + 1.0), kind, mesh, region))
    layout = build_layout(blocks)
    meshes = {sid: build_subdomain_mesh(b) for sid, b in enumerate(blocks)}
    counts = {}
    for g in layout.interfaces:
        h = max(meshes[s].hy if g.axis == "x" else meshes[s].hx
                for s in (g.i, g.j))
        counts[g.index] = _mortar_count(g.length, h, fractions[g.index])
    space = build_mortar_space(layout, meshes, counts, degree=degree)
    bc = {sid: {side: _bc(b.physics, *bcs[sid][j])
                for j, side in enumerate(SIDES)}
          for sid, b in enumerate(blocks)}
    rng = np.random.default_rng(seed)
    K = {sid: np.exp(rng.standard_normal(meshes[sid].nx * meshes[sid].ny))
         for sid, b in enumerate(blocks) if b.physics == "darcy"}
    problem = build_problem(layout, space, _CellField(K, meshes), physics,
                            bc, meshes=meshes)
    return problem, rng


@st.composite
def tilings(draw):
    cols = draw(st.integers(1, 2))
    n_rows = draw(st.integers(2 if cols == 1 else 1, 2))
    rows = [[(draw(st.sampled_from(["stokes", "darcy"])),
              (draw(st.integers(2, 6)), draw(st.integers(2, 6))))
             for _ in range(cols)] for _ in range(n_rows)]
    kinds = {"darcy": ["noflow", "pressure"], "stokes": ["stress", "velocity"]}
    bcs = [[(draw(st.sampled_from(kinds[physics])),
             draw(st.floats(-1.0, 1.0))) for _ in SIDES]
           for row in rows for physics, _ in row]
    return build_tiling(
        width=draw(st.sampled_from([1.0, 1.5])), rows=rows,
        degree=draw(st.sampled_from([0, 1])),
        physics=Physics(nu_s=draw(st.floats(0.2, 3.0)),
                        nu_d=draw(st.floats(0.2, 3.0)),
                        alpha=draw(st.sampled_from([0.0, 0.5, 2.0]))),
        bcs=bcs, fractions=draw(st.lists(st.floats(0.0, 0.999), min_size=4,
                                         max_size=4)),
        seed=draw(st.integers(0, 2 ** 16)))


class _CellField:
    """Stand-in permeability field: K_r ** y[0] on region r.

    Every Darcy block of a tiling is its own region (numbered by its
    subdomain) with random per-cell values K_r, so y = (1,) gives K_r and
    the mean field y = (0,) ones. A point reads the cell it lies in.
    """

    n_dims = 1

    def __init__(self, K, meshes):
        self.K = K
        self.meshes = meshes

    def realize(self, region, x, y, y_global):
        mesh = self.meshes[region]
        ix = ((x - mesh.rect[0]) / mesh.hx).astype(int)
        iy = ((y - mesh.rect[1]) / mesh.hy).astype(int)
        return self.K[region][mesh.cell(ix, iy)] ** y_global[0]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(tilings())
def test_maps_match_dict_path_on_random_tilings(case):
    problem, rng = case
    assert_maps_match_dicts(problem, np.ones(1), rng, recovery_tol=True)


def test_maps_match_dict_path_on_a_stress_dominated_tiling():
    """Stokes blocks 0 and 1 (2 x 2, all stress) and 2 (4 x 3, velocity on
    its left and top) under a Darcy block, alpha = 0, nu_s = 2: block 2's
    factored system has cond_1 about 5e3, and its recovered pressure
    differs from the dict path's by about 1.2 TOL, within its
    _recovery_tol."""
    stress = [("stress", 0.0)] * 4
    velocity = [("velocity", -0.5980394103180386), ("stress", 0.0),
                ("stress", 0.0), ("velocity", -0.5838923882397913)]
    darcy = [("noflow", 0.0), ("pressure", -0.434656156512917),
             ("noflow", 0.0), ("pressure", -0.8238561055636651)]
    problem, rng = build_tiling(
        width=1.5, rows=[[("stokes", (2, 2)), ("stokes", (2, 2))],
                         [("stokes", (4, 3)), ("darcy", (5, 4))]],
        degree=0, physics=Physics(nu_s=2.0, nu_d=0.34652053821265916,
                                  alpha=0.0),
        bcs=[stress, stress, velocity, darcy],
        fractions=[0.2236875858255877, 0.6746018856441856,
                   0.9495064260688891, 0.33223008265335346], seed=64513)
    assert_maps_match_dicts(problem, np.ones(1), rng, recovery_tol=True)
