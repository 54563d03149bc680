"""Coupling maps E_i/F_i against the dict-based reference path.

The reference path projects the mortar onto the trace spaces
(StokesDarcyProblem.star_data), solves with per-edge/nodal data, and sums
per-side functionals (side_functionals + jump). The maps must reproduce it
to round-off for the S1 apply, the flux bases, the bar jump and the
recovered fields, on the shipped configs and on random small tilings.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdmortar.darcy import DarcyBC
from sdmortar.geometry import Block, build_layout, build_subdomain_mesh
from sdmortar.interface import (SolveStats, compute_flux_basis,
                                recover_fields, star_response)
from sdmortar.mortar import build_mortar_space, jump
from sdmortar.problem import Physics, build_problem
from sdmortar.stokes import StokesBC

from conftest import load_case

TOL = 1e-12


def _close(got, want):
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    return float(np.max(np.abs(got - want), initial=0.0)) <= TOL * scale


def _reference_star(problem, sid, op, lam):
    """Signed global mortar functionals of the star solve for global lam."""
    sol = op.solve_star(problem.star_data(sid, lam))
    return sol, problem.side_functionals(sid, op, sol)


def _scatter(problem, entries):
    out = np.zeros(problem.space.n_dof)
    for idx, sigma, funcs in entries:
        block = problem.space.block(idx)
        for comp, f in enumerate(funcs):
            out[block.component_dofs(comp)] += sigma * f
    return out


def assert_maps_match_dicts(problem, K_fields, rng):
    n_sub = problem.layout.n_subdomains
    sids = list(range(n_sub))
    stats = SolveStats.new("S2", n_sub)
    ops = [problem.assemble_subdomain(sid, K_fields) for sid in sids]
    dofs = [problem.space.sub_dofs(problem.layout, sid) for sid in sids]

    # S1 apply, subdomain by subdomain
    for _ in range(2):
        lam = rng.standard_normal(problem.space.n_dof)
        for sid in sids:
            _, entries = _reference_star(problem, sid, ops[sid], lam)
            assert _close(star_response(ops[sid], lam[dofs[sid]]),
                          -_scatter(problem, entries)[dofs[sid]])

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

    # bar jump: F_i on the bar velocity includes the Dirichlet lift
    bars = [op.solve_bar() for op in ops]
    g = jump(problem.space, [e for sid in sids for e in
                             problem.side_functionals(sid, ops[sid],
                                                      bars[sid])])
    from_maps = np.zeros(problem.space.n_dof)
    for sid in sids:
        from_maps[dofs[sid]] += ops[sid].system.coupling.functionals(
            bars[sid].u)
    assert _close(from_maps, g)

    # recovered fields
    lam = rng.standard_normal(problem.space.n_dof)
    for sid in sids:
        fields = recover_fields(problem, sid, ops[sid], bars[sid],
                                lam[dofs[sid]])
        star, _ = _reference_star(problem, sid, ops[sid], lam)
        total = type(star)(bars[sid].u + star.u, bars[sid].p + star.p)
        want = problem.postprocess(sid, ops[sid], total)
        for name, arr in want.items():
            assert _close(fields[name], arr), (sid, name)


@pytest.mark.parametrize("name", ["case1_mini", "case1_mini_sparse",
                                  "case2_mini", "darcy_twoblock"])
def test_maps_match_dict_path_on_shipped_configs(name):
    case = load_case(name)
    y = case.grid.points[min(3, case.grid.n_real - 1)]
    assert_maps_match_dicts(case.problem, case.problem.permeability(y),
                            np.random.default_rng(5))


def _mortar_count(length, h_max, draw_frac):
    """An element count with H = length / n >= 2 h_max."""
    n_max = max(1, int(length / (2 * h_max) + 1e-9))
    return 1 + int(draw_frac * n_max) % n_max


@st.composite
def tilings(draw):
    cols = draw(st.integers(1, 2))
    rows = draw(st.integers(2 if cols == 1 else 1, 2))
    width = draw(st.sampled_from([1.0, 1.5]))
    blocks = []
    for iy in range(rows):
        for ix in range(cols):
            blocks.append(Block(
                (ix * width, float(iy), (ix + 1) * width, iy + 1.0),
                draw(st.sampled_from(["stokes", "darcy"])),
                (draw(st.integers(2, 6)), draw(st.integers(2, 6))), 0))
    layout = build_layout(blocks)
    meshes = {sid: build_subdomain_mesh(b) for sid, b in enumerate(blocks)}
    counts = {}
    for g in layout.interfaces:
        h = max(meshes[s].hy if g.axis == "x" else meshes[s].hx
                for s in (g.i, g.j))
        counts[g.index] = _mortar_count(g.length, h,
                                        draw(st.floats(0.0, 0.999)))
    space = build_mortar_space(layout, meshes, counts,
                               degree=draw(st.sampled_from([0, 1])))
    physics = Physics(nu_s=draw(st.floats(0.2, 3.0)),
                      nu_d=draw(st.floats(0.2, 3.0)),
                      alpha=draw(st.sampled_from([0.0, 0.5, 2.0])))
    bcs = {}
    for sid, b in enumerate(blocks):
        sides = {}
        for side in ("left", "right", "bottom", "top"):
            v = draw(st.floats(-1.0, 1.0))
            if b.physics == "darcy":
                sides[side] = draw(st.sampled_from([
                    DarcyBC("noflow"), DarcyBC("pressure", lambda x, y, v=v: v)]))
            else:
                sides[side] = draw(st.sampled_from([
                    StokesBC("stress"),
                    StokesBC("velocity", lambda x, y, v=v: (v, 0.5 * v * x))]))
        bcs[sid] = sides
    problem = build_problem(layout, space, None, physics, bcs, meshes=meshes)
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    K = {sid: np.exp(rng.standard_normal(meshes[sid].nx * meshes[sid].ny))
         for sid, b in enumerate(blocks) if b.physics == "darcy"}
    return problem, K, rng


@settings(max_examples=20, deadline=None)
@given(tilings())
def test_maps_match_dict_path_on_random_tilings(case):
    problem, K, rng = case
    assert_maps_match_dicts(problem, K, rng)
