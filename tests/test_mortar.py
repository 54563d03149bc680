"""Mortar spaces and their coupling to Darcy and Stokes trace spaces."""

import numpy as np
import pytest

from sdmortar.errors import ConfigError
from sdmortar.geometry import (Block, build_layout, build_subdomain_mesh,
                               locate_trace)
from sdmortar.mortar import build_mortar_space

from _oracles import component_dofs, entry_jump, side_coupling


@pytest.fixture(scope="module")
def dd():
    """Two Darcy blocks with non-matching grids across one interface."""
    layout = build_layout([
        Block((0, 0, 1, 1), "darcy", (4, 4), kl_region=0),
        Block((1, 0, 2, 1), "darcy", (6, 6), kl_region=0),
    ])
    meshes = {i: build_subdomain_mesh(b) for i, b in enumerate(layout.blocks)}
    space = build_mortar_space(layout, meshes, {0: 2}, degree=1)
    g = layout.interfaces[0]
    tr0 = locate_trace(meshes[0], layout.blocks[0], g)
    tr1 = locate_trace(meshes[1], layout.blocks[1], g)
    mb = space.block(0)
    c0 = side_coupling(mb, tr0.s_breaks, "darcy")
    c1 = side_coupling(mb, tr1.s_breaks, "darcy")
    return layout, meshes, space, (tr0, tr1), (c0, c1)


def test_layout_of_fixture(dd):
    layout = dd[0]
    g = layout.interfaces[0]
    assert (g.kind, g.axis, g.position) == ("dd", "x", 1.0)
    assert dd[2].block(0).n_scalar == 4
    assert dd[2].block(0).n_dof == 4


def test_constant_reproduction_darcy(dd):
    """Projecting the constant mortar function gives per-edge values 1."""
    _, _, space, _, (c0, c1) = dd
    ones = np.ones(space.block(0).n_scalar)
    assert np.allclose(c0.to_trace(ones), 1.0)
    assert np.allclose(c1.to_trace(ones), 1.0)


def test_linear_projection_hand_values(dd):
    """lambda(s) = s on [0, 0.5] has per-edge averages 0.125 and 0.375."""
    _, _, space, _, (c0, _) = dd
    lam = np.zeros(space.block(0).n_scalar)
    lam[1] = 0.5
    v = c0.to_trace(lam)
    assert np.allclose(v[:2], [0.125, 0.375])
    assert np.allclose(v[2:], 0.0)


def test_adjoint_identity(dd):
    """<P lambda, g>_trace equals lambda . functional(g) for random data."""
    _, _, space, (tr0, _), (c0, _) = dd
    lengths = np.diff(tr0.s_breaks)
    rng = np.random.default_rng(0)
    for _ in range(5):
        lam = rng.standard_normal(space.block(0).n_scalar)
        g = rng.standard_normal(len(lengths))
        lhs = np.sum(c0.to_trace(lam) * g * lengths)
        rhs = lam @ c0.functional(g)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


def test_functional_of_unit_trace(dd):
    """g = 1 integrates every mortar hat exactly: h/2 each."""
    _, _, _, _, (c0, _) = dd
    assert np.allclose(c0.functional(np.ones(4)), 0.25)


@pytest.fixture(scope="module")
def sd():
    """A Stokes block over a Darcy block sharing one sd interface."""
    layout = build_layout([
        Block((0, 0, 1, 1), "darcy", (4, 4), kl_region=0),
        Block((0, 1, 1, 2), "stokes", (4, 4)),
    ])
    meshes = {i: build_subdomain_mesh(b) for i, b in enumerate(layout.blocks)}
    space = build_mortar_space(layout, meshes, {0: 2}, degree=1)
    g = layout.interfaces[0]
    tr = locate_trace(meshes[1], layout.blocks[1], g)
    coup = side_coupling(space.block(0), tr.s_breaks, "stokes")
    return layout, space, tr, coup


def test_stokes_constant_reproduction(sd):
    _, space, _, coup = sd
    v = coup.to_trace(np.ones(space.block(0).n_scalar))
    assert len(v) == 2 * 4 + 1
    assert np.allclose(v, 1.0)


def test_stokes_linear_reproduction(sd):
    """A linear mortar function projects to its own P2 interpolant."""
    _, space, tr, coup = sd
    mb = space.block(0)
    lam = mb.breaks.repeat(2)[1:-1].copy()
    v = coup.to_trace(lam)
    nodes_s = np.concatenate(
        [np.linspace(tr.s_breaks[k], tr.s_breaks[k + 1], 3)[:2]
         for k in range(len(tr.s_breaks) - 1)] + [tr.s_breaks[-1:]])
    assert np.allclose(v, nodes_s)


def test_jump_of_matching_constants(dd):
    """Unit normal traces on both sides cancel in the signed jump."""
    _, _, space, _, (c0, c1) = dd
    entries = [(0, +1, (c0.functional(np.ones(4)),)),
               (0, -1, (c1.functional(np.ones(6)),))]
    assert np.allclose(entry_jump(space, entries), 0.0)


def test_jump_requires_both_sides(dd):
    _, _, space, _, (c0, _) = dd
    with pytest.raises(RuntimeError, match="both sides"):
        entry_jump(space, [(0, +1, (c0.functional(np.ones(4)),))])


def test_jump_component_count_checked(dd):
    _, _, space, _, (c0, _) = dd
    f = c0.functional(np.ones(4))
    with pytest.raises(ValueError, match="components"):
        entry_jump(space, [(0, +1, (f, f)), (0, -1, (f, f))])


def test_coarse_condition_guard(dd):
    """H >= 2h is enforced against the finer of the two sides."""
    layout, meshes, _, _, _ = dd
    with pytest.raises(ConfigError, match="H >= 2h"):
        build_mortar_space(layout, meshes, {0: 4}, degree=1)
    sp = build_mortar_space(layout, meshes, {0: 4}, degree=1, allow_fine=True)
    assert sp.block(0).n_elem == 4


@pytest.mark.parametrize("degree", [2, -1])
def test_unsupported_degree_is_a_config_error(dd, degree):
    """A library caller gets the config walk's limit too, not a singular
    mean-field interface matrix later; the degree error comes with the
    space's other errors."""
    layout, meshes, _, _, _ = dd
    with pytest.raises(ConfigError) as err:
        build_mortar_space(layout, meshes, {0: 4}, degree=degree)
    assert err.value.messages[0] == (f"mortar degree {degree}: 0 or 1 "
                                     f"supported")
    assert "H >= 2h" in err.value.messages[1]
    with pytest.raises(ConfigError, match=f"^mortar degree {degree}: "):
        build_mortar_space(layout, meshes, {0: 2}, degree=degree)


def test_degree0_identity_on_matching_side(dd):
    """A degree-0 mortar matching the fine grid is the identity map."""
    layout, meshes, _, (tr0, _), _ = dd
    sp = build_mortar_space(layout, meshes, {0: 4}, degree=0, allow_fine=True)
    coup = side_coupling(sp.block(0), tr0.s_breaks, "darcy")
    vals = np.arange(4.0)
    assert np.allclose(coup.to_trace(vals), vals)
    assert sp.block(0).n_scalar == 4


def test_ss_interface_has_two_components():
    layout = build_layout([
        Block((0, 0, 1, 1), "stokes", (4, 4)),
        Block((1, 0, 2, 1), "stokes", (4, 4)),
    ])
    meshes = {i: build_subdomain_mesh(b) for i, b in enumerate(layout.blocks)}
    space = build_mortar_space(layout, meshes, {0: 2}, degree=1)
    mb = space.block(0)
    assert mb.n_comp == 2
    assert mb.n_dof == 8
    n = component_dofs(mb, 0)
    t = component_dofs(mb, 1)
    assert np.array_equal(np.sort(np.concatenate([n, t])), np.arange(8))


def test_global_offsets_follow_interface_order():
    layout = build_layout([
        Block((0, 0, 1, 1), "darcy", (4, 4), kl_region=0),
        Block((1, 0, 2, 1), "darcy", (4, 4), kl_region=0),
        Block((2, 0, 3, 1), "darcy", (4, 4), kl_region=0),
    ])
    meshes = {i: build_subdomain_mesh(b) for i, b in enumerate(layout.blocks)}
    space = build_mortar_space(layout, meshes, {0: 2, 1: 1}, degree=1)
    assert space.block(0).offset == 0
    assert space.block(1).offset == 4
    assert space.n_dof == 6
    assert np.array_equal(space.sub_dofs(layout, 1), np.arange(6))
    assert np.array_equal(space.sub_dofs(layout, 0), np.arange(4))
