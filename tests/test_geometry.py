"""Domain layout, interface enumeration, and mesh indexing."""

import numpy as np
import pytest

from _oracles import loop_boundary_edges, loop_stokes_connectivity
from sdmortar.errors import ConfigError
from sdmortar.geometry import (Block, build_layout, build_subdomain_mesh,
                               edges_on_span, side_of_interface)


def case1_blocks():
    return [
        Block((0.0, 0.8, 0.5, 1.2), "stokes", (8, 8)),
        Block((0.5, 0.8, 1.0, 1.2), "stokes", (8, 8)),
        Block((0.0, 0.4, 0.5, 0.8), "darcy", (16, 16), 0),
        Block((0.5, 0.4, 1.0, 0.8), "darcy", (16, 16), 0),
        Block((0.0, 0.0, 0.5, 0.4), "darcy", (16, 16), 1),
        Block((0.5, 0.0, 1.0, 0.4), "darcy", (16, 16), 1),
    ]


def test_interface_enumeration():
    """2 Stokes over a 2x2 Darcy grid: 1 ss + 2 sd + 4 dd interfaces."""
    layout = build_layout(case1_blocks())
    kinds = [g.kind for g in layout.interfaces]
    assert kinds == ["ss", "sd", "sd", "dd", "dd", "dd", "dd"]
    pairs = [(g.i, g.j) for g in layout.interfaces]
    assert pairs == [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)]
    axes = [g.axis for g in layout.interfaces]
    assert axes == ["x", "y", "y", "x", "y", "y", "x"]
    assert [g.index for g in layout.interfaces] == list(range(7))


def test_interface_orientation():
    """The fixed normal points from the lower-id block to the higher."""
    layout = build_layout(case1_blocks())
    for g in layout.interfaces:
        bi, bj = layout.blocks[g.i], layout.blocks[g.j]
        lo = bi.x0 if g.axis == "x" else bi.y0
        lo_j = bj.x0 if g.axis == "x" else bj.y0
        assert g.normal_sign == (1 if lo < lo_j else -1)
        assert g.side_sign(g.i) == 1
        assert g.side_sign(g.j) == -1
    lengths = [g.length for g in layout.interfaces]
    assert np.allclose(lengths, [0.4, 0.5, 0.5, 0.4, 0.5, 0.5, 0.4])


def test_layout_errors_collected():
    """Every geometric and tagging error is reported in one exception."""
    bad = [
        Block((0, 0, 0, 1), "darcy", (4, 4), 0),
        Block((0, 0, 1, 1), "maxwell", (4, 4)),
        Block((0.5, 0, 1.5, 1), "darcy", (0, 4), None),
    ]
    with pytest.raises(ConfigError) as err:
        build_layout(bad)
    messages = err.value.messages
    assert len(messages) >= 4
    assert any("degenerate" in m for m in messages)
    assert any("physics" in m for m in messages)
    assert any("mesh" in m for m in messages)
    assert any("kl_region" in m for m in messages)
    assert any("overlap" in m for m in messages)


def test_gaps_are_legal():
    """Non-convex unions (missing corner blocks) still build."""
    layout = build_layout([
        Block((0, 0, 1, 1), "darcy", (4, 4), 0),
        Block((1, 0, 2, 1), "darcy", (4, 4), 0),
        Block((0, 1, 1, 2), "darcy", (4, 4), 0),
    ])
    assert len(layout.interfaces) == 2
    assert layout.bbox == (0, 0, 2, 2)


def test_darcy_mesh_indexing():
    """Edge ids, lengths, and boundary sets of the rectangular grid."""
    mesh = build_subdomain_mesh(Block((0, 0, 1.5, 1), "darcy", (3, 2), 0))
    assert mesh.n_cells == 6
    assert mesh.n_edges == (3 + 1) * 2 + 3 * (2 + 1)
    w, e, s, n = mesh.cell_edges(1, 1)
    assert w == mesh.vedge(1, 1) and e == mesh.vedge(2, 1)
    assert s == mesh.hedge(1, 1) and n == mesh.hedge(1, 2)
    assert mesh.edge_length(mesh.vedge(0, 0)) == pytest.approx(0.5)
    assert mesh.edge_length(mesh.hedge(0, 0)) == pytest.approx(0.5)
    assert len(mesh.boundary_edges("left")) == 2
    assert len(mesh.boundary_edges("bottom")) == 3
    assert mesh.centroids.shape == (6, 2)
    assert mesh.centroids[0] == pytest.approx([0.25, 0.25])
    breaks = mesh.side_breaks("bottom")
    assert np.allclose(breaks, [0, 0.5, 1.0, 1.5])


def test_stokes_mesh_lattice():
    """P2/P1 node counts, connectivity shapes, and triangle areas."""
    mesh = build_subdomain_mesh(Block((0, 0, 1, 2), "stokes", (2, 4)))
    assert mesh.n_p2 == 5 * 9
    assert mesh.n_p1 == 3 * 5
    assert mesh.n_tri == 2 * 2 * 4
    assert mesh.conn_p2.shape == (16, 6)
    assert mesh.conn_p1.shape == (16, 3)
    v = mesh.tri_vertices
    areas = 0.5 * np.abs(
        (v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1])
        - (v[:, 2, 0] - v[:, 0, 0]) * (v[:, 1, 1] - v[:, 0, 1]))
    assert areas.sum() == pytest.approx(2.0)
    for side in ("left", "right", "bottom", "top"):
        edges = mesh.boundary_edges(side)
        n_expect = 4 if side in ("left", "right") else 2
        assert len(edges) == n_expect
        breaks = mesh.side_breaks(side)
        assert np.all(np.diff(breaks) > 0)


@pytest.mark.parametrize("shape", [(1, 1), (3, 4), (5, 2), (8, 8),
                                   (16, 16), (64, 32)])
def test_stokes_connectivity_matches_the_cell_loop(shape):
    """conn_p2, conn_p1 and tri_vertices from lattice arithmetic are the
    per-triangle loop's, bit for bit and in the same dtype."""
    mesh = build_subdomain_mesh(Block((0.1, -0.3, 0.8, 1.9), "stokes",
                                      shape))
    for got, want in zip((mesh.conn_p2, mesh.conn_p1, mesh.tri_vertices),
                         loop_stokes_connectivity(mesh)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert mesh.n_tri == len(mesh.conn_p2) == 2 * shape[0] * shape[1]


@pytest.mark.parametrize("physics", ["darcy", "stokes"])
@pytest.mark.parametrize("shape", [(1, 1), (3, 4), (5, 2), (8, 8),
                                   (16, 16), (64, 32)])
def test_boundary_edges_match_the_side_loop(physics, shape):
    """boundary_edges from lattice arithmetic is the loop along each side:
    Darcy edge ids (n,) and Stokes node triples (n, 3), in tangent order.
    An unknown side is a ValueError."""
    mesh = build_subdomain_mesh(Block((0.1, -0.3, 0.8, 1.9), physics, shape,
                                      0 if physics == "darcy" else None))
    for side in ("left", "right", "bottom", "top"):
        got, want = mesh.boundary_edges(side), loop_boundary_edges(mesh, side)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    with pytest.raises(ValueError):
        mesh.boundary_edges("front")


@pytest.mark.parametrize("shape", [(1, 1), (3, 4), (5, 2), (16, 16)])
def test_darcy_edge_cell_is_the_only_cell_of_a_boundary_edge(shape):
    """edge_cell gives each boundary edge the one cell whose edge table
    holds it, and each interior edge one of its two cells."""
    mesh = build_subdomain_mesh(Block((0.1, -0.3, 0.8, 1.9), "darcy", shape,
                                      0))
    iy, ix = np.divmod(np.arange(mesh.n_cells), mesh.nx)
    cells = {}
    for edges in mesh.cell_edges(ix, iy):
        for c, e in enumerate(edges.tolist()):
            cells.setdefault(e, []).append(c)
    got = mesh.edge_cell(np.arange(mesh.n_edges))
    assert all(got[e] in cells[e] for e in range(mesh.n_edges))
    for side in ("left", "right", "bottom", "top"):
        edges = mesh.boundary_edges(side)
        assert [cells[e] for e in edges.tolist()] == [[c] for c in
                                                      got[edges].tolist()]


def test_darcy_edge_lattice_is_the_edge_midpoint():
    """Each cell's (west, east, south, north) edges sit at half steps
    (-1, 0), (1, 0), (0, -1), (0, 1) from its centre; scalar ids agree."""
    mesh = build_subdomain_mesh(Block((0, 0, 1, 1), "darcy", (4, 3), 0))
    iy, ix = np.divmod(np.arange(mesh.n_cells), mesh.nx)
    for e, (ox, oy) in zip(mesh.cell_edges(ix, iy),
                           ((-1, 0), (1, 0), (0, -1), (0, 1))):
        lx, ly = mesh.edge_lattice(e)
        assert np.array_equal(lx, 2 * ix + 1 + ox)
        assert np.array_equal(ly, 2 * iy + 1 + oy)
    lx, ly = mesh.edge_lattice(np.arange(mesh.n_edges))
    assert len(set(zip(lx.tolist(), ly.tolist()))) == mesh.n_edges
    assert mesh.edge_lattice(mesh.hedge(2, 3)) == (5, 6)


def test_side_of_interface_and_span():
    """Interfaces resolve to the correct side of each block."""
    layout = build_layout(case1_blocks())
    g = layout.interfaces[1]  # sd between 0 (stokes above) and 2 (darcy below)
    assert side_of_interface(layout.blocks[0], g) == "bottom"
    assert side_of_interface(layout.blocks[2], g) == "top"
    mesh = build_subdomain_mesh(layout.blocks[2])
    breaks = mesh.side_breaks("top")
    edges = edges_on_span(breaks, g.span)
    assert len(edges) == 16
