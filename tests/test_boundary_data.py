"""Outer boundary data of both physics: read once per side, on arrays."""

import numpy as np
import pytest

from sdmortar.darcy import DarcyBC, DarcySystem
from sdmortar.geometry import (SIDES, Block, build_layout,
                               build_subdomain_mesh, locate_trace)
from sdmortar.stokes import StokesBC, StokesSystem


class Recorder:
    """A boundary data callable that records the points of every call."""

    def __init__(self, f):
        self.f = f
        self.calls = []

    def __call__(self, x, y):
        self.calls.append((np.asarray(x), np.asarray(y)))
        return self.f(x, y)


def stokes_over_darcy(n=4):
    """Stokes block (0, 1, 1, 2) over a Darcy block (0, 0, 1, 1): each
    mesh, block and its trace on the one interface."""
    layout = build_layout([Block((0, 0, 1, 1), "darcy", (n, n), 0),
                           Block((0, 1, 1, 2), "stokes", (n, n))])
    g = layout.interfaces[0]
    out = []
    for block in layout.blocks:
        mesh = build_subdomain_mesh(block)
        out.append((mesh, locate_trace(mesh, block, g)))
    return out


def test_each_side_is_read_once_on_arrays():
    """Every outer side's callable is called once, on all its points: the
    nodes of a velocity side, the Gauss points of a stress side, the edge
    midpoints of a pressure side. The sides on the interface are not
    read."""
    n = 4
    (dmesh, dtrace), (smesh, strace) = stokes_over_darcy(n)
    s = {side: Recorder(lambda x, y: (x + y, x * y)) for side in SIDES}
    StokesSystem(smesh, 1.0, 1.0,
                 {"left": StokesBC("velocity", s["left"]),
                  "right": StokesBC("stress", s["right"]),
                  "bottom": StokesBC("velocity", s["bottom"]),
                  "top": StokesBC("velocity", s["top"])}, [strace])
    assert [len(s[side].calls) for side in SIDES] == [1, 1, 0, 1]
    (x, y), = s["left"].calls
    assert x.shape == (3 * n,) and np.all(x == 0.0)
    (x, y), = s["right"].calls
    assert x.shape == (n, 3) and np.all(x == 1.0)
    assert np.all((1.0 < y) & (y < 2.0))

    d = {side: Recorder(lambda x, y: x - y) for side in SIDES}
    DarcySystem(dmesh, 1.0, {side: DarcyBC("pressure", d[side])
                             for side in SIDES}, [dtrace])
    assert [len(d[side].calls) for side in SIDES] == [1, 1, 1, 0]
    (x, y), = d["bottom"].calls
    assert np.array_equal(x, (np.arange(n) + 0.5) / n)
    assert np.array_equal(y, np.zeros(n))


@pytest.mark.parametrize("stress", SIDES)
def test_a_node_on_two_velocity_sides_takes_the_later_side(stress):
    """Sides are taken in SIDES order (left, right, bottom, top), so a
    corner of two velocity sides holds the later side's data; a corner of
    a velocity and a stress side holds the velocity side's."""
    mesh = build_subdomain_mesh(Block((0, 0, 1, 1), "stokes", (2, 2)))
    value = {side: (1.0 + k, 10.0 * (1 + k)) for k, side in enumerate(SIDES)}
    bcs = {side: StokesBC("velocity",
                          lambda x, y, v=value[side]: (np.full_like(x, v[0]),
                                                       np.full_like(x, v[1])))
           for side in SIDES}
    bcs[stress] = StokesBC("stress")
    system = StokesSystem(mesh, 1.0, 0.0, bcs, [])
    corners = {(0, 0): ("left", "bottom"), (4, 0): ("right", "bottom"),
               (0, 4): ("left", "top"), (4, 4): ("right", "top")}
    for (ix, iy), sides in corners.items():
        node = mesh.lattice(ix, iy)
        velocity = [side for side in sides if side != stress]
        assert system.g_dir[2 * node:2 * node + 2].tolist() == list(
            value[velocity[-1]])
        assert 2 * node not in system.free and 2 * node + 1 not in system.free


def test_constant_data_is_broadcast_to_the_points():
    """A callable that returns numbers builds the same system, bit for bit,
    as one that returns arrays of the points' shape."""
    (dmesh, dtrace), (smesh, strace) = stokes_over_darcy()

    def stokes(u, t):
        return StokesSystem(smesh, 0.7, 1.0,
                            {"left": StokesBC("velocity", u),
                             "right": StokesBC("stress", t),
                             "top": StokesBC("velocity", u)}, [strace])

    full = lambda c: lambda x, y: tuple(np.full(np.shape(x), v) for v in c)
    a = stokes(lambda x, y: (0.5, -0.25), lambda x, y: (1.5, 2.0))
    b = stokes(full((0.5, -0.25)), full((1.5, 2.0)))
    for name in ("g_dir", "free", "_bar_u0", "_bar_p"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    def darcy(g):
        return DarcySystem(dmesh, 1.0, {"left": DarcyBC("pressure", g),
                                        "bottom": DarcyBC("pressure", g)},
                           [dtrace]).bar_load

    assert (darcy(lambda x, y: 2.0).tobytes()
            == darcy(lambda x, y: np.full(np.shape(x), 2.0)).tobytes())
