"""Domain layout: axis-aligned rectangular subdomains, their meshes, interfaces.

A layout is a non-overlapping tiling of a rectangle by blocks, each tagged
"stokes" or "darcy". Darcy blocks carry uniform rectangular grids (for the
mixed RT0/P0 discretization), Stokes blocks carry triangulations obtained by
splitting each grid rectangle along its bottom-left to top-right diagonal
(for Taylor-Hood P2/P1). Interfaces are the shared edges between adjacent
blocks; each stores a fixed unit normal pointing from the lower to the higher
subdomain id, so that both sides agree on orientation. A subdomain meets
an interface through one Trace record: the interface itself, the rows of
its mesh's boundary_edges on it and their arclength breakpoints. Both
physics read their traces from it.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

GEOM_TOL = 1e-10

# 3-point Gauss-Legendre rule on [-1, 1], exact for quintics along an edge
GAUSS3_POINTS = np.array([-np.sqrt(3 / 5), 0.0, np.sqrt(3 / 5)])
GAUSS3_WEIGHTS = np.array([5, 8, 5]) / 9.0


@dataclass(frozen=True)
class Block:
    """One rectangular subdomain: extent, physics tag, mesh resolution."""

    rect: tuple  # (x0, y0, x1, y1)
    physics: str  # "stokes" | "darcy"
    mesh: tuple  # (nx, ny) grid cells
    kl_region: int | None = None  # index into the KL region list (darcy only)

    @property
    def x0(self):
        return self.rect[0]

    @property
    def y0(self):
        return self.rect[1]

    @property
    def x1(self):
        return self.rect[2]

    @property
    def y1(self):
        return self.rect[3]


@dataclass(frozen=True)
class Interface:
    """Shared edge between subdomains i < j.

    axis "x" means the interface is a vertical segment (normal along x),
    axis "y" a horizontal segment (normal along y). `normal_sign` orients the
    fixed interface normal n = normal_sign * e_axis from block i toward
    block j. The tangent is the unit vector of the other axis (increasing
    coordinate), which also parameterizes arclength s in [0, length].
    """

    index: int
    i: int
    j: int
    kind: str  # "ss" | "sd" | "dd"
    axis: str  # "x" | "y"
    position: float  # coordinate along the normal axis
    span: tuple  # (lo, hi) along the tangent axis
    normal_sign: int  # +1 / -1

    @property
    def length(self):
        return self.span[1] - self.span[0]

    @property
    def normal(self):
        if self.axis == "x":
            return np.array([self.normal_sign, 0.0])
        return np.array([0.0, self.normal_sign])

    @property
    def tangent(self):
        if self.axis == "x":
            return np.array([0.0, 1.0])
        return np.array([1.0, 0.0])

    def side_sign(self, sid):
        """+1 on the lower-id side (outward normal = n), -1 on the higher."""
        if sid == self.i:
            return 1
        if sid == self.j:
            return -1
        raise ValueError(f"subdomain {sid} not on interface {self.index}")


@dataclass
class DomainLayout:
    """Validated tiling plus its interface list."""

    blocks: list
    interfaces: list
    bbox: tuple = field(default=None)

    @property
    def n_subdomains(self):
        return len(self.blocks)

    def interfaces_of(self, sid):
        return [g for g in self.interfaces if sid in (g.i, g.j)]

    def physics(self, sid):
        return self.blocks[sid].physics


def _overlap_1d(a0, a1, b0, b1):
    lo, hi = max(a0, b0), min(a1, b1)
    return (lo, hi) if hi - lo > GEOM_TOL else None


def _find_interfaces(blocks):
    """(i, j, axis, position, span, sign) of every shared edge: sign +1
    where block i's high side meets j's low side, else -1."""
    out = []
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            ri, rj = blocks[i].rect, blocks[j].rect
            for n, axis in enumerate("xy"):
                t = 1 - n  # the tangent axis
                for pos, other, sign in ((ri[n + 2], rj[n], +1),
                                         (ri[n], rj[n + 2], -1)):
                    if abs(pos - other) <= GEOM_TOL:
                        span = _overlap_1d(ri[t], ri[t + 2], rj[t], rj[t + 2])
                        if span:
                            out.append((i, j, axis, pos, span, sign))
                        break
    return out


def _interface_kind(pi, pj):
    if pi == "stokes" and pj == "stokes":
        return "ss"
    if pi == "darcy" and pj == "darcy":
        return "dd"
    return "sd"


def build_layout(blocks):
    """Validate a block list and enumerate interfaces.

    Blocks keep their list order as subdomain ids. All geometric and tagging
    errors are collected and raised together as one ConfigError.
    """
    errors = []
    for k, b in enumerate(blocks):
        if b.x1 - b.x0 <= GEOM_TOL or b.y1 - b.y0 <= GEOM_TOL:
            errors.append(f"block {k}: degenerate rectangle {b.rect}")
        if b.physics not in ("stokes", "darcy"):
            errors.append(f"block {k}: unknown physics tag {b.physics!r}")
        if b.mesh[0] < 1 or b.mesh[1] < 1:
            errors.append(f"block {k}: mesh must be >= 1x1, got {b.mesh}")
        if b.physics == "darcy" and b.kl_region is None:
            errors.append(f"block {k}: darcy block needs a kl_region")
    # pairwise overlap check (open interiors must be disjoint)
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            bi, bj = blocks[i], blocks[j]
            ox = min(bi.x1, bj.x1) - max(bi.x0, bj.x0)
            oy = min(bi.y1, bj.y1) - max(bi.y0, bj.y0)
            if ox > GEOM_TOL and oy > GEOM_TOL:
                errors.append(f"blocks {i} and {j} overlap")
    if errors:
        raise ConfigError(errors)

    raw = _find_interfaces(blocks)
    # deterministic order: lexicographic by (i, j), then axis, then position
    raw.sort(key=lambda t: (t[0], t[1], t[2], t[3], t[4][0]))
    interfaces = []
    for idx, (i, j, axis, pos, span, sgn) in enumerate(raw):
        kind = _interface_kind(blocks[i].physics, blocks[j].physics)
        interfaces.append(
            Interface(idx, i, j, kind, axis, pos, span, sgn)
        )

    x0 = min(b.x0 for b in blocks)
    y0 = min(b.y0 for b in blocks)
    x1 = max(b.x1 for b in blocks)
    y1 = max(b.y1 for b in blocks)
    # tiling completeness: block areas must fill the bounding box... only if
    # the union is the full box; gaps are legal (L-shaped domains), so no check.
    return DomainLayout(blocks, interfaces, bbox=(x0, y0, x1, y1))


SIDES = ("left", "right", "bottom", "top")


@dataclass
class _Grid:
    """Uniform nx x ny grid on a block rectangle."""

    rect: tuple
    nx: int
    ny: int

    def side_breaks(self, side):
        """Fine-grid breakpoints along one side (tangent coordinate)."""
        x0, y0, x1, y1 = self.rect
        if side in ("left", "right"):
            return y0 + np.arange(self.ny + 1) * self.hy
        return x0 + np.arange(self.nx + 1) * self.hx


@dataclass
class DarcyMesh(_Grid):
    """Uniform rectangular grid on a Darcy block.

    Cells are row-major: cell(ix, iy) = iy*nx + ix. Edge dofs hold the normal
    velocity component with a fixed global orientation: vertical edges point
    +x, horizontal edges +y. Vertical edge v(ix, iy) = iy*(nx+1) + ix; the
    horizontal block follows with h(ix, iy) = n_vedges + iy*nx + ix.
    """

    def __post_init__(self):
        x0, y0, x1, y1 = self.rect
        self.hx = (x1 - x0) / self.nx
        self.hy = (y1 - y0) / self.ny
        self.n_cells = self.nx * self.ny
        self.n_vedges = (self.nx + 1) * self.ny
        self.n_hedges = self.nx * (self.ny + 1)
        self.n_edges = self.n_vedges + self.n_hedges
        ix = np.arange(self.nx)
        iy = np.arange(self.ny)
        self.cell_x = x0 + (ix + 0.5) * self.hx
        self.cell_y = y0 + (iy + 0.5) * self.hy
        XX, YY = np.meshgrid(self.cell_x, self.cell_y)  # shape (ny, nx)
        self.centroids = np.column_stack([XX.ravel(), YY.ravel()])

    def cell(self, ix, iy):
        return iy * self.nx + ix

    def vedge(self, ix, iy):
        return iy * (self.nx + 1) + ix

    def hedge(self, ix, iy):
        return self.n_vedges + iy * self.nx + ix

    def cell_edges(self, ix, iy):
        """(west, east, south, north) edge ids of a cell."""
        return (
            self.vedge(ix, iy),
            self.vedge(ix + 1, iy),
            self.hedge(ix, iy),
            self.hedge(ix, iy + 1),
        )

    def edge_length(self, e):
        return self.hy if e < self.n_vedges else self.hx

    def edge_lattice(self, e):
        """Midpoint (lx, ly) of edge id(s) e in half steps: the point
        (x0 + lx hx / 2, y0 + ly hy / 2)."""
        e = np.asarray(e)
        vert = e < self.n_vedges
        iy, ix = np.divmod(np.where(vert, e, e - self.n_vedges),
                           np.where(vert, self.nx + 1, self.nx))
        return 2 * ix + ~vert, 2 * iy + vert

    def cell_at(self, x, y):
        """Cell id(s) of the point(s) (x, y), clipped into the grid."""
        x0, y0 = self.rect[:2]
        ix = np.minimum(np.maximum((x - x0) / self.hx, 0), self.nx - 1)
        iy = np.minimum(np.maximum((y - y0) / self.hy, 0), self.ny - 1)
        return self.cell(ix.astype(int), iy.astype(int))

    def edge_cell(self, e):
        """Cell id(s) east/north of edge id(s) e, or west/south on the
        block's right/top side: a boundary edge's only cell."""
        lx, ly = self.edge_lattice(e)
        return self.cell(np.minimum(lx // 2, self.nx - 1),
                         np.minimum(ly // 2, self.ny - 1))

    def boundary_edges(self, side):
        """Edge ids along one side, ordered by increasing tangent coordinate."""
        if side in ("left", "right"):
            return self.vedge(0 if side == "left" else self.nx,
                              np.arange(self.ny))
        if side in ("bottom", "top"):
            return self.hedge(np.arange(self.nx),
                              0 if side == "bottom" else self.ny)
        raise ValueError(side)


# outward normal sign of a side relative to the fixed +x/+y edge orientation
OUTWARD_SIGN = {"left": -1, "right": +1, "bottom": -1, "top": +1}


@dataclass
class StokesMesh(_Grid):
    """Triangulated uniform grid on a Stokes block (P2/P1 Taylor-Hood).

    Every rectangle splits into two triangles along the bottom-left to
    top-right diagonal, so the P2 nodes are exactly the half-step lattice
    (2nx+1) x (2ny+1). P1 pressure nodes are the grid vertices.
    """

    def __post_init__(self):
        x0, y0, x1, y1 = self.rect
        nx, ny = self.nx, self.ny
        self.hx = (x1 - x0) / nx
        self.hy = (y1 - y0) / ny
        self.mx = 2 * nx + 1  # lattice width
        self.my = 2 * ny + 1
        self.n_p2 = self.mx * self.my
        self.n_p1 = (nx + 1) * (ny + 1)
        gx = x0 + 0.5 * self.hx * np.arange(self.mx)
        gy = y0 + 0.5 * self.hy * np.arange(self.my)
        XX, YY = np.meshgrid(gx, gy)
        self.p2_xy = np.column_stack([XX.ravel(), YY.ravel()])
        vx = x0 + self.hx * np.arange(nx + 1)
        vy = y0 + self.hy * np.arange(ny + 1)
        VX, VY = np.meshgrid(vx, vy)
        self.p1_xy = np.column_stack([VX.ravel(), VY.ravel()])

        # lower (bl, br, tr) and upper (bl, tr, tl) triangle of a cell:
        # vertices, then edge midpoints (12, 23, 31), in half steps from
        # the cell's bottom-left corner
        dx = np.array([[0, 2, 2, 1, 2, 1], [0, 2, 0, 1, 1, 0]])
        dy = np.array([[0, 0, 2, 0, 1, 1], [0, 2, 2, 1, 2, 1]])
        iy, ix = np.divmod(np.arange(nx * ny), nx)
        self.conn_p2 = (2 * (iy * self.mx + ix)[:, None, None]
                        + dy * self.mx + dx).reshape(-1, 6)
        self.conn_p1 = ((iy * (nx + 1) + ix)[:, None, None]
                        + (dy[:, :3] // 2) * (nx + 1)
                        + dx[:, :3] // 2).reshape(-1, 3)
        self.n_tri = len(self.conn_p2)
        self.tri_vertices = self.p2_xy[self.conn_p2[:, :3]]

    def lattice(self, ix, iy):
        """P2 node id of lattice point (ix, iy), half-step units."""
        return iy * self.mx + ix

    def boundary_edges(self, side):
        """Fine boundary edges on one side, ordered by tangent coordinate.

        Row k is the (start, mid, end) triple of P2 node ids of one element
        edge of length hx or hy: lattice points 2k, 2k + 1, 2k + 2 along
        the side.
        """
        if side in ("bottom", "top"):
            along = 2 * np.arange(self.nx)[:, None] + np.arange(3)
            return self.lattice(along, 0 if side == "bottom" else self.my - 1)
        if side in ("left", "right"):
            along = 2 * np.arange(self.ny)[:, None] + np.arange(3)
            return self.lattice(0 if side == "left" else self.mx - 1, along)
        raise ValueError(side)


def build_subdomain_mesh(block):
    """Mesh one block according to its physics tag."""
    if block.physics == "darcy":
        return DarcyMesh(block.rect, block.mesh[0], block.mesh[1])
    return StokesMesh(block.rect, block.mesh[0], block.mesh[1])


def side_of_interface(block, iface):
    """Which side (left/right/bottom/top) of the block the interface lies on."""
    if iface.axis == "x":
        if abs(block.x1 - iface.position) <= GEOM_TOL:
            return "right"
        if abs(block.x0 - iface.position) <= GEOM_TOL:
            return "left"
    else:
        if abs(block.y1 - iface.position) <= GEOM_TOL:
            return "top"
        if abs(block.y0 - iface.position) <= GEOM_TOL:
            return "bottom"
    raise ValueError("interface does not touch block")


def edges_on_span(breaks, span):
    """Indices of fine edges [breaks[k], breaks[k+1]] inside a tangent span.

    Raises ConfigError if the span boundaries cut through a fine edge, i.e.
    the fine grid does not align with the interface endpoints.
    """
    lo, hi = span
    n = len(breaks) - 1
    idx = [k for k in range(n)
           if breaks[k] >= lo - GEOM_TOL and breaks[k + 1] <= hi + GEOM_TOL]
    if not idx:
        raise ConfigError(f"no fine edges inside span {span}")
    cov = breaks[idx[-1] + 1] - breaks[idx[0]]
    if abs(cov - (hi - lo)) > GEOM_TOL * max(1.0, abs(hi - lo)):
        raise ConfigError(
            f"fine grid does not align with interface span {span}"
        )
    return idx


@dataclass(frozen=True)
class Trace:
    """A subdomain's fine boundary edges on one interface, tangent-ordered.

    `edges` are rows of mesh.boundary_edges on the block's side of the
    interface (Darcy edge ids, Stokes (start, mid, end) node triples);
    `s_breaks` are their arclength breakpoints, starting at 0 at the
    interface's first endpoint.
    """

    iface: Interface
    edges: np.ndarray
    s_breaks: np.ndarray  # len(edges) + 1


def locate_trace(mesh, block, iface):
    """The Trace of `mesh` (of `block`) on `iface`."""
    side = side_of_interface(block, iface)
    breaks = mesh.side_breaks(side)
    idx = edges_on_span(breaks, iface.span)
    return Trace(iface, mesh.boundary_edges(side)[idx],
                 breaks[idx[0]:idx[-1] + 2] - iface.span[0])
