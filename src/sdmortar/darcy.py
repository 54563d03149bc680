"""Mixed RT0/P0 discretization of Darcy flow on a rectangular subdomain.

Velocity dofs are normal components on grid edges (vertical edges point +x,
horizontal +y, so H(div) continuity is automatic), pressure is constant per
cell. The saddle system

    [A  B^T] [u]   [f - <g, v.n>]
    [B  0  ] [p] = [-q          ]

uses A = nu (K^-1 u, v) with K constant per cell and B = -(div v, w).
No-flow conditions are eliminated strongly; pressure and interface data are
natural and enter the momentum right-hand side. Everything but nu/K is
realization-invariant and lives in a DarcySystem built once, together with
the column order of its sparse LU (assembly.Factorizer); each realization
refills the matrix data, factors it once (SuperLU) in that order, and every
subsequent star/bar solve is a single backsolve, or one per column of a
block of star loads.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import (CouplingMaps, Factorizer, RefillMatrix,
                       SubdomainOperator, check_permeability)
from .errors import SingularOperatorError
from .geometry import OUTWARD_SIGN, SIDES, locate_trace


@dataclass(frozen=True)
class DarcyBC:
    """Outer boundary condition on one side: no-flow or given pressure."""

    kind: str  # "noflow" | "pressure"
    value: object = None  # callable g(x, y) for pressure (None -> 0)


@dataclass(frozen=True)
class InterfaceTrace:
    """Edges of this subdomain lying on one interface, tangent-ordered."""

    iface: int
    edges: np.ndarray  # edge dof ids
    normal_sign: int  # interface normal n = normal_sign * e_axis
    s_breaks: np.ndarray  # arclength breakpoints, len(edges) + 1


def interface_trace(mesh, block, iface):
    """Locate the fine edges of `mesh` on `iface` (Darcy side)."""
    edges, s = locate_trace(mesh, block, iface)
    return InterfaceTrace(iface.index, np.array(edges), iface.normal_sign, s)


def trace_maps(mesh, trace):
    """Full edge velocity -> u.n per fine edge of `trace`, one component.

    u.n is taken in the fixed interface frame (normal_sign times the edge
    dof), the same on both sides of the interface.
    """
    n = len(trace.edges)
    return [sp.csr_matrix((np.full(n, float(trace.normal_sign)),
                           (np.arange(n), trace.edges)),
                          shape=(n, mesh.n_edges))]


def _cell_edge_table(mesh):
    """(west, east, south, north) edge id arrays of every cell, row-major."""
    iy, ix = np.divmod(np.arange(mesh.n_cells), mesh.nx)
    return mesh.cell_edges(ix, iy)


class DarcySystem:
    """Realization-invariant part of one Darcy subdomain.

    Holds the reduced dof layout, the saddle matrix pattern that is refilled
    from nu/K per cell with the Factorizer that keeps its column order, the
    K-independent bar load and, when built with a
    mortar coupling F (full edge velocity -> signed local mortar
    functionals), its CouplingMaps, so that a star solve takes a local
    mortar vector.
    """

    def __init__(self, mesh, nu, bcs, traces, f=None, q=None, coupling=None,
                 name="darcy subdomain"):
        self.mesh = mesh
        self.nu = nu
        self.bcs = bcs
        self.f = f
        self.q = q
        self.name = name

        iface_edges = set()
        for t in traces:
            iface_edges.update(t.edges.tolist())
        noflow = set()
        pressure_edges = {}
        for side in SIDES:
            bc = bcs.get(side, DarcyBC("noflow"))
            for e in mesh.boundary_edges(side):
                if int(e) in iface_edges:
                    continue
                if bc.kind == "noflow":
                    noflow.add(int(e))
                elif bc.kind == "pressure":
                    pressure_edges[int(e)] = (side, bc.value)
                else:
                    raise ValueError(f"unknown darcy bc {bc.kind!r}")
        self.pressure_edges = pressure_edges

        if not pressure_edges and not iface_edges:
            raise SingularOperatorError(
                "darcy subdomain has no pressure data and no interface; "
                "pressure is undetermined"
            )

        free = np.array(sorted(set(range(mesh.n_edges)) - noflow))
        self.free = free
        self.n_udof = mesh.n_edges
        self.red_index = -np.ones(mesh.n_edges, dtype=int)
        self.red_index[free] = np.arange(len(free))
        self.n_u = len(free)
        self.n_p = mesh.n_cells
        self.p_scale = 1.0  # the pressure block is not scaled
        self.n_unknowns = self.n_u + self.n_p
        self.matrix = self._pattern()
        self.factorize = Factorizer()
        self.bar_load = self._bar_load()

        self.coupling = None
        if coupling is not None:
            self.coupling = CouplingMaps(coupling, free, mesh.n_edges)

    def _pattern(self):
        """Saddle [A B^T; B 0] with A = (nu/K u, v) refilled per cell."""
        mesh = self.mesh
        w, e, s, n = _cell_edge_table(mesh)
        cells = np.arange(mesh.n_cells)
        area = mesh.hx * mesh.hy
        a = np.concatenate([w, e, w, e, s, n, s, n])
        b = np.concatenate([w, e, e, w, s, n, n, s])
        m = np.repeat([1 / 3, 1 / 3, 1 / 6, 1 / 6] * 2, mesh.n_cells)
        ra, rb = self.red_index[a], self.red_index[b]
        ok = (ra >= 0) & (rb >= 0)
        which = np.tile(cells, 8)[ok]
        # -(div u, q): (u_e - u_w) hy + (u_n - u_s) hx
        edge = np.concatenate([w, e, s, n])
        bval = np.repeat([mesh.hy, -mesh.hy, mesh.hx, -mesh.hx],
                         mesh.n_cells)
        r = self.red_index[edge]
        bok = r >= 0
        prow = self.n_u + np.tile(cells, 4)[bok]
        n_sys = self.n_u + self.n_p
        const = (np.concatenate([prow, r[bok]]),
                 np.concatenate([r[bok], prow]),
                 np.concatenate([bval[bok], bval[bok]]))
        scaled = (ra[ok], rb[ok], area * m[ok], which)
        return RefillMatrix((n_sys, n_sys), const, scaled, mesh.n_cells)

    def _bar_load(self):
        """Momentum source, outer pressure data and mass source (no K)."""
        mesh = self.mesh
        rhs = np.zeros(self.n_u + self.n_p)
        if self.f is not None:
            fx, fy = self.f(mesh.centroids[:, 0], mesh.centroids[:, 1])
            half = 0.5 * mesh.hx * mesh.hy
            w, e, s, n = _cell_edge_table(mesh)
            comp = np.concatenate([np.broadcast_to(fx, (mesh.n_cells,)),
                                   np.broadcast_to(fy, (mesh.n_cells,))])
            for first, second in ((w, s), (e, n)):
                r = self.red_index[np.concatenate([first, second])]
                ok = r >= 0
                rhs[r[ok]] += comp[ok] * half
        for e, (side, g) in self.pressure_edges.items():
            r = self.red_index[e]
            mid = self._edge_mid(e)
            gval = 0.0 if g is None else float(g(mid[0], mid[1]))
            rhs[r] -= OUTWARD_SIGN[side] * gval * mesh.edge_length(e)
        if self.q is not None:
            qv = np.broadcast_to(
                self.q(mesh.centroids[:, 0], mesh.centroids[:, 1]),
                (mesh.n_cells,))
            rhs[self.n_u:] -= qv * mesh.hx * mesh.hy
        return rhs

    def _edge_mid(self, e):
        mesh = self.mesh
        x0, y0 = mesh.rect[0], mesh.rect[1]
        if e < mesh.n_vedges:
            iy, ix = divmod(e, mesh.nx + 1)
            return (x0 + ix * mesh.hx, y0 + (iy + 0.5) * mesh.hy)
        eh = e - mesh.n_vedges
        iy, ix = divmod(eh, mesh.nx)
        return (x0 + (ix + 0.5) * mesh.hx, y0 + iy * mesh.hy)

    def factor(self, K):
        """Per-realization operator for cell permeabilities K."""
        K = np.asarray(K, dtype=float)
        if K.shape != (self.mesh.n_cells,):
            raise ValueError("K must hold one value per cell")
        check_permeability(K, self.name)
        return DarcyOperator(self, self.factorize(self.matrix(self.nu / K)),
                             self.bar_load)


class DarcyOperator(SubdomainOperator):
    """Factored subdomain operator for one permeability realization."""

    def solve_bar(self):
        """Solve with full outer data and sources, zero interface data."""
        return self._solve(self.bar_load)

    def solve_star(self, lam):
        """Solve with interface data only: rhs = -<lam, v.n_out>.

        `lam` is the local mortar vector of this subdomain, whose star load
        is E @ lam (CouplingMaps.star_load), or a block (n_local, m) of
        such vectors, solved together as m backsolves into fields with a
        trailing axis of m columns.
        """
        return self._solve(self._star_load(lam))

    def cell_values(self, sol):
        """Cell-center velocity vectors (n_cells, 2) and cell pressures."""
        w, e, s, n = _cell_edge_table(self.mesh)
        return (np.column_stack([0.5 * (sol.u[w] + sol.u[e]),
                                 0.5 * (sol.u[s] + sol.u[n])]),
                sol.p.copy())
