"""Mixed RT0/P0 discretization of Darcy flow on a rectangular subdomain.

Velocity dofs are normal components on grid edges (vertical edges point +x,
horizontal +y, so H(div) continuity is automatic), pressure is constant per
cell. The saddle system

    [A  B^T] [u]   [f - <g, v.n>]
    [B  0  ] [p] = [-q          ]

uses A = nu (K^-1 u, v) with K constant per cell and B = -(div v, w).
No-flow conditions are eliminated strongly; pressure and interface data are
natural and enter the momentum right-hand side. Everything but nu/K is
realization-invariant and lives in a DarcySystem built once; each
realization refills the matrix data, factors it once (SuperLU), and every
subsequent star/bar solve is a single backsolve.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import (CouplingMaps, RefillMatrix, check_permeability,
                       factorize)
from .errors import SingularOperatorError
from .geometry import OUTWARD_SIGN, edges_on_span, side_of_interface

SIDES = ("left", "right", "bottom", "top")


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
    sigma_out: int  # +1 if the +x/+y edge orientation is outward here
    normal_sign: int  # interface normal n = normal_sign * e_axis
    s_breaks: np.ndarray  # arclength breakpoints, len(edges) + 1


def interface_trace(mesh, block, iface):
    """Locate the fine edges of `mesh` on `iface` (Darcy side)."""
    side = side_of_interface(block, iface)
    breaks = mesh.side_breaks(side)
    idx = edges_on_span(breaks, iface.span)
    edges = mesh.boundary_edges(side)[idx]
    s = breaks[idx[0]:idx[-1] + 2] - iface.span[0]
    return InterfaceTrace(iface.index, edges, OUTWARD_SIGN[side],
                          iface.normal_sign, s)


@dataclass
class DarcySolution:
    u: np.ndarray  # all edge dofs (eliminated ones zero)
    p: np.ndarray  # cell pressures


def trace_maps(mesh, trace):
    """Full edge velocity -> u.n per fine edge of `trace`, one component.

    u.n is taken in the fixed interface frame, like flux_on_interface.
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
    from nu/K per cell, the K-independent bar load and, when built with a
    mortar coupling F (full edge velocity -> signed local mortar
    functionals), its CouplingMaps, so that a star solve takes a local
    mortar vector.
    """

    def __init__(self, mesh, nu, bcs, traces, f=None, q=None, coupling=None,
                 name="darcy subdomain"):
        self.mesh = mesh
        self.nu = nu
        self.bcs = bcs
        self.traces = {t.iface: t for t in traces}
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

        keep = np.array(sorted(set(range(mesh.n_edges)) - noflow))
        self.keep = keep
        self.red_index = -np.ones(mesh.n_edges, dtype=int)
        self.red_index[keep] = np.arange(len(keep))
        self.n_u = len(keep)
        self.n_p = mesh.n_cells
        self.n_unknowns = self.n_u + self.n_p
        self.matrix = self._pattern()
        self.bar_load = self._bar_load()

        self.coupling = None
        if coupling is not None:
            self.coupling = CouplingMaps(coupling, keep, mesh.n_edges)

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

    def trace_load(self, lam):
        """Star load -<lam, v.n_out> of projected per-edge interface data.

        `lam` maps interface index -> per-edge values of the projected
        mortar function (tangent-ordered, one value per fine edge).
        """
        rhs = np.zeros(self.n_u + self.n_p)
        for idx, vals in lam.items():
            t = self.traces[idx]
            lengths = np.array([self.mesh.edge_length(e) for e in t.edges])
            r = self.red_index[t.edges]
            rhs[r] -= t.sigma_out * np.asarray(vals) * lengths
        return rhs

    def factor(self, K):
        """Per-realization operator for cell permeabilities K."""
        K = np.asarray(K, dtype=float)
        if K.shape != (self.mesh.n_cells,):
            raise ValueError("K must hold one value per cell")
        check_permeability(K, self.name)
        return DarcyOperator(self, factorize(self.matrix(self.nu / K)))


class DarcyOperator:
    """Factored subdomain operator for one permeability realization."""

    def __init__(self, system, lu):
        self.system = system
        self.mesh = system.mesh
        self.traces = system.traces
        self.lu = lu
        self.factorizations = 1
        self.backsolves = 0

    def _solve(self, rhs):
        self.backsolves += 1
        sol = self.lu.solve(rhs)
        u = np.zeros(self.mesh.n_edges)
        n_u = self.system.n_u
        u[self.system.keep] = sol[:n_u]
        return DarcySolution(u, sol[n_u:])

    def solve_bar(self):
        """Solve with full outer data and sources, zero interface data."""
        return self._solve(self.system.bar_load)

    def solve_star(self, lam):
        """Solve with interface data only: rhs = -<lam, v.n_out>.

        `lam` is the local mortar vector of this subdomain (star load
        E @ lam), or the dict of projected per-edge values that
        StokesDarcyProblem.star_data returns (see DarcySystem.trace_load).
        """
        if isinstance(lam, dict):
            return self._solve(self.system.trace_load(lam))
        system = self.system
        return self._solve(system.coupling.star_load(
            lam, system.n_u + system.n_p))

    def flux_on_interface(self, sol, iface_index):
        """u.n in the fixed interface frame, one value per fine edge."""
        t = self.traces[iface_index]
        return t.normal_sign * sol.u[t.edges]

    def cell_velocity(self, sol):
        """Cell-center velocity vectors, (n_cells, 2)."""
        w, e, s, n = _cell_edge_table(self.mesh)
        return np.column_stack([0.5 * (sol.u[w] + sol.u[e]),
                                0.5 * (sol.u[s] + sol.u[n])])


def assemble_darcy(mesh, K, nu, bcs, traces, f=None, q=None):
    """Build and factor a stand-alone subdomain operator. One factorization."""
    return DarcySystem(mesh, nu, bcs, traces, f=f, q=q).factor(K)
