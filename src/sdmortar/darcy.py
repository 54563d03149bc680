"""Mixed RT0/P0 discretization of Darcy flow on a rectangular subdomain.

Velocity dofs are normal components on grid edges (vertical edges point +x,
horizontal +y, so H(div) continuity is automatic), pressure is constant per
cell. The saddle system

    [A  B^T] [u]   [f - <g, v.n>]
    [B  0  ] [p] = [-q          ]

uses A = nu (K^-1 u, v) with K constant per cell and B = -(div v, w).
No-flow conditions are eliminated strongly; pressure and interface data are
natural and enter the momentum right-hand side.

It is solved in hybridized form (Arnold & Brezzi, M2AN 19, 1985). Each
cell T gets its own four fluxes u_T, and an edge multiplier mu_e on every
interior and no-flow edge enforces sum_T s_T,e u_T,e = 0, s the outward
sign: the two copies of an interior flux agree and a no-flow flux is zero.
A load r on a free edge is put on one cell of the edge (its owner). Per
cell, with local mass (nu/K_T) M0, divergence row b and C_T the cell's
signed multiplier incidence,

    (nu/K_T) M0 u_T + b p_T + C_T^T mu = r_T,    b^T u_T = g_T,

so u_T and p_T are closed-form in (r_T, g_T, mu): with m = M0^-1 b,
beta = b^T m and Q = M0^-1 - m m^T / beta,

    u_T = (K_T/nu) Q (r_T - C_T^T mu) + m g_T / beta,
    p_T = m^T (r_T - C_T^T mu) / beta - (nu/K_T) g_T / beta.

The constraints then give the multiplier system H mu = L r with
H = sum_T (K_T/nu) C_T Q C_T^T, symmetric positive definite whenever the
saddle matrix is regular. Its solution satisfies the constraints, so the
u_T are the restriction of one field u that vanishes on the no-flow edges;
summing each cell's momentum rows over the cells of an edge cancels the
multiplier terms and gives back A u + B^T p = f: (u, p) is the saddle
solution, whatever owner the loads were put on. M0, Q, m and beta are the
same for every cell of a block.

A DarcySystem, built once, numbers the multipliers by their edge
midpoints along the block's shorter side first, so that H is banded with
half bandwidth kd <= 2 min(nx, ny) + 1 (George & Liu, Computer Solution
of Large Sparse Positive Definite Systems, 1981). It keeps the band
position, cell and factor s_i s_j Q_ij of every cell's contribution to
H's lower band, Q, m and beta, the multiplier of every cell slot, the
constant signed scatter C = [C_T] of the cell slots onto the
multipliers, and the owner slot of every free edge. A realization sums
H's band straight into LAPACK's column-major band storage with one
bincount over the cells and factors H by banded Cholesky (dpbtrf). A
solve runs the closed form above on every cell at once: it gathers the
loads at their owner slots, solves H mu = C y, y_T = (K_T/nu) Q r_T +
m g_T / beta, by one dpbtrs and reads u at the owner slots and p, each
step a product of Q or m with the (4 x cells) array of the cell slots.

A star problem is asked only for its flux response F A^-1 E lam, so the
system also keeps the trace restriction of the solve. With E the trace
rows (the velocity unknowns F reads), E_blk the star load map on them
and F_E = -E_blk^T, a star load is a load on the trace rows alone. It
reaches H only through R = L[:, E] E_blk, nonzero on the few multipliers
of the trace cells, and, Q being symmetric and a load and a value both
read at their owner slot, its velocity at E is the owner cells'
(K_T/nu) Q r_T less L[:, E]^T mu. Hence

    F A^-1 E = R^T H^-1 R - P,    P = F_E Q_E F_E^T,

with Q_E the (K_T/nu) Q_ij of every pair of trace rows owned by one
cell, and R and P are sums of one cell's K/nu times a fixed value. A
star solve is one dpbtrs on R lam and two small products. The flux basis
-F A^-1 E = P - Z^T Z, Z = L_H^-1 R with H = L_H L_H^T, is one Gram
product of the forward triangular solves (dtbtrs) that give Z, one per
column, each from the first multiplier its column of R reaches; the
basis is symmetric, and is stored exactly so.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs, dtbtrs

from .assembly import CouplingMaps, SubdomainOperator, check_permeability
from .errors import SingularOperatorError
from .geometry import OUTWARD_SIGN, SIDES

# outward normal of each (west, east, south, north) edge of a cell, in
# the edge's +x/+y orientation
_CELL_SIGN = np.array([-1.0, 1.0, -1.0, 1.0])


@dataclass(frozen=True)
class DarcyBC:
    """Outer boundary condition on one side: no-flow or given pressure.

    A pressure value is a vectorized callable g(x, y), called once on the
    midpoints of all the side's outer edges; it returns an array of their
    shape or a number, which is broadcast. None is zero pressure.
    """

    kind: str  # "noflow" | "pressure"
    value: object = None


def trace_dofs(trace):
    """[(edge ids, normal_sign)]: the velocity dofs that a trace's one
    component u.n reads and their coefficient.

    u.n is taken in the fixed interface frame (normal_sign times the edge
    dof), the same on both sides of the interface.
    """
    return [(trace.edges, trace.iface.normal_sign)]


def _cell_edge_table(mesh):
    """(west, east, south, north) edge id arrays of every cell, row-major."""
    iy, ix = np.divmod(np.arange(mesh.n_cells), mesh.nx)
    return mesh.cell_edges(ix, iy)


class HybridFactors:
    """Saddle solves of one realization through the Cholesky factor of H.

    `shape` is the saddle system's and `a` the cells' K/nu; solve(rhs)
    takes one right-hand side [r; g] or a block of columns and returns
    [u_free; p] by the module docstring's closed form on all cells at
    once, slot-major (4 x cells): the loads r at their owner slots,
    y = a (Q r) + m g / beta, one dpbtrs for mu from C y, and u (at the
    owner slots) and p of r - C^T mu.
    """

    def __init__(self, system, chol, a):
        self.system = system
        self.shape = (system.n_unknowns, system.n_unknowns)
        self.chol = chol
        self.a = a

    def solve(self, rhs):
        system, a = self.system, self.a
        Q, m, beta = system.Q, system.m, system.beta
        n_u, cols = system.n_u, np.shape(rhs)[1:]
        # the loads at their owner slots, (4 x cells) per column of rhs
        r = np.zeros(cols + (4 * len(a),))
        r[..., system.owner] = rhs[:n_u].T
        r = r.reshape(cols + (4, len(a)))
        g = rhs[n_u:].T / beta  # g_T / beta
        gm = m[:, None] * g[..., None, :]
        if self.chol.shape[1]:  # else no interior or no-flow edge
            y = a * (Q @ r) + gm
            mu = dpbtrs(self.chol, system.C @ y.reshape(cols + (-1,)).T,
                        lower=1)[0]
            # r - C^T mu; a slot without a multiplier reads the zero row
            mu = np.concatenate([mu, np.zeros((1,) + cols)])
            r -= _CELL_SIGN[:, None] * mu.T[..., system.slot_mult]
        u = (a * (Q @ r) + gm).reshape(cols + (-1,))[..., system.owner]
        return np.concatenate([u, m @ r / beta - g / a], axis=-1).T


class DarcySystem:
    """Realization-invariant part of one Darcy subdomain.

    Holds the reduced dof layout, the multiplier numbering, H's band fill
    and the constants of the per-cell solve (see the module docstring),
    the K-independent bar load and, when given the entries of a mortar
    coupling F (full edge velocity -> signed local mortar functionals),
    its CouplingMaps and the trace restriction of the solve
    (_trace_maps), so that a star solve takes a local mortar vector and
    answers at the trace.
    """

    def __init__(self, mesh, nu, bcs, traces, f=None, q=None, coupling=None,
                 name="darcy subdomain"):
        self.mesh = mesh
        self.nu = nu
        self.bcs = bcs
        self.f = f
        self.q = q
        self.name = name

        # outer sides, each side's pressure data g called once at the
        # midpoints of all its edges, for the load -<g, v.n>
        on_trace = np.zeros(mesh.n_edges, dtype=bool)
        for t in traces:
            on_trace[t.edges] = True
        noflow = np.zeros(mesh.n_edges, dtype=bool)
        pressure = []  # (edge ids, load) of each pressure side
        for side in SIDES:
            bc = bcs.get(side, DarcyBC("noflow"))
            e = mesh.boundary_edges(side)
            e = e[~on_trace[e]]
            if not len(e):
                continue
            if bc.kind == "noflow":
                noflow[e] = True
            elif bc.kind == "pressure":
                lx, ly = mesh.edge_lattice(e)
                g = 0.0 if bc.value is None else bc.value(
                    mesh.rect[0] + 0.5 * lx * mesh.hx,
                    mesh.rect[1] + 0.5 * ly * mesh.hy)
                pressure.append(
                    (e, -OUTWARD_SIGN[side] * g * mesh.edge_length(e[0])))
            else:
                raise ValueError(f"unknown darcy bc {bc.kind!r}")

        if not pressure and not traces:
            raise SingularOperatorError(
                f"{name}: darcy block has no pressure data and no "
                "interface; pressure is undetermined")

        free = np.flatnonzero(~noflow)
        self.free = free
        self.n_udof = mesh.n_edges
        self.red_index = -np.ones(mesh.n_edges, dtype=int)
        self.red_index[free] = np.arange(len(free))
        self.n_u = len(free)
        self.n_p = mesh.n_cells
        self.p_scale = 1.0  # the pressure block is not scaled
        self.n_unknowns = self.n_u + self.n_p
        self._hybridize(noflow)
        self.bar_load = self._bar_load(pressure)

        self.coupling = None
        if coupling is not None:
            self.coupling = CouplingMaps(coupling, free, mesh.n_edges)
            self._trace_maps()

    def _hybridize(self, noflow):
        """Multiplier numbering, H's band fill and the per-cell solve's
        constants: Q, m, beta, each cell slot's multiplier (n_mult, a zero
        row of the solve's mu, where it has none), the signed scatter C
        of the cell slots onto the multipliers and each free edge's owner
        slot, its first cell slot in row-major order. Slots are numbered
        slot-major, slot * n_cells + cell."""
        mesh = self.mesh
        nc = mesh.n_cells
        edges = np.column_stack(_cell_edge_table(mesh))
        M0 = mesh.hx * mesh.hy * np.kron(np.eye(2), [[1 / 3, 1 / 6],
                                                      [1 / 6, 1 / 3]])
        b = np.array([mesh.hy, -mesh.hy, mesh.hx, -mesh.hx])
        M0inv = np.linalg.inv(M0)
        self.m = m = M0inv @ b
        self.beta = beta = b @ m
        self.Q = Q = M0inv - np.outer(m, m) / beta
        s = _CELL_SIGN

        # multipliers on interior and no-flow edges, numbered by their
        # midpoints, slowest along the block's longer side: rows (y
        # slowest, the mesh's own order) unless the block is wider than
        # tall, so that H's half bandwidth is at most 2 min(nx, ny) + 1
        is_mult = np.bincount(edges.ravel(), minlength=mesh.n_edges) == 2
        is_mult[noflow] = True
        at = np.flatnonzero(is_mult)
        lx, ly = mesh.edge_lattice(at)
        order = np.lexsort((lx, ly) if mesh.nx <= mesh.ny else (ly, lx))
        n_mult = len(at)
        mult = -np.ones(mesh.n_edges, dtype=int)
        mult[at[order]] = np.arange(n_mult)
        self.multiplier = mult  # edge -> multiplier index, -1 if none
        self.n_mult = n_mult

        mid = mult[edges]  # (nc, 4) multiplier of each cell slot
        # H = sum_T (K_T/nu) C_T Q C_T^T, its lower band summed cell by
        # cell into LAPACK's band storage: H[mi, mj] at (mi - mj, mj)
        cell = np.repeat(np.arange(nc), 16)  # every slot pair (i, j)
        i = np.tile(np.repeat(np.arange(4), 4), nc)
        j = np.tile(np.arange(4), 4 * nc)
        mi, mj = mid[cell, i], mid[cell, j]
        low = (mj >= 0) & (mi >= mj)
        d = (mi - mj)[low]
        self.kd = int(np.max(d, initial=0))
        self._band_at = d + (self.kd + 1) * mj[low]
        self._band_cell = cell[low]
        self._band_q = (s[i] * s[j] * Q[i, j])[low]

        mid = mid.T  # slot-major from here on
        self.slot_mult = np.where(mid >= 0, mid, n_mult)
        slot = np.flatnonzero(mid >= 0)
        self.C = sp.csr_matrix((np.repeat(s, nc)[slot], (mid.ravel()[slot],
                                                         slot)),
                               shape=(n_mult, 4 * nc))
        cell, k = np.divmod(np.unique(edges.ravel(), return_index=True)[1],
                            4)
        self.owner = (k * nc + cell)[self.free]

    def _trace_maps(self):
        """R and P as maps from the cells' K/nu to their entries (see the
        module docstring): R on the multipliers `reach` that the trace
        loads reach, sorted, and P, both row-major.

        A trace row t owned by slot k_t of cell c puts (K/nu)_c s_i
        Q[i, k_t] E[t] on the multiplier of each slot i of c, and each
        pair of trace rows t, t' of one cell adds (K/nu)_c Q[k_t, k_t']
        E[t]^T E[t'] to P.
        """
        coupling = self.coupling
        n_loc, E = coupling.n_rows, coupling.E_block
        nc = self.mesh.n_cells
        k, cell = np.divmod(self.owner[coupling.E_rows], nc)
        t, i = np.nonzero(self.slot_mult[:, cell].T < self.n_mult)
        self.reach, at = np.unique(self.slot_mult[i, cell[t]],
                                   return_inverse=True)
        self._R_map = _entry_map(
            at[:, None] * n_loc + np.arange(n_loc), cell[t],
            (_CELL_SIGN[i] * self.Q[i, k[t]])[:, None] * E[t],
            (len(self.reach) * n_loc, nc))
        col, row = np.nonzero(cell[:, None] == cell)
        self._P_map = _entry_map(
            np.arange(n_loc * n_loc).reshape(n_loc, n_loc), cell[col],
            self.Q[k[row], k[col]][:, None, None] * E[row, :, None]
            * E[col, None, :], (n_loc * n_loc, nc))

    def multiplier_band(self, K):
        """H at cell permeabilities K, in LAPACK's lower band storage:
        band[i - j, j] = H[i, j] for j <= i <= j + kd, zero below. The
        band is summed in column-major order, so it is handed to dpbtrf
        without a copy."""
        n = self.kd + 1
        return np.bincount(
            self._band_at, (K / self.nu)[self._band_cell] * self._band_q,
            n * self.n_mult).reshape(self.n_mult, n).T

    def _bar_load(self, pressure):
        """Momentum source, outer pressure data ((edges, load) per side)
        and mass source (no K)."""
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
        for e, load in pressure:
            rhs[self.red_index[e]] += load
        if self.q is not None:
            qv = np.broadcast_to(
                self.q(mesh.centroids[:, 0], mesh.centroids[:, 1]),
                (mesh.n_cells,))
            rhs[self.n_u:] -= qv * mesh.hx * mesh.hy
        return rhs

    def factor(self, K):
        """Per-realization operator for cell permeabilities K."""
        K = np.asarray(K, dtype=float)
        if K.shape != (self.mesh.n_cells,):
            raise ValueError("K must hold one value per cell")
        check_permeability(K, self.name)
        chol, info = dpbtrf(self.multiplier_band(K), lower=1, overwrite_ab=1)
        if info > 0:
            raise SingularOperatorError(
                f"{self.name}: multiplier matrix is not positive definite "
                f"(leading minor {info})")
        a = K / self.nu
        R = P = None
        if self.coupling is not None:
            n_loc = self.coupling.n_rows
            R = (self._R_map @ a).reshape(len(self.reach), n_loc)
            P = (self._P_map @ a).reshape(n_loc, n_loc)
        return DarcyOperator(self, HybridFactors(self, chol, a),
                             self.bar_load, R, P)


def _entry_map(at, which, vals, shape):
    """Sparse map whose row at[...] sums vals[...] times coef[which]; at
    and vals carry one leading entry per which, zeros are dropped."""
    at = np.broadcast_to(at, vals.shape)
    which = np.broadcast_to(which.reshape((-1,) + (1,) * (vals.ndim - 1)),
                            vals.shape)
    nz = vals != 0
    return sp.csr_matrix((vals[nz], (at[nz], which[nz])), shape=shape)


class DarcyOperator(SubdomainOperator):
    """Factored subdomain operator for one permeability realization.

    R and P are its trace maps (DarcySystem._trace_maps), formed when it
    is factored; None when the system has no coupling.
    """

    def __init__(self, system, lu, bar_load, R, P):
        super().__init__(system, lu, bar_load)
        self.R, self.P = R, P

    def solve_bar(self, lam=None):
        """Solve with full outer data and sources and, unless lam is None,
        the star load of the local mortar vector lam: one backsolve."""
        return self._solve(self._bar_rhs(lam))

    def solve_star(self, lam):
        """Flux response F A^-1 E lam to interface data only,
        rhs = -<lam, v.n_out>.

        `lam` is the local mortar vector of this subdomain or a block
        (n_local, m) of them, answered together as m backsolves: one
        dpbtrs on R lam, then R^T H^-1 R lam - P lam.
        """
        self._count(lam)
        chol, reach = self.lu.chol, self.system.reach
        out = -(self.P @ lam)
        if chol.shape[1]:  # else no interior or no-flow edge
            rhs = np.zeros((chol.shape[1],) + np.shape(lam)[1:])
            rhs[reach] = self.R @ lam
            out += self.R.T @ dpbtrs(chol, rhs, lower=1,
                                     overwrite_b=1)[0][reach]
        return out

    def flux_basis(self):
        """-F A^-1 E = P - Z^T Z, Z = L_H^-1 R, exactly symmetric; N_dof
        backsolves.

        R is scattered once into one Fortran-order Z, and each column is
        solved there in place by one dtbtrs with H's banded factor, from
        the first multiplier the column reaches: Z is zero above it. B is
        one product.
        """
        P = self.P
        n_loc = len(P)
        self.backsolves += n_loc
        chol, reach = self.lu.chol, self.system.reach
        n = chol.shape[1]
        if not (n and len(reach)):
            return P.copy()
        first = reach[np.argmax(self.R != 0, axis=0)]
        top = reach[0]
        Z = np.zeros((n - top, n_loc), order="F")
        Z[reach - top] = self.R
        for j, start in enumerate(first):
            Z[start - top:, j] = dtbtrs(chol[:, start:], Z[start - top:, j],
                                        uplo="L", overwrite_b=1)[0]
        B = P - Z.T @ Z
        low = np.tril_indices(n_loc, -1)
        B[low] = B.T[low]
        return B

    def cell_values(self, sol):
        """Cell-center velocity vectors (n_cells, 2) and cell pressures."""
        w, e, s, n = _cell_edge_table(self.mesh)
        return (np.column_stack([0.5 * (sol.u[w] + sol.u[e]),
                                 0.5 * (sol.u[s] + sol.u[n])]),
                sol.p.copy())
