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
H's lower band, and fixed CSC patterns of L and of the back map
[r; mu] -> [u_free; p], each entry a constant or one cell's K/nu or nu/K
times a value. A realization sums H's band straight into LAPACK's
column-major band storage with one bincount over the cells, scales the
maps' entries, factors H by banded Cholesky (dpbtrf) and solves a bar
load by one multiplier load, one dpbtrs and the back map.

A star problem is asked only for its flux response F A^-1 E lam, so the
system also keeps the trace restriction of the maps. With E the trace
rows (the velocity unknowns F reads), E_blk the star load map on them
and F_E = -E_blk^T, a star load reaches H only through
R = L[:, E] E_blk, nonzero on the few multipliers of the trace cells,
and the back map's velocity rows at E are -L[:, E]^T, because Q is
symmetric and a load and a value are both read at their owner slot.
Hence

    F A^-1 E = R^T H^-1 R - P,    P = F_E back_rhs[E, E] F_E^T,

and R and P are the realization's K/nu times fixed patterns. A star
solve is one dpbtrs on R lam and two small products. The flux basis
-F A^-1 E = P - Z^T Z, Z = L_H^-1 R with H = L_H L_H^T, needs only the
forward triangular solves (dtbtrs), in column blocks within
assembly.BLOCK_BYTES, each from the first multiplier its columns reach;
it is symmetric, and is stored exactly so.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs, dtbtrs

from .assembly import (CouplingMaps, SubdomainOperator, block_width,
                       check_permeability)
from .errors import SingularOperatorError
from .geometry import OUTWARD_SIGN, SIDES

# outward normal of each (west, east, south, north) edge of a cell, in
# the edge's +x/+y orientation
_CELL_SIGN = np.array([-1.0, 1.0, -1.0, 1.0])


@dataclass(frozen=True)
class DarcyBC:
    """Outer boundary condition on one side: no-flow or given pressure."""

    kind: str  # "noflow" | "pressure"
    value: object = None  # callable g(x, y) for pressure (None -> 0)


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


class _ScaledPattern:
    """CSC matrix on a fixed pattern whose every entry is a value times
    one scale.

    `const` holds (rows, cols, vals) triplets of constant entries and
    `scaled` (rows, cols, vals, which) triplets of entries vals *
    coef[which]; no two triplets share a position. The matrix at
    scale = [1, coef] has the data vals * scale[self.which].
    """

    def __init__(self, shape, const, scaled):
        rows, cols, vals = (np.concatenate(pair) for pair in zip(const,
                                                                 scaled))
        which = np.concatenate([np.zeros(len(const[0]), dtype=int),
                                scaled[3] + 1])
        order = np.lexsort((rows, cols))
        self.shape = shape
        self.indices = rows[order].astype(np.int32)
        self.indptr = np.concatenate([[0], np.cumsum(np.bincount(
            cols, minlength=shape[1]))]).astype(np.int32)
        self.vals = vals[order]
        self.which = which[order]

    def __call__(self, scale):
        return sp.csc_matrix((self.vals * scale[self.which], self.indices,
                              self.indptr), shape=self.shape)

    def column_entries(self, cols):
        """(rows, k, vals, which) of every stored entry in column cols[k]."""
        start, count = self.indptr[cols], np.diff(self.indptr)[cols]
        k = np.repeat(np.arange(len(cols)), count)
        at = np.arange(count.sum()) + np.repeat(start - np.cumsum(count)
                                                + count, count)
        return self.indices[at], k, self.vals[at], self.which[at]


class HybridFactors:
    """Saddle solves of one realization through the Cholesky factor of H.

    `shape` is the saddle system's; solve(rhs) takes one right-hand side
    or a block of columns and returns [u_free; p]: the multiplier load
    L rhs, one dpbtrs with H's banded factor, and the back map applied as
    its two column halves [r | mu].
    """

    def __init__(self, shape, chol, load, back_rhs, back_mu):
        self.shape = shape
        self.chol = chol
        self.load = load
        self.back_rhs = back_rhs
        self.back_mu = back_mu

    def solve(self, rhs):
        x = self.back_rhs @ rhs
        if self.chol.shape[1]:  # else no interior or no-flow edge
            x += self.back_mu @ dpbtrs(self.chol, self.load @ rhs,
                                       lower=1)[0]
        return x


class DarcySystem:
    """Realization-invariant part of one Darcy subdomain.

    Holds the reduced dof layout, the multiplier numbering, H's band fill
    and the scaled patterns of the hybridized solve (see the module
    docstring), the K-independent bar load and, when given the entries of
    a mortar coupling F (full edge velocity -> signed local mortar
    functionals), its CouplingMaps and the trace restriction of the maps
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

        iface_edges = set()
        for t in traces:
            iface_edges.update(t.edges.tolist())
        noflow = set()
        pressure_edges = {}
        for side in SIDES:
            bc = bcs.get(side, DarcyBC("noflow"))
            for e in mesh.boundary_edges(side).tolist():
                if e in iface_edges:
                    continue
                if bc.kind == "noflow":
                    noflow.add(e)
                elif bc.kind == "pressure":
                    pressure_edges[e] = (side, bc.value)
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
        self._hybridize(sorted(noflow))
        self.bar_load = self._bar_load()

        self.coupling = None
        if coupling is not None:
            self.coupling = CouplingMaps(coupling, free, mesh.n_edges)
            self._trace_maps()

    def _hybridize(self, noflow):
        """Multiplier numbering, H's band fill and the scaled patterns of
        L and the back map.

        H fills from K/nu per cell, the maps from K/nu per cell followed by
        nu/K per cell. A free edge's load belongs to one owner cell and a
        multiplier/slot pair to one cell, so no two triplets of a map share
        a position.
        """
        mesh = self.mesh
        nc, n_u = mesh.n_cells, self.n_u
        edges = np.column_stack(_cell_edge_table(mesh))
        M0 = mesh.hx * mesh.hy * np.kron(np.eye(2), [[1 / 3, 1 / 6],
                                                      [1 / 6, 1 / 3]])
        b = np.array([mesh.hy, -mesh.hy, mesh.hx, -mesh.hx])
        M0inv = np.linalg.inv(M0)
        m = M0inv @ b
        beta = b @ m
        Q = M0inv - np.outer(m, m) / beta
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
        red = self.red_index[edges]  # (nc, 4) reduced velocity row
        # each free edge's load and value belong to its first cell slot
        owned = np.zeros(4 * nc, dtype=bool)
        owned[np.unique(edges.ravel(), return_index=True)[1]] = True
        owned = owned.reshape(nc, 4) & (red >= 0)

        cell = np.repeat(np.arange(nc), 16)  # every slot pair (i, j)
        i = np.tile(np.repeat(np.arange(4), 4), nc)
        j = np.tile(np.arange(4), 4 * nc)
        mi, mj = mid[cell, i], mid[cell, j]
        ri, rj = red[cell, i], red[cell, j]
        oi, oj = owned[cell, i], owned[cell, j]
        k = np.tile(np.arange(4), nc)  # every single slot k
        mk, rk, ok = mid.ravel(), red.ravel(), owned.ravel()
        p_row = n_u + np.repeat(np.arange(nc), 4)
        p_diag = n_u + np.arange(nc)
        n_sys = n_u + nc

        # H = sum_T (K_T/nu) C_T Q C_T^T, its lower band summed cell by
        # cell into LAPACK's band storage: H[mi, mj] at (mi - mj, mj)
        low = (mj >= 0) & (mi >= mj)
        d = (mi - mj)[low]
        self.kd = int(np.max(d, initial=0))
        self._band_at = d + (self.kd + 1) * mj[low]
        self._band_cell = cell[low]
        self._band_q = (s[i] * s[j] * Q[i, j])[low]
        # L r = sum_T C_T ((K_T/nu) Q r_T + m g_T / beta)
        lr, lg = (mi >= 0) & oj, mk >= 0
        self._load = _ScaledPattern(
            (n_mult, n_sys), (mk[lg], p_row[lg], (s * m / beta)[k][lg]),
            (mi[lr], rj[lr], (s[i] * Q[i, j])[lr], cell[lr]))
        # u_T = (K_T/nu) Q (r_T - C_T^T mu) + m g_T / beta, read at the
        # owner slot; p_T = m^T (r_T - C_T^T mu) / beta - (nu/K_T) g_T / beta
        uu = oi & oj
        self._back_rhs = _ScaledPattern(
            (n_sys, n_sys),
            (np.concatenate([rk[ok], p_row[ok]]),
             np.concatenate([p_row[ok], rk[ok]]),
             np.tile((m / beta)[k][ok], 2)),
            (np.concatenate([ri[uu], p_diag]),
             np.concatenate([rj[uu], p_diag]),
             np.concatenate([Q[i, j][uu], np.full(nc, -1 / beta)]),
             np.concatenate([cell[uu], nc + np.arange(nc)])))
        um = oi & (mj >= 0)
        self._back_mu = _ScaledPattern(
            (n_sys, n_mult), (p_row[lg], mk[lg], -(m * s / beta)[k][lg]),
            (ri[um], mj[um], -(Q[i, j] * s[j])[um], cell[um]))

    def _trace_maps(self):
        """Patterns of R and P on the trace rows E (see the module
        docstring): sparse maps from the maps' scale [1, K/nu, nu/K] to the
        entries of R (on the multipliers `reach` that the trace loads
        reach, sorted) and of P, row-major.

        Every entry of L in a trace column and of back_rhs on E x E is one
        cell's K/nu times a value, so R and P are sums of such terms.
        """
        coupling = self.coupling
        n_loc, E = coupling.n_rows, coupling.E_block
        n_scale = 1 + 2 * self.mesh.n_cells
        mult, t, vals, which = self._load.column_entries(coupling.E_rows)
        self.reach, mult = np.unique(mult, return_inverse=True)
        self._R_map = _entry_map(
            mult[:, None] * n_loc + np.arange(n_loc), which,
            vals[:, None] * E[t], (len(self.reach) * n_loc, n_scale))
        pos = -np.ones(self.n_unknowns, dtype=int)
        pos[coupling.E_rows] = np.arange(len(E))
        rows, t, vals, which = self._back_rhs.column_entries(coupling.E_rows)
        on = pos[rows] >= 0
        t, vals, which = t[on], vals[on], which[on]
        self._P_map = _entry_map(
            np.arange(n_loc * n_loc).reshape(n_loc, n_loc), which,
            vals[:, None, None] * E[pos[rows[on]], :, None] * E[t, None, :],
            (n_loc * n_loc, n_scale))

    def multiplier_band(self, K):
        """H at cell permeabilities K, in LAPACK's lower band storage:
        band[i - j, j] = H[i, j] for j <= i <= j + kd, zero below. The
        band is summed in column-major order, so it is handed to dpbtrf
        without a copy."""
        n = self.kd + 1
        return np.bincount(
            self._band_at, (K / self.nu)[self._band_cell] * self._band_q,
            n * self.n_mult).reshape(self.n_mult, n).T

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
        lx, ly = mesh.edge_lattice(e)
        return (mesh.rect[0] + 0.5 * int(lx) * mesh.hx,
                mesh.rect[1] + 0.5 * int(ly) * mesh.hy)

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
        scale = np.concatenate([[1.0], K / self.nu, self.nu / K])
        n_sys = self.n_unknowns
        R = P = None
        if self.coupling is not None:
            n_loc = self.coupling.n_rows
            R = (self._R_map @ scale).reshape(len(self.reach), n_loc)
            P = (self._P_map @ scale).reshape(n_loc, n_loc)
        return DarcyOperator(
            self, HybridFactors((n_sys, n_sys), chol, self._load(scale),
                                self._back_rhs(scale), self._back_mu(scale)),
            self.bar_load, R, P)


def _entry_map(at, which, vals, shape):
    """Sparse map whose row at[...] sums vals[...] times scale[which]; at
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

        Z is solved by dtbtrs with H's banded factor, the columns taken
        in the order of the first multiplier each one's R reaches. Z is
        zero above that row, so a block's solve starts at its first
        column's, its width is block_width of the rows it solves, and a
        pair of blocks meets only below the later start.
        """
        P = self.P
        n_loc = len(P)
        self.backsolves += n_loc
        B = P.copy()
        chol, reach = self.lu.chol, self.system.reach
        if not (chol.shape[1] and len(reach)):
            return B
        first = reach[np.argmax(self.R != 0, axis=0)]
        order = np.argsort(first, kind="stable")
        Z, j = [], 0
        while j < n_loc:
            start = first[order[j]]
            cols = order[j:j + block_width(chol.shape[1] - start)]
            j += len(cols)
            at = np.searchsorted(reach, start)
            rhs = np.zeros((chol.shape[1] - start, len(cols)), order="F")
            rhs[reach[at:] - start] = self.R[at:, cols]
            Z.append((cols, start, dtbtrs(chol[:, start:], rhs, uplo="L",
                                          overwrite_b=1)[0]))
        for a, (ca, sa, Za) in enumerate(Z):
            for cb, sb, Zb in Z[a:]:
                G = Za[sb - sa:].T @ Zb
                B[np.ix_(ca, cb)] -= G
                if cb is not ca:
                    B[np.ix_(cb, ca)] -= G.T
        low = np.tril_indices(n_loc, -1)
        B[low] = B.T[low]
        return B

    def cell_values(self, sol):
        """Cell-center velocity vectors (n_cells, 2) and cell pressures."""
        w, e, s, n = _cell_edge_table(self.mesh)
        return (np.column_stack([0.5 * (sol.u[w] + sol.u[e]),
                                 0.5 * (sol.u[s] + sol.u[n])]),
                sol.p.copy())
