"""Taylor-Hood P2/P1 discretization of Stokes flow on a triangulated block.

The bilinear form is 2 nu (D(u), D(v)) plus, on edges that meet a Darcy
subdomain, the slip friction term <nu alpha / sqrt(K_l) u.tau, v.tau>
(Beavers-Joseph-Saffman), with K_l sampled from the neighboring Darcy cell.
Velocity Dirichlet data is eliminated strongly; stress edges and interface
data are natural. When the boundary conditions leave rigid-body motions
unconstrained (a subdomain with only stress/interface edges), the kernel is
detected from the assembled form and pinned with explicit Lagrange
constraint rows, so the factored system is always regular. The pressure
unknowns and continuity rows are scaled by nu / h before factoring: the
viscous entries scale as nu and the divergence entries as h, so the scaled
Schur complement matches the viscous block and round-off in the pressure
is not amplified by the mesh size.

Everything but the BJS coefficients is realization-invariant and lives in a
StokesSystem built once: the viscous and divergence blocks, the Dirichlet
split and lift, and the body-force and traction loads. Each realization
refills the BJS entries of the reduced saddle matrix and factors it once.

Interface data lives in the fixed interface frame (n, tau): a solve with
data (lam_n, lam_tau) adds -sigma * <lam_n, v.n> - sigma * <lam_tau, v.tau>
to the right-hand side, where sigma = +1 on the lower-id side and -1 on the
higher-id side; this makes the two sides' conventions mutually adjoint.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import (CouplingMaps, RefillMatrix, check_permeability,
                       factorize)
from .errors import SingularOperatorError
from .geometry import edges_on_span, side_of_interface

SIDES = ("left", "right", "bottom", "top")

# Dunavant degree-4 rule on the reference triangle (weights sum to 1/2)
_QW = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3) * 0.5
_a, _b = 0.445948490915965, 0.091576213509771
_QP = np.array([
    [_a, _a], [1 - 2 * _a, _a], [_a, 1 - 2 * _a],
    [_b, _b], [1 - 2 * _b, _b], [_b, 1 - 2 * _b],
])

# 1D quadratic nodal mass matrix on an edge of unit length, nodes (0, 1/2, 1)
EDGE_MASS = np.array([[4, 2, -1], [2, 16, 2], [-1, 2, 4]]) / 30.0

_G3 = np.array([-np.sqrt(3 / 5), 0.0, np.sqrt(3 / 5)])
_G3W = np.array([5, 8, 5]) / 9.0


def _p2_shapes(xi, eta):
    l1 = 1 - xi - eta
    N = np.array([
        l1 * (2 * l1 - 1), xi * (2 * xi - 1), eta * (2 * eta - 1),
        4 * l1 * xi, 4 * xi * eta, 4 * eta * l1,
    ])
    dN = np.array([
        [1 - 4 * l1, 1 - 4 * l1],
        [4 * xi - 1, 0],
        [0, 4 * eta - 1],
        [4 * (l1 - xi), -4 * xi],
        [4 * eta, 4 * xi],
        [-4 * eta, 4 * (l1 - eta)],
    ], dtype=float)
    return N, dN


def _p1_shapes(xi, eta):
    return np.array([1 - xi - eta, xi, eta])


@dataclass(frozen=True)
class StokesBC:
    """Outer condition on one side: prescribed velocity or traction."""

    kind: str  # "velocity" | "stress"
    value: object = None  # callable (x, y) -> (2,) data; None -> zero


@dataclass(frozen=True)
class StokesTrace:
    """Trace bookkeeping of this subdomain on one interface."""

    iface: int
    kind: str  # "sd" | "ss"
    edges: list  # (start, mid, end) P2 node triples, tangent-ordered
    nodes: np.ndarray  # trace node ids ordered by arclength (2 n_edges + 1)
    s_breaks: np.ndarray  # fine-edge breakpoints in arclength
    sigma: int  # +1 lower-id side, -1 higher-id side
    normal: tuple  # fixed interface normal
    tangent: tuple  # fixed interface tangent


def interface_trace(mesh, block, iface, sid):
    """Locate the fine edges and trace nodes of `mesh` on `iface`."""
    side = side_of_interface(block, iface)
    breaks = mesh.side_breaks(side)
    idx = edges_on_span(breaks, iface.span)
    all_edges = mesh.boundary_edges(side)
    edges = [all_edges[k] for k in idx]
    nodes = [edges[0][0]]
    for e in edges:
        nodes.extend(e[1:])
    s = breaks[idx[0]:idx[-1] + 2] - iface.span[0]
    return StokesTrace(iface.index, iface.kind, edges, np.array(nodes), s,
                       iface.side_sign(sid), tuple(iface.normal),
                       tuple(iface.tangent))


@dataclass
class StokesSolution:
    u: np.ndarray  # velocity dofs, interleaved (2*node + comp), full
    p: np.ndarray  # P1 nodal pressures


def trace_maps(mesh, trace):
    """Full velocity -> (u.n, u.tau) at the trace nodes, fixed interface frame.

    Two sparse maps of shape (2 n_edges + 1, 2 n_p2), the linear form of
    velocity_trace.
    """
    nodes = trace.nodes
    k = np.arange(len(nodes))
    maps = []
    for d in (trace.normal, trace.tangent):
        M = sp.csr_matrix((np.repeat(np.asarray(d, dtype=float), len(nodes)),
                           (np.tile(k, 2),
                            np.concatenate([2 * nodes, 2 * nodes + 1]))),
                          shape=(len(nodes), 2 * mesh.n_p2))
        M.eliminate_zeros()
        maps.append(M)
    return maps


def _pairs(rows_of, cols_of, shape):
    """Broadcast per-element row ids (n, a) and col ids (n, b) to (n, a, b)."""
    return (np.broadcast_to(rows_of[:, :, None], shape),
            np.broadcast_to(cols_of[:, None, :], shape))


class StokesSystem:
    """Realization-invariant part of one Stokes subdomain.

    Holds the viscous and divergence blocks (assembled once by scattering
    the two congruent element tables), the Dirichlet split and lift, the
    body-force and traction loads, the pattern of the reduced saddle matrix
    whose BJS entries are refilled per realization and, when built with a
    mortar coupling F (full velocity -> signed local mortar functionals),
    its CouplingMaps, so that a star solve takes a local mortar vector.
    """

    def __init__(self, mesh, nu, alpha, bcs, traces, f=None, coupling=None,
                 name="stokes subdomain"):
        self.mesh = mesh
        self.nu = nu
        self.alpha = alpha
        self.bcs = bcs
        self.traces = {t.iface: t for t in traces}
        self.f = f
        self.name = name
        self.n_udof = 2 * mesh.n_p2
        self.n_p = mesh.n_p1

        tables = self._shape_tables()
        A = self._assemble_viscous(tables)
        B = self._assemble_divergence(tables)

        # classify outer boundary edges
        iface_keys = set()
        for t in traces:
            iface_keys.update(tuple(e) for e in t.edges)
        self.dirichlet = {}  # velocity dof -> value
        self.stress_edges = []  # (edge triple, value callable)
        for side in SIDES:
            bc = bcs.get(side, StokesBC("velocity"))
            for e in mesh.boundary_edges(side):
                if tuple(e) in iface_keys:
                    continue
                if bc.kind == "velocity":
                    for node in e:
                        x, y = mesh.p2_xy[node]
                        val = (0.0, 0.0) if bc.value is None else bc.value(x, y)
                        self.dirichlet[2 * node] = float(val[0])
                        self.dirichlet[2 * node + 1] = float(val[1])
                elif bc.kind == "stress":
                    self.stress_edges.append((e, bc.value))
                else:
                    raise ValueError(f"unknown stokes bc {bc.kind!r}")

        if not self.stress_edges and not traces:
            raise SingularOperatorError(
                "stokes subdomain has only velocity data; "
                "pressure is undetermined"
            )

        dir_dofs = np.array(sorted(self.dirichlet), dtype=int)
        free = np.setdiff1d(np.arange(self.n_udof), dir_dofs)
        self.free = free
        self.dir_dofs = dir_dofs
        self.g_dir = np.zeros(self.n_udof)
        for d, v in self.dirichlet.items():
            self.g_dir[d] = v
        n_free = len(free)
        self.n_unknowns = n_free + self.n_p
        red = -np.ones(self.n_udof, dtype=int)
        red[free] = np.arange(n_free)

        # BJS friction, per unit coefficient, in full and reduced numbering
        rows, cols, vals, which = self._bjs_entries()
        self.n_bjs = int(which.max()) + 1 if which.size else 0
        rr, cc = red[rows], red[cols]
        both = (rr >= 0) & (cc >= 0)
        bjs = (rr[both], cc[both], vals[both], which[both])

        A_red = A[free][:, free]
        B_red = B[:, free].tocoo()
        Ac = A_red.tocoo()
        n_s = n_free + self.n_p
        const = (np.concatenate([Ac.row, B_red.col, n_free + B_red.row]),
                 np.concatenate([Ac.col, n_free + B_red.row, B_red.col]),
                 np.concatenate([Ac.data, B_red.data, B_red.data]))
        self.matrix = RefillMatrix((n_s, n_s), const, bjs, self.n_bjs)

        # rigid-body motions that the reduced form may leave in its kernel
        xy = mesh.p2_xy
        xc, yc = xy.mean(axis=0)
        Z = np.zeros((self.n_udof, 3))
        Z[0::2, 0] = 1.0
        Z[1::2, 1] = 1.0
        Z[0::2, 2] = -(xy[:, 1] - yc)
        Z[1::2, 2] = xy[:, 0] - xc
        Zf = Z[free]
        norms = np.linalg.norm(Zf, axis=0)
        norms[norms == 0] = 1.0
        self._Zf = Zf / norms

        # bar load: body force and tractions minus the Dirichlet lift; the
        # lift through the BJS entries is refilled per realization
        Fu = self._body_force() + self._tractions()
        self._bar_u0 = (Fu - A @ self.g_dir)[free]
        self._bar_p = -(B @ self.g_dir)
        lift = (rr >= 0) & (self.g_dir[cols] != 0.0)
        self._bar_bjs = sp.csr_matrix(
            (vals[lift] * self.g_dir[cols[lift]], (rr[lift], which[lift])),
            shape=(n_free, self.n_bjs))

        self.coupling = None
        if coupling is not None:
            self.coupling = CouplingMaps(coupling, free, self.n_udof)

    # -- assembly pieces ---------------------------------------------------

    def _shape_tables(self):
        """Element matrices for the two congruent triangle shapes."""
        mesh = self.mesh
        tables = []
        for verts in (mesh.tri_vertices[0], mesh.tri_vertices[1]):
            J = np.column_stack([verts[1] - verts[0], verts[2] - verts[0]])
            detJ = abs(np.linalg.det(J))
            JinvT = np.linalg.inv(J).T
            Kxx = np.zeros((6, 6))
            Kyy = np.zeros((6, 6))
            Kxy = np.zeros((6, 6))
            G1 = np.zeros((3, 6))
            G2 = np.zeros((3, 6))
            for (xi, eta), w in zip(_QP, _QW):
                _, dN = _p2_shapes(xi, eta)
                grad = dN @ JinvT.T  # (6, 2) physical gradients
                M = _p1_shapes(xi, eta)
                Kxx += w * detJ * np.outer(grad[:, 0], grad[:, 0])
                Kyy += w * detJ * np.outer(grad[:, 1], grad[:, 1])
                Kxy += w * detJ * np.outer(grad[:, 0], grad[:, 1])
                G1 += w * detJ * np.outer(M, grad[:, 0])
                G2 += w * detJ * np.outer(M, grad[:, 1])
            nu = self.nu
            A11 = nu * (2 * Kxx + Kyy)
            A22 = nu * (Kxx + 2 * Kyy)
            A12 = nu * Kxy.T  # A12[i, j] = nu * int dyN_i dxN_j
            tables.append((A11, A22, A12, -G1, -G2))
        return tables

    def _element_tables(self, tables, k):
        """Table k of every triangle, (n_tri, ...), by alternating shape."""
        both = np.array([tab[k] for tab in tables])
        return both[np.arange(self.mesh.n_tri) % 2]

    def _assemble_viscous(self, tables):
        """Scatter the element tables; entries in (tri, i, j, block) order."""
        mesh = self.mesh
        A11, A22, A12 = (self._element_tables(tables, k) for k in range(3))
        d1 = 2 * mesh.conn_p2
        d2 = d1 + 1
        shape = A11.shape
        (r1, c1), (r2, c2) = _pairs(d1, d1, shape), _pairs(d2, d2, shape)
        rows = np.stack([r1, r2, r1, r2], axis=-1).ravel()
        cols = np.stack([c1, c2, c2, c1], axis=-1).ravel()
        vals = np.stack([A11, A22, A12, A12.transpose(0, 2, 1)],
                        axis=-1).ravel()
        return sp.coo_matrix((vals, (rows, cols)),
                             shape=(self.n_udof, self.n_udof)).tocsr()

    def _assemble_divergence(self, tables):
        mesh = self.mesh
        B1, B2 = (self._element_tables(tables, k) for k in (3, 4))
        nd = mesh.conn_p2
        pr, c1 = _pairs(mesh.conn_p1, 2 * nd, B1.shape)
        rows = np.stack([pr, pr], axis=-1).ravel()
        cols = np.stack([c1, c1 + 1], axis=-1).ravel()
        vals = np.stack([B1, B2], axis=-1).ravel()
        return sp.coo_matrix((vals, (rows, cols)),
                             shape=(self.n_p, self.n_udof)).tocsr()

    def _sd_traces(self):
        return [t for t in self.traces.values() if t.kind == "sd"]

    def _bjs_entries(self):
        """(u.tau, v.tau) edge masses on sd edges, one coefficient per edge.

        Returns full-numbering (rows, cols, vals, which); `which` counts the
        sd edges in trace order, the order of bjs_coefficients.
        """
        z = np.zeros(0, dtype=int)
        rows, cols, vals, which = [z], [z], [np.zeros(0)], [z]
        n = 0
        for t in self._sd_traces() if self.alpha != 0.0 else ():
            tau = np.asarray(t.tangent)
            L = np.diff(t.s_breaks)
            tri = np.array(t.edges)
            for a in range(2):
                for b in range(2):
                    tt = tau[a] * tau[b]
                    if tt == 0.0:
                        continue
                    r, c = _pairs(2 * tri + a, 2 * tri + b,
                                  (len(tri), 3, 3))
                    rows.append(r.ravel())
                    cols.append(c.ravel())
                    vals.append((tt * L[:, None, None] * EDGE_MASS).ravel())
                    which.append(np.repeat(n + np.arange(len(tri)), 9))
            n += len(tri)
        return tuple(np.concatenate(x) for x in (rows, cols, vals, which))

    def bjs_coefficients(self, kl):
        """nu alpha / sqrt(K_l) per sd edge from neighbor-cell samples."""
        if self.alpha == 0.0:
            return np.zeros(0)
        coef = []
        for t in self._sd_traces():
            kvals = kl.get(t.iface)
            if kvals is None:
                raise ValueError(f"BJS needs K_l values for interface {t.iface}")
            kvals = np.asarray(kvals, dtype=float)
            check_permeability(kvals, f"{self.name}, BJS on interface "
                                      f"{t.iface}")
            coef.append(self.nu * self.alpha / np.sqrt(kvals))
        return np.concatenate(coef) if coef else np.zeros(0)

    def _kernel_constraints(self, A_red):
        """Rigid-body motions still in the kernel of the reduced form."""
        Zf = self._Zf
        G = Zf.T @ (A_red @ Zf)
        lam, vecs = np.linalg.eigh(G)
        scale = max(A_red.diagonal().max(), 1e-30)
        keep = lam <= 1e-10 * scale
        if not keep.any():
            return np.zeros((0, len(self.free)))
        C = (Zf @ vecs[:, keep]).T
        C = C / np.linalg.norm(C, axis=1)[:, None]
        return C

    def _body_force(self):
        mesh = self.mesh
        Fu = np.zeros(self.n_udof)
        if self.f is None:
            return Fu
        for t in range(mesh.n_tri):
            verts = mesh.tri_vertices[t]
            J = np.column_stack([verts[1] - verts[0], verts[2] - verts[0]])
            detJ = abs(np.linalg.det(J))
            nd = mesh.conn_p2[t]
            for (xi, eta), w in zip(_QP, _QW):
                N, _ = _p2_shapes(xi, eta)
                x, y = verts[0] + J @ np.array([xi, eta])
                fx, fy = self.f(x, y)
                Fu[2 * nd] += w * detJ * fx * N
                Fu[2 * nd + 1] += w * detJ * fy * N
        return Fu

    def _tractions(self):
        mesh = self.mesh
        Fu = np.zeros(self.n_udof)
        for triple, g in self.stress_edges:
            if g is None:
                continue
            p0 = mesh.p2_xy[triple[0]]
            p1 = mesh.p2_xy[triple[2]]
            L = np.linalg.norm(p1 - p0)
            for gx, gw in zip(_G3, _G3W):
                s = 0.5 * (gx + 1)  # in [0, 1]
                x, y = p0 + s * (p1 - p0)
                tx, ty = g(x, y)
                N = np.array([(1 - s) * (1 - 2 * s), 4 * s * (1 - s),
                              s * (2 * s - 1)])
                for i, node in enumerate(triple):
                    Fu[2 * node] += gw * 0.5 * L * tx * N[i]
                    Fu[2 * node + 1] += gw * 0.5 * L * ty * N[i]
        return Fu

    def trace_load(self, lam):
        """Star load of nodal interface data, on the free velocity rows.

        `lam` maps interface index -> (lam_n, lam_tau) nodal trace values
        (lam_tau may be None on sd interfaces); the load is
        -sigma <lam_n, v.n> - sigma <lam_tau, v.tau>.
        """
        Fu = np.zeros(self.n_udof)
        for idx, (lam_n, lam_t) in lam.items():
            t = self.traces[idx]
            nvec = np.asarray(t.normal)
            tvec = np.asarray(t.tangent)
            comps = [(np.asarray(lam_n, dtype=float), nvec)]
            if lam_t is not None:
                comps.append((np.asarray(lam_t, dtype=float), tvec))
            for vals, direction in comps:
                for e_idx, triple in enumerate(t.edges):
                    L = t.s_breaks[e_idx + 1] - t.s_breaks[e_idx]
                    loc = vals[2 * e_idx:2 * e_idx + 3]
                    contrib = -t.sigma * L * (EDGE_MASS @ loc)
                    for i, node in enumerate(triple):
                        Fu[2 * node] += direction[0] * contrib[i]
                        Fu[2 * node + 1] += direction[1] * contrib[i]
        return Fu[self.free]

    def factor(self, kl=None):
        """Per-realization operator for the BJS permeability samples kl."""
        coef = self.bjs_coefficients(kl or {})
        S = self.matrix(coef)
        n_free = len(self.free)
        C = self._kernel_constraints(S[:n_free, :n_free])
        if C.shape[0]:
            Cs = sp.csr_matrix(np.hstack([C, np.zeros((len(C), self.n_p))]))
            S = sp.bmat([[S, Cs.T], [Cs, None]], format="csc")
        bar = np.concatenate([self._bar_u0 - self._bar_bjs @ coef,
                              self._bar_p])
        scale = np.ones(S.shape[0])
        scale[n_free:n_free + self.n_p] = self.nu / min(self.mesh.hx,
                                                        self.mesh.hy)
        D = sp.diags(scale)
        return StokesOperator(self, factorize((D @ S @ D).tocsc()),
                              C.shape[0], bar, scale)


class StokesOperator:
    """Factored Taylor-Hood operator for one realization's BJS coefficients."""

    def __init__(self, system, lu, kernel_dim, bar_load, scale):
        self.system = system
        self.mesh = system.mesh
        self.traces = system.traces
        self.lu = lu  # factors of diag(scale) @ S @ diag(scale)
        self.scale = scale
        self.kernel_dim = kernel_dim
        self.bar_load = bar_load
        self.factorizations = 1
        self.backsolves = 0

    def _solve(self, head, lift):
        """Backsolve with the leading rhs entries `head`; full fields.

        With lift=False the outer Dirichlet data is treated as zero; star
        solves use this so the interface operator stays linear in lambda.
        """
        system = self.system
        n_free = len(system.free)
        rhs = np.zeros(n_free + system.n_p + self.kernel_dim)
        rhs[:len(head)] = head
        self.backsolves += 1
        sol = self.scale * self.lu.solve(self.scale * rhs)
        u = system.g_dir.copy() if lift else np.zeros(system.n_udof)
        u[system.free] = sol[:n_free]
        return StokesSolution(u, sol[n_free:n_free + system.n_p])

    def solve_bar(self):
        """Solve with body force, outer Dirichlet lifts, outer tractions."""
        return self._solve(self.bar_load, lift=True)

    def solve_star(self, lam):
        """Solve with interface data only: -sigma <lam_n, v.n> - sigma <lam_t, v.tau>.

        `lam` is the local mortar vector of this subdomain (star load
        E @ lam), or the dict of nodal trace values that
        StokesDarcyProblem.star_data returns (see StokesSystem.trace_load).
        Homogeneous outer data.
        """
        if isinstance(lam, dict):
            return self._solve(self.system.trace_load(lam), lift=False)
        system = self.system
        return self._solve(system.coupling.star_load(lam, len(system.free)),
                           lift=False)

    # -- postprocessing -----------------------------------------------------

    def velocity_trace(self, sol, iface_index):
        """(u.n, u.tau) flat nodal values in the fixed interface frame.

        Arrays have length 2*n_edges + 1, matching the 1D quadratic trace
        lattice (vertex, midpoint, vertex, ...) that solve_star consumes.
        """
        t = self.traces[iface_index]
        ux = sol.u[2 * t.nodes]
        uy = sol.u[2 * t.nodes + 1]
        n = t.normal
        tau = t.tangent
        return ux * n[0] + uy * n[1], ux * tau[0] + uy * tau[1]

    def cell_values(self, sol):
        """Velocity and pressure at triangle centroids: (n_tri, 2), (n_tri,)."""
        mesh = self.mesh
        N, _ = _p2_shapes(1 / 3, 1 / 3)
        M = _p1_shapes(1 / 3, 1 / 3)
        nd = mesh.conn_p2
        vel = np.column_stack([_rowdot(sol.u[2 * nd], N),
                               _rowdot(sol.u[2 * nd + 1], N)])
        return vel, _rowdot(sol.p[mesh.conn_p1], M)


def _rowdot(X, w):
    """X @ w as a stack of 1-D dots: bitwise what a loop of w @ x gives."""
    return np.matmul(X[:, None, :], w[:, None])[:, 0, 0]


def assemble_stokes(mesh, nu, alpha, bcs, traces, kl=None, f=None):
    """Build and factor a stand-alone subdomain operator. One factorization."""
    return StokesSystem(mesh, nu, alpha, bcs, traces, f=f).factor(kl)
