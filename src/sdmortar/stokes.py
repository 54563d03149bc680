"""Taylor-Hood P2/P1 discretization of Stokes flow on a triangulated block.

The bilinear form is 2 nu (D(u), D(v)) plus, on edges that meet a Darcy
subdomain, the slip friction term <nu alpha / sqrt(K_l) u.tau, v.tau>
(Beavers-Joseph-Saffman), with K_l sampled from the neighboring Darcy cell.
Velocity Dirichlet data is eliminated strongly; stress edges and interface
data are natural. When the boundary conditions leave rigid-body motions
unconstrained (a subdomain with only stress/interface edges), the kernel is
detected from the assembled form and pinned with explicit Lagrange
constraint rows, so the factored system is always regular. The pressure
unknowns and continuity rows are scaled by s = nu / min(hx, hy): the
viscous entries scale as nu and the divergence entries as h, so the scaled
Schur complement matches the viscous block and round-off in the pressure
is not amplified by the mesh size.

Everything but the BJS coefficients is realization-invariant and lives in a
StokesSystem built once: the Dirichlet split and lift, the body-force and
traction loads, the reduced saddle matrix without BJS (S0, already scaled
by s, its structural zeros dropped) and the BJS term as the r x r block
it adds on the few velocity unknowns it touches.

The BJS entries touch only the r tangential trace unknowns of the sd
interfaces, so a matrix at other coefficients is a rank-r update of one at
reference coefficients. A StokesReference factors the reference matrix
once (kernel detection and bordering included) and gives the operator at
other coefficients as that LU plus an r x r capacitance
(assembly.UpdatedFactors), at the reference coefficients as the LU
itself. This is the only way a Stokes operator is made: the interface
solver keeps one reference per Stokes subdomain per sweep, at the mean
field. The reference also keeps its responses to the mean-field loads
(bar, update and unit star), and every operator's solve is small
products on them: after set-up a Stokes LU solves nothing.

Interface data lives in the fixed interface frame (n, tau): a star solve
with the mortar function (lam_n, lam_tau) adds
-sigma * <lam_n, v.n> - sigma * <lam_tau, v.tau> to the right-hand side
(the load E_i lam of the coupling maps, see problem.py), where sigma = +1
on the lower-id side and -1 on the higher-id side; this makes the two
sides' conventions mutually adjoint.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .assembly import (CouplingMaps, Solution, SubdomainOperator,
                       UpdatedFactors, check_permeability)
from .errors import SingularOperatorError
from .geometry import GAUSS3_POINTS, GAUSS3_WEIGHTS, SIDES

# Dunavant degree-4 rule on the reference triangle (weights sum to 1/2)
_QW = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3) * 0.5
_a, _b = 0.445948490915965, 0.091576213509771
_QP = np.array([
    [_a, _a], [1 - 2 * _a, _a], [_a, 1 - 2 * _a],
    [_b, _b], [1 - 2 * _b, _b], [_b, 1 - 2 * _b],
])

# 1D quadratic nodal mass matrix on an edge of unit length, nodes (0, 1/2, 1)
EDGE_MASS = np.array([[4, 2, -1], [2, 16, 2], [-1, 2, 4]]) / 30.0


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
    """Outer condition on one side: prescribed velocity or traction.

    A value is a vectorized callable (x, y) -> (vx, vy), called once on
    all the side's outer points: its velocity nodes, or the Gauss points
    of its edges as arrays (edge, point). Each component is an array of
    the points' shape or a number, which is broadcast. None is zero data.
    """

    kind: str  # "velocity" | "stress"
    value: object = None


def trace_nodes(trace):
    """P2 node ids of a trace ordered by arclength: vertex, midpoint,
    vertex, ... (2 n_edges + 1 nodes)."""
    return np.append(trace.edges[:, :2].ravel(), trace.edges[-1, 2])


def trace_dofs(trace):
    """[(velocity dofs, coefficient)] that the trace components u.n and
    u.tau read at the trace nodes, in the fixed interface frame.

    The frame is axis-aligned, so component d reads the velocity
    component a of d's one nonzero entry: dofs 2 node + a, coefficient
    d[a].
    """
    nodes = trace_nodes(trace)
    out = []
    for d in (trace.iface.normal, trace.iface.tangent):
        a = int(np.flatnonzero(d)[0])
        out.append((2 * nodes + a, d[a]))
    return out


def _pairs(rows_of, cols_of, shape):
    """Broadcast per-element row ids (n, a) and col ids (n, b) to (n, a, b)."""
    return (np.broadcast_to(rows_of[:, :, None], shape),
            np.broadcast_to(cols_of[:, None, :], shape))


class StokesSystem:
    """Realization-invariant part of one Stokes subdomain.

    Holds the Dirichlet split and lift, the body-force and traction loads,
    the pressure-scaled reduced saddle matrix S0 without BJS (viscous and
    divergence blocks assembled once by scattering the two congruent
    element tables), the sorted reduced velocity unknowns T that BJS
    touches and a map from the edge coefficients to the BJS entries on
    T x T (bjs_block), and, when given the entries of a mortar coupling F
    (full velocity -> signed local mortar functionals), its CouplingMaps,
    so that a star solve takes a local mortar vector.
    """

    def __init__(self, mesh, nu, alpha, bcs, traces, f=None, coupling=None,
                 name="stokes subdomain"):
        self.mesh = mesh
        self.nu = nu
        self.alpha = alpha
        self.bcs = bcs
        self.traces = traces
        self.f = f
        self.name = name
        self.n_udof = 2 * mesh.n_p2
        self.n_p = mesh.n_p1

        tables = self._shape_tables()
        A = self._assemble_viscous(tables)
        B = self._assemble_divergence(tables)

        # outer sides, each side's data called once on all its points: an
        # edge on a trace is known by its midpoint node, and a node on two
        # velocity sides keeps the later side's value (SIDES order)
        on_trace = np.zeros(mesh.n_p2, dtype=bool)
        for t in traces:
            on_trace[t.edges[:, 1]] = True
        self.g_dir = np.zeros(self.n_udof)
        is_dir = np.zeros(self.n_udof, dtype=bool)
        stress = []  # (edges, value callable) of each stress side
        for side in SIDES:
            bc = bcs.get(side, StokesBC("velocity"))
            e = mesh.boundary_edges(side)
            e = e[~on_trace[e[:, 1]]]
            if not len(e):
                continue
            if bc.kind == "velocity":
                nodes = e.ravel()
                is_dir[2 * nodes] = is_dir[2 * nodes + 1] = True
                val = ((0.0, 0.0) if bc.value is None
                       else bc.value(*mesh.p2_xy[nodes].T))
                self.g_dir[2 * nodes], self.g_dir[2 * nodes + 1] = val
            elif bc.kind == "stress":
                stress.append((e, bc.value))
            else:
                raise ValueError(f"unknown stokes bc {bc.kind!r}")

        if not stress and not traces:
            raise SingularOperatorError(
                f"{name}: stokes block has only velocity data; pressure is "
                "undetermined")

        self.free = free = np.flatnonzero(~is_dir)
        n_free = len(free)
        self.n_unknowns = n_free + self.n_p
        red = -np.ones(self.n_udof, dtype=int)
        red[free] = np.arange(n_free)

        # BJS friction, per unit coefficient, in full and reduced numbering:
        # the reduced unknowns T it touches and the map from the edge
        # coefficients to its r x r block on T x T
        rows, cols, vals, which = self._bjs_entries()
        self.n_bjs = int(which.max()) + 1 if which.size else 0
        rr, cc = red[rows], red[cols]
        both = (rr >= 0) & (cc >= 0)
        self.T = np.unique(np.concatenate([rr[both], cc[both]]))
        r = len(self.T)
        at = (np.searchsorted(self.T, rr[both]) * r
              + np.searchsorted(self.T, cc[both]))
        self._bjs_map = sp.csr_matrix((vals[both], (at, which[both])),
                                      shape=(r * r, self.n_bjs))

        # the reduced saddle matrix without BJS, pressures scaled
        self.p_scale = nu / min(mesh.hx, mesh.hy)
        B_red = self.p_scale * B[:, free]
        self.S0 = sp.bmat([[A[free][:, free], B_red.T], [B_red, None]],
                          format="csc")
        self.S0.eliminate_zeros()

        # rigid-body motions that the reduced form may leave in its kernel,
        # zero on the pressure rows
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
        self._Zp = np.zeros((self.n_unknowns, 3))
        self._Zp[:n_free] = Zf / norms

        # bar load: body force and tractions minus the Dirichlet lift; the
        # lift through the BJS entries is a map of the edge coefficients
        Fu = self._body_force() + self._tractions(stress)
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
        return [t for t in self.traces if t.iface.kind == "sd"]

    def _bjs_entries(self):
        """(u.tau, v.tau) edge masses on sd edges, one coefficient per edge.

        Returns full-numbering (rows, cols, vals, which); `which` counts the
        sd edges in trace order, the order of bjs_coefficients.
        """
        z = np.zeros(0, dtype=int)
        rows, cols, vals, which = [z], [z], [np.zeros(0)], [z]
        n = 0
        for t in self._sd_traces() if self.alpha != 0.0 else ():
            tau = t.iface.tangent
            L = np.diff(t.s_breaks)
            tri = t.edges
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

    def bjs_block(self, coef):
        """BJS entries on T x T at edge coefficients coef, an r x r array."""
        r = len(self.T)
        return (self._bjs_map @ coef).reshape(r, r)

    def bjs_coefficients(self, kl):
        """nu alpha / sqrt(K_l) per sd edge from neighbor-cell samples."""
        if self.alpha == 0.0:
            return np.zeros(0)
        coef = []
        for t in self._sd_traces():
            idx = t.iface.index
            kvals = kl.get(idx)
            if kvals is None:
                raise ValueError(f"BJS needs K_l values for interface {idx}")
            kvals = np.asarray(kvals, dtype=float)
            check_permeability(kvals, f"{self.name}, BJS on interface "
                                      f"{idx}")
            coef.append(self.nu * self.alpha / np.sqrt(kvals))
        return np.concatenate(coef) if coef else np.zeros(0)

    def _kernel_constraints(self, S):
        """Rigid-body motions still in the kernel of the reduced form.

        S is the scaled saddle matrix; its velocity block is the unscaled
        reduced form and the motions vanish on the pressure rows.
        """
        Zp = self._Zp
        G = Zp.T @ (S @ Zp)
        lam, vecs = np.linalg.eigh(G)
        scale = max(S.diagonal().max(), 1e-30)
        keep = lam <= 1e-10 * scale
        if not keep.any():
            return np.zeros((0, len(self.free)))
        C = (Zp[:len(self.free)] @ vecs[:, keep]).T
        C = C / np.linalg.norm(C, axis=1)[:, None]
        return C

    def _body_force(self):
        """(f, v) by the degree-4 rule on every triangle, as array ops.

        f is called once on all quadrature points, and bincount sums every
        dof's contributions in (triangle, point) order, as a loop over the
        triangles would.
        """
        mesh = self.mesh
        Fu = np.zeros(self.n_udof)
        if self.f is None:
            return Fu
        verts = mesh.tri_vertices
        J = np.stack([verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0]],
                     axis=-1)
        w = _QW * np.abs(np.linalg.det(J))[:, None]  # (triangle, point)
        xy = verts[:, None, 0] + (J[:, None, :, 0] * _QP[:, 0, None]
                                  + J[:, None, :, 1] * _QP[:, 1, None])
        N = np.array([_p2_shapes(xi, eta)[0] for xi, eta in _QP])
        nodes = np.broadcast_to(2 * mesh.conn_p2[:, None], w.shape + (6,))
        for comp, val in enumerate(self.f(xy[..., 0], xy[..., 1])):
            contrib = (w * val)[..., None] * N
            Fu += np.bincount((nodes + comp).ravel(), weights=contrib.ravel(),
                              minlength=self.n_udof)
        return Fu

    def _tractions(self, stress):
        """<g, v> on the stress sides' edges by the 3-point Gauss rule.

        Each side's g is called once on all its points, and add.at sums
        every dof's contributions in (side, edge, point, node) order, as a
        loop over the edges would.
        """
        xy = self.mesh.p2_xy
        s = 0.5 * (GAUSS3_POINTS + 1)  # in [0, 1]
        N = np.stack([(1 - s) * (1 - 2 * s), 4 * s * (1 - s),
                      s * (2 * s - 1)], axis=1)  # (point, node)
        Fu = np.zeros(self.n_udof)
        for edges, g in stress:
            if g is None:
                continue
            p0, d = xy[edges[:, 0]], xy[edges[:, 2]] - xy[edges[:, 0]]
            w = GAUSS3_WEIGHTS * 0.5 * np.linalg.norm(d, axis=1)[:, None]
            pts = p0[:, None] + s[:, None] * d[:, None]  # (edge, point, 2)
            nodes = np.broadcast_to(2 * edges[:, None], w.shape + (3,))
            for comp, t in enumerate(g(pts[..., 0], pts[..., 1])):
                np.add.at(Fu, nodes + comp, (w * t)[..., None] * N)
        return Fu

    def _bar_load(self, coef, rows):
        """Bar load at BJS coefficients coef: zero-padded to rows (the
        factored matrix's), pressure rows scaled."""
        n_free = len(self.free)
        rhs = np.zeros(rows)
        rhs[:n_free] = self._bar_u0 - self._bar_bjs @ coef
        rhs[n_free:n_free + self.n_p] = self._bar_p * self.p_scale
        return rhs


class StokesReference:
    """Sparse LU of a Stokes system at reference BJS samples, for reuse.

    The scaled saddle matrix depends on the coefficients only through its
    BJS entries, and those sit on the r velocity unknowns T of the
    tangential sd trace dofs: A(coef) = A_ref + U D U^T with U = I[:, T]
    and D = system.bjs_block(coef - coef_ref), A_ref being S0 plus the
    BJS block at the reference coefficients.
    factor(kl) returns an operator that solves with A(coef) through
    assembly.UpdatedFactors, an r x r capacitance LU. The kernel
    constraints are detected and bordered once, here; a realization whose
    BJS coefficients leave another kernel has a singular capacitance.

    Every operator's solves read the reference's responses, each solved
    with the LU at its first use: W = A_ref^-1 U (the r unit columns, _w),
    u_bar = A_ref^-1 bar(coef_ref) (mean_bar) and the N_dof unit star
    solves Y0 = A_ref^-1 E with B_bar = -F Y0 and Y0[T] (mean_basis). The
    bar load's BJS lift X (r x n_bjs) sits on rows in T, so
    A_ref^-1 bar(coef) = u_bar - W X (coef - coef_ref). The sparse LU and
    its columns are counted in factorizations and backsolves, as an
    operator's, and harvested as set-up work.
    """

    def __init__(self, system, kl=None):
        self.system = system
        self.coef = system.bjs_coefficients(kl or {})
        T = system.T
        bjs = sp.coo_matrix(system.bjs_block(self.coef))
        S = system.S0 + sp.csc_matrix((bjs.data, (T[bjs.row], T[bjs.col])),
                                      shape=system.S0.shape)
        C = system._kernel_constraints(S)
        if len(C):
            Cs = sp.csr_matrix(np.hstack([C, np.zeros((len(C), system.n_p))]))
            S = sp.bmat([[S, Cs.T], [Cs, None]], format="csc")
        self.kernel_dim = len(C)
        try:
            self.lu = splu(S)
        except RuntimeError as exc:
            raise SingularOperatorError(str(exc)) from exc
        self.X = system._bar_bjs[T]
        self._W = None
        self._bar = None
        self._mean = None
        self.factorizations = 1
        self.backsolves = 0

    def _w(self):
        if self._W is None:
            T = self.system.T
            unit = np.zeros((self.lu.shape[0], len(T)))
            unit[T, np.arange(len(T))] = 1.0
            self._W = self.lu.solve(unit)
            self.backsolves += len(T)
        return self._W

    def mean_bar(self):
        """u_bar, solved at the first call (one backsolve); read-only."""
        if self._bar is None:
            self._bar = self.lu.solve(self.system._bar_load(
                self.coef, self.lu.shape[0]))
            self._bar.flags.writeable = False
            self.backsolves += 1
        return self._bar

    def mean_basis(self):
        """(B_bar, Y0, Y0[T]), solved at the first call and kept. B_bar is
        read-only: every operator at the reference coefficients hands it
        out as its basis."""
        if self._mean is None:
            coupling = self.system.coupling
            n = coupling.n_rows
            Y = self.lu.solve(coupling.star_load(np.eye(n), self.lu.shape[0]))
            self.backsolves += n
            B = -coupling.trace_functionals(Y)
            B.flags.writeable = False
            self._mean = B, Y, Y[self.system.T]
        return self._mean

    def factor(self, kl=None):
        """Operator for the BJS samples kl: the reference LU, updated.

        Where the coefficients leave the BJS entries as they are (D = 0,
        always so when r = 0) the operator solves with the reference LU
        itself.
        """
        system = self.system
        coef = system.bjs_coefficients(kl or {})
        D = system.bjs_block(coef - self.coef)
        lu = self.lu
        if D.any():
            try:
                lu = UpdatedFactors(self.lu, system.T, self._w(), D)
            except SingularOperatorError as exc:
                raise SingularOperatorError(f"{system.name}: {exc}") from None
        return StokesOperator(self, lu, coef)


class StokesOperator(SubdomainOperator):
    """Factored Taylor-Hood operator for the BJS coefficients `coef`.

    Its LU factors the pressure-scaled matrix, bordered by kernel_dim
    rigid-body constraints: the LU of its StokesReference `reference`, or
    that LU updated (assembly.UpdatedFactors). Its solves read the
    reference's responses; the LU solves nothing.
    """

    def __init__(self, reference, lu, coef):
        super().__init__(reference.system, lu)
        self.reference = reference
        self.coef = coef
        coupling = self.system.coupling
        self._FG = (None if lu is reference.lu or coupling is None
                    else coupling.trace_functionals(lu.G))

    @property
    def kernel_dim(self):
        return self.lu.shape[0] - self.system.n_unknowns

    def solve_bar(self, lam=None):
        """Solve with body force, outer Dirichlet lifts, outer tractions
        and, unless lam is None, the star load of the local mortar vector
        lam: one backsolve, and no LU solve. It reads
        y = u_bar - W X (coef - coef_ref) + Y0 lam (see StokesReference)
        and, if updated, takes y - G y[T]."""
        reference, system = self.reference, self.system
        y = reference.mean_bar()
        if lam is not None:
            y = y + reference.mean_basis()[1] @ lam
        if self.lu is not reference.lu:
            y = y - reference._w() @ (reference.X
                                      @ (self.coef - reference.coef))
            y = y - self.lu.G @ y[system.T]
        self._count(y)
        n_free = len(system.free)
        u = system.g_dir.copy()
        u[system.free] = y[:n_free]
        return Solution(u, y[n_free:n_free + system.n_p] * system.p_scale)

    def solve_star(self, lam):
        """Flux response F A^-1 E lam to interface data only:
        -sigma <lam_n, v.n> - sigma <lam_t, v.tau>.

        `lam` is the local mortar vector of this subdomain, whose star load
        is E @ lam (CouplingMaps.star_load), or a block (n_local, m) of
        them, counted as m backsolves. Homogeneous outer data, so that the
        interface operator stays linear in lambda. No LU solve: _response.
        """
        self._count(lam)
        return -self._response(lam)

    def flux_basis(self):
        """-F A^-1 E, column j the response to the unit local mortar
        vector e_j, by solve_star's rule: N_dof backsolves."""
        basis = self._response()
        self._count(basis)
        return basis

    def _response(self, lam=None):
        """-F A^-1 E lam = B_bar lam + (F G)(Y0[T] lam), as an updated
        solve is x = y - G y[T]; lam None is the identity, no product."""
        B, _, Y_T = self.reference.mean_basis()
        if lam is not None:
            B, Y_T = B @ lam, Y_T @ lam
        return B if self._FG is None else B + self._FG @ Y_T

    # -- postprocessing -----------------------------------------------------

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
