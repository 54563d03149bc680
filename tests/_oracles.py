"""Independent reference solvers used only by the tests."""

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from sdmortar.assembly import Solution
from sdmortar.config import validate_config
from sdmortar.darcy import DarcyOperator, DarcySystem, _cell_edge_table
from sdmortar.errors import ConfigError, ConvergenceError
from sdmortar.interface import SolveStats, compute_flux_basis
from sdmortar.moments import MomentAccumulator
from sdmortar.mortar import pairing
from sdmortar.output import _cell_arrays, _darcy_cells
from sdmortar.stokes import (_QP, _QW, EDGE_MASS, StokesReference,
                             StokesSystem, _p2_shapes, trace_nodes)


def monolithic_rt0(rect, nx, ny, K, nu=1.0, p_left=1.0, p_right=0.0):
    """Global RT0/P0 Darcy solve on one grid: left/right pressure, else no-flow.

    Written from scratch against the mixed weak form so it can serve as an
    oracle for the domain-decomposed solver. Returns cell pressures and
    cell-center velocities.
    """
    x0, y0, x1, y1 = rect
    hx, hy = (x1 - x0) / nx, (y1 - y0) / ny
    n_cells = nx * ny
    nv = (nx + 1) * ny

    def vid(ix, iy):
        return iy * (nx + 1) + ix

    def hid(ix, iy):
        return nv + iy * nx + ix

    n_edges = nv + nx * (ny + 1)

    # no-flow on top and bottom: fix horizontal edges there to zero
    fixed = set()
    for ix in range(nx):
        fixed.add(hid(ix, 0))
        fixed.add(hid(ix, ny))
    keep = np.array(sorted(set(range(n_edges)) - fixed))
    red = -np.ones(n_edges, dtype=int)
    red[keep] = np.arange(len(keep))
    n_u = len(keep)

    area = hx * hy
    rows, cols, vals = [], [], []
    brows, bcols, bvals = [], [], []
    for iy in range(ny):
        for ix in range(nx):
            c = iy * nx + ix
            w, e = vid(ix, iy), vid(ix + 1, iy)
            s, n = hid(ix, iy), hid(ix, iy + 1)
            coef = nu / K[c] * area
            for (a, b), m in (((w, w), 1 / 3), ((e, e), 1 / 3),
                              ((w, e), 1 / 6), ((e, w), 1 / 6),
                              ((s, s), 1 / 3), ((n, n), 1 / 3),
                              ((s, n), 1 / 6), ((n, s), 1 / 6)):
                ra, rb = red[a], red[b]
                if ra >= 0 and rb >= 0:
                    rows.append(ra)
                    cols.append(rb)
                    vals.append(coef * m)
            # -(div u, q): div contributes (u_e - u_w) hy + (u_n - u_s) hx
            for a, bv in ((w, hy), (e, -hy), (s, hx), (n, -hx)):
                ra = red[a]
                if ra >= 0:
                    brows.append(c)
                    bcols.append(ra)
                    bvals.append(bv)

    A = sp.coo_matrix((vals, (rows, cols)), shape=(n_u, n_u)).tocsr()
    B = sp.coo_matrix((bvals, (brows, bcols)), shape=(n_cells, n_u)).tocsr()
    rhs = np.zeros(n_u + n_cells)
    # pressure data enters the momentum rows through the boundary term
    # (p, v . n): on the left boundary v . n = -1 for the +x edge basis.
    for iy in range(ny):
        rhs[red[vid(0, iy)]] += p_left * hy
        rhs[red[vid(nx, iy)]] -= p_right * hy

    S = sp.bmat([[A, B.T], [B, None]], format="csc")
    sol = splu(S).solve(rhs)
    u_red, p = sol[:n_u], sol[n_u:]
    u = np.zeros(n_edges)
    u[keep] = u_red

    vel = np.empty((n_cells, 2))
    for iy in range(ny):
        for ix in range(nx):
            c = iy * nx + ix
            vel[c, 0] = 0.5 * (u[vid(ix, iy)] + u[vid(ix + 1, iy)])
            vel[c, 1] = 0.5 * (u[hid(ix, iy)] + u[hid(ix, iy + 1)])
    return p, vel


def plain_cg(apply_fn, g, tol=1e-9, max_iter=None):
    """The unpreconditioned interface CG as it was before preconditioning.

    cg_solve with precond=None must reproduce it bit for bit.
    """
    n = len(g)
    x = np.zeros(n)
    gnorm = float(np.linalg.norm(g))
    if gnorm == 0.0:
        return x, 0, []
    if max_iter is None:
        max_iter = max(50, 10 * n)
    r = g.copy()
    p = r.copy()
    rr = float(r @ r)
    residuals = []
    for it in range(1, max_iter + 1):
        Sp = apply_fn(p)
        pSp = float(p @ Sp)
        if pSp <= 0.0:
            raise ConvergenceError(
                f"interface operator is not positive definite "
                f"(p.Sp = {pSp:.3e} at iteration {it})", residuals)
        a = rr / pSp
        x += a * p
        r -= a * Sp
        rn = float(np.linalg.norm(r))
        residuals.append(rn / gnorm)
        if rn <= tol * gnorm:
            return x, it, residuals
        rr_new = float(r @ r)
        p = r + (rr_new / rr) * p
        rr = rr_new
    raise ConvergenceError(
        f"CG did not reach tol {tol:g} in {max_iter} iterations "
        f"(last residual {residuals[-1]:.3e})", residuals)


def per_column_flux_basis(problem, sid, op):
    """The flux basis as it was built before block solves.

    One star solve per local mortar dof, column by column;
    compute_flux_basis must reproduce it to round-off. A Stokes star
    solve reads the same mean-field responses as its basis, so a Stokes
    column is solved with the operator's own LU instead
    (lu_star_response), which counts nothing.
    """
    dofs = problem.space.sub_dofs(problem.layout, sid)
    nd = len(dofs)
    solve = (op.solve_star if isinstance(op, DarcyOperator)
             else lambda lam: lu_star_response(op, lam))
    B = np.empty((nd, nd))
    unit = np.zeros(nd)
    for j in range(nd):
        unit[j] = 1.0
        B[:, j] = -solve(unit)
        unit[j] = 0.0
    return dofs, B


def loop_stokes_connectivity(mesh):
    """StokesMesh's (conn_p2, conn_p1, tri_vertices) as they were built:
    a loop over cells that splits each along its bottom-left to top-right
    diagonal. The lattice arithmetic must reproduce them bit for bit."""
    nx, mx = mesh.nx, mesh.mx
    tris = []
    for iy in range(mesh.ny):
        for ix in range(nx):
            bl = (2 * ix, 2 * iy)
            br = (2 * ix + 2, 2 * iy)
            tr = (2 * ix + 2, 2 * iy + 2)
            tl = (2 * ix, 2 * iy + 2)
            tris.append((bl, br, tr))  # lower triangle
            tris.append((bl, tr, tl))  # upper triangle

    def lat(p):
        return p[1] * mx + p[0]

    def mid(a, b):
        return ((a[0] + b[0]) // 2, (a[1] + b[1]) // 2)

    def vid(p):
        return (p[1] // 2) * (nx + 1) + (p[0] // 2)

    conn2 = np.empty((len(tris), 6), dtype=int)
    conn1 = np.empty((len(tris), 3), dtype=int)
    for t, (a, b, c) in enumerate(tris):
        conn2[t] = [lat(a), lat(b), lat(c),
                    lat(mid(a, b)), lat(mid(b, c)), lat(mid(c, a))]
        conn1[t] = [vid(a), vid(b), vid(c)]
    verts = np.array([[mesh.p2_xy[lat(a)], mesh.p2_xy[lat(b)],
                       mesh.p2_xy[lat(c)]] for (a, b, c) in tris])
    return conn2, conn1, verts


def loop_boundary_edges(mesh, side):
    """mesh.boundary_edges(side) as it was built: a loop along the side.

    Darcy: the edge ids; Stokes: the (start, mid, end) P2 node triples.
    """
    if hasattr(mesh, "n_edges"):
        if side in ("left", "right"):
            ix = 0 if side == "left" else mesh.nx
            return np.array([mesh.vedge(ix, iy) for iy in range(mesh.ny)])
        iy = 0 if side == "bottom" else mesh.ny
        return np.array([mesh.hedge(ix, iy) for ix in range(mesh.nx)])
    out = []
    if side in ("bottom", "top"):
        iy = 0 if side == "bottom" else mesh.my - 1
        for ix in range(mesh.nx):
            out.append((mesh.lattice(2 * ix, iy),
                        mesh.lattice(2 * ix + 1, iy),
                        mesh.lattice(2 * ix + 2, iy)))
    else:
        ix = 0 if side == "left" else mesh.mx - 1
        for iy in range(mesh.ny):
            out.append((mesh.lattice(ix, 2 * iy),
                        mesh.lattice(ix, 2 * iy + 1),
                        mesh.lattice(ix, 2 * iy + 2)))
    return np.array(out)


def loop_body_force(system):
    """StokesSystem._body_force as it was: a loop over triangles and points.

    The array version must reproduce it bit for bit.
    """
    mesh = system.mesh
    Fu = np.zeros(system.n_udof)
    if system.f is None:
        return Fu
    for t in range(mesh.n_tri):
        verts = mesh.tri_vertices[t]
        J = np.column_stack([verts[1] - verts[0], verts[2] - verts[0]])
        detJ = abs(np.linalg.det(J))
        nd = mesh.conn_p2[t]
        for (xi, eta), w in zip(_QP, _QW):
            N, _ = _p2_shapes(xi, eta)
            x, y = verts[0] + J @ np.array([xi, eta])
            fx, fy = system.f(x, y)
            Fu[2 * nd] += w * detJ * fx * N
            Fu[2 * nd + 1] += w * detJ * fy * N
    return Fu


# -- the dict-based coupling path --------------------------------------------
#
# Before the coupling maps E_i/F_i the program coupled a subdomain to the
# mortar interface by interface: it L2-projected the mortar onto the fine
# trace space (star_data), built the star load from those trace values
# (trace_load), paired the traces of a solution back against the mortar
# basis (side_functionals) and summed the signed per-side entries
# (entry_jump). The maps must reproduce it to round-off.


def p2_trace_mass(fine_breaks):
    """1D continuous-quadratic mass matrix on the fine partition (dense)."""
    n = len(fine_breaks) - 1
    M = np.zeros((2 * n + 1, 2 * n + 1))
    unit = np.array([[4, 2, -1], [2, 16, 2], [-1, 2, 4]]) / 30.0
    for e in range(n):
        L = fine_breaks[e + 1] - fine_breaks[e]
        idx = [2 * e, 2 * e + 1, 2 * e + 2]
        M[np.ix_(idx, idx)] += L * unit
    return M


@dataclass
class SideCoupling:
    """Exact coupling of one mortar block to one subdomain's trace space."""

    block: object  # mortar.MortarBlock
    kind: str  # "darcy" | "stokes"
    R: np.ndarray  # (n_scalar, n_trace_items)
    mass: np.ndarray  # diag lengths (darcy) or dense P2 mass (stokes)

    def to_trace(self, coeffs_scalar):
        """L2 projection of a scalar mortar function onto the trace space."""
        rhs = self.R.T @ np.asarray(coeffs_scalar, dtype=float)
        if self.kind == "darcy":
            return rhs / self.mass
        return np.linalg.solve(self.mass, rhs)

    def functional(self, g):
        """<g, xi_m> for a trace-space function g (nodal/per-edge values)."""
        return self.R @ np.asarray(g, dtype=float)


def side_coupling(block, fine_breaks, kind):
    """SideCoupling of a mortar block to a trace with these breakpoints."""
    fine = np.asarray(fine_breaks, dtype=float)
    mass = np.diff(fine) if kind == "darcy" else p2_trace_mass(fine)
    return SideCoupling(block, kind, pairing(block, fine, kind), mass)


def component_dofs(block, comp):
    """Global dof ids of one component of a mortar block, scalar-ordered."""
    return block.offset + np.arange(block.n_scalar) * block.n_comp + comp


def entry_jump(space, side_entries):
    """Assemble b_Lambda(v, .) from per-side trace functionals.

    side_entries: list of (iface_index, sigma, funcs) where sigma is the
    side sign (+1 lower id, -1 higher) and funcs is a tuple of per-component
    functional vectors (scalar interfaces: one entry; ss: normal, tangent).
    The signed sum realizes [v.n] = v_i.n_i + v_j.n_j. Every interface that
    appears must appear once per side.
    """
    out = np.zeros(space.n_dof)
    seen = {}
    for iface_index, sigma, funcs in side_entries:
        b = space.blocks[iface_index]
        if len(funcs) != b.n_comp:
            raise ValueError(
                f"interface {iface_index}: expected {b.n_comp} components, "
                f"got {len(funcs)}")
        for comp, f in enumerate(funcs):
            out[component_dofs(b, comp)] += sigma * np.asarray(f, dtype=float)
        seen.setdefault(iface_index, []).append(sigma)
    for idx, sigmas in seen.items():
        if sorted(sigmas) != [-1, 1]:
            raise RuntimeError(f"interface {idx}: jump needs both sides")
    return out


def flux_on_interface(trace, sol):
    """Darcy u.n in the fixed interface frame, one value per fine edge."""
    return trace.iface.normal_sign * sol.u[trace.edges]


def velocity_trace(trace, sol):
    """Stokes (u.n, u.tau) flat nodal values in the fixed interface frame.

    Arrays have length 2*n_edges + 1, the 1D quadratic trace lattice
    (vertex, midpoint, vertex, ...) that solve_star consumes.
    """
    nodes = trace_nodes(trace)
    ux = sol.u[2 * nodes]
    uy = sol.u[2 * nodes + 1]
    n, tau = trace.iface.normal, trace.iface.tangent
    return ux * n[0] + uy * n[1], ux * tau[0] + uy * tau[1]


def _darcy_trace_load(op, sid, sides, data):
    """-<lam, v.n_out> of per-edge values lam on each trace.

    The +x/+y edge orientation is outward where sigma_out = +1.
    """
    system = op.system
    rhs = np.zeros(system.n_u + system.n_p)
    for idx, vals in data.items():
        g, t = sides[idx]
        sigma_out = t.iface.normal_sign * g.side_sign(sid)
        lengths = np.array([op.mesh.edge_length(e) for e in t.edges])
        rhs[system.red_index[t.edges]] -= (sigma_out * np.asarray(vals)
                                           * lengths)
    return rhs


def _stokes_trace_load(op, sid, sides, data):
    """-sigma <lam_n, v.n> - sigma <lam_tau, v.tau> of nodal trace values.

    data maps interface index -> (lam_n, lam_tau); lam_tau may be None.
    sigma is +1 on the interface's lower-id side, -1 on the higher.
    """
    system = op.system
    Fu = np.zeros(system.n_udof)
    for idx, (lam_n, lam_t) in data.items():
        g, t = sides[idx]
        sigma = g.side_sign(sid)
        comps = [(np.asarray(lam_n, dtype=float), t.iface.normal)]
        if lam_t is not None:
            comps.append((np.asarray(lam_t, dtype=float), t.iface.tangent))
        for vals, direction in comps:
            for e_idx, triple in enumerate(t.edges):
                L = t.s_breaks[e_idx + 1] - t.s_breaks[e_idx]
                loc = vals[2 * e_idx:2 * e_idx + 3]
                contrib = -sigma * L * (EDGE_MASS @ loc)
                for i, node in enumerate(triple):
                    Fu[2 * node] += direction[0] * contrib[i]
                    Fu[2 * node + 1] += direction[1] * contrib[i]
    return Fu[system.free]


def solve_star(op, sid, sides, data):
    """Star solve of subdomain sid's operator with per-interface trace data.

    sides are (interface, trace) pairs of the subdomain; data maps interface
    index -> per-edge values (Darcy) or (lam_n, lam_tau) nodal values
    (Stokes), as star_data returns them. Solved by lu_solution: one
    backsolve for a Darcy operator, none for a Stokes one.
    """
    sides = {g.index: (g, t) for g, t in sides}
    load = (_darcy_trace_load if isinstance(op, DarcyOperator)
            else _stokes_trace_load)(op, sid, sides, data)
    rhs = np.zeros(op.lu.shape[0])  # zero pressure and constraint rows
    rhs[:len(load)] = load
    return lu_solution(op, rhs)


def trace_sides(problem, sid):
    """(interface, trace) of every interface of sid, as solve_star takes."""
    return [(t.iface, t) for t in problem.traces[sid]]


def trace_coupling(trace, trace_dofs):
    """Coupling entries (rows, cols, vals, n_rows) that pair each trace
    dof with a row of its own (R = I): component c's trace dof k is row
    c n + k, n the dofs per component."""
    parts = trace_dofs(trace)
    cols = np.concatenate([dofs for dofs, _ in parts])
    vals = np.concatenate([np.full(len(dofs), float(coef))
                           for dofs, coef in parts])
    return np.arange(len(cols)), cols, vals, len(cols)


# -- the sparse coupling pipeline ----------------------------------------------
#
# Before CouplingMaps placed F_i's entries itself, the program built F_i as
# a sparse matrix: per interface and component, side_sign R @ T with T a
# selection matrix (trace dof -> velocity dof times the frame coefficient),
# the components stacked, the rows permuted to the mortar dof order and the
# interfaces stacked. CouplingMaps must keep exactly its nonzero columns.


def _selection_maps(problem, sid, trace):
    """Sparse T per trace component: full velocity -> its trace values."""
    if problem.layout.physics(sid) == "darcy":
        n = len(trace.edges)
        return [sp.csr_matrix(
            (np.full(n, float(trace.iface.normal_sign)),
             (np.arange(n), trace.edges)),
            shape=(n, problem.meshes[sid].n_edges))]
    nodes = trace_nodes(trace)
    k = np.arange(len(nodes))
    maps = []
    for d in (trace.iface.normal, trace.iface.tangent):
        T = sp.csr_matrix((np.repeat(d, len(nodes)),
                           (np.tile(k, 2),
                            np.concatenate([2 * nodes, 2 * nodes + 1]))),
                          shape=(len(nodes), 2 * problem.meshes[sid].n_p2))
        T.eliminate_zeros()
        maps.append(T)
    return maps


def sparse_coupling(problem, sid):
    """F_i of subdomain sid as a CSR matrix, from the sparse pipeline."""
    kind = problem.layout.physics(sid)
    blocks = []
    for t in problem.traces[sid]:
        g = t.iface
        mb = problem.space.block(g.index)
        R = sp.csr_matrix(pairing(mb, t.s_breaks, kind))
        comps = sp.vstack([
            g.side_sign(sid) * (R @ T)
            for T in _selection_maps(problem, sid, t)[:mb.n_comp]]).tocsr()
        # block dof k is scalar k // n_comp of component k % n_comp
        k = np.arange(mb.n_dof)
        blocks.append(comps[(k % mb.n_comp) * mb.n_scalar + k // mb.n_comp])
    n_full = problem.systems()[sid].n_udof
    return (sp.vstack(blocks).tocsr() if blocks
            else sp.csr_matrix((0, n_full)))


def _sides(problem, sid):
    """(interface, trace, SideCoupling) of every interface of sid."""
    kind = problem.layout.physics(sid)
    for g, t in trace_sides(problem, sid):
        yield g, t, side_coupling(problem.space.block(g.index), t.s_breaks,
                                  kind)


def star_data(problem, sid, lam):
    """Project a global mortar vector onto subdomain sid's trace spaces."""
    darcy = problem.layout.physics(sid) == "darcy"
    data = {}
    for g, _, coup in _sides(problem, sid):
        mb = coup.block
        lam_n = coup.to_trace(lam[component_dofs(mb, 0)])
        if darcy:
            data[g.index] = lam_n
        else:
            lam_t = None
            if mb.n_comp == 2:
                lam_t = coup.to_trace(lam[component_dofs(mb, 1)])
            data[g.index] = (lam_n, lam_t)
    return data


def side_functionals(problem, sid, sol):
    """Signed per-side entries (iface, sigma, funcs) of a solution of sid."""
    darcy = problem.layout.physics(sid) == "darcy"
    entries = []
    for g, t, coup in _sides(problem, sid):
        if darcy:
            funcs = (coup.functional(flux_on_interface(t, sol)),)
        else:
            un, ut = velocity_trace(t, sol)
            funcs = (coup.functional(un), coup.functional(ut))
            funcs = funcs[:coup.block.n_comp]
        entries.append((g.index, g.side_sign(sid), funcs))
    return entries


def s3_points(problem, grid, sid):
    """Reference stochastic points of S3's operators of subdomain sid.

    A Darcy subdomain gets one per distinct local realization of its
    permeability region, the region's coordinates padded with zeros; a
    Stokes subdomain only the mean field (y = 0).
    """
    block = problem.layout.blocks[sid]
    zero = np.zeros(grid.n_dims)
    if block.physics != "darcy":
        return [zero]
    pts = []
    for loc in local_realization_points(grid, block.kl_region):
        y = zero.copy()
        y[grid.region_slice(block.kl_region)] = loc
        pts.append(y)
    return pts


def prepare_s3(problem, grid, sid, stats):
    """S3 operators of one subdomain, one per s3_points point, with bases.

    The group's S3 prepare must build the same operators in the same order
    and bases equal to these bit for bit.
    """
    ops, bases = [], []
    for y in s3_points(problem, grid, sid):
        op = problem.assemble_subdomain(sid, y)
        ops.append(op)
        bases.append(compute_flux_basis(problem, sid, op, stats))
    return ops, bases


def darcy_saddle_matrix(system, K):
    """Saddle matrix [A B^T; B 0] of a DarcySystem at cell permeabilities K.

    A = (nu/K u, v) and B = -(div u, q) on the free edges, assembled from
    COO triplets whose duplicate positions are summed; this is the matrix
    the subdomain solver factored with SuperLU before the hybridized solve
    replaced it.
    """
    mesh = system.mesh
    w, e, s, n = _cell_edge_table(mesh)
    cells = np.arange(mesh.n_cells)
    area = mesh.hx * mesh.hy
    a = np.concatenate([w, e, w, e, s, n, s, n])
    b = np.concatenate([w, e, e, w, s, n, n, s])
    m = np.repeat([1 / 3, 1 / 3, 1 / 6, 1 / 6] * 2, mesh.n_cells)
    ra, rb = system.red_index[a], system.red_index[b]
    ok = (ra >= 0) & (rb >= 0)
    which = np.tile(cells, 8)[ok]
    # -(div u, q): (u_e - u_w) hy + (u_n - u_s) hx
    edge = np.concatenate([w, e, s, n])
    bval = np.repeat([mesh.hy, -mesh.hy, mesh.hx, -mesh.hx], mesh.n_cells)
    r = system.red_index[edge]
    bok = r >= 0
    prow = system.n_u + np.tile(cells, 4)[bok]
    n_sys = system.n_u + system.n_p
    scale = system.nu / np.asarray(K, dtype=float)
    rows = np.concatenate([prow, r[bok], ra[ok]])
    cols = np.concatenate([r[bok], prow, rb[ok]])
    vals = np.concatenate([bval[bok], bval[bok],
                           area * m[ok] * scale[which]])
    return sp.coo_matrix((vals, (rows, cols)), shape=(n_sys, n_sys)).tocsc()


def stokes_saddle_matrix(system, coef):
    """Unscaled reduced saddle matrix [A + BJS, B^T; B, 0] of a
    StokesSystem at BJS edge coefficients coef.

    Summed from full-numbering COO triplets of the viscous and divergence
    blocks and the BJS entries times coef, then restricted to the free
    velocity dofs and the pressures; explicit zeros are dropped.
    """
    tables = system._shape_tables()
    A = system._assemble_viscous(tables).tocoo()
    B = system._assemble_divergence(tables).tocoo()
    br, bc, bv, which = system._bjs_entries()
    n_u = system.n_udof
    n = n_u + system.n_p
    full = sp.coo_matrix(
        (np.concatenate([A.data, bv * coef[which], B.data, B.data]),
         (np.concatenate([A.row, br, B.col, n_u + B.row]),
          np.concatenate([A.col, bc, n_u + B.row, B.col]))),
        shape=(n, n)).tocsr()
    keep = np.concatenate([system.free, n_u + np.arange(system.n_p)])
    S = full[keep][:, keep].tocsc()
    S.eliminate_zeros()
    return S


def saddle_gap(op, K, rhs):
    """Largest relative gap, max |x - x_ref| / max |x_ref|, of the solve
    of rhs by a Darcy operator factored at K to a sparse LU of its saddle
    matrix; rhs may be a block of columns."""
    ref = splu(darcy_saddle_matrix(op.system, K)).solve(rhs)
    return float(np.max(np.abs(op.lu.solve(rhs) - ref))
                 / np.max(np.abs(ref)))


def fresh_stokes(system, kl=None):
    """Stokes operator on a sparse LU of its own matrix at BJS samples kl:
    a StokesReference at kl itself, so no update is built."""
    return StokesReference(system, kl).factor(kl)


def lu_unknowns(op, rhs):
    """A^-1 rhs by an operator's own factor, counting nothing.

    A Darcy operator's is its HybridFactors. A Stokes operator's is the
    route its solves took before they read its reference's responses: the
    reference's sparse LU gives y = A_ref^-1 rhs, and an updated operator
    (assembly.UpdatedFactors) takes y - G y[T]. rhs has the factor's rows,
    a Stokes load's pressure rows scaled, and may be a column block.
    """
    if isinstance(op, DarcyOperator):
        return op.lu.solve(rhs)
    y = op.reference.lu.solve(rhs)
    return y if op.lu is op.reference.lu else y - op.lu.G @ y[op.system.T]


def star_load(op, lam):
    """E lam of an operator's system at its factor's rows."""
    return op.system.coupling.star_load(lam, op.lu.shape[0])


def lu_solution(op, rhs, lift=None):
    """The fields of the load rhs by lu_unknowns: pressures unscaled, the
    eliminated velocity dofs lift (None: zero). A Darcy operator solves by
    its own _solve, which counts one backsolve per column; a Stokes one
    counts nothing."""
    if isinstance(op, DarcyOperator):
        return op._solve(rhs)
    system = op.system
    x = lu_unknowns(op, rhs)
    n_free = len(system.free)
    u = (np.zeros((system.n_udof,) + rhs.shape[1:]) if lift is None
         else lift.copy())
    u[system.free] = x[:n_free]
    return Solution(u, x[n_free:n_free + system.n_p] * system.p_scale)


def lu_bar_solution(op, lam=None):
    """A Stokes operator's bar solve, with the star load of lam unless it
    is None, by lu_solution: its bar load at its own BJS coefficients,
    solved with its own LU. Counts nothing."""
    system = op.system
    rhs = system._bar_load(op.coef, op.lu.shape[0])
    if lam is not None:
        rhs = rhs + star_load(op, lam)
    return lu_solution(op, rhs, system.g_dir)


def lu_star_response(op, lam):
    """F A^-1 E lam of a Stokes operator by solving its star loads with its
    own LU (lu_unknowns), read at the trace rows; lam may be a column
    block. Counts nothing."""
    return op.system.coupling.trace_functionals(
        lu_unknowns(op, star_load(op, lam)))


def assemble_darcy(mesh, K, nu, bcs, traces, f=None, q=None):
    """A stand-alone Darcy operator. One factorization."""
    return DarcySystem(mesh, nu, bcs, traces, f=f, q=q).factor(K)


def assemble_stokes(mesh, nu, alpha, bcs, traces, kl=None, f=None):
    """A stand-alone Stokes operator on a fresh LU. One factorization."""
    return fresh_stokes(StokesSystem(mesh, nu, alpha, bcs, traces, f=f), kl)


def fresh_operator(problem, sid, y):
    """Operator of sid at collocation point y on a sparse LU of its own
    matrix; a Stokes one is fresh_stokes, not an update of the mean field."""
    system = problem.systems()[sid]
    K = problem.sample_permeability(sid, y)
    if problem.layout.physics(sid) == "darcy":
        return system.factor(K)
    return fresh_stokes(system, K)


def global_to_local_index(grid, region, k):
    """Local realization index of `region` for global realization k."""
    return int(grid.local_indices[region][k])


def count_local_realizations(grid, region):
    """N_real(region): number of distinct local realizations."""
    return grid.local_counts[region]


def local_realization_points(grid, region):
    """Distinct region coordinates, row r = local realization r: the
    point of the first global realization that has it."""
    first = np.unique(grid.local_indices[region], return_index=True)[1]
    return grid.points[first, grid.region_slice(region)]


def parse_config_text(text):
    """Parse JSON text into a normalized config dict."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"invalid JSON: {exc}"]) from None
    return validate_config(raw)


def nystrom_eigenvalues_1d(length, eta, n_eigs, n_quad=2048):
    """Independent check: midpoint-rule Nystrom eigenvalues of the 1D kernel."""
    from scipy.linalg import eigh

    h = length / n_quad
    x = (np.arange(n_quad) + 0.5) * h
    K = np.exp(-np.abs(x[:, None] - x[None, :]) / eta) * h
    vals = eigh(K, eigvals_only=True,
                subset_by_index=[n_quad - n_eigs, n_quad - 1])
    return vals[::-1]


class WeightSumAccumulator(MomentAccumulator):
    """A MomentAccumulator that also sums the weights it is given."""

    total_weight = 0.0

    def add(self, weight, fields):
        super().add(weight, fields)
        self.total_weight += weight


def mean_field_scaling(problem, y):
    """(S_bar, d(y)) of the mean-field preconditioner, from its definition.

    S_bar sums every subdomain's flux basis B_i at y = 0, each from a fresh
    mean-field operator. d(y) sums diag(B_i) kappa_i(y): kappa = 1 on a
    Stokes block; on a Darcy block, row j of F_i (the sparse pipeline's)
    gives kappa_j = exp(sum_e |F_je| log(K(y) / K(0))(c_e) / sum_e |F_je|),
    c_e the one cell whose edge table holds trace edge e.
    """
    n_sub = problem.layout.n_subdomains
    n = problem.space.n_dof
    zero = np.zeros(problem.perm.n_dims)
    stats = SolveStats.new("S2", n_sub)
    S, d = np.zeros((n, n)), np.zeros(n)
    for sid in range(n_sub):
        op = problem.assemble_subdomain(sid, zero)
        dofs, B = compute_flux_basis(problem, sid, op, stats)
        S[np.ix_(dofs, dofs)] += B
        kappa = np.ones(len(dofs))
        if problem.layout.physics(sid) == "darcy":
            cells = {}
            for c, edges in enumerate(zip(*_cell_edge_table(
                    problem.meshes[sid]))):
                for e in edges:
                    cells.setdefault(int(e), []).append(c)
            log_ratio = np.log(problem.sample_permeability(sid, y)
                               / problem.sample_permeability(sid, zero))
            F = abs(sparse_coupling(problem, sid)).toarray()
            for j, row in enumerate(F):
                edges = np.flatnonzero(row)
                assert all(len(cells[e]) == 1 for e in edges)
                kappa[j] = np.exp(sum(row[e] * log_ratio[cells[e][0]]
                                      for e in edges) / row[edges].sum())
        d[dofs] += np.diag(B) * kappa
    return S, d


def _per_value_fmt(v):
    return f"{float(v):.17g}"


def per_value_write_vtk(path, problem, sid, moments):
    """output.write_vtk as it formatted one numpy scalar at a time."""
    mesh = problem.meshes[sid]
    block = problem.layout.blocks[sid]
    if block.physics == "darcy":
        points, conn, ctype = _darcy_cells(mesh, block.rect)
    else:
        points, conn, ctype = mesh.p1_xy, mesh.conn_p1, 5  # VTK_TRIANGLE
    arrays = _cell_arrays(moments, sid)
    n_pts, n_cells = len(points), len(conn)
    lines = [
        "# vtk DataFile Version 3.0",
        f"subdomain {sid} ({block.physics}) moment fields",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {n_pts} double",
    ]
    for p in points:
        lines.append(f"{_per_value_fmt(p[0])} {_per_value_fmt(p[1])} 0")
    lines.append(f"CELLS {n_cells} {n_cells * (1 + conn.shape[1])}")
    for row in conn:
        lines.append(str(conn.shape[1]) + " " + " ".join(str(i) for i in row))
    lines.append(f"CELL_TYPES {n_cells}")
    lines.extend([str(ctype)] * n_cells)
    lines.append(f"CELL_DATA {n_cells}")
    for name, arr in arrays.items():
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(_per_value_fmt(v) for v in arr)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def per_value_write_moments_csv(path, problem, moments):
    """output.write_moments_csv as it formatted one numpy scalar at a
    time."""
    lines = ["x,y,mean_u,mean_v,mean_p,var_u,var_v,var_p"]
    for sid in range(problem.layout.n_subdomains):
        centers = problem.cell_centers(sid)
        arrays = _cell_arrays(moments, sid)
        for c in range(len(centers)):
            vals = [centers[c, 0], centers[c, 1],
                    arrays["mean_u"][c], arrays["mean_v"][c],
                    arrays["mean_p"][c], arrays["var_u"][c],
                    arrays["var_v"][c], arrays["var_p"][c]]
            lines.append(",".join(_per_value_fmt(v) for v in vals))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
