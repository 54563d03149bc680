"""Independent reference solvers used only by the tests."""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from sdmortar.errors import ConvergenceError
from sdmortar.interface import star_response
from sdmortar.stokes import _QP, _QW, _p2_shapes


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
    compute_flux_basis must reproduce it to round-off.
    """
    dofs = problem.space.sub_dofs(problem.layout, sid)
    nd = len(dofs)
    B = np.empty((nd, nd))
    unit = np.zeros(nd)
    for j in range(nd):
        unit[j] = 1.0
        B[:, j] = star_response(op, unit)
        unit[j] = 0.0
    return dofs, B


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
