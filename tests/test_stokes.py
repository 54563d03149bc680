"""Taylor-Hood P2/P1 Stokes subdomain solver."""

import numpy as np
import pytest
import scipy.sparse as sp

from sdmortar.errors import SingularOperatorError
from sdmortar.geometry import (Block, build_layout, build_subdomain_mesh,
                               locate_trace)
from sdmortar.stokes import StokesBC, trace_nodes

from _oracles import assemble_stokes, solve_star, velocity_trace

NU = 0.7


def make_op(n=4, nu=1.0, alpha=0.0, bcs=None, traces=(), kl=None, f=None,
            rect=(0, 0, 1, 1)):
    mesh = build_subdomain_mesh(Block(rect, "stokes", (n, n)))
    return mesh, assemble_stokes(mesh, nu, alpha, bcs or {}, list(traces),
                                 kl=kl, f=f)


def test_element_matrices_against_symbolic_integration():
    """Assembled element tables match exact integration of the weak form."""
    sympy = pytest.importorskip("sympy")
    xi, eta = sympy.symbols("xi eta")
    l1 = 1 - xi - eta
    N = [l1 * (2 * l1 - 1), xi * (2 * xi - 1), eta * (2 * eta - 1),
         4 * l1 * xi, 4 * xi * eta, 4 * eta * l1]
    M = [l1, xi, eta]

    def tri_int(expr):
        """Exact integral over the reference triangle, monomial by
        monomial: int_T xi^a eta^b = a! b! / (a + b + 2)!."""
        f = sympy.factorial
        return sum(c * f(a) * f(b) / f(a + b + 2) for (a, b), c in
                   sympy.Poly(sympy.expand(expr), xi, eta).terms())

    mesh, op = make_op(n=2, nu=NU, rect=(0, 0, 1, 1),
                       bcs={"right": StokesBC("stress")})
    tables = op.system._shape_tables()
    for shape in (0, 1):
        verts = [sympy.Matrix(v) for v in
                 map(lambda r: [sympy.nsimplify(c) for c in r],
                     mesh.tri_vertices[shape])]
        J = sympy.Matrix.hstack(verts[1] - verts[0], verts[2] - verts[0])
        detJ = sympy.Abs(J.det())
        JinvT = J.inv().T
        grads = [JinvT * sympy.Matrix([sympy.diff(Ni, xi), sympy.diff(Ni, eta)])
                 for Ni in N]

        def D(gu, comp):
            """Symmetric gradient of u = N e_comp with physical gradient gu."""
            gx, gy = gu
            if comp == 0:
                return sympy.Matrix([[gx, gy / 2], [gy / 2, 0]])
            return sympy.Matrix([[0, gx / 2], [gx / 2, gy]])

        A11, A22, A12, B1, B2 = tables[shape]
        for i in range(6):
            for j in range(6):
                pairs = {(0, 0): A11[i, j], (1, 1): A22[i, j],
                         (0, 1): A12[i, j], (1, 0): A12[j, i]}
                for (a, b), got in pairs.items():
                    Du = D(grads[j], b)
                    Dv = D(grads[i], a)
                    frob = (Du.T * Dv).trace()
                    exact = tri_int(2 * NU * frob.expand() * detJ)
                    assert got == pytest.approx(float(exact), abs=1e-13)
        for i in range(3):
            for j in range(6):
                ex1 = tri_int(-M[i] * grads[j][0] * detJ)
                ex2 = tri_int(-M[i] * grads[j][1] * detJ)
                assert B1[i, j] == pytest.approx(float(ex1), abs=1e-14)
                assert B2[i, j] == pytest.approx(float(ex2), abs=1e-14)


def poiseuille_bcs(nu):
    u_in = lambda x, y: (y * (1 - y), 0.0)
    t_out = lambda x, y: (2 * nu, nu * (1 - 2 * y))
    return {
        "left": StokesBC("velocity", u_in),
        "top": StokesBC("velocity", lambda x, y: (0.0, 0.0)),
        "bottom": StokesBC("velocity", lambda x, y: (0.0, 0.0)),
        "right": StokesBC("stress", t_out),
    }


def test_poiseuille_exact():
    """Quadratic velocity and linear pressure are reproduced exactly."""
    mesh, op = make_op(n=4, nu=NU, bcs=poiseuille_bcs(NU))
    sol = op.solve_bar()
    x, y = mesh.p2_xy[:, 0], mesh.p2_xy[:, 1]
    assert np.allclose(sol.u[0::2], y * (1 - y), atol=1e-11)
    assert np.allclose(sol.u[1::2], 0.0, atol=1e-11)
    xp = mesh.p1_xy[:, 0]
    assert np.allclose(sol.p, -2 * NU * xp, atol=1e-10)
    assert op.factorizations == 1


def test_manufactured_solution_convergence():
    """Centroid errors: velocity ~h^3, pressure ~h^2."""
    pi = np.pi
    u_ex = lambda x, y: pi * np.sin(pi * x) * np.cos(pi * y)
    v_ex = lambda x, y: -pi * np.cos(pi * x) * np.sin(pi * y)
    p_ex = lambda x, y: np.sin(pi * x) * np.cos(pi * y)

    def f(x, y):
        fx = 2 * pi ** 3 * np.sin(pi * x) * np.cos(pi * y) \
            + pi * np.cos(pi * x) * np.cos(pi * y)
        fy = -2 * pi ** 3 * np.cos(pi * x) * np.sin(pi * y) \
            - pi * np.sin(pi * x) * np.sin(pi * y)
        return fx, fy

    bcs = {
        "left": StokesBC("velocity", lambda x, y: (u_ex(x, y), v_ex(x, y))),
        "bottom": StokesBC("velocity", lambda x, y: (u_ex(x, y), v_ex(x, y))),
        "top": StokesBC("velocity", lambda x, y: (u_ex(x, y), v_ex(x, y))),
        "right": StokesBC("stress",
                          lambda x, y: (-2 * pi ** 2 * np.cos(pi * y), 0.0)),
    }
    u_errs, p_errs = [], []
    for n in (4, 8, 16):
        mesh, op = make_op(n=n, nu=1.0, bcs=bcs, f=f)
        sol = op.solve_bar()
        vel, prs = op.cell_values(sol)
        xc = mesh.tri_vertices.mean(axis=1)
        area = 0.5 * mesh.hx * mesh.hy
        du = (vel[:, 0] - u_ex(xc[:, 0], xc[:, 1])) ** 2 \
            + (vel[:, 1] - v_ex(xc[:, 0], xc[:, 1])) ** 2
        u_errs.append(np.sqrt(np.sum(du * area)))
        dp = (prs - p_ex(xc[:, 0], xc[:, 1])) ** 2
        p_errs.append(np.sqrt(np.sum(dp * area)))
    u_errs, p_errs = np.array(u_errs), np.array(p_errs)
    assert np.all(u_errs[:-1] / u_errs[1:] > 3.5)
    assert np.all(p_errs[:-1] / p_errs[1:] > 1.8)


def test_kernel_dimensions():
    """All-stress data leaves 3 rigid-body modes; one velocity side kills all."""
    stress = {s: StokesBC("stress") for s in ("left", "right", "bottom", "top")}
    _, op = make_op(n=2, bcs=stress)
    assert op.kernel_dim == 3
    sol = op.solve_bar()
    assert np.max(np.abs(sol.u)) < 1e-12
    assert np.max(np.abs(sol.p)) < 1e-12

    mixed = dict(stress)
    mixed["left"] = StokesBC("velocity", lambda x, y: (0.0, 0.0))
    _, op2 = make_op(n=2, bcs=mixed)
    assert op2.kernel_dim == 0


def test_all_velocity_is_singular():
    bcs = {s: StokesBC("velocity") for s in ("left", "right", "bottom", "top")}
    with pytest.raises(SingularOperatorError):
        make_op(n=2, bcs=bcs)


def sd_setup(n=8, alpha=0.0, kvals=None, top=None):
    """Stokes block over a Darcy block; return op and its sd trace."""
    layout = build_layout([
        Block((0, 0, 1, 1), "darcy", (n, n), 0),
        Block((0, 1, 1, 2), "stokes", (n, n)),
    ])
    g = layout.interfaces[0]
    mesh = build_subdomain_mesh(layout.blocks[1])
    tr = locate_trace(mesh, layout.blocks[1], g)
    bcs = {
        "top": StokesBC("velocity", top or (lambda x, y: (1.0, 0.0))),
        "left": StokesBC("stress"),
        "right": StokesBC("stress"),
    }
    kl = {g.index: kvals if kvals is not None else np.ones(n)}
    op = assemble_stokes(mesh, NU, alpha, bcs, [tr], kl=kl)
    return g, tr, op


def test_bjs_slip_behavior():
    """No friction passes the lid motion through; strong friction stops it."""
    _, tr, op0 = sd_setup(alpha=0.0)
    sol0 = op0.solve_bar()
    un0, ut0 = velocity_trace(tr, sol0)
    # free slip: uniform translation is the exact solution
    assert np.allclose(ut0, 1.0, atol=1e-10)
    assert np.allclose(un0, 0.0, atol=1e-10)

    _, _, op_inf = sd_setup(alpha=1e8)
    sol_inf = op_inf.solve_bar()
    _, ut_inf = velocity_trace(tr, sol_inf)
    assert np.max(np.abs(ut_inf)) < 1e-4

    _, _, op1 = sd_setup(alpha=5.0)
    sol1 = op1.solve_bar()
    _, ut1 = velocity_trace(tr, sol1)
    assert np.all(ut1 > 1e-3)
    assert np.all(ut1 < 0.999)


def test_bjs_quadratic_form_hand_value():
    """x-translation energy of the friction term is sum(nu a L / sqrt(K))."""
    n = 8
    rng = np.random.default_rng(7)
    kvals = rng.uniform(0.5, 2.0, n)
    alpha = 2.0
    _, _, op0 = sd_setup(n=n, alpha=0.0, kvals=kvals)
    g, _, op1 = sd_setup(n=n, alpha=alpha, kvals=kvals)
    assert op0.system.n_bjs == 0
    # the friction form A(alpha) - A(0), from the BJS entries
    system = op1.system
    rows, cols, vals, which = system._bjs_entries()
    coef = system.bjs_coefficients({g.index: kvals})
    dA = sp.coo_matrix((vals * coef[which], (rows, cols)),
                       shape=(system.n_udof, system.n_udof)).toarray()
    z = np.zeros(system.n_udof)
    z[0::2] = 1.0
    expect = np.sum(NU * alpha / np.sqrt(kvals) * (1.0 / n))
    assert z @ dA @ z == pytest.approx(expect, rel=1e-12)
    # friction acts on the tangential (x) component only
    zy = np.zeros(system.n_udof)
    zy[1::2] = 1.0
    assert zy @ dA @ zy == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(dA, dA.T)


def test_bar_solve_satisfies_full_system_with_bjs_lift():
    """Dirichlet data at an sd trace end enters the lift through BJS."""
    n = 6
    layout = build_layout([
        Block((0, 0, 1, 1), "darcy", (n, n), 0),
        Block((0, 1, 1, 2), "stokes", (n, n)),
    ])
    g = layout.interfaces[0]
    mesh = build_subdomain_mesh(layout.blocks[1])
    tr = locate_trace(mesh, layout.blocks[1], g)
    bcs = {"top": StokesBC("velocity", lambda x, y: (1.0, 0.0)),
           "left": StokesBC("velocity", lambda x, y: (0.5, 0.2 * y)),
           "right": StokesBC("stress")}
    kl = {g.index: np.random.default_rng(2).uniform(0.5, 2.0, n)}
    op = assemble_stokes(mesh, NU, 2.0, bcs, [tr], kl=kl)
    system = op.system
    assert system.g_dir[2 * trace_nodes(tr)[0]] == 0.5  # the trace end is fixed
    sol = op.solve_bar()
    tables = system._shape_tables()
    rows, cols, vals, which = system._bjs_entries()
    coef = system.bjs_coefficients(kl)
    A = system._assemble_viscous(tables) + sp.coo_matrix(
        (vals * coef[which], (rows, cols)), shape=(system.n_udof,) * 2)
    B = system._assemble_divergence(tables)
    r_u = (A @ sol.u + B.T @ sol.p)[system.free]
    scale = abs(A).max() * np.abs(sol.u).max()
    assert np.abs(r_u).max() <= 1e-10 * scale
    assert np.abs(B @ sol.u).max() <= 1e-10 * abs(B).max() * np.abs(sol.u).max()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_bjs_rejects_non_finite_permeability(bad):
    kvals = np.ones(8)
    kvals[2] = bad
    with pytest.raises(ValueError, match="BJS on interface 0: 1 of 8"):
        sd_setup(alpha=1.0, kvals=kvals)


def test_bad_permeability_under_bjs_names_the_stokes_subdomain(case1,
                                                               monkeypatch):
    problem = case1.problem
    y = np.zeros(case1.grid.n_dims)
    reference = problem.stokes_reference(0)
    kl = problem.sample_permeability(0, y)
    kl[next(iter(kl))][0] = np.nan
    monkeypatch.setattr(problem, "sample_permeability", lambda sid, y: kl)
    with pytest.raises(ValueError, match="subdomain 0, BJS on interface"):
        problem.assemble_subdomain(0, y, reference)


def test_star_solve_ignores_outer_dirichlet():
    """Star solves see homogeneous outer data regardless of the lift."""
    g, tr, op_a = sd_setup(alpha=0.0, top=lambda x, y: (1.0, 0.0))
    _, _, op_b = sd_setup(alpha=0.0, top=lambda x, y: (-3.0, 0.0))
    lam_n = np.linspace(0.0, 1.0, 2 * 8 + 1)
    sa = solve_star(op_a, 1, [(g, tr)], {g.index: (lam_n, None)})
    sb = solve_star(op_b, 1, [(g, tr)], {g.index: (lam_n, None)})
    assert np.allclose(sa.u, sb.u, atol=1e-13)
    assert np.allclose(sa.p, sb.p, atol=1e-13)


def test_star_linearity():
    g, tr, op = sd_setup(alpha=0.0)
    rng = np.random.default_rng(11)
    a = rng.standard_normal(2 * 8 + 1)
    b = rng.standard_normal(2 * 8 + 1)
    sa = solve_star(op, 1, [(g, tr)], {g.index: (a, None)})
    sb = solve_star(op, 1, [(g, tr)], {g.index: (b, None)})
    sab = solve_star(op, 1, [(g, tr)], {g.index: (a + 2 * b, None)})
    assert np.allclose(sab.u, sa.u + 2 * sb.u, atol=1e-11)
    assert np.allclose(sab.p, sa.p + 2 * sb.p, atol=1e-11)


def test_velocity_trace_frame():
    """Trace values are the solution sampled in the fixed (n, tau) frame."""
    g, tr, op = sd_setup(alpha=0.0)
    sol = op.solve_bar()
    un, ut = velocity_trace(tr, sol)
    assert un.shape == ut.shape == (2 * 8 + 1,)
    nodes = trace_nodes(tr)
    ux = sol.u[2 * nodes]
    uy = sol.u[2 * nodes + 1]
    # fixed frame points from the lower id (darcy, below) upward
    assert tuple(tr.iface.normal) == (0.0, 1.0)
    assert g.side_sign(1) == -1  # the Stokes block is the higher-id side
    assert np.allclose(un, uy)
    assert np.allclose(ut, ux)


def test_backsolve_counter():
    _, op = make_op(n=2, bcs=poiseuille_bcs(1.0), nu=1.0)
    op.solve_bar()
    op.solve_bar()
    assert op.factorizations == 1
    assert op.backsolves == 2
