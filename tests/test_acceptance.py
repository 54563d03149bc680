"""End-to-end acceptance checks, one visible verdict line per criterion."""

import itertools
import os
import time

import numpy as np
from scipy.linalg import eigh

from sdmortar.collocation import build_sparse_grid, build_tensor_grid
from sdmortar.darcy import DarcyBC, assemble_darcy
from sdmortar.driver import run_file
from sdmortar.geometry import Block, build_subdomain_mesh
from sdmortar.interface import (SolveStats, _Groups, run_method,
                                solve_realization)
from sdmortar.random_field import solve_1d_eigenpairs
from sdmortar.stokes import StokesBC, assemble_stokes

from conftest import CONFIG_DIR, load_case
from _oracles import monolithic_rt0


def _report(capsys, num, ok, detail):
    """Print one verdict line on the real terminal, then enforce it."""
    ok = bool(ok)
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print("\n" + line, flush=True)
    assert ok, line


def _sub_dofs(problem):
    layout = problem.layout
    return [problem.space.sub_dofs(layout, s).size
            for s in range(layout.n_subdomains)]


def _rel(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-300)
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) / denom)


def _max_rel_lambda(res_a, res_b):
    return max(_rel(la, lb) for la, lb in zip(res_a.lambdas, res_b.lambdas))


def _max_rel_moments(res_a, res_b):
    worst = 0.0
    for key, (mean_a, var_a) in res_a.moments.items():
        mean_b, var_b = res_b.moments[key]
        worst = max(worst, _rel(mean_a, mean_b), _rel(var_a, var_b))
    return worst


def test_criterion_01_solve_count_identities(case1, case1_sweeps, capsys):
    """Backsolve and factorization counts follow the method bookkeeping."""
    problem, grid = case1.problem, case1.grid
    n_real = grid.n_real
    n_sub = problem.layout.n_subdomains
    n_dof = _sub_dofs(problem)
    n_loc = [int(c) for c in grid.local_counts]
    blocks = problem.layout.blocks
    ok = n_dof == [12, 12, 20, 20, 16, 16] and n_real == 32
    results = case1_sweeps.results

    s1 = results["S1"].stats
    iters = int(sum(s1.cg_iters))
    ok &= all(int(s1.backsolves[s]) == iters + 2 * n_real
              for s in range(n_sub))
    ok &= all(int(s1.factorizations[s]) == n_real for s in range(n_sub))

    s2 = results["S2"].stats
    ok &= all(int(s2.backsolves[s]) == (n_dof[s] + 2) * n_real
              for s in range(n_sub))
    ok &= all(int(s2.basis_backsolves[s]) == n_dof[s] * n_real
              for s in range(n_sub))
    ok &= all(int(s2.factorizations[s]) == n_real for s in range(n_sub))

    s3 = results["S3"].stats
    for sid in range(n_sub):
        if blocks[sid].physics == "stokes":
            reuse = 1
        else:
            reuse = n_loc[blocks[sid].kl_region]
        ok &= int(s3.backsolves[sid]) == n_dof[sid] * reuse + 2 * n_real
        ok &= int(s3.factorizations[sid]) == reuse

    total = sum(case1_sweeps.seconds.values())
    ok &= total < 120.0
    _report(capsys, 1, ok,
            f"per-subdomain backsolves S1 {int(s1.backsolves[0])} "
            f"(= {iters} cg + 64), S2 {[int(v) for v in s2.backsolves]}, "
            f"S3 {[int(v) for v in s3.backsolves]}; "
            f"all three sweeps in {total:.1f} s")


def test_criterion_02_basis_reuse_ratio(case1, case1_sweeps, capsys):
    """Reusing local bases divides basis backsolves by the reuse factor."""
    bb2 = case1_sweeps.results["S2"].stats.basis_backsolves
    bb3 = case1_sweeps.results["S3"].stats.basis_backsolves
    ratios = [bb2[s] / bb3[s] for s in (4, 5)]
    ok = ratios == [4.0, 4.0]

    sparse = load_case("case1_mini_sparse")
    r2 = run_method(sparse.problem, sparse.grid, method="S2")
    r3 = run_method(sparse.problem, sparse.grid, method="S3")
    nd = _sub_dofs(sparse.problem)
    n_real = sparse.grid.n_real
    n_loc = [int(c) for c in sparse.grid.local_counts]
    ok &= n_real == 21 and n_loc == [11, 11]
    for sid, block in enumerate(sparse.problem.layout.blocks):
        ok &= int(r2.stats.basis_backsolves[sid]) == nd[sid] * n_real
        if block.physics == "darcy":
            reg = block.kl_region
            ok &= int(r3.stats.basis_backsolves[sid]) == nd[sid] * n_loc[reg]
            ok &= (int(r2.stats.basis_backsolves[sid]) * n_loc[reg]
                   == int(r3.stats.basis_backsolves[sid]) * n_real)
    _report(capsys, 2, ok,
            f"tensor grid: S2/S3 basis backsolves = {ratios[0]:.1f} on both "
            f"subdomains of the deeper region; sparse grid: 21 vs 11 local "
            f"solves per mortar dof, exact on every Darcy subdomain")


def test_criterion_03_method_equivalence(case1_sweeps, case1_alpha0_sweeps,
                                         capsys):
    """All variants agree without slip; the frozen-basis drift is reported."""
    r0 = case1_alpha0_sweeps.results
    pairs = (("S1", "S2"), ("S1", "S3"), ("S2", "S3"))
    lam0 = max(_max_rel_lambda(r0[a], r0[b]) for a, b in pairs)
    mom0 = max(_max_rel_moments(r0[a], r0[b]) for a, b in pairs)
    ok = lam0 <= 1e-8 and mom0 <= 1e-8

    r1 = case1_sweeps.results
    lam12 = _max_rel_lambda(r1["S1"], r1["S2"])
    mom12 = _max_rel_moments(r1["S1"], r1["S2"])
    ok &= lam12 <= 1e-8 and mom12 <= 1e-8
    drift = _max_rel_lambda(r1["S1"], r1["S3"])
    _report(capsys, 3, ok,
            f"alpha=0 pairwise rel diffs {lam0:.1e} (mortar) / {mom0:.1e} "
            f"(moments); alpha=1 S1 vs S2 {lam12:.1e}; S3 frozen-basis "
            f"drift {drift:.1e} reported, not asserted")


def test_criterion_04_matches_monolithic_darcy(twoblock, capsys):
    """Matching grids with a trace-space mortar reproduce one global solve."""
    problem, grid = twoblock.problem, twoblock.grid
    t0 = time.perf_counter()
    nx, ny = 16, 8
    hx, hy = 2.0 / nx, 1.0 / ny
    ix, iy = np.meshgrid(np.arange(nx), np.arange(ny))
    xg = ((ix + 0.5) * hx).ravel()
    yg = ((iy + 0.5) * hy).ravel()
    worst_p = worst_v = 0.0
    for y_pt in (np.zeros(3), grid.points[3], grid.points[6]):
        per_sid, _, _ = solve_realization(problem, y_pt)
        Kg = problem.perm.realize(0, xg, yg, y_pt)
        p_ref, v_ref = monolithic_rt0((0, 0, 2, 1), nx, ny, Kg)
        p_err = v_err = p_nrm = v_nrm = 0.0
        for sid in (0, 1):
            c = problem.cell_centers(sid)
            gidx = (np.rint(c[:, 1] / hy - 0.5).astype(int) * nx
                    + np.rint(c[:, 0] / hx - 0.5).astype(int))
            p_err += np.sum((per_sid[sid]["cp"] - p_ref[gidx]) ** 2)
            p_nrm += np.sum(p_ref[gidx] ** 2)
            v_err += np.sum((per_sid[sid]["cv"] - v_ref[gidx]) ** 2)
            v_nrm += np.sum(v_ref[gidx] ** 2)
        worst_p = max(worst_p, float(np.sqrt(p_err / p_nrm)))
        worst_v = max(worst_v, float(np.sqrt(v_err / v_nrm)))
    secs = time.perf_counter() - t0
    ok = worst_p <= 1e-8 and worst_v <= 1e-8 and secs < 5.0
    _report(capsys, 4, ok,
            f"pressure rel err {worst_p:.1e}, velocity rel err {worst_v:.1e} "
            f"against the single-grid solver over 3 realizations "
            f"in {secs:.2f} s")


def test_criterion_05_interface_operator_spd(case1, capsys):
    """The interface operator is symmetric positive definite in action."""
    problem, grid = case1.problem, case1.grid
    rng = np.random.default_rng(17)
    worst = 0.0
    min_quad = np.inf
    stats = SolveStats.new("S1", problem.layout.n_subdomains)
    with _Groups(problem, "S1", 1, stats) as groups:
        for k in (0, 13, 31):
            groups.realize(k, grid.points[k])
            apply_fn = groups.apply
            for _ in range(20):
                lam = rng.standard_normal(problem.space.n_dof)
                mu = rng.standard_normal(problem.space.n_dof)
                Sl, Sm = apply_fn(lam), apply_fn(mu)
                gap = abs(float(Sl @ mu) - float(Sm @ lam))
                bound = 1e-11 * np.linalg.norm(Sl) * np.linalg.norm(mu)
                worst = max(worst, gap / bound)
                min_quad = min(min_quad, float(lam @ Sl))
    ok = worst <= 1.0 and min_quad > 0.0
    _report(capsys, 5, ok,
            f"60 random pairs over 3 realizations: symmetry gap at most "
            f"{worst:.1e} of the 1e-11 bound, smallest quadratic form "
            f"{min_quad:.2e} > 0")


def test_criterion_06_collocation_exactness(capsys):
    """Grid moments are exact where the rules promise, sizes need no solves."""
    g4 = build_tensor_grid([3, 3, 3, 3])
    m4_err = max(abs(float(g4.weights @ g4.points[:, d] ** 4) - 3.0)
                 for d in range(4))
    ok = m4_err <= 1e-10

    gs = build_sparse_grid(10, 1)
    worst = 0.0
    n_mono = 0
    for deg in range(4):
        for combo in itertools.combinations_with_replacement(range(10), deg):
            counts = np.bincount(np.array(combo, dtype=int), minlength=10)
            mono = np.ones(gs.n_real)
            for d in np.nonzero(counts)[0]:
                mono *= gs.points[:, d] ** counts[d]
            exact = 1.0 if not np.any(counts % 2) else 0.0
            worst = max(worst, abs(float(gs.weights @ mono) - exact))
            n_mono += 1
    ok &= worst <= 1e-10

    n_tensor = build_tensor_grid([2] * 11).n_real
    n_sparse = build_sparse_grid(50, 1).n_real
    ok &= n_tensor == 2048 and n_sparse == 101
    _report(capsys, 6, ok,
            f"fourth moments off by {m4_err:.1e}; {n_mono} sparse monomials "
            f"of degree <= 3 off by at most {worst:.1e}; grid sizes "
            f"{n_tensor} and {n_sparse} computed without any solves")


def test_criterion_07_kl_eigenvalues(capsys):
    """Closed-form 1D eigenvalues agree with a dense quadrature discretization."""
    eta, length = 0.1, 1.0
    lam = np.array([m.lam for m in solve_1d_eigenpairs(length, eta, 40)])

    n = 2048
    h = length / n
    x = (np.arange(n) + 0.5) * h
    C = np.exp(-np.abs(x[:, None] - x[None, :]) / eta) * h
    ref = eigh(C, eigvals_only=True, subset_by_index=[n - 5, n - 1])[::-1]

    abs_err = np.abs(lam[:5] - ref)
    rel_err = abs_err / ref
    ok = np.all(abs_err <= 1e-6 * length)
    traces = np.cumsum(lam)
    ok &= np.all(traces <= length + 1e-12)
    _report(capsys, 7, ok,
            f"first five eigenvalues within {abs_err.max():.1e} absolute "
            f"(bound 1e-6, total variance 1); plain relative gaps "
            f"{', '.join(f'{e:.1e}' for e in rel_err)} reflect quadrature "
            f"bias; every truncated trace stays below the total variance")


def test_criterion_08_discretization_rates(capsys):
    """Both subdomain discretizations converge at their design rates."""
    pi = np.pi
    p_ex = lambda x, y: np.cos(pi * x) * np.cos(pi * y)
    u_ex = lambda x, y: pi * np.sin(pi * x) * np.cos(pi * y)
    v_ex = lambda x, y: pi * np.cos(pi * x) * np.sin(pi * y)
    q = lambda x, y: 2 * pi ** 2 * p_ex(x, y)
    dbcs = {"left": DarcyBC("pressure", p_ex),
            "right": DarcyBC("pressure", p_ex)}
    dp, du = [], []
    for n in (8, 16, 32, 64):
        mesh = build_subdomain_mesh(Block((0, 0, 1, 1), "darcy", (n, n), 0))
        op = assemble_darcy(mesh, np.ones(mesh.n_cells), 1.0, dbcs, [], q=q)
        sol = op.solve_bar()
        xc, yc = mesh.centroids[:, 0], mesh.centroids[:, 1]
        area = mesh.hx * mesh.hy
        dp.append(np.sqrt(np.sum((sol.p - p_ex(xc, yc)) ** 2 * area)))
        v = op.cell_velocity(sol)
        derr = (v[:, 0] - u_ex(xc, yc)) ** 2 + (v[:, 1] - v_ex(xc, yc)) ** 2
        du.append(np.sqrt(np.sum(derr * area)))
    dp, du = np.array(dp), np.array(du)
    dr_p, dr_u = dp[:-1] / dp[1:], du[:-1] / du[1:]
    ok = np.all(dr_p >= 1.8) and np.all(dr_u >= 1.8)

    su_ex = lambda x, y: pi * np.sin(pi * x) * np.cos(pi * y)
    sv_ex = lambda x, y: -pi * np.cos(pi * x) * np.sin(pi * y)
    sp_ex = lambda x, y: np.sin(pi * x) * np.cos(pi * y)

    def f(x, y):
        fx = 2 * pi ** 3 * np.sin(pi * x) * np.cos(pi * y) \
            + pi * np.cos(pi * x) * np.cos(pi * y)
        fy = -2 * pi ** 3 * np.cos(pi * x) * np.sin(pi * y) \
            - pi * np.sin(pi * x) * np.sin(pi * y)
        return fx, fy

    vel_bc = StokesBC("velocity", lambda x, y: (su_ex(x, y), sv_ex(x, y)))
    sbcs = {"left": vel_bc, "bottom": vel_bc, "top": vel_bc,
            "right": StokesBC("stress",
                              lambda x, y: (-2 * pi ** 2 * np.cos(pi * y),
                                            0.0))}
    sp, su = [], []
    for n in (4, 8, 16, 32):
        mesh = build_subdomain_mesh(Block((0, 0, 1, 1), "stokes", (n, n)))
        op = assemble_stokes(mesh, 1.0, 0.0, sbcs, [], f=f)
        sol = op.solve_bar()
        vel, prs = op.cell_values(sol)
        xc = mesh.tri_vertices.mean(axis=1)
        area = 0.5 * mesh.hx * mesh.hy
        derr = (vel[:, 0] - su_ex(xc[:, 0], xc[:, 1])) ** 2 \
            + (vel[:, 1] - sv_ex(xc[:, 0], xc[:, 1])) ** 2
        su.append(np.sqrt(np.sum(derr * area)))
        sp.append(np.sqrt(np.sum((prs - sp_ex(xc[:, 0], xc[:, 1])) ** 2
                                 * area)))
    sp, su = np.array(sp), np.array(su)
    sr_u, sr_p = su[:-1] / su[1:], sp[:-1] / sp[1:]
    ok &= np.all(sr_u >= 3.5) and np.all(sr_p >= 1.8)
    _report(capsys, 8, ok,
            f"mixed cell rates x{dr_p.min():.1f} (p) x{dr_u.min():.1f} (u) "
            f"per halving, bound 1.8; Taylor-Hood x{sr_u.min():.1f} (u, "
            f"bound 3.5) x{sr_p.min():.1f} (p, bound 1.8), three halvings "
            f"each")


def test_criterion_09_uncertainty_localization(case2, case2_result, capsys):
    """Randomness reaches the free-flow side and peaks at the coupling line."""
    problem = case2.problem
    moments = case2_result.moments
    stokes_var = max(float(moments[f"{sid}:u"][1].max()) for sid in (0, 1))
    ok = stokes_var > 0.0

    layout = problem.layout
    sd_ys = {layout.blocks[g.j].rect[3]
             for g in layout.interfaces if g.kind == "sd"}
    ok &= len(sd_ys) == 1
    iface_y = sd_ys.pop()
    best = None
    for sid, block in enumerate(layout.blocks):
        if block.physics != "darcy":
            continue
        var_p = moments[f"{sid}:cp"][1]
        k = int(np.argmax(var_p))
        if best is None or var_p[k] > best[0]:
            best = (float(var_p[k]), sid, problem.cell_centers(sid)[k])
    peak, sid, c = best
    hy = problem.meshes[sid].hy
    dist = abs(c[1] - iface_y)
    ok &= dist <= hy + 1e-12
    _report(capsys, 9, ok,
            f"largest Stokes velocity dof variance {stokes_var:.2e} > 0; "
            f"Darcy pressure variance peaks at {peak:.2e} in subdomain "
            f"{sid}, {dist / hy:.2f} cell heights from the coupling line")


def test_criterion_10_reproducibility(tmp_path, capsys):
    """Reruns and worker counts change nothing in the output files."""
    cfg_path = os.path.join(CONFIG_DIR, "case1_mini.json")
    _, _, res_a, paths_a = run_file(
        cfg_path, overrides={"out_dir": str(tmp_path / "a")})
    _, _, _, paths_b = run_file(
        cfg_path, overrides={"out_dir": str(tmp_path / "b")})
    ok = open(paths_a["stats_csv"]).read() == open(paths_b["stats_csv"]).read()
    ok &= (open(paths_a["moments_csv"]).read()
           == open(paths_b["moments_csv"]).read())

    _, _, res_w, paths_w = run_file(
        cfg_path, overrides={"out_dir": str(tmp_path / "w"), "workers": 4})
    ok &= (open(paths_a["moments_csv"]).read()
           == open(paths_w["moments_csv"]).read())
    worst = 0.0
    for key, (mean_a, var_a) in res_a.moments.items():
        mean_w, var_w = res_w.moments[key]
        worst = max(worst, float(np.max(np.abs(mean_a - mean_w))),
                    float(np.max(np.abs(var_a - var_w))))
    ok &= worst == 0.0
    _report(capsys, 10, ok,
            f"rerun stats and moment files byte-identical; 4-worker moment "
            f"fields differ from 1-worker by {worst:.1f} in every entry")


def test_criterion_11_recycled_preconditioner(case1, case1_sweeps, capsys):
    """Search pairs recycled across realizations cut the S1 interface CG."""
    results = case1_sweeps.results
    iters = [int(n) for n in results["S1"].stats.cg_iters]
    lam_dim = case1.problem.space.n_dof
    ok = lam_dim == 48 and len(iters) == case1.grid.n_real
    ok &= sum(iters) <= 800
    ok &= max(iters[1:]) <= lam_dim
    lam12 = _max_rel_lambda(results["S1"], results["S2"])
    ok &= lam12 <= 1e-8
    _report(capsys, 11, ok,
            f"S1 needs {sum(iters)} cg iterations over {len(iters)} "
            f"realizations (bound 800): {iters[0]} for the first, at most "
            f"{max(iters[1:])} for the others (bound lambda dim {lam_dim}); "
            f"S1 vs S2 mortar rel diff {lam12:.1e} (bound 1e-8)")
