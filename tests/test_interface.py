"""Interface CG, flux bases, and the three method variants."""

import logging
import multiprocessing
import os

import numpy as np
import pytest
from scipy.linalg.lapack import dpotrs

from sdmortar import darcy, interface, stokes
from sdmortar.collocation import build_tensor_grid
from sdmortar.errors import (ConvergenceError, SingularOperatorError,
                             SizeCapError)
from sdmortar.interface import (COUNTERS, MeanFieldPreconditioner,
                                SolveStats, _Group, _check_basis_cap,
                                _lifetimes, _split, basis_apply, cg_solve,
                                compute_flux_basis, run_method,
                                solve_realization, visit_order, worker_count)

from conftest import (build_operators, load_case, new_group, sweep_groups,
                      sweep_visits)
from _oracles import (count_local_realizations, mean_field_scaling, plain_cg,
                      prepare_s3)

CONFIGS = ("case1_mini", "case1_mini_sparse", "case2_mini", "darcy_twoblock")


def _spd(rng, n, cond):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q @ np.diag(np.logspace(0.0, np.log10(cond), n)) @ Q.T


def test_cg_on_small_spd_matrix():
    rng = np.random.default_rng(1)
    n = 12
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = Q @ np.diag(np.linspace(1.0, 50.0, n)) @ Q.T
    b = rng.standard_normal(n)
    x, iters, residuals = cg_solve(lambda v: A @ v, b, tol=1e-12)
    assert iters <= n + 5
    assert np.allclose(x, np.linalg.solve(A, b), atol=1e-9)
    assert residuals[-1] <= 1e-12
    assert all(r >= 0 for r in residuals)


def test_cg_zero_rhs_is_free():
    x, iters, residuals = cg_solve(lambda v: v, np.zeros(5))
    assert iters == 0
    assert residuals == []
    assert np.array_equal(x, np.zeros(5))


def test_cg_rejects_indefinite_operator():
    with pytest.raises(ConvergenceError, match="positive definite"):
        cg_solve(lambda v: -v, np.ones(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cg_stops_at_a_non_finite_operator(bad):
    """NaN fails every comparison, so p.Sp is checked for finiteness."""
    calls = []

    def apply_fn(v):
        calls.append(v)
        return v * bad

    with pytest.raises(ConvergenceError,
                       match="interface operator is not finite .* "
                             "iteration 1"):
        cg_solve(apply_fn, np.ones(48))
    assert len(calls) == 1


def test_cg_condition_estimate():
    """The Lanczos estimate from the CG coefficients tracks cond(H A)."""
    A = np.diag(np.linspace(1.0, 1e3, 40))
    b = np.ones(40)
    res = cg_solve(lambda v: A @ v, b, tol=1e-12)
    assert abs(res.cond / 1e3 - 1.0) <= 1e-3
    exact = cg_solve(lambda v: A @ v, b, precond=lambda r: r / np.diag(A))
    assert exact.n_iter == 1 and exact.cond == 1.0
    assert cg_solve(lambda v: A @ v, np.zeros(40)).cond is None


def test_cg_without_preconditioner_is_plain_cg_bitwise():
    rng = np.random.default_rng(3)
    for n, cond, tol in ((12, 50.0, 1e-12), (40, 1e4, 1e-9), (40, 1e4, 1e-11)):
        A = _spd(rng, n, cond)
        b = rng.standard_normal(n)
        x, iters, residuals = cg_solve(lambda v: A @ v, b, tol=tol)
        x_ref, iters_ref, residuals_ref = plain_cg(lambda v: A @ v, b,
                                                   tol=tol)
        assert np.array_equal(x, x_ref)
        assert iters == iters_ref
        assert residuals == residuals_ref


def test_cg_rejects_indefinite_preconditioner():
    A = np.diag(np.linspace(1.0, 100.0, 10))
    b = np.ones(10)
    with pytest.raises(ConvergenceError,
                       match="preconditioner is not positive definite.*"
                             "after iteration 0") as err:
        cg_solve(lambda v: A @ v, b, precond=lambda r: -r)
    assert err.value.residuals == []

    calls = []

    def turns_indefinite(r):
        calls.append(1)
        return r if len(calls) <= 3 else -r

    with pytest.raises(ConvergenceError,
                       match="preconditioner .* after iteration 3") as err:
        cg_solve(lambda v: A @ v, b, tol=1e-14, precond=turns_indefinite)
    assert len(err.value.residuals) == 3

    with pytest.raises(ConvergenceError, match="preconditioner"):
        cg_solve(lambda v: A @ v, b, precond=lambda r: np.full_like(r, np.nan))


def _mean_field_preconditioner(case):
    stats = SolveStats.new("S1", case.problem.layout.n_subdomains)
    with sweep_groups(case, "S1", stats) as groups:
        return MeanFieldPreconditioner(case.problem, groups.mean_bases())


def test_mean_field_preconditioner_matches_its_definition(case1):
    """d(y) and z are those of mean_field_scaling; at y = 0 every weight
    is 1, so z is the Cholesky solve with S_bar itself, bit for bit."""
    problem = case1.problem
    pc = _mean_field_preconditioner(case1)
    rng = np.random.default_rng(11)
    zero = np.zeros(problem.perm.n_dims)
    S, d0 = mean_field_scaling(problem, zero)
    r = rng.standard_normal(problem.space.n_dof)
    assert np.array_equal(pc._diag(zero), pc._d0)
    assert np.array_equal(pc.at(zero)(r), dpotrs(pc._chol, r, lower=1)[0])
    for y in (zero, case1.grid.points[5], rng.standard_normal(len(zero))):
        _, d = mean_field_scaling(problem, y)
        assert np.allclose(pc._diag(y), d, rtol=1e-12, atol=0)
        s = np.sqrt(d0 / d)
        z = s * np.linalg.solve(S, s * r)
        assert np.linalg.norm(pc.at(y)(r) - z) <= 1e-10 * np.linalg.norm(z)


def test_mean_field_preconditioner_is_spd(case1):
    """z = H(y) r with H(y) symmetric positive definite at random points."""
    pc = _mean_field_preconditioner(case1)
    n = case1.problem.space.n_dof
    rng = np.random.default_rng(12)
    for _ in range(4):
        y = 2.0 * rng.standard_normal(case1.problem.perm.n_dims)
        apply = pc.at(y)
        H = np.column_stack([apply(e) for e in np.eye(n)])
        assert np.linalg.norm(H - H.T) <= 1e-12 * np.linalg.norm(H)
        assert np.linalg.eigvalsh(0.5 * (H + H.T)).min() > 0.0


@pytest.mark.parametrize("workers", (1, 2))
def test_mean_bases_do_not_depend_on_the_method(case1, workers):
    """The mean-field set-up is one rule: S1, S2 and S3 get the same dofs
    and bases, bit for bit, and count the same set-up work (one factor per
    Darcy block, N_dof backsolves per block, the two Stokes references)."""
    problem = case1.problem
    n_sub = problem.layout.n_subdomains
    got = {}
    for method in ("S1", "S2", "S3"):
        stats = SolveStats.new(method, n_sub)
        with sweep_groups(case1, method, stats, workers) as groups:
            bases = groups.mean_bases()
        got[method] = bases, stats
    bases, stats = got["S1"]
    assert list(stats.setup_factorizations) == [1] * n_sub
    assert list(stats.setup_backsolves) == [len(d) for d in problem.sub_dofs]
    for method in ("S2", "S3"):
        other, other_stats = got[method]
        assert len(other) == len(bases) == n_sub
        for (dofs, B), (dofs2, B2) in zip(bases, other):
            assert np.array_equal(dofs, dofs2) and np.array_equal(B, B2)
        assert np.array_equal(other_stats.setup_factorizations,
                              stats.setup_factorizations), method
        assert np.array_equal(other_stats.setup_backsolves,
                              stats.setup_backsolves), method


@pytest.mark.parametrize("name", ("case1_mini", "darcy_twoblock"))
def test_mean_field_solve_converges_at_once(name):
    """At the mean field S = S_bar up to round-off, so an S2 solve there
    needs at most 2 iterations."""
    case = load_case(name)
    perm = case.problem.perm
    grid = build_tensor_grid([1] * perm.n_dims,
                             splits=[r.n_term for r in perm.regions])
    assert not grid.points.any()
    res = run_method(case.problem, grid, method="S2")
    assert res.stats.cg_iters[0] <= 2


def test_s2_true_residual_stays_within_tolerance(case1, case1_sweeps):
    """The recursive CG residual does not drift from |g - S lam|."""
    problem, grid = case1.problem, case1.grid
    result = case1_sweeps.results["S2"]
    tol = 1e-11  # the case1_sweeps tolerance
    n = problem.space.n_dof
    stats = SolveStats.new("S2", problem.layout.n_subdomains)
    with sweep_groups(case1, "S2", stats) as groups:
        for k in range(grid.n_real):
            g, bases = groups.realize(k, grid.points[k])
            S = np.zeros((n, n))
            for dofs, B in bases:
                S[np.ix_(dofs, dofs)] += B
            true = np.linalg.norm(g - S @ result.lambdas[k])
            assert true <= 2.0 * tol * np.linalg.norm(g), k


def test_cg_iteration_budget():
    rng = np.random.default_rng(2)
    A = np.diag(np.linspace(1.0, 1e4, 30))
    b = rng.standard_normal(30)
    with pytest.raises(ConvergenceError, match="did not reach"):
        cg_solve(lambda v: A @ v, b, tol=1e-14, max_iter=3)
    try:
        cg_solve(lambda v: A @ v, b, tol=1e-14, max_iter=3)
    except ConvergenceError as exc:
        assert len(exc.residuals) == 3


CG_ARGUMENTS = [({"tol": 0.0}, r"tol must be > 0, got 0\.0"),
                ({"tol": -1e-9}, "tol must be > 0"),
                ({"tol": float("nan")}, "tol must be > 0"),
                ({"max_iter": 0}, "max_iter must be >= 1 or None, got 0"),
                ({"max_iter": -4}, "max_iter must be >= 1 or None")]
WORKER_ARGUMENTS = [({"workers": 0}, "workers must be >= 1, got 0"),
                    ({"workers": -2}, "workers must be >= 1, got -2")]


@pytest.mark.parametrize("kwargs, match", CG_ARGUMENTS)
def test_cg_rejects_bad_arguments(kwargs, match):
    """A tol <= 0 would run past convergence and max_iter 0 leaves no
    residual to report, so both are refused before any apply."""
    calls = []
    with pytest.raises(ValueError, match=match):
        cg_solve(lambda v: calls.append(v) or v, np.ones(4), **kwargs)
    assert calls == []


@pytest.mark.parametrize("kwargs, match", CG_ARGUMENTS + WORKER_ARGUMENTS)
@pytest.mark.parametrize("entry", ("run_method", "solve_realization"))
def test_sweeps_reject_bad_arguments(twoblock, entry, kwargs, match):
    """Refused before any subdomain work, as an unknown method is; workers
    0 is not quietly one process."""
    with pytest.raises(ValueError, match=match):
        if entry == "run_method":
            run_method(twoblock.problem, twoblock.grid, **kwargs)
        else:
            solve_realization(twoblock.problem, **kwargs)


def test_mean_field_uniform_flow(twoblock):
    """K = 1 realization: exact uniform flow through both blocks."""
    per_sid, lam, stats = solve_realization(twoblock.problem)
    assert np.allclose(lam, 0.5, atol=1e-9)
    for sid in (0, 1):
        assert np.allclose(per_sid[sid]["cv"][:, 0], 0.5, atol=1e-9)
        assert np.allclose(per_sid[sid]["cv"][:, 1], 0.0, atol=1e-9)
        xc = twoblock.problem.cell_centers(sid)[:, 0]
        assert np.allclose(per_sid[sid]["cp"], 1.0 - xc / 2.0, atol=1e-9)
    assert stats.cg_iters_total >= 1


def test_interface_operator_symmetry(twoblock):
    """S from star solves is symmetric positive definite."""
    problem = twoblock.problem
    stats = SolveStats.new("S1", 2)
    rng = np.random.default_rng(4)
    with sweep_groups(twoblock, "S1", stats) as groups:
        groups.realize(3, twoblock.grid.points[3])
        apply_fn = groups.apply
        for _ in range(10):
            lam = rng.standard_normal(problem.space.n_dof)
            mu = rng.standard_normal(problem.space.n_dof)
            Sl = apply_fn(lam)
            Sm = apply_fn(mu)
            bound = 1e-11 * np.linalg.norm(Sl) * np.linalg.norm(mu)
            assert abs(Sl @ mu - Sm @ lam) <= bound
            assert lam @ Sl > 0.0


def test_flux_basis_matches_direct_apply(twoblock):
    """The assembled response matrices reproduce the matrix-free action."""
    problem = twoblock.problem
    stats = SolveStats.new("S2", 2)
    rng = np.random.default_rng(9)
    with sweep_groups(twoblock, "S2", stats) as groups:
        _, bases = groups.realize(0, twoblock.grid.points[0])
        direct = groups.apply
        from_basis = basis_apply(problem.space, bases)
        for _ in range(5):
            lam = rng.standard_normal(problem.space.n_dof)
            d = direct(lam)
            b = from_basis(lam)
            assert np.max(np.abs(d - b)) <= 1e-12 * max(1.0, np.max(np.abs(d)))
    assert stats.basis_backsolves[0] == 8
    assert stats.basis_backsolves[1] == 8


def test_solve_count_identities(twoblock):
    """Backsolves per subdomain follow the S1/S2/S3 bookkeeping exactly."""
    problem, grid = twoblock.problem, twoblock.grid
    n_real = grid.n_real
    n_dof = [len(problem.space.sub_dofs(problem.layout, s)) for s in (0, 1)]

    r1 = run_method(problem, grid, method="S1")
    expect1 = sum(r1.stats.cg_iters) + 2 * n_real
    assert list(r1.stats.backsolves) == [expect1, expect1]
    assert list(r1.stats.factorizations) == [n_real, n_real]

    r2 = run_method(problem, grid, method="S2")
    for sid in (0, 1):
        assert r2.stats.backsolves[sid] == n_dof[sid] * n_real + 2 * n_real
        assert r2.stats.factorizations[sid] == n_real
        assert r2.stats.basis_backsolves[sid] == n_dof[sid] * n_real

    r3 = run_method(problem, grid, method="S3")
    n_loc = count_local_realizations(grid, 0)
    for sid in (0, 1):
        assert r3.stats.backsolves[sid] == n_dof[sid] * n_loc + 2 * n_real
        assert r3.stats.factorizations[sid] == n_loc


def test_s3_equals_s2_when_region_spans_everything(twoblock):
    """A single KL region means S3 rebuilds exactly the S2 operators."""
    problem, grid = twoblock.problem, twoblock.grid
    r2 = run_method(problem, grid, method="S2")
    r3 = run_method(problem, grid, method="S3")
    for k in range(grid.n_real):
        assert np.array_equal(r2.lambdas[k], r3.lambdas[k])
    for name in r2.moments:
        m2, v2 = r2.moments[name]
        m3, v3 = r3.moments[name]
        assert np.array_equal(m2, m3)
        assert np.array_equal(v2, v3)


@pytest.mark.parametrize("name", CONFIGS)
def test_s3_prepare_matches_the_reference_bitwise(name):
    """The keyed cache, driven over the grid in sweep order, builds S3's
    operators in the order of the reference preparation
    _oracles.prepare_s3, at points whose K equals the zero-padded local
    points' K, so every basis and counter matches bit for bit. Two problems
    keep the factor order of one side's first matrix from reaching the
    other."""
    case, ref = load_case(name), load_case(name)
    n_sub = case.problem.layout.n_subdomains
    group = new_group(case, "S3")
    build_operators(group)
    ref_stats = SolveStats.new("S3", n_sub)
    for sid in range(n_sub):
        ops, bases = prepare_s3(ref.problem, ref.grid, sid, ref_stats)
        got = [entry for (s, _), entry in group.cache.items() if s == sid]
        assert len(got) == len(bases)
        for (op, (dofs, B)), ref_op, (ref_dofs, ref_B) in zip(got, ops,
                                                               bases):
            assert np.array_equal(dofs, ref_dofs)
            assert np.array_equal(B, ref_B), sid
            assert op.backsolves == ref_op.backsolves
    assert np.array_equal(group.stats.basis_backsolves,
                          ref_stats.basis_backsolves)


def test_s3_builds_each_entry_once_and_drops_it_after_its_last_use(
        case1, monkeypatch):
    """Every (sid, key) entry of an S3 sweep is built once, during the
    first visit with its key (a Stokes one's is None, the mean field),
    and harvested at the recovery of its last visit (_lifetimes);
    case1_mini needs 26 bases and 30 sparse factors (2 Stokes LUs, 24
    Darcy banded Cholesky factors, and the 4 mean-field Darcy factors of
    the preconditioner)."""
    problem, grid = case1.problem, case1.grid
    order = visit_order(grid)
    table = {}
    for j, k in enumerate(order):
        for sid, block in enumerate(problem.layout.blocks):
            key = (int(grid.local_indices[block.kl_region][k])
                   if block.physics == "darcy" else None)
            table[sid, key] = table.get((sid, key), (j,))[0], j
    assert _lifetimes(problem, grid, "S3", sweep_visits(grid)) == table
    now, entry_of, built, harvested, factors = [None], {}, {}, {}, []

    def phased(name, fn):
        def wrapped(self, *args):
            # realize gets the realization, recover the visit; set-up
            # (mean_bases) gets none
            now[0] = name, args[0] if args else 0
            return fn(self, *args)
        return wrapped

    def basis(problem, sid, op, stats):
        k = now[0][1]
        entry = sid, interface._key(problem, grid, "S3", sid, k,
                                    grid.points[k])[0]
        entry_of[id(op)] = entry
        built.setdefault(entry, []).append(now[0])
        return compute_flux_basis(problem, sid, op, stats)

    harvest = SolveStats.harvest

    def harvested_at(self, sid, op):
        harvested.setdefault(entry_of.pop(id(op)), []).append(now[0])
        harvest(self, sid, op)

    def counted(compute):
        def factor(*args, **kwargs):
            factors.append(now[0])
            return compute(*args, **kwargs)
        return factor

    monkeypatch.setattr(stokes, "splu", counted(stokes.splu))
    monkeypatch.setattr(darcy, "dpbtrf", counted(darcy.dpbtrf))
    monkeypatch.setattr(interface, "compute_flux_basis", basis)
    monkeypatch.setattr(SolveStats, "harvest", harvested_at)
    for name in ("mean_bases", "realize", "recover"):
        monkeypatch.setattr(_Group, name, phased(name,
                                                 getattr(_Group, name)))
    res = run_method(problem, grid, method="S3")
    assert built == {e: [("realize", order[first])]
                     for e, (first, _) in table.items()}
    assert harvested == {e: [("recover", last)]
                         for e, (_, last) in table.items()}
    assert len(built) == 26 and len(factors) == 30
    assert res.stats.factorizations.sum() == 26


def test_s3_slowest_region_darcy_blocks_hold_one_entry(case1, monkeypatch):
    """The sweep visits region 1, the region with the most local
    realizations (8 against 4), slowest, so each of its Darcy blocks holds
    one S3 entry at a time; region 0's blocks hold all of theirs."""
    problem, grid = case1.problem, case1.grid
    assert grid.local_counts == [4, 8]
    blocks = problem.layout.blocks
    held = {sid: 0 for sid, b in enumerate(blocks) if b.physics == "darcy"}
    realize = _Group.realize

    def counted(self, k, y):
        out = realize(self, k, y)
        for sid in held:
            n = sum(1 for s, _ in self.cache if s == sid)
            held[sid] = max(held[sid], n)
        return out

    monkeypatch.setattr(_Group, "realize", counted)
    run_method(problem, grid, method="S3")
    region = {sid: blocks[sid].kl_region for sid in held}
    assert sorted(set(region.values())) == [0, 1]
    for sid, n in held.items():
        assert n == (1 if region[sid] == 1 else grid.local_counts[0]), sid


def _peak_darcy_entries(problem, table):
    """Most Darcy entries of a lifetime table live at one visit."""
    darcy = [(first, last) for (sid, _), (first, last) in table.items()
             if problem.layout.physics(sid) == "darcy"]
    n_visits = 1 + max(last for _, last in table.values())
    return max(sum(first <= j <= last for first, last in darcy)
               for j in range(n_visits))


def test_visit_order_lowers_the_s3_darcy_peak(case1):
    """Region 1 slowest: 10 Darcy entries live at the peak of an S3 sweep
    of case1_mini (2 of region 1, 4 + 4 of region 0), against 18 in grid
    order (1 + 1 of region 0, 8 + 8 of region 1)."""
    problem, grid = case1.problem, case1.grid
    order = visit_order(grid)
    assert sorted(order) == list(range(grid.n_real))
    assert order[:5] == [0, 8, 16, 24, 1]
    in_grid_order = list(enumerate(grid.points))
    for visits, peak in ((sweep_visits(grid), 10), (in_grid_order, 18)):
        table = _lifetimes(problem, grid, "S3", visits)
        assert _peak_darcy_entries(problem, table) == peak


def test_visit_order_of_a_sparse_grid_runs_the_slowest_region():
    """On any grid the slowest region's local realizations come in runs:
    each appears in one block of consecutive visits."""
    case = load_case("case1_mini_sparse")
    grid = case.grid
    order = visit_order(grid)
    assert sorted(order) == list(range(grid.n_real))
    slow = max(range(len(grid.local_counts)),
               key=lambda r: (grid.local_counts[r], -r))
    runs = [int(grid.local_indices[slow][k]) for k in order]
    starts = [i for i in range(len(runs)) if i == 0 or runs[i] != runs[i - 1]]
    assert len(starts) == grid.local_counts[slow]


@pytest.mark.parametrize("method", ["S1", "S2", "S3"])
def test_visit_order_matches_a_grid_order_sweep(case1, case1_sweeps,
                                                monkeypatch, method):
    """Per realization the visit order changes nothing: lambda, CG
    iterations, residual histories and condition estimates are bitwise
    those of a sweep in grid order, and so are the counters; the moments,
    summed in another order, agree to 1e-13 of their scale: max |mean| for
    a mean, max E[x^2] for a variance, which is the difference of E[x^2]
    and mean^2."""
    visited = case1_sweeps.results[method]
    monkeypatch.setattr(interface, "visit_order",
                        lambda grid: list(range(grid.n_real)))
    in_order = run_method(case1.problem, case1.grid, method=method, tol=1e-11)
    assert len(visited.lambdas) == len(in_order.lambdas)
    for lam1, lam2 in zip(visited.lambdas, in_order.lambdas):
        assert np.array_equal(lam1, lam2)
    assert visited.stats.cg_iters == in_order.stats.cg_iters
    assert visited.residuals == in_order.residuals
    assert visited.cg_cond == in_order.cg_cond
    for counter in COUNTERS:
        assert np.array_equal(getattr(visited.stats, counter),
                              getattr(in_order.stats, counter)), counter
    assert visited.moments.keys() == in_order.moments.keys()
    for name, (mean, var) in in_order.moments.items():
        got_mean, got_var = visited.moments[name]
        for got, want, scale in ((got_mean, mean, np.abs(mean)),
                                 (got_var, var, mean * mean + var)):
            gap = np.max(np.abs(got - want), initial=0.0)
            assert gap <= 1e-13 * np.max(scale, initial=0.0), name


@pytest.mark.parametrize("method", ["S2", "S3"])
def test_basis_cap_reads_the_peak_of_the_lifetimes(case1, method):
    """_check_basis_cap passes at the peak bytes of the bases the lifetime
    table holds live at one visit and raises a byte below it."""
    problem, grid = case1.problem, case1.grid
    table = _lifetimes(problem, grid, method, sweep_visits(grid))
    peak = max(sum(8 * len(problem.sub_dofs[sid]) ** 2
                   for (sid, _), (first, last) in table.items()
                   if first <= k <= last)
               for k in range(grid.n_real))
    one_each = sum(8 * len(d) ** 2 for d in problem.sub_dofs)
    if method == "S2":
        assert peak == one_each
    else:  # region 0's Darcy bases are all live in mid-sweep
        assert peak > one_each
    _check_basis_cap(problem, method, table, peak / 2 ** 20)
    with pytest.raises(SizeCapError, match="basis"):
        _check_basis_cap(problem, method, table, (peak - 1) / 2 ** 20)
    with pytest.raises(SizeCapError, match="basis"):
        run_method(problem, grid, method=method,
                   basis_cap_mb=(peak - 1) / 2 ** 20)


@pytest.mark.parametrize("m, splits", [([2] * 5, (3, 2)),
                                       ([2] * 4, (2, 2)),
                                       ([2] * 6, (2, 4))])
def test_grid_that_does_not_match_the_field_is_rejected(case1, m, splits):
    """case1_mini's field has 5 dims split (2, 3) by KL region; a grid with
    other dims or splits would key S3 by the wrong coordinates."""
    grid = build_tensor_grid(m, splits=splits)
    for method in ("S1", "S2", "S3"):
        with pytest.raises(ValueError, match=r"field's 5 dims split \(2, 3\)"):
            run_method(case1.problem, grid, method=method)


@pytest.mark.parametrize("n", [3, 7])
def test_point_that_does_not_match_the_field_is_rejected(case1, n):
    with pytest.raises(ValueError, match=rf"\({n},\).*5 dims"):
        solve_realization(case1.problem, np.zeros(n))


def test_moments_match_direct_quadrature(twoblock):
    """Accumulated lambda moments equal the explicit weighted sums."""
    problem, grid = twoblock.problem, twoblock.grid
    res = run_method(problem, grid, method="S1")
    L = np.array(res.lambdas)
    mean = grid.weights @ L
    var = grid.weights @ (L * L) - mean * mean
    got_mean, got_var = res.moments["lambda"]
    assert np.allclose(got_mean, mean, atol=1e-15)
    assert np.allclose(got_var, np.maximum(var, 0.0), atol=1e-15)


def test_worker_count_does_not_change_results(twoblock):
    """Subdomain groups join results in subdomain order: bitwise identical."""
    problem, grid = twoblock.problem, twoblock.grid
    r1 = run_method(problem, grid, method="S1", workers=1)
    r4 = run_method(problem, grid, method="S1", workers=4)
    for name in r1.moments:
        m1, v1 = r1.moments[name]
        m4, v4 = r4.moments[name]
        assert np.array_equal(m1, m4)
        assert np.array_equal(v1, v4)
    assert r1.stats.cg_iters == r4.stats.cg_iters


@pytest.fixture
def two_cores(monkeypatch):
    """Two usable cores, so that workers=2 forks one child on any machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)


@pytest.mark.parametrize("method", ["S2", "S3"])
def test_two_workers_match_one_bitwise(case1, case1_sweeps, two_cores,
                                       method):
    """Forked subdomain groups change no result, counter or CG iteration."""
    one = case1_sweeps.results[method]
    two = run_method(case1.problem, case1.grid, method=method, tol=1e-11,
                     workers=2)
    assert len(two.lambdas) == len(one.lambdas)
    for lam1, lam2 in zip(one.lambdas, two.lambdas):
        assert np.array_equal(lam1, lam2)
    assert two.moments.keys() == one.moments.keys()
    for name, (mean, var) in one.moments.items():
        assert np.array_equal(two.moments[name][0], mean), name
        assert np.array_equal(two.moments[name][1], var), name
    assert two.stats.cg_iters == one.stats.cg_iters
    for counter in ("factorizations", "backsolves", "basis_backsolves"):
        assert np.array_equal(getattr(two.stats, counter),
                              getattr(one.stats, counter)), counter
    assert np.all(two.stats.wall_seconds > 0.0)


def test_split_balances_unknowns(case1):
    """Greedy by unknown count: each group gets a Stokes and two Darcy.

    The Darcy blocks have 784 unknowns each; Stokes block 1 has a stress
    side and so more free velocity dofs than block 0.
    """
    sizes = [s.n_unknowns for s in case1.problem.systems()]
    assert sizes[2:] == [784] * 4 and 784 > sizes[1] > sizes[0]
    assert _split(case1.problem, 1) == [[0, 1, 2, 3, 4, 5]]
    assert _split(case1.problem, 2) == [[1, 2, 4], [0, 3, 5]]
    assert _split(case1.problem, 6) == [[2], [3], [4], [5], [1], [0]]


def test_worker_count_caps_without_starting_processes():
    """Only the helper runs: huge requests start no process."""
    cores = len(os.sched_getaffinity(0))
    assert worker_count(1, 6) == 1
    assert worker_count(10 ** 6, 6) == min(cores, 6)
    assert worker_count(10 ** 6, 1) == 1
    assert worker_count(10 ** 6, 10 ** 6) == cores
    assert multiprocessing.active_children() == []


def test_worker_count_without_fork_is_one(monkeypatch, caplog):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    with caplog.at_level(logging.INFO, logger="sdmortar.interface"):
        assert worker_count(8, 6) == 1
    assert [r.levelno for r in caplog.records] == [logging.INFO]
    assert "fork" in caplog.records[0].getMessage()


def _error_of(run):
    with pytest.raises(Exception) as err:
        run()
    assert multiprocessing.active_children() == []
    return type(err.value), str(err.value)


def test_nan_mean_field_fails_alike_in_a_child(two_cores):
    """Every subdomain fails; subdomain 0, in the child, is raised."""
    case = load_case("case1_mini",
                     mean_log_perm={"kind": "constant", "value": np.nan})
    errors = [_error_of(lambda: run_method(case.problem, case.grid,
                                           method="S2", workers=w))
              for w in (1, 2)]
    assert errors[0] == errors[1]
    assert errors[0][0] is ValueError
    assert errors[0][1].startswith("subdomain 0, BJS on interface")


def test_singular_factor_in_a_child_is_raised(case1, two_cores,
                                              monkeypatch):
    """Subdomain 3 belongs to the forked group when workers=2; its
    multiplier matrix H is made zero."""
    system = case1.problem.systems()[3]
    band = system.multiplier_band
    monkeypatch.setattr(system, "multiplier_band",
                        lambda K: np.zeros_like(band(K)))
    errors = [_error_of(lambda: run_method(case1.problem, case1.grid,
                                           method="S1", workers=w))
              for w in (1, 2)]
    assert errors[0] == errors[1]
    assert errors[0] == (SingularOperatorError,
                         "subdomain 3: multiplier matrix is not positive "
                         "definite (leading minor 1)")


def test_lowest_failing_subdomain_wins(case1, two_cores, monkeypatch):
    """Subdomain 4 fails in this process, 3 in the child: 3 is raised."""
    assemble = case1.problem.assemble_subdomain

    def failing(sid, K, *reference):
        if sid in (3, 4):
            raise ValueError(f"subdomain {sid}: broken on purpose")
        return assemble(sid, K, *reference)

    monkeypatch.setattr(case1.problem, "assemble_subdomain", failing)
    for w in (1, 2):
        assert _error_of(lambda: run_method(
            case1.problem, case1.grid, method="S2", workers=w)) == (
            ValueError, "subdomain 3: broken on purpose")


def test_dead_child_raises_instead_of_hanging(twoblock, two_cores,
                                              monkeypatch):
    parent = os.getpid()
    recover = interface.recover_fields

    def dying(*args):
        if os.getpid() != parent:
            os._exit(3)
        return recover(*args)

    monkeypatch.setattr(interface, "recover_fields", dying)
    assert _error_of(lambda: run_method(
        twoblock.problem, twoblock.grid, method="S1", workers=2)) == (
        EOFError,
        "worker process of subdomains [1] exited with code 3 during 'recover'")


def test_parent_failure_stops_the_children(twoblock, two_cores):
    with pytest.raises(ConvergenceError):
        run_method(twoblock.problem, twoblock.grid, method="S1", max_iter=1,
                   workers=2)
    assert multiprocessing.active_children() == []


def test_zero_data_needs_no_iterations():
    """Homogeneous boundary data gives g = 0 and an all-zero sweep."""
    case = load_case(
        "darcy_twoblock",
        bcs={"0": {"left": {"kind": "pressure", "value": 0.0}},
             "1": {"right": {"kind": "pressure", "value": 0.0}}})
    res = run_method(case.problem, case.grid, method="S1")
    assert res.stats.cg_iters_total == 0
    mean, var = res.moments["lambda"]
    assert np.array_equal(mean, np.zeros_like(mean))
    assert np.array_equal(var, np.zeros_like(var))
    assert list(res.stats.backsolves) == [2 * case.grid.n_real] * 2


def test_iteration_cap_raises(twoblock):
    with pytest.raises(ConvergenceError) as err:
        run_method(twoblock.problem, twoblock.grid, method="S1", max_iter=1)
    assert err.value.residuals


def test_basis_cap_enforced(twoblock):
    with pytest.raises(SizeCapError, match="basis"):
        run_method(twoblock.problem, twoblock.grid, method="S2",
                   basis_cap_mb=1e-9)
    with pytest.raises(SizeCapError, match="basis"):
        run_method(twoblock.problem, twoblock.grid, method="S3",
                   basis_cap_mb=1e-9)


def test_unknown_method_rejected(twoblock):
    with pytest.raises(ValueError, match="unknown method"):
        run_method(twoblock.problem, twoblock.grid, method="S9")


def test_compute_rhs_jump_is_balanced(twoblock):
    """With matching uniform flow the jump retains only the bar mismatch."""
    problem = twoblock.problem
    stats = SolveStats.new("S1", 2)
    with sweep_groups(twoblock, "S1", stats) as groups:
        g, _ = groups.realize(0, np.zeros(3))
    # bar solves see zero interface data, so each block carries its own
    # pressure boundary layer and the jump is nonzero
    assert np.linalg.norm(g) > 1e-3
    assert g.shape == (problem.space.n_dof,)