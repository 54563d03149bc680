"""Interface CG, flux bases, and the three method variants."""

import logging
import multiprocessing
import os

import numpy as np
import pytest
import scipy.sparse as sp

from sdmortar import interface
from sdmortar.collocation import count_local_realizations
from sdmortar.errors import (ConvergenceError, SingularOperatorError,
                             SizeCapError)
from sdmortar.interface import (SecantPreconditioner, SolveStats, _Groups,
                                _split, basis_apply, cg_solve, run_method,
                                solve_realization, worker_count)

from conftest import load_case
from _oracles import plain_cg


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


def test_secant_update_keeps_h_spd_and_matches_last_pair():
    rng = np.random.default_rng(5)
    n = 30
    A = _spd(rng, n, 1e4)
    res = cg_solve(lambda v: A @ v, rng.standard_normal(n), tol=1e-10)
    pc = SecantPreconditioner()
    r = rng.standard_normal(n)
    assert pc(r) is r  # the identity until the first update
    pc.update(res.pairs)
    H = pc.H
    assert np.array_equal(H, H.T)
    np.linalg.cholesky(H)
    s, y = res.pairs[-1]
    assert np.linalg.norm(H @ y - s) <= 1e-10 * np.linalg.norm(s)


def test_recycled_preconditioner_on_a_sequence_of_systems():
    """Neighbouring SPD systems (kappa ~ 1e4) reuse the earlier pairs.

    Each matrix is the base matrix under a 1 % random diagonal scaling, the
    size of change that leaves cond(H S) ~ 3 on neighbouring collocation
    points of the shipped cases.
    """
    rng = np.random.default_rng(7)
    n = 40
    A0 = _spd(rng, n, 1e4)
    pc = SecantPreconditioner()
    for k in range(8):
        d = 1.0 + 0.01 * rng.standard_normal(n)
        A = d[:, None] * A0 * d[None, :]
        b = rng.standard_normal(n)
        res = cg_solve(lambda v: A @ v, b, tol=1e-10, precond=pc)
        pc.update(res.pairs)
        assert np.linalg.norm(b - A @ res.x) <= 1e-10 * np.linalg.norm(b)
        x_ref = np.linalg.solve(A, b)
        assert np.linalg.norm(res.x - x_ref) <= (
            np.linalg.cond(A) * 1e-10 * np.linalg.norm(x_ref))
        if k > 0:
            assert res.n_iter <= n // 2


def test_s2_true_residual_stays_within_tolerance(case1, case1_sweeps):
    """The recursive CG residual does not drift from |g - S lam|."""
    problem, grid = case1.problem, case1.grid
    result = case1_sweeps.results["S2"]
    tol = 1e-11  # the case1_sweeps tolerance
    n = problem.space.n_dof
    stats = SolveStats.new("S2", problem.layout.n_subdomains)
    with _Groups(problem, "S2", 1, stats) as groups:
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
    with _Groups(problem, "S1", 1, stats) as groups:
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
    with _Groups(problem, "S2", 1, stats) as groups:
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
    """Subdomain 3 belongs to the forked group when workers=2."""
    system = case1.problem.systems()[3]
    shape = system.matrix.shape
    monkeypatch.setattr(system, "matrix", lambda coef: sp.csc_matrix(shape))
    errors = [_error_of(lambda: run_method(case1.problem, case1.grid,
                                           method="S1", workers=w))
              for w in (1, 2)]
    assert errors[0] == errors[1]
    assert errors[0] == (SingularOperatorError, "Factor is exactly singular")


def test_lowest_failing_subdomain_wins(case1, two_cores, monkeypatch):
    """Subdomain 4 fails in this process, 3 in the child: 3 is raised."""
    assemble = case1.problem.assemble_subdomain

    def failing(sid, K):
        if sid in (3, 4):
            raise ValueError(f"subdomain {sid}: broken on purpose")
        return assemble(sid, K)

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
    with _Groups(problem, "S1", 1, stats) as groups:
        g, _ = groups.realize(0, np.zeros(3))
    # bar solves see zero interface data, so each block carries its own
    # pressure boundary layer and the jump is nonzero
    assert np.linalg.norm(g) > 1e-3
    assert g.shape == (problem.space.n_dof,)