"""Stokes operators from one mean-field LU and a rank-r BJS update.

Every method factors each Stokes subdomain once per sweep, at the mean
field (StokesReference), and gives every realization its operator through
an r x r capacitance (assembly.UpdatedFactors). The reference route here
is a fresh sparse LU of the realization's own matrix
(_oracles.fresh_operator). Measured gaps are up to 4e-14 relative at x1
and 1.2e-13 at x2; the bound is 1e-12.
"""

from collections import Counter

import numpy as np
import pytest
from scipy.linalg.lapack import dpbtrf
from scipy.sparse.linalg import SuperLU, splu

from _oracles import (fresh_operator, fresh_stokes, lu_star_response,
                      trace_coupling)
from conftest import build_operators, load_case, new_group
from sdmortar import darcy, stokes
from sdmortar.assembly import UpdatedFactors
from sdmortar.errors import SingularOperatorError
from sdmortar.geometry import (Block, build_layout, build_subdomain_mesh,
                               locate_trace)
from sdmortar.interface import (COUNTERS, SolveStats, compute_flux_basis,
                                run_method, solve_realization)
from sdmortar.output import run_manifest
from sdmortar.random_field import LogPermField
from sdmortar.stokes import StokesReference, StokesSystem

RTOL = 1e-12
# darcy_twoblock has no Stokes block
STOKES_CONFIGS = ("case1_mini", "case1_mini_sparse", "case2_mini")


def gap(got, ref):
    return np.linalg.norm(got - ref) / max(np.linalg.norm(ref), 1e-300)


def assert_same_solution(got, ref):
    assert np.linalg.norm(got.u - ref.u) <= RTOL * np.linalg.norm(ref.u)
    assert np.linalg.norm(got.p - ref.p) <= RTOL * np.linalg.norm(ref.p)


def assert_same_star(got, ref, lam):
    """solve_star of lam and the full fields of its star loads (_solve)."""
    assert gap(got.solve_star(lam), ref.solve_star(lam)) <= RTOL
    assert_same_solution(got._solve(got._star_load(lam)),
                         ref._solve(ref._star_load(lam)))


def stokes_sids(problem):
    return [sid for sid, b in enumerate(problem.layout.blocks)
            if b.physics == "stokes"]


def check_realizations(case, points):
    """Low-rank against fresh operators of every Stokes subdomain.

    solve_bar, a block solve_star of 5 random columns (its responses and
    the full fields of the same star loads), solve_bar with interface data
    and the flux basis at every point. Returns the (kernel dimension,
    rank r) of each.
    """
    problem = case.problem
    rng = np.random.default_rng(7)
    stats = SolveStats.new("S2", problem.layout.n_subdomains)
    seen = []
    for sid in stokes_sids(problem):
        ref = problem.stokes_reference(sid)
        nd = len(problem.space.sub_dofs(problem.layout, sid))
        for y in points:
            low = problem.assemble_subdomain(sid, y, ref)
            fresh = fresh_operator(problem, sid, y)
            assert low.kernel_dim == fresh.kernel_dim
            assert low.factorizations == 1
            assert_same_solution(low.solve_bar(), fresh.solve_bar())
            lam = rng.standard_normal((nd, 5))
            assert_same_star(low, fresh, lam)
            assert_same_solution(low.solve_bar(lam[:, 0]),
                                 fresh.solve_bar(lam[:, 0]))
            _, B_low = compute_flux_basis(problem, sid, low, stats)
            _, B_ref = compute_flux_basis(problem, sid, fresh, stats)
            assert gap(B_low, B_ref) <= RTOL
            # one backsolve per column, as a fresh operator counts them
            assert low.backsolves == fresh.backsolves
        # W's r columns and the N_dof unit star loads of its mean basis
        assert ref.factorizations == 1
        assert ref.backsolves == len(ref.system.T) + nd
        seen.append((ref.kernel_dim, len(ref.system.T)))
    return seen


@pytest.mark.parametrize("refine", (1, 2))
@pytest.mark.parametrize("name", STOKES_CONFIGS)
def test_lowrank_matches_fresh_factor(name, refine):
    case = load_case(name, refine=refine)
    seen = check_realizations(case, case.grid.points)
    ranks = [r for _, r in seen]
    assert ranks == [16 * refine, 16 * refine + 1]
    if name == "case2_mini":
        assert max(k for k, _ in seen) > 0  # a kernel-bordered system


def test_lowrank_alpha0_is_the_reference_lu():
    """r = 0: every operator solves with the reference LU itself."""
    case = load_case("case1_mini", physics={"alpha": 0.0})
    seen = check_realizations(case, case.grid.points)
    assert [r for _, r in seen] == [0, 0]
    problem = case.problem
    ref = problem.stokes_reference(0)
    op = ref.factor()
    assert op.lu is ref.lu and ref.backsolves == 0


def test_reference_coefficients_use_the_reference_lu(case1):
    """At the mean field (D = 0) the operator is the reference LU itself:
    no W, no capacitance. So are S3's Stokes operators, each its group's
    reference LU, and a mean-field solve_realization. Their star solves
    and bases read the mean basis, whose N_dof unit solves the reference
    counts as set-up."""
    problem = case1.problem
    zero = np.zeros(problem.perm.n_dims)
    sids = stokes_sids(problem)
    s3 = new_group(case1, "S3", sids)
    build_operators(s3)
    for sid in sids:
        ref = problem.stokes_reference(sid)
        op = problem.assemble_subdomain(sid, zero, ref)
        assert op.lu is ref.lu and ref.backsolves == 0
        ops = [o for (s, _), (o, _) in s3.cache.items() if s == sid]
        assert [type(o.lu) for o in ops] == [SuperLU]
        assert ops[0].lu is s3.refs[sid].lu
        assert s3.refs[sid].backsolves == len(problem.sub_dofs[sid])
    _, _, stats = solve_realization(problem)
    assert list(stats.setup_backsolves) == [12, 12, 0, 0, 0, 0]
    assert list(stats.setup_factorizations) == [1, 1, 0, 0, 0, 0]


@pytest.fixture
def realized_points(monkeypatch):
    """Point count of every LogPermField.realize call."""
    sizes = []
    original = LogPermField.realize

    def spy(self, region, x, y, y_global):
        sizes.append(len(x))
        return original(self, region, x, y, y_global)

    monkeypatch.setattr(LogPermField, "realize", spy)
    return sizes


def test_stokes_factor_samples_only_its_bjs_cells(realized_points):
    """Stokes block 0 reads K at the 8 Darcy cells under its sd edges, not
    on its neighbour's whole 256-cell field; so does its reference."""
    case = load_case("case1_mini")
    problem = case.problem
    ref = problem.stokes_reference(0)
    assert realized_points == [8]
    problem.assemble_subdomain(0, case.grid.points[-1], ref)
    assert realized_points == [8, 8]


def test_bjs_samples_equal_the_full_field(case1):
    """K at the BJS cells alone is bitwise the whole field's K there."""
    problem = case1.problem
    for sid in stokes_sids(problem):
        for y in case1.grid.points:
            kl = problem.sample_permeability(sid, y)
            for idx, (d_sid, cells) in problem.kl_cells[sid].items():
                full = problem.sample_permeability(d_sid, y)
                assert np.array_equal(kl[idx], full[cells])


def test_lowrank_sigma2_400():
    """BJS coefficients spread over 0.02-43 against about 1 at the mean."""
    case = load_case("case1_mini", kl_regions=[
        dict(r, sigma2=400.0)
        for r in load_case("case1_mini").cfg["kl_regions"]])
    problem = case.problem
    coef = [problem.systems()[0].bjs_coefficients(
        problem.sample_permeability(0, y)) for y in case.grid.points]
    assert np.min(coef) < 0.05 and np.max(coef) > 40
    check_realizations(case, case.grid.points)


# measured at most 4.1e-16 on these cases, and 3.3e-16 on case1_mini x4
BASIS_TOL = 1e-14


@pytest.mark.parametrize("name, refine, sigma2", [
    *((name, 1, None) for name in STOKES_CONFIGS), ("case1_mini", 2, None),
    ("case1_mini", 1, 400.0)])
def test_updated_basis_matches_the_unit_star_solves(name, refine, sigma2):
    """A realization's Stokes basis, B_bar + (F G) Y0[T] with no LU solve,
    against its N_dof unit star loads solved with its own LU
    (_oracles.lu_star_response), at every grid point; the gap is bounded
    relative to max|B|."""
    tweaks = {}
    if sigma2 is not None:
        tweaks["kl_regions"] = [
            dict(r, sigma2=sigma2)
            for r in load_case(name).cfg["kl_regions"]]
    case = load_case(name, refine=refine, **tweaks)
    problem = case.problem
    for sid in stokes_sids(problem):
        ref = problem.stokes_reference(sid)
        ref.mean_basis()  # as a sweep's set-up solves it
        nd = len(problem.sub_dofs[sid])
        for y in case.grid.points:
            op = problem.assemble_subdomain(sid, y, ref)
            B = op.flux_basis()
            assert op.backsolves == nd
            star = -lu_star_response(op, np.eye(nd))
            assert np.max(np.abs(B - star)) <= BASIS_TOL * np.max(
                np.abs(star))


@pytest.mark.parametrize("name, refine", [
    *((name, 1) for name in STOKES_CONFIGS), ("case1_mini", 2)])
def test_star_solves_match_the_lu_oracle(name, refine):
    """solve_star, two products on the mean-field unit responses, against
    the star loads solved with the operator's own LU, for one vector and a
    block of 5, at every grid point; each call counts one backsolve per
    column."""
    case = load_case(name, refine=refine)
    problem = case.problem
    rng = np.random.default_rng(11)
    for sid in stokes_sids(problem):
        ref = problem.stokes_reference(sid)
        nd = len(problem.sub_dofs[sid])
        for y in case.grid.points:
            op = problem.assemble_subdomain(sid, y, ref)
            for lam in (rng.standard_normal(nd),
                        rng.standard_normal((nd, 5))):
                backsolves = op.backsolves
                got = op.solve_star(lam)
                assert op.backsolves - backsolves == np.size(lam) // nd
                want = lu_star_response(op, lam)
                assert got.shape == want.shape
                # measured at most 5.3e-15 (case1_mini x2)
                assert np.max(np.abs(got - want)) <= BASIS_TOL * np.max(
                    np.abs(want))


@pytest.fixture
def lu_blocks(monkeypatch):
    """Per sparse LU made, the column count of every solve it does (() for
    a single vector), in call order."""
    from test_factor_reuse import Recording

    lus = []

    def spy(A, *args, **kw):
        lus.append([])
        return Recording(splu(A, *args, **kw), lus[-1])

    monkeypatch.setattr(stokes, "splu", spy)
    return lus


@pytest.mark.parametrize("method", ("S1", "S2", "S3"))
def test_unit_star_loads_solved_once_per_reference(lu_blocks, method):
    """Over a case1_mini sweep each Stokes reference LU solves its N_dof
    unit star loads once, at set-up, and W's r columns (not in S3, whose
    operators are the reference LU), one block each; every other solve is
    one vector, the bar solve or the recovery of a realization. No star
    solve of a CG iteration and no counted basis hands the LU a column."""
    case = load_case("case1_mini")
    problem = case.problem
    result = run_method(problem, case.grid, method=method)
    sids = stokes_sids(problem)
    assert len(lu_blocks) == len(sids)
    for sid, blocks in zip(sids, lu_blocks):
        nd, r = len(problem.sub_dofs[sid]), len(problem.systems()[sid].T)
        want = [(nd,)] + ([(r,)] if method != "S3" else [])
        assert Counter(blocks) == Counter(want + [()] * 2 * case.grid.n_real)


@pytest.mark.parametrize("workers", (1, 2))
def test_manifest_totals_are_the_counter_list(case1, case1_sweeps, workers):
    """The manifest's total_* entries are one per name in COUNTERS, each
    the sum of that SolveStats array; with 2 workers every array is the
    one the sweep counts with 1."""
    problem, grid = case1.problem, case1.grid
    for method in ("S1", "S2", "S3"):
        serial = case1_sweeps.results[method]
        result = serial if workers == 1 else run_method(
            problem, grid, method=method, tol=1e-11, workers=workers)
        m = run_manifest(case1.cfg, problem, grid, result)
        assert {key for key in m if key.startswith("total_")} == {
            "total_" + name for name in COUNTERS}, method
        for name in COUNTERS:
            counts = getattr(result.stats, name)
            assert m["total_" + name] == int(counts.sum()), (method, name)
            assert np.array_equal(counts, getattr(serial.stats, name))


def all_stress_system(alpha):
    """The kernel_dim-3 block of test_factor_reuse, under a Darcy block."""
    layout = build_layout([Block((0, 0, 1, 1), "darcy", (2, 2), 0),
                           Block((0, 1, 1, 2), "stokes", (2, 2))])
    mesh = build_subdomain_mesh(layout.blocks[1])
    tr = locate_trace(mesh, layout.blocks[1], layout.interfaces[0])
    F = trace_coupling(tr, stokes.trace_dofs)
    bcs = {s: stokes.StokesBC("stress")
           for s in ("left", "right", "bottom", "top")}
    return tr, F, StokesSystem(mesh, 1.0, alpha, bcs, [tr], coupling=F)


@pytest.mark.parametrize("alpha, kernel_dim, rank", [(0.0, 3, 0),
                                                     (1.0, 2, 5)])
def test_lowrank_all_stress_block(alpha, kernel_dim, rank):
    tr, F, system = all_stress_system(alpha)
    ref = StokesReference(system, {tr.iface.index: np.ones(2)})
    assert (ref.kernel_dim, len(ref.system.T)) == (kernel_dim, rank)
    lam = np.random.default_rng(3).standard_normal((F[3], 4))
    for kvals in ([0.3, 5.0], [1.0, 1.0], [40.0, 0.01]):
        kl = {tr.iface.index: np.array(kvals)}
        low, fresh = ref.factor(kl), fresh_stokes(system, kl)
        assert low.kernel_dim == fresh.kernel_dim == kernel_dim
        assert_same_star(low, fresh, lam)


# -- sparse LUs and set-up counters of a sweep ----------------------------


@pytest.fixture
def factor_calls(monkeypatch):
    """"splu" or "dpbtrf" for every sparse factorization, in call order."""
    calls = []

    def spy_lu(A, *args, **kw):
        calls.append("splu")
        return splu(A, *args, **kw)

    def spy_chol(ab, *args, **kw):
        calls.append("dpbtrf")
        return dpbtrf(ab, *args, **kw)

    monkeypatch.setattr(stokes, "splu", spy_lu)
    monkeypatch.setattr(darcy, "dpbtrf", spy_chol)
    return calls


@pytest.mark.parametrize("method, sweep_factors", [("S1", 130), ("S3", 26)])
def test_sparse_lus_per_sweep(factor_calls, method, sweep_factors):
    """Two sparse LUs, one reference per Stokes block; the others are
    banded Cholesky factors of the Darcy multiplier matrix: one per Darcy
    block at the mean field for the preconditioner, on top of the sweep's
    own, S1 4 Darcy x 32 and S3 the 24 Darcy entries (S1 was 192 sparse
    LUs before the Stokes references, S1 130 and S3 26 before the
    hybridized Darcy solve, and both had no mean-field Darcy factor
    before the mean-field preconditioner)."""
    case = load_case("case1_mini")
    result = run_method(case.problem, case.grid, method=method)
    mean_field_factors = 4
    assert factor_calls.count("splu") == 2
    assert len(factor_calls) == sweep_factors + mean_field_factors
    assert int(result.stats.factorizations.sum()) == (
        192 if method == "S1" else 26)


def test_manifest_setup_totals(case1, case1_sweeps):
    """Set-up work: every method factors the two Stokes references and
    each Darcy block once at the mean field, and solves N_dof,i = 12, 12,
    20, 20, 16, 16 unit loads per block for the mean-field preconditioner;
    S3 never needs W (16 and 17 backsolves in S1/S2)."""
    for method, want in (("S1", (6, 129)), ("S2", (6, 129)),
                         ("S3", (6, 96))):
        result = case1_sweeps.results[method]
        m = run_manifest(case1.cfg, case1.problem, case1.grid, result)
        got = (m["total_setup_factorizations"], m["total_setup_backsolves"])
        assert got == want, method
        assert list(result.stats.setup_factorizations) == [1] * 6
        basis = [12, 12, 20, 20, 16, 16]
        w = [16, 17, 0, 0, 0, 0] if method != "S3" else [0] * 6
        assert list(result.stats.setup_backsolves) == [
            a + b for a, b in zip(basis, w)]


# -- loud failure ------------------------------------------------------------


def zero_bjs_after_reference(monkeypatch):
    """Each Stokes system's first BJS coefficients (its reference) are the
    true ones; every later call returns zeros.

    The systems seen are held, not their ids: a system freed after one
    sweep could hand its id to a new system of the next."""
    original = StokesSystem.bjs_coefficients
    seen = []

    def coefficients(self, kl):
        coef = original(self, kl)
        if any(s is self for s in seen):
            return np.zeros_like(coef)
        seen.append(self)
        return coef

    monkeypatch.setattr(StokesSystem, "bjs_coefficients", coefficients)


def test_zero_bjs_on_a_free_block_raises(monkeypatch):
    """case2_mini block 1 has stress and interface edges only: without BJS
    its tangential translation is in the kernel the reference did not
    border, so the capacitance is singular (rcond 3.4e-14 measured)."""
    zero_bjs_after_reference(monkeypatch)
    case = load_case("case2_mini")
    problem = case.problem
    # block 0 has velocity data: zero BJS leaves it regular
    y = case.grid.points[0]
    problem.assemble_subdomain(0, y, problem.stokes_reference(0))
    with pytest.raises(SingularOperatorError,
                       match="^subdomain 1: capacitance matrix is singular"):
        problem.assemble_subdomain(1, y, problem.stokes_reference(1))


def test_zero_bjs_fails_alike_for_one_and_two_workers(monkeypatch):
    from test_interface import _error_of

    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    zero_bjs_after_reference(monkeypatch)
    errors = []
    for w in (1, 2):
        case = load_case("case2_mini")
        errors.append(_error_of(lambda: run_method(
            case.problem, case.grid, method="S1", workers=w)))
    assert errors[0] == errors[1]
    assert errors[0][0] is SingularOperatorError
    assert errors[0][1].startswith(
        "subdomain 1: capacitance matrix is singular")


def test_updated_operator_without_coupling_solves_its_bar_problem():
    """A system built without coupling maps has no star solve, but an
    operator updated off its reference still solves with its data."""
    tr, _, coupled = all_stress_system(1.0)
    system = StokesSystem(coupled.mesh, 1.0, 1.0, coupled.bcs, [tr],
                          f=lambda x, y: (1.0 + 0 * x, x * y))
    kl = {tr.iface.index: np.array([0.3, 5.0])}
    low = StokesReference(system, {tr.iface.index: np.ones(2)}).factor(kl)
    assert isinstance(low.lu, UpdatedFactors)
    assert_same_solution(low.solve_bar(), fresh_stokes(system, kl).solve_bar())


def test_non_finite_capacitance_raises():
    tr, _, system = all_stress_system(1.0)
    ref = StokesReference(system, {tr.iface.index: np.ones(2)})
    ref.coef = ref.coef * np.nan
    with pytest.raises(SingularOperatorError,
                       match="capacitance matrix is not finite"):
        ref.factor({tr.iface.index: np.ones(2)})


# -- robustness at sigma2 = 25 ---------------------------------------------


def test_sigma2_25_s2_sweep_matches_fresh_factors(monkeypatch):
    """CG converges on every realization, and the low-rank route moves
    lambda by no more than the CG tolerance allows."""
    kl_regions = [dict(r, sigma2=25.0)
                  for r in load_case("case1_mini").cfg["kl_regions"]]
    case = load_case("case1_mini", kl_regions=kl_regions)
    tol = case.options["tol"]
    low = run_method(case.problem, case.grid, method="S2", tol=tol)
    assert all(res[-1] <= tol for res in low.residuals)
    # every operator on a fresh sparse LU of its own matrix
    problem = case.problem
    monkeypatch.setattr(problem, "assemble_subdomain",
                        lambda sid, y, reference=None: fresh_operator(
                            problem, sid, y))
    fresh = run_method(problem, case.grid, method="S2", tol=tol)
    for a, b in zip(low.lambdas, fresh.lambdas):
        assert np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(b)
