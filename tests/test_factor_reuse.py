"""Pattern reuse in the subdomain factor paths.

A Darcy system numbers its edge multipliers once (by midpoint, along the
block's shorter side first), and per realization fills the band of H and
factors it, its solves running cell by cell in closed form; a Stokes
reference is one sparse LU (COLAMD) of S0, the saddle matrix without BJS
stored already scaled by its pressure scale, plus the r x r BJS block.
A flux basis is one product: a Stokes basis its reference's mean-field
basis (one LU solve of all the unit star loads) plus a rank-r product, a
Darcy basis one Gram product of its per-column triangular solves. The
references here are the routes these replaced: a sparse LU of the Darcy
saddle matrix, the product diag(s) S diag(s) of a saddle matrix summed
from COO triplets with the kernel check on the sliced velocity block,
and one star solve per basis column (tests/_oracles.py).
"""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from _oracles import (factor_rows, fresh_operator, fresh_stokes,
                      lu_solution, lu_unknowns, per_column_flux_basis,
                      saddle_gap, star_load, stokes_saddle_matrix,
                      trace_coupling)
from conftest import build_operators, load_case, new_group
from sdmortar import darcy, stokes
from sdmortar.errors import SingularOperatorError
from sdmortar.geometry import (Block, build_layout, build_subdomain_mesh,
                               locate_trace)
from sdmortar.interface import SolveStats, compute_flux_basis

CONFIGS = ("case1_mini", "case1_mini_sparse", "case2_mini", "darcy_twoblock")


@pytest.fixture
def splu_calls(monkeypatch):
    """permc_spec of every splu call made by the factor path."""
    calls = []

    def spy(A, permc_spec=None, **kw):
        calls.append(permc_spec)
        return splu(A, permc_spec=permc_spec, **kw)

    monkeypatch.setattr(stokes, "splu", spy)
    return calls


def darcy_sids(problem):
    return [sid for sid, b in enumerate(problem.layout.blocks)
            if b.physics == "darcy"]


def two_realizations(case, sid):
    """Factor Darcy subdomain sid at the first and last collocation points
    on its system; returns the last point's K and both operators."""
    problem, grid = case.problem, case.grid
    ops = [problem.assemble_subdomain(sid, y)
           for y in (grid.points[0], grid.points[-1])]
    return problem.sample_permeability(sid, grid.points[-1]), ops


@pytest.mark.parametrize("name", ("case1_mini", "case1_mini_sparse",
                                  "darcy_twoblock"))
def test_reused_order_is_bitwise_at_x1(name):
    """A system's second factor, on its kept multiplier order and per-cell
    constants, is bit for bit the first factor of a fresh system."""
    case = load_case(name)
    problem = case.problem
    rng = np.random.default_rng(0)
    for sid in darcy_sids(problem):
        K, ops = two_realizations(case, sid)
        fresh = problem._build_system(sid)
        assert np.array_equal(fresh.multiplier, ops[1].system.multiplier)
        op = fresh.factor(K)
        b = rng.standard_normal((factor_rows(op), 3))
        assert np.array_equal(op.chol, ops[1].chol), sid
        assert np.array_equal(lu_unknowns(op, b), lu_unknowns(ops[1], b)), sid


@pytest.mark.parametrize("name, refine", [("case2_mini", 1),
                                          ("case1_mini", 2),
                                          ("case1_mini_sparse", 2),
                                          ("case2_mini", 2),
                                          ("darcy_twoblock", 2)])
def test_reused_order_matches_fresh_factor(name, refine):
    """The hybridized solve on the kept order against a fresh sparse LU of
    the saddle matrix (up to 6.8e-14 measured, darcy_twoblock at x2)."""
    case = load_case(name, refine=refine)
    rng = np.random.default_rng(0)
    for sid in darcy_sids(case.problem):
        K, ops = two_realizations(case, sid)
        b = rng.standard_normal((factor_rows(ops[1]), 3))
        assert saddle_gap(ops[1], K, b) <= 1e-13, sid


def test_first_factorization_orders_by_colamd(splu_calls):
    """The one sparse LU per Stokes system and sweep, its reference's,
    orders by COLAMD; a Darcy factor makes no sparse LU."""
    case = load_case("case1_mini")
    two_realizations(case, 2)
    assert splu_calls == []
    case.problem.stokes_reference(0)
    assert splu_calls == [None]


def stress_system(traces=(), coupling=None, n=2):
    """All-stress Stokes block: all three rigid motions in the kernel."""
    mesh = build_subdomain_mesh(Block((0, 1, 1, 2), "stokes", (n, n)))
    bcs = {s: stokes.StokesBC("stress")
           for s in ("left", "right", "bottom", "top")}
    return mesh, stokes.StokesSystem(mesh, 1.0, 0.0, bcs, list(traces),
                                     coupling=coupling)


def test_changed_pattern_refactors_with_colamd(splu_calls):
    """The kernel_dim == 3 system of test_kernel_dimensions: its pattern,
    bordered by three rigid-body rows, is ordered by COLAMD as well."""
    _, system = stress_system()
    op = fresh_stokes(system)
    assert op.kernel_dim == 3
    assert splu_calls == [None]
    sol = op.solve_bar()
    assert np.max(np.abs(sol.u)) < 1e-12
    assert np.max(np.abs(sol.p)) < 1e-12


def _nbytes(value):
    """Bytes of an array or of the arrays a sparse matrix holds; else 0."""
    if sp.issparse(value):
        return sum(map(_nbytes, vars(value).values()))
    return value.nbytes if isinstance(value, np.ndarray) else 0


@pytest.mark.parametrize("name", CONFIGS)
def test_darcy_operator_holds_only_its_factor_and_trace_maps(name):
    """A factored Darcy operator, as an S3 entry keeps it, holds no arrays
    beyond H's band factor, the cells' K/nu, R and P: the solve's other
    constants are its system's."""
    case = load_case(name)
    problem = case.problem
    y = case.grid.points[-1]
    for sid in darcy_sids(problem):
        op = problem.assemble_subdomain(sid, y)
        K = problem.sample_permeability(sid, y)
        shared = {id(v) for v in vars(op.system).values()}
        held = sum(_nbytes(v) for v in vars(op).values()
                   if id(v) not in shared)
        assert held == sum(x.nbytes for x in (op.chol, K / op.system.nu,
                                              op.R, op.P)), sid


@pytest.mark.parametrize("name", CONFIGS[:3])
def test_stokes_operator_holds_only_its_update(name):
    """A Stokes operator holds no array beyond its BJS coefficients coef
    at the reference coefficients, as S3's operators and the mean field's
    are; an updated one holds exactly G, its trace functionals F G and
    the bar load's lift. What else its solves read is its reference's or
    its system's."""
    case = load_case(name)
    problem = case.problem
    s3 = new_group(case, "S3")
    build_operators(s3)
    zero = np.zeros(problem.perm.n_dims)
    assert len(s3.refs) == 2
    for sid, ref in s3.refs.items():
        shared = {id(v) for obj in (ref.system, ref)
                  for v in vars(obj).values()}

        def held(op):
            return {k for k, v in vars(op).items()
                    if isinstance(v, np.ndarray) and id(v) not in shared}

        at_ref = [o for (s, _), (o, _) in s3.cache.items() if s == sid]
        at_ref.append(problem.assemble_subdomain(sid, zero, ref))
        assert len(at_ref) == 2, sid
        for op in at_ref:
            assert held(op) == {"coef"}, sid
            assert np.array_equal(op.coef, ref.coef)
            assert op.G is op.lift is op._FG is None
        op = problem.assemble_subdomain(sid, case.grid.points[-1], ref)
        assert held(op) == {"coef", "G", "_FG", "lift"}, sid
        assert op.G.shape == (factor_rows(op), len(op.system.T))
        assert op.lift.shape == (factor_rows(op),)


@pytest.mark.parametrize("refine", (1, 2))
def test_multiplier_band_is_summed_in_lapack_column_order(refine):
    """H's band is summed straight into column-major storage: it equals,
    bit for bit, the row-major sum of the same contributions, and dpbtrf
    factors it in place, without a copy."""
    case = load_case("case1_mini", refine=refine)
    problem = case.problem
    for sid in darcy_sids(problem):
        system = problem.systems()[sid]
        K = problem.sample_permeability(sid, case.grid.points[-1])
        band = system.multiplier_band(K)
        n = system.kd + 1
        d, j = np.divmod(system._band_at, n)[::-1]
        rows = np.bincount(d * system.n_mult + j, (K / system.nu)[
            system._band_cell] * system._band_q, n * system.n_mult)
        assert band.flags.f_contiguous
        assert np.array_equal(band, rows.reshape(n, system.n_mult))
        chol, info = darcy.dpbtrf(band, lower=1, overwrite_ab=1)
        assert info == 0 and np.shares_memory(chol, band)


def test_singular_matrix_on_the_reused_order_raises(splu_calls,
                                                    monkeypatch):
    """A multiplier matrix that is not positive definite, on the order a
    first factor already used, raises naming the subdomain."""
    case = load_case("case1_mini")
    system = case.problem.systems()[3]
    K = case.problem.sample_permeability(3, case.grid.points[0])
    system.factor(K)
    band = system.multiplier_band

    def zero_column(K):
        out = band(K)
        out[:, 0] = 0.0
        return out

    monkeypatch.setattr(system, "multiplier_band", zero_column)
    with pytest.raises(SingularOperatorError,
                       match="subdomain 3: multiplier matrix is not positive "
                             r"definite \(leading minor 1\)"):
        system.factor(K)
    assert splu_calls == []


# -- pressure-scaled Stokes matrix ---------------------------------------


def sliced_kernel_dim(system, S):
    """Kernel check as it was: Zf^T A Zf of the sliced velocity block."""
    n_free = len(system.free)
    A_red = S[:n_free, :n_free]
    Zf = system._Zp[:n_free]
    lam = np.linalg.eigvalsh(Zf.T @ (A_red @ Zf))
    return int(np.sum(lam <= 1e-10 * max(A_red.diagonal().max(), 1e-30)))


@pytest.mark.parametrize("name, alpha, refine", [
    ("case1_mini", 0.0, 1), ("case1_mini", 1.0, 1), ("case1_mini", 1.0, 2),
    ("case2_mini", 0.0, 1), ("case2_mini", 1.0, 1), ("case1_mini", 0.0, 2)])
def test_scaled_refill_equals_diagonal_product(name, alpha, refine):
    """S0 plus the BJS block at a point's coefficients is D (A + BJS) D,
    D = diag(1, p_scale) on (velocity, pressure) unknowns: same pattern,
    data bitwise without BJS and within 1e-15 relative with it (the
    oracle sums an entry's viscous and BJS terms in another order)."""
    case = load_case(name, refine=refine, physics={"alpha": alpha})
    problem = case.problem
    kernel_dims = []
    for sid, system in enumerate(problem.systems()):
        if problem.layout.blocks[sid].physics != "stokes":
            continue
        kl = problem.sample_permeability(sid, case.grid.points[-1])
        coef = system.bjs_coefficients(kl)
        assert (coef.size > 0) == (alpha > 0)
        unscaled = stokes_saddle_matrix(system, coef)
        D = sp.diags(np.concatenate([np.ones(len(system.free)),
                                     np.full(system.n_p, system.p_scale)]))
        old = (D @ unscaled @ D).tocsc()
        old.sort_indices()
        T = system.T
        bjs = sp.coo_matrix(system.bjs_block(coef))
        new = system.S0 + sp.csc_matrix(
            (bjs.data, (T[bjs.row], T[bjs.col])), shape=system.S0.shape)
        assert np.array_equal(new.indptr, old.indptr)
        assert np.array_equal(new.indices, old.indices)
        if alpha == 0.0:
            assert np.array_equal(new.data, old.data)
        else:
            assert np.all(np.abs(new.data - old.data)
                          <= 1e-15 * np.abs(old.data))
        op = fresh_stokes(system, kl)
        assert op.kernel_dim == sliced_kernel_dim(system, unscaled)
        kernel_dims.append(op.kernel_dim)
    if name == "case2_mini":
        assert max(kernel_dims) > 0


def test_structural_zeros_are_dropped():
    """Viscous cancellations leave exact zeros that S0 drops."""
    _, system = stress_system(n=4)
    A = system._assemble_viscous(system._shape_tables())
    assert np.any(A.data == 0.0)
    S = system.S0
    assert S.nnz == len(S.data) and np.all(S.data != 0.0)


# -- column-block solves --------------------------------------------------


def full_star_response(op, lam):
    """F u of the operator's full-field star solve: the star load solved
    with its own factor (_oracles.lu_solution), its velocity scattered to
    every dof and read by F."""
    return op.system.coupling.functionals(
        lu_solution(op, star_load(op, lam)).u)


def assert_block_matches_columns(op, lam):
    """solve_star: one backsolve per column; columns equal the single
    solves, and both equal F u of the full-field star solve.

    A multi-column solve rounds differently from one column; the full
    solve takes another route to the trace (Darcy: the back map, not
    R^T H^-1 R - P).
    """
    before = op.backsolves
    block = op.solve_star(lam)
    assert op.backsolves == before + lam.shape[1]
    full = full_star_response(op, lam)
    assert np.linalg.norm(block - full) <= 1e-12 * np.linalg.norm(full)
    for j in range(lam.shape[1]):
        single = op.solve_star(lam[:, j])
        ref = full_star_response(op, lam[:, j])
        assert np.linalg.norm(single - ref) <= 1e-12 * np.linalg.norm(ref)
        assert (np.linalg.norm(block[:, j] - single)
                <= 1e-14 * np.linalg.norm(single))


@pytest.mark.parametrize("name", ("case1_mini", "case2_mini"))
def test_block_star_solve_matches_single_solves(name):
    case = load_case(name)
    problem = case.problem
    rng = np.random.default_rng(1)
    for sid in range(problem.layout.n_subdomains):
        op = fresh_operator(problem, sid, case.grid.points[3])
        nd = len(problem.space.sub_dofs(problem.layout, sid))
        assert_block_matches_columns(op, rng.standard_normal((nd, 5)))


def test_block_star_solve_with_three_kernel_constraints():
    layout = build_layout([Block((0, 0, 1, 1), "darcy", (2, 2), 0),
                           Block((0, 1, 1, 2), "stokes", (2, 2))])
    mesh = build_subdomain_mesh(layout.blocks[1])
    tr = locate_trace(mesh, layout.blocks[1], layout.interfaces[0])
    F = trace_coupling(tr, stokes.trace_dofs)
    _, system = stress_system(traces=[tr], coupling=F)
    op = fresh_stokes(system, {tr.iface.index: np.ones(2)})
    assert op.kernel_dim == 3
    lam = np.random.default_rng(2).standard_normal((F[3], 4))
    assert_block_matches_columns(op, lam)


@pytest.mark.parametrize("name, refine", [
    pytest.param(name, refine, id=name if refine == 1 else f"{name}-x2")
    for refine in (1, 2) for name in CONFIGS])
def test_flux_basis_matches_per_column_oracle(name, refine):
    case = load_case(name, refine=refine)
    problem = case.problem
    n_sub = problem.layout.n_subdomains
    stats = SolveStats.new("S2", n_sub)
    for sid in range(n_sub):
        op = fresh_operator(problem, sid, case.grid.points[-1])
        dofs, B = compute_flux_basis(problem, sid, op, stats)
        assert stats.basis_backsolves[sid] == op.backsolves == len(dofs)
        ref_dofs, ref = per_column_flux_basis(problem, sid, op)
        assert np.array_equal(dofs, ref_dofs)
        assert np.max(np.abs(B - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("refine", (1, 2))
@pytest.mark.parametrize("name", CONFIGS)
def test_darcy_gram_basis_is_the_unit_response_basis(name, refine):
    """P - Z^T Z equals -F A^-1 E of the full-field star solves of the unit
    loads and is exactly symmetric; it counts N_dof backsolves."""
    case = load_case(name, refine=refine)
    problem = case.problem
    for sid in darcy_sids(problem):
        op = fresh_operator(problem, sid, case.grid.points[-1])
        nd = len(problem.sub_dofs[sid])
        B = op.flux_basis()
        assert op.backsolves == nd
        ref = -full_star_response(op, np.eye(nd))
        assert np.max(np.abs(B - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.array_equal(B, B.T)


@pytest.mark.parametrize("name", CONFIGS)
def test_bar_solve_with_interface_data_is_bar_plus_star(name):
    """solve_bar(lam), one backsolve, gives the fields of the bar solve
    plus those of the full-field star solve of lam, solved with the
    operator's own factor (_oracles.lu_solution): for a Stokes block an
    LU solve, against solve_bar's products on its reference's
    responses."""
    case = load_case(name)
    problem = case.problem
    rng = np.random.default_rng(4)
    for sid in range(problem.layout.n_subdomains):
        op = fresh_operator(problem, sid, case.grid.points[1])
        lam = rng.standard_normal(len(problem.sub_dofs[sid]))
        before = op.backsolves
        both = op.solve_bar(lam)
        assert op.backsolves == before + 1
        bar, star = op.solve_bar(), lu_solution(op, star_load(op, lam))
        for got, a, b in ((both.u, bar.u, star.u), (both.p, bar.p, star.p)):
            assert np.linalg.norm(got - (a + b)) <= 1e-13 * np.linalg.norm(
                a + b), sid


def test_darcy_block_without_interfaces_has_an_empty_basis():
    """N_dof = 0: a 0 x 0 basis and an empty star response."""
    mesh = build_subdomain_mesh(Block((0, 0, 1, 1), "darcy", (3, 2), 0))
    none = (np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0), 0)
    system = darcy.DarcySystem(mesh, 1.0, {"left": darcy.DarcyBC("pressure")},
                               [], coupling=none)
    op = system.factor(np.ones(mesh.n_cells))
    assert op.flux_basis().shape == (0, 0)
    assert op.solve_star(np.zeros(0)).shape == (0,)
    assert op.backsolves == 1


class Recording:
    """A factor that records the trailing shape of every block handed to
    it."""

    def __init__(self, inner, blocks):
        self.inner, self.blocks = inner, blocks
        self.shape = inner.shape

    def solve(self, rhs):
        self.blocks.append(rhs.shape[1:])
        return self.inner.solve(rhs)


def test_basis_solves_each_column_once_from_its_first_multiplier(
        monkeypatch):
    """A Darcy basis makes one dtbtrs per column of R, each of one column
    and with H's factor cut at the first multiplier the column reaches.
    A Stokes reference hands its LU one block of its N_dof unit star
    loads for its mean-field basis, and a realization's Stokes basis
    hands the LU nothing."""
    case = load_case("case1_mini", refine=2)
    problem = case.problem
    stats = SolveStats.new("S2", problem.layout.n_subdomains)
    calls = []
    triangular = darcy.dtbtrs

    def spy_triangular(ab, b, **kw):
        calls.append((ab.shape[1], b.shape[1:]))
        return triangular(ab, b, **kw)

    monkeypatch.setattr(darcy, "dtbtrs", spy_triangular)
    for sid in range(problem.layout.n_subdomains):
        if problem.layout.blocks[sid].physics == "stokes":
            blocks = []
            reference = problem.stokes_reference(sid)
            reference.lu = Recording(reference.lu, blocks)
            reference.mean_basis()
            assert blocks == [(len(problem.sub_dofs[sid]),)]
            op = problem.assemble_subdomain(sid, case.grid.points[0],
                                            reference)
            blocks.clear()
            compute_flux_basis(problem, sid, op, stats)
            assert blocks == []
            continue
        op = fresh_operator(problem, sid, case.grid.points[0])
        calls.clear()
        dofs, _ = compute_flux_basis(problem, sid, op, stats)
        reach, n = op.system.reach, op.chol.shape[1]
        first = [reach[np.flatnonzero(col)[0]] for col in op.R.T]
        assert len(calls) == len(dofs)
        assert calls == [(n - start, ()) for start in first], sid
