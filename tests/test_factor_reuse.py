"""Pattern reuse in the subdomain factor path.

Each invariant system keeps the column order of its first factorization
(assembly.Factorizer), the Stokes saddle matrix is stored already scaled
by its pressure scale, and flux bases are solved in column blocks. The
references here are the routes these replaced: a fresh splu, the product
diag(s) S diag(s) with the kernel check on the sliced velocity block, and
one star solve per basis column (tests/_oracles.py).
"""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from _oracles import fresh_operator, fresh_stokes, per_column_flux_basis
from conftest import load_case
from sdmortar import assembly, stokes
from sdmortar.assembly import BLOCK_BYTES, Factorizer, RefillMatrix
from sdmortar.errors import SingularOperatorError
from sdmortar.geometry import Block, build_layout, build_subdomain_mesh
from sdmortar.interface import SolveStats, compute_flux_basis

CONFIGS = ("case1_mini", "case1_mini_sparse", "case2_mini", "darcy_twoblock")


class Recorder(Factorizer):
    """A Factorizer that keeps every matrix it was handed."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def __call__(self, S):
        self.seen.append(S)
        return super().__call__(S)


@pytest.fixture
def splu_calls(monkeypatch):
    """permc_spec of every splu call made by the factor path."""
    calls = []

    def spy(A, permc_spec=None, **kw):
        calls.append(permc_spec)
        return splu(A, permc_spec=permc_spec, **kw)

    monkeypatch.setattr(assembly, "splu", spy)
    return calls


def two_realizations(case, sid):
    """Factor subdomain sid at the first and last collocation points."""
    problem, grid = case.problem, case.grid
    system = problem.systems()[sid]
    system.factorize = Recorder()
    ops = [fresh_operator(problem, sid, y)
           for y in (grid.points[0], grid.points[-1])]
    return system.factorize.seen, ops


def reuse_gap(case, sid, rng):
    """Largest relative gap of the reused-order solve to a fresh splu."""
    seen, ops = two_realizations(case, sid)
    assert ops[1].lu.perm is not None  # second factorization reused
    b = rng.standard_normal((seen[1].shape[0], 3))
    ref = splu(seen[1]).solve(b)
    return float(np.max(np.abs(ops[1].lu.solve(b) - ref))
                 / np.max(np.abs(ref)))


@pytest.mark.parametrize("name", ("case1_mini", "case1_mini_sparse",
                                  "darcy_twoblock"))
def test_reused_order_is_bitwise_at_x1(name):
    case = load_case(name)
    rng = np.random.default_rng(0)
    for sid in range(case.problem.layout.n_subdomains):
        assert reuse_gap(case, sid, rng) == 0.0, sid


@pytest.mark.parametrize("name, refine", [("case2_mini", 1),
                                          ("case1_mini", 2),
                                          ("case1_mini_sparse", 2),
                                          ("case2_mini", 2),
                                          ("darcy_twoblock", 2)])
def test_reused_order_matches_fresh_factor(name, refine):
    """Same column order; exact magnitude ties can pick other row pivots.

    SuperLU prefers the diagonal among equal pivot candidates, and in the
    pre-permuted matrix another row is the diagonal, so a few Darcy rows
    of these systems pivot differently (up to 3e-14 measured).
    """
    case = load_case(name, refine=refine)
    rng = np.random.default_rng(0)
    for sid in range(case.problem.layout.n_subdomains):
        assert reuse_gap(case, sid, rng) <= 1e-13, sid


def test_first_factorization_orders_by_colamd(splu_calls):
    case = load_case("case1_mini")
    two_realizations(case, 2)
    assert splu_calls == [None, "NATURAL"]


def stress_system(traces=(), coupling=None, n=2):
    """All-stress Stokes block: all three rigid motions in the kernel."""
    mesh = build_subdomain_mesh(Block((0, 1, 1, 2), "stokes", (n, n)))
    bcs = {s: stokes.StokesBC("stress")
           for s in ("left", "right", "bottom", "top")}
    return mesh, stokes.StokesSystem(mesh, 1.0, 0.0, bcs, list(traces),
                                     coupling=coupling)


def test_changed_pattern_refactors_with_colamd(splu_calls):
    """The kernel_dim == 3 system of test_kernel_dimensions."""
    _, system = stress_system()
    system.factorize(system.matrix(np.zeros(0)))  # unbordered pattern kept
    op = fresh_stokes(system)
    assert op.kernel_dim == 3
    assert splu_calls == [None, None]
    assert op.lu.perm is None
    sol = op.solve_bar()
    assert np.max(np.abs(sol.u)) < 1e-12
    assert np.max(np.abs(sol.p)) < 1e-12


def test_singular_matrix_on_the_reused_order_raises(splu_calls):
    case = load_case("case1_mini")
    system = case.problem.systems()[3]
    K = case.problem.sample_permeability(3, case.grid.points[0])
    system.factor(K)
    S = system.matrix(system.nu / K)
    first = S.indptr[0], S.indptr[1]
    S.data[first[0]:first[1]] = 0.0  # zero column, same pattern
    with pytest.raises(SingularOperatorError, match="singular"):
        system.factorize(S)
    assert splu_calls == [None, "NATURAL"]


# -- pressure-scaled Stokes refill ---------------------------------------


class RefillRecorder(RefillMatrix):
    """Keeps the constructor arguments, to rebuild the unscaled matrix."""

    def __init__(self, shape, const, scaled, n_coef, diag=None):
        super().__init__(shape, const, scaled, n_coef, diag=diag)
        self.unscaled = RefillMatrix(shape, const, scaled, n_coef)
        self.diag = diag


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
def test_scaled_refill_equals_diagonal_product(monkeypatch, name, alpha,
                                               refine):
    monkeypatch.setattr(stokes, "RefillMatrix", RefillRecorder)
    case = load_case(name, refine=refine, physics={"alpha": alpha})
    problem = case.problem
    kernel_dims = []
    for sid, system in enumerate(problem.systems()):
        if problem.layout.blocks[sid].physics != "stokes":
            continue
        kl = problem.sample_permeability(sid, case.grid.points[-1])
        coef = system.bjs_coefficients(kl)
        assert (coef.size > 0) == (alpha > 0)
        D = sp.diags(system.matrix.diag)
        old = (D @ system.matrix.unscaled(coef) @ D).tocsc()
        new = system.matrix(coef)
        assert np.array_equal(new.indptr, old.indptr)
        assert np.array_equal(new.indices, old.indices)
        assert np.array_equal(new.data, old.data)
        op = fresh_stokes(system, kl)
        assert op.kernel_dim == sliced_kernel_dim(
            system, system.matrix.unscaled(coef))
        kernel_dims.append(op.kernel_dim)
    if name == "case2_mini":
        assert max(kernel_dims) > 0


def test_structural_zeros_are_dropped():
    """Viscous cancellations leave exact zeros that the pattern drops."""
    _, system = stress_system(n=4)
    S = system.matrix(np.zeros(0))
    assert S.nnz == len(S.data) and np.all(S.data != 0.0)


# -- column-block solves --------------------------------------------------


def assert_block_matches_columns(op, lam, solve):
    """One backsolve per column; columns equal the single solves.

    SuperLU's multi-column solve rounds differently: the velocities agree
    to 1e-14 in norm (5e-15 measured), the Stokes star pressures to 3.3e-14.
    """
    before = op.backsolves
    block = solve(lam)
    assert op.backsolves == before + lam.shape[1]
    for j in range(lam.shape[1]):
        single = solve(lam[:, j])
        for got, ref, tol in ((block.u[:, j], single.u, 1e-14),
                              (block.p[:, j], single.p, 1e-13)):
            assert np.linalg.norm(got - ref) <= tol * np.linalg.norm(ref)


@pytest.mark.parametrize("name", ("case1_mini", "case2_mini"))
def test_block_star_solve_matches_single_solves(name):
    case = load_case(name)
    problem = case.problem
    rng = np.random.default_rng(1)
    for sid in range(problem.layout.n_subdomains):
        op = fresh_operator(problem, sid, case.grid.points[3])
        nd = len(problem.space.sub_dofs(problem.layout, sid))
        assert_block_matches_columns(op, rng.standard_normal((nd, 5)),
                                     op.solve_star)


def test_block_star_solve_with_three_kernel_constraints():
    layout = build_layout([Block((0, 0, 1, 1), "darcy", (2, 2), 0),
                           Block((0, 1, 1, 2), "stokes", (2, 2))])
    mesh = build_subdomain_mesh(layout.blocks[1])
    tr = stokes.interface_trace(mesh, layout.blocks[1], layout.interfaces[0])
    F = sp.vstack(stokes.trace_maps(mesh, tr)).tocsr()
    _, system = stress_system(traces=[tr], coupling=F)
    op = fresh_stokes(system, {tr.iface: np.ones(2)})
    assert op.kernel_dim == 3
    lam = np.random.default_rng(2).standard_normal((F.shape[0], 4))
    assert_block_matches_columns(op, lam, op.solve_star)


@pytest.mark.parametrize("name", CONFIGS)
def test_flux_basis_matches_per_column_oracle(name):
    case = load_case(name)
    problem = case.problem
    n_sub = problem.layout.n_subdomains
    stats = SolveStats.new("S2", n_sub)
    for sid in range(n_sub):
        op = fresh_operator(problem, sid, case.grid.points[-1])
        dofs, B = compute_flux_basis(problem, sid, op, stats)
        ref_dofs, ref = per_column_flux_basis(problem, sid, op)
        assert np.array_equal(dofs, ref_dofs)
        assert np.max(np.abs(B - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert stats.basis_backsolves[sid] == len(dofs)
        assert op.backsolves == 2 * len(dofs)


def test_basis_blocks_stay_within_the_byte_budget():
    case = load_case("case1_mini", refine=2)
    problem = case.problem
    stats = SolveStats.new("S2", problem.layout.n_subdomains)
    for sid in range(problem.layout.n_subdomains):
        op = fresh_operator(problem, sid, case.grid.points[0])
        sizes, lu = [], op.lu.lu

        class Spy:
            def solve(self, rhs):
                sizes.append((rhs.nbytes, rhs.shape[1:]))
                return lu.solve(rhs)

        op.lu.lu = Spy()
        dofs, _ = compute_flux_basis(problem, sid, op, stats)
        assert sum(shape[0] for _, shape in sizes) == len(dofs)
        assert max(nbytes for nbytes, _ in sizes) <= BLOCK_BYTES
        assert len(sizes) < len(dofs)  # whole blocks, not single columns
