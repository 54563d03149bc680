"""Interface CG solver and the three solution-method variants.

The mortar unknown solves S lam = g where S is the flux-jump response of
the subdomain star problems and g the jump produced by the bar problems.
With the coupling maps of each subdomain's invariant system (see
problem.py), S lam = sum_i scatter(-F_i A_i^-1 E_i lam_i), where A_i is the
realization's factored operator and lam_i the local mortar vector. Three
drivers share that structure and differ in how S is applied:

* S1 applies S matrix-free, one star solve per subdomain per CG iteration.
* S2 assembles the local flux response basis B_i = -F_i A_i^-1 E_i (one
  star solve per local mortar dof) fresh for every realization and applies
  S as a matrix.
* S3 assembles that basis once per distinct local realization of each
  subdomain's permeability region and reuses it across the sweep; the
  basis of a Stokes subdomain is frozen at the mean-field permeability.

All three solve S lam = g by preconditioned CG. A sweep keeps one
SecantPreconditioner, a dense H ~ S^-1 that starts as the identity (so the
first realization runs plain CG) and after every realization folds in that
solve's search pairs (p_j, S p_j) by BFGS updates. Consecutive collocation
points change S only through K, so later solves need a fraction of the
first one's iterations. The pairs are a by-product of CG and H is applied
as a dense matvec, so the preconditioner costs no subdomain solves.

Backsolve counts per subdomain follow the identities
S1: sum_k N_iter(k) + 2 N_real, S2: N_dof_i N_real + 2 N_real,
S3: N_dof_i N_loc(i) + 2 N_real.
"""

import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .errors import ConvergenceError, SizeCapError
from .moments import MomentAccumulator
from .mortar import jump

log = logging.getLogger(__name__)

METHODS = ("S1", "S2", "S3")


@dataclass
class SolveStats:
    """Per-subdomain solver effort counters for one sweep."""

    method: str
    n_sub: int
    factorizations: np.ndarray
    backsolves: np.ndarray
    basis_backsolves: np.ndarray
    cg_iters: list = field(default_factory=list)
    wall_seconds: np.ndarray = None
    n_real: int = 0

    @classmethod
    def new(cls, method, n_sub):
        z = lambda: np.zeros(n_sub, dtype=int)
        return cls(method, n_sub, z(), z(), z(),
                   wall_seconds=np.zeros(n_sub))

    def harvest(self, sid, op):
        """Absorb the lifetime counters of an operator being retired."""
        self.factorizations[sid] += op.factorizations
        self.backsolves[sid] += op.backsolves

    @property
    def cg_iters_total(self):
        return int(sum(self.cg_iters))

    def rows(self):
        """One dict per subdomain, ready for CSV output."""
        out = []
        for sid in range(self.n_sub):
            out.append({
                "method": self.method,
                "subdomain": sid,
                "factorizations": int(self.factorizations[sid]),
                "backsolves": int(self.backsolves[sid]),
                "basis_backsolves": int(self.basis_backsolves[sid]),
                "cg_iters_total": self.cg_iters_total,
                "n_real": self.n_real,
                "wall_seconds": float(self.wall_seconds[sid]),
            })
        return out


class _Pool:
    """Order-preserving map over subdomains, optionally threaded.

    Results are collected in submission order so reductions downstream are
    deterministic regardless of worker count.
    """

    def __init__(self, workers=1):
        self.workers = max(1, int(workers))
        self._ex = None

    def __enter__(self):
        if self.workers > 1:
            self._ex = ThreadPoolExecutor(max_workers=self.workers)
        return self

    def __exit__(self, *exc):
        if self._ex is not None:
            self._ex.shutdown(wait=True)
        return False

    def map(self, fn, items):
        if self._ex is None:
            return [fn(it) for it in items]
        return list(self._ex.map(fn, items))


@dataclass
class CGResult:
    """Outcome of cg_solve; unpacks as the triple (x, n_iter, residuals).

    `pairs` holds every search direction p_j with its image S p_j, the data
    SecantPreconditioner.update folds into its estimate of S^-1. `cond` is
    the Lanczos estimate of cond(H S), or None when no iteration ran.
    """

    x: np.ndarray
    n_iter: int
    residuals: list
    pairs: list
    cond: float

    def __iter__(self):
        return iter((self.x, self.n_iter, self.residuals))


def lanczos_cond(alphas, betas):
    """Ratio of the extreme Ritz values of the (P)CG Lanczos matrix.

    With step lengths a_j and direction updates b_j = (r.z)_{j+1}/(r.z)_j,
    the Lanczos tridiagonal of H S has diagonal 1/a_j + b_{j-1}/a_{j-1} and
    off-diagonal sqrt(b_j)/a_j (Saad, Iterative Methods for Sparse Linear
    Systems, 6.7.3). Its extreme eigenvalues approach those of H S.
    """
    if not alphas:
        return None
    a = np.asarray(alphas)
    b = np.asarray(betas[:len(a) - 1])
    diag = 1.0 / a
    diag[1:] += b / a[:-1]
    ritz = eigvalsh_tridiagonal(diag, np.sqrt(b) / a[:-1])
    return float(ritz[-1] / ritz[0])


def cg_solve(apply_fn, g, tol=1e-9, max_iter=None, precond=None):
    """CG from x0 = 0, preconditioned by z = precond(r) when one is given.

    precond must act as a fixed symmetric positive definite matrix for the
    whole solve; with None this is plain CG. run_method passes the sweep's
    SecantPreconditioner and updates it from the returned pairs after the
    solve, so H never changes within a solve. The stopping test is always
    on the unpreconditioned residual, |r| <= tol |g|, so `tol` and the
    residual history mean the same with and without a preconditioner. Each
    iteration costs exactly one apply_fn call and the preconditioner none,
    which keeps the S1 identity sum_k N_iter(k) + 2 N_real exact. A
    preconditioner that yields r.z <= 0 or a non-finite r.z raises
    ConvergenceError. Returns a CGResult.
    """
    n = len(g)
    x = np.zeros(n)
    gnorm = float(np.linalg.norm(g))
    if gnorm == 0.0:
        return CGResult(x, 0, [], [], None)
    if max_iter is None:
        max_iter = max(50, 10 * n)
    residuals, pairs, alphas, betas = [], [], [], []

    def precondition(r, it):
        if precond is None:
            return r, float(r @ r)
        z = precond(r)
        rz = float(r @ z)
        if not 0.0 < rz < np.inf:
            raise ConvergenceError(
                f"preconditioner is not positive definite (r.z = {rz:.3e} "
                f"after iteration {it})", residuals)
        return z, rz

    r = g.copy()
    z, rz = precondition(r, 0)
    p = z.copy()
    for it in range(1, max_iter + 1):
        Sp = apply_fn(p)
        pSp = float(p @ Sp)
        if pSp <= 0.0:
            raise ConvergenceError(
                f"interface operator is not positive definite "
                f"(p.Sp = {pSp:.3e} at iteration {it})", residuals)
        pairs.append((p, Sp))
        a = rz / pSp
        alphas.append(a)
        x += a * p
        r -= a * Sp
        rn = float(np.linalg.norm(r))
        residuals.append(rn / gnorm)
        if rn <= tol * gnorm:
            return CGResult(x, it, residuals, pairs,
                            lanczos_cond(alphas, betas))
        z, rz_new = precondition(r, it)
        betas.append(rz_new / rz)
        p = z + betas[-1] * p
        rz = rz_new
    raise ConvergenceError(
        f"CG did not reach tol {tol:g} in {max_iter} iterations "
        f"(last residual {residuals[-1]:.3e})", residuals)


class SecantPreconditioner:
    """Dense estimate H of S^-1 that one sweep carries across realizations.

    H starts as the identity, so the first solve of a sweep is plain CG.
    update() folds in each (s, y) = (p, S p) pair of a finished solve with
    the BFGS inverse update
        H <- (I - rho s y^T) H (I - rho y s^T) + rho s s^T,  rho = 1/(y.s),
    which keeps H symmetric positive definite (y.s = p.Sp > 0 is checked by
    cg_solve) and makes it satisfy the secant condition H y = s for the
    latest pair. Consecutive collocation points change S only through K, so
    the pairs of one solve precondition the next (Morales & Nocedal, SIAM J.
    Optim. 2000).
    """

    def __init__(self):
        self.H = None

    def __call__(self, r):
        return r if self.H is None else self.H @ r

    def update(self, pairs):
        for s, y in pairs:
            sy = float(s @ y)
            if self.H is None:
                self.H = (sy / float(y @ y)) * np.eye(len(s))
            Hy = self.H @ y
            rho = 1.0 / sy
            self.H += (rho * rho * float(y @ Hy) + rho) * np.outer(s, s)
            self.H -= rho * (np.outer(s, Hy) + np.outer(Hy, s))


def _timed_map(pool, stats, fn, sids):
    """Map fn over subdomains, accumulating per-subdomain wall time."""

    def task(sid):
        t0 = time.perf_counter()
        val = fn(sid)
        return val, time.perf_counter() - t0

    out = []
    for sid, (val, dt) in zip(sids, pool.map(task, sids)):
        stats.wall_seconds[sid] += dt
        out.append(val)
    return out


def assemble_realization(problem, y, pool, stats, sids=None):
    """Fresh factored operators for every subdomain at stochastic point y."""
    problem.systems()  # build the invariant part here, not in pool threads
    if sids is None:
        sids = range(problem.layout.n_subdomains)
    Kf = problem.permeability(y)
    return _timed_map(pool, stats, lambda sid: problem.assemble_subdomain(
        sid, Kf), list(sids))


def compute_rhs(problem, ops, pool, stats):
    """Bar solves on all subdomains. Returns (bar solutions, jump vector)."""
    sids = list(range(problem.layout.n_subdomains))

    def work(sid):
        sol = ops[sid].solve_bar()
        return sol, problem.side_functionals(sid, ops[sid], sol)

    results = _timed_map(pool, stats, work, sids)
    bars = [r[0] for r in results]
    entries = [e for r in results for e in r[1]]
    return bars, jump(problem.space, entries)


def _sub_dofs(problem):
    layout = problem.layout
    return [problem.space.sub_dofs(layout, sid)
            for sid in range(layout.n_subdomains)]


def direct_apply(problem, ops, pool, stats):
    """Matrix-free S application: S lam = sum_i scatter(-F_i A_i^-1 E_i lam_i).

    One star solve per subdomain per call.
    """
    dofs = _sub_dofs(problem)
    sids = list(range(len(dofs)))

    def apply_fn(lam):
        def work(sid):
            sol = ops[sid].solve_star(lam[dofs[sid]])
            return ops[sid].system.coupling.functionals(sol.u)

        out = np.zeros(problem.space.n_dof)
        for sid, resp in zip(sids, _timed_map(pool, stats, work, sids)):
            out[dofs[sid]] -= resp
        return out

    return apply_fn


def compute_flux_basis(problem, sid, op, stats):
    """Local response matrix B_i = -F_i A_i^-1 E_i, so S lam|_i = B_i lam|_i.

    One star solve per local mortar dof, counted as basis backsolves.
    Per-column solves: a multi-column SuperLU solve is faster here but
    raises the peak resident memory of S3 sweeps by ~7 %.
    """
    dofs = problem.space.sub_dofs(problem.layout, sid)
    nd = len(dofs)
    maps = op.system.coupling
    B = np.empty((nd, nd))
    unit = np.zeros(nd)
    before = op.backsolves
    for j in range(nd):
        unit[j] = 1.0
        B[:, j] = -maps.functionals(op.solve_star(unit).u)
        unit[j] = 0.0
    stats.basis_backsolves[sid] += op.backsolves - before
    return dofs, B


def basis_apply(space, bases):
    """S application from stored per-subdomain response matrices."""

    def apply_fn(lam):
        out = np.zeros(space.n_dof)
        for dofs, B in bases:
            out[dofs] += B @ lam[dofs]
        return out

    return apply_fn


def recover_fields(problem, ops, bars, lam, pool, stats):
    """One star backsolve per subdomain, added to the bar solution."""
    dofs = _sub_dofs(problem)

    def work(sid):
        star = ops[sid].solve_star(lam[dofs[sid]])
        bar = bars[sid]
        total = type(bar)(bar.u + star.u, bar.p + star.p)
        return problem.postprocess(sid, ops[sid], total)

    return _timed_map(pool, stats, work, list(range(len(dofs))))


def _fields_dict(problem, per_sid, lam):
    fields = {"lambda": lam}
    for sid, f in enumerate(per_sid):
        for name, arr in f.items():
            fields[f"{sid}:{name}"] = arr
    return fields


def _check_basis_cap(sizes_bytes, cap_mb):
    total = sum(sizes_bytes)
    if cap_mb is not None and total > cap_mb * 2 ** 20:
        raise SizeCapError(
            f"flux basis storage {total / 2 ** 20:.3g} MiB exceeds the "
            f"cap of {cap_mb:.3g} MiB; raise basis_cap_mb or use method S1")


@dataclass
class RunResult:
    moments: dict
    stats: SolveStats
    lambdas: list
    residuals: list  # per realization CG residual history
    grid: object
    cg_cond: list  # per realization Lanczos estimate of cond(H S)


def run_method(problem, grid, method="S1", tol=1e-9, max_iter=None,
               workers=1, basis_cap_mb=1024.0):
    """Sweep the collocation grid with one of the method variants.

    Returns a RunResult holding the finalized moments, the per-subdomain
    SolveStats, and the mortar solution of every realization.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of "
                         f"{METHODS}")
    layout = problem.layout
    n_sub = layout.n_subdomains
    stats = SolveStats.new(method, n_sub)
    stats.n_real = grid.n_real
    acc = MomentAccumulator()
    lambdas = []
    residual_hist = []
    cg_cond = []
    precond = SecantPreconditioner()
    problem.systems()

    with _Pool(workers) as pool:
        if method == "S3":
            bases3, ops3 = _prepare_s3(problem, grid, pool, stats,
                                       basis_cap_mb)
        for k in range(grid.n_real):
            y = grid.points[k]
            w = grid.weights[k]
            if method == "S3":
                ops = _pick_s3_ops(problem, grid, ops3, k)
                apply_fn = basis_apply(
                    problem.space, _pick_s3_bases(problem, grid, bases3, k))
            else:
                ops = assemble_realization(problem, y, pool, stats)
                if method == "S2":
                    sizes = [8 * len(problem.space.sub_dofs(layout, s)) ** 2
                             for s in range(n_sub)]
                    _check_basis_cap(sizes, basis_cap_mb)
                    bases = _timed_map(
                        pool, stats,
                        lambda sid: compute_flux_basis(
                            problem, sid, ops[sid], stats),
                        list(range(n_sub)))
                    apply_fn = basis_apply(problem.space, bases)
                else:
                    apply_fn = direct_apply(problem, ops, pool, stats)
            bars, g = compute_rhs(problem, ops, pool, stats)
            res = cg_solve(apply_fn, g, tol=tol, max_iter=max_iter,
                           precond=precond)
            precond.update(res.pairs)
            lam = res.x
            stats.cg_iters.append(res.n_iter)
            residual_hist.append(res.residuals)
            cg_cond.append(res.cond)
            per_sid = recover_fields(problem, ops, bars, lam, pool, stats)
            acc.add(w, _fields_dict(problem, per_sid, lam))
            lambdas.append(lam)
            if method != "S3":
                for sid, op in enumerate(ops):
                    stats.harvest(sid, op)
        if method == "S3":
            for sid, op_list in ops3.items():
                for op in op_list:
                    stats.harvest(sid, op)
    return RunResult(acc.finalize(), stats, lambdas, residual_hist, grid,
                     cg_cond)


def _prepare_s3(problem, grid, pool, stats, basis_cap_mb):
    """Factor and build the reusable local bases for method S3.

    Darcy subdomains get one operator and basis per distinct local
    realization of their permeability region. Stokes subdomains get a
    single operator frozen at the mean-field permeability (y = 0).
    """
    layout = problem.layout
    n_sub = layout.n_subdomains
    sizes = []
    plan = {}  # sid -> list of stochastic points
    zero = np.zeros(grid.n_dims)
    for sid in range(n_sub):
        block = layout.blocks[sid]
        nd = len(problem.space.sub_dofs(layout, sid))
        if block.physics == "darcy":
            r = block.kl_region
            pts = []
            for loc in grid.local_points[r]:
                y = zero.copy()
                y[grid.region_slice(r)] = loc
                pts.append(y)
        else:
            pts = [zero]
        sizes.append(8 * nd * nd * len(pts))
        plan[sid] = pts
    _check_basis_cap(sizes, basis_cap_mb)

    K0 = problem.permeability(zero)

    def build(sid):
        ops, bases = [], []
        for y in plan[sid]:
            if layout.blocks[sid].physics == "darcy":
                Kf = {sid: problem.perm.realize(
                    layout.blocks[sid].kl_region,
                    problem.meshes[sid].centroids[:, 0],
                    problem.meshes[sid].centroids[:, 1], y)}
            else:
                Kf = K0
            op = problem.assemble_subdomain(sid, Kf)
            ops.append(op)
            bases.append(compute_flux_basis(problem, sid, op, stats))
        return ops, bases

    results = _timed_map(pool, stats, build, list(range(n_sub)))
    ops3 = {sid: r[0] for sid, r in zip(range(n_sub), results)}
    bases3 = {sid: r[1] for sid, r in zip(range(n_sub), results)}
    return bases3, ops3


def _local_of(problem, grid, sid, k):
    block = problem.layout.blocks[sid]
    if block.physics == "darcy":
        return int(grid.local_indices[block.kl_region][k])
    return 0


def _pick_s3_ops(problem, grid, ops3, k):
    return [ops3[sid][_local_of(problem, grid, sid, k)]
            for sid in range(problem.layout.n_subdomains)]


def _pick_s3_bases(problem, grid, bases3, k):
    return [bases3[sid][_local_of(problem, grid, sid, k)]
            for sid in range(problem.layout.n_subdomains)]


def solve_realization(problem, y=None, tol=1e-9, max_iter=None, workers=1):
    """Solve one deterministic realization. Returns (fields, lam, stats).

    `fields` is a list over subdomains of dicts with dof vectors u, p and
    cell samples cv, cp. y defaults to the mean field (all zeros).
    """
    n_dims = problem.perm.n_dims
    if y is None:
        y = np.zeros(n_dims)
    stats = SolveStats.new("S1", problem.layout.n_subdomains)
    stats.n_real = 1
    with _Pool(workers) as pool:
        ops = assemble_realization(problem, y, pool, stats)
        bars, g = compute_rhs(problem, ops, pool, stats)
        lam, n_iter, _ = cg_solve(direct_apply(problem, ops, pool, stats), g,
                                  tol=tol, max_iter=max_iter)
        stats.cg_iters.append(n_iter)
        per_sid = recover_fields(problem, ops, bars, lam, pool, stats)
        for sid, op in enumerate(ops):
            stats.harvest(sid, op)
    return per_sid, lam, stats
