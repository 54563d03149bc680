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

With `workers` > 1 the subdomains are split once per sweep into groups of
about equal unknown count (worker_count caps the number of groups at the
usable cores and the subdomain count). Group 0 runs in this process, the
others in children forked after problem.systems(), one Pipe each, as in
the paper, where each processor owns some subdomains. A group keeps the
factors, S3 bases and bar solutions of its own subdomains: per realization
it factors them (or picks their S3 factors), builds their S2 bases, runs
their bar solves, answers the S1 star solves and recovers their fields.
Only mortar vectors, bases and output fields cross the pipes. The parent
keeps everything that joins the subdomains: the jump, CG with the sweep's
SecantPreconditioner, basis_apply and the MomentAccumulator. It adds up
every per-subdomain result in subdomain order, so results are bitwise equal
for any worker count, and it adds the children's counters and busy times
to the sweep's SolveStats. With one group no process is started.
"""

import logging
import multiprocessing
import os
import time
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

    def absorb(self, other):
        """Add the counters and busy times a subdomain group kept."""
        self.factorizations += other.factorizations
        self.backsolves += other.backsolves
        self.basis_backsolves += other.basis_backsolves
        self.wall_seconds += other.wall_seconds

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
    which keeps the S1 identity sum_k N_iter(k) + 2 N_real exact. An
    operator that yields a non-finite p.Sp or p.Sp <= 0, and a
    preconditioner that yields a non-finite r.z or r.z <= 0, raise
    ConvergenceError at that iteration. Returns a CGResult.
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
        if not np.isfinite(pSp):
            raise ConvergenceError(
                f"interface operator is not finite (p.Sp = {pSp} at "
                f"iteration {it})", residuals)
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


def worker_count(workers, n_subdomains):
    """Processes a sweep runs in: min(workers, usable cores, subdomains).

    Without the fork start method the sweep runs in this process alone.
    """
    if workers > 1 and "fork" not in multiprocessing.get_all_start_methods():
        log.info("no fork start method on this platform; running on 1 "
                 "process instead of %d", workers)
        return 1
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return max(1, min(workers, cores, n_subdomains))


def _split(problem, n_groups):
    """Static split of the subdomains into n_groups sorted sid lists.

    Greedy by unknown count: largest subdomain first, each to the group
    with the fewest unknowns so far (the lowest index on a tie).
    """
    sizes = [system.n_unknowns for system in problem.systems()]
    load = [0] * n_groups
    groups = [[] for _ in range(n_groups)]
    for sid in sorted(range(len(sizes)), key=lambda s: (-sizes[s], s)):
        j = load.index(min(load))
        groups[j].append(sid)
        load[j] += sizes[sid]
    return [sorted(g) for g in groups]


class _Group:
    """The subdomains one process owns and what it keeps of them.

    Every request works through the owned subdomains in increasing order,
    adds each one's busy time to stats.wall_seconds and returns
    {sid: result}. `sid` is the subdomain in hand, so a failure names it.
    """

    def __init__(self, problem, sids, method, stats, grid):
        self.problem = problem
        self.sids = sids
        self.method = method
        self.stats = stats
        self.grid = grid
        self.sid = None
        self.dofs = {sid: problem.space.sub_dofs(problem.layout, sid)
                     for sid in sids}
        self.ops, self.bars, self.s3 = {}, {}, {}

    def _each(self, work):
        out = {}
        for sid in self.sids:
            self.sid = sid
            t0 = time.perf_counter()
            out[sid] = work(sid)
            self.stats.wall_seconds[sid] += time.perf_counter() - t0
        self.sid = None
        return out

    def prepare_s3(self):
        """Factor the S3 operators of the owned subdomains, with bases."""
        self.s3 = self._each(lambda sid: _prepare_s3(
            self.problem, self.grid, sid, self.stats))

    def realize(self, k, y):
        """Operators of realization k (at point y), bases, bar solves.

        Returns {sid: (jump entries of the bar solution, basis)}; the basis
        is built (S2), picked from the S3 ones, or None (S1).
        """
        problem = self.problem
        K = None if self.method == "S3" else problem.permeability(y, self.sids)

        def work(sid):
            if self.method == "S3":
                local = _local_of(problem, self.grid, sid, k)
                ops, bases = self.s3[sid]
                op, basis = ops[local], bases[local]
            else:
                op = problem.assemble_subdomain(sid, K)
                basis = (compute_flux_basis(problem, sid, op, self.stats)
                         if self.method == "S2" else None)
            self.ops[sid] = op
            self.bars[sid] = op.solve_bar()
            return problem.side_functionals(sid, op, self.bars[sid]), basis

        return self._each(work)

    def respond(self, lam):
        """Star response of every owned subdomain to the mortar vector lam."""
        return self._each(lambda sid: star_response(self.ops[sid],
                                                    lam[self.dofs[sid]]))

    def recover(self, lam):
        """Fields of the owned subdomains; S1/S2 then retire the operators."""
        fields = self._each(lambda sid: recover_fields(
            self.problem, sid, self.ops[sid], self.bars[sid],
            lam[self.dofs[sid]]))
        if self.method != "S3":
            for sid, op in self.ops.items():
                self.stats.harvest(sid, op)
        self.ops, self.bars = {}, {}
        return fields

    def finish(self):
        """Retire the S3 operators; return the group's SolveStats."""
        for sid, (ops, _) in self.s3.items():
            for op in ops:
                self.stats.harvest(sid, op)
        return self.stats


def _call(group, name, args):
    """One group request: (True, result) or (False, (sid, exception))."""
    try:
        return True, getattr(group, name)(*args)
    except Exception as exc:  # handed to the parent, which raises it
        return False, (group.sid, exc)


def _serve(group, conn):
    """Body of a child process: answer the parent's requests for one group."""
    while True:
        try:
            request = conn.recv()
        except EOFError:  # the parent is gone
            return
        if request is None:
            return
        conn.send(_call(group, *request))


class _Groups:
    """The subdomain groups of one sweep, driven in lockstep from here.

    A request goes to the children first, then group 0 runs in this
    process, then the children's replies are read. A failure is raised
    once every group has answered, the one of the lowest subdomain, so it
    does not depend on the number of groups; a child that dies raises
    EOFError. A clean exit adds the children's counters to `stats`; an
    exit by exception terminates them. Either way they are joined.
    """

    def __init__(self, problem, method, workers, stats, grid=None):
        problem.systems()  # built before the fork, so every child has them
        n_sub = problem.layout.n_subdomains
        self.problem = problem
        self.stats = stats
        self.dofs = [problem.space.sub_dofs(problem.layout, sid)
                     for sid in range(n_sub)]
        parts = _split(problem, worker_count(workers, n_sub))
        self._local = _Group(problem, parts[0], method, stats, grid)
        self._children = []
        try:
            for sids in parts[1:]:
                # fork, not spawn: the problem holds closures (boundary
                # data, sources) that do not pickle, and a forked child
                # inherits the built systems at no cost
                ctx = multiprocessing.get_context("fork")
                here, there = ctx.Pipe()
                group = _Group(problem, sids, method,
                               SolveStats.new(method, n_sub), grid)
                proc = ctx.Process(target=_serve, args=(group, there),
                                   daemon=True)
                proc.start()
                there.close()
                self._children.append((proc, here, sids))
        except BaseException:
            self._stop(clean=False)
            raise

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        try:
            if exc_type is None:
                for stats in self._run("finish")[1:]:
                    self.stats.absorb(stats)
        finally:
            self._stop(clean=exc_type is None)
        return False

    def _stop(self, clean):
        for proc, conn, _ in self._children:
            if not clean:
                proc.terminate()
                continue
            try:
                conn.send(None)
            except OSError:  # it has exited already
                pass
        for proc, conn, _ in self._children:
            proc.join()
            conn.close()

    def _run(self, name, *args):
        """Results of group method `name`, in group order."""
        for _, conn, _ in self._children:
            conn.send((name, args))
        replies = [_call(self._local, name, args)]
        for proc, conn, sids in self._children:
            try:
                replies.append(conn.recv())
            except EOFError:
                proc.join()
                raise EOFError(
                    f"worker process of subdomains {sids} exited with code "
                    f"{proc.exitcode} during {name!r}") from None
        failed = [err for ok, err in replies if not ok]
        if failed:
            raise min(failed, key=lambda e: -1 if e[0] is None else e[0])[1]
        return [value for _, value in replies]

    def _merge(self, name, *args):
        """{sid: result} of group method `name` over every subdomain."""
        out = {}
        for part in self._run(name, *args):
            out.update(part)
        return [out[sid] for sid in range(len(self.dofs))]

    def prepare_s3(self):
        """Factor every S3 operator and basis, each in its owner group."""
        self._run("prepare_s3")

    def realize(self, k, y):
        """Operators of realization k at y: (bar jump g, bases per sid)."""
        out = self._merge("realize", k, y)
        g = jump(self.problem.space, [e for entries, _ in out for e in entries])
        return g, [basis for _, basis in out]

    def apply(self, lam):
        """Matrix-free S lam: one star solve per subdomain."""
        out = np.zeros(self.problem.space.n_dof)
        for dofs, resp in zip(self.dofs, self._merge("respond", lam)):
            out[dofs] += resp
        return out

    def recover(self, lam):
        """Output fields of every subdomain for the mortar solution lam."""
        return self._merge("recover", lam)


def star_response(op, lam_local):
    """-F_i A_i^-1 E_i lam_i: subdomain i's share of S lam, local order."""
    return -op.system.coupling.functionals(op.solve_star(lam_local).u)


def compute_flux_basis(problem, sid, op, stats):
    """Local response matrix B_i = -F_i A_i^-1 E_i, so S lam|_i = B_i lam|_i.

    One star solve per local mortar dof, counted as basis backsolves.
    Per-column solves: a multi-column SuperLU solve is faster here but
    raises the peak resident memory of S3 sweeps by ~7 %.
    """
    dofs = problem.space.sub_dofs(problem.layout, sid)
    nd = len(dofs)
    B = np.empty((nd, nd))
    unit = np.zeros(nd)
    before = op.backsolves
    for j in range(nd):
        unit[j] = 1.0
        B[:, j] = star_response(op, unit)
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


def recover_fields(problem, sid, op, bar, lam_local):
    """Output fields of one subdomain: a star backsolve plus its bar solution."""
    star = op.solve_star(lam_local)
    total = type(bar)(bar.u + star.u, bar.p + star.p)
    return problem.postprocess(sid, op, total)


def _fields_dict(problem, per_sid, lam):
    fields = {"lambda": lam}
    for sid, f in enumerate(per_sid):
        for name, arr in f.items():
            fields[f"{sid}:{name}"] = arr
    return fields


def _check_basis_cap(problem, grid, method, cap_mb):
    """SizeCapError if the bases an S2/S3 sweep holds exceed cap_mb."""
    if method == "S1" or cap_mb is None:
        return
    total = 0
    for sid in range(problem.layout.n_subdomains):
        nd = len(problem.space.sub_dofs(problem.layout, sid))
        copies = len(_s3_points(problem, grid, sid)) if method == "S3" else 1
        total += 8 * nd * nd * copies
    if total > cap_mb * 2 ** 20:
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

    `workers` is the number of subdomain groups (see the module docstring
    and worker_count). Returns a RunResult holding the finalized moments,
    the per-subdomain SolveStats, and the mortar solution of every
    realization.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of "
                         f"{METHODS}")
    stats = SolveStats.new(method, problem.layout.n_subdomains)
    stats.n_real = grid.n_real
    _check_basis_cap(problem, grid, method, basis_cap_mb)
    acc = MomentAccumulator()
    lambdas = []
    residual_hist = []
    cg_cond = []
    precond = SecantPreconditioner()

    with _Groups(problem, method, workers, stats, grid) as groups:
        if method == "S3":
            groups.prepare_s3()
        for k in range(grid.n_real):
            g, bases = groups.realize(k, grid.points[k])
            apply_fn = (groups.apply if method == "S1"
                        else basis_apply(problem.space, bases))
            res = cg_solve(apply_fn, g, tol=tol, max_iter=max_iter,
                           precond=precond)
            precond.update(res.pairs)
            lam = res.x
            stats.cg_iters.append(res.n_iter)
            residual_hist.append(res.residuals)
            cg_cond.append(res.cond)
            per_sid = groups.recover(lam)
            acc.add(grid.weights[k], _fields_dict(problem, per_sid, lam))
            lambdas.append(lam)
    return RunResult(acc.finalize(), stats, lambdas, residual_hist, grid,
                     cg_cond)


def _s3_points(problem, grid, sid):
    """Stochastic points S3 factors subdomain sid at.

    A Darcy subdomain gets one per distinct local realization of its
    permeability region; a Stokes subdomain only the mean field (y = 0).
    """
    block = problem.layout.blocks[sid]
    zero = np.zeros(grid.n_dims)
    if block.physics != "darcy":
        return [zero]
    pts = []
    for loc in grid.local_points[block.kl_region]:
        y = zero.copy()
        y[grid.region_slice(block.kl_region)] = loc
        pts.append(y)
    return pts


def _prepare_s3(problem, grid, sid, stats):
    """S3 operators of one subdomain, one per point, and their bases."""
    ops, bases = [], []
    for y in _s3_points(problem, grid, sid):
        op = problem.assemble_subdomain(sid, problem.permeability(y, [sid]))
        ops.append(op)
        bases.append(compute_flux_basis(problem, sid, op, stats))
    return ops, bases


def _local_of(problem, grid, sid, k):
    block = problem.layout.blocks[sid]
    if block.physics == "darcy":
        return int(grid.local_indices[block.kl_region][k])
    return 0


def solve_realization(problem, y=None, tol=1e-9, max_iter=None, workers=1):
    """Solve one deterministic realization. Returns (fields, lam, stats).

    `fields` is a list over subdomains of dicts with dof vectors u, p and
    cell samples cv, cp. y defaults to the mean field (all zeros).
    """
    if y is None:
        y = np.zeros(problem.perm.n_dims)
    stats = SolveStats.new("S1", problem.layout.n_subdomains)
    stats.n_real = 1
    with _Groups(problem, "S1", workers, stats) as groups:
        g, _ = groups.realize(0, y)
        lam, n_iter, _ = cg_solve(groups.apply, g, tol=tol, max_iter=max_iter)
        stats.cg_iters.append(n_iter)
        per_sid = groups.recover(lam)
    return per_sid, lam, stats
