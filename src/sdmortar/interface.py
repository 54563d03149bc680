"""Interface CG solver and the three solution-method variants.

The mortar unknown solves S lam = g where S is the flux-jump response of
the subdomain star problems and g the jump produced by the bar problems.
With the coupling maps of each subdomain's invariant system (see
problem.py), S lam = sum_i scatter(-F_i A_i^-1 E_i lam_i) and
g = sum_i scatter(F_i u_bar,i), where A_i is the realization's factored
operator, lam_i = problem.star_data(i, lam) the local mortar vector and
F_i u = problem.side_functionals(i, sol). A star solve answers at the
trace: op.solve_star(lam_i) is the flux response F_i A_i^-1 E_i lam_i
itself, and no star problem builds its subdomain fields. Both sums, and
the apply of the S2/S3 bases, are one mortar.jump over the subdomains in
order. The fields of a realization are recovered by one solve with the
bar data and the interface data lam_i together (recover_fields).

The three methods differ only in the key a subdomain's factored operator
A_i and flux response basis B_i = -F_i A_i^-1 E_i (see compute_flux_basis)
are cached under, and in whether B_i is built (see _key):

* S1 keys by realization and applies S matrix-free, one star solve per
  subdomain per CG iteration; it builds no basis.
* S2 keys by realization too and applies S through the bases.
* S3 keys a Darcy subdomain by the local realization of its KL region and
  a Stokes subdomain by the mean field (key None), so a Stokes basis is
  frozen at the mean-field permeability.

Every method visits the realizations in one order (visit_order): sorted
by their tuple of local realization indices, the region with the most
local realizations varying slowest, so that S3 reuses each local basis
over a run of visits (Ganis, Klie, Wheeler, Wildey, Yotov & Zhang, CMAME
2008). The key sets how long an entry lives (_lifetimes): it is built at
the first visit with its key and dropped after the last. An S3 Darcy entry
of the slowest region lives one run of consecutive visits, one of another
region from the first visit of its local realization to the last, and a
Stokes one the whole sweep; on case1_mini at most 10 Darcy entries are
held at once, against 18 in grid order. An S1/S2 entry lives one visit, so
for them the order moves only the round-off of the moment sums.
_check_basis_cap caps the bases this table holds at once. Results and
CG counts are reported per realization in grid order.

Every method factors each Stokes subdomain once per sweep, at the mean
field (stokes.StokesReference), and forms each of its Stokes operators as
a rank-r update of that LU: an r x r capacitance factorization, r the
subdomain's tangential BJS trace unknowns. That capacitance is the
operator's one counted factorization. The reference LU and every column
it solves (the r of its update basis, the N_dof_i of its mean-field unit
responses and the one of its mean-field bar solve) are set-up work,
outside the identities below, and the only solves a Stokes LU makes. At
the mean field itself an operator solves with the reference LU unchanged
and no update basis is built: S3's one Stokes operator per subdomain is
that LU.

All three solve S lam = g by preconditioned CG with one preconditioner
per sweep, MeanFieldPreconditioner. run_method builds it once, before the
first realization, from every subdomain's flux basis B_i at the mean field
(y = 0): S_bar = sum_i scatter(B_i) is factored by dense Cholesky, and
realization k rescales it by the permeability under each mortar dof, so
a solve costs no subdomain work beyond its CG iterations. The
mean-field bases cost one set-up factorization per Darcy subdomain and
N_dof_i set-up backsolves per subdomain, for every method. A Stokes one
is its reference's mean-field unit responses, and every Stokes star solve
and basis of the sweep is read off them by small products, no LU solve.
Work is counted by the object that does it and read by SolveStats when
that object retires.

Backsolve counts per subdomain follow the identities
S1: sum_k N_iter(k) + 2 N_real, S2: N_dof_i N_real + 2 N_real,
S3: N_dof_i N_loc(i) + 2 N_real.

With `workers` > 1 the subdomains are split once per sweep into groups of
about equal unknown count (worker_count caps the number of groups at the
usable cores and the subdomain count). Group 0 runs in this process, the
others in children forked after problem.systems(), one Pipe each, as in
the paper, where each processor owns some subdomains. A group keeps the
cached operators and bases of its own subdomains: per realization it
fetches or builds their operators and bases, runs their bar solves,
answers the S1 star solves and recovers their fields. It
builds the Stokes references of its subdomains when it first factors them,
after the fork, and drops them when the sweep finishes.
Only mortar vectors, bases and output fields cross the pipes. The parent
keeps everything that joins the subdomains: the jump, CG with the sweep's
MeanFieldPreconditioner, basis_apply and the MomentAccumulator. It adds up
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
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import ConvergenceError, SingularOperatorError, SizeCapError
from .moments import MomentAccumulator
from .mortar import jump

log = logging.getLogger(__name__)

METHODS = ("S1", "S2", "S3")
COUNTERS = ("factorizations", "backsolves", "basis_backsolves",
            "setup_factorizations", "setup_backsolves")


@dataclass
class SolveStats:
    """Per-subdomain solver effort of one sweep: the COUNTERS int arrays.

    An operator or StokesReference counts its own factorizations and
    backsolves. harvest reads them as run work from a retiring cache
    entry's operator, harvest_setup as set-up work from a StokesReference
    at finish or a Darcy mean-field operator in _Group.mean_bases.
    compute_flux_basis adds the backsolves each basis spends.
    """

    method: str
    n_sub: int
    factorizations: np.ndarray
    backsolves: np.ndarray
    basis_backsolves: np.ndarray
    setup_factorizations: np.ndarray
    setup_backsolves: np.ndarray
    cg_iters: list = field(default_factory=list)
    wall_seconds: np.ndarray = None

    @classmethod
    def new(cls, method, n_sub):
        return cls(method, n_sub, wall_seconds=np.zeros(n_sub),
                   **{name: np.zeros(n_sub, dtype=int) for name in COUNTERS})

    def harvest(self, sid, op):
        """Absorb the lifetime counters of an operator being retired."""
        self.factorizations[sid] += op.factorizations
        self.backsolves[sid] += op.backsolves

    def harvest_setup(self, sid, source):
        """Absorb the lifetime counters of a retiring set-up object."""
        self.setup_factorizations[sid] += source.factorizations
        self.setup_backsolves[sid] += source.backsolves

    def absorb(self, other):
        """Add the counters and busy times a subdomain group kept."""
        for name in COUNTERS + ("wall_seconds",):
            getattr(self, name)[:] += getattr(other, name)

    @property
    def cg_iters_total(self):
        return int(sum(self.cg_iters))


@dataclass
class CGResult:
    """Outcome of cg_solve; unpacks as the triple (x, n_iter, residuals).

    `cond` is the Lanczos estimate of cond(H S), H the preconditioner (the
    identity for plain CG), or None when no iteration ran.
    """

    x: np.ndarray
    n_iter: int
    residuals: list
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


def _check_arguments(tol, max_iter, workers=1):
    """ValueError naming the first of tol, max_iter, workers out of range."""
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    if max_iter is not None and max_iter < 1:
        raise ValueError(f"max_iter must be >= 1 or None, got {max_iter!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")


def cg_solve(apply_fn, g, tol=1e-9, max_iter=None, precond=None):
    """CG from x0 = 0, preconditioned by z = precond(r) when one is given.

    precond must act as a fixed symmetric positive definite matrix H for
    the whole solve; with None this is plain CG. run_method passes the
    sweep's MeanFieldPreconditioner at the realization's point, so H is
    fixed within a solve and costs no subdomain solve. The stopping test is
    always on the unpreconditioned residual, |r| <= tol |g|, so `tol` and
    the residual history mean the same with and without a preconditioner.
    Each iteration costs exactly one apply_fn call, which keeps the S1
    identity sum_k N_iter(k) + 2 N_real exact. An operator that yields a
    non-finite p.Sp or p.Sp <= 0, and a preconditioner that yields a
    non-finite r.z or r.z <= 0, raise ConvergenceError at that iteration.
    Returns a CGResult.
    """
    _check_arguments(tol, max_iter)
    n = len(g)
    x = np.zeros(n)
    gnorm = float(np.linalg.norm(g))
    if gnorm == 0.0:
        return CGResult(x, 0, [], None)
    if max_iter is None:
        max_iter = max(50, 10 * n)
    residuals, alphas, betas = [], [], []

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
        a = rz / pSp
        alphas.append(a)
        x += a * p
        r -= a * Sp
        rn = float(np.linalg.norm(r))
        residuals.append(rn / gnorm)
        if rn <= tol * gnorm:
            return CGResult(x, it, residuals, lanczos_cond(alphas, betas))
        z, rz_new = precondition(r, it)
        betas.append(rz_new / rz)
        p = z + betas[-1] * p
        rz = rz_new
    raise ConvergenceError(
        f"CG did not reach tol {tol:g} in {max_iter} iterations "
        f"(last residual {residuals[-1]:.3e})", residuals)


class MeanFieldPreconditioner:
    """The interface preconditioner of one sweep, built at its mean field.

    `bases` holds every subdomain's flux basis (dofs, B_i) at y = 0, in
    subdomain order (_Groups.mean_bases). S_bar = sum_i scatter(B_i) is
    factored once by dense Cholesky, which reads its lower triangle. at(y)
    returns the preconditioner of the realization at point y,

        z = s * S_bar^-1 (s * r),    s = sqrt(d(0) / d(y)),

    where d(y) = sum_i scatter(diag(B_i) kappa_i(y)) follows diag S(y)
    without a subdomain solve: rho-scaling (Klawonn & Widlund, CPAM 2001)
    of the multiscale flux basis reused as a frozen preconditioner (Ganis,
    Pencheva, Wheeler, Wildey & Yotov, MMS 2012). A Stokes block has
    kappa = 1. A Darcy block's flux response grows with K under its trace,
    so kappa_i(y)_j = exp(sum_e w_je log(K(y) / K(0))(c_e)), c_e the cell
    owning trace edge e and w_je = |F_i[j, e]| / sum_e |F_i[j, e]|
    (CouplingMaps.row_weights). log(K(y) / K(0)) is the KL fluctuation, so
    the exponent is G_i y_r with G_i = w Phi_i, Phi_i the scaled KL modes
    of the block's region at the cells c_e and y_r the region's
    coordinates of y. d(0) is diag S_bar summed in the same order, so at
    y = 0 every s is 1 and z = S_bar^-1 r.
    """

    def __init__(self, problem, bases):
        n = problem.space.n_dof
        S = np.zeros((n, n))
        for dofs, B in bases:
            S[np.ix_(dofs, dofs)] += B
        self._chol, info = dpotrf(S, lower=1)
        if info:
            raise SingularOperatorError(
                f"mean-field interface matrix is not positive definite "
                f"(leading minor {info})")
        perm = problem.perm
        self._diags = []
        for sid, (dofs, B) in enumerate(bases):
            block = problem.layout.blocks[sid]
            region = G = None
            if block.physics == "darcy":
                coupling = problem.systems()[sid].coupling
                mesh = problem.meshes[sid]
                xy = mesh.centroids[mesh.edge_cell(coupling.cols)]
                region = perm.region_slice(block.kl_region)
                G = coupling.row_weights() @ perm.regions[
                    block.kl_region].evaluate_modes(xy[:, 0], xy[:, 1])
            self._diags.append((dofs, np.diag(B).copy(), region, G))
        self._d0 = self._diag(np.zeros(perm.n_dims))

    def _diag(self, y):
        d = np.zeros(len(self._chol))
        for dofs, diag, region, G in self._diags:
            d[dofs] += diag if G is None else diag * np.exp(G @ y[region])
        return d

    def at(self, y):
        """z = precond(r) for the realization at collocation point y."""
        s = np.sqrt(self._d0 / self._diag(y))
        return lambda r: s * dpotrs(self._chol, s * r, lower=1)[0]


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


def _key(problem, grid, method, sid, k, y):
    """(cache key, collocation point) of sid's operator at realization k, y.

    S1/S2: k. S3: a Darcy subdomain's local realization, since its K reads
    only its region's coordinates of y; for Stokes y = 0.
    """
    if method != "S3":
        return k, y
    block = problem.layout.blocks[sid]
    if block.physics == "darcy":
        return int(grid.local_indices[block.kl_region][k]), y
    return None, np.zeros_like(y)


def visit_order(grid):
    """Realization indices in the order a sweep visits them.

    A point sorts by its tuple of local realization indices, the regions
    with more local realizations first (the lower region on a tie), so the
    region with the most varies slowest and each of its local realizations
    is one run of consecutive visits.
    """
    regions = sorted(range(len(grid.local_counts)),
                     key=lambda r: (-grid.local_counts[r], r))
    return sorted(range(grid.n_real), key=lambda k: tuple(
        int(grid.local_indices[r][k]) for r in regions))


def _lifetimes(problem, grid, method, visits):
    """{(sid, key): (first, last)}: the first and last visit whose key each
    cache entry is, visit j being the realization k, y of visits[j]."""
    table = {}
    for j, (k, y) in enumerate(visits):
        for sid in range(problem.layout.n_subdomains):
            entry = sid, _key(problem, grid, method, sid, k, y)[0]
            table[entry] = table.get(entry, (j,))[0], j
    return table


class _Group:
    """The subdomains one process owns and what it keeps of them.

    `cache` maps (sid, key) of the owned subdomains to (operator, basis);
    the methods differ only in the key (see _key) and in whether a basis is
    built. An entry is built at its first use and harvested and dropped by
    recover at the last visit `lifetimes` gives it. Every request
    works through the owned subdomains in increasing order, adds each one's
    busy time to stats.wall_seconds and returns {sid: result}. `sid` is the
    subdomain in hand, so a failure names it.
    """

    def __init__(self, problem, sids, method, stats, grid, lifetimes):
        self.problem = problem
        self.sids = sids
        self.method = method
        self.stats = stats
        self.grid = grid
        self.lifetimes = lifetimes
        self.sid = None
        self.cache, self.ops, self.refs = {}, {}, {}

    def _each(self, work):
        out = {}
        for sid in self.sids:
            self.sid = sid
            t0 = time.perf_counter()
            out[sid] = work(sid)
            self.stats.wall_seconds[sid] += time.perf_counter() - t0
        self.sid = None
        return out

    def _operator(self, sid, k, y):
        """(operator, basis) of sid for realization k at y, built on a miss.

        S1 builds no basis.
        """
        key, point = _key(self.problem, self.grid, self.method, sid, k, y)
        if (sid, key) not in self.cache:
            problem = self.problem
            op = problem.assemble_subdomain(sid, point, self._reference(sid))
            basis = (None if self.method == "S1"
                     else compute_flux_basis(problem, sid, op, self.stats))
            self.cache[sid, key] = op, basis
        return self.cache[sid, key]

    def _reference(self, sid):
        """The sweep's StokesReference of sid (built at first use), or None
        for a Darcy subdomain."""
        if self.problem.layout.physics(sid) != "stokes":
            return None
        if sid not in self.refs:
            self.refs[sid] = self.problem.stokes_reference(sid)
        return self.refs[sid]

    def mean_bases(self):
        """{sid: (dofs, B_i)}: each owned subdomain's flux basis at y = 0.

        The same for every method: a Stokes subdomain reads its reference's
        mean_basis, and a Darcy one is the basis of its mean-field operator,
        factored here; both are harvested as set-up work. Neither goes
        through assemble_subdomain or solve_star, so each call of those two
        is still work that the identities count.
        """
        problem = self.problem
        zero = np.zeros(problem.perm.n_dims)

        def work(sid):
            reference = self._reference(sid)
            if reference is not None:
                return problem.sub_dofs[sid], reference.mean_basis()[0]
            op = problem.systems()[sid].factor(
                problem.sample_permeability(sid, zero))
            B = op.flux_basis()
            self.stats.harvest_setup(sid, op)
            return problem.sub_dofs[sid], B

        return self._each(work)

    def realize(self, k, y):
        """Operators of realization k at y, their bases and bar solves:
        {sid: (F_i of the bar solution, basis or None)}. A Stokes bar
        solve reads its reference's responses (StokesOperator.solve_bar)."""
        def work(sid):
            op, basis = self._operator(sid, k, y)
            self.ops[sid] = op
            return self.problem.side_functionals(sid, op.solve_bar()), basis

        return self._each(work)

    def respond(self, lam):
        """Star response -F_i A_i^-1 E_i lam_i of every owned subdomain to
        the mortar vector lam, in local order."""
        problem = self.problem
        return self._each(lambda sid: -self.ops[sid].solve_star(
            problem.star_data(sid, lam)))

    def recover(self, j, lam):
        """Fields of the owned subdomains at visit j; then harvest the
        counters of every entry whose last visit is j and drop it."""
        fields = self._each(lambda sid: recover_fields(
            self.problem, sid, self.ops[sid],
            self.problem.star_data(sid, lam)))
        for entry in [e for e in self.cache if self.lifetimes[e][1] == j]:
            self.stats.harvest(entry[0], self.cache.pop(entry)[0])
        self.ops = {}
        return fields

    def finish(self):
        """Retire the Stokes references; return the group's SolveStats."""
        for sid, ref in self.refs.items():
            self.stats.harvest_setup(sid, ref)
        self.refs = {}
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

    def __init__(self, problem, method, workers, stats, grid, lifetimes):
        problem.systems()  # built before the fork, so every child has them
        n_sub = problem.layout.n_subdomains
        self.problem = problem
        self.method = method
        self.stats = stats
        parts = _split(problem, worker_count(workers, n_sub))
        self._local = _Group(problem, parts[0], method, stats, grid,
                             lifetimes)
        self._children = []
        try:
            for sids in parts[1:]:
                # fork, not spawn: the problem holds closures (boundary
                # data, sources) that do not pickle, and a forked child
                # inherits the built systems at no cost
                ctx = multiprocessing.get_context("fork")
                here, there = ctx.Pipe()
                group = _Group(problem, sids, method,
                               SolveStats.new(method, n_sub), grid, lifetimes)
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
        return [out[sid] for sid in sorted(out)]

    def mean_bases(self):
        """[(dofs, B_i)] of every subdomain at the mean field, in order."""
        return self._merge("mean_bases")

    def realize(self, k, y):
        """Operators of realization k at y: (bar jump g, bases per sid)."""
        out = self._merge("realize", k, y)
        problem = self.problem
        g = jump(problem.space.n_dof, problem.sub_dofs, [f for f, _ in out])
        return g, [basis for _, basis in out]

    def apply(self, lam):
        """Matrix-free S lam: one star solve per subdomain."""
        problem = self.problem
        return jump(problem.space.n_dof, problem.sub_dofs,
                    self._merge("respond", lam))

    def solve(self, j, k, y, tol, max_iter, precond=None):
        """Realization k at y, the sweep's visit j: its CGResult and the
        fields per subdomain."""
        g, bases = self.realize(k, y)
        apply_fn = (self.apply if self.method == "S1"
                    else basis_apply(self.problem.space, bases))
        res = cg_solve(apply_fn, g, tol=tol, max_iter=max_iter,
                       precond=precond)
        return res, self._merge("recover", j, res.x)


def compute_flux_basis(problem, sid, op, stats):
    """Local response matrix B_i = -F_i A_i^-1 E_i, so S lam|_i = B_i lam|_i.

    op.flux_basis() counts one backsolve per local mortar dof, and the
    sweep's basis_backsolves take the same count. Each basis is one
    product: a Darcy basis one Gram product of its dtbtrs solves, one per
    mortar dof (darcy.py), a Stokes basis the rule of its star solves on
    every unit load, with no LU solve (stokes.py).
    """
    backsolves = op.backsolves
    B = op.flux_basis()
    stats.basis_backsolves[sid] += op.backsolves - backsolves
    return problem.sub_dofs[sid], B


def basis_apply(space, bases):
    """S application from stored per-subdomain response matrices."""

    def apply_fn(lam):
        return jump(space.n_dof, [dofs for dofs, _ in bases],
                    [B @ lam[dofs] for dofs, B in bases])

    return apply_fn


def recover_fields(problem, sid, op, lam_local):
    """Output fields of one subdomain: one backsolve with its bar data and
    the interface data lam_local together (op.solve_bar(lam_local)),
    post-processed. A Stokes one is products on its reference's responses,
    with no LU solve."""
    return problem.postprocess(sid, op, op.solve_bar(lam_local))


def _fields_dict(problem, per_sid, lam):
    fields = {"lambda": lam}
    for sid, f in enumerate(per_sid):
        for name, arr in f.items():
            fields[f"{sid}:{name}"] = arr
    return fields


def _check_basis_cap(problem, method, lifetimes, cap_mb):
    """SizeCapError if the bases an S2/S3 sweep holds at once exceed cap_mb:
    the peak over the visits of the sweep of the entries `lifetimes` holds
    live."""
    if method == "S1" or cap_mb is None:
        return
    held = np.zeros(2 + max(last for _, last in lifetimes.values()), int)
    for (sid, _), (first, last) in lifetimes.items():
        size = 8 * len(problem.sub_dofs[sid]) ** 2
        held[first] += size
        held[last + 1] -= size
    total = int(held.cumsum().max())
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
    cg_cond: list  # per realization Lanczos estimate of cond(H S), H the
    # sweep's MeanFieldPreconditioner at that realization


def run_method(problem, grid, method="S1", tol=1e-9, max_iter=None,
               workers=1, basis_cap_mb=1024.0):
    """Sweep the collocation grid with one of the method variants.

    `workers` is the number of subdomain groups (see the module docstring
    and worker_count). The realizations are visited in visit_order and
    their moments accumulated in that order. Returns a RunResult holding
    the finalized moments, the per-subdomain SolveStats, and the mortar
    solution of every realization; its per-realization lists and
    stats.cg_iters are in grid order.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of "
                         f"{METHODS}")
    _check_arguments(tol, max_iter, workers)
    splits = tuple(r.n_term for r in problem.perm.regions)
    if (grid.n_dims, tuple(grid.splits)) != (problem.perm.n_dims, splits):
        raise ValueError(
            f"grid of {grid.n_dims} dims split {tuple(grid.splits)} does not "
            f"match the permeability field's {problem.perm.n_dims} dims split "
            f"{splits}")
    stats = SolveStats.new(method, problem.layout.n_subdomains)
    visits = [(k, grid.points[k]) for k in visit_order(grid)]
    lifetimes = _lifetimes(problem, grid, method, visits)
    _check_basis_cap(problem, method, lifetimes, basis_cap_mb)
    acc = MomentAccumulator()
    solved = [None] * grid.n_real

    with _Groups(problem, method, workers, stats, grid, lifetimes) as groups:
        precond = MeanFieldPreconditioner(problem, groups.mean_bases())
        for j, (k, y) in enumerate(visits):
            res, per_sid = groups.solve(j, k, y, tol, max_iter, precond.at(y))
            acc.add(grid.weights[k], _fields_dict(problem, per_sid, res.x))
            solved[k] = res
    stats.cg_iters = [res.n_iter for res in solved]
    return RunResult(acc.finalize(), stats, [res.x for res in solved],
                     [res.residuals for res in solved], grid,
                     [res.cond for res in solved])


def solve_realization(problem, y=None, tol=1e-9, max_iter=None, workers=1):
    """Solve one deterministic realization. Returns (fields, lam, stats).

    `fields` is a list over subdomains of dicts with dof vectors u, p and
    cell samples cv, cp. y defaults to the mean field (all zeros).
    """
    _check_arguments(tol, max_iter, workers)
    n_dims = problem.perm.n_dims
    y = np.zeros(n_dims) if y is None else np.asarray(y, dtype=float)
    if y.shape != (n_dims,):
        raise ValueError(f"point y of shape {y.shape} does not match the "
                         f"permeability field's {n_dims} dims")
    stats = SolveStats.new("S1", problem.layout.n_subdomains)
    lifetimes = _lifetimes(problem, None, "S1", [(0, y)])
    with _Groups(problem, "S1", workers, stats, None, lifetimes) as groups:
        res, per_sid = groups.solve(0, 0, y, tol, max_iter)
    stats.cg_iters = [res.n_iter]
    return per_sid, res.x, stats
