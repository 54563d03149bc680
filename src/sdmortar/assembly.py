"""Per-realization factors of the subdomain systems and their coupling.

A factored Darcy or Stokes operator is a SubdomainOperator. Its star
solve answers at the trace: it returns the flux response F A^-1 E lam of
a local mortar vector or a block of them, and its flux_basis returns
-F A^-1 E for every unit mortar load. Only the bar solve, which may carry
interface data too, goes through _solve, which backsolves one right-hand
side and scatters the result into a Solution of full velocity and
pressure dof vectors. A Darcy flux basis is one Gram product of its
triangular solves (darcy.py). A Stokes star solve and flux basis read
its reference's mean-field unit responses by one rule, with no LU solve
(stokes.py). Each counts one backsolve per column. A Stokes operator
whose BJS entries differ from its reference's solves through
UpdatedFactors.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgecon, dgetrf, dgetrs

from .errors import SingularOperatorError


class CouplingMaps:
    """Mortar coupling maps of one subdomain system.

    F (local mortar dofs x full velocity dofs, given as its entries
    (rows, cols, vals, n_rows)) gives the signed local mortar functionals
    of a velocity field. The star load map is E = -F^T restricted to the
    velocity unknowns `head` of the saddle system. Both only touch the few
    trace dofs, so they are kept as small dense blocks on the columns
    `cols` (sorted) that F's nonzero entries reach, and on the rows of
    those that are unknowns, the trace rows `E_rows`. No position is given
    twice.
    """

    def __init__(self, F, head, n_full):
        f_rows, f_cols, f_vals, n_rows = F
        nz = f_vals != 0
        self.n_rows = n_rows
        self.cols, at = np.unique(f_cols[nz], return_inverse=True)
        self._F_block = np.zeros((n_rows, len(self.cols)))
        self._F_block[f_rows[nz], at] = f_vals[nz]
        pos = -np.ones(n_full, dtype=int)
        pos[head] = np.arange(len(head))
        rows = pos[self.cols]
        self.E_rows = rows[rows >= 0]
        self._F_trace = self._F_block[:, rows >= 0]
        self.E_block = -self._F_trace.T

    def row_weights(self):
        """|F| on `cols` with every row scaled to sum 1: the share of each
        column in its mortar functional."""
        W = np.abs(self._F_block)
        return W / W.sum(axis=1, keepdims=True)

    def functionals(self, u):
        """F @ u for a full velocity vector u, or a block of columns."""
        return self._F_block @ u[self.cols]

    def trace_functionals(self, x):
        """F @ u of a star solution x, given as the unknowns (head) of its
        system: its eliminated velocity dofs are zero, so F reads x at the
        trace rows alone. x may be a column block."""
        return self._F_trace @ x[self.E_rows]

    def star_load(self, lam, size):
        """E @ lam, zero-padded to size rows; lam may be a column block."""
        rhs = np.zeros((size,) + np.shape(lam)[1:])
        rhs[self.E_rows] = self.E_block @ lam
        return rhs


def check_permeability(K, name):
    """Raise ValueError unless every K value is finite and positive."""
    bad = ~(np.isfinite(K) & (K > 0))
    if bad.any():
        raise ValueError(
            f"{name}: {int(bad.sum())} of {K.size} permeability values are "
            f"not finite and positive")


# Smallest reciprocal condition number (1-norm) of a capacitance matrix
# that UpdatedFactors accepts. Solves through the update lose about
# log10(1/rcond) digits against a fresh factorization.
CAP_RCOND = 1e-10


class UpdatedFactors:
    """Solves with A + U D U^T from the sparse LU of A (Woodbury).

    U = I[:, rows] selects r rows, W = A^-1 U holds their r backsolves and
    D is a dense r x r matrix. Only the capacitance M = I + D U^T W is
    factored (Hager, Updating the inverse of a matrix, SIAM Review 1989);
    it needs no inverse of D, so D may be singular or zero. With
    G = W M^-1 D, formed once, a solve is x = y - G y[rows] with
    y = A^-1 b: one solve with A. A capacitance that is not finite, or
    whose reciprocal condition number is below CAP_RCOND, raises
    SingularOperatorError.
    """

    def __init__(self, base, rows, W, D):
        self.base = base
        self.shape = base.shape
        self.rows = rows
        M = np.eye(len(rows)) + D @ W[rows]
        if not np.all(np.isfinite(M)):
            raise SingularOperatorError("capacitance matrix is not finite")
        lu, piv, info = dgetrf(M)
        rcond = 0.0
        if info == 0:
            rcond = dgecon(lu, np.abs(M).sum(axis=0).max(), norm="1")[0]
        if not rcond >= CAP_RCOND:
            raise SingularOperatorError(
                f"capacitance matrix is singular (reciprocal condition "
                f"number {rcond:.1e})")
        self.G = W @ dgetrs(lu, piv, D)[0]

    def solve(self, rhs):
        y = self.base.solve(rhs)
        return y - self.G @ y[self.rows]


@dataclass
class Solution:
    """Fields of one subdomain solve; with a block of right-hand sides each
    array carries a trailing axis of columns."""

    u: np.ndarray  # every velocity dof of the mesh, eliminated ones included
    p: np.ndarray  # pressure dofs


class SubdomainOperator:
    """A subdomain system's factored operator for one realization.

    The system's unknowns are its free velocity dofs `free` (of n_udof)
    followed by n_p pressures, scaled by p_scale in the factored matrix;
    the LU may border them with constraint rows. `lu` is any factor with
    `shape` and `solve`: a Stokes SuperLU or UpdatedFactors, a Darcy
    darcy.HybridFactors. Every load handed to
    _solve has the LU's rows with its pressure rows scaled: `bar_load` is
    built so once, and a star load (CouplingMaps.star_load at the LU's
    rows) is zero on the pressure rows.

    A backsolve is one subdomain problem solved for one right-hand side:
    a solve or star solve with m columns counts m, and a flux basis counts
    N_dof, one star problem per local mortar dof. The Darcy flux basis is
    a Gram product of forward triangular solves; the symmetry of its
    multiplier matrix stands in for each dof's backward half-solve. A
    Stokes star solve or basis hands its LU no column. The operator keeps
    its own factorizations and backsolves; SolveStats harvests them.
    """

    def __init__(self, system, lu, bar_load):
        self.system = system
        self.mesh = system.mesh
        self.lu = lu
        self.bar_load = bar_load
        self.factorizations = 1
        self.backsolves = 0

    def _count(self, rhs):
        """Count one backsolve per column of rhs (one for a vector)."""
        self.backsolves += rhs.shape[1] if np.ndim(rhs) == 2 else 1

    def _bar_rhs(self, lam):
        """The bar load plus, unless lam is None, the star load of lam."""
        if lam is None:
            return self.bar_load
        return self.bar_load + self._star_load(lam)

    def _solve(self, rhs, lift=None):
        """Backsolve rhs; eliminated velocity dofs take lift (None: zero)."""
        system = self.system
        self._count(rhs)
        sol = self.lu.solve(rhs)
        n_free = len(system.free)
        p = sol[n_free:n_free + system.n_p]
        p *= system.p_scale
        u = (np.zeros((system.n_udof,) + rhs.shape[1:]) if lift is None
             else lift.copy())
        u[system.free] = sol[:n_free]
        return Solution(u, p)

    def _star_load(self, lam):
        return self.system.coupling.star_load(lam, self.lu.shape[0])
