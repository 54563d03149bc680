"""Factored subdomain operators and their mortar coupling.

A factored Darcy or Stokes operator is a SubdomainOperator that holds
what its solves read. Its star solve answers at the trace: it returns the
flux response F A^-1 E lam of a local mortar vector or a block of them,
and its flux_basis returns -F A^-1 E for every unit mortar load. Its bar
solve, which may carry interface data too, returns a Solution of full
velocity and pressure dof vectors. A Darcy operator holds its banded
Cholesky factor and backsolves its loads with it, and a Darcy flux basis
is one Gram product of its triangular solves (darcy.py). A Stokes
operator reads every solve off its reference's responses to the
mean-field loads by small products, with no LU solve; one whose BJS
entries differ from its reference's holds the Woodbury correction G of
that difference and its bar load's lift (stokes.py). Each solve counts
one backsolve per column.
"""

from dataclasses import dataclass

import numpy as np


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


@dataclass
class Solution:
    """Fields of one subdomain solve; with a block of right-hand sides each
    array carries a trailing axis of columns."""

    u: np.ndarray  # every velocity dof of the mesh, eliminated ones included
    p: np.ndarray  # pressure dofs


class SubdomainOperator:
    """A subdomain system's factored operator for one realization.

    The system's unknowns are its free velocity dofs `free` (of n_udof)
    followed by n_p pressures; a Stokes LU scales the pressures by p_scale
    and may border the unknowns with constraint rows. Each subclass holds
    what its solves read: a DarcyOperator its Cholesky factor and trace
    maps, a StokesOperator its reference and, if updated, G and the lift.

    A backsolve is one subdomain problem solved for one right-hand side:
    a solve or star solve with m columns counts m, and a flux basis counts
    N_dof, one star problem per local mortar dof. The Darcy flux basis is
    a Gram product of forward triangular solves; the symmetry of its
    multiplier matrix stands in for each dof's backward half-solve. A
    Stokes solve or basis hands its LU no column. The operator keeps its
    own factorizations and backsolves; SolveStats harvests them.
    """

    def __init__(self, system):
        self.system = system
        self.mesh = system.mesh
        self.factorizations = 1
        self.backsolves = 0

    def _count(self, rhs):
        """Count one backsolve per column of rhs (one for a vector)."""
        self.backsolves += rhs.shape[1] if np.ndim(rhs) == 2 else 1
