"""Sparse matrices with a fixed pattern whose data is refilled per realization.

A subdomain saddle matrix depends on the permeability only through a few
scalar coefficients per entry (1/K per Darcy cell, the BJS friction per
Stokes interface edge). Its pattern is therefore computed once from COO
triplets, and every realization fills the CSC data with one sparse matvec:
data = data0 + P @ coef.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import SingularOperatorError


class RefillMatrix:
    """CSC matrix with data0 + P @ coef on a pattern fixed at construction.

    `const` holds (rows, cols, vals) triplets that never change; `scaled`
    holds (rows, cols, vals, which) triplets whose value is
    vals * coef[which]. Duplicate positions are summed.
    """

    def __init__(self, shape, const, scaled, n_coef):
        n_rows = shape[0]
        r0, c0, v0 = (np.asarray(a) for a in const)
        r1, c1, v1, which = (np.asarray(a) for a in scaled)
        keys = (np.concatenate([c0, c1]).astype(np.int64) * n_rows
                + np.concatenate([r0, r1]))
        uniq, pos = np.unique(keys, return_inverse=True)
        nnz = len(uniq)
        self.shape = shape
        self.indices = (uniq % n_rows).astype(np.int32)
        self.indptr = np.concatenate([[0], np.cumsum(np.bincount(
            uniq // n_rows, minlength=shape[1]))]).astype(np.int32)
        self.data0 = np.bincount(pos[:len(r0)], weights=v0, minlength=nnz)
        self.P = sp.csr_matrix((v1, (pos[len(r0):], which)),
                               shape=(nnz, n_coef))

    def __call__(self, coef):
        data = self.data0 + self.P @ np.asarray(coef, dtype=float)
        return sp.csc_matrix((data, self.indices, self.indptr),
                             shape=self.shape)


class CouplingMaps:
    """Mortar coupling maps of one subdomain system.

    F (sparse, local mortar dofs x full velocity dofs) gives the signed
    local mortar functionals of a velocity field. The star load map is
    E = -F^T restricted to the velocity unknowns `head` of the saddle
    system. Both only touch the few trace dofs, so the hot path keeps them
    as small dense blocks on those columns/rows.
    """

    def __init__(self, F, head, n_full):
        self.F = F.tocsr()
        self.cols = np.unique(self.F.indices)
        self._F_block = self.F[:, self.cols].toarray()
        pos = -np.ones(n_full, dtype=int)
        pos[head] = np.arange(len(head))
        rows = pos[self.cols]
        self._E_rows = rows[rows >= 0]
        self._E_block = -self._F_block[:, rows >= 0].T

    def functionals(self, u):
        """F @ u for a full velocity vector u."""
        return self._F_block @ u[self.cols]

    def star_load(self, lam, size):
        """E @ lam, zero-padded to a right-hand side of length size."""
        rhs = np.zeros(size)
        rhs[self._E_rows] = self._E_block @ lam
        return rhs


def check_permeability(K, name):
    """Raise ValueError unless every K value is finite and positive."""
    bad = ~(np.isfinite(K) & (K > 0))
    if bad.any():
        raise ValueError(
            f"{name}: {int(bad.sum())} of {K.size} permeability values are "
            f"not finite and positive")


def factorize(S):
    """SuperLU factors of S; a singular S raises SingularOperatorError."""
    try:
        return splu(S)
    except RuntimeError as exc:
        raise SingularOperatorError(str(exc)) from exc
