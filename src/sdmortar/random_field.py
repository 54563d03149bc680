"""Karhunen-Loeve expansion of a log-normal permeability field.

The log permeability Y = log K is Gaussian with a separable exponential
covariance sigma^2 exp(-|dx|/eta_x - |dy|/eta_y) on each KL region (an
axis-aligned rectangle). Regions are statistically independent; each one
contributes its own block of standard normal variables. The 2D eigenpairs
are products of the classical 1D exponential-kernel eigenpairs, which have
closed forms in terms of the roots of the transcendental equations
    w tan(w a/2) = 1/eta   (cosine modes)
    w + (1/eta) tan(w a/2) = 0   (sine modes)
on an interval of length a. The two root families interlace, so 1D mode j
is a cosine for even j and a sine for odd j, and one axis is fully given by
three arrays: roots w, eigenvalues and norms. A region is the two axes'
arrays plus the (p, q) index pair of each kept 2D term. Permeability is
evaluated at cell centroids as K = exp(Y).
"""

from dataclasses import dataclass

import numpy as np

_BRACKET_EPS = 1e-9


def _bisect(f, lo, hi):
    """Root of an increasing f with f(lo) < 0 < f(hi), to the last bit:
    halves [lo, hi] until no float lies strictly between its ends."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def solve_1d_eigenpairs(length, eta, n_modes):
    """Largest n_modes eigenpairs of exp(-|x-y|/eta) on [0, length].

    Returns arrays (w, lam, norm) by decreasing eigenvalue, which for this
    kernel is increasing root w: mode j is f_j(s) = cos(w_j (s - length/2))
    / norm_j for even j and the same with sin for odd j. Eigenvalues are for
    unit variance, lam = 2 eta / (1 + eta^2 w^2); the f_j are L2-orthonormal.
    """
    b = 0.5 * length
    c = 1.0 / eta

    # both increase on their brackets below, between poles of tan(w b)
    def cos_eq(w):
        return np.tan(w * b) - c / w

    def sin_eq(w):
        return np.tan(w * b) + w / c

    w = np.empty(n_modes)
    for j in range(n_modes):  # root j lies in (j pi/2, (j + 1) pi/2) / b
        lo = (0.5 * j * np.pi + _BRACKET_EPS) / b
        hi = ((0.5 * j + 0.5) * np.pi - _BRACKET_EPS) / b
        w[j] = _bisect(sin_eq if j % 2 else cos_eq, lo, hi)
    lam = 2.0 * eta / (1.0 + (eta * w) ** 2)
    sign = np.where(np.arange(n_modes) % 2, -1.0, 1.0)
    norm = np.sqrt(b + sign * (np.sin(2 * w * b) / (2 * w)))
    return w, lam, norm


def _mode_values(axis, length, s):
    """Every 1D mode of an axis table (w, lam, norm) at local coordinates
    s -> (len(s), n_modes)."""
    w, _, norm = axis
    d = s - 0.5 * length
    out = np.empty((len(s), len(w)))
    for j in range(len(w)):
        out[:, j] = (np.sin if j % 2 else np.cos)(w[j] * d) / norm[j]
    return out


@dataclass(frozen=True)
class CovarianceSpec:
    """Separable exponential covariance on one rectangular KL region."""

    rect: tuple  # (x0, y0, x1, y1)
    sigma2: float
    eta: tuple  # (eta_x, eta_y)

    def __post_init__(self):
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be >= 0")
        if self.eta[0] <= 0 or self.eta[1] <= 0:
            raise ValueError("correlation lengths must be > 0")


@dataclass
class KLRegionExpansion:
    """Truncated KL expansion of one region: the 1D tables (w, lam, norm)
    of the modes each axis uses and, per kept term j (eigenvalue-
    descending), its mode indices p[j], q[j]; term j has eigenvalue
    sigma2 lam_x[p] lam_y[q] and mode f_x,p(x - x0) f_y,q(y - y0)."""

    cov: CovarianceSpec
    x: tuple  # (w, lam, norm) arrays of the x axis
    y: tuple  # the same for the y axis
    p: np.ndarray  # x-mode index of each term
    q: np.ndarray  # y-mode index of each term

    def __post_init__(self):
        self.lam = self.cov.sigma2 * self.x[1][self.p] * self.y[1][self.q]

    @property
    def n_term(self):
        return len(self.p)

    def eigenvalues(self):
        return self.lam.copy()

    def evaluate_modes(self, x, y):
        """sqrt(lam_j) f_j at points -> array (n_points, n_term)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        x0, y0, x1, y1 = self.cov.rect
        # evaluation outside the region is a caller bug, not extrapolation
        tol = 1e-9 * max(x1 - x0, y1 - y0)
        if ((x < x0 - tol).any() or (x > x1 + tol).any()
                or (y < y0 - tol).any() or (y > y1 + tol).any()):
            raise ValueError("evaluation point outside the KL region")
        fx = _mode_values(self.x, x1 - x0, x - x0)
        fy = _mode_values(self.y, y1 - y0, y - y0)
        # np.take, unlike fx[:, p], gives C order, so that a product with
        # the result sums in the same order as on a column-filled array
        return (np.sqrt(self.lam) * np.take(fx, self.p, axis=1)
                * np.take(fy, self.q, axis=1))


def build_kl_region(cov, n_term):
    """Truncate the 2D product expansion of one region; n_term's form says
    how. A count n keeps the n largest products lam_x[p] lam_y[q]: the 1D
    mode count per axis starts at ceil(2 sqrt(n)) and grows until the kept
    set provably holds the n largest. A pair (nx, ny) keeps the full index
    box. Either way the terms are sorted by decreasing product (sigma2
    applied once to it), ties broken lexicographically by (p, q). Both
    kept sets hold (p', q) and (p, q') with every p' < p and q' < q, so
    the axis tables are cut to modes 0..max p and 0..max q, and all of
    them are used.
    """
    lx = cov.rect[2] - cov.rect[0]
    ly = cov.rect[3] - cov.rect[1]

    def by_product(pairs):
        return sorted(pairs, key=lambda pq: (-ax[1][pq[0]] * ay[1][pq[1]],
                                             pq))

    if not np.ndim(n_term) and n_term == 0:
        n_term = (0, 0)  # no terms: the empty box
    if np.ndim(n_term):
        nx, ny = n_term
        ax = solve_1d_eigenpairs(lx, cov.eta[0], nx)
        ay = solve_1d_eigenpairs(ly, cov.eta[1], ny)
        pairs = [(p, q) for p in range(nx) for q in range(ny)]
    else:
        n = int(n_term)
        m = max(1, int(np.ceil(2.0 * np.sqrt(n))))
        while True:
            # one extra mode per axis bounds the products outside the m x m
            # box
            ax = solve_1d_eigenpairs(lx, cov.eta[0], m + 1)
            ay = solve_1d_eigenpairs(ly, cov.eta[1], m + 1)
            pairs = by_product((p, q) for p in range(m) for q in range(m))[:n]
            threshold = ax[1][pairs[-1][0]] * ay[1][pairs[-1][1]]
            outside = max(ax[1][m] * ay[1][0], ax[1][0] * ay[1][m])
            if outside <= threshold or (m * m >= 4 * n and
                                        outside < threshold * (1 + 1e-12)):
                break
            m += 2
    p, q = np.array(by_product(pairs), dtype=int).reshape(-1, 2).T
    ax = tuple(a[:p.max(initial=-1) + 1] for a in ax)
    ay = tuple(a[:q.max(initial=-1) + 1] for a in ay)
    return KLRegionExpansion(cov, ax, ay, p, q)


@dataclass
class LogPermField:
    """Multi-region KL field with the global variable layout.

    Region i owns the contiguous block of n_term(i) standard normal
    variables starting at offsets[i] (region 0 first), matching the
    dimension layout of the collocation grid. `mean` is the mean of
    Y = log K, a callable (x, y, region=None) -> array of x's shape.
    """

    regions: list  # KLRegionExpansion per region
    mean: object

    def __post_init__(self):
        counts = [r.n_term for r in self.regions]
        self.offsets = np.concatenate([[0], np.cumsum(counts)]).astype(int)
        self.n_dims = int(self.offsets[-1])

    def region_slice(self, i):
        return slice(self.offsets[i], self.offsets[i + 1])

    def realize(self, region, x, y, y_global):
        """K = exp(Y) at points of one region: its mean plus its modes
        times its block of y_global."""
        exp = self.regions[region]
        log_k = self.mean(x, y, region=region)
        if exp.n_term:
            xi = np.asarray(y_global, dtype=float)[self.region_slice(region)]
            log_k = log_k + exp.evaluate_modes(x, y) @ xi
        return np.exp(log_k)
