"""Karhunen-Loeve expansion of a log-normal permeability field.

The log permeability Y = log K is Gaussian with a separable exponential
covariance sigma^2 exp(-|dx|/eta_x - |dy|/eta_y) on each KL region (an
axis-aligned rectangle). Regions are statistically independent; each one
contributes its own block of standard normal variables. The 2D eigenpairs
are products of the classical 1D exponential-kernel eigenpairs, which have
closed forms in terms of the roots of the transcendental equations
    w tan(w a/2) = 1/eta   (cosine modes)
    w + (1/eta) tan(w a/2) = 0   (sine modes)
on an interval of length a. Permeability is evaluated at cell centroids as
K = exp(Y).
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


@dataclass(frozen=True)
class Mode1D:
    """One 1D eigenpair on [lo, hi]: f(x) = trig(w (x - mid)) / norm."""

    kind: str  # "cos" | "sin"
    w: float
    lam: float  # eigenvalue (unit variance)
    lo: float
    hi: float
    norm: float

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        mid = 0.5 * (self.lo + self.hi)
        if self.kind == "cos":
            return np.cos(self.w * (x - mid)) / self.norm
        return np.sin(self.w * (x - mid)) / self.norm


def solve_1d_eigenpairs(length, eta, n_modes):
    """Largest n_modes eigenpairs of exp(-|x-y|/eta) on an interval.

    Returns modes sorted by decreasing eigenvalue (for this kernel the
    cosine/sine root families interlace, so sorting by increasing root w is
    the same thing). Eigenvalues are for unit variance: lam = 2 eta / (1 +
    eta^2 w^2); eigenfunctions are L2-orthonormal on the interval.
    """
    if n_modes == 0:
        return []
    b = 0.5 * length
    c = 1.0 / eta
    n_each = n_modes // 2 + 1

    # both increase on their brackets below, between poles of tan(w b)
    def cos_eq(w):
        return np.tan(w * b) - c / w

    def sin_eq(w):
        return np.tan(w * b) + w / c

    roots = []
    for k in range(1, n_each + 1):
        lo = ((k - 1) * np.pi + _BRACKET_EPS) / b
        hi = ((k - 0.5) * np.pi - _BRACKET_EPS) / b
        if k == 1:
            lo = _BRACKET_EPS / b
        roots.append(("cos", _bisect(cos_eq, lo, hi)))
        lo = ((k - 0.5) * np.pi + _BRACKET_EPS) / b
        hi = (k * np.pi - _BRACKET_EPS) / b
        roots.append(("sin", _bisect(sin_eq, lo, hi)))

    modes = []
    for kind, w in roots[:n_modes]:
        lam = 2.0 * eta / (1.0 + (eta * w) ** 2)
        if kind == "cos":
            norm = np.sqrt(b + np.sin(2 * w * b) / (2 * w))
        else:
            norm = np.sqrt(b - np.sin(2 * w * b) / (2 * w))
        modes.append(Mode1D(kind, w, lam, 0.0, length, norm))
    return modes


@dataclass(frozen=True)
class Mode2D:
    """Separable 2D eigenpair lam, fx, fy; the 1D modes live on the
    region-local intervals (KLRegionExpansion.evaluate_modes)."""

    lam: float
    fx: Mode1D
    fy: Mode1D


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
    """Truncated KL expansion of one region: n_term ordered 2D modes."""

    cov: CovarianceSpec
    modes: list  # Mode2D, eigenvalue-descending

    @property
    def n_term(self):
        return len(self.modes)

    def eigenvalues(self):
        return np.array([m.lam for m in self.modes])

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
        out = np.empty((len(x), self.n_term))
        xl = x - x0
        yl = y - y0
        for j, m in enumerate(self.modes):
            out[:, j] = np.sqrt(m.lam) * m.fx(xl) * m.fy(yl)
        return out


def build_kl_region(cov, n_term, selection="largest"):
    """Truncate the 2D product expansion of one region to n_term modes.

    selection="largest" keeps the n_term largest products lam_x[p]*lam_y[q]
    (sigma2 applied once to the product), ties broken lexicographically by
    (p, q). selection="box" with n_term=(nx, ny) keeps the full index box.
    The 1D mode count per axis starts at ceil(2 sqrt(n_term)) and grows until
    the selected set provably contains the n_term largest products.
    """
    lx = cov.rect[2] - cov.rect[0]
    ly = cov.rect[3] - cov.rect[1]
    if selection == "box":
        nx, ny = n_term
        mx = solve_1d_eigenpairs(lx, cov.eta[0], nx)
        my = solve_1d_eigenpairs(ly, cov.eta[1], ny)
        pairs = [(p, q) for p in range(nx) for q in range(ny)]
        pairs.sort(key=lambda pq: (-mx[pq[0]].lam * my[pq[1]].lam, pq))
        modes = [
            Mode2D(cov.sigma2 * mx[p].lam * my[q].lam, mx[p], my[q])
            for p, q in pairs
        ]
        return KLRegionExpansion(cov, modes)

    if selection != "largest":
        raise ValueError(f"unknown selection {selection!r}")
    n = int(n_term)
    if n == 0:
        return KLRegionExpansion(cov, [])
    m = max(1, int(np.ceil(2.0 * np.sqrt(n))))
    while True:
        # one extra mode per axis to bound the products outside the m x m box
        mx = solve_1d_eigenpairs(lx, cov.eta[0], m + 1)
        my = solve_1d_eigenpairs(ly, cov.eta[1], m + 1)
        pairs = [(p, q) for p in range(m) for q in range(m)]
        pairs.sort(key=lambda pq: (-mx[pq[0]].lam * my[pq[1]].lam, pq))
        chosen = pairs[:n]
        threshold = mx[chosen[-1][0]].lam * my[chosen[-1][1]].lam
        outside = max(mx[m].lam * my[0].lam, mx[0].lam * my[m].lam)
        if outside <= threshold or m * m >= 4 * n and outside < threshold * (1 + 1e-12):
            break
        m += 2
    modes = [
        Mode2D(cov.sigma2 * mx[p].lam * my[q].lam, mx[p], my[q])
        for p, q in chosen
    ]
    return KLRegionExpansion(cov, modes)


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

    def evaluate_log(self, region, x, y, xi):
        """Y at points of one region for that region's variables xi."""
        exp = self.regions[region]
        out = self.mean(x, y, region=region)
        if exp.n_term:
            out = out + exp.evaluate_modes(x, y) @ np.asarray(xi, dtype=float)
        return out

    def realize(self, region, x, y, y_global):
        """K = exp(Y) at points, picking the region's block out of y_global."""
        xi = np.asarray(y_global, dtype=float)[self.region_slice(region)]
        return np.exp(self.evaluate_log(region, x, y, xi))
