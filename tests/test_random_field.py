"""KL eigenpairs, truncation, and log-normal permeability fields."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdmortar.config import _build_mean
from sdmortar.random_field import (CovarianceSpec, LogPermField,
                                   build_kl_region, solve_1d_eigenpairs)

from _oracles import nystrom_eigenvalues_1d


def mode_functions(length, eta, n):
    """The n leading 1D eigenpairs as (lam, f) with f the closed form."""
    w, lam, norm = solve_1d_eigenpairs(length, eta, n)
    trig = (np.cos, np.sin)
    return [(lam[j], lambda s, j=j: trig[j % 2](w[j] * (s - 0.5 * length))
             / norm[j]) for j in range(n)]


def covariance_residual(lam, f, length, eta, n_quad=4000):
    """Max residual of (C f)(x) = lam f(x) on a fine midpoint grid."""
    h = length / n_quad
    x = (np.arange(n_quad) + 0.5) * h
    fx = f(x)
    Cf = (np.exp(-np.abs(x[:, None] - x[None, :]) / eta) * h) @ fx
    return np.max(np.abs(Cf - lam * fx)) / np.max(np.abs(fx))


def test_1d_modes_satisfy_integral_equation():
    """Each closed-form eigenpair solves the exponential-kernel equation;
    the interlaced roots make even modes cosines and odd modes sines."""
    length, eta = 1.0, 0.1
    w, lam, norm = solve_1d_eigenpairs(length, eta, 6)
    assert w.shape == lam.shape == norm.shape == (6,)
    assert np.all(np.diff(lam) < 0) and np.all(np.diff(w) > 0)
    # cosines are even and sines odd about the interval's midpoint
    modes = mode_functions(length, eta, 6)
    s = np.array([0.1, 0.3])
    for j, (lam_j, f) in enumerate(modes):
        assert np.allclose(f(length - s), (-1) ** j * f(s), atol=1e-14)
        assert covariance_residual(lam_j, f, length, eta) < 5e-4


def test_1d_modes_orthonormal():
    """Eigenfunctions are L2-orthonormal on the interval."""
    length, eta = 2.0, 0.5
    n_quad = 6000
    h = length / n_quad
    x = (np.arange(n_quad) + 0.5) * h
    F = np.array([f(x) for _, f in mode_functions(length, eta, 5)])
    G = F @ F.T * h
    assert np.max(np.abs(G - np.eye(5))) < 1e-5


def test_trace_bound():
    """The eigenvalue sum never exceeds the total variance sigma2 * area."""
    for eta in (0.05, 0.1, 0.5, 2.0):
        for length in (0.4, 1.0):
            _, lam, _ = solve_1d_eigenpairs(length, eta, 12)
            assert lam.sum() <= length + 1e-12


def test_nystrom_agrees_and_refines():
    """Closed-form eigenvalues match the quadrature check to O(h^2)."""
    length, eta = 1.0, 0.1
    _, exact, _ = solve_1d_eigenpairs(length, eta, 5)
    errs = []
    for n_quad in (256, 512, 1024):
        approx = nystrom_eigenvalues_1d(length, eta, 5, n_quad=n_quad)
        errs.append(np.max(np.abs(approx - exact)))
    errs = np.array(errs)
    assert errs[-1] < 2e-5
    ratios = errs[:-1] / errs[1:]
    assert np.all(ratios > 1.8)


def largest_products(cov, n):
    """The n largest sigma2 lam_x[p] lam_y[q], taken over the n x n box,
    which holds them since lam_x and lam_y decrease."""
    _, lx, _ = solve_1d_eigenpairs(cov.rect[2] - cov.rect[0], cov.eta[0], n)
    _, ly, _ = solve_1d_eigenpairs(cov.rect[3] - cov.rect[1], cov.eta[1], n)
    return np.sort((cov.sigma2 * lx[:, None] * ly[None, :]).ravel())[::-1][:n]


def test_2d_selection_largest():
    """A count n_term keeps the largest eigenvalue products."""
    cov = CovarianceSpec((0.0, 0.0, 1.0, 0.5), 2.0, (0.3, 0.2))
    reg = build_kl_region(cov, 7)
    lams = reg.eigenvalues()
    assert reg.n_term == 7
    assert np.all(np.diff(lams) <= 1e-15)
    assert np.array_equal(lams, largest_products(cov, 7))
    assert np.array_equal(
        lams, cov.sigma2 * reg.x[1][reg.p] * reg.y[1][reg.q])


def test_2d_selection_box():
    """An [nx, ny] n_term keeps the full index rectangle, sorted."""
    cov = CovarianceSpec((0.0, 0.0, 1.0, 1.0), 1.0, (0.1, 0.1))
    reg = build_kl_region(cov, (3, 2))
    assert reg.n_term == 6
    assert sorted(zip(reg.p.tolist(), reg.q.tolist())) == [
        (p, q) for p in range(3) for q in range(2)]
    lams = reg.eigenvalues()
    assert np.all(np.diff(lams) <= 1e-15)
    _, lx, _ = solve_1d_eigenpairs(1.0, 0.1, 3)
    _, ly, _ = solve_1d_eigenpairs(1.0, 0.1, 2)
    expect = sorted((a * b for a in lx for b in ly), reverse=True)
    assert np.allclose(lams, expect, rtol=1e-12)
    # a list works as the pair does (config passes [nx, ny])
    same = build_kl_region(cov, [3, 2])
    assert np.array_equal(same.p, reg.p) and np.array_equal(same.q, reg.q)


@settings(max_examples=40, deadline=None)
@example(n=6, eta_x=0.05, eta_y=0.4, ly=0.4)  # two passes of the loop
@example(n=12, eta_x=0.05, eta_y=0.4, ly=0.4)  # four passes
@given(n=st.integers(1, 14),
       eta_x=st.sampled_from([0.05, 0.1, 0.2, 0.5]),
       eta_y=st.sampled_from([0.05, 0.2, 0.4, 1.0, 2.0]),
       ly=st.sampled_from([0.25, 0.4, 1.0]))
def test_largest_keeps_the_n_largest_products(n, eta_x, eta_y, ly):
    """The kept eigenvalues are non-increasing and equal the n largest
    products, also with anisotropic correlation lengths, where the 1D mode
    count has to grow past its first guess."""
    cov = CovarianceSpec((0.0, 0.0, 1.0, ly), 1.0, (eta_x, eta_y))
    reg = build_kl_region(cov, n)
    lams = reg.eigenvalues()
    assert len(lams) == n
    assert np.all(np.diff(lams) <= 0)
    assert np.array_equal(lams, largest_products(cov, n))
    # the axis tables hold exactly the 1D modes the terms use
    assert set(reg.p.tolist()) == set(range(len(reg.x[0])))
    assert set(reg.q.tolist()) == set(range(len(reg.y[0])))


def closed_form_terms(reg, x, y):
    """sqrt(lam_j) f_x,p(x) f_y,q(y) for every term j, one at a time, in
    the arithmetic order of the closed form."""
    x0, y0, x1, y1 = reg.cov.rect
    out = np.empty((len(x), reg.n_term))
    for j, (p, q) in enumerate(zip(reg.p, reg.q)):
        fx = ((np.sin if p % 2 else np.cos)(
            reg.x[0][p] * ((x - x0) - 0.5 * (x1 - x0))) / reg.x[2][p])
        fy = ((np.sin if q % 2 else np.cos)(
            reg.y[0][q] * ((y - y0) - 0.5 * (y1 - y0))) / reg.y[2][q])
        out[:, j] = np.sqrt(reg.lam[j]) * fx * fy
    return out


def test_mode_evaluation_and_region_guard():
    """Every term of evaluate_modes equals the closed form bit for bit, on
    a region of the largest products and on a box region; points outside
    the region are refused."""
    cov = CovarianceSpec((1.0, 2.0, 3.0, 4.0), 1.5, (0.4, 0.2))
    x = np.array([1.0, 1.2, 2.0, 2.9, 3.0])
    y = np.array([2.5, 3.9, 2.0, 3.1, 4.0])
    for n_term, n in ((7, 7), ((3, 2), 6)):
        reg = build_kl_region(cov, n_term)
        V = reg.evaluate_modes(x, y)
        assert V.shape == (5, n)
        assert np.array_equal(V, closed_form_terms(reg, x, y))
        # C order, as a column-filled array has: V @ xi sums in that order
        assert V.flags.c_contiguous
        with pytest.raises(ValueError):
            reg.evaluate_modes(np.array([0.5]), np.array([2.5]))
        with pytest.raises(ValueError):
            reg.evaluate_modes(np.array([2.0]), np.array([4.5]))


def constant_mean(c):
    """A mean of log K that is c everywhere."""
    return lambda x, y, region=None: np.full(np.shape(x), c)


def test_mean_kinds():
    """Each configured mean kind is a callable (x, y, region=None) that
    returns an array of x's shape, a constant expression too."""
    x = np.array([0.2, 0.8])
    y = np.array([0.1, 0.9])
    const = _build_mean({"kind": "constant", "value": 1.5}, None)
    assert np.allclose(const(x, y), [1.5, 1.5])
    expr = _build_mean({"kind": "expression", "expr": "x + 2 * y"}, None)
    assert np.allclose(expr(x, y), [0.4, 2.6])
    flat = _build_mean({"kind": "expression", "expr": "2"}, None)
    assert flat(x, y).shape == (2,) and np.all(flat(x, y) == 2.0)
    per = _build_mean({"kind": "per_region",
                       "values": {"0": 1.0, "1": -1.0}}, None)
    assert np.allclose(per(x, y, region=1), [-1.0, -1.0])


def test_field_variable_layout():
    """Regions own contiguous variable blocks, region 0 first."""
    cov0 = CovarianceSpec((0.0, 0.0, 1.0, 0.5), 1.0, (0.2, 0.2))
    cov1 = CovarianceSpec((0.0, 0.5, 1.0, 1.0), 1.0, (0.3, 0.3))
    field = LogPermField(
        [build_kl_region(cov0, 2), build_kl_region(cov1, 3)],
        constant_mean(0.5),
    )
    assert field.n_dims == 5
    assert field.region_slice(0) == slice(0, 2)
    assert field.region_slice(1) == slice(2, 5)
    y_global = np.array([0.3, -0.7, 1.1, 0.2, -0.4])
    x = np.array([0.25, 0.75])
    yy = np.array([0.6, 0.9])
    K = field.realize(1, x, yy, y_global)
    V = field.regions[1].evaluate_modes(x, yy)
    assert np.allclose(K, np.exp(0.5 + V @ y_global[2:5]))
    # zero variables give the mean field exactly
    K0 = field.realize(0, x, np.array([0.2, 0.4]), np.zeros(5))
    assert np.allclose(K0, np.exp(0.5))


def test_realized_variance_matches_truncated_covariance():
    """Monte Carlo variance of Y approaches the truncated diagonal."""
    cov = CovarianceSpec((0.0, 0.0, 1.0, 1.0), 1.0, (0.5, 0.5))
    field = LogPermField([build_kl_region(cov, 8)],
                         constant_mean(0.0))
    rng = np.random.default_rng(42)
    x = np.array([0.5, 0.21])
    y = np.array([0.5, 0.77])
    V = field.regions[0].evaluate_modes(x, y)
    target = (V ** 2).sum(axis=1)
    xi = rng.standard_normal((40000, 8))
    samples = V @ xi.T
    assert np.allclose(samples.var(axis=1), target, rtol=0.05)
    assert np.all(target < 1.0)
