"""KL eigenpairs, truncation, and log-normal permeability fields."""

import numpy as np
import pytest

from sdmortar.config import _build_mean
from sdmortar.random_field import (CovarianceSpec, LogPermField,
                                   build_kl_region, solve_1d_eigenpairs)

from _oracles import nystrom_eigenvalues_1d


def covariance_residual(mode, length, eta, n_quad=4000):
    """Max residual of (C f)(x) = lam f(x) on a fine midpoint grid."""
    h = length / n_quad
    x = (np.arange(n_quad) + 0.5) * h
    f = mode(x)
    Cf = (np.exp(-np.abs(x[:, None] - x[None, :]) / eta) * h) @ f
    return np.max(np.abs(Cf - mode.lam * f)) / np.max(np.abs(f))


def test_1d_modes_satisfy_integral_equation():
    """Each closed-form eigenpair solves the exponential-kernel equation."""
    length, eta = 1.0, 0.1
    modes = solve_1d_eigenpairs(length, eta, 6)
    assert len(modes) == 6
    lams = [m.lam for m in modes]
    assert np.all(np.diff(lams) < 0)
    assert [m.kind for m in modes] == ["cos", "sin"] * 3
    for m in modes:
        assert covariance_residual(m, length, eta) < 5e-4


def test_1d_modes_orthonormal():
    """Eigenfunctions are L2-orthonormal on the interval."""
    length, eta = 2.0, 0.5
    modes = solve_1d_eigenpairs(length, eta, 5)
    n_quad = 6000
    h = length / n_quad
    x = (np.arange(n_quad) + 0.5) * h
    F = np.array([m(x) for m in modes])
    G = F @ F.T * h
    assert np.max(np.abs(G - np.eye(5))) < 1e-5


def test_trace_bound():
    """The eigenvalue sum never exceeds the total variance sigma2 * area."""
    for eta in (0.05, 0.1, 0.5, 2.0):
        for length in (0.4, 1.0):
            modes = solve_1d_eigenpairs(length, eta, 12)
            assert sum(m.lam for m in modes) <= length + 1e-12


def test_nystrom_agrees_and_refines():
    """Closed-form eigenvalues match the quadrature check to O(h^2)."""
    length, eta = 1.0, 0.1
    modes = solve_1d_eigenpairs(length, eta, 5)
    exact = np.array([m.lam for m in modes])
    errs = []
    for n_quad in (256, 512, 1024):
        approx = nystrom_eigenvalues_1d(length, eta, 5, n_quad=n_quad)
        errs.append(np.max(np.abs(approx - exact)))
    errs = np.array(errs)
    assert errs[-1] < 2e-5
    ratios = errs[:-1] / errs[1:]
    assert np.all(ratios > 1.8)


def test_2d_selection_largest():
    """Scalar truncation keeps the largest eigenvalue products."""
    cov = CovarianceSpec((0.0, 0.0, 1.0, 0.5), 2.0, (0.3, 0.2))
    reg = build_kl_region(cov, 7, selection="largest")
    lams = reg.eigenvalues()
    assert reg.n_term == 7
    assert np.all(np.diff(lams) <= 1e-15)
    # products from a generous box must not beat the selected set
    mx = solve_1d_eigenpairs(1.0, 0.3, 10)
    my = solve_1d_eigenpairs(0.5, 0.2, 10)
    prods = sorted(
        (2.0 * a.lam * b.lam for a in mx for b in my), reverse=True)
    assert np.allclose(lams, prods[:7], rtol=1e-12)


def test_2d_selection_box():
    """Box truncation keeps the full nx x ny index rectangle, sorted."""
    cov = CovarianceSpec((0.0, 0.0, 1.0, 1.0), 1.0, (0.1, 0.1))
    reg = build_kl_region(cov, (3, 2), selection="box")
    assert reg.n_term == 6
    lams = reg.eigenvalues()
    assert np.all(np.diff(lams) <= 1e-15)
    mx = solve_1d_eigenpairs(1.0, 0.1, 3)
    my = solve_1d_eigenpairs(1.0, 0.1, 2)
    expect = sorted((a.lam * b.lam for a in mx for b in my), reverse=True)
    assert np.allclose(lams, expect, rtol=1e-12)


def test_mode_evaluation_and_region_guard():
    """Mode evaluation is sqrt(lam) f and refuses out-of-region points."""
    cov = CovarianceSpec((1.0, 2.0, 3.0, 4.0), 1.5, (0.4, 0.4))
    reg = build_kl_region(cov, 4)
    x = np.array([1.2, 2.9])
    y = np.array([2.5, 3.9])
    V = reg.evaluate_modes(x, y)
    assert V.shape == (2, 4)
    m = reg.modes[0]
    expect = np.sqrt(m.lam) * m.fx(x - 1.0) * m.fy(y - 2.0)
    assert np.allclose(V[:, 0], expect)
    with pytest.raises(ValueError):
        reg.evaluate_modes(np.array([0.5]), np.array([2.5]))


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
