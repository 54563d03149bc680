"""Weighted moment accumulation over collocation sweeps."""

import numpy as np
import pytest

from sdmortar.collocation import build_tensor_grid
from sdmortar.moments import MomentAccumulator

from _oracles import WeightSumAccumulator


def test_lognormal_moments_via_quadrature():
    """GH quadrature of exp(xi) reproduces E = sqrt(e), Var = e^2 - e."""
    grid = build_tensor_grid([10])
    acc = WeightSumAccumulator()
    for k in range(grid.n_real):
        acc.add(grid.weights[k], {"f": np.exp(grid.points[k])})
    mean, var = acc.finalize()["f"]
    assert mean[0] == pytest.approx(np.exp(0.5), rel=1e-6)
    assert var[0] == pytest.approx(np.exp(2.0) - np.exp(1.0), rel=1e-4)
    assert acc.total_weight == pytest.approx(1.0, abs=1e-14)
    assert acc.n_samples == 10


def test_order_insensitive():
    """Permuting sample order changes the result only at roundoff level."""
    rng = np.random.default_rng(5)
    w = rng.uniform(0.1, 1.0, 12)
    w = w / w.sum()
    fields = rng.standard_normal((12, 7))
    a, b = MomentAccumulator(), MomentAccumulator()
    for k in range(12):
        a.add(w[k], {"f": fields[k]})
    for k in reversed(range(12)):
        b.add(w[k], {"f": fields[k]})
    ma, va = a.finalize()["f"]
    mb, vb = b.finalize()["f"]
    assert np.max(np.abs(ma - mb)) < 1e-14
    assert np.max(np.abs(va - vb)) < 1e-14


def test_negative_variance_clamped():
    """Roundoff-negative variances come back as exact zeros."""
    acc = MomentAccumulator()
    acc.add(0.5, {"f": np.array([1.0])})
    acc.add(0.5, {"f": np.array([1.0 + 1e-9])})
    _, var = acc.finalize()["f"]
    assert var[0] >= 0.0
    acc2 = MomentAccumulator()
    acc2.add(1.0, {"f": np.array([3.0])})
    _, var2 = acc2.finalize()["f"]
    assert var2[0] == 0.0


def test_field_name_mismatch_rejected():
    acc = MomentAccumulator()
    acc.add(0.5, {"a": np.zeros(2)})
    with pytest.raises(ValueError, match="field names"):
        acc.add(0.5, {"b": np.zeros(2)})


@pytest.mark.parametrize("later", [np.ones(1), np.ones((3, 1)),
                                   np.ones(4)])
def test_field_shape_mismatch_rejected(later):
    """A later sample must not broadcast into the first one's shape, nor
    leave the sums half updated."""
    acc = MomentAccumulator()
    acc.add(0.5, {"y": np.zeros(2), "x": np.arange(3.0)})
    with pytest.raises(ValueError) as err:
        acc.add(0.5, {"y": np.ones(2), "x": later})
    assert str(err.value) == (f"field 'x' has shape {later.shape}, the "
                              f"first sample's (3,)")
    acc.add(0.5, {"y": np.ones(2), "x": np.arange(3.0)})
    mean, var = acc.finalize()["x"]
    assert np.array_equal(mean, np.arange(3.0)) and not var.any()
    assert np.array_equal(acc.finalize()["y"][0], [0.5, 0.5])


def test_empty_finalize_rejected():
    with pytest.raises(RuntimeError, match="no samples"):
        MomentAccumulator().finalize()


def test_multiple_fields_and_shapes():
    acc = MomentAccumulator()
    acc.add(0.25, {"u": np.ones((3, 2)), "p": np.zeros(4)})
    acc.add(0.75, {"u": 3 * np.ones((3, 2)), "p": 2 * np.ones(4)})
    out = acc.finalize()
    mu, vu = out["u"]
    mp, vp = out["p"]
    assert mu.shape == (3, 2) and vu.shape == (3, 2)
    assert np.allclose(mu, 2.5)
    assert np.allclose(vu, 0.25 * 1 + 0.75 * 9 - 2.5 ** 2)
    assert np.allclose(mp, 1.5)
    assert np.allclose(vp, 0.75 * 4 - 1.5 ** 2)
