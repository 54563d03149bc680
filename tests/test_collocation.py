"""Gauss-Hermite rules, tensor and sparse collocation grids."""

import itertools

import numpy as np
import pytest

from sdmortar.collocation import (build_sparse_grid, build_tensor_grid,
                                  gauss_hermite_rule, rule_size_at_level)

from _oracles import (count_local_realizations, global_to_local_index,
                      local_realization_points)


def test_gauss_hermite_small_rules():
    """Known nodes for the 2- and 3-point probabilists' rules."""
    x2, w2 = gauss_hermite_rule(2)
    assert np.allclose(x2, [-1.0, 1.0])
    assert np.allclose(w2, [0.5, 0.5])
    x3, w3 = gauss_hermite_rule(3)
    assert np.allclose(x3, [-np.sqrt(3.0), 0.0, np.sqrt(3.0)])
    assert np.allclose(w3, [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0])
    x1, w1 = gauss_hermite_rule(1)
    assert x1 == pytest.approx(0.0) and w1 == pytest.approx(1.0)


@pytest.mark.parametrize("m", [2, 3, 5, 8, 15])
def test_gauss_hermite_moments(m):
    """m points integrate standard normal moments up to degree 2m-1."""
    x, w = gauss_hermite_rule(m)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.array_equal(x, -x[::-1])
    assert np.array_equal(w, w[::-1])
    for d in range(2 * m):
        got = w @ x ** d
        scale = w @ np.abs(x) ** d
        if d % 2 == 1:
            # odd moments cancel pairwise; bound by the summation condition
            assert abs(got) <= 1e-12 * scale
        else:
            exact = float(np.prod(np.arange(1, d, 2, dtype=float))) if d else 1.0
            assert got == pytest.approx(exact, rel=1e-11)


def test_tensor_grid_ordering():
    """Dimension 0 is the slowest-running index (mixed radix)."""
    grid = build_tensor_grid([2, 3])
    assert grid.n_real == 6
    x2, _ = gauss_hermite_rule(2)
    x3, _ = gauss_hermite_rule(3)
    expect = [(a, b) for a in x2 for b in x3]
    assert np.allclose(grid.points, expect)
    assert grid.weights.sum() == pytest.approx(1.0)


def test_tensor_grid_scalar_broadcast():
    """A scalar size broadcasts across the dimensions given by splits."""
    grid = build_tensor_grid([2] * 5, splits=(2, 3))
    assert grid.n_real == 32
    assert grid.n_dims == 5
    assert count_local_realizations(grid, 0) == 4
    assert count_local_realizations(grid, 1) == 8
    assert grid.region_slice(1) == slice(2, 5)


def test_tensor_local_index_consistency():
    """Global points restricted to a region match its local table."""
    grid = build_tensor_grid([3, 2, 2], splits=(1, 2))
    for region in range(2):
        sl = grid.region_slice(region)
        table = local_realization_points(grid, region)
        for k in range(grid.n_real):
            r = global_to_local_index(grid, region, k)
            assert np.array_equal(grid.points[k, sl], table[r])
    # region 0 sees each of its 3 local realizations 4 times
    counts = np.bincount(grid.local_indices[0])
    assert np.array_equal(counts, [4, 4, 4])


def test_sparse_rule_sizes():
    """Nested 1D sizes are 2^(p+1) - 1."""
    assert [rule_size_at_level(p) for p in range(4)] == [1, 3, 7, 15]


def test_sparse_grid_counts():
    """Point counts for standard Smolyak Gauss-Hermite grids."""
    assert build_sparse_grid(10, 0).n_real == 1
    assert build_sparse_grid(10, 1).n_real == 2 * 10 + 1
    assert build_sparse_grid(50, 1).n_real == 2 * 50 + 1
    # level 2: center + 8 per dim (levels 1 and 2) + 4 per dim pair
    assert build_sparse_grid(10, 2).n_real == 1 + 8 * 10 + 2 * 10 * 9
    grid = build_sparse_grid(10, 1, splits=(5, 5))
    assert grid.n_real == 21
    assert count_local_realizations(grid, 0) == 11
    assert count_local_realizations(grid, 1) == 11


def test_sparse_grid_exactness():
    """Level ell integrates all monomials of total degree <= 2*ell + 1."""
    n = 4
    for level in (1, 2):
        grid = build_sparse_grid(n, level)
        assert grid.weights.sum() == pytest.approx(1.0, abs=1e-12)
        deg_max = 2 * level + 1
        for alpha in itertools.product(range(deg_max + 1), repeat=n):
            if sum(alpha) > deg_max:
                continue
            exact = 1.0
            for a in alpha:
                if a % 2 == 1:
                    exact = 0.0
                    break
                exact *= float(np.prod(np.arange(1, a, 2, dtype=float))) if a else 1.0
            got = grid.weights @ np.prod(grid.points ** np.array(alpha), axis=1)
            assert got == pytest.approx(exact, abs=1e-10)


def test_sparse_weights_can_be_negative():
    """Combination-technique weights are signed but sum to one."""
    grid = build_sparse_grid(3, 2)
    assert (grid.weights < 0).any()
    assert grid.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_grid_argument_errors():
    with pytest.raises(ValueError):
        build_tensor_grid([2, 2], splits=(3,))
    with pytest.raises(ValueError):
        build_sparse_grid(0, 1)
    with pytest.raises(ValueError):
        build_sparse_grid(2, -1)
    with pytest.raises(ValueError):
        gauss_hermite_rule(0)
