"""Eigenvalue decay and sample realizations of a lognormal permeability field."""

import numpy as np

from sdmortar.random_field import CovarianceSpec, LogPermField, build_kl_region

cov = CovarianceSpec(rect=(0.0, 0.0, 1.0, 1.0), sigma2=1.0, eta=(0.1, 0.1))
region = build_kl_region(cov, n_term=12)

lams = region.eigenvalues()
total = cov.sigma2 * 1.0 * 1.0  # separable kernel: trace = sigma2 * |D|
print("mode   eigenvalue   cumulative / total variance")
for i, lam in enumerate(lams):
    print(f"{i:4d}   {lam:10.6f}   {np.sum(lams[:i + 1]) / total:10.4f}")
print(f"12 modes capture {np.sum(lams) / total:.1%} of the field variance\n")

field = LogPermField([region], lambda x, y, region=None: np.zeros_like(x))
rng = np.random.default_rng(7)

nx, ny = 60, 24
xs = (np.arange(nx) + 0.5) / nx
ys = (np.arange(ny) + 0.5) / ny
XX, YY = np.meshgrid(xs, ys)

y_sample = rng.standard_normal(field.n_dims)
K = field.realize(0, XX.ravel(), YY.ravel(), y_sample).reshape(ny, nx)
print(f"one realization of K = exp(mean + KL): "
      f"min {K.min():.3f}, max {K.max():.3f}")

shades = " .:-=+*#%@"
lo, hi = np.log(K).min(), np.log(K).max()
for row in reversed(range(ny)):
    idx = ((np.log(K[row]) - lo) / (hi - lo) * (len(shades) - 1)).astype(int)
    print("".join(shades[i] for i in idx))

print("\ncells shaded by log K; the 12 kept modes are the smoothest ones, "
      "so the sample\nvaries on scales coarser than the correlation "
      "length 0.1")
