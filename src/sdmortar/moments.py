"""Running weighted first and second moments of solution fields."""

import logging

import numpy as np

log = logging.getLogger(__name__)


class MomentAccumulator:
    """Accumulate weighted sums of fields and their squares.

    Fields are passed as a flat dict name -> ndarray. The first call fixes
    the set of names and shapes; later calls must match. Weights should sum
    to one over a full collocation sweep (the accumulator does not
    renormalize).
    """

    def __init__(self):
        self._sum = None
        self._sumsq = None
        self.n_samples = 0

    def add(self, weight, fields):
        if self._sum is None:
            self._sum = {k: np.zeros_like(np.asarray(v, dtype=float))
                         for k, v in fields.items()}
            self._sumsq = {k: np.zeros_like(v) for k, v in self._sum.items()}
        if set(fields) != set(self._sum):
            raise ValueError("field names changed between samples")
        for k, v in fields.items():
            if np.shape(v) != self._sum[k].shape:
                raise ValueError(f"field {k!r} has shape {np.shape(v)}, "
                                 f"the first sample's {self._sum[k].shape}")
        for k, v in fields.items():
            v = np.asarray(v, dtype=float)
            self._sum[k] += weight * v
            self._sumsq[k] += weight * v * v
        self.n_samples += 1

    def finalize(self):
        """Return dict name -> (mean, variance) with tiny negatives clamped."""
        if self._sum is None:
            raise RuntimeError("no samples accumulated")
        out = {}
        for k in self._sum:
            mean = self._sum[k]
            var = self._sumsq[k] - mean * mean
            scale = max(1.0, float(np.max(np.abs(self._sumsq[k]), initial=0.0)))
            bad = var < -1e-12 * scale
            if np.any(bad):
                log.warning("field %s: %d variance entries below -1e-12*scale "
                            "(min %.3e), clamping", k, int(np.sum(bad)),
                            float(var.min()))
            out[k] = (mean.copy(), np.maximum(var, 0.0))
        return out
