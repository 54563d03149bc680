"""Coarse mortar spaces on interfaces and their coupling to fine traces.

Each interface carries a coarse 1D mesh with discontinuous piecewise-linear
basis functions (two per element; an optional degree-0 variant gives one
constant per element, used when the mortar must coincide with an RT0 trace
space). On Stokes-Stokes interfaces the mortar has two components, normal
and tangential, in the fixed interface frame. Global dofs are laid out
interface by interface, then element, local basis, component.

A subdomain couples to the mortar through its fine trace space
(piecewise constants per edge on the Darcy side, continuous quadratics on
the Stokes side) by the pairing R[m, j] = <xi_m, psi_j>, integrated
exactly on the merged partition of coarse and fine breakpoints. The L2
projection M^-1 R^T of the mortar onto the trace space is only ever tested
against trace functions, so the trace mass M cancels and the coupling maps
E_i/F_i of each subdomain (problem.py) are built from R alone. `jump` sums
the subdomains' local mortar vectors into a global one.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .geometry import GAUSS3_POINTS, GAUSS3_WEIGHTS, GEOM_TOL

log = logging.getLogger(__name__)


@dataclass
class MortarBlock:
    """Mortar dofs of one interface."""

    iface: object  # geometry.Interface
    n_elem: int
    degree: int  # 1 (discontinuous P1) or 0 (piecewise constant)
    n_comp: int  # 2 on ss interfaces
    offset: int = 0
    breaks: np.ndarray = field(default=None)

    def __post_init__(self):
        self.breaks = np.linspace(0.0, self.iface.length, self.n_elem + 1)

    @property
    def n_scalar(self):
        return self.n_elem * (self.degree + 1)

    @property
    def n_dof(self):
        return self.n_scalar * self.n_comp

    def scalar_values(self, s):
        """All scalar basis functions at points s -> (len(s), n_scalar)."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.zeros((len(s), self.n_scalar))
        elem = np.clip(np.searchsorted(self.breaks, s, side="right") - 1,
                       0, self.n_elem - 1)
        s0 = self.breaks[elem]
        s1 = self.breaks[elem + 1]
        t = (s - s0) / (s1 - s0)
        rows = np.arange(len(s))
        if self.degree == 0:
            out[rows, elem] = 1.0
        else:
            out[rows, 2 * elem] = 1.0 - t
            out[rows, 2 * elem + 1] = t
        return out


class MortarSpace:
    """All interface mortar blocks with the global dof layout."""

    def __init__(self, blocks):
        self.blocks = {}
        offset = 0
        for b in sorted(blocks, key=lambda b: b.iface.index):
            b.offset = offset
            offset += b.n_dof
            self.blocks[b.iface.index] = b
        self.n_dof = offset

    def block(self, iface_index):
        return self.blocks[iface_index]

    def sub_dofs(self, layout, sid):
        """Global mortar dofs living on subdomain sid's interfaces."""
        out = []
        for g in layout.interfaces_of(sid):
            b = self.blocks[g.index]
            out.append(np.arange(b.offset, b.offset + b.n_dof))
        if not out:
            return np.zeros(0, dtype=int)
        return np.concatenate(out)


def build_mortar_space(layout, meshes, elem_counts, degree=1,
                       allow_fine=False):
    """Create the mortar space and validate the coarse condition.

    elem_counts maps interface index -> coarse element count. The coarse
    condition H >= 2 h_trace is checked against both registered fine meshes;
    violations are config errors unless allow_fine is set (then a warning).
    """
    errors = []
    if degree not in (0, 1):
        errors.append(f"mortar degree {degree!r}: 0 or 1 supported")
    blocks = []
    for g in layout.interfaces:
        n = elem_counts[g.index]
        if n < 1:
            errors.append(f"interface {g.index}: mortar needs >= 1 element")
            continue
        H = g.length / n
        h_max = 0.0
        for sid in (g.i, g.j):
            mesh = meshes[sid]
            if g.axis == "x":
                h = mesh.hy
            else:
                h = mesh.hx
            h_max = max(h_max, h)
        if H < 2 * h_max - GEOM_TOL:
            msg = (f"interface {g.index} ({g.kind}, between {g.i} and {g.j}): "
                   f"mortar H = {H:g} violates H >= 2h with h = {h_max:g}")
            if allow_fine:
                log.warning("%s (allowed by config)", msg)
            else:
                errors.append(msg)
        n_comp = 2 if g.kind == "ss" else 1
        blocks.append(MortarBlock(g, n, degree, n_comp))
    if errors:
        raise ConfigError(errors)
    return MortarSpace(blocks)


def _merged_quadrature(breaks_a, breaks_b):
    """3-point Gauss points/weights on the union partition of two break sets."""
    merged = np.sort(np.concatenate([breaks_a, breaks_b]))
    scale = max(merged[-1] - merged[0], 1.0)
    keep = np.concatenate([[True], np.diff(merged) > GEOM_TOL * scale])
    merged = merged[keep]
    pts, wts = [], []
    for k in range(len(merged) - 1):
        a, b = merged[k], merged[k + 1]
        pts.append(0.5 * (a + b) + 0.5 * (b - a) * GAUSS3_POINTS)
        wts.append(0.5 * (b - a) * GAUSS3_WEIGHTS)
    return np.concatenate(pts), np.concatenate(wts)


def _p0_values(fine_breaks, s):
    n = len(fine_breaks) - 1
    out = np.zeros((len(s), n))
    e = np.clip(np.searchsorted(fine_breaks, s, side="right") - 1, 0, n - 1)
    out[np.arange(len(s)), e] = 1.0
    return out


def _p2_values(fine_breaks, s):
    n = len(fine_breaks) - 1
    out = np.zeros((len(s), 2 * n + 1))
    e = np.clip(np.searchsorted(fine_breaks, s, side="right") - 1, 0, n - 1)
    t = (s - fine_breaks[e]) / (fine_breaks[e + 1] - fine_breaks[e])
    rows = np.arange(len(s))
    out[rows, 2 * e] = (1 - t) * (1 - 2 * t)
    out[rows, 2 * e + 1] = 4 * t * (1 - t)
    out[rows, 2 * e + 2] = t * (2 * t - 1)
    return out


def pairing(block, fine_breaks, kind):
    """R[m, j] = <xi_m, psi_j>, integrated exactly on the merged partition.

    psi_j are the per-edge constants (kind "darcy") or the continuous
    quadratics (kind "stokes") of the fine trace with breakpoints
    fine_breaks. Returns a dense (n_scalar, n_trace) array.
    """
    fine = np.asarray(fine_breaks, dtype=float)
    s, w = _merged_quadrature(block.breaks, fine)
    if kind == "darcy":
        Psi = _p0_values(fine, s)
    elif kind == "stokes":
        Psi = _p2_values(fine, s)
    else:
        raise ValueError(kind)
    return block.scalar_values(s).T @ (Psi * w[:, None])


def jump(n_dof, dofs, parts):
    """Global mortar vector: sum over subdomains i of parts[i] at dofs[i].

    parts[i] is a local mortar vector of subdomain i in the order of its
    dofs (StokesDarcyProblem.sub_dofs). With parts[i] = F_i u_i this is the
    flux jump sum_i <u_i.n_i, mu> of subdomain velocities u_i: the bar
    right-hand side from bar solutions, S lam from star solutions. The
    parts are added in subdomain order, so the sum is the same whichever
    process computed them.
    """
    out = np.zeros(n_dof)
    for d, part in zip(dofs, parts):
        out[d] += part
    return out
