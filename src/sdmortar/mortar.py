"""Coarse mortar spaces on interfaces and their coupling to fine traces.

Each interface carries a coarse 1D mesh with discontinuous piecewise-linear
basis functions (two per element; an optional degree-0 variant gives one
constant per element, used when the mortar must coincide with an RT0 trace
space). On Stokes-Stokes interfaces the mortar has two components, normal
and tangential, in the fixed interface frame. Global dofs are laid out
interface by interface, then element, local basis, component.

Couplings to a subdomain's fine trace space (piecewise constants per edge on
the Darcy side, continuous quadratics on the Stokes side) are rectangular
matrices R[m, j] = <xi_m, psi_j> integrated exactly on the merged partition
of coarse and fine breakpoints. mortar -> trace is the L2 projection
M^-1 R^T c; trace -> mortar is the plain pairing R g, which keeps the
interface operator symmetric. A star load only tests the projection
against trace functions, so M cancels and the subdomain coupling maps
(problem.py) use R alone; the projection and `jump` serve the dict-based
reference path and the bar-side jump.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .geometry import GEOM_TOL

log = logging.getLogger(__name__)

_G3 = np.array([-np.sqrt(3 / 5), 0.0, np.sqrt(3 / 5)])
_G3W = np.array([5, 8, 5]) / 9.0


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

    def component_dofs(self, comp):
        """Global dof ids of one component, scalar-ordered."""
        local = np.arange(self.n_scalar) * self.n_comp + comp
        return self.offset + local


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
        pts.append(0.5 * (a + b) + 0.5 * (b - a) * _G3)
        wts.append(0.5 * (b - a) * _G3W)
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


def p2_trace_mass(fine_breaks):
    """1D continuous-quadratic mass matrix on the fine partition (dense)."""
    n = len(fine_breaks) - 1
    M = np.zeros((2 * n + 1, 2 * n + 1))
    unit = np.array([[4, 2, -1], [2, 16, 2], [-1, 2, 4]]) / 30.0
    for e in range(n):
        L = fine_breaks[e + 1] - fine_breaks[e]
        idx = [2 * e, 2 * e + 1, 2 * e + 2]
        M[np.ix_(idx, idx)] += L * unit
    return M


@dataclass
class SideCoupling:
    """Exact coupling of one mortar block to one subdomain's trace space."""

    block: MortarBlock
    kind: str  # "darcy" | "stokes"
    R: np.ndarray  # (n_scalar, n_trace_items)
    mass: np.ndarray  # diag lengths (darcy) or dense P2 mass (stokes)

    def to_trace(self, coeffs_scalar):
        """L2 projection of a scalar mortar function onto the trace space."""
        rhs = self.R.T @ np.asarray(coeffs_scalar, dtype=float)
        if self.kind == "darcy":
            return rhs / self.mass
        return np.linalg.solve(self.mass, rhs)

    def functional(self, g):
        """<g, xi_m> for a trace-space function g (nodal/per-edge values)."""
        return self.R @ np.asarray(g, dtype=float)


def build_side_coupling(block, fine_breaks, kind):
    """Integrate R[m, j] = <xi_m, psi_j> on the merged partition."""
    fine = np.asarray(fine_breaks, dtype=float)
    s, w = _merged_quadrature(block.breaks, fine)
    Xi = block.scalar_values(s)
    if kind == "darcy":
        Psi = _p0_values(fine, s)
        mass = np.diff(fine)
    elif kind == "stokes":
        Psi = _p2_values(fine, s)
        mass = p2_trace_mass(fine)
    else:
        raise ValueError(kind)
    R = Xi.T @ (Psi * w[:, None])
    return SideCoupling(block, kind, R, mass)


def jump(space, side_entries):
    """Assemble b_Lambda(v, .) from per-side trace functionals.

    side_entries: list of (iface_index, sigma, funcs) where sigma is the
    side sign (+1 lower id, -1 higher) and funcs is a tuple of per-component
    functional vectors (scalar interfaces: one entry; ss: normal, tangent).
    The signed sum realizes [v.n] = v_i.n_i + v_j.n_j. Every interface that
    appears must appear once per side.
    """
    out = np.zeros(space.n_dof)
    seen = {}
    for iface_index, sigma, funcs in side_entries:
        b = space.blocks[iface_index]
        if len(funcs) != b.n_comp:
            raise ValueError(
                f"interface {iface_index}: expected {b.n_comp} components, "
                f"got {len(funcs)}")
        for comp, f in enumerate(funcs):
            out[b.component_dofs(comp)] += sigma * np.asarray(f, dtype=float)
        seen.setdefault(iface_index, []).append(sigma)
    for idx, sigmas in seen.items():
        if sorted(sigmas) != [-1, 1]:
            raise RuntimeError(f"interface {idx}: jump needs both sides")
    return out
