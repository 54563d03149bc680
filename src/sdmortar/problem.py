"""The assembled deterministic problem: meshes, couplings, data, sources.

A StokesDarcyProblem bundles everything that does not depend on the
stochastic realization: the layout and per-subdomain meshes, the mortar
space with its side couplings, outer boundary conditions, body forces, and
the log-permeability field.

Each subdomain is split into a realization-invariant system (a DarcySystem
or StokesSystem, built once by `systems()` and cached) and a
per-realization factor (`assemble_subdomain`). The invariant system holds
the sparse coupling maps of subdomain i:

* F_i: full velocity -> signed local mortar functionals <v.n, xi_m>, in
  MortarSpace.sub_dofs order, so the jump is sum_i scatter(F_i u_i);
* E_i = -F_i^T on the velocity unknowns: local mortar vector -> star
  right-hand side. The L2 projection of the mortar onto the trace space
  cancels against the trace mass, so E_i is the signed pairing R^T placed
  on the trace rows.

`star_data` and `side_functionals` are the dict-based reference path the
maps are tested against; the bar side of the interface problem still uses
them once per realization.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import darcy, stokes
from .geometry import build_subdomain_mesh, side_of_interface


@dataclass(frozen=True)
class Physics:
    nu_s: float = 1.0
    nu_d: float = 1.0
    alpha: float = 1.0


@dataclass
class StokesDarcyProblem:
    layout: object
    meshes: dict
    space: object  # MortarSpace
    perm: object  # LogPermField
    physics: Physics
    bcs: dict  # sid -> {side: DarcyBC|StokesBC}
    f_s: object = None
    f_d: object = None
    q_d: object = None
    traces: dict = field(init=False)
    couplings: dict = field(init=False)
    kl_cells: dict = field(init=False)
    _systems: list = field(init=False, default=None, repr=False)

    def __post_init__(self):
        from .mortar import build_side_coupling

        self.traces = {sid: [] for sid in range(self.layout.n_subdomains)}
        self.couplings = {}
        self.kl_cells = {}
        for g in self.layout.interfaces:
            for sid in (g.i, g.j):
                block = self.layout.blocks[sid]
                mesh = self.meshes[sid]
                if block.physics == "darcy":
                    tr = darcy.interface_trace(mesh, block, g)
                    kind = "darcy"
                else:
                    tr = stokes.interface_trace(mesh, block, g, sid)
                    kind = "stokes"
                self.traces[sid].append(tr)
                self.couplings[(g.index, sid)] = build_side_coupling(
                    self.space.block(g.index), tr.s_breaks, kind)
            if g.kind == "sd":
                s_sid = g.i if self.layout.physics(g.i) == "stokes" else g.j
                d_sid = g.j if s_sid == g.i else g.i
                self.kl_cells.setdefault(s_sid, {})[g.index] = (
                    d_sid, self._neighbor_cells(s_sid, d_sid, g))

    def _neighbor_cells(self, s_sid, d_sid, iface):
        """Darcy cell under each fine Stokes edge midpoint of an sd interface."""
        tr = next(t for t in self.traces[s_sid] if t.iface == iface.index)
        dmesh = self.meshes[d_sid]
        dblock = self.layout.blocks[d_sid]
        dside = side_of_interface(dblock, iface)
        mids = iface.span[0] + 0.5 * (tr.s_breaks[:-1] + tr.s_breaks[1:])
        cells = np.empty(len(mids), dtype=int)
        for k, m in enumerate(mids):
            if iface.axis == "y":  # horizontal interface, tangent along x
                ix = int(np.clip((m - dblock.x0) / dmesh.hx, 0, dmesh.nx - 1))
                iy = dmesh.ny - 1 if dside == "top" else 0
            else:
                iy = int(np.clip((m - dblock.y0) / dmesh.hy, 0, dmesh.ny - 1))
                ix = dmesh.nx - 1 if dside == "right" else 0
            cells[k] = dmesh.cell(ix, iy)
        return cells

    # -- realization-invariant systems ---------------------------------------

    def systems(self):
        """Invariant system of every subdomain, built on the first call.

        The interface solver calls this before it splits the subdomains
        into groups and forks the worker processes, so every process
        inherits the built systems and none builds them again.
        """
        if self._systems is None:
            self._systems = [self._build_system(sid)
                             for sid in range(self.layout.n_subdomains)]
        return self._systems

    def _build_system(self, sid):
        block = self.layout.blocks[sid]
        mesh = self.meshes[sid]
        bcs = self.bcs.get(sid, {})
        name = f"subdomain {sid}"
        if block.physics == "darcy":
            return darcy.DarcySystem(
                mesh, self.physics.nu_d, bcs, self.traces[sid], f=self.f_d,
                q=self.q_d, coupling=self._coupling(sid, darcy.trace_maps),
                name=name)
        return stokes.StokesSystem(
            mesh, self.physics.nu_s, self.physics.alpha, bcs,
            self.traces[sid], f=self.f_s,
            coupling=self._coupling(sid, stokes.trace_maps), name=name)

    def _coupling(self, sid, trace_maps):
        """F_i: full velocity -> signed local mortar functionals."""
        mesh = self.meshes[sid]
        by_iface = {t.iface: t for t in self.traces[sid]}
        rows = []
        for g in self.layout.interfaces_of(sid):
            mb = self.space.block(g.index)
            R = sp.csr_matrix(self.couplings[(g.index, sid)].R)
            comps = sp.vstack([
                g.side_sign(sid) * (R @ T)
                for T in trace_maps(mesh, by_iface[g.index])[:mb.n_comp]
            ]).tocsr()
            # block dof k is scalar k // n_comp of component k % n_comp
            k = np.arange(mb.n_dof)
            rows.append(comps[(k % mb.n_comp) * mb.n_scalar
                              + k // mb.n_comp])
        return sp.vstack(rows).tocsr()

    # -- realization-dependent pieces ---------------------------------------

    def permeability(self, y_global, sids=None):
        """K per Darcy subdomain at cell centroids for one realization.

        With `sids`, only the fields that factoring those subdomains reads:
        a Darcy subdomain's own and the BJS neighbours of a Stokes one.
        """
        if sids is None:
            sids = range(self.layout.n_subdomains)
        need = set()
        for sid in sids:
            if self.layout.blocks[sid].physics == "darcy":
                need.add(sid)
            else:
                need.update(d for d, _ in self.kl_cells.get(sid, {}).values())
        out = {}
        for sid in sorted(need):
            block = self.layout.blocks[sid]
            mesh = self.meshes[sid]
            out[sid] = self.perm.realize(
                block.kl_region, mesh.centroids[:, 0], mesh.centroids[:, 1],
                y_global)
        return out

    def assemble_subdomain(self, sid, K_fields):
        """Factor one subdomain operator for given K fields."""
        system = self.systems()[sid]
        if self.layout.blocks[sid].physics == "darcy":
            return system.factor(K_fields[sid])
        return system.factor({
            idx: K_fields[d_sid][cells]
            for idx, (d_sid, cells) in self.kl_cells.get(sid, {}).items()})

    def star_data(self, sid, lam):
        """Project a global mortar vector onto subdomain sid's trace spaces.

        Reference path: operators' solve_star accepts the returned dict.
        """
        block = self.layout.blocks[sid]
        data = {}
        for g in self.layout.interfaces_of(sid):
            mb = self.space.block(g.index)
            coup = self.couplings[(g.index, sid)]
            c_n = lam[mb.component_dofs(0)]
            if block.physics == "darcy":
                data[g.index] = coup.to_trace(c_n)
            else:
                lam_n = coup.to_trace(c_n)
                lam_t = None
                if mb.n_comp == 2:
                    lam_t = coup.to_trace(lam[mb.component_dofs(1)])
                data[g.index] = (lam_n, lam_t)
        return data

    def side_functionals(self, sid, op, sol):
        """Mortar-side response entries of one subdomain solution.

        Reference path of F_i; `jump` sums the entries of all subdomains.
        """
        block = self.layout.blocks[sid]
        entries = []
        for g in self.layout.interfaces_of(sid):
            coup = self.couplings[(g.index, sid)]
            if block.physics == "darcy":
                flux = op.flux_on_interface(sol, g.index)
                funcs = (coup.functional(flux),)
            else:
                un, ut = op.velocity_trace(sol, g.index)
                if self.space.block(g.index).n_comp == 2:
                    funcs = (coup.functional(un), coup.functional(ut))
                else:
                    funcs = (coup.functional(un),)
            entries.append((g.index, g.side_sign(sid), funcs))
        return entries

    def postprocess(self, sid, op, sol):
        """Output fields of one subdomain: dof vectors and cell samples."""
        block = self.layout.blocks[sid]
        if block.physics == "darcy":
            cv = op.cell_velocity(sol)
            return {"u": sol.u.copy(), "p": sol.p.copy(),
                    "cv": cv, "cp": sol.p.copy()}
        cv, cp = op.cell_values(sol)
        return {"u": sol.u.copy(), "p": sol.p.copy(), "cv": cv, "cp": cp}

    def cell_centers(self, sid):
        mesh = self.meshes[sid]
        if self.layout.physics(sid) == "darcy":
            return mesh.centroids
        return mesh.tri_vertices.mean(axis=1)


def build_problem(layout, space, perm, physics, bcs, f_s=None, f_d=None,
                  q_d=None, meshes=None):
    """Convenience constructor that meshes the blocks if needed."""
    if meshes is None:
        meshes = {sid: build_subdomain_mesh(b)
                  for sid, b in enumerate(layout.blocks)}
    return StokesDarcyProblem(layout, meshes, space, perm, physics, bcs,
                              f_s=f_s, f_d=f_d, q_d=q_d)
