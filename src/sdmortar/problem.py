"""The assembled deterministic problem: meshes, couplings, data, sources.

A StokesDarcyProblem bundles everything that does not depend on the
stochastic realization: the layout and per-subdomain meshes, the mortar
space and each subdomain's mortar dofs, outer boundary conditions, body
forces, and the log-permeability field.

Each subdomain is split into a realization-invariant system (a DarcySystem
or StokesSystem, built once by `systems()` and cached) and a
per-realization factor (`assemble_subdomain`), which takes the collocation
point y and samples the permeability only where factoring reads it
(`sample_permeability`): a Darcy subdomain at its own cell centroids, a
Stokes subdomain at the Darcy cells under its sd edges (`kl_cells`), whose
K sets the BJS friction. A Stokes factor updates the mean-field LU of
`stokes_reference`, the sweep's or one of its own. The invariant system
holds the coupling maps of subdomain i (assembly.CouplingMaps):

* F_i: full velocity -> signed local mortar functionals <v.n, xi_m>, in
  `sub_dofs[i]` order, so the jump is sum_i scatter(F_i u_i);
* E_i = -F_i^T on the velocity unknowns: local mortar vector -> star
  right-hand side. The L2 projection of the mortar onto the trace space
  cancels against the trace mass, so E_i is the signed pairing R^T placed
  on the trace rows.

The subdomain meets each of its interfaces through one geometry.Trace.
Its physics says which velocity dofs each trace component reads and with
what frame coefficient (darcy.trace_dofs, stokes.trace_dofs), and
`_coupling` emits F_i's entries side_sign * R * coef at those dofs; the
system's CouplingMaps places them in a dense block on the columns they
reach.

The interface solver couples through three steps: `star_data` restricts a
global mortar vector to subdomain i (lam_i), the star solve returns the
flux response F_i A_i^-1 E_i lam_i, read at the trace rows without
building the subdomain's fields (assembly.SubdomainOperator), and
mortar.jump scatters and sums the subdomains' results. `side_functionals`
applies F_i to full fields; it serves the bar solutions alone.
"""

from dataclasses import dataclass, field

import numpy as np

from . import darcy, stokes
from .geometry import build_subdomain_mesh, locate_trace
from .mortar import pairing


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
    sub_dofs: list = field(init=False)
    kl_cells: dict = field(init=False)
    _systems: list = field(init=False, default=None, repr=False)

    def __post_init__(self):
        n_sub = self.layout.n_subdomains
        self.traces = {sid: [] for sid in range(n_sub)}
        self.sub_dofs = [self.space.sub_dofs(self.layout, sid)
                         for sid in range(n_sub)]
        self.kl_cells = {}
        for g in self.layout.interfaces:
            for sid in (g.i, g.j):
                self.traces[sid].append(locate_trace(
                    self.meshes[sid], self.layout.blocks[sid], g))
            if g.kind == "sd":
                s_sid = g.i if self.layout.physics(g.i) == "stokes" else g.j
                d_sid = g.j if s_sid == g.i else g.i
                self.kl_cells.setdefault(s_sid, {})[g.index] = (
                    d_sid, self._neighbor_cells(s_sid, d_sid, g))

    def _neighbor_cells(self, s_sid, d_sid, iface):
        """Darcy cell under each fine Stokes edge midpoint of an sd interface."""
        tr = next(t for t in self.traces[s_sid] if t.iface == iface)
        mids = iface.span[0] + 0.5 * (tr.s_breaks[:-1] + tr.s_breaks[1:])
        xy = [mids, mids]
        xy["xy".index(iface.axis)] = iface.position  # the normal coordinate
        return self.meshes[d_sid].cell_at(*xy)

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
                q=self.q_d, coupling=self._coupling(sid, darcy.trace_dofs),
                name=name)
        return stokes.StokesSystem(
            mesh, self.physics.nu_s, self.physics.alpha, bcs,
            self.traces[sid], f=self.f_s,
            coupling=self._coupling(sid, stokes.trace_dofs), name=name)

    def _coupling(self, sid, trace_dofs):
        """Entries (rows, cols, vals, n_rows) of F_i: full velocity ->
        signed local mortar functionals, in sub_dofs[sid] order.

        On each interface, component c of mortar scalar m is local row
        m n_comp + c, and its entries are side_sign R[m, k] coef at the
        velocity dof of trace dof k, where trace_dofs(trace) gives each
        component's dofs and frame coefficient and R is the pairing.
        """
        kind = self.layout.physics(sid)
        z = np.zeros(0, dtype=int)
        rows, cols, vals = [z], [z], [np.zeros(0)]
        n_rows = 0
        for t in self.traces[sid]:
            mb = self.space.block(t.iface.index)
            R = pairing(mb, t.s_breaks, kind)
            m = n_rows + mb.n_comp * np.arange(mb.n_scalar)[:, None]
            for c, (dofs, coef) in enumerate(trace_dofs(t)[:mb.n_comp]):
                rows.append(np.broadcast_to(m + c, R.shape).ravel())
                cols.append(np.broadcast_to(dofs, R.shape).ravel())
                vals.append((t.iface.side_sign(sid) * coef * R).ravel())
            n_rows += mb.n_dof
        return (*(np.concatenate(x) for x in (rows, cols, vals)), n_rows)

    # -- realization-dependent pieces ---------------------------------------

    def sample_permeability(self, sid, y):
        """K at collocation point y where factoring subdomain sid reads it.

        A Darcy subdomain: K at its cell centroids. A Stokes subdomain: the
        BJS samples {sd interface index: K of the Darcy cells under its
        edges}.
        """
        if self.layout.physics(sid) == "darcy":
            return self._realize(sid, self.meshes[sid].centroids, y)
        return {idx: self._realize(d_sid, self.meshes[d_sid].centroids[cells],
                                   y)
                for idx, (d_sid, cells) in self.kl_cells.get(sid, {}).items()}

    def _realize(self, sid, xy, y):
        """K = exp(Y) at points xy of Darcy subdomain sid's KL region."""
        return self.perm.realize(self.layout.blocks[sid].kl_region, xy[:, 0],
                                 xy[:, 1], y)

    def assemble_subdomain(self, sid, y, reference=None):
        """Factor subdomain sid's operator at collocation point y.

        A Stokes operator updates the LU of `reference`, the sweep's
        stokes_reference(sid), or of a reference built here when None.
        """
        K = self.sample_permeability(sid, y)
        if self.layout.physics(sid) == "darcy":
            return self.systems()[sid].factor(K)
        if reference is None:
            reference = self.stokes_reference(sid)
        return reference.factor(K)

    def stokes_reference(self, sid):
        """StokesReference of Stokes subdomain sid at the mean field, y = 0."""
        return stokes.StokesReference(self.systems()[sid],
                                      self.sample_permeability(
                                          sid, np.zeros(self.perm.n_dims)))

    def star_data(self, sid, lam):
        """lam_i: the global mortar vector lam on subdomain sid's dofs.

        A star solve turns it into its load E_i lam_i.
        """
        return lam[self.sub_dofs[sid]]

    def side_functionals(self, sid, sol):
        """F_i u: signed local mortar functionals of a solution of sid (a
        bar solution, whose u includes the Dirichlet lift).

        sol.u may carry a trailing axis of columns.
        """
        return self.systems()[sid].coupling.functionals(sol.u)

    def postprocess(self, sid, op, sol):
        """Output fields of one subdomain: dof vectors and cell samples."""
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
