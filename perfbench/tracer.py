"""In-memory spans around the public callables of the sdmortar modules.

The benchmark does not change the program: it replaces module attributes
and class methods with timing wrappers for the duration of a traced run and
puts the originals back afterwards. A span records its name, start, end,
parent span and the realization it belongs to (the number of realizations
already added to the moment accumulator, so S3's basis preparation counts
as realization 0). Spans opened in a worker thread with no open span of
their own take the main thread's innermost open span as parent.
"""

import contextlib
import functools
import importlib
import json
import threading
import time
from collections import defaultdict


def _physics_name(suffix):
    def name(problem, sid, *args, **kwargs):
        return problem.layout.blocks[sid].physics + suffix
    return name


# (module[:class], attribute, span name or callable giving it). Functions
# that another module imports by name are replaced where they are looked
# up: `jump` in sdmortar.interface, the set-up builders in sdmortar.config.
PATCHES = (
    ("sdmortar.problem:StokesDarcyProblem", "assemble_subdomain",
     _physics_name(".assemble")),
    ("sdmortar.darcy:DarcyOperator", "solve_bar", "darcy.solve"),
    ("sdmortar.darcy:DarcyOperator", "solve_star", "darcy.solve"),
    ("sdmortar.stokes:StokesOperator", "solve_bar", "stokes.solve"),
    ("sdmortar.stokes:StokesOperator", "solve_star", "stokes.solve"),
    ("sdmortar.problem:StokesDarcyProblem", "star_data", "problem.star_data"),
    ("sdmortar.problem:StokesDarcyProblem", "side_functionals",
     "problem.side_functionals"),
    ("sdmortar.problem:StokesDarcyProblem", "postprocess",
     "problem.postprocess"),
    ("sdmortar.interface", "jump", "mortar.jump"),
    ("sdmortar.interface", "cg_solve", "interface.cg"),
    ("sdmortar.interface", "compute_flux_basis", "interface.basis"),
    ("sdmortar.interface", "recover_fields", "interface.recover"),
    ("sdmortar.random_field:LogPermField", "realize", "random_field.realize"),
    ("sdmortar.moments:MomentAccumulator", "add", "moments.add"),
    ("sdmortar.moments:MomentAccumulator", "finalize", "moments.finalize"),
    ("sdmortar.config", "build_kl_region", "random_field.kl_build"),
    ("sdmortar.config", "build_mortar_space", "mortar.space"),
    ("sdmortar.config", "build_tensor_grid", "collocation.grid"),
    ("sdmortar.config", "build_sparse_grid", "collocation.grid"),
    ("sdmortar.config", "build_problem", "problem.build"),
)


def _owner(path):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Span recorder; spans are lists [name, start, end, parent, real]."""

    def __init__(self):
        self.spans = []
        self.realization = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = -1
        span = [name, time.perf_counter(), None, parent, self.realization]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()
            if name == "moments.add":
                self.realization += 1

    def _wrapper(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name(*args, **kwargs) if callable(name) else name
            return self.call(span, fn, *args, **kwargs)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every callable in PATCHES; restore the originals on exit."""
        saved = []
        try:
            for path, attr, name in PATCHES:
                owner = _owner(path)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrapper(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, real) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0,
                                     "end": t1, "parent": parent,
                                     "realization": real}) + "\n")


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans, root):
    """Per-name calls, inclusive and self seconds within root's subtree.

    Returns {name: {"calls", "total_s", "self_s"}}; the root's own self
    time is the part of it no wrapped call covers.
    """
    children = defaultdict(list)
    for i, span in enumerate(spans):
        children[span[3]].append(i)
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    todo = [root]
    while todo:
        i = todo.pop()
        name, t0, t1 = spans[i][:3]
        kids = children.get(i, [])
        todo.extend(kids)
        rec = out[name]
        rec["calls"] += 1
        rec["total_s"] += t1 - t0
        rec["self_s"] += (t1 - t0) - _covered(
            [(spans[k][1], spans[k][2]) for k in kids])
    return dict(out)
