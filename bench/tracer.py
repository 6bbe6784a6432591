"""In-memory span tracer that wraps exhom's public functions from outside.

Nothing under ``src/`` knows about tracing: :meth:`Tracer.install` replaces
each traced function by a wrapper in every module that holds it (``from
.grid import assemble`` binds the name inside ``corrector``, ``hmm`` and
``reference`` as well as in ``grid``), patches methods on their class, and
wraps ``scipy.sparse.linalg.cg``/``bicgstab`` with a chained callback that
counts Krylov iterations.  :meth:`Tracer.uninstall` puts every original
back; a tracer can be installed and uninstalled many times and keeps its
spans throughout.

A span is ``[name, start, end, parent, root]``; spans live in a list until
the run ends.  A span's self time is its duration minus the durations of
its child spans; the time of a root span that no child covers is the
root's unattributed time, so the self times of a root's spans plus its
unattributed time add up to the root's duration.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (span name, module, attribute path).  Several functions may share a span
# name; a target whose module or attribute no longer exists is reported in
# `Tracer.absent` instead of failing.
TARGETS = (
    ("coeffs.eval", "exhom.coeffs", "CoefficientField.__call__"),
    ("coeffs.catalog", "exhom.coeffs", "catalog"),
    ("averaging.build_filter", "exhom.averaging", "build_filter"),
    ("averaging.bundle", "exhom.averaging", "solve_corrector_bundle"),
    ("averaging.weights", "exhom.averaging", "Filter.weights_nd"),
    ("averaging.tensor", "exhom.averaging", "hom_tensor_projected"),
    ("grid.assemble", "exhom.grid", "assemble"),
    ("grid.solve", "exhom.grid", "solve"),
    ("grid.gradient", "exhom.grid", "gradient_field"),
    ("grid.gradient", "exhom.grid", "interpolate_gradient"),
    ("corrector.ladder", "exhom.corrector", "corrector_ladder"),
    ("corrector.combine", "exhom.corrector", "richardson_combine"),
    ("lattice.corrector", "exhom.lattice", "lattice_corrector"),
    ("lattice.hom", "exhom.lattice", "lattice_hom"),
    ("hmm.local_tensor", "exhom.hmm", "local_tensor"),
    ("hmm.numerical_corrector", "exhom.hmm", "numerical_corrector"),
    ("hmm.coarse_solve", "exhom.hmm", "coarse_solve"),
)
KRYLOV = ("cg", "bicgstab")
PATCH_SPANS = ("hmm.local_tensor", "hmm.numerical_corrector")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(float))  # root -> name -> value
        self.keys = defaultdict(set)  # root -> distinct (grid, field, bc) assembly keys
        self.absent = []
        self._krylov_calls = defaultdict(int)  # grid.solve span -> Krylov calls
        self._solver_error = ()
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    # -- spans and counters -------------------------------------------------

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        root = idx if parent is None else self.spans[parent][4]
        self.spans.append([name, time.perf_counter(), None, parent, root])
        self._stack.append(idx)
        self.count(name + ".calls")
        try:
            yield idx
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _root(self):
        return self._stack[0] if self._stack else None

    def _inside(self, names):
        return any(self.spans[i][0] in names for i in self._stack)

    def count(self, name, value=1.0):
        root = self._root()
        if root is not None:
            self.counts[root][name] += value

    def maximum(self, name, value):
        root = self._root()
        if root is not None:
            self.counts[root][name] = max(self.counts[root][name], value)

    # -- installation -------------------------------------------------------

    def install(self):
        self.absent = []
        self._solver_error = getattr(importlib.import_module("exhom.grid"), "SolverError", ())
        for name, module, attr in TARGETS:
            owner, leaf = _resolve(module, attr)
            if owner is None or not hasattr(owner, leaf):
                self.absent.append(f"{module}:{attr}")
                continue
            original = getattr(owner, leaf)
            wrapper = self._wrap(name, original)
            if owner is sys.modules[module]:
                self._rebind_everywhere(original, wrapper)
            else:
                self._patch(owner, leaf, wrapper)
        import scipy.sparse.linalg as spla

        for leaf in KRYLOV:
            self._patch(spla, leaf, self._wrap_krylov(getattr(spla, leaf)))
        return self

    def uninstall(self):
        for owner, leaf, original in reversed(self._patches):
            setattr(owner, leaf, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, leaf, value):
        self._patches.append((owner, leaf, getattr(owner, leaf)))
        setattr(owner, leaf, value)

    def _rebind_everywhere(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "exhom" or modname.startswith("exhom.")):
                continue
            for leaf, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, leaf, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn):
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as idx:
                try:
                    result = fn(*args, **kwargs)
                except self._solver_error:
                    self.count(name + ".failed")
                    raise
                if hook is not None:
                    hook(idx, args, kwargs, result)
            return result

        return wrapper

    def _after_coeffs_eval(self, idx, args, kwargs, result):
        self.count("coeffs.eval.points", _npoints(args[1] if len(args) > 1 else kwargs["points"]))

    def _after_averaging_weights(self, idx, args, kwargs, result):
        self.count("averaging.weights.points", _npoints(args[1] if len(args) > 1 else kwargs["points"]))

    def _after_grid_assemble(self, idx, args, kwargs, result):
        dofs = result.matrix.shape[0]
        self.count("grid.assemble.dofs", dofs)
        if self._inside(PATCH_SPANS):
            self.count("hmm.patch.dofs", dofs)
        field = args[1] if len(args) > 1 else kwargs["field"]
        self.keys[self._root()].add((result.grid, field.name, result.bc))

    def _after_grid_solve(self, idx, args, kwargs, result):
        system = args[0] if args else kwargs["system"]
        # the true residual check is tracer work, not solver work: give it
        # its own span so grid.solve's self time excludes it
        with self.span("trace.check"):
            b = system.rhs
            bnorm = float(np.linalg.norm(b))
            res = 0.0 if bnorm == 0.0 else float(np.linalg.norm(b - system.matrix @ result.values)) / bnorm
        self.maximum("grid.solve.residual_max", res)
        self.count("grid.krylov.restarts", max(0, self._krylov_calls.pop(idx, 0) - 1))

    def _wrap_krylov(self, fn):
        @functools.wraps(fn)
        def wrapper(A, b, *args, callback=None, **kwargs):
            enclosing = self.spans[self._stack[-1]][0] if self._stack else ""
            layer = enclosing.split(".")[0] if enclosing else "untraced"
            if enclosing == "grid.solve":
                self._krylov_calls[self._stack[-1]] += 1
            iters = [0]

            def counting(xk, *rest):
                iters[0] += 1
                if callback is not None:
                    callback(xk, *rest)

            if enclosing == "lattice.corrector":
                # the lattice keeps assembly and its Krylov loop in one
                # function; a child span separates the two
                with self.span("lattice.krylov"):
                    out = fn(A, b, *args, callback=counting, **kwargs)
            else:
                out = fn(A, b, *args, callback=counting, **kwargs)
            self.count(layer + ".krylov.iters", iters[0])
            return out

        return wrapper

    # -- reduction ----------------------------------------------------------

    def root_totals(self, root):
        """Self times, counts and unattributed time of one root span."""
        child_time = defaultdict(float)
        for name, start, end, parent, r in self.spans:
            if r == root and parent is not None:
                child_time[parent] += end - start
        out = defaultdict(float)
        for idx, (name, start, end, parent, r) in enumerate(self.spans):
            if r != root:
                continue
            self_s = end - start - child_time[idx]
            if idx == root:
                out["trace.unattributed_s"] += self_s
                out["trace.root_s"] += end - start
            else:
                out[name + ".self_s"] += self_s
        for name, value in self.counts[root].items():
            if not name.startswith("root."):
                out[name] = value
        out["trace.check_s"] = out.pop("trace.check.self_s", 0.0)
        out.pop("trace.check.calls", None)
        return out

    def layer_metrics(self, setup_root, rep_roots):
        """Set-up share plus the mean over repetitions, for every traced name.

        Additive metrics stay additive, so the identity sum(self_s) +
        trace.unattributed_s + trace.check_s == trace.root_s holds for the
        reported values too.  `residual_max` is the maximum over all roots
        and `distinct_ratio` pools the repetitions.
        """
        totals = defaultdict(float, self.root_totals(setup_root))
        reps = [self.root_totals(r) for r in rep_roots]
        residual = max([totals["grid.solve.residual_max"]] + [r["grid.solve.residual_max"] for r in reps])
        summed = defaultdict(float)
        for r in reps:
            for name, value in r.items():
                summed[name] += value
        for name, value in summed.items():
            totals[name] += value / len(reps)
        totals["grid.solve.residual_max"] = residual
        calls = sum(r["grid.assemble.calls"] for r in reps)
        distinct = sum(len(self.keys[r]) for r in rep_roots)
        totals["grid.assemble.distinct_ratio"] = distinct / calls if calls else 0.0
        return dict(totals)


def _resolve(module, attr):
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None, None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    return owner, leaf


def _npoints(points):
    shape = np.shape(points)
    return math.prod(shape[:-1]) if len(shape) > 1 else 1
