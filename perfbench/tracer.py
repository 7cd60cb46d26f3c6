"""Outside-in span tracing of the km2d layers, and the per-layer metrics.

The tracer replaces each boundary function of a layer with a wrapper that
records a span ``[name, start, end, parent, size]``.  ``size`` is a count
taken from the result (states out, operator terms, table entries).  Spans
stay in memory and are written once, when the traced repetition ends.

A function is replaced under every name a km2d module knows it by:
``verifier`` imports ``torus_T`` with ``from .currents import ...`` and
``fock`` imports ``scalar_mul`` the same way, so wrapping only the
defining module would miss those callers.

``scalar_mul`` runs about a million times per torus certification, so it
is counted and not timed; its time stays in the caller's span.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "verifier", "currents", "fock", "scalars", "harmonics",
          "regulator", "lie_core")


def _n_terms(op):
    return len(op.terms)


def _n_entries(table):
    return len(table.entries)


# (span name, module, attribute path, size of the result)
BOUNDARIES = (
    ("cli.main", "km2d.cli", "main", None),
    ("cli.write", "km2d.cli", "_write_report", None),
    ("cli.write", "km2d.harmonics", "StructureTable.to_csv", None),
    ("verifier.check", "km2d.verifier", "check_torus_algebra", None),
    ("verifier.check", "km2d.verifier", "check_sphere_realization", None),
    ("verifier.bracket", "km2d.verifier", "_bracket_job", None),
    ("verifier.rhs", "km2d.verifier", "_assemble_rhs", None),
    ("verifier.central", "km2d.verifier", "measure_central", None),
    ("verifier.probes", "km2d.verifier", "probe_states", len),
    ("verifier.op", "km2d.verifier", "TorusAlgebra.op", None),
    ("verifier.op", "km2d.verifier", "SphereAlgebra.op", None),
    ("currents.build", "km2d.currents", "torus_T", _n_terms),
    ("currents.build", "km2d.currents", "torus_L", _n_terms),
    ("currents.build", "km2d.currents", "sphere_T", _n_terms),
    ("currents.build", "km2d.currents", "sphere_L", _n_terms),
    ("fock.apply", "km2d.fock", "ModeOperator.apply_state", len),
    ("fock.commutator", "km2d.fock", "ModeOperator.commutator", _n_terms),
    ("fock.group", "km2d.fock", "ModeOperator._build_groups", None),
    ("fock.combine", "km2d.fock", "ModeOperator.__add__", None),
    ("fock.combine", "km2d.fock", "ModeOperator.__sub__", None),
    ("fock.combine", "km2d.fock", "ModeOperator.scaled", None),
    ("fock.enumerate", "km2d.fock", "enumerate_states", len),
    ("scalars.exact_mul", "km2d.scalars", "SqrtTwoScalar.__mul__", None),
    ("scalars.exact_mul", "km2d.scalars", "SqrtTwoScalar.__rmul__", None),
    ("harmonics.table", "km2d.harmonics", "structure_table", _n_entries),
    ("harmonics.legendre", "km2d.harmonics", "legendre_Q", None),
    ("harmonics.quadrature", "km2d.harmonics", "quadrature", None),
    ("regulator.delta_reg", "km2d.regulator", "delta_reg_zero", None),
    ("lie_core.get_rep", "km2d.lie_core", "get_rep", None),
    ("lie_core.validate", "km2d.lie_core", "validate_rep", None),
)
COUNTED = (("scalars.scalar_mul", "km2d.scalars", "scalar_mul"),)


class Tracer:
    """Span recorder; install() wraps the km2d boundaries in place."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()

    def timed(self, name, fn, size=None):
        spans, stack, clock = self.spans, self.stack, time.monotonic

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if size is not None:
                rec[4] = size(out)
            return out
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _richardson(self, fn):
        # each extrapolation level evaluates a verifier closure; give it its
        # own span so that its time is not charged to the regulator
        timed = self.timed

        @functools.wraps(fn)
        def wrapper(value, *args, **kwargs):
            return fn(timed("verifier.eps_level", value), *args, **kwargs)
        return timed("regulator.richardson", wrapper)

    def install(self):
        for name, module, path, size in BOUNDARIES:
            _replace(module, path, lambda f, n=name, s=size: self.timed(n, f, s))
        for name, module, path in COUNTED:
            _replace(module, path, lambda f, n=name: self.counted(n, f))
        _replace("km2d.regulator", "richardson_finite_part", self._richardson)

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {"names": names, "counts": dict(self.counts),
               "spans": [[index[n], t0, t1, p, k]
                         for n, t0, t1, p, k in self.spans]}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _replace(module_name, path, make_wrapper):
    """Wrap module.path and rebind it under every km2d name that holds it."""
    module = importlib.import_module(module_name)
    owner_path, _, attr = path.rpartition(".")
    owner = module
    for part in filter(None, owner_path.split(".")):
        owner = getattr(owner, part)
    orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    wrapped = make_wrapper(orig)
    setattr(owner, attr, wrapped)
    if isinstance(owner, type):
        return
    for name, mod in list(sys.modules.items()):
        if name == "km2d" or name.startswith("km2d."):
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)


# ---------------------------------------------------------------------------
# Analysis of a dumped trace
# ---------------------------------------------------------------------------

def layer_metrics(doc: dict, wall_s: float) -> dict:
    """Per-layer metrics of one traced repetition.

    ``wall_s`` is the repetition's wall time from child start.  Self time is
    a span's duration minus its children's, so the layers' self times plus
    ``trace.unattributed_s`` add up to ``wall_s``.
    """
    names = doc["names"]
    spans = [(names[n], t0, t1, p, k) for n, t0, t1, p, k in doc["spans"]]
    child_s = [0.0] * len(spans)
    n_children = [0] * len(spans)
    for name, t0, t1, p, _ in spans:
        if p >= 0:
            child_s[p] += t1 - t0
            n_children[p] += 1

    self_s, incl_s = defaultdict(float), defaultdict(float)
    calls, size = Counter(), Counter()
    nonempty, leaf = Counter(), Counter()
    top_s = 0.0
    for i, (name, t0, t1, p, k) in enumerate(spans):
        dur = t1 - t0
        self_s[name.split(".")[0]] += dur - child_s[i]
        if p < 0:
            top_s += dur
        calls[name] += 1
        size[name] += k
        nonempty[name] += k > 0
        leaf[name] += n_children[i] == 0
        # inclusive time counts only the outermost span of a name
        q = p
        while q >= 0 and spans[q][0] != name:
            q = spans[q][3]
        if q < 0:
            incl_s[name] += dur

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "fock.apply_s": incl_s["fock.apply"],
        "fock.apply_calls": calls["fock.apply"],
        "fock.apply_states_out": size["fock.apply"],
        "fock.apply_nonempty_ratio": ratio(nonempty["fock.apply"],
                                           calls["fock.apply"]),
        "fock.commutator_s": incl_s["fock.commutator"],
        "fock.commutator_calls": calls["fock.commutator"],
        "fock.commutator_terms_out": size["fock.commutator"],
        "fock.group_s": incl_s["fock.group"],
        "fock.enumerate_s": incl_s["fock.enumerate"],
        "currents.build_s": incl_s["currents.build"],
        "currents.build_calls": calls["currents.build"],
        "currents.terms": size["currents.build"],
        "scalars.exact_mul_calls": calls["scalars.exact_mul"],
        "scalars.exact_mul_s": incl_s["scalars.exact_mul"],
        "scalars.scalar_mul_calls": doc["counts"].get("scalars.scalar_mul", 0),
        "verifier.brackets": calls["verifier.bracket"],
        "verifier.probes": size["verifier.probes"],
        "verifier.rhs_s": incl_s["verifier.rhs"],
        "verifier.central_s": incl_s["verifier.central"],
        "verifier.central_calls": calls["verifier.central"],
        # an op() call that builds nothing was served from the adapter cache
        "verifier.op_cache_hit_ratio": ratio(leaf["verifier.op"],
                                             calls["verifier.op"]),
        "regulator.richardson_s": incl_s["regulator.richardson"],
        "regulator.richardson_evals": calls["verifier.eps_level"],
        "harmonics.table_s": incl_s["harmonics.table"],
        "harmonics.table_entries": size["harmonics.table"],
        "harmonics.legendre_calls": calls["harmonics.legendre"],
        "cli.write_s": incl_s["cli.write"],
        "lie_core.get_rep_s": incl_s["lie_core.get_rep"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    m["trace.wall_s"] = wall_s
    m["trace.unattributed_s"] = wall_s - top_s
    return m
