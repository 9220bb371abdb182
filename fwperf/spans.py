"""Spans around the program's public functions, recorded from outside it.

Each traced name is wrapped in every namespace where a caller looks it up:
``from .phase_ops import snapshot`` in ``algebra`` binds its own name, so
``fwbench.algebra.snapshot`` is wrapped next to ``fwbench.phase_ops.snapshot``.
A wrapper calls the original function, never another wrapper, so one call
records one span.  A name that no longer exists is skipped and its metrics
are reported as absent.

A span is ``[name, start, end, parent, unit, info]``: ``parent`` is the
index of the enclosing span (-1 for none), ``unit`` the id of the unit being
run and ``info`` an optional detail such as the matrix dimension.  Spans
stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

UNIT = "bench.unit"


def _eigh_info(kind):
    def info(args, kwargs):
        a = args[0] if args else kwargs["a"]
        return [kind, int(a.shape[-1]), a.dtype.kind == "c"]
    return info


def _suite_info(args, kwargs):
    return [args[0], args[2] if len(args) > 2 else kwargs["n_samples"]]


def _classical_info(args, kwargs):
    return ["classical", args[0] if args else kwargs["n_samples"]]


def _steps_info(args, kwargs):
    return len(args[2] if len(args) > 2 else kwargs["times"])


# (span name, [module:attribute bindings], info function)
TARGETS = [
    ("phase_ops.snapshot", ["fwbench.phase_ops:snapshot", "fwbench.algebra:snapshot"], None),
    ("phase_ops.commutator_snapshot", ["fwbench.phase_ops:commutator_snapshot",
                                       "fwbench.algebra:commutator_snapshot"], None),
    ("phase_ops.coeff_derivative", ["fwbench.phase_ops:coeff_derivative"], None),
    ("phase_ops.build_operator", ["fwbench.phase_ops:build_operator",
                                  "fwbench.algebra:build_operator"], None),
    ("algebra.run_quantum_suite", ["fwbench.algebra:run_quantum_suite"], _suite_info),
    ("algebra.run_classical_suite", ["fwbench.algebra:run_classical_suite"], _classical_info),
    ("eriksen.discretize_dirac_1d", ["fwbench.eriksen:discretize_dirac_1d"], None),
    ("eriksen.eriksen_unitary", ["fwbench.eriksen:eriksen_unitary"], None),
    ("eriksen.eriksen_conditions", ["fwbench.eriksen:eriksen_conditions"], None),
    ("eriksen.sign_function", ["fwbench.eriksen:sign_function"], None),
    ("eriksen.approx_fw", ["fwbench.eriksen:approx_fw"], None),
    ("eriksen.potential_scaling_study", ["fwbench.eriksen:potential_scaling_study"], None),
    ("linalg.mat_inv_sqrt_psd", ["fwbench.linalg:mat_inv_sqrt_psd",
                                 "fwbench.eriksen:mat_inv_sqrt_psd"], None),
    ("linalg.eigh", ["numpy.linalg:eigh"], _eigh_info("eigh")),
    ("linalg.eigh", ["numpy.linalg:eigvalsh"], _eigh_info("eigvalsh")),
    ("zitter.record_evolution", ["fwbench.zitter:record_evolution"], _steps_info),
    ("zitter.dominant_frequency", ["fwbench.zitter:dominant_frequency"], None),
    ("wavepacket.make_gaussian_packet", ["fwbench.wavepacket:make_gaussian_packet"], None),
    ("wavepacket.to_picture", ["fwbench.wavepacket:to_picture"], None),
    ("wavepacket.density", ["fwbench.wavepacket:density"], None),
    ("wavepacket.expectation", ["fwbench.wavepacket:expectation"], None),
    ("spin_dynamics.propagate_quantum", ["fwbench.spin_dynamics:propagate_quantum"], None),
    ("spin_dynamics.propagate_classical", ["fwbench.spin_dynamics:propagate_classical"], None),
    ("cli.main", ["fwbench.cli:main"], None),
    ("cli.verify-algebra", ["fwbench.cli:cmd_verify_algebra"], None),
    ("cli.eriksen", ["fwbench.cli:cmd_eriksen"], None),
    ("cli.precess", ["fwbench.cli:cmd_precess"], None),
    ("cli.zitter", ["fwbench.cli:cmd_zitter"], None),
    ("cli.packet", ["fwbench.cli:cmd_packet"], None),
    ("cli.pce", ["fwbench.cli:cmd_pce"], None),
]


class Tracer:
    """In-memory span recorder; install() wraps the TARGETS while active."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.unit = None
        self.present = set()

    def wrap(self, name, fn, info=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.unit,
                   info(args, kwargs) if info else None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
        return traced

    def unit_span(self, unit_id, fn, *args):
        """Run fn(*args) as the root span of one unit."""
        self.unit = unit_id
        try:
            return self.wrap(UNIT, fn)(*args)
        finally:
            self.unit = None

    def install(self):
        """Wrap every present binding; returns a function that undoes it."""
        undo = []
        for name, bindings, info in TARGETS:
            for binding in bindings:
                mod_name, attr = binding.split(":")
                try:
                    mod = importlib.import_module(mod_name)
                except ImportError:
                    continue
                fn = getattr(mod, attr, None)
                if not callable(fn):
                    continue
                setattr(mod, attr, self.wrap(name, fn, info))
                undo.append((mod, attr, fn))
                self.present.add(name)

        def uninstall():
            for mod, attr, fn in reversed(undo):
                setattr(mod, attr, fn)
        return uninstall

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def self_times(spans) -> list:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children[i], key=lambda k: spans[k][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def outermost(spans) -> list:
    """True for spans with no ancestor of the same name (busy time counts once)."""
    flags = []
    for s in spans:
        p = s[3]
        while p >= 0 and spans[p][0] != s[0]:
            p = spans[p][3]
        flags.append(p < 0)
    return flags


def closure_error(spans) -> float:
    """Largest |sum of self times inside a unit - the unit's wall time|."""
    selfs = self_times(spans)
    per_unit = defaultdict(float)
    wall = {}
    for s, st in zip(spans, selfs):
        per_unit[s[4]] += st
        if s[0] == UNIT:
            wall[s[4]] = s[2] - s[1]
    return max((abs(per_unit[u] - w) for u, w in wall.items()), default=0.0)


def aggregate(spans) -> dict:
    """Per span name: calls, inclusive busy seconds, self seconds."""
    selfs = self_times(spans)
    top = outermost(spans)
    agg = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for s, st, is_top in zip(spans, selfs, top):
        a = agg[s[0]]
        a["calls"] += 1
        a["self_s"] += st
        if is_top:
            a["busy_s"] += s[2] - s[1]
    return dict(agg)
