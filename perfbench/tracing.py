"""Spans around calls into the package, recorded from outside it.

`Tracer.install` wraps each traced public function by rebinding the name in
every loaded ``impulse_gcac`` module whose globals hold that function
object.  Rebinding only the defining module would miss internal callers,
which import the names with ``from .linalg import mat_exp``.

A span is (name, start, end, parent).  Self time is a span's duration minus
the time covered by its child spans.  Aggregates (calls, self time) are
kept per name; the spans themselves are kept in memory only while
`recording` is on and are written out by `write_spans` when the run ends.
"""

import functools
import gzip
import json
import sys
import time

import numpy as np

# (module, public name) for every traced function, by layer
TRACED = (
    ("linalg", "mat_exp"),
    ("linalg", "numerical_rank"),
    ("linalg", "min_norm_solve"),
    ("spectral", "overlap_matrix"),
    ("spectral", "apply_semigroup"),
    ("spectral", "apply_adjoint_semigroup"),
    ("spectral", "apply_impulse"),
    ("schedule", "time_at"),
    ("observability", "rank_condition"),
    ("observability", "finite_obs_constant"),
    ("observability", "delta_obs_constant"),
    ("observability", "hypothesis_verdict"),
    ("observability", "semigroup_norm"),
    ("synthesis", "simulate"),
    ("synthesis", "steer_first_mode"),
    ("synthesis", "decay_horizon"),
    ("synthesis", "null_steer"),
    ("synthesis", "gcac_synthesize"),
    ("synthesis", "constrained_null_synthesize"),
    ("synthesis", "local_gcac_synthesize"),
    ("witness", "reachability_gap"),
    ("witness", "negative_bound"),
    ("cli", "load_scenario"),
    ("cli", "run"),
)

PACKAGE = "impulse_gcac"


class Tracer:
    """Span recorder with per-name aggregates.

    `clock` is injectable so the self-time arithmetic can be tested with
    a deterministic clock.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.recording = False
        self.absent = []
        self.calls = {}
        self.self_s = {}
        self.spans = []  # [name, start, end, parent index]
        self._stack = []  # [span index or -1, start, child time]
        self._mat_exp_keys = set()
        self.mat_exp_distinct = 0
        self.local_details = {"pgd_iters": 0, "horizons_tried": 0}
        self._installed = []

    def reset(self):
        """Clear aggregates and spans (the wrappers stay installed)."""
        self.calls = {}
        self.self_s = {}
        self.spans = []
        self._mat_exp_keys = set()
        self.mat_exp_distinct = 0
        self.local_details = {"pgd_iters": 0, "horizons_tried": 0}

    # -- span bookkeeping -------------------------------------------------

    def enter(self, name):
        now = self.clock()
        index = -1
        if self.recording:
            parent = self._stack[-1][0] if self._stack else -1
            index = len(self.spans)
            self.spans.append([name, now, None, parent])
        self._stack.append([index, now, 0.0])

    def exit(self, name):
        now = self.clock()
        index, start, child = self._stack.pop()
        duration = now - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + (duration - child)
        if index >= 0:
            self.spans[index][2] = now
        if self._stack:
            self._stack[-1][2] += duration

    def note_mat_exp(self, M, t):
        key = (_as_bytes(M), float(t))
        if key not in self._mat_exp_keys:
            self._mat_exp_keys.add(key)
            self.mat_exp_distinct += 1

    def note_local(self, result):
        details = result.details or {}
        tried = len(details.get("residual_by_horizon", {}))
        self.local_details["horizons_tried"] += tried
        self.local_details["pgd_iters"] += int(details.get("iterations", 0)) * tried

    # -- installation -----------------------------------------------------

    def wrap(self, name, fn):
        tracer = self

        if name == "linalg.mat_exp":

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                tracer.note_mat_exp(args[0] if args else kwargs["M"],
                                    args[1] if len(args) > 1 else kwargs.get("t", 1.0))
                tracer.enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.exit(name)

        elif name == "synthesis.local_gcac_synthesize":

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                tracer.enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.exit(name)
                tracer.note_local(result)
                return result

        else:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                tracer.enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.exit(name)

        return traced

    def install(self):
        """Wrap every traced function present in the loaded package.

        A public name that the package no longer defines is listed in
        `absent` and reported as such, never as zero.
        """
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for module_name, attr in TRACED:
            name = f"{module_name}.{attr}"
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            fn = getattr(home, attr, None) if home is not None else None
            if not callable(fn):
                self.absent.append(name)
                continue
            traced = self.wrap(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, traced)
                        self._installed.append((mod, key, fn))

    def uninstall(self):
        for mod, key, fn in reversed(self._installed):
            setattr(mod, key, fn)
        self._installed = []

    def write_spans(self, path):
        """Write the recorded spans as gzipped JSON lines: name, start, end, parent."""
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def _as_bytes(M):
    return np.ascontiguousarray(np.asarray(M, dtype=float)).tobytes()


def self_times(spans):
    """Self time per span from a list of (name, start, end, parent) spans.

    Used by the self-tests to check the online aggregates against the
    definition.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _), c in zip(spans, child)]
