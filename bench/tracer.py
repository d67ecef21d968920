"""Outside-in span tracer for the public functions of gammaproc.

``Tracer.install`` replaces every binding of a traced function - the
attribute of its defining module and every ``from ... import`` copy in
another gammaproc module - with a wrapper, matching bindings by object
identity.  The wrapper times the call and keeps
a per-thread stack of open spans, so a span's self time is its duration
minus the durations of the traced calls made directly inside it.  Spans are
folded into per-function totals in memory; nothing is written during the
run.  ``Tracer.restore`` puts every original object back.

A function that is missing from its module (removed or renamed by a later
commit) is recorded as absent and never wrapped.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass

# The functions the traced run wraps, as "<module>.<function>" relative to
# the gammaproc package.
TRACED = (
    "core.derive_stream",
    "samplers.gamma_draw",
    "samplers.poisson_draw",
    "samplers.cir_transition_draw",
    "processes.simulate_ensemble",
    "processes.marginal_sample",
    "processes.ar1_path",
    "processes.thinned_path",
    "processes.random_measure_path",
    "processes.changepoint_path",
    "processes.cir_path",
    "processes.cthin_path",
    "stats.empirical_chf",
    "stats.chf_gof",
    "stats.triplet_discrimination",
    "stats.ks_statistic",
    "stats.empirical_acf",
    "stats.generator_check",
    "stats.tail_check",
    "analytic.pair_chf",
    "analytic.generator_apply",
    "analytic.levy_tail",
    "cli.cmd_simulate",
    "cli.cmd_verify",
    "cli.cmd_compare",
)


def _ensemble_values(args, kwargs, result):
    return int(result.values.size)


def _chf_evals(args, kwargs, result):
    return int(result.n) * int(result.estimate.size)


# Work counters read from a traced call's result: name -> (counter, fn).
COUNTERS = {
    "processes.simulate_ensemble": ("values", _ensemble_values),
    "stats.empirical_chf": ("evals", _chf_evals),
}


@dataclass
class SpanTotals:
    """Per-function fold of every span recorded for that function."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: int = 0


class _Frame:
    __slots__ = ("child_s",)

    def __init__(self):
        self.child_s = 0.0


class Tracer:
    """Wraps traced functions and accumulates their span totals.

    ``clock`` is the time source (``time.perf_counter`` by default); tests
    pass a fake clock to check the self-time arithmetic exactly.
    """

    def __init__(self, names=TRACED, clock=time.perf_counter):
        self.names = tuple(names)
        self.clock = clock
        self.totals = {name: SpanTotals() for name in self.names}
        self.absent = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []  # (module, attribute, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        """Return a wrapper of ``fn`` that records one span per call."""
        totals = self.totals.setdefault(name, SpanTotals())
        counter = COUNTERS.get(name)
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            frame = _Frame()
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1].child_s += dur
                with self._lock:
                    totals.calls += 1
                    totals.total_s += dur
                    totals.self_s += dur - frame.child_s
            if counter is not None:
                counter_name, count = counter
                try:
                    work = count(args, kwargs, result)
                except (AttributeError, TypeError, ValueError):
                    # The result no longer carries the counted field.
                    work = None
                with self._lock:
                    if work is None:
                        if f"{name}.{counter_name}" not in self.absent:
                            self.absent.append(f"{name}.{counter_name}")
                    else:
                        totals.work += work
            return result

        return traced

    def install(self, package="gammaproc"):
        """Patch every binding of each traced function inside ``package``."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == package or key.startswith(package + "."))
        ]
        for name in self.names:
            mod_name, _, attr = name.rpartition(".")
            home = sys.modules.get(f"{package}.{mod_name}")
            original = getattr(home, attr, None) if home is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        return self

    def restore(self):
        """Put back every original object that ``install`` replaced."""
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def snapshot(self):
        """Plain-dict form of the totals, for writing out at the end of a run."""
        return {
            "absent": list(self.absent),
            "functions": {
                name: {"calls": t.calls, "total_s": t.total_s, "self_s": t.self_s,
                       "work": t.work}
                for name, t in self.totals.items()
            },
        }
