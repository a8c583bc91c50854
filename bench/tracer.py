"""Boundary tracing for the benchmark's traced runs.

The tracer wraps the public functions of the six excol modules from outside
the package.  A function is wrapped in every excol namespace that binds it,
because ``from .roots import subsystem`` gives ``bwb`` its own reference
that a patch of ``roots`` alone would miss.

Each wrapper records calls, calls that raised, and self time: the span's
CPU time on its own thread minus the CPU time of the wrapped spans it
called.  CPU time rather than wall time is used because ``verify`` fans its
pair checks out to a thread pool: with the interpreter lock only one thread
runs at a time, so wall-clock spans on two threads would each count the
other's work, and the submitting thread would count its wait.

Private helpers are not wrapped, so their time is self time of the nearest
public caller; ``ATTRIBUTION`` lists the ones that matter.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

MODULES = ("roots", "characters", "bwb", "homcalc", "collections", "cli")

# Hot leaves, called millions of times; wrapping them would multiply the
# run time and bury everything else in tracer overhead.  Weight arithmetic
# consists of methods and is never wrapped.
UNWRAPPED = frozenset({"roots.coroot_pairing", "roots.reflect"})

# Where the time of unwrapped code shows up.
ATTRIBUTION = {
    "characters._freudenthal": "characters.irrep_character",
    "characters._dominated": "characters.tensor_decompose",
    "homcalc._inverse_exact": "homcalc.serre_operator",
    "homcalc._matmul": "homcalc.serre_operator",
    "homcalc._vec_chi": "homcalc.thread_check",
    "homcalc._det_exact": "collections.verify (also homcalc.serre_operator)",
    "homcalc._chi_k": "homcalc.euler_pairing",
    "roots._subsystem_cached": "roots.subsystem",
    "bwb._hom_pieces": "bwb.graded_hom_detail",
    "cli._make_parser (argparse)": "cli.main",
    "cli._parse_bundle_arg": "cli.main",
    "roots.coroot_pairing, roots.reflect, Weight arithmetic": "their caller",
}

# Functions that also count "hits", reported as a share of their calls:
# repeat_frac counts calls whose arguments the worker had already seen
# (which a memo could serve); the others count calls with an outcome.
HIT_METRICS = {
    "characters.irrep_character": "repeat_frac",
    "homcalc.chi_line": "repeat_frac",
    "bwb.graded_hom": "zero_frac",
    "roots.make_dominant_dot": "singular_frac",
}
OUTCOMES = {
    "bwb.graded_hom": lambda result: not result,
    "roots.make_dominant_dot": lambda result: result is None,
}


def _arg_key(args: tuple, kwargs: dict) -> tuple:
    # Root systems are frozen dataclasses whose hash walks every root; name
    # them by (family, rank) instead.  Lists are not hashable.
    parts = []
    for a in list(args) + sorted(kwargs.items()):
        if hasattr(a, "family") and hasattr(a, "rank"):
            a = (a.family, a.rank)
        elif isinstance(a, list):
            a = tuple(a)
        parts.append(a)
    return tuple(parts)


class _ThreadState:
    __slots__ = ("stack", "calls", "self_s", "raised", "hits")

    def __init__(self, n: int) -> None:
        self.stack: list[float] = []
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.raised = [0] * n
        self.hits = [0] * n  # repeats or outcome matches


class Tracer:
    """Wraps excol's public functions and aggregates per-function spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._seen: list[set] = []
        self._seen_lock = threading.Lock()

    def install(self) -> None:
        import excol

        modules = {m: sys.modules[f"excol.{m}"] for m in MODULES}
        originals: dict[int, str] = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                ):
                    continue
                name = f"{short}.{attr}"
                if name not in UNWRAPPED:
                    originals[id(obj)] = name
        wrappers: dict[int, object] = {}

        def wrapped(obj):
            if id(obj) not in originals:
                return obj
            if id(obj) not in wrappers:
                wrappers[id(obj)] = self._wrap(originals[id(obj)], obj)
            return wrappers[id(obj)]

        for ns in [excol, *modules.values()]:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in originals:
                    setattr(ns, attr, wrapped(obj))
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    # Dispatch tables such as cli._BUILDERS, whose values
                    # are (function, flag) tuples, bind functions too.
                    for key, value in obj.items():
                        if isinstance(value, tuple):
                            new = tuple(wrapped(v) for v in value)
                        else:
                            new = wrapped(value)
                        if new != value:
                            obj[key] = new

    def _state(self) -> _ThreadState:
        st = _ThreadState(len(self.names))
        self._states.append(st)
        self._local.state = st
        return st

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        self._seen.append(set())
        clock = time.thread_time
        local = self._local
        new_state = self._state
        seen = self._seen[index]
        lock = self._seen_lock
        track = HIT_METRICS.get(name) == "repeat_frac"
        outcome = OUTCOMES.get(name)

        def traced(*args, **kwargs):
            try:
                st = local.state
            except AttributeError:
                st = new_state()
            if track:
                key = _arg_key(args, kwargs)
                with lock:
                    if key in seen:
                        st.hits[index] += 1
                    else:
                        seen.add(key)
            stack = st.stack
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                st.raised[index] += 1
                raise
            finally:
                dt = clock() - t0
                st.self_s[index] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                st.calls[index] += 1
            if outcome is not None and outcome(result):
                st.hits[index] += 1
            return result

        return functools.update_wrapper(traced, fn)

    def snapshot(self) -> dict[str, list]:
        """Per function: [calls, self CPU seconds, raised, hits], all threads."""
        out = {}
        for i, name in enumerate(self.names):
            out[name] = [
                sum(st.calls[i] for st in self._states),
                sum(st.self_s[i] for st in self._states),
                sum(st.raised[i] for st in self._states),
                sum(st.hits[i] for st in self._states),
            ]
        return out
