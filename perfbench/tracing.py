"""Span tracer for the traced benchmark run.

The tracer wraps the public functions named in FUNCTIONS and every entry of
``entsum.fuzz.CHECKS``.  A module-level function is rebound at every import
site: each ``entsum`` module attribute that holds the original object is
replaced, so ``from .dists import convolve`` in another module is traced too.
Methods are replaced on their class.

Self time of a span is its duration minus the durations of its direct child
spans, accumulated while the spans close.  Spans are also kept in a bounded
in-memory log (name, parent span, operation id, start, end) that is written
once, after the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from importlib import import_module

# (module under entsum, qualified name) of every function the trace reports
FUNCTIONS = (
    ("groups", "GroupSpec.add"),
    ("groups", "GroupSpec.reduce"),
    ("dists", "Dist.__init__"),
    ("dists", "JointDist.__init__"),
    ("dists", "convolve"),
    ("dists", "entropy"),
    ("dists", "conditional_entropy"),
    ("dists", "JointDist.sum_dist"),
    ("metrics", "check_ese_suite"),
    ("metrics", "ruzsa_distance"),
    ("metrics", "sumset_increase_report"),
    ("metrics", "three_sum_bound"),
    ("metrics", "check_lipschitz"),
    ("transport", "transport_exact"),
    ("transport", "uniformise_group"),
    ("transport", "uniformise_coset_progression"),
    ("transport", "TransportCertificate.validate"),
    ("progressions", "box_embedding"),
    ("progressions", "uniform_on"),
    ("bsg", "BsgInstance.from_joint"),
    ("bsg", "verify_bsg"),
    ("torsionfree", "abbn_check"),
    ("fuzz", "fuzz_run"),
    ("cli", "main"),
    ("fileio", "load_dist"),
    ("fileio", "load_joint"),
    ("inverse", "detect_coset_uniform"),
)

# the default fuzz checks; the traced run refuses a registry that differs
CHECK_NAMES = (
    "eident", "ento", "triv", "ese", "submodularity", "xysim",
    "jensen", "bsg", "mmt", "lipschitz", "abbn",
)

LOG_CAP = 100_000


class Tracer:
    """Per-name call counts, inclusive and self time, work counts, span log."""

    def __init__(self, log_cap: int = LOG_CAP):
        self.enabled = False
        self.op = -1  # id of the operation the current spans belong to
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_s: list[float] = []
        self.counts = {"transport.transport_exact.nvars": 0,
                       "transport.certificate.atoms": 0,
                       "fuzz.skipped": 0}
        self.stack: list[list] = []  # open spans: [child seconds, span id]
        self.log: list = []
        self.log_cap = log_cap
        self.dropped = 0

    def _slot(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.total.append(0.0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def wrap(self, name: str, fn, after=None, on_error=None):
        """Return a traced stand-in for fn.

        `after(args, out)` and `on_error(exc)` update work counts; they run
        after the span closes, with tracing suspended.
        """
        k = self._slot(name)
        calls, total, self_s = self.calls, self.total, self.self_s
        stack, log, perf = self.stack, self.log, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1][1] if stack else -1
            sid = len(log)
            if sid < tracer.log_cap:
                log.append(None)
            else:
                sid = -1
                tracer.dropped += 1
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                calls[k] += 1
                total[k] += dur
                self_s[k] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if sid >= 0:
                    log[sid] = (k, parent, tracer.op, t0, t1)
            if after is not None:
                tracer.enabled = False
                try:
                    after(args, out)
                finally:
                    tracer.enabled = True
            return out

        return traced

    def stats(self) -> dict:
        """name -> {calls, total_s, self_s}."""
        return {name: {"calls": self.calls[k], "total_s": self.total[k], "self_s": self.self_s[k]}
                for k, name in enumerate(self.names)}

    def dump(self, path) -> None:
        """Write the stats and the span log; called once, after tracing.

        A span is [name index, parent span index or -1, operation id,
        start, end], with times from time.perf_counter.
        """
        payload = {
            "names": self.names,
            "stats": self.stats(),
            "counts": self.counts,
            "spans": self.log,
            "dropped_spans": self.dropped,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def _count_nvars(p, q) -> int:
    """Coupling variables of a transport_exact(p, q) call, as the oracle counts them."""
    g = p.group
    zset = {g.sub(y, x) for y in q.support() for x in p.support()}
    return len(p.support()) * len(zset)


class Bindings:
    """Traced stand-ins and the originals they replace, switchable per call."""

    def __init__(self):
        self.swaps: list[tuple] = []  # (namespace, key, original, traced)

    def add(self, namespace, key, original, traced) -> None:
        self.swaps.append((namespace, key, original, traced))

    def _set(self, index: int) -> None:
        for swap in self.swaps:
            namespace, key, value = swap[0], swap[1], swap[index]
            if isinstance(namespace, dict):
                namespace[key] = value
            else:
                setattr(namespace, key, value)

    def on(self) -> None:
        self._set(3)

    def off(self) -> None:
        self._set(2)


def install(tracer: Tracer) -> Bindings:
    """Build traced wrappers for FUNCTIONS and the fuzz CHECKS registry.

    The returned bindings are off; `on()` puts every wrapper in place.
    """
    for mod_name, _ in FUNCTIONS:
        import_module(f"entsum.{mod_name}")
    sites = [m for n, m in list(sys.modules.items())
             if m is not None and (n == "entsum" or n.startswith("entsum."))]
    errors = import_module("entsum.errors")
    counts = tracer.counts
    bindings = Bindings()

    def count_atoms(args, out):
        counts["transport.certificate.atoms"] += len(out.coupling)

    def count_exact(args, out):
        counts["transport.transport_exact.nvars"] += _count_nvars(*args[:2])
        count_atoms(args, out)

    # certificate producers: their coupling atoms are counted
    afters = {
        "transport.transport_exact": count_exact,
        "transport.uniformise_group": count_atoms,
        "transport.uniformise_coset_progression": count_atoms,
    }
    for mod_name, qual in FUNCTIONS:
        name = f"{mod_name}.{qual}"
        after = afters.get(name)
        mod = sys.modules[f"entsum.{mod_name}"]
        owner_name, _, attr = qual.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                traced = staticmethod(tracer.wrap(name, raw.__func__, after))
            else:
                traced = tracer.wrap(name, raw, after)
            bindings.add(owner, attr, raw, traced)
            continue
        fn = getattr(mod, attr)
        traced = tracer.wrap(name, fn, after)
        for site in sites:
            for key, value in list(vars(site).items()):
                if value is fn:
                    bindings.add(site, key, fn, traced)

    checks = sys.modules["entsum.fuzz"].CHECKS
    if tuple(checks) != CHECK_NAMES:
        raise RuntimeError(f"fuzz CHECKS registry changed: {list(checks)}")

    def on_error(exc):
        if isinstance(exc, errors.CapExceededError):
            counts["fuzz.skipped"] += 1

    for cname, fn in list(checks.items()):
        bindings.add(checks, cname, fn, tracer.wrap(f"fuzz.check.{cname}", fn, on_error=on_error))
    return bindings


def merge(into: dict, stats: dict) -> None:
    """Add one stats mapping (as from Tracer.stats) into another."""
    for name, s in stats.items():
        t = into.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key in t:
            t[key] += s[key]


def layer_metrics(stats: dict, counts: dict, import_s: float,
                  overhead_s: float, overhead_frac: float) -> dict:
    """The per-layer metric mapping printed by the traced run."""
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    for mod_name, qual in FUNCTIONS:
        s = stats.get(f"{mod_name}.{qual}", empty)
        put(f"{mod_name}.{qual}.calls", s["calls"], "count")
        put(f"{mod_name}.{qual}.self_s", s["self_s"], "s")
    put("transport.transport_exact.nvars", counts["transport.transport_exact.nvars"], "count")
    put("transport.certificate.atoms", counts["transport.certificate.atoms"], "count")
    attempts = 0
    for cname in CHECK_NAMES:
        s = stats.get(f"fuzz.check.{cname}", empty)
        attempts += s["calls"]
        put(f"fuzz.check.{cname}.calls", s["calls"], "count")
        put(f"fuzz.check.{cname}.total_s", s["total_s"], "s")
    put("fuzz.skipped_frac", counts["fuzz.skipped"] / attempts if attempts else 0.0, "ratio")
    put("cli.import_s", import_s, "s")
    put("trace.overhead_s", overhead_s, "s")
    put("trace.overhead_frac", overhead_frac, "ratio")
    return out
