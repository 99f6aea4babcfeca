"""Per-layer tracing from outside the program.

Tracer swaps each traced public function for a timing wrapper in every
module namespace that binds it (the fourlevel modules and the scipy
namespace that owns it), and puts the originals back on exit.  A function
that no longer exists is skipped and so reports zero calls.  Spans nest on
a stack: each call adds its duration, less the speed probe's readings
inside it (see speed.py), to its own name and to the edge from the
enclosing traced call, from which self times follow.

import_profile runs `python -X importtime` in a fresh interpreter and
sums the import layers.
"""

from __future__ import annotations

import contextlib
import re
import subprocess
import sys
from collections import Counter, defaultdict
from time import perf_counter

import speed

#: (owning module, function, span name).  The CLI entry point gets one span
#: per command, so a command's self time excludes every traced callee.
TRACED = (
    ("fourlevel.scenario", "load_scenario", "scenario.load_scenario"),
    ("fourlevel.solvers", "solve_tripod", "solvers.solve_tripod"),
    ("fourlevel.solvers", "solve_diamond", "solvers.solve_diamond"),
    ("fourlevel.solvers", "solve_ntype", "solvers.solve_ntype"),
    ("fourlevel.rotation", "hr_analytic", "rotation.hr_analytic"),
    ("fourlevel.rotation", "hr_numeric", "rotation.hr_numeric"),
    ("fourlevel.rotation", "ur_of_angles", "rotation.ur_of_angles"),
    ("fourlevel.hamiltonian", "total_hamiltonian", "hamiltonian.total_hamiltonian"),
    ("fourlevel.hamiltonian", "analytic_evolution", "hamiltonian.analytic_evolution"),
    ("fourlevel.propagator", "propagate", "propagator.propagate"),
    ("fourlevel.propagator", "compare_with_analytic", "propagator.compare_with_analytic"),
    ("fourlevel.qo", "engineered_to_qo", "qo.engineered_to_qo"),
    ("fourlevel.qo", "lab_hamiltonian", "qo.lab_hamiltonian"),
    ("fourlevel.qo", "rwa_hamiltonian", "qo.rwa_hamiltonian"),
    ("fourlevel.cli", "main", "cli"),
    ("scipy.linalg", "expm", "propagator.expm"),
    ("scipy.optimize", "least_squares", "solvers.least_squares"),
)


def _span_name(base, args, kwargs):
    """cli.<command> for the CLI entry point."""
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.{argv[0]}" if argv else "cli.main"


class Tracer:
    """Context manager that traces the TRACED functions while active."""

    def __init__(self):
        self.calls = Counter()
        self.seconds = defaultdict(float)
        self.edges = defaultdict(float)  # (parent span, child span) -> seconds
        self.steps = 0  # propagator steps, from the returned trajectories
        self.nfev = 0  # residual evaluations, from the least-squares results
        self.enabled = True
        self._stack = []
        self._patched = []

    def _wrap(self, fn, base):
        stack, calls, seconds, edges = self._stack, self.calls, self.seconds, self.edges

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = _span_name(base, args, kwargs) if base == "cli" else base
            parent = stack[-1] if stack else None
            stack.append(span)
            probed = speed.inside_s
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start - (speed.inside_s - probed)
                stack.pop()
                calls[span] += 1
                seconds[span] += elapsed
                if parent is not None:
                    edges[parent, span] += elapsed
            if span == "propagator.propagate":
                self.steps += len(result.times) - 1
            elif span == "solvers.least_squares":
                self.nfev += int(result.nfev)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "fourlevel" or n.startswith("fourlevel."))]
        for owner, attr, base in TRACED:
            module = sys.modules.get(owner)
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, base)
            for ns in [module, *namespaces]:
                for name, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, name, wrapper)
                        self._patched.append((ns, name, original))
        return self

    def __exit__(self, *exc):
        for ns, name, original in reversed(self._patched):
            setattr(ns, name, original)
        self._patched.clear()
        return False

    @contextlib.contextmanager
    def paused(self):
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def total(self, span):
        return self.seconds.get(span, 0.0)

    def child_seconds(self, parent, children=None):
        """Time of traced calls made directly from parent (all, or only the
        named children)."""
        return sum(
            s for (p, c), s in self.edges.items()
            if p == parent and (children is None or c in children)
        )

    def self_seconds(self, span, children=None):
        return self.total(span) - self.child_seconds(span, children)


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def parse_importtime(stderr):
    """{module: (self_s, cumulative_s)} of the first import of each module."""
    out = {}
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m and m.group(4) not in out:
            out[m.group(4)] = (int(m.group(1)) * 1e-6, int(m.group(2)) * 1e-6)
    return out


def import_layers(stderr):
    """The import-layer metrics of one `python -X importtime` run."""
    mods = parse_importtime(stderr)
    return {
        "import.total_s": sum(s for s, _ in mods.values()),
        "import.numpy_s": mods.get("numpy", (0.0, 0.0))[1],
        "import.scipy_linalg_s": mods.get("scipy.linalg", (0.0, 0.0))[1],
        "import.scipy_optimize_s": mods.get("scipy.optimize", (0.0, 0.0))[1],
        "import.fourlevel_self_s": sum(
            s for name, (s, _) in mods.items()
            if name == "fourlevel" or name.startswith("fourlevel.")
        ),
    }


def import_profile(env, cwd):
    """Import-layer metrics of `import fourlevel.cli` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import fourlevel.cli"],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120, check=True,
    )
    return import_layers(proc.stderr)
