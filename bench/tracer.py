"""Per-layer tracing from outside the package.

Each traced function is replaced, for the length of a traced pass, by a
wrapper installed under the name its caller looks up: ``assembly``
imports ``resolve_scale`` into its own namespace, so the wrapper goes to
``assembly.resolve_scale`` as well as ``radial.resolve_scale``.  A wrapper
records a span (id, name, start, end, parent) and adds its duration, less
the time its child spans cover, to the layer's self time.  Spans stay in
memory, up to ``SPAN_CAP``, and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager

SPAN_CAP = 200_000

HYP2F1 = "specfun.hyp2f1"

# (module, attribute looked up by a caller, layer name)
TARGETS = (
    ("cli", "_emit", "cli._emit"),
    ("assembly", "grid_eval", "assembly.grid_eval"),
    ("assembly", "bispinor", "assembly.bispinor"),
    ("assembly", "translation_factor", "assembly.translation_factor"),
    ("assembly", "lorentz_factor", "assembly.lorentz_factor"),
    ("assembly", "resolve_scale", "radial.resolve_scale"),
    ("radial", "resolve_scale", "radial.resolve_scale"),
    ("assembly", "f1_solution", "radial.f1_solution"),
    ("radial", "f1_solution", "radial.f1_solution"),
    ("assembly", "f4_from_f1", "radial.f4_from_f1"),
    ("radial", "f4_from_f1", "radial.f4_from_f1"),
    ("assembly", "m_assoc", "hypersph.m_assoc"),
    ("hypersph", "m_assoc", "hypersph.m_assoc"),
    ("assembly", "m_assoc_dotted", "hypersph.m_assoc_dotted"),
    ("hypersph", "m_assoc_dotted", "hypersph.m_assoc_dotted"),
    ("hypersph", "z_assoc", "hypersph.z_assoc"),
    ("hypersph", "hyp2f1", HYP2F1),
    ("specfun", "hyp2f1", HYP2F1),  # the Pfaff branch calls itself here
    ("radial", "bessel_j_half", "specfun.bessel_j_half"),
    ("specfun", "bessel_j_half", "specfun.bessel_j_half"),
    ("assembly", "plane_wave", "dirac.plane_wave"),
    ("dirac", "plane_wave", "dirac.plane_wave"),
    ("assembly", "u_amplitude", "dirac.u_amplitude"),
    ("dirac", "u_amplitude", "dirac.u_amplitude"),
    ("assembly", "v_amplitude", "dirac.v_amplitude"),
    ("dirac", "v_amplitude", "dirac.v_amplitude"),
)

VERIFY_SUITES = ("gamma", "dirac", "bessel", "hyp2f1", "radial", "hypersph", "assembly")

LAYERS = (
    "cli.command",
    "cli._emit",
    "assembly.grid_eval",
    "assembly.bispinor",
    "assembly.translation_factor",
    "assembly.lorentz_factor",
    "radial.resolve_scale",
    "radial.f1_solution",
    "radial.f4_from_f1",
    "hypersph.m_assoc",
    "hypersph.m_assoc_dotted",
    "hypersph.z_assoc",
    f"{HYP2F1}.term",
    f"{HYP2F1}.series",
    f"{HYP2F1}.pfaff",
    "specfun.bessel_j_half",
    "dirac.plane_wave",
    "dirac.u_amplitude",
    "dirac.v_amplitude",
)


def _nonpos_int(v) -> bool:
    return v <= 0 and v == round(v)


def hyp2f1_branch(a, b, c, x) -> str:
    """Which summation a call takes, read from its arguments: a terminating
    polynomial, the Pfaff map for real x < 0, or the direct series."""
    if _nonpos_int(a) or _nonpos_int(b):
        return f"{HYP2F1}.term"
    x = complex(x)
    if x.imag == 0.0 and x.real < 0.0:
        return f"{HYP2F1}.pfaff"
    return f"{HYP2F1}.series"


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.spans: list[tuple[int, str, int, int, int]] = []
        self.dropped = 0
        self._next_id = 0
        self._stack: list[list[int]] = []  # [span id, ns covered by children]

    def wrap(self, fn, name):
        """``name`` is a layer name, or a function of the call's arguments
        that returns one."""
        namer = name if callable(name) else (lambda *a, **k: name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                layer = namer(*args, **kwargs)
                self.calls[layer] += 1
                self.self_ns[layer] += dur - frame[1]
                self.total_ns[layer] += dur
                if stack:
                    stack[-1][1] += dur
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((sid, layer, t0, t1, parent))
                else:
                    self.dropped += 1

        return traced

    @contextmanager
    def installed(self):
        """Install every wrapper; a name a later version no longer has is
        skipped and its layer reads zero."""
        saved = []
        suites: dict = {}
        saved_suites: dict = {}
        try:
            for mod_name, attr, layer in TARGETS:
                try:
                    mod = importlib.import_module(f"poincarewave.{mod_name}")
                except ModuleNotFoundError:
                    continue
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                saved.append((mod, attr, fn))
                name = hyp2f1_branch if layer == HYP2F1 else layer
                setattr(mod, attr, self.wrap(fn, name))
            verify = importlib.import_module("poincarewave.verify")
            suites = getattr(verify, "_SUITE_FUNCS", {})
            saved_suites = dict(suites)
            for suite, fn in saved_suites.items():
                suites[suite] = self.wrap(fn, f"verify.{suite}")
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)
            suites.update(saved_suites)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(f"# spans kept {len(self.spans)}, dropped {self.dropped}\n")
            fh.write("id\tname\tstart_ns\tend_ns\tparent\n")
            for sid, name, t0, t1, parent in self.spans:
                fh.write(f"{sid}\t{name}\t{t0}\t{t1}\t{parent}\n")
