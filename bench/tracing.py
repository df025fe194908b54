"""Spans around the package's public functions, recorded from outside it.

``install`` wraps each function in ``TARGETS`` and rebinds every module-level
name that refers to it in the loaded ``momentshift`` modules: the package
binds functions with ``from .x import f``, so wrapping only the defining
module would miss calls such as ``momentshift.cli.solve``.  Spans stay in
memory; ``layer_metrics`` turns them into the per-layer metrics.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass
from time import perf_counter

_PROGRAMS = {"fmin": "shift", "gmin": "inverse", "info_recover": "recover"}


def _program(args, kwargs) -> str:
    problem = args[0] if args else kwargs["p"]
    return _PROGRAMS.get(problem.name.split("[")[0], "other")


def _choi_bytes(protocol) -> int:
    choi = getattr(protocol.realization, "choi_matrix", None)
    return choi.entries.nbytes if choi is not None else 0


# (module, function, span name, tag before the call, count from the result)
TARGETS = [
    ("momentshift.sdp.programs", "build_fmin", "sdp.build", None, None),
    ("momentshift.sdp.programs", "build_gmin", "sdp.build", None, None),
    ("momentshift.sdp.programs", "build_info_recover", "sdp.build", None, None),
    ("momentshift.sdp.solver", "compile_problem", "sdp.compile", None,
     lambda comp: comp.A.shape[0] * comp.A.shape[1] * 8),
    ("momentshift.sdp.solver", "solve", "sdp.solve", _program,
     lambda sol: sol.iterations),
    ("momentshift.channels", "tensor_power", "channels.tensor_power", None,
     lambda ch: len(ch.kraus)),
    ("momentshift.channels", "apply", "channels.apply", None, None),
    ("momentshift.moments", "moment_observable", "moments.observable", None, None),
    ("momentshift.moments", "permutation_eigenprojectors", "moments.eigenprojectors",
     None, None),
    ("momentshift.protocols", "de_second_moment_nqubit", "protocols.build", None,
     _choi_bytes),
    ("momentshift.protocols", "identity_protocol", "protocols.build", None, _choi_bytes),
    ("momentshift.protocols", "de_kth_moment", "protocols.build", None, _choi_bytes),
    ("momentshift.protocols", "load_protocol", "protocols.load", None, None),
    ("momentshift.protocols", "exact_expectation", "protocols.exact", None, None),
    ("momentshift.estimator", "run_protocol", "estimator.run", None,
     lambda run: run.shots),
    ("momentshift.estimator", "run_choi_map", "estimator.run", None,
     lambda run: run.shots),
    ("momentshift.estimator", "shot_uniforms", "estimator.uniforms", None, None),
    ("momentshift.hubbard", "build_hamiltonian", "hubbard.ground_state", None, None),
    ("momentshift.hubbard", "ground_state", "hubbard.ground_state", None, None),
    ("momentshift.hubbard", "reduced_state", "hubbard.ground_state", None, None),
    ("momentshift.hubbard", "fig4_experiment", "hubbard.fig4", None,
     lambda res: res.trials),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at the top
    op: str              # "setup" or the timed op's index
    tag: str = ""
    count: int = 0       # work the call reported (iterations, shots, bytes ...)
    status: str = ""     # "ok", the solver status, or the exception raised


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = "setup"
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, tag=None, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = Span(name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1,
                       self.op, tag(args, kwargs) if tag else "")
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec.status = type(exc).__name__
                raise
            finally:
                rec.end = perf_counter()
                self.stack.pop()
            rec.status = getattr(result, "status", "ok")
            if count is not None:
                rec.count = count(result)
            return result
        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name.startswith("momentshift") and m is not None]
        for modname, fname, name, tag, count in TARGETS:
            orig = getattr(importlib.import_module(modname), fname)
            wrapped = self.span(name, orig, tag, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)
                        self._restore.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, covered)]


def table(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Calls, self time and reported work per span name, set-up and ops apart."""
    rows: dict[str, dict[str, float]] = {}
    for s, self_s in zip(tracer.spans, tracer.self_times()):
        row = rows.setdefault(s.name, {"calls": 0, "setup_self_s": 0.0,
                                       "ops_self_s": 0.0})
        row["calls"] += 1
        row["setup_self_s" if s.op == "setup" else "ops_self_s"] += self_s
    return rows


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics over every span of the traced run."""
    spans = tracer.spans
    self_s = tracer.self_times()

    def total(name: str, tag: str | None = None) -> float:
        return sum(t for s, t in zip(spans, self_s)
                   if s.name == name and (tag is None or s.tag == tag))

    def counted(name: str, tag: str | None = None, outer: bool = False) -> int:
        # ``outer`` skips calls nested in a span of the same name, such as
        # run_choi_map called through run_protocol, so work is counted once.
        return sum(s.count for s in spans if s.name == name
                   and (tag is None or s.tag == tag)
                   and not (outer and s.parent >= 0 and spans[s.parent].name == name))

    solves = [s for s in spans if s.name == "sdp.solve"]
    returned = [t for s, t in zip(spans, self_s)
                if s.name == "sdp.solve" and s.status in ("optimal", "infeasible", "max_iters")]
    iterations = counted("sdp.solve")
    shots = counted("estimator.run", outer=True)
    trials = counted("hubbard.fig4")
    fig4_s = sum(s.end - s.start for s in spans if s.name == "hubbard.fig4")
    m = {
        "sdp.build_s": total("sdp.build"),
        "sdp.compile_s": total("sdp.compile"),
        "sdp.A_mb": max((s.count for s in spans if s.name == "sdp.compile"),
                        default=0) / 1e6,
        "sdp.solve_s": total("sdp.solve"),
        "sdp.iterations": iterations,
        "sdp.iter_ms": 1e3 * sum(returned) / iterations if iterations else 0.0,
        "sdp.optimal_frac": (sum(s.status == "optimal" for s in solves) / len(solves)
                             if solves else 0.0),
    }
    for program in ("shift", "inverse", "recover"):
        m[f"sdp.{program}.solve_s"] = total("sdp.solve", program)
        m[f"sdp.{program}.iterations"] = counted("sdp.solve", program)
    run_s = total("estimator.run")
    m.update({
        "channels.tensor_power_s": total("channels.tensor_power"),
        "channels.kraus_built": counted("channels.tensor_power"),
        "channels.apply_s": total("channels.apply"),
        "moments.observable_s": total("moments.observable"),
        "moments.eigenprojectors_s": total("moments.eigenprojectors"),
        "protocols.build_s": total("protocols.build"),
        "protocols.choi_mb": counted("protocols.build", outer=True) / 1e6,
        "protocols.load_s": total("protocols.load"),
        "protocols.exact_s": total("protocols.exact"),
        "estimator.run_s": run_s,
        "estimator.uniforms_s": total("estimator.uniforms"),
        "estimator.shots": shots,
        "estimator.shot_ns": 1e9 * run_s / shots if shots else 0.0,
        "hubbard.ground_state_s": total("hubbard.ground_state"),
        "hubbard.trial_ms": 1e3 * fig4_s / trials if trials else 0.0,
        "cli.self_s": total("cli"),
    })
    return m
