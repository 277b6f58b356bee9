"""Layer spans recorded from outside gamecert.

``Tracer.install`` replaces each traced public function at every module
attribute through which gamecert code looks it up (``gamecert.certify.solve``,
``gamecert.project.solve``, ``gamecert.sdp.solve``, ...), so the program's
own call paths go through the wrapper while nothing under ``src/`` changes.
Wrappers cost a flag test or two while tracing is off.

A span is ``[name, start, end, parent, extra]``; spans stay in memory and
are written out once, at the end of the run.  A layer's self time is the
duration of its spans minus the part their child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import time
import tracemalloc

MIB = float(1 << 20)

LAYERS = ("sdp", "sos", "games", "efg", "jsonio", "oracles")

# span name -> per-layer metric holding the time of its outermost spans
TIMED = {
    "sdp.solve": "sdp.solve_s",
    "sdp.export": "sdp.export_s",
    "sdp.import": "sdp.import_s",
    "sos.compile": "sos.compile_s",
    "sos.round": "sos.round_s",
    "sos.extract": "sos.extract_s",
    "games.target": "games.target_s",
    "efg.convert": "efg.convert_s",
    "jsonio.load": "jsonio.load_s",
    "oracles.sample": "oracles.sample_s",
    "oracles.jacobi": "oracles.jacobi_s",
    "oracles.evaluate": "oracles.evaluate_s",
    "oracles.audit": "oracles.audit_s",
}

# span name -> per-layer metric holding the tracemalloc peak inside it
MEMORY = {"sdp.solve": "sdp.solve_peak_mb", "sos.compile": "sos.compile_peak_mb"}

METRICS = (
    sorted(TIMED.values())
    + sorted(MEMORY.values())
    + [
        "sdp.iterations",
        "sdp.s_per_iteration",
        "sdp.sdpa_mb",
        "sos.rows",
        "sos.nonzeros",
        "sos.accepted_ratio",
        "oracles.attempts",
        "oracles.acceptance",
        "oracles.jacobi_calls",
    ]
    + [f"{layer}.self_s" for layer in LAYERS]
    + ["op.self_s", "trace.overhead_s"]
)

UNITS = {
    "sdp.iterations": "count",
    "sos.rows": "count",
    "sos.nonzeros": "count",
    "oracles.attempts": "count",
    "oracles.jacobi_calls": "count",
    "sdp.sdpa_mb": "MB",
    "sdp.solve_peak_mb": "MB",
    "sos.compile_peak_mb": "MB",
    "sos.accepted_ratio": "ratio",
    "oracles.acceptance": "ratio",
}


def _solve_extra(args, kwargs, out):
    return {"iterations": int(out.iterations)}


def _compile_extra(args, kwargs, out):
    problem = out[0]
    nonzeros = sum(
        sum(len(entries) for _, entries in con.blocks) + len(con.free)
        for con in problem.constraints
    )
    return {"rows": problem.n_constraints, "nonzeros": nonzeros}


def _export_extra(args, kwargs, out):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _sample_extra(args, kwargs, out):
    points, rate = out
    accepted = len(points)
    return {"accepted": accepted, "attempts": round(accepted / rate) if rate else 0}


# (module, attribute, span name, extra) for every traced function
TARGETS = (
    ("gamecert.sdp", "solve", "sdp.solve", _solve_extra),
    ("gamecert.sdp", "export_sdpa", "sdp.export", _export_extra),
    ("gamecert.sdp", "import_sdpa", "sdp.import", None),
    ("gamecert.sos", "compile_program", "sos.compile", _compile_extra),
    ("gamecert.sos", "round_onto_rows", "sos.round", None),
    ("gamecert.sos", "extract_certificate", "sos.extract", None),
    ("gamecert.certify", "monotone_target", "games.target", None),
    ("gamecert.certify", "concave_target", "games.target", None),
    ("gamecert.games", "symmetrized_jacobian", "games.target", None),
    ("gamecert.games", "player_hessian", "games.target", None),
    ("gamecert.efg", "efg_to_game", "efg.convert", None),
    ("gamecert.jsonio", "load_game", "jsonio.load", None),
    ("gamecert.jsonio", "load_efg", "jsonio.load", None),
    ("gamecert.oracles", "sample_max_eigenvalue", "oracles.sample_max", None),
    ("gamecert.oracles", "sample_domain_points", "oracles.sample", _sample_extra),
    ("gamecert.oracles", "jacobi_eigenvalues", "oracles.jacobi", None),
    ("gamecert.oracles", "check_certificate_sampled", "oracles.audit", None),
    ("gamecert.oracles", "finite_difference_audit", "oracles.audit", None),
)


class Tracer:
    """Span recorder with two switches: ``record_spans`` records a span per
    traced call, ``record_memory`` the tracemalloc peak inside solve and
    compile."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.record_spans = False
        self.record_memory = False
        self.peaks: dict[str, int] = {}

    def install(self, modules) -> None:
        """Wrap every target at each attribute of ``modules`` that holds it,
        and ``PolyMatrix.evaluate_many`` on its class."""
        by_name = {m.__name__: m for m in modules}
        for mod_name, attr, span, extra in TARGETS:
            original = getattr(by_name[mod_name], attr)
            wrapper = self._wrap(original, span, extra)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        polymatrix = by_name["gamecert.polynomials"].PolyMatrix
        polymatrix.evaluate_many = self._wrap(polymatrix.evaluate_many, "oracles.evaluate", None)

    def _wrap(self, fn, name, extra):
        tracer = self
        memory = name in MEMORY

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if memory and tracer.record_memory:
                return tracer._measure_peak(fn, name, args, kwargs)
            if not tracer.record_spans:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer.stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = {"raised": type(exc).__name__}
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if extra is not None:
                # a span of its own, so that op.self_s leaves the counting out
                start = time.perf_counter()
                span[4] = extra(args, kwargs, out)
                spans.append(["trace.extra", start, time.perf_counter(), span[3], None])
            return out

        return wrapper

    def _measure_peak(self, fn, name, args, kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self.peaks[name] = max(self.peaks.get(name, 0), peak)

    def op_span(self, label: str):
        """Open the root span of one op; returns a function that closes it."""
        span = ["op", time.perf_counter(), 0.0, -1, {"label": label}]
        self.stack.append(len(self.spans))
        self.spans.append(span)

        def close():
            span[2] = time.perf_counter()
            self.stack.pop()

        return close

    def write(self, path: str) -> None:
        """One JSON line per span: name, start, end, parent index, extra."""
        with open(path, "w") as fh:
            for name, start, end, parent, extra in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "extra": extra}) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics per traced op: totals over the recorded ops
        divided by their number, peaks as maxima over calls."""
        spans = self.spans
        n_ops = sum(1 for s in spans if s[0] == "op") or 1
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        totals = {key: 0.0 for key in METRICS}
        counts = {"iterations": 0, "rows": 0, "nonzeros": 0, "bytes": 0,
                  "attempts": 0, "accepted": 0, "jacobi_calls": 0, "solves": 0, "certified": 0}
        for idx, (name, start, end, parent, extra) in enumerate(spans):
            duration = end - start
            layer = name.split(".")[0]
            totals[f"{layer}.self_s"] = totals.get(f"{layer}.self_s", 0.0) + duration - child_time[idx]
            if name in TIMED and not self._has_ancestor(idx, name):
                totals[TIMED[name]] += duration
            if name == "oracles.jacobi":
                counts["jacobi_calls"] += 1
            elif name == "sdp.solve":
                counts["solves"] += 1
            elif name == "sos.extract" and extra is None:
                counts["certified"] += 1
            if extra:
                for key in ("iterations", "rows", "nonzeros", "bytes", "attempts", "accepted"):
                    counts[key] += extra.get(key, 0)
        out = {key: totals[key] / n_ops for key in METRICS if key.endswith("_s")}
        out["sdp.iterations"] = counts["iterations"] / n_ops
        out["sdp.s_per_iteration"] = (
            totals["sdp.solve_s"] / counts["iterations"] if counts["iterations"] else 0.0
        )
        out["sdp.sdpa_mb"] = counts["bytes"] / n_ops / MIB
        out["sos.rows"] = counts["rows"] / n_ops
        out["sos.nonzeros"] = counts["nonzeros"] / n_ops
        out["sos.accepted_ratio"] = counts["certified"] / counts["solves"] if counts["solves"] else 0.0
        out["oracles.attempts"] = counts["attempts"] / n_ops
        out["oracles.acceptance"] = counts["accepted"] / counts["attempts"] if counts["attempts"] else 0.0
        out["oracles.jacobi_calls"] = counts["jacobi_calls"] / n_ops
        for span_name, key in MEMORY.items():
            out[key] = self.peaks.get(span_name, 0) / MIB
        return out

    def _has_ancestor(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False
