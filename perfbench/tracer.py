"""Spans and counters around the public calls into each rabispec module.

While active, the tracer replaces module attributes that rabispec itself
looks up by global name (``cli.compute_spectrum``, ``spectral.refine_root``,
``oracle.eigen_in_range``, ...) with wrappers, and puts the originals back on
exit.  Span wrappers record (operation, span id, parent id, name, start, end);
hot, sub-microsecond calls (``ThreeTermCoeffs.a``/``b``) are only counted, and
continued-fraction evaluations are counted and timed without a span each.
Counters are read from return values: ``CFValue``, ``RootRecord.iterations``,
the ``SpectrumResult`` bracket counts and the oracle's final truncation.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

# Span names of the optional private scan passes; a rewrite of the scan may
# delete them, and their metrics are then reported as absent.
OPTIONAL = {"spectral.split": "_split_grid_roots", "spectral.ladder": "_near_pole_roots"}

COUNT, SECONDS = "count", "s"

# Per-layer metric names and units, in report order.
LAYER_UNITS = {
    "models.coeffs_built": COUNT,
    "models.a_calls": COUNT,
    "models.b_calls": COUNT,
    "contfrac.evals": COUNT,
    "contfrac.steps": COUNT,
    "contfrac.steps_per_eval": "steps/eval",
    "contfrac.depth_max": "steps",
    "contfrac.unconverged": COUNT,
    "contfrac.busy_s": SECONDS,
    "spectral.scan.busy_s": SECONDS,
    "spectral.scan.evals": COUNT,
    "spectral.split.busy_s": SECONDS,
    "spectral.split.evals": COUNT,
    "spectral.ladder.busy_s": SECONDS,
    "spectral.ladder.evals": COUNT,
    "spectral.refine.busy_s": SECONDS,
    "spectral.refine.calls": COUNT,
    "spectral.refine.iters": COUNT,
    "spectral.self_s": SECONDS,
    "spectral.grid_points": COUNT,
    "spectral.brackets_found": COUNT,
    "spectral.brackets_rejected": COUNT,
    "spectral.bracket_yield": "roots/bracket",
    "oracle.build.busy_s": SECONDS,
    "oracle.build.calls": COUNT,
    "oracle.eig.busy_s": SECONDS,
    "oracle.n_final": COUNT,
    "series.minimal.busy_s": SECONDS,
    "series.minimal.calls": COUNT,
    "series.norm.busy_s": SECONDS,
    "series.wavefunction.busy_s": SECONDS,
    "cli.self_s": SECONDS,
    "cli.bytes_out": "bytes",
}


class Tracer:
    """Wraps rabispec module attributes inside ``with tracer:`` blocks."""

    def __init__(self, modules):
        self.m = modules            # namespace with cli, spectral, oracle, series, models, workloads
        self.counts = defaultdict(float)
        self.spans: list[tuple] = []
        self.op = 0                 # identifier shared by the spans of one operation
        self.absent: list[str] = []
        self._stack: list[tuple[int, str]] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------
    def _span(self, name, on_result=None):
        spans, stack = self.spans, self._stack

        def wrap(fn):
            def traced(*args, **kwargs):
                sid = len(spans)
                parent = stack[-1][0] if stack else None
                spans.append(None)
                stack.append((sid, name))
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    spans[sid] = (self.op, sid, parent, name, t0, perf_counter())
                    stack.pop()
                if on_result is not None:
                    on_result(result)
                return result
            return traced
        return wrap

    def _count(self, key):
        counts = self.counts

        def wrap(fn):
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return counted
        return wrap

    def _cf(self, fn):
        counts, stack = self.counts, self._stack

        def evaluated(*args, **kwargs):
            t0 = perf_counter()
            cf = fn(*args, **kwargs)
            counts["contfrac.busy_s"] += perf_counter() - t0
            counts["contfrac.evals"] += 1
            counts["contfrac.steps"] += cf.depth
            counts["contfrac.depth_max"] = max(counts["contfrac.depth_max"], cf.depth)
            counts["contfrac.unconverged"] += not cf.converged
            if stack:
                counts[stack[-1][1] + ".evals"] += 1
            return cf
        return evaluated

    # -- counters read from return values -------------------------------------
    def _spectrum(self, result) -> None:
        c = self.counts
        c["spectral.grid_points"] += result.grid_points
        c["spectral.brackets_found"] += result.brackets_found
        c["spectral.brackets_rejected"] += result.brackets_rejected
        c["spectral.roots"] += len(result.roots) + len(result.flagged)

    def _refined(self, record) -> None:
        self.counts["spectral.refine.iters"] += record.iterations

    def _oracle(self, result) -> None:
        self.counts["oracle.n_final"] += result[1]

    def _cli(self, result) -> None:
        self.counts["cli.bytes_out"] += len(result[1])

    def _plan(self):
        m = self.m
        return [
            (m.workloads, "run_cli", "cli", self._span("cli", self._cli)),
            (m.cli, "compute_spectrum", "spectral", self._span("spectral", self._spectrum)),
            (m.cli, "oracle_spectrum", "oracle", self._span("oracle", self._oracle)),
            (m.spectral, "scan_brackets", "spectral.scan", self._span("spectral.scan")),
            (m.spectral, OPTIONAL["spectral.split"], "spectral.split", self._span("spectral.split")),
            (m.spectral, OPTIONAL["spectral.ladder"], "spectral.ladder", self._span("spectral.ladder")),
            (m.spectral, "refine_root", "spectral.refine", self._span("spectral.refine", self._refined)),
            (m.spectral, "eval_continued_fraction", "contfrac", self._cf),
            (m.spectral, "three_term_coeffs", "models", self._count("models.coeffs_built")),
            (m.series, "three_term_coeffs", "models", self._count("models.coeffs_built")),
            (getattr(m.models, "ThreeTermCoeffs", None), "a", "models", self._count("models.a_calls")),
            (getattr(m.models, "ThreeTermCoeffs", None), "b", "models", self._count("models.b_calls")),
            (m.oracle, "build_hamiltonian", "oracle.build", self._span("oracle.build")),
            (m.oracle, "eigen_in_range", "oracle.eig", self._span("oracle.eig")),
            (m.series, "minimal_series", "series.minimal", self._span("series.minimal")),
            (m.series, "norm_tail_ratio", "series.norm", self._span("series.norm")),
            (m.series, "eval_wavefunction", "series.wavefunction", self._span("series.wavefunction")),
        ]

    def __enter__(self):
        for obj, attr, layer, wrap in self._plan():
            original = getattr(obj, attr, None)
            if original is None:
                if layer not in self.absent:
                    self.absent.append(layer)
                continue
            self._saved.append((obj, attr, original))
            setattr(obj, attr, wrap(original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)
        return False

    # -- summary --------------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics over everything traced so far."""
        busy = defaultdict(float)
        calls = defaultdict(int)
        child = defaultdict(float)
        names = {}
        for _, sid, parent, name, t0, t1 in self.spans:
            names[sid] = name
            busy[name] += t1 - t0
            calls[name] += 1
            if parent is not None:
                child[names[parent]] += t1 - t0
        c = self.counts
        out = {}
        for key in LAYER_UNITS:
            layer, _, stat = key.rpartition(".")
            if stat == "busy_s" and key not in c:
                out[key] = busy[layer]
            elif stat == "calls":
                out[key] = calls[layer]
            elif stat == "self_s":
                out[key] = busy[layer] - child[layer]
            else:
                out[key] = c[key]
        out["contfrac.steps_per_eval"] = c["contfrac.steps"] / c["contfrac.evals"] if c["contfrac.evals"] else 0.0
        found = c["spectral.brackets_found"]
        out["spectral.bracket_yield"] = c["spectral.roots"] / found if found else 0.0
        return {k: v if LAYER_UNITS[k] in (SECONDS, "steps/eval", "roots/bracket") else int(v)
                for k, v in out.items()}
