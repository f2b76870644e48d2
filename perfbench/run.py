"""rabispec benchmark: closed-loop workloads, end-to-end metrics and a traced per-layer run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 24 --trace 0

One client calls rabispec in-process, each operation starting when the
previous one returns.  Operations cycle through the seed-drawn inputs until
they have taken ``--seconds`` and every input has run at least twice.
Every output is checked against the Fock-space oracle outside the timed
region.

Timings are reported at a reference machine speed.  A fixed calibration
kernel of the kind of work the workload does runs between operations; each
operation's wall time is divided by the median slowdown, against the
kernel's reference time, of the calibrations taken within CAL_WINDOW seconds
of it (and at least the one just before it).  On a shared host
whose speed drifts by tens of percent for minutes at a time, this keeps a
run's figures comparable with the next; the unscaled wall times are printed
beside them.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` runs one untraced and one traced pass and reports the per-layer
metrics, writing the spans to perfbench/out/.  The last line of standard
output is the JSON result; the lines before it are the same metrics for
people, and the provenance of the run.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("sweep", "collapse", "oracle", "series")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_CHILDREN = 2   # extra set-ups in fresh processes; setup_s is the median of all
MIN_REPEATS = 2      # timed operations per input, at least
CAL_EVERY = 0.5      # seconds between calibrations
CAL_WINDOW = 2.0     # an operation is scaled by the calibrations this close to it
SETUP_CALS = 3       # calibrations whose median scales a set-up

E2E_UNITS = {"setup_s": "s", "op_s_p50": "s", "levels_per_s": "1/s", "peak_rss_mb": "MB"}
WALL_UNITS = {"op_s_p50_wall": "s", "levels_per_s_wall": "1/s"}
CHECK_UNITS = {"lost_levels": "count", "spurious_roots": "count", "max_abs_err": "omega",
               "failed_frac": "frac"}


def setup(name: str, seed: int):
    """Import rabispec, draw the inputs and make one warm-up call."""
    import workloads

    wl = workloads.WORKLOADS[name]
    inputs = wl.inputs(seed)
    wl.warmup(inputs)
    return wl, inputs


def setup_in_child(name: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, inputs) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "inputs": len(inputs),
        "inputs_sha": hashlib.sha256(repr(inputs).encode()).hexdigest()[:16],
    }


class Loop:
    """Closed-loop runner: times each operation, then checks it outside the timer."""

    def __init__(self, wl, inputs):
        self.wl = wl
        self.inputs = inputs
        self.samples: list[list[tuple[float, float]]] = [[] for _ in inputs]  # (start, end)
        self.verdicts = {}       # input index -> Verdict of its latest operation
        self.outputs = {}        # input index -> output of its first operation
        self.failures: list[str] = []
        self.cal: list[tuple[float, float]] = []   # (time, slowdown against the reference)

    @property
    def attempted(self) -> int:
        return sum(len(s) for s in self.samples)

    def calibrate(self) -> None:
        self.cal.append((time.perf_counter(), self.wl.calibration.slowdown()))

    def run(self, i: int, tracer=None) -> None:
        inp = self.inputs[i]
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = self.wl.op(inp)
            else:
                tracer.op += 1
                with tracer:
                    out = self.wl.op(inp)
        except Exception as exc:  # a failing operation is counted, not fatal
            self.samples[i].append((t0, time.perf_counter()))
            self.failures.append(f"input {i}: {type(exc).__name__}: {exc}")
            return
        self.samples[i].append((t0, time.perf_counter()))
        try:
            verdict = self.wl.check(inp, out)
        except Exception as exc:  # unreadable output
            self.failures.append(f"input {i}: check {type(exc).__name__}: {exc}")
            return
        if self.outputs.setdefault(i, out) != out:
            verdict.fail("output differs from an earlier operation on the same input")
        self.verdicts[i] = verdict
        if not verdict.ok:
            self.failures.append(f"input {i}: {verdict.why}")

    def run_pass(self, tracer=None) -> float:
        """One operation on each input; returns their summed wall time."""
        total = 0.0
        for i in range(len(self.inputs)):
            self.run(i, tracer)
            t0, t1 = self.samples[i][-1]
            total += t1 - t0
        return total

    def timings(self, seconds=lambda t0, t1: t1 - t0, suffix="_wall") -> dict:
        """Median over inputs of each input's median operation time, and the throughput
        of one pass at those times; by default as measured."""
        typical = [statistics.median(seconds(*ts) for ts in s) for s in self.samples]
        levels = sum(v.levels for v in self.verdicts.values())
        return {"op_s_p50" + suffix: statistics.median(typical),
                "levels_per_s" + suffix: levels / sum(typical)}

    def end_to_end(self) -> dict:
        """The timings scaled to the reference speed, and as measured."""
        stamps = [t for t, _ in self.cal]
        values = [v for _, v in self.cal]

        def scaled(t0, t1):
            lo = min(bisect.bisect_left(stamps, t0 - CAL_WINDOW),
                     bisect.bisect_right(stamps, t0) - 1)
            hi = bisect.bisect_right(stamps, t1 + CAL_WINDOW)
            return (t1 - t0) / statistics.median(values[max(lo, 0):hi])

        return {**self.timings(scaled, ""), **self.timings()}

    def check_metrics(self) -> dict:
        vs = self.verdicts.values()
        return {
            "lost_levels": sum(v.lost for v in vs),
            "spurious_roots": sum(v.spurious for v in vs),
            "max_abs_err": max((v.max_err for v in vs), default=0.0),
            "failed_frac": len(self.failures) / self.attempted,
        }


def measure(wl, inputs, seconds: float) -> Loop:
    """Cycle through the inputs until operations took ``seconds`` and each ran MIN_REPEATS times.

    Checks and calibrations run outside that budget.
    """
    loop = Loop(wl, inputs)
    loop.calibrate()
    busy = 0.0
    n = 0
    while n < MIN_REPEATS * len(inputs) or busy < seconds:
        i = n % len(inputs)
        loop.run(i)
        t0, t1 = loop.samples[i][-1]
        busy += t1 - t0
        n += 1
        if time.perf_counter() - loop.cal[-1][0] > CAL_EVERY:
            loop.calibrate()
    loop.calibrate()
    return loop


def traced_run(wl, inputs):
    """One untraced pass, then one traced pass of the same inputs.

    The wall timings of the untraced pass are reported with the layers.
    """
    import tracer as tracing
    import workloads
    from rabispec import cli, models, oracle, series, spectral

    modules = argparse.Namespace(cli=cli, models=models, oracle=oracle, series=series,
                                 spectral=spectral, workloads=workloads)
    loop = Loop(wl, inputs)
    plain = loop.run_pass()
    wall = loop.timings()
    tr = tracing.Tracer(modules)
    traced = loop.run_pass(tr)
    layers = tr.layer_metrics()
    layers["trace.overhead_s"] = traced - plain
    layers.update(wall)
    return loop, layers, tr


def report(metrics: dict, units: dict) -> None:
    for key, value in metrics.items():
        print(f"  {key:<28} {value:>16.6g} {units[key]}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "rabispec" / "__init__.py").is_file():
        print(f"error: rabispec sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    wl, inputs = setup(args.workload, args.seed)
    setup_s = time.perf_counter() - _T0
    setup_s /= statistics.median(wl.calibration.slowdown() for _ in range(SETUP_CALS))
    import rabispec

    if Path(rabispec.__file__).resolve().parent != SRC / "rabispec":
        print(f"error: imported rabispec from {rabispec.__file__}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    prov = provenance(args, inputs)
    # the inputs must be a function of the seed alone
    inputs_repeat = repr(wl.inputs(args.seed)) == repr(inputs)
    inputs_vary = repr(wl.inputs(args.seed + 1)) != repr(inputs)

    if args.trace:
        import tracer as tracing

        loop, metrics, tr = traced_run(wl, inputs)
        prov["absent"] = tr.absent
        metrics.update(loop.check_metrics())
        units = {**tracing.LAYER_UNITS, "trace.overhead_s": "s", **WALL_UNITS, **CHECK_UNITS}
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{args.workload}-{args.seed}.json").write_text(
            json.dumps({"provenance": prov, "metrics": metrics, "spans": tr.spans}))
        shown = metrics
    else:
        setups = [setup_s] + [setup_in_child(args.workload, args.seed)
                              for _ in range(SETUP_CHILDREN)]
        loop = measure(wl, inputs, args.seconds)
        timings = loop.end_to_end()
        metrics = {
            "setup_s": statistics.median(setups),
            "op_s_p50": timings["op_s_p50"],
            "levels_per_s": timings["levels_per_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS
        shown = {**metrics, **{k: timings[k] for k in WALL_UNITS}, **loop.check_metrics()}
        prov["slowdown"] = statistics.median(v for _, v in loop.cal)

    correct = not loop.failures and inputs_repeat and inputs_vary
    print("provenance " + json.dumps(prov, sort_keys=True))
    for line in loop.failures:
        print("FAILED " + line)
    if not inputs_repeat:
        print("FAILED the same seed drew different inputs")
    if not inputs_vary:
        print("FAILED another seed drew the same inputs")
    print(f"{args.workload} seed={args.seed}: {loop.attempted} operations "
          f"over {len(inputs)} inputs, {len(loop.failures)} failed")
    report(shown, {**units, **WALL_UNITS, **CHECK_UNITS})
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
