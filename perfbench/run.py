"""entsum benchmark: one seeded closed-loop workload per process.

Usage:
    python3 perfbench/run.py --workload {fuzz,oracle,uniformise,cli} \
        --seed N --seconds S --trace {0,1} [--negative-control]

Run from the repository root.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  A readable summary
goes to stderr, and a record with the environment, the output digest and the
failure count goes to .bench_out/.  See perfbench/README.md.
"""

import time

T0 = time.perf_counter()  # set-up time is counted from here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from bisect import bisect_left, bisect_right  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
MIN_OPS = 100  # so that ten latency samples lie beyond the 90th percentile
DIGEST_OPS = 100  # the output digest covers the first DIGEST_OPS operations
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 5
PROBE_REF_S = 1e-3  # timings are scaled to the speed at which probe() takes this long
PROBE_INTERVAL_S = 0.05
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import entsum.cli; "
    "print(time.perf_counter() - t)"
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("fuzz", "oracle", "uniformise", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--negative-control", action="store_true",
                    help="corrupt the output of operation 0; the run must then fail")
    ap.add_argument("--setup-only", action="store_true",
                    help="print this process's set-up time and exit (used for set-up samples)")
    return ap.parse_args(argv)


def environment(load_at_start, cpu: int) -> dict:
    import mpmath
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        sha = done.stdout.strip() or None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "loadavg_at_start": load_at_start,
    }


def probe() -> float:
    """Wall time of a fixed pure-Python kernel: Fraction sums and dict updates, as in entsum."""
    t0 = time.perf_counter()
    total, seen = Fraction(0), {}
    for i in range(1, 300):
        total += Fraction(i % 97 + 1, i % 89 + 2)
        key = (i % 13, i % 7)
        seen[key] = seen.get(key, 0) + 1
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the machine's speed with probe() from a SIGALRM timer.

    The handler runs between bytecodes of whatever the main thread is doing,
    so samples also fall inside long operations; their time is taken out of
    the operation's time.  A workload whose operations run in a subprocess
    pauses sampling during each operation, because the probe would compete
    with the subprocess for the CPU, and takes one sample after it.
    """

    def __init__(self, interval: float = PROBE_INTERVAL_S):
        self.interval = interval
        self.at: list[float] = []
        self.took: list[float] = []
        self.busy = 0.0  # seconds spent in probes
        self.paused = False

    def _tick(self, signum, frame) -> None:
        if not self.paused:
            self.sample()

    def sample(self) -> None:
        took = probe()
        self.at.append(time.perf_counter())
        self.took.append(took)
        self.busy += took

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self._tick(signal.SIGALRM, None)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mean_near(self, t0: float, t1: float) -> float:
        """Mean probe time over the samples within one interval of [t0, t1]."""
        lo = bisect_left(self.at, t0 - self.interval)
        hi = bisect_right(self.at, t1 + self.interval)
        return statistics.fmean(self.took[lo:hi] or self.took[max(0, lo - 1):lo + 1])

    def scaled(self, seconds: float, t0: float, t1: float) -> float:
        """`seconds` measured over [t0, t1], at the speed where probe() takes PROBE_REF_S."""
        return seconds * PROBE_REF_S / self.mean_near(t0, t1)


def one_op(w, k: int, trace=None, speed=None):
    """Run, time and check operation k; with `trace` = (tracer, bindings), traced.

    Returns (seconds, start, end, digest item, error); seconds excludes the
    time spent in speed probes.
    """
    item = error = None
    if trace is not None:
        tracer, bindings = trace
        bindings.on()
        w.traced = True
        tracer.op = k
        tracer.enabled = True
    if speed is not None:
        speed.paused = not w.in_process
        busy = speed.busy
    t0 = time.perf_counter()
    try:
        out = w.op(k)
    except Exception:
        error = traceback.format_exc(limit=3)
    finally:
        t1 = time.perf_counter()
        seconds = t1 - t0
        if speed is not None:
            seconds -= speed.busy - busy
            if speed.paused:
                speed.paused = False
                speed.sample()
        if trace is not None:
            tracer.enabled = False
            w.traced = False
            bindings.off()
    if error is None:
        try:
            item = w.check(k, out)
        except Exception:
            error = traceback.format_exc(limit=3)
    return seconds, t0, t1, item, error


def run_ops(w, budget: float, min_ops: int, trace=None, speed=None) -> dict:
    """Closed loop, one client: operations 0, 1, ... one at a time.

    Runs until at least `min_ops` operations are done and another pass over
    the workload's corpus would end further past the budget than stopping
    now falls short of it.  With `trace`, each operation runs twice, plain
    and traced, in alternating order.
    """
    times, spans, traced_times, items, errors = [], [], [], [], []
    start = time.perf_counter()
    k = 0
    while True:
        if k and k % w.pass_len == 0 and k >= min_ops:
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed * w.pass_len / k >= budget:
                break
        order = (False,) if trace is None else ((False, True) if k % 2 == 0 else (True, False))
        for traced in order:
            seconds, t0, t1, item, error = one_op(w, k, trace if traced else None, speed)
            if traced:
                traced_times.append(seconds)
            else:
                times.append(seconds)
                spans.append((t0, t1))
                items.append(f"{k}:FAILED" if error else f"{k}:{item}")
            if error:
                errors.append(error)
        k += 1
    return {"ops": k, "times": times, "spans": spans, "traced_times": traced_times,
            "items": items, "errors": errors}


def digest(items) -> str:
    return hashlib.sha256("\n".join(items).encode()).hexdigest()


def setup_samples(args, own: float) -> list:
    """Own set-up time plus fresh-process set-up runs of the same workload."""
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def import_seconds(env) -> float:
    """Median time of `import entsum.cli` in fresh interpreters."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout.strip()))
    return statistics.median(samples)


def declared_metrics(trace: int):
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def latency_metrics(times) -> dict:
    return {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "latency_p50_s": (statistics.median(times), "s"),
        "latency_p90_s": (statistics.quantiles(times, n=10, method="inclusive")[8], "s"),
    }


def measure(args, w, setup_s: float) -> dict:
    """The end-to-end run: set-up samples, then the timed closed loop.

    Each operation's time is scaled to the reference speed by the probes
    around it, which takes out the drift of the machine's speed.
    """
    setups = setup_samples(args, setup_s)
    with SpeedProbe() as speed:
        run = run_ops(w, args.seconds, MIN_OPS, speed=speed)
    raw = run["times"]
    times = [speed.scaled(t, t0, t1) for t, (t0, t1) in zip(raw, run["spans"])]
    metrics = {
        **latency_metrics(times),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    extra = {
        "setup_samples": setups, "samples": len(times),
        "probe_mean_s": statistics.fmean(speed.took), "probe_samples": len(speed.took),
        "unscaled": {k: v for k, (v, _) in latency_metrics(raw).items()},
        "raw_times": raw, "spans": run["spans"], "probe_at": speed.at, "probe_took": speed.took,
    }
    return {"run": run, "metrics": metrics, "extra": extra}


def measure_traced(args, w) -> dict:
    """Each operation plain and traced; per-layer metrics and tracing overhead."""
    from workloads import subprocess_env

    tracer = tracing.Tracer()
    run = run_ops(w, args.seconds, 1, trace=(tracer, tracing.install(tracer)))
    stats = tracer.stats()
    counts = dict(tracer.counts)
    tracing.merge(stats, getattr(w, "child_stats", {}))
    for key, value in getattr(w, "child_counts", {}).items():
        counts[key] += value
    for name, want in w.expected_calls(range(run["ops"])).items():
        got = stats.get(name, {"calls": 0})["calls"]
        if got != want:
            raise RuntimeError(f"traced {name}: {got} calls, the inputs imply {want}")
    plain_s, traced_s = sum(run["times"]), sum(run["traced_times"])
    layer = tracing.layer_metrics(stats, counts, import_seconds(subprocess_env()),
                                  traced_s - plain_s, (traced_s - plain_s) / plain_s)
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"{args.workload}-seed{args.seed}-spans.json")
    metrics = {k: (v["value"], v["unit"]) for k, v in layer.items()}
    extra = {"samples": run["ops"], "plain_s": plain_s, "traced_s": traced_s,
             "dropped_spans": tracer.dropped}
    return {"run": run, "metrics": metrics, "extra": extra}


def main(argv=None) -> int:
    args = parse_args(argv)
    load_at_start = os.getloadavg()
    # one CPU for this process and its children, so the speed probe runs
    # where the operations run
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    if not (ROOT / "src" / "entsum" / "__init__.py").is_file():
        print(f"error: no entsum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        w = WORKLOADS[args.workload](args.seed, work, args.negative_control)
        w.warm_up()
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = measure_traced(args, w) if args.trace else measure(args, w, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    run, metrics = result["run"], result["metrics"]
    declared = declared_metrics(args.trace)
    if declared is not None and declared != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(declared ^ set(metrics))}")
    attempted = len(run["times"]) + len(run["traced_times"])
    failed = len(run["errors"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "negative_control": args.negative_control,
        "env": environment(load_at_start, cpu),
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "digest": digest(run["items"][:DIGEST_OPS]),
        "digest_ops": min(DIGEST_OPS, len(run["items"])),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "errors": run["errors"][:5],
        **result["extra"],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for error in run["errors"][:3]:
        print(error, file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: attempted={attempted} "
          f"failed={failed} failed_frac={failed / attempted:.4f} "
          f"digest={record['digest'][:16]} over {record['digest_ops']} ops", file=sys.stderr)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:48} {value:.6g} {unit}", file=sys.stderr)
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": record["metrics"],
    }))
    if args.negative_control:
        return 0 if failed > 0 else 1
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
