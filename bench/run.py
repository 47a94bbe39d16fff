"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload games-sweep --seed 1 --seconds 20 --trace 0

Workloads: games-sweep, constructions-verify, size-ladder, cli-verbs (see
workloads.py).  Each runs closed-loop in this one process and thread: the
next instance starts when the previous one returns.

With ``--trace 0`` the run sets up the workload several times (re-importing
the library each time), then replays the instance list until ``--seconds``
have passed, and reports the end-to-end metrics named in BENCHMARK.json.
With ``--trace 1`` it sets up once with timing wrappers installed, then
alternates untraced and traced sweeps, and reports the per-layer metrics
and the tracing overhead; spans go to bench/out/.

End-to-end metrics (all times scaled to the reference speed, see Pace):

- setup_s: import, input generation from the seed, fixture parsing and a
  short warm-up; the median of SETUP_REPEATS set-ups.
- sweep_s: one pass over the workload's fixed instance list; the median
  over the sweeps of the run.
- instance_p50_ms, instance_p99_ms: each instance's time is its median over
  the sweeps; p50 is taken over the instances, and "p99" is the highest
  whole percentile (at most 99) with at least ten instances beyond it.
- peak_rss_mb: peak resident set of this process.

Failed instances divided by attempted ones (fail_ratio) are printed with
every failed check by name, and carried by ``attempted`` and ``failed``.
The inputs that show a known defect (workloads.KNOWN_DEFECTS) are not in
the timed sweeps: each run replays them once as probes and prints which
known defects are still present.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``correct`` is false when any
check fails in a sweep, or a probe fails otherwise than by its known defect.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from array import array
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
DEFAULT_SEED = 1
SETUP_REPEATS = 9
WARMUP_INSTANCES = 5
MODULES = ("catalog", "poset_core", "topology", "games", "constructions", "domain_theory",
           "cli", "files", "choquet_mf", "semi_topogenous")


# Every time the benchmark reports is scaled to a fixed interpreter speed.
# On a shared 2-vCPU VM the interpreter's speed drifted by up to 1.7x from
# one run to the next, so a fixed pure-Python reference loop is timed between
# instances, at least every REFERENCE_EVERY_S, and each sweep's times are
# multiplied by REFERENCE_NOMINAL_S / (median reference time during that
# sweep).  The reference uses no library code, so a change to the library
# moves the scaled times by the same proportion as the raw ones.
REFERENCE_EVERY_S = 0.05
REFERENCE_NOMINAL_S = 0.002


def reference_work():
    """Set algebra, dict traffic and small-int bit work, as in the library's loops."""
    table = {}
    acc = 0
    for rep in range(24):
        base = frozenset(range(rep % 7, rep % 7 + 9))
        for i in range(48):
            key = (i * 2654435761 + rep) & 0xFFFF
            table[key & 63] = base | {key & 7}
            acc += len(table[key & 63] & base) + bin(key).count("1")
    return acc


class Pace:
    """Reference-loop samples taken while some measured work runs."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self.last = perf_counter()

    def sample(self):
        start = perf_counter()
        reference_work()
        self.last = perf_counter()
        self.samples.append(self.last - start)
        self.spent += self.last - start

    def maybe_sample(self):
        if perf_counter() - self.last >= REFERENCE_EVERY_S:
            self.sample()

    def factor(self):
        return REFERENCE_NOMINAL_S / statistics.median(self.samples)


class _WarmupDone(Exception):
    pass


class Recorder:
    """Times instances, counts attempts and failed checks for one sweep."""

    def __init__(self, tracer=None, sweep_no=0, limit=None):
        self.times = array("d")
        self.failures = {}
        self.pace = Pace()
        self.tracer = tracer
        self.sweep_no = sweep_no
        self.limit = limit

    def instance(self, label, call):
        if self.limit is not None and len(self.times) >= self.limit:
            raise _WarmupDone
        start = perf_counter()
        try:
            if self.tracer is None:
                failed = call()
            else:
                self.tracer.instance = f"{self.sweep_no}:{len(self.times)}"
                failed = self.tracer.frame(f"instance.{label}", call, (), {})
        except Exception as exc:  # a raising library call is a failed instance
            failed = f"{label}.raised.{type(exc).__name__}"
        self.times.append(perf_counter() - start)
        if failed:
            self.failures[failed] = self.failures.get(failed, 0) + 1
        self.pace.maybe_sample()


def import_library():
    """Import a fresh copy of the library from this checkout's src/."""
    for name in [m for m in sys.modules if m == "posetspace" or m.startswith("posetspace.")]:
        del sys.modules[name]
    package = importlib.import_module("posetspace")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise ImportError(f"posetspace was imported from {package.__file__}, not from {SRC}")
    return argparse.Namespace(**{m: importlib.import_module(f"posetspace.{m}") for m in MODULES})


def warm_up(workload):
    try:
        workload.sweep(Recorder(limit=WARMUP_INSTANCES))
    except _WarmupDone:
        pass


def percentile_rank(n):
    """The highest whole percentile with at least ten of n samples beyond it."""
    return min(99, (100 * (n - 10)) // n)


def nearest_rank(q, n):
    return max(1, -(-q * n // 100))  # ceil(q n / 100)


def percentile(times, q):
    return sorted(times)[nearest_rank(q, len(times)) - 1]


def git_commit():
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as handle:
                head = handle.read().strip()
        return head[:12]
    except OSError:
        return "unknown (not a git checkout)"


def sweep_once(workload, tracer=None, sweep_no=0):
    """Replay the instance list once: (scaled sweep seconds, recorder)."""
    rec = Recorder(tracer, sweep_no)
    rec.pace.sample()
    start = perf_counter()
    workload.sweep(rec)
    wall = perf_counter() - start
    rec.pace.sample()
    return (wall - rec.pace.spent) * rec.pace.factor(), rec


def summarize_failures(recs, workload, known):
    """Print every failed check by name: (attempted, failed, correct, known defects present).

    The workload's known-defect probes run once here, untimed.  A probe that
    fails with a known defect's check is reported as that defect, still
    present; any other failure, in a sweep or a probe, counts as failed.
    """
    probe = Recorder()
    for label, call in getattr(workload, "probes", list)():
        probe.instance(label, call)
    failures = {}
    for rec in recs:
        for name, count in rec.failures.items():
            failures[name] = failures.get(name, 0) + count
    present = {name: count for name, count in probe.failures.items() if name in known}
    for name, count in probe.failures.items():
        if name not in known:
            failures[name] = failures.get(name, 0) + count
    attempted = sum(len(rec.times) for rec in recs) + len(probe.times)
    failed = sum(failures.values())
    for name in sorted(failures):
        print(f"failed check {name}: {failures[name]} in the run (UNEXPECTED)")
    for name in sorted(present):
        print(f"known defect {name}: present in {present[name]} of {len(probe.times)} probes ({known[name]})")
    return attempted, failed, failed == 0, sum(present.values())


def run_plain(args, workloads, spec):
    setups, raw_setups = [], []
    workload = None
    for _ in range(SETUP_REPEATS):
        # free the previous copy now, so the peak resident set holds one
        # copy of the library and its inputs, not a GC-timing-dependent few
        workload = None
        gc.collect()
        pace = Pace()
        for _ in range(3):
            pace.sample()
        start = perf_counter()
        lib = import_library()
        workload = workloads.WORKLOADS[args.workload](lib, args.seed)
        warm_up(workload)
        raw_setups.append(perf_counter() - start)
        for _ in range(3):
            pace.sample()
        setups.append(raw_setups[-1] * pace.factor())
    sweeps, recs = [], []
    start = perf_counter()
    while not sweeps or perf_counter() - start < args.seconds:
        seconds, rec = sweep_once(workload)
        sweeps.append(seconds)
        recs.append(rec)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # each instance's time is its median over the sweeps, which keeps the
    # host's bursts out of the tail; p50 and p99 are taken over instances
    per_instance = [statistics.median(column) for column in
                    zip(*([t * r.pace.factor() for t in r.times] for r in recs))]
    q = percentile_rank(workload.size)
    values = {
        "setup_s": statistics.median(setups),
        "sweep_s": statistics.median(sweeps),
        "instance_p50_ms": 1000 * statistics.median(per_instance),
        "instance_p99_ms": 1000 * percentile(per_instance, q),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} set-ups",
        "sweep_s": f"median of {len(sweeps)} sweeps",
        "instance_p50_ms": (f"p50 over {workload.size} instances, each timed as its median "
                            f"over {len(recs)} sweeps"),
        "instance_p99_ms": (f"p{q}, the highest percentile with >= 10 of the {workload.size} "
                            f"instances beyond it, {workload.size - nearest_rank(q, workload.size)} beyond"),
        "peak_rss_mb": "peak resident set of this process at the end of the sweeps",
    }
    speed = statistics.median(r.pace.factor() for r in recs)
    print(f"times are scaled to the reference speed; this run's median scale factor is {speed:.4f} "
          f"(raw median set-up {statistics.median(raw_setups):.4f} s)")
    attempted, failed, correct, _ = summarize_failures(recs, workload, workloads.KNOWN_DEFECTS)
    print(f"fail_ratio: {failed / attempted:.6f} (1) = {failed} failed of {attempted} attempted")
    metrics = {}
    for m in spec["end_to_end"]:
        value = values[m["name"]]
        print(f"{m['name']}: {value:.6g} {m['unit']} ({notes[m['name']]})")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return correct, attempted, failed, metrics


def run_traced(args, workloads, tracing, spec):
    lib = import_library()
    tracer = tracing.Tracer()
    tracer.prepare(lib)
    tracer.install()
    tracer.instance = "setup"
    pace = Pace()
    pace.sample()
    workload = tracer.frame("setup", workloads.WORKLOADS[args.workload], (lib, args.seed), {})
    pace.sample()
    setup_layers = tracing.scaled(tracing.layer_values(({}, {}), tracer.snapshot()), pace.factor())
    tracer.uninstall()
    warm_up(workload)  # untraced, so the layer values are the set-up and one sweep exactly
    untraced, traced, recs, per_sweep = [], [], [], []
    start = perf_counter()
    while not traced or perf_counter() - start < args.seconds:
        tracer.uninstall()
        seconds, rec = sweep_once(workload)
        untraced.append(seconds)
        recs.append(rec)
        tracer.install()
        before = tracer.snapshot()
        seconds, rec = sweep_once(workload, tracer, len(traced))
        per_sweep.append(tracing.scaled(tracing.layer_values(before, tracer.snapshot()), rec.pace.factor()))
        traced.append(seconds)
        recs.append(rec)
    tracer.uninstall()
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    span_path = os.path.join(workloads.OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
    tracer.write_spans(span_path)

    # per-layer values cover the traced set-up plus one traced sweep
    # (each key's median over the traced sweeps)
    layers = dict(setup_layers)
    for key in set().union(*per_sweep):
        layers[key] = layers.get(key, 0) + statistics.median(s.get(key, 0) for s in per_sweep)
    attempted, failed, correct, present = summarize_failures(recs, workload, workloads.KNOWN_DEFECTS)
    layers["fail_ratio"] = failed / attempted
    layers["known_defects.present"] = present
    layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)

    print(f"per-layer values: traced set-up plus the median traced sweep "
          f"({len(traced)} traced, {len(untraced)} untraced sweeps); {len(tracer.spans)} spans in {span_path}")
    for key in sorted(layers):
        if not key.startswith(("instance.", "setup.")):
            print(f"  {key:64s} {layers[key]:.6g}")
    print(f"tracing overhead: {layers['trace.overhead_s']:.4f} s a sweep "
          f"(traced sweep_s {statistics.median(traced):.4f} s - untraced {statistics.median(untraced):.4f} s)")
    metrics = {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]} for m in spec["per_layer"]}
    return correct, attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # str hashes, and with them set and dict iteration order, are random per
    # process; let the workload seed choose them too
    if os.environ.get("PYTHONHASHSEED") != str(args.seed % 4294967296):
        os.environ["PYTHONHASHSEED"] = str(args.seed % 4294967296)
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:])

    os.chdir(ROOT)
    if not os.path.isdir(os.path.join(SRC, "posetspace")):
        print(f"no library source at {SRC}/posetspace", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"python {platform.python_version()}  host {platform.node()}  nproc {len(os.sched_getaffinity(0))}  "
          f"commit {git_commit()}")
    if args.trace:
        correct, attempted, failed, metrics = run_traced(args, workloads, tracing, spec)
    else:
        correct, attempted, failed, metrics = run_plain(args, workloads, spec)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
