"""Benchmark of the match_ybo command line on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`, not installed. The last line of stdout is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`; the line before it
records the run (Python version, CPU count, revision, seed, input digest,
per-command medians). Progress and failures go to stderr.

--trace 0 runs every command of the workload as a `python -m match_ybo.cli`
subprocess, one at a time (a closed loop with one client), in passes until
S seconds are used, and reports the end-to-end metrics. --trace 1 runs the
same commands in this process through `match_ybo.cli.main`, alternating
untraced and traced passes, and reports per-layer metrics of the traced
passes, per pass, with the tracing overhead. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "perfbench", "_work")
SETUP_REPS = 3  # before the measured calls, and as many again after them
IMPORT_REPS = 5
CALL_TIMEOUT_S = 60

# name -> unit; the same lists as BENCHMARK.json. A "probe" is one run of
# host_probe() on the same CPU just before and after the call.
END_TO_END = {
    "setup_s": "s",
    "wall_ref": "probe",
    "call_p50_ref": "probe",
    "call_p90_ref": "probe",
    "peak_rss_mb": "MB",
}


def per_layer_names():
    names = {
        "scalars.parse_s": "s", "scalars.format_s": "s",
        "diagrams.enumerate_s": "s", "diagrams.perm_s": "s",
        "matchcat.compose_s": "s", "matchcat.kron_s": "s", "matchcat.sparse_sub_s": "s",
        "matchcat.restrict_s": "s", "matchcat.json_s": "s", "matchcat.level3_nnz": "count",
        "recipe.rec_s": "s", "recipe.rec_setup_s": "s",
        "ybe.direct_s": "s", "ybe.direct_self_s": "s",
        "ybe.constraints_s": "s", "ybe.constraints_self_s": "s",
        "ybe.subsets_s": "s", "ybe.subsets_self_s": "s",
        "ybe.subsets_checked": "count", "ybe.relation_images": "count", "ybe.witnesses": "count",
        "classify.classify_s": "s", "classify.certificate_s": "s", "classify.recover_s": "s",
        "signature.spectrum_s": "s",
        "oracle.scan_allslash_s": "s", "oracle.scan_rest_s": "s",
        "oracle.vectors_tested": "count", "oracle.hits": "count", "oracle.hit_ratio": "ratio",
        "cli.import_s": "s",
    }
    names.update({f"selftest.{c}_s": "s" for c in spans.SELFTEST_CHECKS})
    names.update({f"self.{layer}_s": "s" for layer in spans.LAYERS})
    names.update({"trace.wall_s": "s", "trace.untraced_wall_s": "s",
                  "trace.overhead_s": "s", "trace.unaccounted_share": "ratio"})
    return names


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "MATCH_YBO_SEED"}
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------- running


def host_probe():
    """Seconds taken by a fixed pure-Python computation that does not touch
    match_ybo: exact fractions stored in a dict, then an integer loop.

    The host is shared, and the same call can take twice as long a few
    seconds later. A probe run on the same CPU next to a call slows down with
    it, so the call's time divided by the probes around it is much steadier
    from run to run than the time itself."""
    t0 = time.perf_counter()
    table = {}
    for k in range(3000):
        table[(k % 97, k)] = Fraction(k + 1, 7) * Fraction(3, k + 2) + Fraction(k % 5)
    x = 0
    for k in range(100000):
        x += k * k % 7
    return time.perf_counter() - t0


class Runner:
    """Runs operations, checks their output and keeps per-op samples."""

    def __init__(self):
        self.samples = {}  # op name -> seconds per call
        self.timeline = []  # (op name, seconds, probe seconds just before), in call order
        self.attempted = 0
        self.failed = 0

    def record(self, op, seconds, rc, out, err):
        self.attempted += 1
        try:
            problem = op.check(rc, out, err)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            problem = f"unexpected output ({type(exc).__name__}: {exc}): {out[:120]!r}"
        if problem:
            self.failed += 1
            log(f"FAIL {op.name}: {problem}")
        self.samples.setdefault(op.name, []).append(seconds)

    def subprocess_call(self, op, env):
        probe = host_probe()
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "match_ybo.cli", *op.argv],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=CALL_TIMEOUT_S,
            )
            rc, out, err = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired:
            rc, out, err = None, "", f"timed out after {CALL_TIMEOUT_S}s"
        seconds = time.perf_counter() - t0
        self.timeline.append((op.name, seconds, probe))
        self.record(op, seconds, rc, out, err)

    def normalised(self, last_probe):
        """(op name, seconds, ratio) for each subprocess call in call order,
        the ratio being its time over the mean of the probes run just before
        and just after it."""
        after = [p for _, _, p in self.timeline[1:]] + [last_probe]
        return [(name, seconds, seconds / ((before + nxt) / 2))
                for (name, seconds, before), nxt in zip(self.timeline, after)]

    def inprocess_call(self, op):
        """`match_ybo.cli.main(argv)` with stdout and stderr captured, after
        clearing every function cache, so each call starts as cold as a
        fresh process would."""
        for mod in [m for n, m in sys.modules.items() if n.startswith("match_ybo.")]:
            for value in list(vars(mod).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = spans.library_module("cli").main(list(op.argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # recorded as a failure of this op
                rc = None
                traceback.print_exc()
        self.record(op, time.perf_counter() - t0, rc, out.getvalue(), err.getvalue())


def run_for(seconds, step, cost, min_steps):
    """Call step(0), step(1), ... until `min_steps` are done and step i,
    whose time cost(i) estimates, would likely end after `seconds`.
    Returns the number of steps run."""
    start = time.perf_counter()
    i = 0
    while i < min_steps or time.perf_counter() - start + cost(i) <= seconds:
        step(i)
        i += 1
    return i


def fresh_workdir():
    path = os.path.join(WORK, str(os.getpid()))
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def input_digest(workdir, ops):
    """sha256 of the command lines (work directory elided) and input files."""
    h = hashlib.sha256()
    for op in ops:
        h.update(json.dumps(op.argv).replace(workdir, "<work>").encode())
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "match_ybo")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def git_revision():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


# ---------------------------------------------------------------- modes


def run_end_to_end(workload, seed, seconds):
    import workloads

    env = child_env()
    setup_times = []

    def set_up():
        """Write the inputs and start one child that imports the package."""
        t0 = time.perf_counter()
        workdir = fresh_workdir()
        ops = workloads.build(workload, seed, workdir)
        subprocess.run([sys.executable, "-c", "import match_ybo.cli"], cwd=ROOT, env=env,
                       check=True, timeout=CALL_TIMEOUT_S)
        setup_times.append(time.perf_counter() - t0)
        return workdir, ops

    # Set-ups on both sides of the measured calls: the host's speed changes
    # over tens of seconds, and one burst of set-ups would see only one speed.
    for _ in range(SETUP_REPS):
        workdir, ops = set_up()
    digest = input_digest(workdir, ops)
    runner = Runner()

    def step(i):
        runner.subprocess_call(ops[i % len(ops)], env)
        if (i + 1) % len(ops) == 0:
            log(f"pass {(i + 1) // len(ops)}: {runner.attempted} calls, {runner.failed} failed")

    def cost(i):
        return statistics.median(runner.samples[ops[i % len(ops)].name])

    steps = run_for(seconds, step, cost, min_steps=len(ops))
    calls = runner.normalised(host_probe())
    for _ in range(SETUP_REPS):
        set_up()
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def summary(col, unit):
        """From each command's median: their sum (one pass), their 50th and
        90th percentiles, and their sums per kind of command."""
        per_op = {}
        for call in calls:
            per_op.setdefault(call[0], []).append(call[col])
        medians = {name: statistics.median(v) for name, v in per_op.items()}
        by_kind = {}
        for op in ops:
            by_kind[op.kind] = by_kind.get(op.kind, 0.0) + medians[op.name]
        deciles = statistics.quantiles(medians.values(), n=10, method="inclusive")
        return {f"wall_{unit}": sum(medians.values()),
                f"call_p50_{unit}": deciles[4],
                f"call_p90_{unit}": deciles[8],
                f"kind_{unit}": by_kind}

    metrics = summary(2, "ref")
    metrics.update(setup_s=statistics.median(setup_times), peak_rss_mb=rss_kb / 1024)
    detail = summary(1, "s")
    detail.update({
        "passes": steps / len(ops),
        "calls": runner.attempted,
        "kind_ref": metrics.pop("kind_ref"),
        "probe_s": statistics.median(p for _, _, p in runner.timeline),
        "setup_runs_s": setup_times,
        "input_digest": digest,
        "samples_s": runner.samples,
    })
    return runner, metrics, END_TO_END, detail


def _traced_metrics(tr, passes):
    """Per-pass per-layer figures from a tracer that saw `passes` passes."""
    subsets = ("ybe.subsets",)
    m = {
        "scalars.parse_s": tr.total("scalars.parse"),
        "scalars.format_s": tr.total("scalars.format"),
        "diagrams.enumerate_s": tr.total("diagrams.enumerate")
        + tr.total("diagrams.enumerate_multisets", ("diagrams.enumerate",)),
        "diagrams.perm_s": tr.total("diagrams.perm"),
        "matchcat.compose_s": tr.total("matchcat.compose"),
        "matchcat.kron_s": tr.total("matchcat.kron"),
        "matchcat.sparse_sub_s": tr.total("matchcat.sparse_sub"),
        "matchcat.restrict_s": tr.total("matchcat.restrict"),
        "matchcat.json_s": tr.total("matchcat.json_in") + tr.total("matchcat.json_out"),
        "recipe.rec_s": tr.total("recipe.rec"),
        "ybe.direct_s": tr.total("ybe.direct", subsets),
        "ybe.direct_self_s": tr.self_time("ybe.direct", subsets),
        "ybe.constraints_s": tr.total("ybe.constraints"),
        "ybe.constraints_self_s": tr.self_time("ybe.constraints"),
        "ybe.subsets_s": tr.total("ybe.subsets"),
        "ybe.subsets_self_s": tr.self_time("ybe.subsets"),
        "classify.classify_s": tr.total("classify.classify"),
        "classify.certificate_s": tr.spans[("classify.classify", "ybe.constraints")][1],
        "classify.recover_s": sum(tr.total(n) for n in (
            "classify.labels", "classify.recover_nations", "classify.recover_counties",
            "classify.recover_order", "classify.recover_colours")),
        "signature.spectrum_s": tr.total("signature.spectrum"),
        "oracle.scan_allslash_s": tr.total("oracle.scan_allslash"),
        "oracle.scan_rest_s": tr.total("oracle.scan_rest"),
    }
    m.update({f"selftest.{c}_s": tr.total(f"selftest.{c}") for c in spans.SELFTEST_CHECKS})
    m.update({f"self.{layer}_s": tr.layer_self(layer) for layer in spans.LAYERS})
    m = {k: v / passes for k, v in m.items()}
    counts = dict(tr.counts)
    counts["ybe.subsets_checked"] = tr.calls("ybe.direct", "ybe.subsets")
    for name in ("matchcat.level3_nnz", "ybe.relation_images", "ybe.witnesses",
                 "oracle.vectors_tested", "oracle.hits"):
        counts.setdefault(name, 0)
    for name, value in counts.items():
        m[name] = value // passes if value % passes == 0 else value / passes
    vectors = counts["oracle.vectors_tested"]
    m["oracle.hit_ratio"] = counts["oracle.hits"] / vectors if vectors else 0.0
    return m


def run_traced(workload, seed, seconds):
    import workloads

    env = child_env()
    setup_tracer = spans.Tracer()
    with setup_tracer.installed():
        workdir = fresh_workdir()
        ops = workloads.build(workload, seed, workdir)
    digest = input_digest(workdir, ops)
    probe = "import time; t = time.perf_counter(); import match_ybo.cli; print(time.perf_counter() - t)"
    imports = []
    for _ in range(IMPORT_REPS):
        proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env, check=True,
                              capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
        imports.append(float(proc.stdout))

    tracer = spans.Tracer()
    runner = Runner()
    plain, traced = [], []

    def step(i):
        t0 = time.perf_counter()
        if i % 2:
            with tracer.installed():
                for op in ops:
                    runner.inprocess_call(op)
            traced.append(time.perf_counter() - t0)
        else:
            for op in ops:
                runner.inprocess_call(op)
            plain.append(time.perf_counter() - t0)
        log(f"{'traced' if i % 2 else 'plain'} pass: {runner.attempted} calls, {runner.failed} failed")

    def cost(i):
        return statistics.median(traced if i % 2 else plain)

    steps = run_for(seconds, step, cost, min_steps=2)
    metrics = _traced_metrics(tracer, len(traced))
    wall, plain_wall = statistics.median(traced), statistics.median(plain)
    accounted = sum(metrics[f"self.{layer}_s"] for layer in spans.LAYERS)
    metrics.update({
        "recipe.rec_setup_s": setup_tracer.total("recipe.rec"),
        "cli.import_s": statistics.median(imports),
        "trace.wall_s": wall,
        "trace.untraced_wall_s": plain_wall,
        "trace.overhead_s": wall - plain_wall,
        # Layer figures are means per traced pass, so compare with the mean pass.
        "trace.unaccounted_share": 1 - accounted / statistics.mean(traced),
    })
    detail = {
        "passes": steps,
        "traced_passes": len(traced),
        "plain_pass_s": plain,
        "traced_pass_s": traced,
        "input_digest": digest,
    }
    return runner, metrics, per_layer_names(), detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "match_ybo", "cli.py")):
        log(f"no match_ybo sources under {SRC}; run from a source checkout")
        return 2
    sys.path.insert(0, SRC)
    import workloads

    # One CPU for this process and its children, so each probe runs where
    # the calls next to it run.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    mode = run_traced if args.trace else run_end_to_end
    try:
        runner, metrics, units, detail = mode(args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "revision": git_revision(),
        "source_digest": source_digest(),
    }
    if args.trace:
        meta["trace_overhead_s"] = metrics["trace.overhead_s"]
    print(json.dumps({"run": meta, "detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
