#!/usr/bin/env python3
"""Benchmark for rankone: closed-loop CLI workloads, untraced and traced.

Run from the root of a rankone checkout:

    python3 perfbench/run.py --workload exact-scan --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seconds 25         # every workload in turn
    python3 perfbench/run.py --freeze-golden            # re-freeze seed-0 digests

One single-threaded process serves one workload.  It acts as one closed-loop
client: it calls `rankone.cli.run_argv` (or, for `abc_decompose`, the library)
for each op in turn, and repeats passes over the op list for `--seconds`.
Each op is timed from outside and its outputs are checked.  With `--trace 1`
one third of the time runs untraced, then the layers are wrapped (see
tracing.py) and the rest runs traced.  The report prints a table per workload.
The last line of standard output is one JSON object: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`.  NOTES.md explains
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from time import perf_counter

import tracing
import workloads
from checks import (GOLDEN, combined_digest, cross_checks, file_digests, load_golden,
                    manifest_problem)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

SETUP_SAMPLES = 9
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import rankone.cli\n"
    "print(time.perf_counter() - t, rankone.cli.__file__)\n"
)
# after each op, reference chunks run until their time reaches this share of
# the op's time, so they sample the machine's speed across the pass
REF_SHARE = 0.15
RSS_METHOD = "resource.getrusage(RUSAGE_SELF).ru_maxrss after the last pass (KiB on Linux)"

CMD_METRICS = ("verify-pj", "rigid-chacon", "correlate", "katok", "sarnak", "primepair",
               "suspend", "freq", "cocycle")

# layers that should do most of each workload's work (label prefixes)
HOT_LAYERS = {
    "exact-scan": ("correlations.correlation.exact",),
    "sampled-reads": ("correlations.correlation.sampled", "blocks.extract"),
    "orbit-averages": ("sarnak.",),
    "exact-laws": ("odometer.", "limits.", "blocks.count_occurrences",
                   "blocks.count_overlapping"),
}

END_TO_END = (("wall_ref", "ref"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))

WORK_NAMES = {
    "correlations.correlation.exact": "positions",
    "correlations.correlation.sampled": "samples",
    "blocks.extract": "symbols",
    "blocks.materialize": "symbols",
}
SARNAK = ("mobius_sieve", "orbit_word", "cylinder_sarnak_averages", "prime_power_averages",
          "suspension_values", "partial_averages")
NAMED_LAYERS = (
    ["correlations.correlation.exact", "correlations.correlation.sampled",
     "blocks.materialize", "blocks.extract", "blocks.frequency", "blocks.count_occurrences",
     "blocks.abc_decompose", "odometer.cocycle_distribution.convolution",
     "odometer.cocycle_distribution.enumerate"]
    + [f"limits.{n}" for n in ("limit_distribution", "certify_powers", "detect_stabilizing",
                               "classify", "eigenvalue_search")]
    + [f"sarnak.{n}" for n in SARNAK]
    + ["construction.load_construction", "construction.heights"]
)
EXITS = ("0", "2", "3", "exception")

# the per-layer metrics printed in the JSON line with --trace 1 (BENCHMARK.json);
# times are listed only where every workload makes them non-zero
PER_LAYER = (
    [("wall_s.traced", "s"), ("trace.overhead_s", "s"), ("hot_layers.self_s", "s"),
     ("hot_layers.share", "%"), ("cli.run_argv.self_s", "s"),
     ("construction.load_construction.self_s", "s"), ("blocks.extract.self_s", "s"),
     ("blocks.extract.us_per_call", "us"),
     ("correlations.correlation.exact.positions", "count"),
     ("correlations.correlation.exact.rescan_frac", "frac"),
     ("correlations.correlation.sampled.samples", "count"),
     ("blocks.materialize.symbols", "count"), ("blocks.extract.symbols", "count")]
    + [(f"{label}.calls", "count") for label in NAMED_LAYERS]
    + [(f"sarnak.{n}.steps", "count") for n in SARNAK]
    + [("cli.bytes_written", "B")]
    + [(f"cli.exit.{e}", "count") for e in EXITS]
)


def environment():
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "rss": RSS_METHOD,
        "processes": "one workload process at a time; set-up imports run one by one",
    }


def reference_chunk():
    """Fixed pure-Python work independent of rankone: dict, str, int and
    Fraction operations, a few milliseconds.  Its time tracks the current
    speed of the machine."""
    rng = random.Random(7)
    counts = {}
    parts = []
    total = 0
    for i in range(4000):
        k = rng.randrange(1000)
        counts[k] = counts.get(k, 0) + i
        parts.append(str(k))
        total += i * i % 7
    "".join(parts).find("99999")
    acc = Fraction(0)
    for i in range(1, 60):
        acc += Fraction(1, i)
    return total, acc


def high_percentile(samples):
    """(p, value) for the highest of p99.9..p50 with at least ten samples
    beyond it, or None when there are too few samples."""
    n = len(samples)
    ordered = sorted(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100 - p) / 100 >= 10:
            return p, ordered[max(0, math.ceil(p / 100 * n) - 1)]
    return None


# ----------------------------------------------------------------------------
# Executing and checking ops
# ----------------------------------------------------------------------------


class Runner:
    """Executes ops in the current directory and checks their outputs."""

    def __init__(self, golden=None):
        import rankone.cli
        from rankone.errors import InputError, Refusal

        self.cli = rankone.cli
        self.input_error, self.refusal = InputError, Refusal
        self.golden = golden
        self.first_digest = {}

    @staticmethod
    def outdir(op):
        return os.path.join("out", op.id)

    def execute(self, op):
        """Run one op; its time covers the call alone, never the checks."""
        outdir = self.outdir(op)
        shutil.rmtree(outdir, ignore_errors=True)
        os.makedirs(outdir)
        detail = ""
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                if op.argv is not None:
                    code, _ = self.cli.run_argv(op.argv, outdir=outdir)
                else:
                    doc = op.lib()
                    with open(os.path.join(outdir, op.lib.__name__ + ".json"), "w",
                              encoding="utf-8") as fh:
                        json.dump(doc, fh, sort_keys=True, indent=1)
                    code = 0
        except self.input_error as exc:
            code, detail = 2, str(exc)
        except self.refusal as exc:
            code, detail = 3, str(exc)
        except Exception as exc:  # the op failed; the benchmark goes on and reports it
            code, detail = "exception", f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
        result = self._check(op, outdir, seconds, code, detail)
        result["ref"] = ref = []
        gc.disable()  # keep the program's heap out of the reference's time
        try:
            while not ref or sum(ref) < REF_SHARE * seconds:
                start = perf_counter()
                reference_chunk()
                ref.append(perf_counter() - start)
        finally:
            gc.enable()
        return result

    def _check(self, op, outdir, seconds, code, detail):
        digests = file_digests(outdir)
        digest = combined_digest(digests)
        problem = None
        if code != 0:
            problem = f"exit {code} {detail}".strip()
        elif op.argv is not None:
            problem = manifest_problem(outdir, digests)
        if problem is None and self.golden is not None:
            want = self.golden.get(op.id)
            if want is None:
                problem = "no golden digest for this op"
            elif want["exit"] != code or want["outputs"] != digests:
                problem = f"outputs differ from the golden digests ({digest})"
        if problem is None and self.first_digest.setdefault(op.id, digest) != digest:
            problem = "outputs changed between passes"
        size = sum(os.path.getsize(os.path.join(outdir, f)) for f in os.listdir(outdir))
        return {"id": op.id, "command": op.command, "seconds": seconds, "exit": code,
                "detail": detail, "digests": digests, "digest": digest, "bytes": size,
                "problem": problem}


def run_passes(runner, ops, budget, tracer=None, first=0):
    """Whole passes over `ops` while the next one is expected to fit in `budget`
    seconds; at least one."""
    passes = []
    start = perf_counter()
    while True:
        results = []
        for k, op in enumerate(ops):
            if tracer is not None:
                tracer.begin_op((first + len(passes), k))
            results.append(runner.execute(op))
        passes.append(results)
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(passes) > budget:
            return passes


def pass_wall(results):
    return sum(r["seconds"] for r in results)


def pass_wall_ref(results):
    """The pass's time in units of the mean reference chunk timed alongside."""
    chunks = [t for r in results for t in r["ref"]]
    return pass_wall(results) / (sum(chunks) / len(chunks))


def measure_setup():
    """Seconds to import rankone.cli in fresh processes, run one at a time;
    the first import compiles bytecode and is discarded."""
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=120, check=True)
        seconds, path = out.stdout.split()
        if not path.startswith(SRC):
            raise RuntimeError(f"set-up imported rankone from {path}, not {SRC}")
        if i:
            samples.append(float(seconds))
    return samples


# ----------------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------------


def end_to_end(passes, probe, setup, peak_rss_mb):
    """Samples of each end-to-end metric (lists), plus the fail fraction."""
    samples = {"wall_ref": [pass_wall_ref(p) for p in passes],
               "wall_s": [pass_wall(p) for p in passes], "setup_s": setup,
               "peak_rss_mb": [peak_rss_mb]}
    for cmd in CMD_METRICS:
        if any(r["command"] == cmd for r in passes[0]):
            samples[f"cmd.{cmd}_s"] = [
                sum(r["seconds"] for r in p if r["command"] == cmd) for p in passes
            ]
    attempted = sum(len(p) for p in passes)
    failed = sum(r["problem"] is not None for p in passes for r in p)
    if probe is not None:
        attempted += 1
        failed += probe["exit"] != 0
    return samples, failed / attempted


def layer_metrics(tracer, passes, first, untraced_ref, workload, probe):
    """Median over traced passes of every named per-layer metric, plus the
    full per-label table for the report.  The tracing overhead is the traced
    minus the untraced pass time, both in reference units (so the machine's
    speed cancels), converted to seconds at the traced passes' chunk time."""
    per_pass = []
    tables = []
    for i, results in enumerate(passes):
        ops = {(first + i, k) for k in range(len(results))}
        totals, extra = tracer.layer_totals(ops)
        wall = pass_wall(results)
        m = {"wall_s.traced": wall}
        for label in NAMED_LAYERS + ["cli.run_argv"]:
            calls, busy, self_s, work = totals.get(label, (0, 0.0, 0.0, 0))
            m[f"{label}.calls"] = calls
            m[f"{label}.self_s"] = self_s
            if label in WORK_NAMES:
                m[f"{label}.{WORK_NAMES[label]}"] = work
            elif label.startswith("sarnak."):
                m[f"{label}.steps"] = work
        exact = totals.get("correlations.correlation.exact", (0, 0.0, 0.0, 0))
        m["correlations.correlation.exact.ns_per_position"] = (
            exact[2] / exact[3] * 1e9 if exact[3] else 0.0)
        m["correlations.correlation.exact.rescan_frac"] = (
            extra["rescans"] / exact[0] if exact[0] else 0.0)
        for side in ("in_cap", "beyond_cap"):
            busy, samples = extra[side]
            m[f"correlations.correlation.sampled.us_per_sample.{side}"] = (
                busy / samples * 1e6 if samples else 0.0)
        calls = m["blocks.extract.calls"]
        m["blocks.extract.us_per_call"] = (
            totals["blocks.extract"][1] / calls * 1e6 if calls else 0.0)
        steps = m["sarnak.prime_power_averages.steps"]
        m["sarnak.prime_power_averages.us_per_step"] = (
            m["sarnak.prime_power_averages.self_s"] / steps * 1e6 if steps else 0.0)
        hot = sum(t[2] for label, t in totals.items() if label.startswith(HOT_LAYERS[workload]))
        m["hot_layers.self_s"] = hot
        m["hot_layers.share"] = 100 * hot / wall
        m["cli.bytes_written"] = sum(r["bytes"] for r in results)
        for e in EXITS:
            m[f"cli.exit.{e}"] = sum(str(r["exit"]) == e for r in results) + (
                probe is not None and str(probe["exit"]) == e)
        per_pass.append(m)
        tables.append(totals)
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    traced_ref = statistics.median(map(pass_wall_ref, passes))
    chunk_s = statistics.median(pass_wall(p) / pass_wall_ref(p) for p in passes)
    metrics["trace.overhead_s"] = (traced_ref - untraced_ref) * chunk_s
    labels = sorted({label for t in tables for label in t})
    table = {
        label: [statistics.median(t.get(label, (0, 0.0, 0.0, 0))[j] for t in tables)
                for j in range(4)]
        for label in labels
    }
    return metrics, table


# ----------------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------------


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def print_end_to_end(samples, fail_frac):
    units = dict(END_TO_END, wall_s="s")
    print(f"{'metric':<22} {'median':>12} {'high pct':>20} {'n':>4}  unit")
    for name, values in samples.items():
        high = high_percentile(values)
        high = f"p{high[0]:g}={high[1]:.6g}" if high else "- (n < 20)"
        unit = units.get(name, "s")
        print(f"{name:<22} {statistics.median(values):>12.6g} {high:>20} {len(values):>4}  {unit}")
    print(f"{'fail_frac':<22} {fail_frac:>12.6g} {'':>20} {'':>4}  failed/attempted ops")


def print_layers(metrics, table, workload):
    wall = metrics["wall_s.traced"]
    print(f"traced wall_s {wall:.6g} s per pass; tracing overhead "
          f"{metrics['trace.overhead_s']:.6g} s; hot layers {HOT_LAYERS[workload]} "
          f"{metrics['hot_layers.share']:.3g}% of wall_s")
    print(f"{'layer':<45} {'self_s':>10} {'share':>7} {'calls':>9} {'work':>12} "
          f"{'us/work':>9}")
    for label, (calls, _, self_s, work) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        ratio = f"{self_s / work * 1e6:.4g}" if work else "-"
        print(f"{label:<45} {self_s:>10.4g} {100 * self_s / wall:>6.2f}% {calls:>9g} "
              f"{work:>12g} {ratio:>9}")
    print("named per-layer metrics (median per traced pass):")
    for name in sorted(metrics):
        print(f"  {name} = {_fmt(metrics[name])}")


# ----------------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------------


def run_workload(workload, seed, seconds, trace):
    setup = measure_setup() if not trace else None
    golden = None
    if seed == workloads.DEFAULT_SEED:
        golden = load_golden()
        if golden is None:
            raise RuntimeError("perfbench/golden.json is missing; run --freeze-golden")
        golden = golden[workload]
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    try:
        os.chdir(workdir)
        ops = workloads.build(workload, seed)
        runner = Runner(golden)
        tracer = None
        if trace:
            start = perf_counter()
            base = run_passes(runner, ops, seconds / 3)
            tracer = tracing.Tracer()
            tracer.install()
            passes = run_passes(runner, ops, seconds - (perf_counter() - start), tracer,
                                first=len(base))
        else:
            passes = run_passes(runner, ops, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        probe = None
        if workload == "orbit-averages":
            if tracer is not None:
                tracer.begin_op("probe")
            probe = Runner().execute(workloads.known_failure_probe(seed))
        problems = cross_checks(ops, Runner.outdir)
        os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
        stem = os.path.join(WORK, "results", f"{workload}-seed{seed}-trace{int(trace)}")
        if tracer is not None:
            tracer.write(stem + "-spans.jsonl")
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)

    all_results = [r for p in passes for r in p]
    failed = [r for r in all_results if r["problem"] is not None]
    correct = not failed and not problems
    print(f"== rankone benchmark: workload {workload}, seed {seed}, {seconds} s, "
          f"trace {'on' if trace else 'off'} ==")
    print("environment: " + json.dumps(environment()))
    base_note = f"{len(base)} untraced and " if trace else ""
    print(f"{base_note}{len(passes)} passes of {len(ops)} ops, one closed-loop client")
    for r in passes[-1]:
        print(f"digest {r['id']} exit={r['exit']} {r['digest']} {r['seconds']:.4f}s")
    if probe is not None:
        status = ("known failure reproduced" if probe["exit"] == "exception"
                  else "known failure did not reproduce")
        print(f"probe suspend.cyl exit={probe['exit']} ({status}): {probe['detail']}")
    for r in failed[:10]:
        print(f"FAILED {r['id']}: {r['problem']}")
    for p in problems:
        print(f"CROSS-CHECK FAILED {p}")
    if golden is not None:
        print("golden digests: " + ("all match" if not failed else "MISMATCH"))
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(), "passes": len(passes), "correct": correct,
              "cross_check_problems": problems,
              "digests": {r["id"]: r["digests"] for r in passes[-1]}}
    if trace:
        untraced = statistics.median(map(pass_wall_ref, base))
        metrics, table = layer_metrics(tracer, passes, len(base), untraced, workload, probe)
        print_layers(metrics, table, workload)
        record.update(layers=table, metrics=metrics)
        out = {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        samples, fail_frac = end_to_end(passes, probe, setup, peak_rss_mb)
        print_end_to_end(samples, fail_frac)
        record.update(samples=samples, fail_frac=fail_frac)
        out = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in END_TO_END}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps({"correct": correct, "attempted": len(all_results),
                      "failed": len(failed), "metrics": out}))
    return 0


def freeze_golden():
    """Write golden.json: one pass of every workload at the default seed."""
    golden = {}
    os.makedirs(WORK, exist_ok=True)
    for workload in workloads.WORKLOADS:
        workdir = tempfile.mkdtemp(prefix="golden-", dir=WORK)
        try:
            os.chdir(workdir)
            ops = workloads.build(workload, workloads.DEFAULT_SEED)
            runner = Runner()
            results = [runner.execute(op) for op in ops]
            bad = [r for r in results if r["problem"]] + cross_checks(ops, Runner.outdir)
            if bad:
                raise RuntimeError(f"{workload}: not freezing failing outputs: {bad}")
            golden[workload] = {r["id"]: {"exit": r["exit"], "outputs": r["digests"]}
                                for r in results}
        finally:
            os.chdir(ROOT)
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{workload}: {len(results)} ops frozen")
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=workloads.WORKLOADS)
    mode.add_argument("--all", action="store_true", help="every workload, one after another")
    mode.add_argument("--freeze-golden", action="store_true")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rankone", "cli.py")):
        print(f"perfbench: no rankone sources under {SRC}; run from a rankone checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import rankone

    if not os.path.abspath(rankone.__file__).startswith(SRC):
        print(f"perfbench: imported rankone from {rankone.__file__}", file=sys.stderr)
        return 2
    if args.freeze_golden:
        return freeze_golden()
    if args.all:
        for workload in workloads.WORKLOADS:
            code = subprocess.call([sys.executable, os.path.abspath(__file__), "--workload",
                                    workload, "--seed", str(args.seed), "--seconds",
                                    str(args.seconds), "--trace", str(args.trace)])
            if code:
                return code
        return 0
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
