"""Run one workload of the twoside-sim benchmark and print its result.

    python3 bench/run.py --workload grid-20x20 --seed 0 --seconds 20 --trace 0

The package is imported from ``src/`` next to this directory, as the tests
do with ``PYTHONPATH=src``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` they are the per-layer ones, and the spans are written to
``bench/out/``.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("lookahead-10x10", "grid-20x20", "etc-2x2", "equilibria-20x20")
IMPORT_CHILDREN = 2      # fresh interpreters timing the import, besides this one
BUILD_SAMPLES = 5
IMPORT_CODE = ("import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
               "import twoside_sim; print(time.perf_counter() - t)")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_package() -> float:
    """Import twoside_sim from src/ and return the time it took."""
    if not (SRC / "twoside_sim" / "__init__.py").is_file():
        raise SystemExit(f"no package source at {SRC.relative_to(ROOT)}/twoside_sim")
    os.environ.pop("TWOSIDE_SIM_THREADS", None)     # the program's own thread default
    sys.path[:0] = [str(SRC), str(BENCH)]
    t0 = time.perf_counter()
    import twoside_sim
    elapsed = time.perf_counter() - t0
    if Path(twoside_sim.__file__).resolve().parent != SRC / "twoside_sim":
        raise SystemExit(f"imported twoside_sim from {twoside_sim.__file__}, not src/")
    return elapsed


def child_import_seconds() -> float:
    proc = subprocess.run([sys.executable, "-c", IMPORT_CODE.format(src=str(SRC))],
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


class Runner:
    """Rounds of one workload: each round runs the timed work once, then
    checks every operation it attempted."""

    def __init__(self, workload, inputs):
        self.workload, self.inputs = workload, inputs
        self.labels = workload.ops(inputs)
        self.known = getattr(workload, "known_failures", {})
        self.attempted = self.failed = self.unexpected = 0
        self.reported: set[str] = set()
        self.tracer = None           # set for traced rounds
        self.layers: list[dict[str, float]] = []

    def round(self):
        """Run and check one round; return its wall time (timed work only)."""
        if self.tracer is not None:
            self.tracer.op = f"round{len(self.layers) + 1}"
            self.tracer.reset_counts()
        t0 = time.perf_counter()
        try:
            out = self.workload.run(self.inputs)
            error = None
        except Exception as err:  # an operation that raises counts as failed
            out, error = None, f"raised {type(err).__name__}: {err}"
        wall = time.perf_counter() - t0
        if error is None:
            try:
                problems = self.workload.check(self.inputs, out)
            except Exception as err:
                problems, error = {}, f"check raised {type(err).__name__}: {err}"
        for label in self.labels:
            issues = [error] if error else problems.get(label, ["no result was produced"])
            self.attempted += 1
            if not issues:
                continue
            self.failed += 1
            known = self.known.get(label)
            expected = bool(known) and all(known in issue for issue in issues)
            self.unexpected += not expected
            if label not in self.reported:
                self.reported.add(label)
                tag = "known failure" if expected else "FAILED"
                print(f"[{self.workload.name}] {tag} {label}: {'; '.join(issues)}",
                      file=sys.stderr)
        if self.tracer is not None:
            spans = [s for s in self.tracer.spans() if s[5] == self.tracer.op]
            self.layers.append(layer_metrics(spans, self.tracer.counts(),
                                             self.written_bytes()))
        return wall

    def written_bytes(self) -> int:
        written = getattr(self.workload, "written_bytes", None)
        return written(self.inputs) if written is not None else 0

    def cleanup(self):
        if hasattr(self.workload, "cleanup"):
            self.workload.cleanup(self.inputs)


def run_rounds(runner, seconds):
    """Whole rounds until the next one would overrun ``seconds``; at least one."""
    walls, start = [], time.perf_counter()
    while True:
        walls.append(runner.round())
        runner.cleanup()
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(walls) > seconds:
            return walls


def layer_metrics(spans, counts, written_bytes) -> dict[str, float]:
    from tracer import WRAPPED, self_times, span_name

    selfs = self_times(spans)
    calls, self_s = Counter(), defaultdict(float)
    names = {}
    for sid, name, *_ in spans:
        calls[name] += 1
        self_s[name] += selfs[sid]
        names[sid] = name
    m = {}
    for module, attribute, how in WRAPPED:
        name = span_name(module, attribute)
        m[f"{name}.calls"] = counts.get(name, 0) if how == "count" else calls[name]
        m[f"{name}.self_s"] = self_s[name]
    m["estimation.least_squares.nfev"] = counts.get("estimation.least_squares.nfev", 0)
    m["dynamics.fixed_point_iterations"] = sum(
        1 for _, name, _, _, parent, _ in spans
        if name == "dynamics.step" and names.get(parent) == "dynamics.find_fixed_point")
    starts = counts.get("dynamics.fixed_point_starts", 0)
    m["dynamics.distinct_fixed_point_ratio"] = (
        counts.get("dynamics.fixed_points_found", 0) / starts if starts else 0.0)
    solves = calls["estimation.least_squares"]
    m["estimation.start_win_ratio"] = (
        calls["estimation.fit_saturating_exp"] / solves if solves else 0.0)
    m["experiment.bytes_written"] = written_bytes
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_samples = [import_package()]
    import workloads
    import_samples += [child_import_seconds() for _ in range(IMPORT_CHILDREN)]

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload]
    builds = []
    for _ in range(BUILD_SAMPLES):
        t0 = time.perf_counter()
        inputs = workload.build(args.seed, scratch)
        builds.append(time.perf_counter() - t0)
    runner = Runner(workload, inputs)

    try:
        if args.trace:
            metrics = traced_run(args, workload, runner, scratch, spec)
        else:
            walls = run_rounds(runner, args.seconds)
            values = {
                "wall_s": statistics.median(walls),
                "setup_s": statistics.median(import_samples) + statistics.median(builds),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
    finally:
        runner.cleanup()
        shutil.rmtree(scratch, ignore_errors=True)
    result = {"correct": runner.unexpected == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n")
    print(json.dumps(result))
    return 0


def traced_run(args, workload, runner, scratch, spec):
    """Untraced rounds for half the time, then traced rounds for the rest.

    Per-layer values are per round (the median over traced rounds), so
    counts do not depend on how many rounds fit in the run.  The set-up is
    built once more under the tracer for the set-up spans.
    """
    from tracer import Tracer

    untraced = run_rounds(runner, args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        runner.inputs = workload.build(args.seed, scratch)
        setup = layer_metrics(tracer.spans(), {}, 0)
        runner.tracer = tracer
        traced = run_rounds(runner, args.seconds / 2)
    finally:
        tracer.uninstall()
        runner.tracer = None
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    if tracer.absent:
        print(f"[{args.workload}] absent, reported as 0: {', '.join(tracer.absent)}",
              file=sys.stderr)
    values = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace.overhead_s":
            values[name] = statistics.median(traced) - statistics.median(untraced)
        elif name == "synthetic.gen_synthetic.self_s":
            values[name] = setup[name]
        elif m["unit"] == "s":
            values[name] = statistics.median(r[name] for r in runner.layers)
        else:   # counts repeat exactly from round to round
            values[name] = statistics.median_low(r[name] for r in runner.layers)
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
