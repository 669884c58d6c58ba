"""Benchmark of `sfcomp`: one workload, one process, end-to-end or per-layer metrics.

    python3 bench/run.py --workload search-lossless --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Inputs come from the seed; the workload's
operation list is repeated as whole passes until `--seconds` is used up and
every operation's answer is checked (see workloads.py). With `--trace 0` the
last stdout line carries setup_s (median over set-ups), wall_s and cpu_s
(mean over passes; see PASS_MEAN) and peak_rss_mb. With `--trace 1` untraced
and traced passes alternate; it carries the per-layer metrics (median over
traced passes) and the tracing overhead, and the spans go to .bench_out/.
Metric names and units, and each workload's rationale, are read from
BENCHMARK.json at the root of the checkout. The line before the last is an
ungated report: failed_frac, found_frac or oracle_gap_bits where they apply,
the source line count, and the first failures. `correct` is false only when
an answer is provably wrong; `failed` also counts misses.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from inputs import GENERATORS
from setup_probe import SRC, timed_setup
from tracer import ACCEPTS, CALLS, CELLS, SELF_S, TOTAL_S, Tracer

ROOT = SRC.parent
OUT = ROOT / ".bench_out"
# setup_s is the median of this process's own set-up and of SETUP_PROBES cold
# set-ups in fresh processes, run after the timed passes.
SETUP_PROBES = 8
# PASS_MEAN: wall_s and cpu_s are the mean pass, i.e. the seconds measured over
# the number of passes, the inverse of operation lists completed per second.
# On a shared 2-core x86-64 VM the mean spread less across ten seeds than the
# median pass in eight of nine workload sets (0.08-0.24 against 0.11-0.26):
# with two to fifteen passes a run, the median throws away more than the
# host's slow spells add. The median is printed in the report line.
PROBE_TIMEOUT_S = 60
SETUP_LAYERS = ("models.parse_model_text",)  # measured during set-up, not per pass


@dataclass
class Pass:
    traced: bool
    wall: float
    cpu: float
    result: object
    stats: dict | None


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "sfcomp").rglob("*.py")))


def probe_setup(workload: str, seed: int) -> float:
    out = subprocess.run([sys.executable, str(Path(__file__).with_name("setup_probe.py")),
                          workload, str(seed)], cwd=ROOT, capture_output=True, text=True,
                         timeout=PROBE_TIMEOUT_S, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def measure(run_pass, prep, seconds: float, tracer: Tracer | None) -> list[Pass]:
    """Whole passes until the run is as close to `seconds` as whole passes get.

    A pass starts only if it would end nearer to `seconds` than stopping now,
    so a workload whose pass is half the run still measures two passes. With a
    tracer, every other pass is traced.
    """
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.reset_stats()
            tracer.install()
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            result = run_pass(prep, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        passes.append(Pass(traced, wall, cpu, result, tracer.stats if traced else None))
        done_traced = tracer is None or any(p.traced for p in passes)
        if done_traced and time.perf_counter() - start + wall / 2 > seconds:
            return passes


def layer_metrics(per_layer: list[dict], passes: list[Pass], setup_stats: dict,
                  missing: list[str]) -> dict:
    """Per-layer figures, median over traced passes."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    out = {}
    for metric in per_layer:
        name, unit = metric["name"], metric["unit"]
        layer, stat = name.rsplit(".", 1)
        if layer == "trace":
            value = (statistics.median(p.wall for p in traced)
                     / statistics.median(p.wall for p in plain) - 1.0)
            out[name] = {"value": value, "unit": unit}
            continue
        hook = "regions.restart" if layer == "regions.objective" else layer
        if hook in missing or (stat == "cells" and f"{layer}.cells" in missing):
            continue  # the hook is gone: an absent metric, not a zero
        sources = [setup_stats] if layer in SETUP_LAYERS else [p.stats for p in traced]
        values = []
        for stats in sources:
            st = stats.get(layer, [0, 0.0, 0.0, 0, 0])
            calls = st[CALLS]
            values.append({
                "calls": calls,
                "self_s": st[SELF_S],
                "cells": st[CELLS],
                "mean_ms": 1e3 * st[TOTAL_S] / calls if calls else 0.0,
                "accept_ratio": st[ACCEPTS] / calls if calls else 0.0,
            }[stat])
        out[name] = {"value": statistics.median(values), "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "sfcomp" / "__init__.py").is_file():
        print(f"error: no sfcomp package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    prep, spec, own_setup = timed_setup(args.workload, args.seed)
    import workloads
    from sfcomp import models

    tracer = setup_stats = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        for text in spec["yaml"]:
            models.parse_model_text(text)
        tracer.uninstall()
        setup_stats, tracer.stats = tracer.stats, {}

    passes = measure(workloads.RUN[args.workload], prep, args.seconds, tracer)

    results = [p.result for p in passes]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    wrong = sum(r.wrong for r in results)
    why = next(w["why"] for w in bench["workloads"] if w["name"] == args.workload)
    report = {"workload": args.workload, "seed": args.seed, "why": why,
              "passes": len(passes), "traced_passes": sum(p.traced for p in passes),
              "pass_wall_s": [round(p.wall, 4) for p in passes],
              "wall_median_s": statistics.median(p.wall for p in passes if not p.traced),
              "failed_frac": failed / attempted, "wrong": wrong, "src_lines": src_lines()}
    if args.workload == "search-lossless":
        report["found_frac"] = min(r.quality["found_frac"] for r in results)
    gaps = [r.quality["oracle_gap_bits"] for r in results if "oracle_gap_bits" in r.quality]
    if gaps:
        report["oracle_gap_bits"] = max(gaps)
    report["failures"] = sorted({f for r in results for f in r.failures})[:5]

    if args.trace:
        metrics = layer_metrics(bench["per_layer"], passes, setup_stats, tracer.missing)
        report["missing_layers"] = tracer.missing
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans, {"workload": args.workload, "seed": args.seed})
        report["spans_file"] = str(spans.relative_to(ROOT))
    else:
        setups = [own_setup] + [probe_setup(args.workload, args.seed)
                                for _ in range(SETUP_PROBES)]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.fmean(p.wall for p in passes), "unit": "s"},
            "cpu_s": {"value": statistics.fmean(p.cpu for p in passes), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    print(json.dumps({"report": report}))
    # A miss (no answer to the question) is failed but not incorrect; see workloads.py.
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
