"""The repository's benchmark: one command, three seeded workloads.

Run from the repository root::

    python3 perfbench/run.py --workload ingest-zipf --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the workload's main phase once untraced and once
traced (the difference is ``bench.trace_overhead``), then replays the
workload's items layer by layer with a span around every call into a
layer's public functions, and reports the per-layer metrics. Metric
names, units and bounds live in ``BENCHMARK.json``; what each per-layer
metric should move lives in ``perfbench/interactions.json``.

Every output the system produces is checked against an oracle; the
report lists each check. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. Spans
of a traced run go to ``.perfbench_out/``; scratch files live in
``.perfbench_work/`` and are removed before exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import (  # noqa: E402
    ROOT, Metric, Outcome, SpanRecorder, host_reference_ms, median,
    provenance,
)

WORKLOADS = ("ingest-zipf", "serve-mixed", "fold-restore")


@dataclass
class Context:
    """What a workload gets to run with and reports into."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    work: Path
    out: Outcome = field(default_factory=Outcome)
    rec: SpanRecorder = field(default_factory=SpanRecorder)
    null: SpanRecorder = field(
        default_factory=lambda: SpanRecorder(enabled=False))
    per_layer: dict[str, float] = field(default_factory=dict)
    extras: dict[str, Metric] = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str, samples: int,
            note: str, alias: tuple[str, float, str] | None = None) -> None:
        """Report an end-to-end metric (and its workload-specific name)."""
        self.out.put(name, value, unit, samples, note)
        if alias is not None:
            self.extra(alias[0], alias[1], alias[2], samples)

    def extra(self, name: str, value: float, unit: str, samples: int,
              note: str = "") -> None:
        """Report a metric that only this workload has."""
        self.extras[name] = Metric(float(value), unit, int(samples), note)

    def span_ms(self, name: str) -> float:
        """Median duration of the spans called ``name``, in ms."""
        spans = self.rec.by_name().get(name, [])
        return median([duration for duration, __ in spans]) * 1e3


def load_spec() -> tuple[dict, dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    with open(HERE / "interactions.json", encoding="utf-8") as handle:
        interactions = json.load(handle)
    return spec, interactions


def report(ctx: Context, spec: dict, interactions: dict) -> dict:
    """Print the human-readable report; return the result's metrics."""
    out = ctx.out
    print(f"provenance {json.dumps(provenance(), sort_keys=True)}")
    why = {w["name"]: w["why"] for w in spec["workloads"]}[ctx.workload]
    print(f"workload {ctx.workload}: {why}")
    print(f"inputs {json.dumps(ctx.inputs, sort_keys=True)}")
    metrics: dict[str, dict] = {}
    if not ctx.trace:
        for entry in spec["end_to_end"]:
            metric = out.metrics[entry["name"]]
            print(f"e2e   {entry['name']:<18} {metric.value:>14.6g} "
                  f"{metric.unit:<8} n={metric.samples:<6} {metric.note}")
            metrics[entry["name"]] = {"value": metric.value,
                                      "unit": entry["unit"]}
        ratio = out.failed / max(out.attempted, 1)
        print(f"e2e   {'failed_ratio':<18} {ratio:>14.6g} {'ratio':<8} "
              f"n={out.attempted:<6} failed or refused operations and "
              "failed checks over attempted")
        for name, metric in sorted(ctx.extras.items()):
            print(f"e2e   {name:<18} {metric.value:>14.6g} "
                  f"{metric.unit:<8} n={metric.samples:<6} {metric.note}")
    else:
        known = interactions["per_layer"]
        for entry in spec["per_layer"]:
            value = ctx.per_layer[entry["name"]]
            print(f"layer {entry['name']:<44} {value:>14.6g} "
                  f"{entry['unit']}")
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        for name, metric in sorted(ctx.extras.items()):
            unit = known.get(name, {}).get("unit", metric.unit)
            print(f"layer {name:<44} {metric.value:>14.6g} {unit} "
                  f"(n={metric.samples}; {ctx.workload} only)")
        for name, entry in known.items():
            if name not in ctx.per_layer and name not in ctx.extras:
                print(f"layer {name:<44} {'-':>14} not on this workload: "
                      f"{entry['where']}")
    for name, (passed, total) in sorted(out.checks.items()):
        print(f"check {'ok  ' if passed == total else 'FAIL'} "
              f"{passed}/{total} {name}")
    for failure in out.failures:
        print(f"fail  {failure}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"perfbench: cannot import repro from {ROOT / 'src'}: {error}",
              file=sys.stderr)
        return 2
    spec, interactions = load_spec()

    if args.workload == "ingest-zipf":
        import wl_ingest as workload
    elif args.workload == "serve-mixed":
        import wl_serve as workload
    else:
        import wl_fold as workload

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace),
                  work, rec=SpanRecorder(enabled=bool(args.trace)))
    host_before = host_reference_ms()
    try:
        workload.run(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    host_after = host_reference_ms()
    metrics = report(ctx, spec, interactions)
    print(f"host reference loop {host_before:.1f} ms before, "
          f"{host_after:.1f} ms after (host speed, not a metric)")
    if ctx.trace:
        trace = (ROOT / ".perfbench_out"
                 / f"spans-{args.workload}-{args.seed}.jsonl")
        ctx.rec.write(trace)
        print(f"spans {len(ctx.rec.spans)} written to "
              f"{trace.relative_to(ROOT)}")
    print(json.dumps({
        "correct": ctx.out.correct,
        "attempted": ctx.out.attempted,
        "failed": ctx.out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
