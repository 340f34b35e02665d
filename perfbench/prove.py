"""Run a workload under several seeds and report each metric's spread.

The spread is the distance between the first and third quartile of the
runs' values (``statistics.quantiles(values, n=4)``) as a share of
their median. A metric is steady when its spread stays below a third of
its bound in ``BENCHMARK.json``; the exit code is 1 when any metric,
``setup_s`` included, is wider. Run from the repository root::

    python3 perfbench/prove.py --workload serve-mixed --seeds 5
    python3 perfbench/prove.py --seeds 10 --out perfbench/baseline.json

With ``--out`` the medians and quartiles of every workload are written
as a baseline, with the host's provenance.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import ROOT, provenance, spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if completed.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            f"{completed.stdout[-2000:]}{completed.stderr[-2000:]}"
        )
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{completed.stdout}")
    host = [line for line in lines if line.startswith("host reference loop")]
    result["host_ms"] = float(host[0].split()[3]) if host else float("nan")
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    baseline: dict = {"provenance": provenance(), "seconds": args.seconds,
                      "seeds": list(range(args.first_seed,
                                          args.first_seed + args.seeds)),
                      "workloads": {}}
    steady = True
    for workload in workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        host: list[float] = []
        for seed in baseline["seeds"]:
            result = run_once(workload, seed, args.seconds, 0)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            host.append(result["host_ms"])
            figures = ", ".join(
                f"{name}={value[-1]:.6g}" for name, value in values.items())
            print(f"{workload} seed {seed}: host_ms={host[-1]:.1f}, "
                  f"{figures}", flush=True)
        summary = {}
        for name, series in values.items():
            q1, q2, q3 = statistics.quantiles(series, n=4)
            wide = spread(series)
            limit = bounds[name]["bound"] / 3
            ok = wide < limit
            steady &= ok
            summary[name] = {"unit": bounds[name]["unit"], "median": q2,
                             "q1": q1, "q3": q3, "spread": wide,
                             "values": series}
            print(f"  {name:<18} median {q2:<14.6g} spread {wide:7.4f} "
                  f"(bound {bounds[name]['bound']}, a third is "
                  f"{limit:.4f}) {'ok' if ok else 'WIDE'}", flush=True)
        summary["host_reference_ms"] = {"spread": spread(host), "values": host}
        print(f"  host reference loop spread {spread(host):.4f} "
              "(the host's own drift over the set)", flush=True)
        baseline["workloads"][workload] = summary
    if args.out:
        args.out.write_text(json.dumps(baseline, indent=1) + "\n",
                            encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
