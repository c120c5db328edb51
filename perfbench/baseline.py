"""Run every workload over RUNS seeds and summarise: per end-to-end metric
the median, the quartiles from ``statistics.quantiles(values, n=4)`` and
the spread (q3 - q1) / median, against the bounds in BENCHMARK.json; then
one traced run per workload for the per-layer split.

    python3 perfbench/baseline.py [--first-seed 1] [--out perfbench/out/baseline.json]
                                  [--compare earlier.json]

Runs are sequential (one process at a time), workloads interleaved per
seed.  ``--compare`` checks each median against an earlier summary: worse by
more than the metric's bound fails.  Exits 1 when a run fails its output
checks, a spread exceeds its bound, or a comparison fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = CONFIG["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} printed nothing; stderr:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    record = BENCH_DIR / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    result["conditions"] = json.loads(record.read_text())["conditions"]
    return result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def worse_by(metric: dict, old: float, new: float) -> float:
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def findings(per_layer: dict) -> list[str]:
    """Where the traced time goes, per workload."""
    out = []
    for w, m in per_layer.items():
        wall = m["bench.traced.wall_s"]
        selfs = {
            k[: -len(".self_s")]: v
            for k, v in m.items()
            if k.endswith(".self_s") and ".all." not in k and not k.startswith("bench.")
        }
        top = sorted(selfs.items(), key=lambda kv: -kv[1])[:3]
        out.append(
            f"{w}: largest self times " + ", ".join(f"{k} {v / wall:.0%}" for k, v in top)
            + f" of {wall:.2f} s traced; spectral.decompose.calls_per_pair = "
            + f"{m['spectral.decompose.calls_per_pair']:.3g}"
        )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "out" / "baseline.json")
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args(argv)

    seconds = CONFIG["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    ok = True
    raw: dict[str, list] = {w: [] for w in WORKLOADS}
    for seed in seeds:
        for w in WORKLOADS:
            result = run_once(w, seed, seconds, 0)
            raw[w].append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{w} seed {seed}: exit {result['exit_code']} failed {result['failed']}/{result['attempted']} {values}",
                  flush=True)
            ok &= result["exit_code"] == 0 and result["correct"]

    end_to_end = {}
    for w in WORKLOADS:
        end_to_end[w] = {}
        for metric in CONFIG["end_to_end"]:
            name = metric["name"]
            s = summarise([r["metrics"][name]["value"] for r in raw[w]])
            s["bound"] = metric["bound"]
            s["spread_ok"] = s["spread"] <= metric["bound"]
            ok &= s["spread_ok"]
            end_to_end[w][name] = s
            print(f"{w:17s} {name:12s} median {s['median']:.5g} q1 {s['q1']:.5g} q3 {s['q3']:.5g} "
                  f"spread {s['spread']:.4f} (bound {metric['bound']}, target below {metric['bound'] / 3:.4f})"
                  + ("" if s["spread_ok"] else "  TOO WIDE"))

    per_layer = {}
    for w in WORKLOADS:
        result = run_once(w, seeds[0], seconds, 1)
        ok &= result["exit_code"] == 0 and result["correct"]
        per_layer[w] = {k: v["value"] for k, v in result["metrics"].items()}

    summary = {
        "seconds": seconds,
        "seeds": seeds,
        "conditions": raw[WORKLOADS[0]][0]["conditions"],
        "failed": {w: sum(r["failed"] for r in raw[w]) for w in WORKLOADS},
        "attempted": {w: sum(r["attempted"] for r in raw[w]) for w in WORKLOADS},
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "findings": findings(per_layer),
    }
    if args.compare:
        earlier = json.loads(args.compare.read_text())["end_to_end"]
        for w in WORKLOADS:
            for metric in CONFIG["end_to_end"]:
                name = metric["name"]
                worse = worse_by(metric, earlier[w][name]["median"], end_to_end[w][name]["median"])
                good = worse <= metric["bound"]
                ok &= good
                print(f"compare {w:17s} {name:12s} worse by {worse:+.4f} (bound {metric['bound']})"
                      + ("" if good else "  FAIL"))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
