"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Runs every workload at a tiny size (``--seconds 1``), untraced and
   traced, and asserts that each metric named in BENCHMARK.json is printed
   by name with its unit, and that the last line is the result object.
2. Feeds one wrong verdict to each output check and asserts that the
   failed ratio rises.
3. Runs the benchmark in a directory holding only BENCHMARK.json and the
   benchmark's files, and asserts that it exits non-zero without a result.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
from pathlib import Path

import run
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def check_printed_metrics() -> None:
    for workload in WORKLOADS:
        for trace, listed in ((0, CONFIG["end_to_end"]), (1, CONFIG["per_layer"])):
            cmd = CONFIG["command"] + ["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0, f"{cmd} exited {proc.returncode}: {proc.stderr}"
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
            assert set(result["metrics"]) == {m["name"] for m in listed}, workload
            for metric in listed:
                got = result["metrics"][metric["name"]]
                assert got["unit"] == metric["unit"], (workload, metric, got)
                assert isinstance(got["value"], (int, float)), (workload, metric, got)
                assert any(
                    line.startswith(f"{metric['name']} ") and line.split()[2] == metric["unit"] for line in lines[:-1]
                ), f"{workload}: {metric['name']} not printed with its unit"
            print(f"ok   {workload} --trace {trace}: {len(listed)} metrics printed with units")


def _flip_verdict(cert):
    return dataclasses.replace(cert, status="fail" if cert.success else "success")


def _nontrivial_success(report):
    report.pst_successes.append({"y1": "Bw", "a": 0, "y2": "Bw", "b": 0, "n1": 3, "n2": 3, "pst_time": 1.0})
    return report


def _changed_histogram(report):
    report.failure_histogram["no_admissible_g"] = report.failure_histogram.get("no_admissible_g", 0) + 1
    return report


# one wrong verdict per output check: (workload, op kind, description, wrong)
WRONG_VERDICTS = (
    ("bridge-search", "search", "nontrivial transfer reported", _nontrivial_success),
    ("bridge-search", "search", "report differs from the stored reference", _changed_histogram),
    ("certify-large", "certificate", "verdict flipped", _flip_verdict),
    ("exact-identities", "identity", "identity reported false", lambda out: False),
    ("exact-identities", "projector", "projector entry off by 1e-6", lambda out: [out[0] + 1e-6] + out[1:]),
    ("exact-identities", "pathsum", "path-sum polynomial off by 1", lambda out: out + 1),
)


def check_wrong_verdicts() -> None:
    mods = run.import_package()
    for workload, kind, description, wrong in WRONG_VERDICTS:
        wl = WORKLOADS[workload]
        ops = [op for op in wl.make_inputs(mods, random.Random(0), 0) if op.kind == kind][:2]
        tampered = []

        def tamper(op, out):
            if op.kind != kind or tampered:
                return out
            tampered.append(op.index)
            return wrong(out)

        clean = run.measure(wl, mods, ops, random.Random(0), passes=1)
        bad = run.measure(wl, mods, ops, random.Random(0), passes=1, tamper=tamper)
        before = len(clean.failures) / clean.executions
        after = len(bad.failures) / bad.executions
        assert before == 0.0, clean.failures
        assert after > before, f"{workload}: {description} went unnoticed"
        print(f"ok   {workload}: {description} -> failed_ratio {before:g} -> {after:.3g}")


def check_fails_without_package() -> None:
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    cmd = CONFIG["command"] + ["--workload", "certify-large", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0, "benchmark succeeded without the package"
    assert '"metrics"' not in proc.stdout, "benchmark printed a result without the package"
    print(f"ok   without src/: exit {proc.returncode}, no result printed")


if __name__ == "__main__":
    check_wrong_verdicts()
    check_fails_without_package()
    check_printed_metrics()
    print("selftest passed")
