#!/usr/bin/env python3
"""Smoke test of the benchmark itself (not collected by the repo's pytest run).

    python3 perfbench/smoke.py

Checks that every workload runs at a tiny size and emits exactly the metrics
BENCHMARK.json lists, with their units, in both trace modes; that the output
checks catch a corrupted credit in each credit artifact; that a stage's
peak RSS is its own, not the driver's; and that the benchmark exits nonzero
without a result when the program's sources are missing. Exits 0 when
everything holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import run
from workloads import WORKLOADS

SMOKE_SCALE = 0.02


def _corrupt_credit(path: Path, delta: float) -> None:
    """Add ``delta`` to the first nonzero credit (the last column) in a CSV."""
    lines = path.read_text().splitlines(keepends=True)
    for i, line in enumerate(lines[1:], start=1):
        head, _, credit = line.rstrip("\n").rpartition(",")
        if float(credit) != 0.0:
            lines[i] = f"{head},{float(credit) + delta!r}\n"
            break
    path.write_text("".join(lines))


def check_metrics(benchmark: dict) -> list[str]:
    problems = []
    listed = [w["name"] for w in benchmark["workloads"]]
    if listed != list(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {listed} != {list(WORKLOADS)}")
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        expected = {m["name"]: m["unit"] for m in benchmark[key]}
        for name in WORKLOADS:
            result, lines = run.run_workload(name, run.DEV_SEED, 0.0, trace, SMOKE_SCALE)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                problems.append(
                    f"{name} trace {int(trace)}: metrics differ from BENCHMARK.json {key}: "
                    f"missing {sorted(expected.keys() - got.keys())}, "
                    f"extra {sorted(got.keys() - expected.keys())}, "
                    f"unit mismatch {sorted(k for k in got.keys() & expected.keys() if got[k] != expected[k])}"
                )
            if not result["correct"] or result["failed"] or result["attempted"] < run.MIN_PASSES:
                problems.append(f"{name} trace {int(trace)}: failed run\n" + "\n".join(lines))
    return problems


def check_corruption_caught() -> list[str]:
    import checks

    work_dir = run.WORK / "smoke-corruption"
    out_dir = work_dir / "out"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        config = WORKLOADS["two-channel-20k"].config(run.DEV_SEED, str(out_dir), SMOKE_SCALE)
        config_path = work_dir / "run.json"
        config_path.write_text(json.dumps(config))
        result = run.inprocess_pass(config_path, out_dir)
        if result.failures or checks.check_pass(out_dir, result.summaries):
            return ["corruption: the uncorrupted pass does not pass its checks"]
        problems = []
        for artifact in ("model_credits.csv", "mta_credits.csv"):
            path = out_dir / artifact
            original = path.read_bytes()
            _corrupt_credit(path, 0.25)
            if not checks.check_pass(out_dir, result.summaries):
                problems.append(f"corruption: a corrupted credit in {artifact} passed the checks")
            path.write_bytes(original)
        return problems
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def check_stage_rss_is_own() -> list[str]:
    """A stage's peak RSS must not include the driver's: hold 256 MB here and
    check that no stage of a tiny pass reports that much."""
    work_dir = run.WORK / "smoke-rss"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    ballast = bytearray(256 * 2**20)
    ballast[:: 2**12] = b"x" * len(ballast[:: 2**12])
    try:
        config = WORKLOADS["two-channel-20k"].config(run.DEV_SEED, str(work_dir / "out"), SMOKE_SCALE)
        config_path = work_dir / "run.json"
        config_path.write_text(json.dumps(config))
        result = run.subprocess_pass(config_path, work_dir / "out", work_dir, time.monotonic() + 120)
        if result.failures or max(result.rss_mb.values()) >= 256:
            return [f"stage rss: {result.rss_mb} {result.failures}"]
        return []
    finally:
        del ballast
        shutil.rmtree(work_dir, ignore_errors=True)


def check_bare_directory() -> list[str]:
    """With only BENCHMARK.json and perfbench/, there is no program to measure."""
    bare = run.WORK / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(Path(run.__file__).parent, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "two-channel-20k",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        if proc.returncode == 0 or proc.stdout.strip():
            return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    error = run.import_program()
    if error:
        print(error, file=sys.stderr)
        return 2
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = (
        check_metrics(benchmark)
        + check_corruption_caught()
        + check_stage_rss_is_own()
        + check_bare_directory()
    )
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
