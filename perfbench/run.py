#!/usr/bin/env python3
"""Benchmark of the mta pipeline: simulate -> fit -> attribute -> report.

    python3 perfbench/run.py --workload two-channel-20k --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; the program is imported from the
checkout's ``src/``. One driver process runs one stage at a time (a closed
loop with one client). With ``--trace 0`` each stage is its own
``python -m mta_engine.cli`` process, the way a user runs ``mta``, started
through ``stage.py`` so that its peak RSS is its own, and the end-to-end
metrics are medians over the passes that fit in ``--seconds``.
With ``--trace 1`` the stages run in-process, alternating untraced passes
with passes traced by wrappers around each layer's public functions
(``tracing.py``), and the per-layer metrics are medians over the traced
passes. Every pass is checked (``checks.py``) outside the timed region.

The last line of stdout is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give each
metric's sample count and range, and the run's context.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from stage import run_command
from workloads import STAGES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Develop and tune against DEV_SEED; confirm a claimed gain on HELD_OUT_SEED,
# which is never used while the change is written.
DEV_SEED = 1
HELD_OUT_SEED = 8675309

SETUP_REPEATS = 9
# The report stage is short and mostly interpreter start-up, so one sample a
# pass is noisy; it reads the other stages' artifacts and rewrites its own, so
# each pass runs it this many times in a row and takes the median.
STAGE_REPEATS = {"report": 3}
MIN_PASSES = 2  # byte-identity needs two passes of the same seed
REPLICATION_REPS = 3
DEADLINE_S = 160.0
MAX_FAILURE_LINES = 20

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    **{f"{stage}_s": "s" for stage in STAGES},
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    from tracing import LAYER_COUNTS, LAYER_TIMES

    return {
        **{name: "s" for name in LAYER_TIMES},
        "rct.replication_rep_ms": "ms",
        **LAYER_COUNTS,
        **{f"cli.{stage}.self_s": "s" for stage in STAGES},
        **{f"cli.{stage}.bytes_written": "bytes" for stage in STAGES},
        "credits.share_err_pp": "pp",
        "trace.overhead_s": "s",
    }


@dataclass
class Pass:
    stage_s: dict[str, float] = field(default_factory=dict)
    wall_s: float = 0.0  # every stage run of the pass, repeats included
    rss_mb: dict[str, float] = field(default_factory=dict)
    summaries: dict[str, dict] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    layers: dict[str, float] | None = None

    @property
    def run_s(self) -> float:
        return sum(self.stage_s.values())


def _cli_args(stage: str, config_path: Path) -> list[str]:
    return [stage, "--config", str(config_path), "--format", "json"]


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _reset(out_dir: Path) -> None:
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)


def subprocess_pass(config_path: Path, out_dir: Path, log_dir: Path, deadline: float) -> Pass:
    _reset(out_dir)
    result = Pass()
    env = _child_env()
    for stage in STAGES:
        out_path, err_path = log_dir / f"{stage}.out", log_dir / f"{stage}.err"
        report_path = log_dir / f"{stage}.json"
        seconds = []
        for _ in range(STAGE_REPEATS.get(stage, 1)):
            timeout = deadline - time.monotonic()
            with out_path.open("w") as out, err_path.open("w") as err:
                subprocess.run(
                    [sys.executable, "-S", str(Path(__file__).parent / "stage.py"),
                     str(report_path), f"{timeout:.3f}", sys.executable, "-m", "mta_engine.cli",
                     *_cli_args(stage, config_path)],
                    stdout=out, stderr=err, env=env, cwd=ROOT, check=True, timeout=timeout + 30,
                )
            report = json.loads(report_path.read_text())
            seconds.append(report["seconds"])
            result.wall_s += report["seconds"]
            result.rss_mb[stage] = max(result.rss_mb.get(stage, 0.0), report["peak_rss_mb"])
            if report["exit_code"] != 0:
                tail = err_path.read_text().strip().splitlines()[-1:] or ["no stderr"]
                result.failures.append(f"{stage} exited {report['exit_code']}: {tail[0]}")
                return result
        result.stage_s[stage] = statistics.median(seconds)
        result.summaries[stage] = json.loads(out_path.read_text())
    return result


def inprocess_pass(config_path: Path, out_dir: Path, tracer=None) -> Pass:
    from mta_engine import cli

    _reset(out_dir)
    result = Pass()
    for stage in STAGES:
        stdout = io.StringIO()
        span = tracer.span(f"cli.{stage}") if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(stdout):
                code = cli.main(_cli_args(stage, config_path))
        except Exception as exc:  # a crash is a failed operation, not a harness error
            result.failures.append(f"{stage} raised {type(exc).__name__}: {exc}")
            return result
        result.stage_s[stage] = time.perf_counter() - start
        result.wall_s += result.stage_s[stage]
        if code != 0:
            result.failures.append(f"{stage} exited {code}")
            return result
        result.summaries[stage] = json.loads(stdout.getvalue())
    return result


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS would use, asked of the library itself."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for lib in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "platform": platform.platform(),
    }


def setup_once(workload, seed: int, work_dir: Path, scale: float) -> tuple[float, Path, dict]:
    """Everything before the first timed stage: a cold import of the CLI in a
    fresh interpreter, then writing and loading the seeded run config."""
    from mta_engine.cli import load_run_config

    start = time.perf_counter()
    cold = run_command([sys.executable, "-c", "import mta_engine.cli"], 60, env=_child_env(), cwd=ROOT)
    if cold["exit_code"] != 0:
        raise RuntimeError(f"import mta_engine.cli exited {cold['exit_code']}")
    config = workload.config(seed, str(work_dir / "out"), scale)
    config_path = work_dir / "run.json"
    config_path.write_text(json.dumps(config, indent=2))
    load_run_config(config_path, None, None)
    return time.perf_counter() - start, config_path, config


def _check(out_dir: Path, result: Pass, first: dict | None, config_path: Path) -> dict:
    """Run the output checks on a finished pass; returns the artifact digests."""
    import checks

    if result.failures:
        return {}
    try:
        result.failures += checks.check_pass(out_dir, result.summaries)
        digests = checks.artifact_digests(out_dir)
        if first is None:
            result.failures += checks.check_estimates(out_dir, config_path)
        elif digests != first:
            changed = sorted(k for k in first.keys() | digests.keys() if first.get(k) != digests.get(k))
            result.failures.append(f"artifacts differ from the first pass: {', '.join(changed)}")
    except Exception as exc:  # a malformed artifact fails the check, not the harness
        result.failures.append(f"check raised {type(exc).__name__}: {exc}")
        return {}
    return digests


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _enough(passes: list[Pass], seconds: float, deadline: float) -> bool:
    """Stop after a failed pass, or once another pass would overrun ``seconds``
    (at least MIN_PASSES) or come near the deadline."""
    if any(p.failures for p in passes):
        return True
    typical = _median([p.wall_s for p in passes])
    if time.monotonic() + 2 * typical > deadline:
        return True
    return len(passes) >= MIN_PASSES and sum(p.wall_s for p in passes) + typical > seconds


def _one_pass(trace: bool, index: int, config_path: Path, work_dir: Path, deadline: float) -> Pass:
    """Untraced runs spawn one process per stage; traced runs alternate
    untraced and traced in-process passes."""
    out_dir = work_dir / "out"
    if not trace:
        return subprocess_pass(config_path, out_dir, work_dir, deadline)
    if index % 2 == 0:
        return inprocess_pass(config_path, out_dir)
    import checks
    from tracing import Tracer, installed, layer_metrics

    tracer = Tracer()
    with installed(tracer):
        result = inprocess_pass(config_path, out_dir, tracer)
    if not result.failures:
        result.layers = layer_metrics(tracer)
        for stage in STAGES:
            result.layers[f"cli.{stage}.bytes_written"] = float(checks.stage_bytes(out_dir, stage))
    return result


def _end_to_end_samples(setups: list[float], passes: list[Pass]) -> dict[str, list[float]]:
    complete = [p for p in passes if len(p.stage_s) == len(STAGES)]
    samples = {"setup_s": setups, "run_s": [p.run_s for p in complete]}
    for stage in STAGES:
        samples[f"{stage}_s"] = [p.stage_s[stage] for p in passes if stage in p.stage_s]
    samples["peak_rss_mb"] = [max(p.rss_mb.values()) for p in passes if p.rss_mb]
    return samples


def _layer_samples(passes: list[Pass], config_path: Path, share_err: float | None):
    from mta_engine import rct
    from mta_engine.cli import load_run_config

    traced = [p for p in passes if p.layers is not None]
    # The first pass warms the process up (allocator growth, first-touch
    # page faults); leave it out of the overhead when another untraced pass ran.
    untraced = [p for p in passes if p.layers is None and not p.failures]
    untraced = untraced[1:] or untraced
    samples: dict[str, list[float]] = {}
    for p in traced:
        for key, value in p.layers.items():
            samples.setdefault(key, []).append(value)
    if share_err is not None:
        samples["credits.share_err_pp"] = [share_err]
    sim = load_run_config(config_path, None, None).sim
    start = time.perf_counter()
    rct.replication_study(sim, REPLICATION_REPS)
    samples["rct.replication_rep_ms"] = [1000.0 * (time.perf_counter() - start) / REPLICATION_REPS]
    if traced and untraced:
        samples["trace.overhead_s"] = [
            _median([p.run_s for p in traced]) - _median([p.run_s for p in untraced])
        ]
    return samples


def _report(name: str, seed: int, trace: bool, units: dict, samples: dict, passes: list[Pass],
            context: dict) -> list[str]:
    failed = sum(1 for p in passes if p.failures)
    lines = [
        f"workload {name} seed {seed} trace {int(trace)} passes {len(passes)}",
        "context " + json.dumps(context, sort_keys=True),
        f"{'metric':34} {'median':>14} {'n':>3} {'min':>14} {'max':>14}  unit",
    ]
    for key, unit in units.items():
        values = samples.get(key, [])
        lines.append(
            f"{key:34} {_median(values):14.6g} {len(values):3d} "
            f"{min(values, default=float('nan')):14.6g} "
            f"{max(values, default=float('nan')):14.6g}  {unit}"
        )
    lines.append(f"{'error_rate':34} {failed / len(passes):14.6g} {len(passes):3d}  fraction")
    if not trace and context.get("mta_share_err_pp") is not None:
        lines.append(f"{'mta_share_err_pp':34} {context['mta_share_err_pp']:14.6g}   1  pp")
    for i, p in enumerate(passes):
        kind = "traced" if p.layers is not None else "untraced"
        line = f"pass {i} {kind} s: " + " ".join(f"{k} {v:.4f}" for k, v in p.stage_s.items())
        if p.rss_mb:
            line += " | peak_rss_mb: " + " ".join(f"{k} {v:.1f}" for k, v in p.rss_mb.items())
        lines.append(line)
    failures = [msg for p in passes for msg in p.failures]
    lines += [f"FAILED: {msg}" for msg in failures[:MAX_FAILURE_LINES]]
    if len(failures) > MAX_FAILURE_LINES:
        lines.append(f"FAILED: ... and {len(failures) - MAX_FAILURE_LINES} more")
    return lines


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0):
    """Set up, run and check one workload; returns (result, report lines)."""
    import checks

    deadline = time.monotonic() + DEADLINE_S
    work_dir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        setups = [setup_once(WORKLOADS[name], seed, work_dir, scale) for _ in range(SETUP_REPEATS)]
        _, config_path, config = setups[-1]
        context = {"seed": seed, "inputs": None, "mta_share_err_pp": None, "machine": machine_info()}
        passes: list[Pass] = []
        first = None
        while not _enough(passes, seconds, deadline):
            result = _one_pass(trace, len(passes), config_path, work_dir, deadline)
            digests = _check(work_dir / "out", result, first, config_path)
            if first is None:
                first = digests
                if not result.failures:
                    context["inputs"] = _input_sizes(result.summaries)
                    context["mta_share_err_pp"] = checks.share_error_pp(work_dir / "out", config)
            passes.append(result)

        if trace:
            units = per_layer_units()
            samples = _layer_samples(passes, config_path, context["mta_share_err_pp"])
        else:
            units = END_TO_END
            samples = _end_to_end_samples([s[0] for s in setups], passes)
        lines = _report(name, seed, trace, units, samples, passes, context)
        failed = sum(1 for p in passes if p.failures)
        result = {
            "correct": failed == 0,
            "attempted": len(passes),
            "failed": failed,
            "metrics": {
                key: {"value": _median(samples[key]), "unit": unit}
                for key, unit in units.items()
                if samples.get(key)
            },
        }
        return result, lines
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _input_sizes(summaries: dict[str, dict]) -> dict:
    attributable = summaries["attribute"]["attributed_conversions"]
    return {
        "touchpoints": summaries["simulate"]["touchpoints"],
        "conversions": summaries["simulate"]["conversions"],
        "attributable_conversions": attributable,
        "mean_journey_len": summaries["attribute"]["mta_credit_rows"] / max(1, attributable),
    }


def import_program() -> str | None:
    """Import mta_engine from this checkout's src/; returns an error message
    when the sources are missing or another copy would be measured."""
    if not (SRC / "mta_engine" / "cli.py").is_file():
        return f"perfbench: no mta_engine sources under {SRC}"
    sys.path.insert(0, str(SRC))
    import mta_engine

    if Path(mta_engine.__file__).resolve().parent != SRC / "mta_engine":
        return f"perfbench: imported mta_engine from {mta_engine.__file__}, not {SRC}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    error = import_program()
    if error:
        print(error, file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
