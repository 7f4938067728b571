"""beamest benchmark: sweep throughput, codebook set-up and single-call latency.

Usage, from the root of a checkout (no install needed; ``src`` is put on the
path of every child process)::

    python3 benchmarks/run.py --workload fig3_sweep --seed 0 --seconds 10 --trace 0
    python3 benchmarks/run.py --workload all            # every workload, one table
    python3 benchmarks/run.py --selftest                # the checker catches bad outputs
    python3 benchmarks/run.py --record-reference        # rewrite reference.json

Each workload runs in a fresh child process (``workloads.py``) with one BLAS
thread and ``--workers 1``.  With ``--trace 0``, ``PROCESSES`` children run
one after another, each setting up afresh and measuring for an equal share of
``--seconds``; the result holds the end-to-end metrics over their pooled
samples, and ``setup_s`` is the median of their set-up times.  Throughput,
median latency and set-up time are scaled to a reference machine speed (see
``PROBE_REF_S``); the figures as measured are printed in the provenance line.
With ``--trace 1`` one traced child yields the per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
provenance and a table of every metric with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("fig3_sweep", "k7_n343_sweep", "trace_single")

# One BLAS thread: the machine has 2 cores shared with other work, and one
# thread keeps the lstsq-heavy set-up steady.  Recorded in every result.
BLAS_THREADS = "1"
# Measuring processes per untraced run.  Each pays a fresh set-up, so set-up
# is sampled this many times, and the measuring time is split between them,
# which averages out the per-process layout effects seen on this machine.
PROCESSES = 3
# Machine-speed reference: the median seconds of the probe in
# workloads.make_probe() on the 2-core Xeon this benchmark was written on.
# That machine is shared and its speed drifts by up to 1.5x over minutes.
# Each child's slowdown is its median probe time over this reference; its
# rates are multiplied and its times divided by it, which removes most of the
# drift (over ten runs of fig3_sweep, the spread of throughput fell from 18%
# to 8%; see NOTES.md).
PROBE_REF_S = 0.03
# Every workload must finish inside 180 s; its children share what is left.
DEADLINE_S = 170.0

END_TO_END = {
    "trials_per_s": "1/s",
    "setup_s": "s",
    "call_us_p50": "us",
    "call_us_p99": "us",
    "peak_rss_mb": "MB",
}


def per_layer_units(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("bytes_computed"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("trials_per_s"):
        return "1/s"
    return "s"


class ChildError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """Run ``workloads.py`` to completion and parse its last output line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildError("out of time before starting a child process")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), *args], cwd=ROOT,
            env=child_env(), stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"child {args} did not finish in time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"child {args} exited with code {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise ChildError(f"child {args} printed no result") from exc


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "beamest").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # a checkout without history; git would search parent directories
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def percentile(values, q: int) -> float:
    """Linear-interpolated percentile, as ``numpy.percentile`` computes it."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def aggregate(parts: list[dict], slowdowns: list[float]) -> dict:
    """End-to-end metrics over the pooled samples, each child's times divided
    by its slowdown (1 for the raw figures).

    ``call_us_p99`` stays as measured: the tail comes from stalls, not from
    the machine's speed, and dividing it by the slowdown made it less steady.
    """
    rates = [x * f for part, f in zip(parts, slowdowns) for x in part["samples"]["rates"]]
    call_us = [x / f for part, f in zip(parts, slowdowns) for x in part["samples"]["call_us"]]
    return {
        "trials_per_s": statistics.median(rates),
        "setup_s": statistics.median(part["metrics"]["setup_s"] / f
                                     for part, f in zip(parts, slowdowns)),
        "call_us_p50": percentile(call_us, 50),
        "call_us_p99": percentile([x for part in parts for x in part["samples"]["call_us"]], 99),
        "peak_rss_mb": statistics.median(part["metrics"]["peak_rss_mb"] for part in parts),
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool, deadline: float):
    common = ["--workload", name, "--seed", str(seed)]
    if trace:
        result = run_child(["trace", *common, "--seconds", str(seconds)], deadline)
        metrics = {key: (value, per_layer_units(key))
                   for key, value in sorted(result["metrics"].items())}
        return result, metrics
    parts = [run_child(["run", *common, "--seconds", str(seconds / PROCESSES),
                        "--parts", str(PROCESSES)], deadline)
             for _ in range(PROCESSES)]
    raw = aggregate(parts, [1.0] * len(parts))
    slowdowns = [statistics.median(part["samples"]["probe_s"]) / PROBE_REF_S
                 for part in parts]
    values = aggregate(parts, slowdowns)
    result = dict(parts[-1])
    result["attempted"] = sum(part["attempted"] for part in parts)
    result["failed"] = sum(part["failed"] for part in parts)
    result["problems"] = [p for part in parts for p in part["problems"]]
    result["counts"] = [part["counts"] for part in parts]
    result["raw"] = raw
    result["slowdowns"] = slowdowns
    metrics = {key: (values[key], unit) for key, unit in END_TO_END.items()}
    return result, metrics


def report(name: str, seed: int, trace: bool, result: dict, metrics: dict) -> dict:
    attempted, failed = result["attempted"], result["failed"]
    provenance = {
        "workload": name, "seed": seed, "trace": int(trace),
        "commit": commit(), "src_sha256": source_digest(),
        "environment": result["environment"], "inputs": result["inputs"],
        "counts": result["counts"], "probe_ref_s": PROBE_REF_S,
        "slowdowns": result.get("slowdowns"), "raw_metrics": result.get("raw"),
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for problem in result["problems"]:
        print(f"problem {name}: {problem}")
    print(f"{name:<14} {'op_failure_ratio':<46} {failed / attempted:>14.6g} "
          f"({failed} of {attempted} estimation runs)")
    for key, (value, unit) in metrics.items():
        print(f"{name:<14} {key:<46} {value:>14.6g} {unit}")
    return {
        "correct": failed == 0 and not result["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0,
                        help="offset added to the preset seed; 0 checks against "
                             "the reference outputs")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "beamest" / "__init__.py").is_file():
        print(f"error: no beamest sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be nonnegative and --seconds positive")
    try:
        if args.selftest or args.record_reference:
            mode = "selftest" if args.selftest else "record"
            out = run_child([mode], time.monotonic() + DEADLINE_S)
            print(json.dumps(out))
            return 0 if out.get("selftest", True) else 1
        if args.workload is None:
            parser.error("--workload is required")
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            result, metrics = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                           time.monotonic() + DEADLINE_S)
            results[name] = report(name, args.seed, bool(args.trace), result, metrics)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": value for name, r in results.items()
                        for key, value in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
