"""The repository benchmark: one workload, repeated for a fixed time.

    python3 perfbench/run.py --workload fig3 --seed 3 --seconds 40 --trace 0

Run from the repository root.  A run is one fresh process
(``perfbench/cell.py``) that imports the program and repeats the workload
with ``workers=1`` for about ``--seconds``; there is always at least one
repeat.  ``--workload all`` runs the three workloads in turn and ends with one
JSON line over all of them, its metrics prefixed with the workload name.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``, each the
median over the run's repeats:

* ``wall_s`` -- host time from the first network build to the checked
  result;
* ``setup_s`` -- host time inside ``build_scenario`` and ``fund_nodes``;
* ``sim_events_per_s`` / ``messages_per_s`` -- simulator events / fabric
  messages summed over cells, per host second outside set-up;
* ``peak_rss_mb`` -- the run process's peak resident set over imports and
  the first repeat.

Host times are scaled to a reference host speed: after every repeat the run
times a fixed kernel (``perfbench/hostref.py``), and each repeat's times are
multiplied by ``hostref.NOMINAL_S`` over the mean of the kernel timings just
before and after it.  On a shared host this cancels much of the drift in
core speed between runs; the raw times and kernel timings stay in the run
record.

``--trace 1`` alternates untraced and traced repeats and reports the
per-layer metrics (medians over traced repeats), ``trace.overhead_ratio``
(traced over untraced wall) and ``setup_share`` (set-up over wall,
untraced), all from unscaled times.  The spans of the last traced repeat are
written under ``perfbench/out/spans/``.

Correctness: on the default seed every repeat's digest must equal the one in
``perfbench/reference.json``; on any seed all repeats, traced or not, must
agree.  A repeat that raises or fails these checks counts in ``failed``
(each workload prints its ``failed_share``); then the command exits 1.  The
last line of standard output is one JSON object; the whole record, with an
environment stamp, is also written under ``perfbench/out/results/``.

``--write-reference`` records the default seed's digest for the workload
(after an intended change to the program's outputs).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import hostref  # noqa: E402

REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"
OUT = HERE / "out"
WORKLOAD_NAMES = ("fig3", "build", "relay")
#: The default seed, the fig3 golden seed; its digests are in REFERENCE.
DEFAULT_SEED = 3

#: A run must end well inside the 180 s a benchmark command is allowed.
HARD_LIMIT_S = 170.0


def environment_stamp() -> dict[str, Any]:
    """Where the numbers came from: code version, interpreter, machine."""
    try:
        # The ceiling keeps git from searching above the checkout.
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    cpu_model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
    }


def run_cell(workload: str, seed: int, seconds: float, spans: Optional[Path]) -> dict[str, Any]:
    """One fresh process repeating the workload for ``seconds``.

    Its report (``repeats`` and ``peak_rss_mb``), or ``{"error": ...}``.
    """
    command = [
        sys.executable, str(HERE / "cell.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
    ]
    if spans is not None:
        command += ["--trace", str(spans)]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=HARD_LIMIT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"no result within {HARD_LIMIT_S:.0f} s"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-1:] or [f"exit code {done.returncode}"]
        return {"error": tail[0]}
    return json.loads(lines[-1])


def check(record: dict[str, Any], expected: Optional[str]) -> Optional[str]:
    """Why a repeat's outputs are wrong, or None."""
    if "error" in record:
        return record["error"]
    if expected is not None and record["digest"] != expected:
        return f"digest {record['digest'][:16]} != expected {expected[:16]}"
    return None


def host_scale(record: dict[str, Any]) -> float:
    """The factor that turns a repeat's host seconds into reference seconds.

    ``NOMINAL_S`` over the mean of the host-reference timings taken just
    before and just after the repeat (see ``perfbench/hostref.py``).
    """
    return hostref.NOMINAL_S / statistics.fmean(record["hostref_s"])


def end_to_end(records: list[dict[str, Any]], peak_rss_mb: float) -> dict[str, float]:
    """Medians over untraced repeats of every end-to-end metric.

    Host times are scaled to the reference speed, repeat by repeat.
    """
    median = statistics.median
    scales = [host_scale(r) for r in records]
    busy = [(r["wall_s"] - r["setup_s"]) * k for r, k in zip(records, scales)]
    return {
        "wall_s": median([r["wall_s"] * k for r, k in zip(records, scales)]),
        "setup_s": median([r["setup_s"] * k for r, k in zip(records, scales)]),
        "sim_events_per_s": median([r["events"] / b for r, b in zip(records, busy)]),
        "messages_per_s": median([r["messages"] / b for r, b in zip(records, busy)]),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(traced: list[dict[str, Any]], untraced: list[dict[str, Any]]) -> dict[str, float]:
    """Medians over traced repeats of every per-layer metric, plus totals."""
    metrics = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    metrics["trace.overhead_ratio"] = statistics.median(r["wall_s"] for r in traced) / statistics.median(
        r["wall_s"] for r in untraced
    )
    metrics["setup_share"] = statistics.median(r["setup_s"] / r["wall_s"] for r in untraced)
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: int, write_reference: bool) -> dict[str, Any]:
    """Repeat one workload for ``seconds``; print and store its result."""
    begun = time.perf_counter()
    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}

    references = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    expected = references.get(workload) if seed == DEFAULT_SEED and not write_reference else None

    spans = OUT / "spans" / f"{workload}-seed{seed}.npz" if trace else None
    report = run_cell(workload, seed, seconds - (time.perf_counter() - begun), spans)
    repeats = report.get("repeats", [report])
    untraced: list[dict[str, Any]] = []
    traced: list[dict[str, Any]] = []
    failures: list[str] = []
    for record in repeats:
        reason = check(record, expected)
        if reason is None and expected is None:
            # Every repeat on a seed, traced or not, must agree with the first.
            expected = record["digest"]
        if reason is not None:
            failures.append(reason)
        else:
            (traced if record["traced"] else untraced).append(record)

    attempted = len(repeats)
    metrics: dict[str, float] = {}
    if untraced and (traced or not trace):
        metrics = per_layer(traced, untraced) if trace else end_to_end(untraced, report["peak_rss_mb"])
        if set(metrics) != set(units):
            raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with {SPEC.name}")

    if write_reference and not failures:
        references[workload] = expected
        REFERENCE.write_text(json.dumps(references, indent=2, sort_keys=True) + "\n")

    result = {
        "correct": not failures and bool(metrics),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "finished_at": time.time(),
        "stamp": environment_stamp(),
        "digest": expected,
        "failures": failures,
        "peak_rss_mb": report.get("peak_rss_mb"),
        "repeats": repeats,
        **result,
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results_dir / f"{workload}-seed{seed}-trace{trace}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    for reason in failures:
        print(f"{workload:6s} FAILED: {reason}")
    for name, value in metrics.items():
        print(f"{workload:6s} {name:45s} {value:16.6f} {units[name]}")
    print(f"{workload:6s} {'failed_share':45s} {len(failures) / attempted:16.6f} ratio")
    return result


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.write_reference and args.seed != DEFAULT_SEED:
        parser.error(f"--write-reference records seed {DEFAULT_SEED} only")

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {
        name: run_workload(name, args.seed, args.seconds, args.trace, args.write_reference)
        for name in names
    }
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
