"""The repository's benchmark: BELLA overlap and bulk service workloads.

Run from the repository root::

    python3 perfbench/run.py --workload bella_ecoli --seed 1 --seconds 40 --trace 0

``--trace 0`` times the untraced system and prints the end-to-end metrics;
``--trace 1`` runs traced passes beside untraced ones and prints the
per-layer metrics.  ``--workload all`` runs every workload both ways and
prints every metric with its unit.  Otherwise the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is the full record with its provenance.  The run exits 1 when any result differs
from the oracle.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HARNESS_VERSION = "perfbench/1"
ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5


def setup_probe(workload: str) -> None:
    """Child side of ``setup_s``: import, build the default objects, report ready."""
    from repro.api import AlignConfig

    config = AlignConfig()
    if workload == "bella_ecoli":
        from repro.bella.pipeline import BellaPipeline

        BellaPipeline(config=config).aligner  # builds the engine
        print("ready", flush=True)
        return
    from repro.service import AlignmentService

    service = AlignmentService(config=config)
    print("ready", flush=True)
    service.shutdown()


def measure_setup(workload: str) -> float:
    """Median seconds from starting a fresh interpreter to its ready line."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload],
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        ) as child:
            line = child.stdout.readline()
            times.append(time.perf_counter() - start)
            child.stdout.read()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"setup probe for {workload} failed")
    return statistics.median(times)


def source_digest() -> str:
    """Digest of the program's sources (the checkout may not be a git repo)."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(workload: str, seed: int, definition: dict) -> dict:
    import numpy as np
    from repro.api import AlignConfig
    from repro.obs.provenance import config_hash, git_sha

    payload = json.dumps(definition, sort_keys=True)
    return {
        "harness_version": HARNESS_VERSION,
        "workload": workload,
        "seed": seed,
        "workload_hash": hashlib.sha256(payload.encode()).hexdigest()[:12],
        "config_hash": config_hash(AlignConfig()),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def run_all(seed: int, seconds: float) -> int:
    """Run every workload untraced and traced; print each metric with its unit.

    Returns non-zero when any run fails or reports a wrong result.
    """
    import workloads

    status = 0
    for workload in workloads.RUNNERS:
        for trace in (0, 1):
            child = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False,
            )
            lines = child.stdout.splitlines()
            if child.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: FAILED (exit {child.returncode})")
                status = 1
                if not lines:
                    continue
            result = json.loads(lines[-1])
            print(f"{workload} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0

    import workloads
    from oracle import Oracle

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.RUNNERS:
        parser.error(f"--workload must be 'all' or one of {sorted(workloads.RUNNERS)}")
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    setup_s = measure_setup(args.workload) if not args.trace else None
    oracle = Oracle(ROOT)
    outcome = workloads.RUNNERS[args.workload](
        args.seed, args.seconds, bool(args.trace), oracle
    )
    outcome.end_to_end["setup_s"] = setup_s
    outcome.end_to_end["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    outcome.per_layer["failed_frac"] = outcome.failed / max(outcome.attempted, 1)
    if args.trace:  # layers this workload does not exercise read 0
        values = {m["name"]: outcome.per_layer.get(m["name"], 0.0) for m in wanted}
    else:
        values = outcome.end_to_end
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = outcome.failed == 0
    record = {
        "provenance": provenance(
            args.workload, args.seed, workloads.WORKLOADS[args.workload]
        ),
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": outcome.samples,
        "end_to_end": outcome.end_to_end,
        "per_layer": outcome.per_layer,
    }
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(outcome.attempted, 1),
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
