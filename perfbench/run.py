#!/usr/bin/env python3
"""Benchmark of yona, end to end and per layer.

One workload, as the benchmark contract runs it (from the repository root):

    python3 perfbench/run.py --workload augment-hflip --seed 1 \\
        --seconds 20 --trace 0

Every workload, tracing off and then on, with a results file:

    python3 perfbench/run.py --seed 1 --seconds 20 --out results.json

A run prints one line per metric (name, value, unit), notes on sample
counts and failures, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  Scratch
files go under ``.perfbench/`` in the repository and are removed at the
end, except the span files of traced runs.  See README.md for the
workloads and the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"


def _commit() -> str | None:
    """HEAD of the repository, read without git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def machine_info(args) -> dict:
    import numpy
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "yona").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            sources.update(path.relative_to(ROOT).as_posix().encode())
            sources.update(path.read_bytes())
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "commit": _commit(), "sources_sha256": sources.hexdigest(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def run_one(args) -> int:
    from workloads import WORKLOADS, Session, measure_end_to_end
    from tracing import measure_traced

    w = WORKLOADS[args.workload]
    work = SCRATCH / f"{w.name}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    session = Session(w, args.seed, work)
    try:
        if args.trace:
            spans = SCRATCH / "spans" / f"{w.name}-seed{args.seed}.tsv"
            metrics, notes = measure_traced(session, args.seconds, spans)
        else:
            metrics, notes = measure_end_to_end(session, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("info " + json.dumps(machine_info(args)))
    for note in notes:
        print(f"note {note}")
    for name, (value, unit) in metrics.items():
        print(f"metric {w.name} {name} = {value} {unit}")
    print(json.dumps({
        "correct": session.failed == 0, "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload with tracing off and on, each in its own process so
    that peak memory belongs to one workload."""
    from workloads import WORKLOADS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"] for m in declared["end_to_end"]},
                1: {m["name"] for m in declared["per_layer"]}}
    results, ok = [], True
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
            result = json.loads(lines[-1]) if proc.returncode == 0 else None
            if result is None or set(result["metrics"]) != expected[trace]:
                print(f"FAILED {name} trace {trace}: exit "
                      f"{proc.returncode}, metrics do not match "
                      f"BENCHMARK.json", file=sys.stderr)
                ok = False
            else:
                ok = ok and result["correct"]
            results.append({"workload": name, "trace": trace,
                            "result": result})
    out = Path(args.out) if args.out \
        else SCRATCH / f"results-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"info": machine_info(args),
                               "runs": results}, indent=1) + "\n")
    print(f"results written to {out}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the synthetic inputs and the command")
    parser.add_argument("--seconds", type=float, default=20,
                        help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--out", help="with all workloads: results file")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "yona" / "__init__.py").is_file():
        print(f"perfbench: no yona sources in {ROOT / 'src'}; run it from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
