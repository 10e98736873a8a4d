"""One benchmark run: ``python3 perfbench/run.py --workload W --seed N ...``.

Run from the root of a checkout of the repository. The program is used
straight from ``src/`` (pure Python, nothing to build). The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it carries the detail (counts
by operation kind and HTTP status, sample counts, the first failures).
With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones of a separate, traced run. The exit code is 0 only
when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the measured window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # a TERM unwinds like an error, so the service and helpers are stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program source at {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # shard processes and pool workers import the same source tree
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

    import common
    import layers
    from refclock import RefClock
    from tracing import Tracer

    module = __import__(args.workload)
    run = common.Run(ref=RefClock(two=module.TWO_CPUS))

    work_root = ROOT / ".perfbench_tmp"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    tracer = Tracer() if args.trace else None
    shm_before = common.shm_segments()
    try:
        if tracer is None:
            metrics = module.run_untraced(run, args.seed, args.seconds, workdir)
            # after peak_rss_mb was read: these interpreters are not the workload's
            common.import_seconds(run)
            metrics["setup_s"] = run.setup
            units = END_TO_END
        else:
            metrics = module.run_traced(run, args.seed, args.seconds, workdir, tracer)
            units = layers.PER_LAYER
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write_jsonl(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
    finally:
        run.ref.close()
        common.stop_resource_tracker()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    leaked = common.shm_segments() - shm_before
    if leaked:
        run.problem(f"shared-memory segments outlived the run: {sorted(leaked)}")

    missing = [m for m in units if m not in metrics]
    if missing:
        raise RuntimeError(f"workload {args.workload} did not measure {missing}")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted_by_kind": dict(run.attempted),
        "setup_attempted_by_kind": dict(run.setup_ops),
        "over_eb": dict(run.over_eb),
        "failed_by_kind": dict(run.failed),
        "failed_by_status": dict(run.statuses),
        "samples": len(run.ops),
        "ref_median_s": {w: statistics.median(s) for w, s in run.ref.samples.items() if s},
        "ref_samples": {w: len(s) for w, s in run.ref.samples.items()},
        "failures": run.failures,
        "problems": run.problems,
        **run.notes,
    }
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": run.correct,
        "attempted": sum(run.attempted.values()),
        "failed": sum(run.failed.values()),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
