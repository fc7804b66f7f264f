"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-hot --seed 3 --seconds 30 \\
        --trace 0

Prints a table of metrics, writes a full record (git sha, host
fingerprint, seed, raw samples) under ``perfbench/results/``, and ends
with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones.  Exit status: 0 on success, 1 when an output is wrong,
2 when the program under test cannot be imported, 3 when the run is
void (the open-loop generator fell behind its schedule).
"""

import os
import sys
import time

_T0 = time.perf_counter()

#: BLAS threads every benchmark process (and its workers) runs with.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:] = ([os.path.join(ROOT, "src"), ROOT]
               + [p for p in sys.path
                  if os.path.abspath(p or ".") != _HERE
                  and p not in (os.path.join(ROOT, "src"), ROOT)])

if __name__ == "__mp_main__":
    # a serving worker re-imports this file when it is spawned; the
    # churn workload passes its chunk-cache budget down this way
    from perfbench.stack import STORE_BUDGET_ENV, budget_worker_stores

    if os.environ.get(STORE_BUDGET_ENV):
        budget_worker_stores(int(os.environ[STORE_BUDGET_ENV]))


#: The program's packages every workload imports; their import time is
#: part of set-up.
PACKAGES = ("repro.api", "repro.net", "repro.serve", "repro.store",
            "repro.stream")

#: Fresh interpreters that time the same imports again, so set-up can
#: take the fastest of several imports, as it does of several builds.
IMPORT_REPEATS = 2


def _parse(argv):
    import argparse

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["train-arxiv", "serve-hot", "serve-churn"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", default=os.path.join(ROOT, "perfbench",
                                                  "results"),
                    help="directory for the full result record")
    return ap.parse_args(argv)


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing`` started.

    Spawning the serving worker also starts a resource-tracker process;
    a run must leave no process of its own behind, so it is stopped and
    waited for here.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _import_seconds() -> list[float]:
    """Import times of :data:`PACKAGES` in :data:`IMPORT_REPEATS` fresh
    interpreters, each waited for."""
    import subprocess

    code = ("import importlib, sys, time\n"
            "t = time.perf_counter()\n"
            f"for name in {PACKAGES!r}:\n"
            "    importlib.import_module(name)\n"
            "print(time.perf_counter() - t)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]))
    return [float(subprocess.run([sys.executable, "-c", code], env=env,
                                 cwd=ROOT, check=True, capture_output=True,
                                 text=True, timeout=120).stdout)
            for _ in range(IMPORT_REPEATS)]


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        import importlib

        for name in PACKAGES:  # import time is part of set-up
            importlib.import_module(name)
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2
    import json
    import math
    import shutil

    from perfbench.record import SCHEMA, git_sha, host_fingerprint, \
        write_record
    from perfbench.workloads import (
        END_TO_END,
        PER_LAYER,
        WORKLOADS,
        InvalidRun,
        Params,
    )

    imports = [time.perf_counter() - _T0] + _import_seconds()
    import_s = min(imports)
    params = Params(seconds=args.seconds)
    work = os.path.join(ROOT, "perfbench", ".work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        outcome = WORKLOADS[args.workload](params, args.seed,
                                           bool(args.trace), import_s, work)
    except InvalidRun as exc:
        print(f"void run: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        _stop_resource_tracker()
    outcome.samples["import_s"] = imports

    if args.trace:
        units = PER_LAYER
        values = outcome.per_layer
    else:
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
        values = outcome.metrics
    metrics = {name: {"value": values.get(name, math.nan), "unit": unit}
               for name, unit in units.items()}
    bad = [name for name, m in metrics.items()
           if not math.isfinite(m["value"])]
    correct = outcome.error is None and not bad
    record = {
        "schema": SCHEMA, "workload": args.workload, "seed": args.seed,
        "trace": args.trace, "seconds": args.seconds,
        "git_sha": git_sha(ROOT),
        "host": host_fingerprint(BLAS_THREADS),
        "correct": correct, "error": outcome.error,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "end_to_end": outcome.metrics, "per_layer": outcome.per_layer,
        "samples": outcome.samples,
    }
    path = write_record(args.out, record)
    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        print(f"{name:<{width}}  {m['value']:>14.6g}  {m['unit']}")
    if outcome.error:
        print(f"CHECK FAILED: {outcome.error}", file=sys.stderr)
    if bad:
        print(f"non-finite metrics: {bad}", file=sys.stderr)
        for name in bad:
            metrics[name]["value"] = -1.0
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
