"""One benchmark process: set up a workload, run its operations, check them.

Started by ``run.py`` from the root of a checkout, never by hand.  It
imports dilshape from ``src/`` of that checkout, builds the workload's
inputs, prints ``READY`` and then, depending on ``--mode``:

- ``probe``: exits, so the launcher can time set-up alone;
- ``loop``: runs operations back to back until ``--seconds`` have passed;
- ``pass``: runs the workload's operation list exactly once.

It checks every output after the timed part and prints one ``RESULT``
line of JSON.  Protocol lines go to the real standard output; anything
the package prints goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path


def emit(channel, tag: str, payload: dict) -> None:
    channel.write(f"{tag} {json.dumps(payload)}\n")
    channel.flush()


def environment() -> dict:
    import numpy
    import scipy

    blas = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        pass
    cpu = None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def measure(work, args, tracer):
    """Run operations, then check them; None if every operation raised."""
    outputs, latencies, raised = [], [], 0
    count = work.pass_length() if args.mode == "pass" else None
    start = time.perf_counter()
    k = 0
    while True:
        if tracer is not None:
            tracer.op = k
        t0 = time.perf_counter()
        try:
            outputs.append((k, work.run(k)))
        except Exception:
            # A failing operation is counted and the run goes on.
            traceback.print_exc()
            raised += 1
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        k += 1
        if k == count or (count is None and t1 - start >= args.seconds):
            break
    elapsed = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.op = None
        tracer.restore()
    if not outputs:
        return None
    report = work.check(outputs)
    fingerprints = {k: work.fingerprint(o) for k, o in outputs}
    return {
        "ops": k,
        "failed": raised + report.pop("op_ok").count(False),
        "elapsed_s": elapsed,
        "latencies_s": latencies,
        "ops_per_s": len(outputs) / elapsed,
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "peak_rss_mb": peak_rss_mb,
        "fingerprints": fingerprints,
        **report,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("probe", "loop", "pass"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="directory for spans and scratch files")
    args = parser.parse_args()

    protocol = sys.stdout
    sys.stdout = sys.stderr
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    import dilshape
    from dilshape import cli, corr, curves, dilation, io, shape

    if src.resolve() not in Path(dilshape.__file__).resolve().parents:
        print(f"dilshape was imported from {dilshape.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    from tracer import Tracer
    from workloads import WORKLOADS

    out = Path(args.out)
    tracer = None
    if args.trace:
        tracer = Tracer({"corr": corr, "dilation": dilation, "curves": curves,
                         "shape": shape, "io": io, "cli": cli})
        tracer.install()
    workdir = out / f"work-{args.workload}-{args.seed}-{args.mode}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        work = WORKLOADS[args.workload](args.seed, workdir)
        emit(protocol, "READY", {"digest": work.digest})
        if args.mode == "probe":
            return 0
        result = measure(work, args, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result is None:
        print("every operation raised", file=sys.stderr)
        return 1
    result.update(digest=work.digest, environment=environment())
    if tracer is not None:
        spans = out / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_spans(spans)
        result.update(spans=str(spans), calls=tracer.calls, busy_s=tracer.busy,
                      health=tracer.health)
    emit(protocol, "RESULT", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
