"""dilshape benchmark: one workload, one seed, one result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload classify --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it times set-up in several fresh processes, runs the
workload's operations for ``--seconds`` in one more process, checks every
output and prints the end-to-end metrics.  With ``--trace 1`` it runs the
workload's operation list once untraced and once with every traced
function wrapped (see ``tracer.py``), requires the two runs' outputs to be
bit-identical, and prints the per-layer metrics.  The last line of
standard output is the result object; the line before it, and a file under
``.perfbench_out/``, hold the full record: environment, input digest,
sample counts, health numbers and the checks.

The workload processes run one at a time with BLAS and OpenMP pinned to
one thread, so the load never asks for more threads than there are cores.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("classify", "align", "factor", "cli_mean")
# Fresh processes that only set up, on top of the measuring process.
SETUP_PROBES = 4
# Workers still running this long after the launcher started are killed.
BUDGET_S = 170.0
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class WorkerFailed(RuntimeError):
    pass


def child_environment() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARIABLES, "1"))
    return env


def run_worker(args, env, mode, trace=0):
    """Start one worker; return (seconds until READY, READY payload, RESULT payload)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--seconds", str(args.seconds),
           "--trace", str(trace), "--out", str(OUT)]
    remaining = args.deadline - time.perf_counter()
    if remaining <= 0:
        raise WorkerFailed(f"no time left for the {mode} worker")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    watchdog = threading.Timer(remaining, proc.kill)
    watchdog.start()
    ready_s, ready, result = None, None, None
    try:
        for line in proc.stdout:
            tag, _, payload = line.partition(" ")
            if tag == "READY":
                ready_s = time.perf_counter() - start
                ready = json.loads(payload)
            elif tag == "RESULT":
                result = json.loads(payload)
        code = proc.wait()  # the watchdog bounds this wait
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if code != 0 or ready is None or (mode != "probe" and result is None):
        raise WorkerFailed(f"the {mode} worker exited with code {code}")
    return ready_s, ready, result


def git_commit():
    """HEAD of the checkout, or None outside a git work tree; see also src_sha256."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
    except OSError:
        return None
    return done.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dilshape").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(env, args, record):
    probes = [run_worker(args, env, "probe") for _ in range(SETUP_PROBES)]
    ready_s, ready, result = run_worker(args, env, "loop")
    samples = [p[0] for p in probes] + [ready_s]
    same_inputs = all(p[1]["digest"] == result["digest"] for p in probes)
    record.update(setup_samples_s=samples, op_samples=len(result["latencies_s"]),
                  fail_ratio=result["failed"] / result["ops"], same_inputs=same_inputs,
                  worker=result)
    metrics = {
        "setup_s": metric(statistics.median(samples), "s"),
        "ops_per_s": metric(result["ops_per_s"], "1/s"),
        "op_p50_ms": metric(result["op_p50_ms"], "ms"),
        "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
        "warp_residual": metric(result["warp_residual"], "ratio"),
    }
    correct = result["run_ok"] and result["failed"] == 0 and same_inputs
    return correct, result["ops"], result["failed"], metrics


def per_layer(env, args, record):
    _, _, plain = run_worker(args, env, "pass")
    _, _, traced = run_worker(args, env, "pass", trace=1)
    identical = plain["fingerprints"] == traced["fingerprints"]
    overhead = traced["ops_per_s"] / plain["ops_per_s"]
    record.update(bit_identical=identical, tracing_overhead=overhead,
                  untraced=plain, worker=traced)
    metrics = {}
    for name, calls in traced["calls"].items():
        metrics[f"{name}.calls"] = metric(calls, "count")
        metrics[f"{name}.busy_s"] = metric(traced["busy_s"][name], "s")
    for name, value in traced["health"].items():
        metrics[name] = metric(value, "count")
    metrics["dilation.roundtrip_err_max"] = metric(traced["dilation.roundtrip_err_max"], "abs")
    metrics["shape.separation_ratio"] = metric(traced["shape.separation_ratio"], "ratio")
    metrics["trace.overhead"] = metric(overhead, "ratio")
    correct = (identical and traced["run_ok"] and traced["failed"] == 0
               and plain["digest"] == traced["digest"])
    return correct, traced["ops"], traced["failed"], metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    args.deadline = time.perf_counter() + BUDGET_S

    if not (ROOT / "src" / "dilshape" / "__init__.py").is_file():
        print(f"no dilshape sources under {ROOT / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    env = child_environment()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(), "src_sha256": source_digest(),
        "threads": {k: env[k] for k in THREAD_VARIABLES},
    }
    measure = per_layer if args.trace else end_to_end
    try:
        correct, attempted, failed, metrics = measure(env, args, record)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    expected = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != expected:
        print(f"metrics {sorted(set(metrics) ^ expected)} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1
    record["input_digest"] = record["worker"]["digest"]
    record["environment"] = record["worker"].pop("environment")
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    summary = ("workload", "seed", "git_commit", "src_sha256", "threads", "environment",
               "input_digest")
    print(json.dumps({"record": str(path.relative_to(ROOT)),
                      **{k: record[k] for k in summary}}))
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
