"""Benchmark runner for denoiseclf.

    python3 perfbench/run.py --workload pretrain --seed 1 --seconds 20 --trace 0

runs one workload from the root of a source checkout: it sets the workload
up several times (``setup_s`` is the median), then repeats identical rounds
of it until ``--seconds`` have passed, checking every round's outputs. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it repeat every
metric by name and unit, plus the run's context.

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json.
``--trace 1`` alternates untraced and traced rounds, reports the per-layer
metrics of one traced set-up plus the mean traced round, and writes every
span to ``.bench_out/``. ``--workload all`` runs each workload in its own
process, one after another. ``--smoke`` shrinks every workload to a tiny
size; only ``perfbench/smoke.py`` uses it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("pretrain", "finetune", "classify", "prepare")
# One client and no extra threads: the matrices are tiny, and a BLAS pool
# on a 2-core machine only adds scheduling noise.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
# per-layer metrics that are ratios over the measured rounds, not totals
RATIO_METRICS = {"tensor.ops_per_example", "tokenizer.distinct_share",
                 "tokenizer.real_token_share", "encoder.calls_per_example"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: always a value that was measured."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def _src_files():
    return sorted(p for p in (SRC / "denoiseclf").rglob("*")
                  if p.is_file() and "__pycache__" not in p.parts)


def _blas() -> dict:
    import ctypes

    import numpy as np
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"blas": f"{info.get('name')} {info.get('version')}",
            "blas_threads": threads,
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}


def context() -> dict:
    """Ungated facts printed with every result."""
    import numpy as np
    commit = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if done.returncode == 0:
            commit = done.stdout.strip()
    digest = hashlib.sha256()
    src_lines = 0
    for path in _src_files():
        payload = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + payload)
        if path.suffix == ".py":
            src_lines += payload.count(b"\n")
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, **_blas(), "commit": commit,
            "src_sha256": digest.hexdigest()[:16], "src_lines": src_lines}


def _emit(name: str, value, unit: str, note: str = "") -> None:
    print(f"{name} = {value!r} {unit}{f'  ({note})' if note else ''}")


def run_workload(args, spec: dict) -> int:
    from refclock import ReferenceClock
    from workloads import WORKLOADS

    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # a traced run reports raw per-layer times and needs no reference
    reference = None if args.trace else ReferenceClock()
    clock = reference.now if reference else time.perf_counter
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir, args.smoke, clock)
        if reference is None:
            return _measure(args, spec, wl, None)
        with reference:
            return _measure(args, spec, wl, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def _measure(args, spec: dict, wl, reference) -> int:
    from tracer import Tracer

    clock = wl.clock
    reps = 1 if args.smoke or args.trace else wl.setup_reps
    setup_times = []

    def timed_setup():
        start = clock()
        made = wl.setup()
        setup_times.append(clock() - start)
        return made

    state = timed_setup()
    attempted, failed = wl.check_setup(state)

    tracer = Tracer(wl.name) if args.trace else None
    setup_layers = {}
    if tracer:
        mark = tracer.mark()
        tracer.install()
        try:
            state = wl.setup()
        finally:
            tracer.uninstall()
        setup_layers = tracer.phase_metrics(mark, examples=0)

    plain, traced, round_layers = [], [], []
    first_fingerprint = None
    begin = clock()
    deadline = begin + args.seconds
    index = 0
    while True:
        tracing = tracer is not None and index % 2 == 1
        if tracing:
            mark = tracer.mark()
            tracer.install()
        start = clock()
        try:
            result = wl.run_round(state, index)
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
            attempted += 1
            failed += 1
            result = None
        finally:
            elapsed = clock() - start
            if tracing:
                tracer.uninstall()
        if result is not None:
            if first_fingerprint is None:
                first_fingerprint = result.fingerprint
            elif result.fingerprint != first_fingerprint:
                result.failed = min(result.attempted, result.failed + 1)
            attempted += result.attempted
            failed += result.failed
            (traced if tracing else plain).append((elapsed, result))
            if tracing:
                round_layers.append(
                    tracer.phase_metrics(mark, result.examples))
        index += 1
        # The other set-ups are spread over the measuring window, so their
        # median sees the same load from neighbours as the rounds do.
        now = clock()
        due = 1 + math.ceil((reps - 1) * min(1.0, (now - begin) / args.seconds))
        while len(setup_times) < due:
            timed_setup()
        if now >= deadline and (
                (plain and (traced or tracer is None)) or index >= 4):
            break

    rounds = [r for _, r in plain]
    values = {}
    if rounds:
        op_ms = [x for r in rounds for x in r.op_ms]
        raw = {
            "setup_s": statistics.median(setup_times),
            "items_per_s": (sum(r.items for r in rounds) /
                            sum(r.busy_s for r in rounds)),
            "op_mean_ms": statistics.fmean(op_ms),
        }
        # times at the reference host's speed; throughput divides by it
        speed = reference.speed() if reference else 1.0
        values = {
            "setup_s": raw["setup_s"] * speed,
            "items_per_s": raw["items_per_s"] / speed,
            "op_mean_ms": raw["op_mean_ms"] * speed,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        at = "raw"
        if reference:
            at = "at reference speed"
            _emit("reference_speed", speed, "share",
                  f"{len(reference.samples)} kernel runs")
        _emit("setup_s", values["setup_s"], "s",
              f"median of {len(setup_times)} set-ups, {at}")
        _emit("items_per_s", values["items_per_s"], "1/s",
              f"{len(rounds)} rounds, {at}")
        _emit("op_mean_ms", values["op_mean_ms"], "ms",
              f"{wl.op_name}, {len(op_ms)} samples, {at}")
        _emit("raw_setup_s", raw["setup_s"], "s")
        for key, (_, unit) in rounds[0].report.items():
            _emit(key, statistics.median(r.report[key][0] for r in rounds),
                  unit, f"median of {len(rounds)} rounds, raw")
        _emit(f"{wl.op_name}_p50_ms", statistics.median(op_ms), "ms",
              f"{len(op_ms)} samples, raw")
        _emit(f"{wl.op_name}_p99_ms", percentile(op_ms, 99), "ms",
              f"{len(op_ms)} samples, "
              f"{len(op_ms) - math.ceil(len(op_ms) * 0.99)} beyond, raw")
        _emit("peak_rss_mb", values["peak_rss_mb"], "MB")
    _emit("failed_share", failed / max(attempted, 1), "share",
          f"{failed} of {attempted} operations")

    if tracer:
        if round_layers:
            for key in round_layers[0]:
                mean = statistics.fmean(r[key] for r in round_layers)
                values[key] = mean if key in RATIO_METRICS else (
                    setup_layers[key] + mean)
        if plain and traced:
            values["trace.overhead_share"] = (
                statistics.median(t for t, _ in traced) /
                statistics.median(t for t, _ in plain) - 1.0)
        out = ROOT / ".bench_out" / f"trace-{wl.name}-seed{args.seed}.json"
        tracer.write(out, {"seed": args.seed, "setup": setup_layers,
                           "rounds": round_layers, "metrics": values})
        print(f"trace written to {out.relative_to(ROOT)}")

    print("context = " + json.dumps(context()))
    group = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    if all(m["name"] in values for m in spec[group]):
        for m in spec[group]:
            metrics[m["name"]] = {"value": values[m["name"]],
                                  "unit": m["unit"]}
            if args.trace:
                _emit(m["name"], values[m["name"]], m["unit"])
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; a combined result line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        print(f"== {name}", flush=True)
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(600.0, 10 * args.seconds))
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            status = done.returncode or 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "denoiseclf" / "__init__.py").is_file():
        print(f"error: no denoiseclf source under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload == "all":
        return run_all(args)
    for var in BLAS_THREAD_VARS:  # must precede the first numpy import
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    import denoiseclf
    if Path(denoiseclf.__file__).resolve().parent != SRC / "denoiseclf":
        print(f"error: imported denoiseclf from {denoiseclf.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
