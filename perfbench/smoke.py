"""Smoke check for the benchmark itself.

    python3 perfbench/smoke.py

runs every workload at a tiny size, untraced and traced, and checks that:

- each run succeeds with no failed operation;
- every end-to-end metric of BENCHMARK.json is printed by name with its
  unit, and so is every named line predictions.json lists for the workload;
- the traced run prints every per-layer metric with its unit plus
  ``trace.overhead_share``; each layer a workload uses reads nonzero, and
  each layer predictions.json marks as unchanged for it reads 0;
- tracing does not change the arithmetic: the deterministic lines
  (``final_loss``, ``micro_f1``, ``wer_pooled``) match between the runs;
- in a directory holding only BENCHMARK.json and perfbench/, the runner
  exits nonzero without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LINE = re.compile(r"^(\S+) = (\S+) (\S+)")
DETERMINISTIC = ("final_loss", "micro_f1", "wer_pooled")


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def sections(stdout: str) -> dict[str, dict[str, tuple[str, str]]]:
    """workload -> metric name -> (value text, unit) from the named lines."""
    out: dict[str, dict] = {}
    current = None
    for line in stdout.splitlines():
        if line.startswith("== "):
            current = out.setdefault(line[3:], {})
        elif current is not None and (m := LINE.match(line)):
            current[m.group(1)] = (m.group(2), m.group(3))
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    predictions = json.loads((HERE / "predictions.json").read_text(
        encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        if not ok:
            failures.append(what)
        print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)

    printed = {}
    for trace in (0, 1):
        done = run(["--workload", "all", "--seed", "0", "--seconds", "1",
                    "--trace", str(trace), "--smoke"], ROOT)
        check(done.returncode == 0, f"trace {trace}: exit code 0")
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            continue
        result = json.loads(done.stdout.splitlines()[-1])
        check(result["correct"] and result["failed"] == 0,
              f"trace {trace}: correct, {result['failed']} failed")
        printed[trace] = lines = sections(done.stdout)
        group = spec["per_layer"] if trace else spec["end_to_end"]
        for name in workloads:
            got = lines.get(name, {})
            for metric in group:
                key = f"{name}.{metric['name']}"
                check(result["metrics"].get(key, {}).get("unit")
                      == metric["unit"]
                      and got.get(metric["name"], ("", ""))[1]
                      == metric["unit"],
                      f"trace {trace}: {key} printed in {metric['unit']}")
            if not trace:
                for named in predictions["reported"][name]:
                    check(named in got, f"{name} prints {named}")
                continue
            values = {m["name"]: result["metrics"][f"{name}.{m['name']}"]
                      ["value"] for m in spec["per_layer"]}
            for layer in predictions["layers"]:
                used = any(values[m] for m in layer["metrics"])
                expected = name not in layer["unchanged"]
                check(used == expected,
                      f"{name} {'uses' if expected else 'bypasses'} "
                      f"layer {layer['layer']}")

    if len(printed) == 2:
        for name in workloads:
            for key in DETERMINISTIC:
                if key in printed[0].get(name, {}):
                    check(printed[0][name][key] ==
                          printed[1].get(name, {}).get(key),
                          f"{name} {key} is identical traced and untraced")

    bare = ROOT / ".bench_tmp" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run(["--workload", "pretrain", "--seed", "0", "--seconds",
                    "1", "--trace", "0"], bare)
        check(done.returncode != 0 and "{" not in done.stdout,
              "without the program, exits nonzero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass

    print(f"{len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
