"""Self-test of the benchmark command.

Each workload of BENCHMARK.json, at its smallest size, traced and untraced,
must end stdout with one well-formed result line that names exactly the
metrics in BENCHMARK.json.  A directory holding only BENCHMARK.json and the
benchmark must make the command fail without a result.  Takes about half a
minute:

    python3 perfbench/selftest.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            before = len(problems)
            proc = run(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            elif not result["correct"] or result["attempted"] < 1 or result["failed"]:
                problems.append(f"{where}: {lines[-1]}\n{proc.stderr[-2000:]}")
            elif {k: v["unit"] for k, v in result["metrics"].items()} != expected[trace]:
                problems.append(f"{where}: metrics {sorted(result['metrics'])}")
            print(f"{where}: {'ok' if len(problems) == before else 'FAILED'}", flush=True)

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, "scan_codec", 0)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare)

    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
