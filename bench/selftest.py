"""The benchmark's own test.

    python3 bench/selftest.py

Runs every workload at the tiny input size under a seed other than the
default, untraced and traced, each in its own process, and checks that
the run exits 0 with no failed operation (fail_frac 0) and prints every
metric BENCHMARK.json names, with its unit.  Then copies BENCHMARK.json
and bench/ alone into .bench_work/bare/ and checks that the benchmark
fails there without printing a result, since there is no package source
to run.  Exits 0 when every check holds.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = "2"
TIMEOUT = 180


def run(cwd, *args):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def check_run(workload, trace, expected):
    proc = run(ROOT, "--workload", workload, "--seed", SEED, "--seconds", "1",
               "--trace", str(trace), "--size", "tiny")
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}\n{proc.stderr[-2000:]}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        wrong = sorted(n for n in got if n in expected and got[n] != expected[n])
        problems.append(f"{where}: missing {missing}, wrong unit {wrong}, "
                        f"extra {sorted(set(got) - set(expected))}")
    return problems


def check_bare():
    bare = os.path.join(ROOT, ".bench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "--workload", "verify", "--seed", SEED, "--seconds", "1",
               "--trace", "0")
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    units = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            found = check_run(workload, trace, units[trace])
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    found = check_bare()
    print(f"bare directory: {'ok' if not found else 'FAILED'}")
    problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
