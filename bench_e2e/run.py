#!/usr/bin/env python3
"""End-to-end FlowTime benchmark entry point.

Measure one workload (builds the Release binary first, from source):
    python3 bench_e2e/run.py --workload fig4_noisy --seed 13 --seconds 30 --trace 0

The last line of stdout is the JSON result. --trace 1 reports the
per-layer metrics of a traced replay instead and writes its spans to
.bench_build/bench_e2e/spans-<workload>.jsonl. --out FILE also
appends the result, tagged with workload, seed and trace, to FILE.

Compare two result files written with --out:
    python3 bench_e2e/run.py --compare parent.jsonl change.jsonl
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the benchmark directory clean
import compare  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "bench_e2e")
BINARY = os.path.join(BUILD_DIR, "bench_e2e")
RUN_TIMEOUT_S = 175
BUILD_JOBS = max(1, min(4, os.cpu_count() or 1))


def fail(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the Release binary; logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("FlowTime sources (src/) not found next to bench_e2e/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", BUILD_DIR, "--target", "bench_e2e",
                   "-j", str(BUILD_JOBS)]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    """The result line must carry exactly the declared metrics."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys: %s" % sorted(result))
    declared = declared_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "or units differ" % (missing, extra))


def measure(args):
    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out",
                os.path.join(BUILD_DIR, "spans-%s.jsonl" % args.workload)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        fail("bench_e2e exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    check_result(result, args.trace)
    if not result["correct"]:
        fail("correctness gate failed")
    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace}
        record.update(result)
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    print(lines[-1], flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result to this JSONL file")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args()
    if args.compare:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        print(compare.render(compare.load(args.compare[0]),
                             compare.load(args.compare[1]), spec))
        return
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    measure(args)


if __name__ == "__main__":
    main()
