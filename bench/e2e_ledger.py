#!/usr/bin/env python3
"""The committed end-to-end ledger: BENCH_e2e.json at the repository root.

Fold `bench_e2e/run.py --out` result files into the ledger, one row per
commit label, workload and seed (rows with the same key are replaced):

    python3 bench/e2e_ledger.py add --label live-list --commit 3028a40+ \\
        runs.jsonl [more.jsonl ...]

Validate the committed file (a ctest):

    python3 bench/e2e_ledger.py check BENCH_e2e.json

A row needs at least one untraced (--trace 0) and one traced (--trace 1)
record. The untraced records give the median and quartiles of run_s,
setup_s and peak_rss_mb, and the ad-hoc turnarounds; the traced ones give
every count-unit metric and the median of every timed layer metric.
Turnarounds, attempted, failed and the counts are deterministic: `add`
fails if they differ between the records of one row. `--commit` names the
measured commit; a trailing "+" marks uncommitted changes on it, that is,
the commit that adds the row. The host's nproc and compiler are recorded
with every row.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True  # keep bench_e2e/ free of caches
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "bench_e2e"))
import compare  # noqa: E402

SCHEMA = "flowtime.bench_e2e_ledger/1"
SPREAD_METRICS = ("run_s", "setup_s", "peak_rss_mb")
EXACT_METRICS = ("adhoc_turnaround_s_mean", "adhoc_turnaround_s_p95")
ROW_KEYS = {"label", "commit", "workload", "seed", "host", "runs",
            "traced_runs", "attempted", "failed", "counters", "layers",
            *SPREAD_METRICS, *EXACT_METRICS}


class LedgerError(Exception):
    pass


def spread(values):
    """Median and quartiles, the way compare.py measures the parent's spread."""
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def the_same(key, what, values):
    """The one value every record agrees on, or LedgerError."""
    if len(set(values)) != 1:
        raise LedgerError("%s: %s differs between runs: %s" %
                          ("/".join(map(str, key)), what, sorted(set(values))))
    return values[0]


def host():
    try:
        version = subprocess.run(["c++", "--version"], capture_output=True,
                                 text=True).stdout.splitlines()
    except OSError:
        version = []
    return {"nproc": os.cpu_count() or 1,
            "compiler": version[0] if version else "unknown"}


def make_rows(records, label, commit, host_info):
    """One ledger row per (workload, seed) found in `records`."""
    groups = {}
    for record in records:
        key = (label, record["workload"], record["seed"])
        groups.setdefault(key, {0: [], 1: []})[record["trace"]].append(record)
    rows = []
    for key, by_trace in sorted(groups.items()):
        plain, traced = by_trace[0], by_trace[1]
        if not plain or not traced:
            raise LedgerError("%s: needs --trace 0 and --trace 1 records" %
                              "/".join(map(str, key)))
        everything = plain + traced
        row = {"label": label, "commit": commit, "workload": key[1],
               "seed": key[2], "host": host_info, "runs": len(plain),
               "traced_runs": len(traced)}
        for name in SPREAD_METRICS:
            row[name] = spread([r["metrics"][name]["value"] for r in plain])
        for name in EXACT_METRICS:
            row[name] = the_same(key, name,
                                 [r["metrics"][name]["value"] for r in plain])
        for name in ("attempted", "failed"):
            row[name] = the_same(key, name, [r[name] for r in everything])
        row["counters"], row["layers"] = {}, {}
        for name in sorted(traced[0]["metrics"]):
            unit = traced[0]["metrics"][name]["unit"]
            values = [r["metrics"][name]["value"] for r in traced]
            if unit == "count":
                row["counters"][name] = the_same(key, name, values)
            elif unit in compare.MEASURED_UNITS:
                row["layers"][name] = statistics.median(values)
        rows.append(row)
    return rows


def check(ledger):
    """Schema errors of a ledger object, as a list of strings."""
    if ledger.get("schema") != SCHEMA or not ledger.get("rows"):
        return ["expected {\"schema\": %r, \"rows\": [...]}" % SCHEMA]
    errors, seen = [], set()
    for i, row in enumerate(ledger["rows"]):
        where = "row %d" % i
        if set(row) != ROW_KEYS:
            errors.append("%s: keys differ by %s" %
                          (where, sorted(set(row) ^ ROW_KEYS)))
            continue
        key = (row["label"], row["workload"], row["seed"])
        if key in seen:
            errors.append("%s: duplicate %s" % (where, key))
        seen.add(key)
        if not (isinstance(row["host"].get("nproc"), int) and
                isinstance(row["host"].get("compiler"), str)):
            errors.append("%s: host needs nproc and compiler" % where)
        if not (row["commit"] and row["runs"] >= 1 and
                row["traced_runs"] >= 1):
            errors.append("%s: needs a commit, runs and traced_runs" % where)
        for name in SPREAD_METRICS:
            s = row[name]
            if not s["q1"] <= s["median"] <= s["q3"]:
                errors.append("%s: %s quartiles out of order" % (where, name))
        if not row["counters"] or not all(
                isinstance(v, (int, float)) for v in row["counters"].values()):
            errors.append("%s: counters missing or not numbers" % where)
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    add = sub.add_parser("add", help="fold run.py --out files into the ledger")
    add.add_argument("--label", required=True)
    add.add_argument("--commit", required=True)
    add.add_argument("--ledger", default=os.path.join(ROOT, "BENCH_e2e.json"))
    add.add_argument("results", nargs="+")
    chk = sub.add_parser("check", help="validate a ledger file")
    chk.add_argument("ledger")
    args = parser.parse_args()

    if args.mode == "check":
        with open(args.ledger) as f:
            errors = check(json.load(f))
        for error in errors:
            print("error: " + error, file=sys.stderr)
        if not errors:
            print("%s: OK" % args.ledger)
        return 1 if errors else 0

    records = [r for path in args.results for r in compare.load(path)]
    try:
        rows = make_rows(records, args.label, args.commit, host())
    except LedgerError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    ledger = {"schema": SCHEMA, "rows": []}
    if os.path.exists(args.ledger):
        with open(args.ledger) as f:
            ledger = json.load(f)
    replaced = {(r["label"], r["workload"], r["seed"]) for r in rows}
    ledger["rows"] = [r for r in ledger["rows"]
                      if (r["label"], r["workload"], r["seed"]) not in replaced]
    ledger["rows"] += rows
    errors = check(ledger)
    if errors:
        print("error: " + "; ".join(errors), file=sys.stderr)
        return 1
    with open(args.ledger, "w") as f:
        json.dump(ledger, f, indent=2)
        f.write("\n")
    print("%s: %d row(s) for %s" % (args.ledger, len(rows), args.label))
    return 0


if __name__ == "__main__":
    sys.exit(main())
