"""Per-metric deltas between two result sets written by `run.py --out`.

Counters (every unit that is not a host time or size) must repeat exactly,
so they are compared seed by seed. Host times and sizes are compared by
median, against the parent's run-to-run spread: the distance between the
first and third quartile of the parent's values.
"""

import json
import statistics

MEASURED_UNITS = {"s", "ms", "MB", "%"}


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def _group(records):
    """(workload, trace) -> metric -> {"unit", "by_seed": {seed: [values]}}."""
    groups = {}
    for record in records:
        key = (record["workload"], record["trace"])
        for name, metric in record["metrics"].items():
            entry = groups.setdefault(key, {}).setdefault(
                name, {"unit": metric["unit"], "by_seed": {}})
            entry["by_seed"].setdefault(record["seed"], []).append(
                metric["value"])
    return groups


def _spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def _measured_row(name, unit, parent, change, lower_is_better):
    p = [v for values in parent.values() for v in values]
    c = [v for values in change.values() for v in values]
    p_med, c_med = statistics.median(p), statistics.median(c)
    noise = _spread(p)
    delta = c_med - p_med
    if len(p) < 2:
        verdict = "unresolved: one parent run, no spread"
    elif abs(delta) <= noise:
        verdict = "within noise"
    elif (delta < 0) == lower_is_better:
        verdict = "better"
    else:
        verdict = "worse"
    share = "%+.1f%%" % (100.0 * delta / p_med) if p_med else "n/a"
    return "%-34s %14.6g -> %-14.6g %-6s %8s  noise %.4g  %s" % (
        name, p_med, c_med, unit, share, noise, verdict)


def _counter_row(name, unit, parent, change):
    seeds = sorted(set(parent) & set(change))
    if not seeds:
        return "%-34s no seed measured on both sides" % name
    changed = [(s, parent[s][0], change[s][0]) for s in seeds
               if parent[s][0] != change[s][0]]
    if not changed:
        return "%-34s %14.6g    %-6s same on %d seed(s)" % (
            name, parent[seeds[0]][0], unit, len(seeds))
    s, before, after = changed[0]
    return "%-34s changed on %d of %d seed(s), e.g. seed %s: %.6g -> %.6g %s" % (
        name, len(changed), len(seeds), s, before, after, unit)


def render(parent_records, change_records, spec):
    """A text report, one block per (workload, trace) measured on both sides."""
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = _group(parent_records), _group(change_records)
    lines = []
    for key in sorted(set(parent) & set(change)):
        lines.append("== %s (trace %d)" % key)
        for name in sorted(set(parent[key]) & set(change[key])):
            unit = parent[key][name]["unit"]
            p, c = parent[key][name]["by_seed"], change[key][name]["by_seed"]
            if unit in MEASURED_UNITS:
                lines.append(_measured_row(name, unit, p, c,
                                           better.get(name, "lower") == "lower"))
            else:
                lines.append(_counter_row(name, unit, p, c))
    return "\n".join(lines)
