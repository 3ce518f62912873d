#!/usr/bin/env python3
"""Validates BENCH_<name>.json files emitted by the bench binaries.

Usage: tools/check_bench_json.py BENCH_foo.json [BENCH_bar.json ...]

Checks the schema documented in docs/BENCHMARKING.md: required top-level
keys, their types, the table structure (row value counts match the column
count), and that the metrics snapshot carries the page-I/O counters every
report must include. Exits non-zero with a message per violation, so CI can
gate on it. Stdlib only — no third-party dependencies.
"""

import json
import sys

REQUIRED_TOP_LEVEL = {
    "schema_version": int,
    "bench": str,
    "wall_time_seconds": (int, float),
    "table_time_seconds": (int, float),
    "page_reads": int,
    "page_writes": int,
    "tables": list,
    "metrics": dict,
}

REQUIRED_COUNTERS = ["storage.page_reads", "storage.page_writes"]

# The durable-log metric family (docs/DURABILITY.md). WAL counters are
# optional — benches without a log attached legitimately omit them — but any
# counter in the wal.* namespace must be one of these, so a typo'd or
# renamed counter fails the gate instead of silently forking the family.
KNOWN_WAL_COUNTERS = {
    "wal.appends",
    "wal.aborts",
    "wal.bytes",
    "wal.fsyncs",
    "wal.checkpoints",
    "wal.checkpoint_failures",
    "wal.recovered_txns",
    "wal.truncated_tail",
}

# The concurrency-layer metric family (docs/CONCURRENCY.md,
# docs/OBSERVABILITY.md). Same closed-namespace rule as wal.*:
# concurrency.snapshot_pins is a gauge, the rest are counters.
KNOWN_CONCURRENCY_COUNTERS = {
    "concurrency.commits",
    "concurrency.conflicts",
    "concurrency.retries",
}
KNOWN_CONCURRENCY_GAUGES = {
    "concurrency.snapshot_pins",
}

# Namespaces of retired mechanisms: the parallel-propagation worker pool
# and hash-sharded storage are gone, so no metric may carry these prefixes.
# A report that does was built from stale code; the live successors are
# maintain.coalesce_rows and maintain.self_maintainable_txns.
RETIRED_PREFIXES = ("maintain.pool.", "maintain.shard.")


def retired_metric_errors(path, family, names):
    return [f"{path}: retired {family} '{name}' (the maintain.pool.* and "
            f"maintain.shard.* namespaces are closed)"
            for name in names if name.startswith(RETIRED_PREFIXES)]


def check(path):
    errors = []
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: unreadable or invalid JSON: {e}"]

    for key, expected in REQUIRED_TOP_LEVEL.items():
        if key not in doc:
            errors.append(f"{path}: missing key '{key}'")
        elif not isinstance(doc[key], expected):
            errors.append(
                f"{path}: '{key}' has type {type(doc[key]).__name__}, "
                f"expected {expected}")
    if errors:
        return errors

    if doc["schema_version"] != 1:
        errors.append(f"{path}: unknown schema_version {doc['schema_version']}")

    for t, table in enumerate(doc["tables"]):
        where = f"{path}: tables[{t}]"
        for key, expected in (("title", str), ("columns", list),
                              ("rows", list)):
            if not isinstance(table.get(key), expected):
                errors.append(f"{where}: bad or missing '{key}'")
                break
        else:
            ncols = len(table["columns"])
            for r, row in enumerate(table["rows"]):
                if not isinstance(row.get("label"), str):
                    errors.append(f"{where}.rows[{r}]: bad 'label'")
                values = row.get("values")
                if not isinstance(values, list):
                    errors.append(f"{where}.rows[{r}]: bad 'values'")
                elif ncols and len(values) != ncols:
                    errors.append(
                        f"{where}.rows[{r}]: {len(values)} values for "
                        f"{ncols} columns")

    counters = doc["metrics"].get("counters")
    if not isinstance(counters, dict):
        errors.append(f"{path}: metrics.counters missing")
    else:
        for name in REQUIRED_COUNTERS:
            if name not in counters:
                errors.append(f"{path}: metrics.counters missing '{name}'")
        for name in counters:
            if name.startswith("wal.") and name not in KNOWN_WAL_COUNTERS:
                errors.append(
                    f"{path}: unknown wal.* counter '{name}' (update "
                    f"KNOWN_WAL_COUNTERS and docs/DURABILITY.md together)")
            if (name.startswith("concurrency.")
                    and name not in KNOWN_CONCURRENCY_COUNTERS):
                errors.append(
                    f"{path}: unknown concurrency.* counter '{name}' "
                    f"(update KNOWN_CONCURRENCY_COUNTERS and "
                    f"docs/CONCURRENCY.md together)")
        errors.extend(retired_metric_errors(path, "counter", counters))

    for key in ("gauges", "histograms"):
        if not isinstance(doc["metrics"].get(key), dict):
            errors.append(f"{path}: metrics.{key} missing")

    gauges = doc["metrics"].get("gauges")
    if isinstance(gauges, dict):
        for name in gauges:
            if (name.startswith("concurrency.")
                    and name not in KNOWN_CONCURRENCY_GAUGES):
                errors.append(
                    f"{path}: unknown concurrency.* gauge '{name}' "
                    f"(update KNOWN_CONCURRENCY_GAUGES and "
                    f"docs/CONCURRENCY.md together)")
        errors.extend(retired_metric_errors(path, "gauge", gauges))

    histograms = doc["metrics"].get("histograms")
    if isinstance(histograms, dict):
        errors.extend(retired_metric_errors(path, "histogram", histograms))

    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    all_errors = []
    for path in argv[1:]:
        all_errors.extend(check(path))
    for err in all_errors:
        print(err, file=sys.stderr)
    if not all_errors:
        print(f"ok: {len(argv) - 1} report(s) valid")
    return 1 if all_errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
