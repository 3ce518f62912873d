#!/usr/bin/env python3
"""Diffs the `tables` arrays of BENCH_<name>.json reports against goldens.

Usage:
  tools/check_bench_tables.py BENCH_foo.json [BENCH_bar.json ...]
  tools/check_bench_tables.py --update BENCH_foo.json [...]

The paper's cost tables (predicted and counted page I/Os, memo sizes,
candidate counts) are deterministic: the same binary on the same seed data
must reproduce them bit-for-bit. This gate catches silent regressions —
a cost-model tweak, a charging change, an optimizer fix — that move the
numbers without failing any unit test.

Wall-clock columns (``*_ms``/``*_us``/``*_ns``/``*_seconds`` and columns
derived from them, listed in EXTRA_EXCLUDED) vary run to run and are
replaced with null in the goldens and ignored in comparisons. Remaining
values compare within a tiny relative tolerance to absorb printf-level
float formatting differences.

Goldens live in bench/goldens/BENCH_<name>.tables.json. Regenerate with
--update after an intentional change and commit the diff. Stdlib only.
"""

import json
import math
import os
import re
import sys

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench", "goldens")

# Column names that are wall-clock readings regardless of bench.
TIMING_COLUMN = re.compile(r"(_ms|_us|_ns|_seconds)$")

# Per-bench columns that are deterministic-looking but derive from timings.
EXTRA_EXCLUDED = {
    "s2_scaling": {"ratio"},  # exh_ms / greedy_ms
}

REL_TOLERANCE = 1e-9


def excluded_columns(bench, columns):
    extra = EXTRA_EXCLUDED.get(bench, set())
    return {i for i, c in enumerate(columns)
            if TIMING_COLUMN.search(c) or c in extra}


def masked_tables(doc):
    """The report's tables with wall-clock values nulled out."""
    bench = doc["bench"]
    out = []
    for table in doc["tables"]:
        skip = excluded_columns(bench, table["columns"])
        out.append({
            "title": table["title"],
            "columns": list(table["columns"]),
            "rows": [{
                "label": row["label"],
                "values": [None if i in skip else v
                           for i, v in enumerate(row["values"])],
            } for row in table["rows"]],
        })
    return out


def golden_path(bench):
    return os.path.join(GOLDEN_DIR, f"BENCH_{bench}.tables.json")


def values_match(golden, fresh):
    if golden is None and fresh is None:
        return True
    if isinstance(golden, (int, float)) and isinstance(fresh, (int, float)):
        if math.isnan(golden) and math.isnan(fresh):
            return True
        return math.isclose(golden, fresh, rel_tol=REL_TOLERANCE,
                            abs_tol=REL_TOLERANCE)
    return golden == fresh


def diff_tables(bench, golden, fresh):
    errors = []
    if len(golden) != len(fresh):
        return [f"{bench}: {len(fresh)} tables, golden has {len(golden)}"]
    for g, f in zip(golden, fresh):
        where = f"{bench}: table '{f['title']}'"
        if g["title"] != f["title"]:
            errors.append(f"{bench}: table '{f['title']}' vs golden "
                          f"'{g['title']}' (order or title changed)")
            continue
        if g["columns"] != f["columns"]:
            errors.append(f"{where}: columns {f['columns']} vs golden "
                          f"{g['columns']}")
            continue
        if len(g["rows"]) != len(f["rows"]):
            errors.append(f"{where}: {len(f['rows'])} rows, golden has "
                          f"{len(g['rows'])}")
            continue
        for grow, frow in zip(g["rows"], f["rows"]):
            if grow["label"] != frow["label"]:
                errors.append(f"{where}: row '{frow['label']}' vs golden "
                              f"'{grow['label']}'")
                continue
            for i, (gv, fv) in enumerate(zip(grow["values"],
                                             frow["values"])):
                if not values_match(gv, fv):
                    errors.append(
                        f"{where}: row '{frow['label']}' "
                        f"column '{frow and f['columns'][i]}': "
                        f"{fv} vs golden {gv}")
    return errors


def load_report(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    for key in ("bench", "tables"):
        if key not in doc:
            raise ValueError(f"{path}: missing key '{key}'")
    return doc


def main(argv):
    args = [a for a in argv[1:] if a != "--update"]
    update = len(args) != len(argv) - 1
    if not args:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    all_errors = []
    for path in args:
        try:
            doc = load_report(path)
        except (OSError, ValueError, json.JSONDecodeError) as e:
            all_errors.append(f"{path}: unreadable report: {e}")
            continue
        bench = doc["bench"]
        fresh = masked_tables(doc)
        gpath = golden_path(bench)
        if update:
            os.makedirs(GOLDEN_DIR, exist_ok=True)
            with open(gpath, "w", encoding="utf-8") as f:
                json.dump({"bench": bench, "tables": fresh}, f, indent=1)
                f.write("\n")
            print(f"updated {gpath}")
            continue
        if not os.path.exists(gpath):
            all_errors.append(
                f"{path}: no golden {gpath}; run with --update and commit")
            continue
        with open(gpath, encoding="utf-8") as f:
            golden = json.load(f)["tables"]
        all_errors.extend(diff_tables(bench, golden, fresh))

    for err in all_errors:
        print(err, file=sys.stderr)
    if not all_errors and not update:
        print(f"ok: {len(args)} report(s) match goldens")
    return 1 if all_errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
