#!/usr/bin/env python3
"""Merge N runs of one benchmark JSON into a median-of-N capture.

Benchmark numbers on busy machines are noise-dominated, and the noise is
not symmetric: most runs of a row cluster together while a rare run lands
far faster (a quiet moment on a shared host). A per-row best would pick
those outliers, so two captures of identical code could differ by more
than the regression bound; the per-row median follows the cluster.
Rows are matched by `name` across files; each output row is the input row
whose throughput (`ops_per_sec`, else 1e9 / `ns_per_op`, else 1 /
`seconds`, as bench/compare_bench.py reads it) is the median of the N
runs — the lower middle one for even N. Top-level metadata is taken from
the first file and annotated with `"merged_runs": N`.

Usage: merge_bench.py RUN1.json RUN2.json ... > MEDIAN.json
       merge_bench.py --selftest
"""

import json
import sys

from compare_bench import compare_docs, throughput


def median_row(rows):
    """The row of median throughput (lower middle for an even count)."""
    ranked = sorted(rows, key=lambda r: throughput(r) or 0.0)
    return ranked[(len(ranked) - 1) // 2]


def merge_docs(docs, paths):
    names = [row["name"] for row in docs[0]["results"]]
    # Strict row matching in both directions: a median-of-N capture feeding
    # the regression gate must not silently become a median of fewer runs
    # or drop rows that only appear in later runs.
    for path, doc in zip(paths[1:], docs[1:]):
        extra = {r["name"] for r in doc["results"]} - set(names)
        if extra:
            sys.exit(f"{path}: rows {sorted(extra)} not present in {paths[0]}")
    merged = []
    for name in names:
        candidates = []
        for path, doc in zip(paths, docs):
            rows = [r for r in doc["results"] if r["name"] == name]
            if not rows:
                sys.exit(f"{path}: row {name!r} missing")
            candidates.extend(rows)
        merged.append(median_row(candidates))
    out = dict(docs[0])
    out["merged_runs"] = len(docs)
    out["results"] = merged
    return out


def selftest():
    """An A/A pair passes the 10% gate; a 15% slowdown of one row fails."""
    # Five runs per side of three rows, shaped like the table7 noise seen on
    # a shared 4-CPU host: each row clusters within a few percent, and a
    # rare run is ~50% faster.
    base_runs = {"mix": [2.01, 2.04, 3.10, 1.98, 2.02],
                 "get": [5.10, 5.02, 4.97, 5.05, 7.60],
                 "set": [3.00, 2.96, 3.03, 2.99, 3.02]}
    cand_runs = {"mix": [1.99, 2.03, 2.00, 2.05, 1.97],
                 "get": [4.99, 5.08, 7.40, 5.01, 5.04],
                 "set": [3.01, 3.04, 2.97, 4.50, 2.98]}

    def captures(runs, scale=None):
        scale = scale or {}
        docs = []
        for i in range(5):
            docs.append({"benchmark": "selftest", "results": [
                {"name": name, "ops_per_sec": values[i] * scale.get(name, 1.0)}
                for name, values in runs.items()]})
        return merge_docs(docs, [f"run{i}" for i in range(5)])

    quiet = lambda *_args, **_kw: None
    gate = [("throughput", "higher", 10.0)]
    checks = []

    def check(label, ok, detail=""):
        checks.append((label, ok))
        print(f"selftest: {label}: {'ok' if ok else 'FAIL ' + detail}")

    base = captures(base_runs)
    check("median picks the cluster, not the outlier",
          base["results"][0]["ops_per_sec"] == 2.02 and
          base["merged_runs"] == 5, str(base["results"][0]))
    fails = compare_docs(base, captures(cand_runs), gate, False, None,
                         emit=quiet)
    check("A/A pair passes the 10% gate", fails == [], str(fails))
    fails = compare_docs(base, captures(cand_runs, {"get": 0.85}), gate,
                         False, None, emit=quiet)
    check("15% slowdown of one row fails, naming only that row",
          len(fails) == 1 and fails[0].startswith("get:"), str(fails))
    bad = [label for label, ok in checks if not ok]
    print(f"selftest: {len(checks) - len(bad)}/{len(checks)} checks passed")
    return 1 if bad else 0


def main(args):
    if args == ["--selftest"]:
        return selftest()
    if len(args) < 2:
        sys.exit("usage: merge_bench.py RUN1.json RUN2.json ... > MEDIAN.json")
    docs = []
    for path in args:
        with open(path) as f:
            docs.append(json.load(f))
    json.dump(merge_docs(docs, args), sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
