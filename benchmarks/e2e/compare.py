"""Compare two result files of ``run.py``: ``compare.py A.json B.json``.

One row per workload and end-to-end metric, A being the base. Each row
gives both medians, the ratio B/A with its base, the bound the benchmark
fixes for that metric, and a verdict:

- ``ok``          B's median is no worse than A's by more than the bound;
- ``regressed``   B's median is worse than A's by more than the bound;
- ``unresolved``  the spread of either file (quartile distance over
                  median) is wider than the bound and the two sample
                  ranges overlap, so these two files cannot tell either
                  way.

Exits non-zero if any row regressed.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE in sys.path:
    sys.path.remove(HERE)  # trace.py must not shadow the stdlib module
sys.path.insert(0, os.path.dirname(HERE))

from e2e import metrics  # noqa: E402


def _spread(record):
    """Interquartile range as a share of the median (0 where a record
    carries no quartiles: single samples, the tail percentile)."""
    if "q3" not in record or not record["value"]:
        return 0.0
    return (record["q3"] - record["q1"]) / abs(record["value"])


def verdict(base, other, better, bound):
    """``(worsening as a share of the base median, verdict)``."""
    a, b = base["value"], other["value"]
    if a == 0:
        # the zero-tolerance metrics (failed_frac, golden_drift)
        return (0.0, "ok") if b <= a else (float("inf"), "regressed")
    worse = (b - a) / a if better == "lower" else (a - b) / a
    wide = max(_spread(base), _spread(other)) > bound
    overlap = (other.get("min", b) <= base.get("max", a)
               and base.get("min", a) <= other.get("max", b))
    if wide and overlap:
        return worse, "unresolved"
    return worse, "ok" if worse <= bound else "regressed"


def compare(base_document, other_document):
    rows = []
    for workload in metrics.WORKLOADS:
        base = base_document["workloads"].get(workload, {})
        other = other_document["workloads"].get(workload, {})
        for metric, (unit, better, bound, _where) in \
                metrics.END_TO_END.items():
            a = base.get("end_to_end", {}).get(metric)
            b = other.get("end_to_end", {}).get(metric)
            if a is None or b is None:
                continue
            worse, status = verdict(a, b, better, bound)
            rows.append({
                "workload": workload, "metric": metric, "unit": unit,
                "base": a["value"], "other": b["value"],
                "ratio": b["value"] / a["value"] if a["value"] else None,
                "worse": worse, "bound": bound, "status": status,
            })
    return rows


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path) as handle:
            documents.append(json.load(handle))
    for label, document in zip("AB", documents):
        host = document["host"]
        print(f"{label}: commit {host['git_commit']} seed {host['seed']} "
              f"nproc {host['nproc']} python {host['python']} "
              f"numpy {host['numpy']} {host['machine']}")
    rows = compare(*documents)
    print(f"{'workload':12s} {'metric':14s} {'A (base)':>12s} "
          f"{'B':>12s} {'B/A':>7s} {'bound':>6s}  verdict")
    for row in rows:
        ratio = f"{row['ratio']:.3f}" if row["ratio"] is not None else "-"
        print(f"{row['workload']:12s} {row['metric']:14s} "
              f"{row['base']:12.5g} {row['other']:12.5g} {ratio:>7s} "
              f"{row['bound']:6.0%}  {row['status']} ({row['unit']})")
    regressed = [row for row in rows if row["status"] == "regressed"]
    unresolved = [row for row in rows if row["status"] == "unresolved"]
    print(f"{len(rows)} rows: {len(regressed)} regressed, "
          f"{len(unresolved)} unresolved")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
