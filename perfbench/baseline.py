"""Summarize benchmark result files into a baseline.

Usage, from the root of a checkout, after running the benchmark on a set of
seeds (each run leaves ``.perfbench/<workload>-seed<n>-trace<t>.json``):

    python3 perfbench/baseline.py .perfbench > perfbench/baseline.json

Per workload, the baseline holds the median and quartiles of every
end-to-end metric over the untraced runs, the per-layer metrics of the
traced runs, the SHA-256 of every CLI record per seed (``run.py`` counts
the records that differ from these) and every failure met.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def summarize(results: list) -> dict:
    out = {"environment": None, "seeds": {}, "end_to_end": {}, "per_layer": {},
           "digests": {}, "failures": {}}
    untraced = {}
    for r in sorted(results, key=lambda r: (r["workload"], r["trace"], r["seed"])):
        w, seed = r["workload"], str(r["seed"])
        out["environment"] = out["environment"] or r["environment"]
        out["digests"].setdefault(w, {})[seed] = r["record_sha256"]
        if r["failures"] or r["notes"]:
            out["failures"].setdefault(w, {})[seed] = {"calls": r["failures"], "notes": r["notes"]}
        if r["trace"]:
            out["per_layer"].setdefault(w, {})[seed] = r["metrics"]
        else:
            out["seeds"].setdefault(w, []).append(r["seed"])
            for name, value in r["metrics"].items():
                untraced.setdefault(w, {}).setdefault(name, []).append(value)
    for w, metrics in untraced.items():
        summary = out["end_to_end"][w] = {}
        for name, values in metrics.items():
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            summary[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median if median else None,
                             "runs": len(values)}
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    results = [json.loads(p.read_text()) for p in sorted(Path(argv[0]).glob("*.json"))]
    print(json.dumps(summarize(results), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
