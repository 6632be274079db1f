#!/usr/bin/env python3
"""Fold perfbench result records into one baseline file.

    python3 perfbench/summarize.py perfbench/out perfbench/baseline.json

Reads every `result-*.json` the benchmark wrote into the records
directory. For each workload, the untraced runs (one per seed) give each
end-to-end metric's median, quartiles and spread (quartile distance over
the median, as `statistics.quantiles(values, n=4)` gives them). A traced
run contributes its per-layer metrics as recorded. Provenance comes from
the records, which must all agree on it.
"""

import json
import pathlib
import statistics
import sys


def main(records_dir, out_path):
    records = [json.loads(p.read_text()) for p in sorted(pathlib.Path(records_dir).glob("result-*.json"))]
    if not records:
        sys.exit(f"no result-*.json under {records_dir}")
    provenance = {k: records[0][k] for k in ("git_sha", "nproc", "cpu_model", "rustc", "seconds")}
    for r in records:
        if any(r[k] != v for k, v in provenance.items()):
            sys.exit(f"records disagree on provenance: {r['workload']} seed {r['seed']}")
    workloads = {}
    for r in records:
        if not r["correct"]:
            sys.exit(f"incorrect run: {r['workload']} seed {r['seed']}")
        w = workloads.setdefault(r["workload"], {"seeds": [], "end_to_end": {}, "per_layer": {}})
        if r["trace"]:
            w["traced_seed"] = r["seed"]
            w["per_layer"] = r["metrics"]
            continue
        w["seeds"].append(r["seed"])
        for name, m in r["metrics"].items():
            w["end_to_end"].setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
    for w in workloads.values():
        for m in w["end_to_end"].values():
            values = m.pop("values")
            q1, _, q3 = statistics.quantiles(values, n=4)
            m.update(runs=len(values), median=statistics.median(values), q1=q1, q3=q3,
                     spread=(q3 - q1) / statistics.median(values))
    out = dict(provenance, workloads=workloads)
    pathlib.Path(out_path).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2])
