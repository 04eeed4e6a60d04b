#!/usr/bin/env python3
"""Appends one row per workload to BENCH_spine.json from two spine runs.

Each side is a directory holding one or more `graft-spine/run.sh --out`
directories (one per run, any depth): every `<workload>.json` under it
is one run of that workload, every `<workload>.layers.json` one traced
run. A row holds the change's and the parent's commits (`commit`,
`parent_commit`), the seeds and the pair count,
and per side the median and IQR, over runs, of each end-to-end metric
in BENCHMARK.json (and of the traced layer metrics, when both sides
have them), and of `debug_plain_ratio`: each untraced run's
`debug_job_s / plain_job_s`, whose two minima share the run's host
spell. Run from anywhere:

    python3 scripts/spine_trajectory.py PARENT_DIR CHANGE_DIR \
        [--parent REV] [--commit REV] [--out BENCH_spine.json]

The commits default to the `git_commit` the runs recorded.
"""
import argparse
import json
import pathlib
import statistics

ROOT = pathlib.Path(__file__).resolve().parent.parent
LAYERS = ["core.overhead_ratio", "core.us_per_capture", "core.bytes_per_capture",
          "obs.on_added_pct", "server.http_overhead_us", "server.bytes_out"]


def runs(side, suffix):
    """{workload: [run document, ...]} for every `<workload><suffix>` under `side`."""
    found = {}
    for path in sorted(pathlib.Path(side).rglob("*" + suffix)):
        workload = path.name[: -len(suffix)]
        if "." not in workload:
            found.setdefault(workload, []).append(json.loads(path.read_text()))
    return found


def summary(values):
    """The median and IQR of `values`, and how many there are."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "iqr": q3 - q1, "n": len(values)}


def spread(docs, names):
    """Per metric: the median and IQR of its value over the runs."""
    out = {}
    for name in names:
        values = [d["metrics"][name]["value"] for d in docs if name in d["metrics"]]
        if values:
            out[name] = summary(values)
    return out


def debug_plain_ratio(docs):
    """The median and IQR over untraced runs of each run's debug/plain ratio."""
    values = [d["metrics"]["debug_job_s"]["value"] / d["metrics"]["plain_job_s"]["value"]
              for d in docs if not d.get("trace") and "plain_job_s" in d["metrics"]]
    return {"debug_plain_ratio": summary(values)} if values else {}


def main():
    cli = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    cli.add_argument("parent_dir")
    cli.add_argument("change_dir")
    cli.add_argument("--parent")
    cli.add_argument("--commit")
    cli.add_argument("--out", default=str(ROOT / "BENCH_spine.json"))
    args = cli.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [metric["name"] for metric in bench["end_to_end"]]
    out = pathlib.Path(args.out)
    rows = json.loads(out.read_text()) if out.exists() else []
    sides = {key: (runs(d, ".json"), runs(d, ".layers.json"))
             for key, d in (("parent", args.parent_dir), ("change", args.change_dir))}
    revs = {"parent": args.parent, "change": args.commit}
    for workload in sorted(set(sides["parent"][0]) & set(sides["change"][0])):
        row = {"workload": workload}
        for key, (plain, traced) in sides.items():
            docs = plain[workload]
            row["commit" if key == "change" else "parent_commit"] = \
                revs[key] or docs[0]["host"]["git_commit"]
            row[key] = spread(docs, end_to_end)
            row[key].update(debug_plain_ratio(docs))
            if workload in traced:
                row[key].update(spread(traced[workload], LAYERS))
        row["seeds"] = sorted({d["seed"] for plain, _ in sides.values() for d in plain[workload]})
        row["pairs"] = min(len(plain[workload]) for plain, _ in sides.values())
        rows.append(row)
    out.write_text(json.dumps(rows, indent=1) + "\n")
    print(f"{out}: {len(rows)} row(s)")


if __name__ == "__main__":
    main()
