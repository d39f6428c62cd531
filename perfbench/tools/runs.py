#!/usr/bin/env python3
"""Repeated benchmark runs: run-to-run spread, and the repeatability record.

Run from the root of the checkout:

  python3 perfbench/tools/runs.py spread --workload compile-small --seeds 1-10
  python3 perfbench/tools/runs.py record --seed 1 --out perfbench/REPEATABILITY.md

`spread` runs the BENCHMARK.json command once per seed and prints, per
metric, the median, the quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median next to the metric's bound.  It also prints the
spread of the plain order statistic that each run reports in its `info`
line beside every Harrell-Davis median and tail, so the two estimators can
be compared on the same runs.  `record` makes two
traced runs and one untraced run of each workload with the same seed and
writes which per-layer counts repeat exactly, and the tracing overhead.
"""
import argparse
import json
import statistics
import subprocess
import sys


def load_bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(bench, workload, seed, trace, seconds=None):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds or bench["run_seconds"]), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"run failed ({' '.join(cmd)}):\n{out.stderr}")
    result = json.loads(lines[-1])
    info = next((json.loads(l[len("info "):]) for l in lines if l.startswith("info ")), {})
    result["order_stat"] = info.get("order_stat", {})
    result["host"] = next((l[len("host "):] for l in lines if l.startswith("host ")), "{}")
    details = [json.loads(l[len("detail "):]) for l in lines if l.startswith("detail ")]
    return result, details


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(args):
    bench = load_bench()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values = {}
    plain = {}
    for s in seeds(args.seeds):
        result, _ = run_once(bench, args.workload, s, args.trace, args.seconds)
        if not result["correct"]:
            print(f"seed {s}: correct=false, failed {result['failed']}/{result['attempted']}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        for name, v in result["order_stat"].items():
            plain.setdefault(name, []).append(v)
        print(f"seed {s}: " + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
              flush=True)
    def table(title, vals):
        print(f"\n{title:32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vs in vals.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            rel = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None else ("ok" if rel < bound / 3 else "WIDE")
            print(f"{name:32} {med:12.5g} {q1:12.5g} {q3:12.5g} {rel:8.3f} {bound or '':>6} {flag}")

    table("metric", values)
    if plain:
        table("plain order statistic", plain)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"metrics": values, "order_stat": plain}, f, indent=1)


# Per-compile counts the traced compile-* runs print in their `detail` lines.
DETAIL_COUNTS = [
    "size", "cegis.iterations", "cegis.test_cases", "cegis.verify_checks",
    "cegis.budget_levels", "sat.conflicts", "sat.decisions", "sat.propagations",
    "portfolio.races", "batch.rounds", "batch.candidates", "batch.cex_harvested",
    "batch.cex_dup_dropped",
]


def record(args):
    bench = load_bench()
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    out = ["# Repeatability record", "",
           f"Two traced runs and one untraced run per workload, seed {args.seed}, "
           f"`--seconds {bench['run_seconds']}`, made with `python3 perfbench/tools/runs.py record`.",
           ""]
    for i, w in enumerate(w["name"] for w in bench["workloads"]):
        (a, da), (b, db) = (run_once(bench, w, args.seed, 1) for _ in range(2))
        plain, _ = run_once(bench, w, args.seed, 0)
        if i == 0:
            out += ["Host: `" + a["host"] + "`", ""]
        out += [f"## {w}", ""]
        counts = [n for n, u in units.items() if u in ("count", "bits", "bytes")]
        same = [n for n in counts if a["metrics"][n]["value"] == b["metrics"][n]["value"]]
        differ = [n for n in counts if n not in same]
        out += ["Per-layer counts that repeat exactly: " + (", ".join(f"`{n}`" for n in same) or "none") + ".",
                "",
                "Per-layer counts that differ: " + (", ".join(
                    f"`{n}` ({a['metrics'][n]['value']:.6g} vs {b['metrics'][n]['value']:.6g})"
                    for n in differ) or "none") + ".", ""]
        if da and db:
            out += ["Per compile class, the counts of the `detail` lines (every compile of both runs):", "",
                    "| class | compiles | repeat exactly | differ |", "|---|---|---|---|"]
            classes = sorted({d["class"] for d in da})
            for c in classes:
                rows_a = {(d["pass"], d["row"], d["device"]): d for d in da if d["class"] == c}
                rows_b = {(d["pass"], d["row"], d["device"]): d for d in db if d["class"] == c}
                keys = sorted(set(rows_a) & set(rows_b))
                rep = [k for k in DETAIL_COUNTS if all(rows_a[r][k] == rows_b[r][k] for r in keys)]
                dif = [k for k in DETAIL_COUNTS if k not in rep]
                out.append(f"| {c} | {len(keys)} | {', '.join(rep) or '-'} | {', '.join(dif) or '-'} |")
            out.append("")
        for key in ("traced.compile_s.geomean", "traced.request_s.p50"):
            plain_key = key[len("traced."):]
            traced = [r["metrics"][key]["value"] for r in (a, b)]
            base = plain["metrics"][plain_key]["value"]
            out.append(f"Tracing overhead on `{plain_key}`: traced {traced[0]:.5g} s and {traced[1]:.5g} s, "
                       f"untraced {base:.5g} s ({(statistics.mean(traced) / base - 1) * 100:+.1f}%).")
        out.append("")
    text = "\n".join(out)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    print(text)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("spread")
    s.add_argument("--workload", required=True)
    s.add_argument("--seeds", default="1-10")
    s.add_argument("--trace", type=int, default=0)
    s.add_argument("--seconds", type=int)
    s.add_argument("--out")
    r = sub.add_parser("record")
    r.add_argument("--seed", type=int, default=1)
    r.add_argument("--out")
    args = p.parse_args()
    spread(args) if args.cmd == "spread" else record(args)


if __name__ == "__main__":
    main()
