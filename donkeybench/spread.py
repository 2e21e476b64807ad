#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and the record of a host.

    python3 donkeybench/spread.py [--seeds 10] [--first-seed 1] [--sets 2]
                                  [--seconds S] [--workload W ...] [--out FILE]

Each set runs every workload once per seed (timed) and once traced at the
first seed.  Per set and metric it reports the median of the run values
and their spread, (q3 - q1) / median with the quartiles of
statistics.quantiles(values, n=4).  It marks a spread above a third of the
metric's bound in BENCHMARK.json with "!", and a set whose median is worse
than the first set's by more than the bound with "W".  A run that fails a
check, or reports other metrics than BENCHMARK.json lists, fails the
script.  --out writes the stamps, per-run medians and the summary.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed, seconds, trace):
    """One run; returns (metric values, compact record, ok)."""
    record = ROOT / ".bench_work" / "spread-record.json"
    record.parent.mkdir(exist_ok=True)
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", str(record)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    summary = json.loads(lines[-1]) if lines else {"metrics": {}}
    full = json.loads(record.read_text()) if record.exists() else {}
    record.unlink(missing_ok=True)

    want = SPEC["per_layer" if trace else "end_to_end"]
    units = {k: v["unit"] for k, v in summary["metrics"].items()}
    ok = (out.returncode == 0 and summary.get("correct") is True
          and units == {m["name"]: m["unit"] for m in want})
    if not ok:
        print(f"{workload} seed {seed} trace {trace}: FAILED "
              f"(exit {out.returncode})\n{out.stderr[-2000:]}", file=sys.stderr)
    compact = {"stamp": full.get("stamp"), "params": full.get("params"),
               "checks": full.get("checks"),
               "metrics": {k: v["value"] for k, v in summary["metrics"].items()}}
    return compact["metrics"], compact, ok


def median_and_spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    p.add_argument("--out")
    args = p.parse_args()

    workloads = args.workload or WORKLOADS
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    sets, runs, all_ok = [], [], True
    for _ in range(args.sets):
        timed, traced = {}, {}
        for workload in workloads:
            for seed in seeds:
                values, compact, ok = run(workload, seed, args.seconds, 0)
                runs.append(compact)
                all_ok = all_ok and ok
                for name, value in values.items():
                    timed.setdefault(workload, {}).setdefault(name, []).append(value)
            traced[workload], compact, ok = run(workload, args.first_seed,
                                                args.seconds, 1)
            runs.append(compact)
            all_ok = all_ok and ok
        sets.append({"timed": timed, "traced": traced})

    print(f"{'workload':18} {'metric':18} " + " ".join(
        f"{'median' + str(i + 1):>12} {'spread' + str(i + 1):>9}"
        for i in range(len(sets))) + "  bound")
    summary = []
    for metric in SPEC["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload in workloads:
            row = {"workload": workload, "metric": name, "unit": metric["unit"],
                   "bound": bound, "sets": []}
            cells, first = [], None
            for st in sets:
                values = st["timed"].get(workload, {}).get(name, [])
                if len(values) < 2:
                    continue
                med, spr = median_and_spread(values)
                first = first if first is not None else med
                worse = (med - first) / first if metric["better"] == "lower" \
                    else (first - med) / first
                flag = ("!" if name != "setup_s" and spr > bound / 3 else "") + \
                       ("W" if worse > bound else "")
                cells.append(f"{med:12.6g} {spr:7.3f}{flag:2}")
                row["sets"].append({"median": med, "spread": spr,
                                    "n": len(values), "worse_than_first": worse})
            print(f"{workload:18} {name:18} " + " ".join(cells) + f"  {bound}")
            summary.append(row)

    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seeds": list(seeds), "seconds": args.seconds, "summary": summary,
             "traced": [st["traced"] for st in sets], "runs": runs},
            indent=1) + "\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
