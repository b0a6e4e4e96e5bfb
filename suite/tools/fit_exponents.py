#!/usr/bin/env python3
"""Fits the speed exponents of `src/workloads.rs` from end-to-end reports.

    python3 suite/tools/fit_exponents.py DIR...

Every DIR is searched for `report_<workload>_trace0.json` files (what
`accordion-suite --workload W --trace 0 --out DIR` writes). Per workload it
prints the least-squares slope of log(raw time) on log(slowdown) over runs
(each run's medians) for round latency, CPU seconds per round and set-up,
and the spread (interquartile range / median over the runs) of each metric
raw and at nominal speed with the fitted exponent. The fit needs runs from
both states of the host; with one state only the slope means nothing.
"""
import glob
import json
import math
import statistics as st
import sys


def slope(times, slowdowns):
    xs = [math.log(s) for s in slowdowns]
    ys = [math.log(t) for t in times]
    mx, my = st.mean(xs), st.mean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx if sxx else float("nan")


def spread(values):
    q = st.quantiles(values, n=4)
    return (q[2] - q[0]) / st.median(values)


def main(dirs):
    reports = {}
    for d in dirs:
        for path in sorted(glob.glob(f"{d}/**/report_*_trace0.json", recursive=True)):
            r = json.load(open(path))
            reports.setdefault(r["workload"], []).append(r)
    for workload, runs in reports.items():
        print(f"{workload}: {len(runs)} runs")
        series = {
            "latency": ("round_ms_raw", "round_slowdown"),
            "cpu": ("round_cpu_s_raw", "round_slowdown"),
            "setup": ("setup_s_raw", "setup_slowdown"),
        }
        for name, (value_key, slowdown_key) in series.items():
            pairs = [(st.median(r[value_key]), st.median(r[slowdown_key])) for r in runs]
            values, slowdowns = zip(*pairs)
            e = slope(values, slowdowns)
            nominal = [v / s**e for v, s in pairs]
            if len(runs) >= 3:
                print(
                    f"  {name:8} exponent {e:5.2f}   slowdown {min(slowdowns):.2f}-{max(slowdowns):.2f}"
                    f"   spread raw {spread(values):6.1%}  nominal {spread(nominal):6.1%}"
                )


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    main(sys.argv[1:])
