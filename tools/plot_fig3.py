#!/usr/bin/env python3
"""ASCII plot of bench_fig3's JSON (stdlib only, no matplotlib needed).

Usage:
    build/bench/bench_fig3 --json=BENCH_fig3.json
    tools/plot_fig3.py BENCH_fig3.json [nu]

Renders pseudo Mflop/s against log2(n), the layout of the paper's
Figure 3: the spiral series at one SIMD width nu (default 0) for
p = 1, 2, 4, next to the baselines.
"""
import json
import sys

MARKS = {
    ("spiral", 1): "s",
    ("spiral", 2): "2",
    ("spiral", 4): "P",
    ("spiral-blockcyclic", 4): "B",
    ("fftw-seq", 1): "f",
    ("fftw-threads", 4): "F",
    ("six-step", 4): "6",
}


def load(path, nu):
    series = {}  # mark -> {log2n: pseudo_mflops}
    for row in json.load(open(path))["rows"]:
        if row["series"] == "spiral" and row["nu"] != nu:
            continue
        mark = MARKS.get((row["series"], row["p"]))
        if mark:
            series.setdefault(mark, {})[row["log2n"]] = row["pseudo_mflops"]
    return series


def plot(series, title, height=20):
    ks = sorted({k for pts in series.values() for k in pts})
    vmax = max(v for pts in series.values() for v in pts.values())
    print(f"\n== {title}: pseudo Mflop/s vs log2(n)  (peak {vmax:.0f}) ==")
    grid = [[" "] * len(ks) for _ in range(height)]
    for mark, pts in series.items():
        for i, k in enumerate(ks):
            if k not in pts:
                continue
            row = height - 1 - int(pts[k] / vmax * (height - 1))
            grid[row][i] = mark if grid[row][i] == " " else "*"
    for r, row in enumerate(grid):
        axis = f"{vmax * (height - 1 - r) / (height - 1):8.0f} |"
        print(axis + "  ".join(row))
    print(" " * 9 + "+" + "-" * (3 * len(ks)))
    print(" " * 10 + " ".join(f"{k:2d}" for k in ks))
    legend = "  ".join(f"{m}={s} p={p}" for (s, p), m in MARKS.items())
    print(f"legend: {legend}  (*=overlap)")


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    nu = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    plot(load(sys.argv[1], nu), f"spiral at nu={nu}")


if __name__ == "__main__":
    main()
