#!/usr/bin/env python3
"""Utility guard for the committed ``results/BENCH_quality.json``.

Checks the orderings that EXPERIMENTS.md E1/E2 report as reproduced, on
the k-means clustering of every dataset (the cells E1/E2 quote):

* at ε = 0.1: TabEE ≥ DPClustX > DP-Naive and DPClustX > DP-TabEE in
  Quality (Figure 5);
* at ε = 1 on Diabetes: DPClustX MAE < DP-Naive MAE (Figure 6).

It also pins the committed settings (seed 2025, 10 runs, 5 clusters, all
three datasets), so a file regenerated at other settings fails instead of
passing vacuously. Regenerate with

    cargo run -p dpx-bench --release --bin fig5_quality -- \\
        --out results/BENCH_quality.json

Exits 0 when every ordering holds, 1 with every failure listed otherwise.
Stdlib only — no installs.
"""

import json
import sys

DATASETS = ["Census", "Diabetes", "Stack Overflow"]


def main(path):
    doc = json.load(open(path))
    failures = []
    if doc.get("bench") != "quality":
        failures.append(f"not a quality bench file: bench={doc.get('bench')!r}")
    for key, want in (("seed", 2025), ("runs", 10), ("clusters", [5])):
        if doc.get(key) != want:
            failures.append(f"{key} = {doc.get(key)!r}, committed setting is {want!r}")

    def point(dataset, eps, explainer):
        for cell in doc["cells"]:
            if cell["dataset"] == dataset and cell["method"] == "k-means":
                for p in cell["points"]:
                    if p["eps"] == eps and p["explainer"] == explainer:
                        return p
        raise SystemExit(f"{path}: no {dataset} k-means point for {explainer} at eps={eps}")

    for dataset in DATASETS:
        q = {e: point(dataset, 0.1, e)["quality"]
             for e in ("TabEE", "DPClustX", "DP-Naive", "DP-TabEE")}
        if not q["TabEE"] >= q["DPClustX"] > q["DP-Naive"]:
            failures.append(f"{dataset} eps=0.1: want TabEE >= DPClustX > DP-Naive, got {q}")
        if not q["DPClustX"] > q["DP-TabEE"]:
            failures.append(f"{dataset} eps=0.1: want DPClustX > DP-TabEE, got {q}")
    mae = {e: point("Diabetes", 1, e)["mae"] for e in ("DPClustX", "DP-Naive")}
    if not mae["DPClustX"] < mae["DP-Naive"]:
        failures.append(f"Diabetes eps=1: want DPClustX MAE < DP-Naive MAE, got {mae}")

    for failure in failures:
        print(f"{path}: {failure}")
    if failures:
        return 1
    print(f"{path}: all utility orderings hold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "results/BENCH_quality.json"))
