"""Run artifacts on disk: crawl log, per-step stats, loss curve, summary, and
the derived plotting series (leaves, frontier size, their ratio, harvest rate).

Column schemas are versioned by these constants; golden tests pin them.
"""

from __future__ import annotations

import csv
import json
import os

STEP_COLUMNS = ["timestep", "frontier_size", "leaf_count", "q_evals", "split_occurred"]
LOSS_COLUMNS = ["step", "loss", "epsilon"]
LEAVES_COLUMNS = ["timestep", "leaf_count"]
FRONTIER_COLUMNS = ["timestep", "frontier_size"]
RATIO_COLUMNS = ["timestep", "frontier_to_leaves_ratio"]
HARVEST_COLUMNS = ["timestep", "cumulative_harvest_rate"]

LOG_NAME = "result.jsonl"
STEPS_NAME = "steps.csv"
LOSS_NAME = "loss.csv"
SUMMARY_NAME = "summary.json"
TREE_NAME = "tree.json"


def _write_csv(outdir, name, columns, rows):
    path = os.path.join(outdir, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)
    return path


def write_run(result, outdir):
    """Write the crawl log, stats, loss curve, and summary under outdir."""
    os.makedirs(outdir, exist_ok=True)
    log_path = os.path.join(outdir, LOG_NAME)
    with open(log_path, "w", encoding="utf-8") as fh:
        for record in result.log_records:
            fh.write(json.dumps(record) + "\n")

    steps_path = _write_csv(
        outdir, STEPS_NAME, STEP_COLUMNS,
        [(s.timestep, s.frontier_size, s.leaf_count, s.q_evals, s.split_occurred)
         for s in result.steps])
    loss_path = _write_csv(
        outdir, LOSS_NAME, LOSS_COLUMNS,
        [(step, repr(float(loss)), repr(float(epsilon)))
         for step, loss, epsilon in result.losses])

    summary_path = os.path.join(outdir, SUMMARY_NAME)
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump({
            "status": result.status,
            "fetched": len(result.fetched),
            "harvest_rate": result.harvest_rate,
            "relevant_domains": result.relevant_domains,
            "unique_domains": result.unique_domains,
        }, fh, indent=2)
        fh.write("\n")
    paths = {"log": log_path, "steps": steps_path, "loss": loss_path,
             "summary": summary_path}

    if result.tree_snapshot is not None:
        tree_path = os.path.join(outdir, TREE_NAME)
        with open(tree_path, "w", encoding="utf-8") as fh:
            json.dump(result.tree_snapshot, fh)
            fh.write("\n")
        paths["tree"] = tree_path
    return paths


def load_log(path):
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                records.append(json.loads(line))
    return records


def load_steps(path):
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != STEP_COLUMNS:
            raise ValueError(f"unexpected stats columns {reader.fieldnames} in {path}")
        for row in reader:
            rows.append({k: (float(v) if k != "timestep" else int(v))
                         for k, v in row.items()})
    return rows


def report_series(run_dir, outdir=None):
    """Derive the plotting CSVs from a finished run directory."""
    outdir = outdir or run_dir
    os.makedirs(outdir, exist_ok=True)
    steps_path = os.path.join(run_dir, STEPS_NAME)
    log_path = os.path.join(run_dir, LOG_NAME)
    if not os.path.exists(steps_path):
        raise FileNotFoundError(f"missing stats file {steps_path}")
    steps = load_steps(steps_path)
    records = load_log(log_path) if os.path.exists(log_path) else []

    paths = {
        "leaves": _write_csv(outdir, "leaves.csv", LEAVES_COLUMNS,
                             [(int(s["timestep"]), int(s["leaf_count"])) for s in steps]),
        "frontier": _write_csv(outdir, "frontier.csv", FRONTIER_COLUMNS,
                               [(int(s["timestep"]), int(s["frontier_size"])) for s in steps]),
        "ratio": _write_csv(outdir, "ratio.csv", RATIO_COLUMNS,
                            [(int(s["timestep"]),
                              repr(s["frontier_size"] / s["leaf_count"])) for s in steps]),
    }
    harvest_rows = []
    total = 0
    for i, record in enumerate(records):
        total += record["reward"]
        harvest_rows.append((record["timestep"], repr(total / (i + 1))))
    paths["harvest"] = _write_csv(outdir, "harvest.csv", HARVEST_COLUMNS, harvest_rows)
    return paths
