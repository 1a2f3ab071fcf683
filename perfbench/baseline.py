"""Measures the baseline that ``baseline.json`` records.

    python3 perfbench/baseline.py            # spreads and shifts only
    python3 perfbench/baseline.py --write    # also rewrite baseline.json

It makes two sets of untraced runs, each running ``run.py`` once per seed
1-10 on every workload.  Per workload and end-to-end metric it reports each
set's median and quartile spread (as a share of the median) and the shift
of the second median from the first, next to the bound in
``BENCHMARK.json``.  ``--write`` adds one traced run per workload at the
default seed and stores everything with the environment and the
layer-to-metric map below.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from gen import WORKLOADS  # noqa: E402
from run import DEFAULT_SEED  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEEDS = list(range(1, 11))
SETS = 2

# per-layer metrics -> (end-to-end metrics and workload they should move)
LAYER_MAP = {
    "rotations.transport.*": "wall_s, max_job_s on oracle",
    "maps.validate.*, maps.inventory.*": "wall_s on oracle",
    "rotations.realize.*, oracle.enumerate.s": "wall_s, peak_rss_mb on oracle",
    "oracle.burnside.s, oracle.fixed_count.*, oracle.keys, oracle.orbits, oracle.realize_per_orbit":
        "wall_s on oracle (realize_per_orbit -> 1 once only orbit representatives are realized)",
    "autaction.aut_search.s, autaction.extend.*": "wall_s on oracle (--acting full jobs)",
    "formulas.conjugacy.s, formulas.class_stats.*, formulas.classes, formulas.class_stats_per_class, "
    "autaction.product_group.s":
        "wall_s, max_job_s on formula; flat on oracle (class_stats_per_class -> 1 without the recheck)",
    "formulas.log2.*, special.s, special.partitions": "wall_s on closed-form log2 jobs; small on formula",
    "cli.s, cli.output_bytes": "wall_s, max_job_s on closed-form",
    "groups.s, fileio.s, cayley.s, fixtures.s": "wall_s on formula (table loading)",
    "cli.errors.*, trace_overhead, trace.coverage": "refusals behind failed_ratio; the cost of tracing itself",
}
PREDICTED = {
    "oracle": ["rotations", "maps", "oracle"],
    "formula": ["formulas", "autaction"],
    "closed-form": ["cli", "special"],
}


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["lines"] = lines[:-1]
    return result


def spread(values: list[float]) -> tuple[float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def dominant(metrics: dict) -> list[tuple[str, float]]:
    """Self seconds per module, largest first."""
    by_module: dict[str, float] = {}
    for name, m in metrics.items():
        if m["unit"] == "s":
            module = name.split(".")[0]
            by_module[module] = by_module.get(module, 0.0) + m["value"]
    return sorted(by_module.items(), key=lambda kv: -kv[1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--write", action="store_true")
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    sets = [{w: [run(w, seed, 0) for seed in SEEDS] for w in WORKLOADS} for _ in range(SETS)]
    baseline, traced, ok = {}, {}, True
    for w in WORKLOADS:
        ok &= all(r["correct"] for runs in sets for r in runs[w])
        baseline[w] = {"failed_ratio": sets[0][w][SEEDS.index(DEFAULT_SEED)]["lines"][-1]}
        for name, bound in bounds.items():
            stats = []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs[w]]
                median, rel = spread(values)
                stats.append({"median": median, "quartile_spread": rel, "values": values})
            shift = stats[1]["median"] / stats[0]["median"] - 1
            baseline[w][name] = {"sets": stats, "shift": shift}
            flags = [f"spread {s['quartile_spread']:.4f}" for s in stats if s["quartile_spread"] > bound / 3]
            if name == "setup_s":
                flags = []
            if shift > bound:
                flags.append("second median worse than the first by more than the bound")
            print(f"{w:12s} {name:12s} medians {stats[0]['median']:10.4f} {stats[1]['median']:10.4f}  "
                  f"spreads {stats[0]['quartile_spread']:.4f} {stats[1]['quartile_spread']:.4f}  "
                  f"shift {shift:+.4f}  bound {bound}" + ("  <-- " + "; ".join(flags) if flags else ""), flush=True)
        if args.write:
            t = run(w, DEFAULT_SEED, 1)
            ok &= t["correct"]
            modules = dominant(t["metrics"])
            top = [m for m, _ in modules[:len(PREDICTED[w])]]
            traced[w] = {
                "metrics": {k: v["value"] for k, v in t["metrics"].items()},
                "self_s_by_module": dict(modules),
                "predicted_dominant": PREDICTED[w],
                "measured_dominant": top,
                "prediction": "confirmed" if set(top) == set(PREDICTED[w]) else "refuted",
            }
    if args.write:
        out = {
            "default_seed": DEFAULT_SEED,
            "seeds": f"{SEEDS[0]}-{SEEDS[-1]}",
            "sets": SETS,
            "run_seconds": BENCHMARK["run_seconds"],
            "program_commit": subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"], cwd=HERE, capture_output=True, text=True
            ).stdout.strip() or "unknown",
            "environment": {
                "python": platform.python_version(),
                "nproc": os.cpu_count(),
                "machine": platform.machine(),
            },
            "layer_map": LAYER_MAP,
            "untraced": baseline,
            "traced": traced,
        }
        (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
