"""Benchmark of the ``cayleymaps`` command line.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table

Run from the root of a source checkout; the package is imported from
``src``.  A run generates the workload's inputs from ``--seed`` (see
``gen.py``), then replays the whole job list through ``cayleymaps.cli.main``
in this process, one job at a time (a closed loop with one client, stdout
written to a file), in passes until ``--seconds`` would be exceeded.
Outputs are checked (``checks.py``); every pass must repeat the first byte
for byte, and at the default seed every stdout must match ``digests.json``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Untraced (``--trace 0``), the metrics are the
end-to-end ones.  The time metrics take each job at its fastest pass:
other processes on the host only ever add time to a job, and they come and
go in phases of seconds, so the per-job minimum is the steadiest estimate of
the job's own cost.

* ``wall_s``: seconds to finish the job list (sum of per-job minima);
* ``max_job_s``: seconds of the slowest job (the largest per-job minimum);
* ``cpu_s``: user + system CPU of this process and its children to finish
  the job list (sum of per-job minima);
* ``peak_rss_mb``: peak resident set of this process and its children
  over the first pass (outputs go to files, so the harness holds none);
* ``setup_s``: seconds from starting a fresh interpreter to having the
  inputs: interpreter start, ``import cayleymaps.cli`` and input generation
  (median of ``SETUP_REPEATS`` fresh processes).

Traced (``--trace 1``), one untraced warm-up pass is followed by pairs of
an untraced and a traced pass, and the metrics are the per-layer ones of
``tracing.py`` (median over traced passes) plus ``trace_overhead`` (median
traced / median untraced pass time over the pairs) and ``trace.coverage``
(layer self times / traced job time).  Spans are written
to ``.perfbench/trace-<workload>-s<seed>.jsonl``.

A job that refuses with ``NonIntegralExponent`` where the closed form
really has a non-integral exponent (ROADMAP item 4) is counted as refused,
not failed; ``failed_ratio`` on the human-readable lines counts refused and
failed jobs together.  ``failed`` counts wrong outputs, crashes and
unexpected refusals.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 5
DIGESTS = HERE / "digests.json"


def import_cli():
    if not (ROOT / "src" / "cayleymaps" / "cli.py").is_file():
        raise SystemExit(f"run.py: no cayleymaps sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import cayleymaps.cli

    return cayleymaps.cli


def _cpu() -> float:
    s, c = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def run_job(cli, job, out: Path) -> dict:
    """Runs one job with its stdout written to ``out``, so that the harness
    holds no output in memory."""
    with out.open("w") as fh, contextlib.redirect_stdout(fh):
        cpu0, t0 = _cpu(), time.perf_counter()
        try:
            rc = cli.main(list(job.argv))
        except Exception:  # a crash is a failed job, not a failed benchmark
            rc, crash = -1, traceback.format_exc()
        else:
            crash = ""
        t1, cpu1 = time.perf_counter(), _cpu()
        fh.write(crash)
    data = out.read_bytes()
    return {"rc": rc, "path": out, "wall": t1 - t0, "cpu": cpu1 - cpu0,
            "bytes": len(data), "digest": hashlib.sha256(data).hexdigest(),
            "token": data.decode().rstrip("\n").rsplit("error-token: ", 1)[-1] if rc else None}


def run_pass(cli, plan, outdir: Path, tracer: Tracer | None = None) -> list[dict]:
    outdir.mkdir(parents=True, exist_ok=True)
    results = []
    for job in plan.jobs:
        if tracer is not None:
            tracer.job = job.id
        results.append(run_job(cli, job, outdir / f"{job.id}.out"))
    return results


def traced_pass(cli, plan, outdir: Path, tracer: Tracer) -> tuple[list[dict], dict]:
    """One pass with the tracer installed; returns its results and layer values."""
    tracer.reset()
    tracer.install()
    try:
        results = run_pass(cli, plan, outdir, tracer)
    finally:
        tracer.uninstall()
    return results, {"calls": dict(tracer.calls), "self_s": dict(tracer.self_s), "counts": dict(tracer.counts)}


def peak_rss_mb() -> float:
    """Peak resident set so far of this process and of its largest child."""
    return max(resource.getrusage(w).ru_maxrss for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


def repeat_until(deadline: float, estimate: float, step, at_least_one: bool = False) -> list:
    """Calls ``step`` while the next call is expected to end by the deadline."""
    out = []
    while (at_least_one and not out) or time.perf_counter() + estimate <= deadline:
        t0 = time.perf_counter()
        out.append(step())
        estimate = time.perf_counter() - t0
    return out


def setup(workload: str, seed: int, workdir: Path) -> list[float]:
    """Times SETUP_REPEATS fresh interpreters that import the package and
    generate the inputs; each must write byte-identical files."""
    times, first = [], None
    for i in range(SETUP_REPEATS):
        out = workdir / f"setup{i}"
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, __file__, "--setup-only", str(out), "--workload", workload, "--seed", str(seed)],
            check=True, timeout=120,
        )
        times.append(time.perf_counter() - t0)
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        if first is not None and files != first:
            raise SystemExit("run.py: the same seed generated different inputs")
        first = files
    return times


def verdicts_for(plan, passes: list[list[dict]], seed: int) -> list[tuple[str, str]]:
    """(job id, verdict) for every execution of every pass; the outputs of
    the first pass must still be on disk."""
    first = {job.id: (r["rc"], r["path"].read_text()) for job, r in zip(plan.jobs, passes[0])}
    base = checks.check_plan(plan, first)
    stored = json.loads(DIGESTS.read_text()).get(plan.workload, {}) if seed == DEFAULT_SEED else {}
    out = []
    for results in passes:
        for job, r, r0 in zip(plan.jobs, results, passes[0]):
            verdict = base[job.id]
            if r["digest"] != r0["digest"]:
                verdict = "failed: output differs from the first pass"
            elif job.id in stored and stored[job.id] != r["digest"]:
                verdict = "failed: output differs from the stored digest of the default seed"
            out.append((job.id, verdict))
    return out


def end_to_end(passes: list[list[dict]], peak_mb: float, setup_times: list[float]) -> dict:
    def fastest(key):
        return [min(p[i][key] for p in passes) for i in range(len(passes[0]))]

    wall = fastest("wall")
    return {
        "wall_s": (sum(wall), "s"),
        "max_job_s": (max(wall), "s"),
        "cpu_s": (sum(fastest("cpu")), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def pass_wall(results: list[dict]) -> float:
    return sum(r["wall"] for r in results)


def per_layer(untraced: list[list[dict]], traced: list[tuple[list[dict], dict]]) -> dict:
    """Per-layer metrics from the traced passes; ``untraced`` are the passes
    paired with them, for ``trace_overhead``."""
    layers = [values for _, values in traced]
    last_jobs, last = traced[-1]

    def med_s(layer):
        return statistics.median(v["self_s"].get(layer, 0.0) for v in layers)

    m = {}
    for layer, (_, _, counted) in LAYERS.items():
        if counted:
            m[f"{layer}.calls"] = (last["calls"].get(layer, 0), "count")
        m[f"{layer}.s"] = (med_s(layer), "s")
    counts = last["counts"]
    realize = last["calls"].get("rotations.realize", 0)
    stats = last["calls"].get("formulas.class_stats", 0)
    m["oracle.keys"] = (counts.get("oracle.keys", 0), "count")
    m["oracle.orbits"] = (counts.get("oracle.orbits", 0), "count")
    m["oracle.realize_per_orbit"] = (realize / counts["oracle.orbits"] if counts.get("oracle.orbits") else 0.0, "ratio")
    m["formulas.classes"] = (counts.get("formulas.classes", 0), "count")
    m["formulas.class_stats_per_class"] = (
        stats / counts["formulas.classes"] if counts.get("formulas.classes") else 0.0, "ratio")
    m["special.partitions"] = (counts.get("special.partitions", 0), "count")
    m["cli.output_bytes"] = (sum(r["bytes"] for r in last_jobs), "bytes")
    tokens = [r["token"] for r in last_jobs if r["rc"] != 0]
    m["cli.errors.NonIntegralExponent"] = (tokens.count(checks.REFUSAL), "count")
    m["cli.errors.other"] = (len(tokens) - tokens.count(checks.REFUSAL), "count")
    traced_wall = statistics.median(pass_wall(jobs) for jobs, _ in traced)
    m["trace_overhead"] = (traced_wall / statistics.median(pass_wall(p) for p in untraced), "ratio")
    self_total = statistics.median(sum(v["self_s"].values()) for v in layers)
    m["trace.coverage"] = (self_total / traced_wall, "ratio")
    return m


def run_workload(args) -> int:
    cli = import_cli()
    workdir = WORK / f"{args.workload}-s{args.seed}-{time.time_ns()}"
    try:
        setup_times = [] if args.trace else setup(args.workload, args.seed, workdir)
        plan = gen.build_plan(args.workload, args.seed, workdir / "run")
        start = time.perf_counter()
        deadline = start + args.seconds
        passes = [run_pass(cli, plan, workdir / "first")]
        first_wall = time.perf_counter() - start
        if args.trace:
            tracer = Tracer()

            def pair():
                return run_pass(cli, plan, workdir / "pass"), traced_pass(cli, plan, workdir / "pass", tracer)

            pairs = repeat_until(deadline, 2.2 * first_wall, pair, at_least_one=True)
            untraced = [u for u, _ in pairs]
            traced = [t for _, t in pairs]
            WORK.mkdir(exist_ok=True)
            tracer.write(WORK / f"trace-{args.workload}-s{args.seed}.jsonl")
            for name in tracer.absent:
                print(f"absent: {name}")
            passes += [p for u, (t, _) in pairs for p in (u, t)]
            metrics = per_layer(untraced, traced)
        else:
            peak = peak_rss_mb()
            passes += repeat_until(deadline, first_wall, lambda: run_pass(cli, plan, workdir / "pass"))
            metrics = end_to_end(passes, peak, setup_times)
        verdicts = verdicts_for(plan, passes, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(v.startswith("failed") for _, v in verdicts)
    refused = sum(v.startswith("refused") for _, v in verdicts)
    print(f"workload: {args.workload}  seed: {args.seed}  passes: {len(passes)}  jobs per pass: {len(plan.jobs)}")
    for i, p in enumerate(passes):
        print(f"pass {i}: {pass_wall(p):.3f} s")
    for job_id, verdict in sorted(set(verdicts)):
        if verdict != "ok":
            print(f"{job_id}: {verdict}")
    print(f"failed_ratio: {(failed + refused) / len(verdicts):.4f} "
          f"({refused} refused with {checks.REFUSAL}, {failed} failed, of {len(verdicts)})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process; one table of the results."""
    rows = {}
    for w in gen.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]) + "\n")
        rows[w] = json.loads(lines[-1])
        ratio = next(line for line in lines if line.startswith("failed_ratio: ")).split()[1]
        rows[w]["metrics"]["failed_ratio"] = {"value": float(ratio), "unit": "ratio"}
    print(f"{'metric':34s}" + "".join(f"{w:>14s}" for w in rows))
    for name, m in rows[gen.WORKLOADS[0]]["metrics"].items():
        print(f"{name + ' (' + m['unit'] + ')':34s}" + "".join(f"{r['metrics'][name]['value']:14.4f}" for r in rows.values()))
    print(f"{'failed (count)':34s}" + "".join(f"{r['failed']:14d}" for r in rows.values()))
    return 0 if all(r["correct"] for r in rows.values()) else 1


def record_digests(args) -> int:
    """Stores the stdout digests of one checked pass at the default seed."""
    cli = import_cli()
    workdir = WORK / f"digests-{args.workload}"
    try:
        plan = gen.build_plan(args.workload, DEFAULT_SEED, workdir / "run")
        results = run_pass(cli, plan, workdir / "first")
        verdicts = checks.check_plan(plan, {j.id: (r["rc"], r["path"].read_text()) for j, r in zip(plan.jobs, results)})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    bad = {k: v for k, v in verdicts.items() if v.startswith("failed")}
    if bad:
        raise SystemExit(f"run.py: not recording digests of failing jobs: {bad}")
    stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    stored[args.workload] = {j.id: r["digest"] for j, r in zip(plan.jobs, results) if r["rc"] == 0}
    DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true", help="rewrite digests.json for the default seed")
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.setup_only:
        import_cli()
        gen.build_plan(args.workload, args.seed, Path(args.setup_only))
        return 0
    if args.workload == "all":
        return run_all(args)
    if args.record_digests:
        return record_digests(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
