"""Tests of the benchmark harness itself (generator, checks, tracing).

    python3 -m pytest perfbench/test_harness.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402

# cheap jobs of the oracle workload: a pinned cube check, a cross-job
# orbit check and, for seed 3, a justified NonIntegralExponent refusal
SMALL = ("cube-verify-O", "cube-oracle-O-rg", "cube-formula-N", "cube-elem2-O",
         "g6-verify-O", "g6-oracle-O-sigma-rg")


def small_plan(tmp_path: Path, seed: int = 3) -> gen.Plan:
    plan = gen.build_plan("oracle", seed, tmp_path)
    plan.jobs = [j for j in plan.jobs if j.id in SMALL]
    return plan


def outputs(results) -> dict:
    return {r["id"]: (r["rc"], r["path"].read_text()) for r in results}


def run_small(plan, outdir: Path, tracer=None) -> list[dict]:
    cli = run.import_cli()
    return [dict(r, id=j.id) for j, r in zip(plan.jobs, run.run_pass(cli, plan, outdir, tracer))]


def files(d: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    a = gen.build_plan(workload, 5, tmp_path / "a")
    b = gen.build_plan(workload, 5, tmp_path / "b")
    c = gen.build_plan(workload, 6, tmp_path / "c")
    assert files(tmp_path / "a") == files(tmp_path / "b")
    assert [j.id for j in a.jobs] == [j.id for j in b.jobs] == [j.id for j in c.jobs]
    assert files(tmp_path / "a") != files(tmp_path / "c")


def test_different_seeds_give_different_graphs(tmp_path):
    graphs = {
        tuple((i.family, i.S) for i in gen.build_plan("oracle", s, tmp_path / str(s)).instances.values())
        for s in range(6)
    }
    assert len(graphs) > 1


def test_generated_sets_are_generating_and_inverse_closed(tmp_path):
    for w in gen.WORKLOADS:
        for inst in gen.build_plan(w, 9, tmp_path / w).instances.values():
            assert gen.inverse_closure(inst.table, inst.S) == inst.S
            assert gen.generates(inst.table, inst.S)
            assert 0 not in inst.S


def test_checks_accept_real_outputs_and_count_tampering(tmp_path):
    plan = small_plan(tmp_path)
    good = outputs(run_small(plan, tmp_path / "out"))
    verdicts = checks.check_plan(plan, good)
    assert all(v == "ok" or v.startswith("refused") for v in verdicts.values())
    assert verdicts["g6-verify-O"].startswith("refused")

    def tampered(job_id, key, value):
        rc, out = good[job_id]
        lines = out.splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith((f"{key}=", f"{key}: ")))
        lines[i] = lines[i][: len(key) + 1] + (" " if lines[i][len(key)] == ":" else "") + value
        return checks.check_plan(plan, dict(good, **{job_id: (rc, "\n".join(lines) + "\n")}))[job_id]

    assert tampered("cube-verify-O", "formula-total", "47").startswith("failed")
    assert tampered("g6-oracle-O-sigma-rg", "orbit-count", "0").startswith("failed")
    assert tampered("g6-verify-O", "error-token", "CapExceeded").startswith("failed")
    unjustified = dict(good, **{"cube-verify-O": (1, "error-token: NonIntegralExponent\n")})
    assert checks.check_plan(plan, unjustified)["cube-verify-O"].startswith("failed")


def test_traced_and_untraced_outputs_are_identical(tmp_path):
    plan = small_plan(tmp_path)
    cli = run.import_cli()
    original = cli.main
    untraced = run_small(plan, tmp_path / "untraced")
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main is not original
        traced = run_small(plan, tmp_path / "traced", tracer)
    finally:
        tracer.uninstall()
    assert cli.main is original
    assert [r["digest"] for r in traced] == [r["digest"] for r in untraced]
    assert tracer.calls["cli"] == len(plan.jobs)
    assert tracer.calls["maps.validate"] > 0 and tracer.counts["oracle.keys"] > 0
    assert sum(tracer.self_s.values()) <= sum(r["wall"] for r in traced)


def test_absent_functions_are_reported_not_fatal(monkeypatch):
    run.import_cli()
    import cayleymaps.oracle

    monkeypatch.delattr(cayleymaps.oracle, "fixed_count")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert "oracle.fixed_count" in tracer.absent


def test_plain_and_kv_outputs_parse_alike(tmp_path):
    plan = small_plan(tmp_path)
    plan.jobs = [j for j in plan.jobs if j.id == "cube-oracle-O-rg"]
    plain = dataclasses.replace(plan.jobs[0], argv=tuple(a for a in plan.jobs[0].argv if a != "--kv"))
    kv = dataclasses.replace(plain, argv=plain.argv + ("--kv",))
    cli = run.import_cli()
    a = checks.parse(run.run_job(cli, plain, tmp_path / "plain")["path"].read_text(), kv=False)
    b = checks.parse(run.run_job(cli, kv, tmp_path / "kv")["path"].read_text(), kv=True)
    assert a == b


def test_emitted_metrics_match_benchmark_json():
    declared = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    job = {"rc": 0, "wall": 1.0, "cpu": 1.0, "bytes": 1, "token": None}
    layers = {"calls": {}, "self_s": {}, "counts": {}}
    emitted = {
        "end_to_end": run.end_to_end([[job]], 1.0, [1.0]),
        "per_layer": run.per_layer([[job]], [([job], layers)]),
    }
    for kind, metrics in emitted.items():
        assert {k: u for k, (_, u) in metrics.items()} == {m["name"]: m["unit"] for m in declared[kind]}
