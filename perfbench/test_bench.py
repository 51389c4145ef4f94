"""Self-tests of the benchmark.  Run with ``python3 -m pytest -q perfbench``."""

import json
import shutil
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

import calibrate
import run as bench
import workloads as w
from tracer import Tracer, aggregate

relaqm = w.import_relaqm()


def _namespaces():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "relaqm" or name.startswith("relaqm.")}


def test_same_seed_same_inputs_and_report_bytes():
    for generate in w.SCENARIO_GENERATORS.values():
        assert generate(3) == generate(3)
        assert generate(3) != generate(4)
    for name in w.SCENARIO_GENERATORS:
        first, second = w.ScenarioWorkload(name, 7), w.ScenarioWorkload(name, 7)
        assert first.cases == second.cases
        assert first.op(0)[1][1] == second.op(0)[1][1]
    a, b = w.UnistochasticWorkload(5), w.UnistochasticWorkload(5)
    assert [label for label, _ in a.cases] == [label for label, _ in b.cases]
    assert all(np.array_equal(p, q) for (_, p), (_, q) in zip(a.cases, b.cases))
    assert w.cli_commands(2) == w.cli_commands(2)


def test_tracing_keeps_bytes_and_restores_functions():
    text = w.qudit_scenario(1)
    plain = w.scenario_op(relaqm, text)[1]
    before, svd = _namespaces(), np.linalg.svd
    tracer = Tracer()
    tracer.install()
    try:
        assert relaqm.run is not before["relaqm"]["run"]
        assert relaqm.scenario.premeasurement_unitary is not \
            before["relaqm.scenario"]["premeasurement_unitary"]
        traced = w.scenario_op(relaqm, text)[1]
    finally:
        tracer.uninstall()
    assert traced == plain
    after = _namespaces()
    assert before.keys() <= after.keys()
    for name, attrs in before.items():
        assert all(after[name][k] is v for k, v in attrs.items()), name
    assert np.linalg.svd is svd
    names = {span[0] for span in tracer.spans}
    assert {"scenario.parse_scenario", "scenario.run", "scenario.emit_report",
            "scenario.lint_report", "measurement.premeasurement_unitary"} <= names
    assert tracer.counters["scenario.run.svd_calls"] > 0


def test_traced_cli_child_keeps_stdout(tmp_path):
    args = ["run", str(w.FIXTURES / "wigner_friend.yaml"), "--format", "structured"]
    spans = tmp_path / "spans.jsonl"
    code, out, _ = w.cli_op(args, [str(w.BENCH_DIR / "traced_cli.py"), str(spans)])
    assert code == 0
    assert out == (w.FIXTURES / "wigner_friend.report.json").read_bytes()
    log = Tracer()
    with open(spans, encoding="utf-8") as fh:
        log.merge(fh, op=3)
    calls, _, _ = aggregate(log.spans)
    assert calls["cli.main"] == 1 and calls["scenario.run"] == 1
    assert {span[4] for span in log.spans} == {3}


def test_self_time_excludes_children():
    spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0], ["c", 2.0, 3.0, 1, 0],
             ["b", 5.0, 6.0, 0, 0]]
    calls, total, own = aggregate(spans)
    assert calls == {"a": 1, "b": 2, "c": 1}
    assert total["b"] == 4.0
    assert own == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_scaler_reports_time_at_the_reference_speed():
    # a host at half the reference speed: every calibration takes twice as long
    slow = calibrate.Calibration(lambda: 2 * calibrate.WARM.reference_ms / 1e3,
                                 calibrate.WARM.reference_ms, 3)
    scaler = calibrate.Scaler(slow)
    scaler.start()
    time.sleep(0.01)
    scaler.pause()
    time.sleep(0.01)
    scaled = scaler.stop()
    assert scaler.raw[0] >= 0.02
    assert scaled == pytest.approx(scaler.raw[0] / 2)


def _corrupt(emitted: str, edit) -> str:
    tree = json.loads(emitted)
    edit(tree)
    return json.dumps(tree)


def test_checker_rejects_corrupted_reports():
    reference = w.load_reference("qudit")
    emitted = w.scenario_op(relaqm, w.qudit_scenario(0))[1]
    assert w.check_report([], emitted, reference[0]) is False

    def flip_outcome(tree):
        collapse = tree["entries"][0]["collapse"]
        collapse["outcome"] = collapse["outcome"] % w.QUDIT_DIM + 1

    def nudge_amplitude(tree):
        tree["entries"][0]["collapse"]["post_state"]["amplitudes"][0][0] += 1e-6

    for edit in (flip_outcome, nudge_amplitude):
        with pytest.raises(w.CheckFailed):
            w.check_report([], _corrupt(emitted, edit), reference[0])
    with pytest.raises(w.CheckFailed):
        w.check_report([], emitted, reference[1])
    with pytest.raises(w.CheckFailed):
        w.check_report(["entries[0]: state without an observer tag"], emitted, reference[0])


def test_checker_rejects_wrong_verdicts_and_cli_mismatch():
    result, analytic = w.unistochastic_op(relaqm, w.WARMUP_MIX)
    assert w.check_unistochastic("mix", w.WARMUP_MIX, result, analytic) is True
    wrong = SimpleNamespace(verdict="non-unistochastic", U=result.U)
    with pytest.raises(w.CheckFailed):
        w.check_unistochastic("mix", w.WARMUP_MIX, wrong, analytic)
    with pytest.raises(w.CheckFailed):
        w.check_unistochastic("haar_d3", w.WARMUP_MIX, wrong, None)
    off = SimpleNamespace(verdict="unistochastic", U=np.eye(3))
    with pytest.raises(w.CheckFailed):
        w.check_unistochastic("mix", w.WARMUP_MIX, off, analytic)
    inconclusive = SimpleNamespace(verdict="inconclusive", U=result.U)
    assert w.check_unistochastic("mix", w.WARMUP_MIX, inconclusive, analytic) is False

    golden = (w.FIXTURES / "wigner_friend.report.json").read_bytes()
    args = ["run", "wigner_friend.yaml"]
    w.check_cli(args, 0, 0, golden, golden)
    with pytest.raises(w.CheckFailed):
        w.check_cli(args, 0, 0, golden.replace(b'"outcome": 2', b'"outcome": 1'), golden)
    with pytest.raises(w.CheckFailed):
        w.check_cli(["unistochastic", "offdiagonal_half.txt"], 3, 0, b"", golden)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((w.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert all(m["unit"] == bench.END_TO_END[m["name"]] for m in spec["end_to_end"])
    assert [m["name"] for m in spec["per_layer"]] == list(bench.PER_LAYER)
    assert all(m["unit"] == bench.PER_LAYER[m["name"]] for m in spec["per_layer"])
    assert [wl["name"] for wl in spec["workloads"]] == ["labs", "qudit", "unistochastic", "cli"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(w.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(w.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    for workload in ("labs", "cli"):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert proc.stdout == ""
