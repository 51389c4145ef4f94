"""The benchmark's recorded `labs` and `qudit` reports, checked in the suite.

Every case is run through ``run`` and the structured emitter and compared with
perfbench's own ``check_report``: floats within 1e-9 and everything else
exact, so a change that flips a state's global phase fails here too.
"""

import importlib.util
from pathlib import Path

import pytest

from relaqm.scenario import emit_report, parse_scenario, run

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.SCENARIO_GENERATORS))
def test_recorded_reports_are_reproduced(name):
    reference = workloads.load_reference(name)
    assert sorted(reference) == list(range(workloads.CORPUS_SIZE))
    generate = workloads.SCENARIO_GENERATORS[name]
    failed = []
    for case, recorded in reference.items():
        report = run(parse_scenario(generate(case)))
        try:
            workloads.check_report(report.violations, emit_report(report, "structured"),
                                   recorded)
        except workloads.CheckFailed as exc:
            failed.append(f"case {case}: {exc}")
    assert not failed, f"{len(failed)}/{len(reference)} {name} cases differ:\n" + \
        "\n".join(failed)
