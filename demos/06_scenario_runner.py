"""The full machine: a declarative scenario, run from Python.

The friend O measures the qubit S while P keeps the unitary account; the
report carries both descriptions, each tagged with its observer.  The same
scenario runs from the command line as

    relaqm run src/relaqm/fixtures/wigner_friend.yaml
"""

from relaqm import emit_report, fixture_path, load_scenario, run

scenario = load_scenario(fixture_path("wigner_friend.yaml"))
print(f"systems: {list(scenario.dims.items())}")
print(f"observers: {list(scenario.observers)}\n")

report = run(scenario)
print(emit_report(report, format="table"))

print("same seed, same bytes:",
      emit_report(run(scenario), "structured") == emit_report(run(scenario), "structured"))
print("a different seed may flip O's outcome but never P's entangled account:")
for seed in (1, 2, 3):
    outcome = run(scenario, seed=seed).entries[0]["collapse"]["outcome"]
    print(f"  seed {seed}: O sees q={outcome}")
