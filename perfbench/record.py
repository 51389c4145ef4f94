"""Record the reference reports that the labs and qudit checks compare against.

Usage: ``python3 perfbench/record.py``.  Runs every corpus case with the
relaqm of this checkout and writes ``perfbench/reference/<workload>.json.xz``.
Run it only at the commit whose outputs are the reference, never to make a
failing check pass.
"""

import json
import lzma

import workloads


def main() -> None:
    relaqm = workloads.import_relaqm()
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name, generate in workloads.SCENARIO_GENERATORS.items():
        reports = {case: workloads.scenario_op(relaqm, generate(case))[1]
                   for case in range(workloads.CORPUS_SIZE)}
        with lzma.open(workloads.reference_path(name), "wt", encoding="utf-8") as fh:
            json.dump(reports, fh)
        print(f"{workloads.reference_path(name)}: {len(reports)} reports")


if __name__ == "__main__":
    main()
