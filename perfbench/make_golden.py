"""Regenerate ``golden.json``: the observation digests of every workload
at the seeds in :data:`loads.GOLDEN_SEEDS`, produced by the program run
directly.

    python3 perfbench/make_golden.py

Each workload's campaign runs through ``repro.api`` in this process,
untraced and with no benchmark instruments installed, so the committed
digests are the unmodified program's.  Run it only when a change is
meant to alter observations, and say so in the change.
"""

from __future__ import annotations

import json
import pathlib

import loads
from proc import import_repro, observation_digests

HERE = pathlib.Path(__file__).resolve().parent


def main():
    import_repro()
    from repro import api

    golden = {}
    for workload in loads.WORKLOADS.values():
        if workload.seeded:
            golden[workload.name] = {
                str(seed): {workload.name: observation_digests(
                    api.run_campaign(workload.tbl(seed),
                                     fidelity=workload.fidelity).database)}
                for seed in loads.GOLDEN_SEEDS}
        else:
            golden[workload.name] = {"*": {
                name: observation_digests(
                    api.run_scenario(name).report.database)
                for name in loads.SCENARIO_NAMES}}
        print(f"{workload.name}: {len(golden[workload.name])} seed(s)")
    (HERE / "golden.json").write_text(
        json.dumps(golden, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
