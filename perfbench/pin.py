"""Regenerate ``pins.json``, the correctness gate's expected outputs.

Usage (from the repository root)::

    python3 perfbench/pin.py                     # every workload
    python3 perfbench/pin.py --workload fluid-locality-2k

Pins change only when a workload's definition changes, never to make a
failing gate pass: an optimisation must leave every simulated output
byte-identical.  Each workload is run once per input variant.  Before
writing, variant 0 of the fluid and packet workloads is checked
against the campaign cell the workload restates -- the committed
``campaigns/*/merged.json`` cell when one has the same parameters,
otherwise a fresh call of the cell function -- so the restated set-up
cannot drift from the campaign's.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the sources on the path)
from run import PINS, WORK, one_pass  # noqa: E402

#: Workload -> (scenario, committed campaign holding its cells).
CELLS = {
    workloads.FluidWorkload: ("fig16_scale_cell", "fig16-32k"),
    workloads.PacketWorkload: ("mechanism_compare", "mechanism-compare"),
}


def campaign_result(workload, variant: int) -> dict:
    """The campaign cell's result for ``variant``: committed if a
    committed cell has the same parameters, else freshly computed."""
    from repro.campaign.registry import get_scenario
    scenario, campaign = CELLS[type(workload)]
    args = workload.cell_args(variant)
    merged = ROOT / "campaigns" / campaign / "merged.json"
    for cell in json.loads(merged.read_text())["cells"]:
        params = dict(cell["params"], seed=cell["seed"])
        if params == args:
            print(f"  {workload.name}: against committed {campaign} "
                  f"cell {cell['id']}")
            return cell["result"]
    print(f"  {workload.name}: against a fresh {scenario} call")
    return get_scenario(scenario)(**args)


def check_against_cell(workload, outputs: dict) -> None:
    cell = campaign_result(workload, 0)
    shared = sorted(set(outputs) & set(cell))
    if not shared:
        raise SystemExit(f"{workload.name}: no output in common with "
                         f"its campaign cell")
    differ = [k for k in shared if outputs[k] != cell[k]]
    if differ:
        raise SystemExit(f"{workload.name}: restated cell differs from "
                         f"the campaign cell in {differ}")


def pin_workload(workload) -> dict:
    """Outputs of every input variant of one workload."""
    variants = {}
    for variant in range(workload.variants):
        outcome = one_pass(workload, variant, traced=False).outcome
        outputs = json.loads(json.dumps(outcome.outputs))
        bad = workload.violations(outputs)
        if bad:
            raise SystemExit(f"{workload.name} variant {variant}: {bad}")
        variants[str(variant)] = outputs
        print(f"{workload.name} variant {variant}: {outputs}")
    if type(workload) in CELLS:
        check_against_cell(workload, variants["0"])
    return variants


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    registry = workloads.build(WORK)
    names = args.workload or list(registry)
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    WORK.mkdir(exist_ok=True)
    try:
        for name in names:
            pins[name] = pin_workload(registry[name])
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
