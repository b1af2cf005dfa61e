"""Recompute ``digests.json``: each workload's exact allocation at the default seed.

Run from the repository root after changing a workload's definition:

    python3 perfbench/record_allocations.py

The allocation is computed in this process with ``iusv_all`` and stored in
the owner ids of the base assignment, together with the SHA-256 of the
allocation as the request path reports it at the default seed.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from assemblage_shapley import evaluate_plan, iusv_all, load_assignment, load_plan  # noqa: E402

from checks import DIGESTS, allocation_digest  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, set_up  # noqa: E402


def main() -> int:
    work = HERE.parent / ".perfbench_work" / "record"
    out = {}
    try:
        for name, workload in WORKLOADS.items():
            setup = set_up(workload, DEFAULT_SEED, work / name)
            tables, n_owners, _ = load_assignment(setup.manifest)
            d = evaluate_plan(load_plan(setup.plan), tables, n_owners=n_owners)
            shares = [str(v) for v in iusv_all(d).allocation.shares]
            out[name] = {
                "seed": DEFAULT_SEED,
                "sha256": allocation_digest(shares),
                "base_allocation": [shares[setup.owner_ids[o]] for o in range(n_owners)],
            }
            print(f"{name}: {out[name]['sha256']}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    DIGESTS.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
