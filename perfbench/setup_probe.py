"""One set-up of a workload in a fresh interpreter; prints its seconds.

Set-up is everything a user pays before the first simulated event:
importing the package, ``AppSpec.make`` and ``insert_prefetches`` for
every program, and for the farm, spec validation, ``Farm`` construction
and submit.  ``run.py`` runs this several times per benchmark run and
reports the median as ``setup_s``.

Usage: python3 perfbench/setup_probe.py --workload NAME --seed N
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as bw

    if args.workload == "table3-matrix":
        bw.setup_matrix(args.seed)
        elapsed = time.perf_counter() - _T0
    elif args.workload == "per-event-variants":
        bw.setup_per_event(args.seed)
        elapsed = time.perf_counter() - _T0
    else:
        workdir = ROOT / "perfbench" / "out" / f"setup-{os.getpid()}"
        try:
            specs = bw.setup_farm_specs(args.seed)
            farm = bw.Farm(bw.farm_config(), workdir)
            farm.submit(specs)
            elapsed = time.perf_counter() - _T0
            farm.ledger.close()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
