"""Run one benchmark workload for one seed and print its metrics.

    python3 perfbench/run.py --workload cfp-auto --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; the program is imported from
``src/``.  See ``perfbench/README.md`` for the workloads and metrics.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench.bench import main

    sys.exit(main())
