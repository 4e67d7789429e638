"""Set-up probe: start Python, import cooproute, build a workload's inputs.

``run.py`` times this script in fresh processes for ``setup_s``:

    python3 perfbench/setup_probe.py <workload>
"""

import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    name = sys.argv[1]
    work = workloads.WORKLOADS[name](ROOT, os.path.join(BENCH, "out"), 1)
    work.setup()
