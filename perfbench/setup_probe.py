"""Set-up of one run in a fresh interpreter: import coupledwell, then
generate the first block of inputs.  run.py times this script from the
outside, interpreter start-up included.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, "src")

import coupledwell  # noqa: E402,F401  (the import is what is timed)

from perfbench.inputs import block  # noqa: E402

block(sys.argv[1], int(sys.argv[2]), 0)
