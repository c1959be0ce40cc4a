"""Set-up of a benchmark case in a fresh interpreter: import agentlog,
load each scenario given on the command line, ground and assemble it.

    python3 perfbench/setup_probe.py SCENARIO [SCENARIO ...]

The caller times the whole process.
"""

import sys

from agentlog.scenarios import load_scenario

if __name__ == "__main__":
    for ref in sys.argv[1:]:
        load_scenario(ref).build_system()
