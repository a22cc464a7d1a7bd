"""Set-up probe: import mdots, set up one workload, say "ready", wait, clean up.

Usage: python setup_probe.py WORKLOAD [--tiny]

``run.py`` starts this as a fresh interpreter and times it up to the
"ready" line, so the figure covers interpreter start, imports, building the
problem and starting any children, as a user's first operation would see.
"""

import sys

from env import pin_environment

pin_environment()

import workloads  # noqa: E402  (needs the pinned environment)

workload = workloads.make(sys.argv[1], tiny="--tiny" in sys.argv[2:])
try:
    workload.setup()
    print("ready", flush=True)
    sys.stdin.read()
finally:
    workload.close()
