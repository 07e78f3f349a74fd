"""Set-up probe: a fresh interpreter imports ampletori, as every CLI call does.

Usage: python3 setup_probe.py <dir holding the ampletori package>

Prints one JSON line with the import's timing (see refclock.Timing). The
reference loop is sampled during the import, so the probe loads stdlib
`fractions` (which the loop needs) first: its import cost, and the
interpreter's own start-up, are not part of the figure.
"""

import importlib
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import refclock  # noqa: E402

if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    # the import is a few tens of ms of CPU: sample at every scheduler tick
    sampler = refclock.Sampler(interval_s=0.001)
    _, timing = sampler.measure(importlib.import_module, "ampletori")
    print(json.dumps(timing.to_json()))
