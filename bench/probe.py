"""Set-up probe run in a fresh interpreter by ``run.py``.

    python3 bench/probe.py WORKLOAD SEED SPAWNED

``SPAWNED`` is the caller's ``time.monotonic()`` just before it started
this interpreter; the clock is system-wide, so interpreter start-up
counts.  The probe times the cold ``import mvcalc.cli`` (``import_s``)
and the span from ``SPAWNED`` until the workload's inputs are built from
its seed, so that the first op could start (``setup_s``).  It then times
the reference kernel of ``pace.py`` and prints the raw times and the
kernel time as one JSON object.
"""

import time

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

start = time.monotonic()
import mvcalc.cli  # noqa: E402,F401

imported = time.monotonic()

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
ready = time.monotonic()

import pace  # noqa: E402

print(json.dumps({
    "import_s": imported - start,
    "setup_s": ready - float(sys.argv[3]),
    "kernel_s": pace.reference_s(),
}))
