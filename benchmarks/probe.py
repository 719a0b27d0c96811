"""Run one op in a fresh interpreter and report its exit codes and peak RSS.

    PYTHONPATH=src python3 benchmarks/probe.py '[["paper-repro", "--out", "out"]]'

The argument is a JSON list of cli.main argv lists.  The last line of
standard output is JSON: {"codes": [...], "maxrss_kib": <peak RSS in KiB>}.
"""

import contextlib
import io
import json
import resource
import sys

from flowmark.cli import main

codes = []
with contextlib.redirect_stdout(io.StringIO()):
    try:
        for argv in json.loads(sys.argv[1]):
            codes.append(main(argv))
    except Exception as exc:  # reported as a failed op by the caller
        codes.append(f"raised {type(exc).__name__}: {exc}")
print(json.dumps({"codes": codes, "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
