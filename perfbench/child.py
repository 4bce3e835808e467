"""Run one intlegendre command line in this fresh process.

    python3 child.py <src dir> <trace 0|1> <cli arguments...>

The command's output goes to stdout and its exit code is this process's.
With trace 1 the spans recorded here are written to stderr as JSON.
"""

import json
import sys

src, traced, args = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
sys.path.insert(0, src)
from intlegendre import cli  # noqa: E402

if traced:
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.begin_op(0)
code = cli.main(args)
if traced:
    tracer.uninstall()
    sys.stderr.write(json.dumps(tracer.export()))
sys.exit(code)
