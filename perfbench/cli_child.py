"""Run one mtv CLI command with the benchmark's spans installed.

Usage: python3 perfbench/cli_child.py SPANS_FILE [mtv arguments...]

stdout, stderr and the exit code are the CLI's own.  When the command ends,
SPANS_FILE receives {"import_s", "spans", "facts"} as JSON: the time
`import mtv.cli` took in this process, and what the tracer recorded.
"""

import json
import sys
import time

t0 = time.perf_counter()
import mtv.cli  # noqa: E402

IMPORT_S = time.perf_counter() - t0

from tracer import Tracer  # noqa: E402


def main():
    tracer = Tracer()
    tracer.install()
    try:
        return mtv.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        with open(sys.argv[1], "w") as fp:
            json.dump({"import_s": IMPORT_S, "spans": tracer.spans,
                       "facts": tracer.facts}, fp)


if __name__ == "__main__":
    sys.exit(main())
