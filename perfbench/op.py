"""Run one ``hubtrends`` CLI command as a benchmark op.

Usage: ``python3 perfbench/op.py <hubtrends arguments>`` with ``src`` on
``PYTHONPATH`` and ``PERFBENCH_OP_OUT`` naming a JSON file.  At exit the
file receives the CLI entry time, this process's own peak RSS
(``VmHWM``) and, when ``PERFBENCH_TRACE=1``, the recorded spans.  The
peak is read here rather than from ``wait4``'s ``ru_maxrss``, which
Linux carries over from the parent across fork and exec.
"""

from __future__ import annotations

import json
import os
import sys
import time


def vmhwm_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> None:
    out_path = os.environ["PERFBENCH_OP_OUT"]
    import hubtrends.cli as cli

    tracer = None
    if os.environ.get("PERFBENCH_TRACE") == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    sys.argv = ["hubtrends", *sys.argv[1:]]
    entry = time.monotonic()
    try:
        if tracer is None:
            cli.main()
        else:
            with tracer.span("cli"):
                cli.main()
    finally:
        record = {"entry": entry, "vmhwm_kb": vmhwm_kb(), "spans": tracer.spans if tracer else []}
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    main()
