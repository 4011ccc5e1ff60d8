"""Toy-size self-check of the benchmark harness.

Usage (from the repository root)::

    python3 perfbench/selfcheck.py

Checks, in about a minute:

* every workload completes at a tiny size, untraced and traced, with no
  failed op;
* the tracer's self-time arithmetic holds on synthetic nested spans;
* a deliberately altered artifact is counted as a failed op, on a disk
  workload (byte comparison) and on the in-memory one (invariants).
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

TOY_MODELS = 120


def check_self_times() -> None:
    from tracer import Tracer, self_times

    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    # Clock reads: root opens at 0, a at 1..2, b at 3, c at 4..5, b closes 6, root 7.
    with tracer.span("root"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            with tracer.span("c"):
                pass
    got = dict(zip((s[0] for s in tracer.spans), self_times(tracer.spans)))
    want = {"root": 7 - 1 - 3, "a": 1, "b": 3 - 1, "c": 1}
    if got != want:
        raise AssertionError(f"self times {got} != {want}")


def _toys():
    import workloads as w

    return [
        w.Workload("fs-lookup-toy", "fs", TOY_MODELS, 500, w.fs_lookup_singles, w.fs_lookup_round),
        w.Workload("mem-report-toy", "mem", TOY_MODELS, 2000, w.mem_report_singles, w.mem_report_round),
    ]


def _alter_first_artifact(records) -> None:
    for rec in records:
        if rec.op.outputs:
            path = rec.op.outputs[0]
            path.write_bytes(path.read_bytes().replace(b"1", b"2", 1))
            return
    raise AssertionError("no op wrote an artifact")


def main() -> int:
    import run

    check_self_times()
    print("tracer self-time arithmetic: ok")
    toys = _toys()
    for workload in toys:
        for trace in (0, 1):
            result, _, metrics, _ = run.run(workload, seed=5, seconds=0.0, trace=trace)
            if result["failed"] or not metrics:
                raise AssertionError(f"{workload.name} trace={trace}: {result}")
            print(f"{workload.name} trace={trace}: {result['attempted']} ops, 0 failed")
    for workload in toys:
        result, *_ = run.run(workload, seed=5, seconds=0.0, trace=0, tamper=_alter_first_artifact)
        if result["failed"] < 1:
            raise AssertionError(f"{workload.name}: an altered artifact passed the checks")
        print(f"{workload.name}: altered artifact counted as {result['failed']} failed op(s)")
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    if not (SRC / "hubtrends" / "__init__.py").is_file():
        print(f"error: no hubtrends sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.exit(main())
