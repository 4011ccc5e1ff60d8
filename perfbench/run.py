"""hubtrends benchmark: one command, two workloads, one traced mode.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fs-lookup-300 --seed 1 --seconds 10 --trace 0

A run sets up the workload (generate inputs, build the store) ``SETUPS``
times, or once when traced, and keeps the last set-up.  With ``--trace 0`` it then runs
rounds, one op after another from a single client, until ``--seconds``
have passed and at least ``ROUNDS`` rounds are done.  Each round holds
one op of every repeated kind; the ops that run once per run are spread
over the first ``ROUNDS`` rounds.  The end-to-end metrics are per op
class: the median wall time of each op kind, summed over the class's
kinds, rescaled by the host's measured speed (see ``Speed``).  With
``--trace 1`` it runs one untraced round, then one traced
pass (a round plus every once-per-run op), and reports per-layer metrics
from the traced pass.  Afterwards every op's outputs are checked; a failed
op (nonzero exit, missing artifact, failed check) counts in
``failed``.  The last line of standard output is one JSON object.
Work files go to ``.perfbench/`` and are removed at exit; a results
file with every op's latency and artifact sha256 stays in
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from op import vmhwm_kb

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Two set-ups per untraced run: the 1500-model store takes 4-6 s to
# build, and every run of every workload must fit the time budget.
SETUPS = 2


# -- host speed ----------------------------------------------------------------

# The calibration loop: parse, group and sort fixed lines, the same kind of
# work the program does, but none of the program's code.  About 10 ms.
_CALIBRATION_LINES = [
    f"2025-{i % 12 + 1:02d}-{i % 28 + 1:02d}\torg{i % 37}/m{i % 300:04d}\t{i * 7919 % 1000003}"
    for i in range(10_000)
]
# Seconds the calibration loop takes on the reference host; a run whose
# loop takes as long reports its wall times unscaled.
REFERENCE_S = 0.010
SAMPLE_EVERY_S = 0.25


def _calibration_loop() -> None:
    table: dict[str, list] = {}
    for line in _CALIBRATION_LINES:
        day, model, value = line.split("\t")
        table.setdefault(model, []).append((day, int(value)))
    for rows in table.values():
        rows.sort()


class Speed:
    """Times the calibration loop between ops, at most every ``SAMPLE_EVERY_S``.

    A shared host's speed flips between a fast and a slow state for
    seconds at a time, and the share of time spent in each drifts from
    one run to the next by 20% or more.  The mean loop time over a run
    measures that share, so dividing by it takes the host's drift out of
    the time metrics while a change in the program's own speed stays in
    them: the loop never calls the program.  The mean drops the slowest
    and fastest tenth of the samples: a 10 ms sample that catches a
    preemption reads two or three times too slow.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self, force: bool = False) -> None:
        if not force and time.monotonic() - self._last < SAMPLE_EVERY_S:
            return
        gc.disable()  # no collector pass over the program's objects inside the loop
        try:
            start = time.monotonic()
            _calibration_loop()
            self.samples.append(time.monotonic() - start)
        finally:
            gc.enable()
        self._last = time.monotonic()

    def factor(self) -> float:
        """What a wall time is multiplied by to give reference-host seconds."""
        samples = sorted(self.samples)
        cut = len(samples) // 10
        return REFERENCE_S / statistics.mean(samples[cut:len(samples) - cut])


# -- executing ops ---------------------------------------------------------------


class Runner:
    def __init__(self, workload, inputs, work: Path, speed: Speed):
        self.workload = workload
        self.speed = speed
        self.inputs = inputs
        self.work = work
        self.rounds = 0
        self._singles = 0
        self.tracer = None
        self.store_growth = 0  # data bytes the traced pass added to the store

    def singles(self) -> list[list]:
        """A fresh set of the workload's once-per-run ops, in groups."""
        self._singles += 1
        return self.workload.singles(self.inputs, self.work / "out" / f"s{self._singles}")

    def round(self, singles: list, traced: bool) -> list:
        """Run the next round with *singles* spread through it."""
        from tracer import Tracer

        ops = self.workload.round_ops(self.inputs, self.work / "out" / f"r{self.rounds}",
                                      self.rounds, singles)
        if traced:
            self.tracer = Tracer()
            if self.workload.backend == "mem":
                self.tracer.install()
        data_before = self._data_bytes()
        records = []
        try:
            for op_id, op in enumerate(ops):
                self.speed.sample()
                if self.tracer is not None:
                    self.tracer.op_id = op_id
                    with self.tracer.span("op"):
                        records.append(self._execute(op))
                else:
                    records.append(self._execute(op))
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
        self.store_growth = self._data_bytes() - data_before
        self.rounds += 1
        return records

    def _data_bytes(self) -> int:
        if self.workload.backend != "fs":
            return 0
        return sum(p.stat().st_size for p in self.inputs.store_dir.glob("*.tsv"))

    def _execute(self, op):
        from workloads import Record

        if op.argv is not None:
            return self._cli(op)
        # Every in-process op starts from the same collector state (a CLI
        # op gets that from its fresh process); otherwise a full collection
        # owed to earlier ops lands in some runs of an op and not others.
        gc.collect()
        start = time.monotonic()
        try:
            value, error = op.run(), None
        except Exception as err:  # a failing op is counted; the run goes on
            value, error = None, f"{type(err).__name__}: {err}"
        return Record(op, self.rounds, time.monotonic() - start, error=error, value=value)

    def _cli(self, op):
        from workloads import Record

        info = self.work / "op.json"
        info.unlink(missing_ok=True)
        env = dict(os.environ, PYTHONPATH=str(SRC), PERFBENCH_OP_OUT=str(info),
                   PERFBENCH_TRACE="1" if self.tracer is not None else "0")
        argv = [sys.executable, str(HERE / "op.py"), *self.workload.cli_prefix(self.inputs), *op.argv]
        start = time.monotonic()
        proc = subprocess.run(argv, stdin=subprocess.DEVNULL, capture_output=True, text=True,
                              cwd=self.work, env=env)
        record = Record(op, self.rounds, time.monotonic() - start, stdout=proc.stdout)
        if proc.returncode != 0:
            record.error = f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
        if not info.is_file():
            record.error = record.error or "op wrote no exit record"
            return record
        data = json.loads(info.read_text(encoding="utf-8"))
        record.vmhwm_kb = data["vmhwm_kb"]
        if self.tracer is not None:
            self._merge(data, start)
        return record

    def _merge(self, data: dict, start: float) -> None:
        """Hang the op process's spans under the current op span."""
        from tracer import OP, PARENT

        spans = self.tracer.spans
        root = self.tracer.current()
        op_id = spans[root][OP]
        spans.append(["cli.startup", start, data["entry"], root, op_id, 0, 0, 0])
        offset = len(spans)
        for span in data["spans"]:
            span[PARENT] = root if span[PARENT] < 0 else span[PARENT] + offset
            span[OP] = op_id
            spans.append(span)


def check(records: list, inputs, scratch: Path) -> None:
    """Check outputs in op order; a mismatch becomes the record's error."""
    from workloads import Checker

    checker = Checker(inputs, scratch)
    for rec in records:
        if rec.error is not None:
            continue
        missing = [p.name for p in rec.op.outputs if not p.is_file()]
        if missing:
            rec.error = f"missing artifact {missing}"
            continue
        try:
            rec.error = rec.op.check(checker, rec)
        except Exception as err:  # a check that cannot run is a failed check
            rec.error = f"check raised {type(err).__name__}: {err}"


# -- metrics ---------------------------------------------------------------------


def end_to_end(records: list, setup_times: list[float], peak_kb: int) -> dict[str, tuple[float, str]]:
    """Per op kind the median wall time over its samples; summed per class and in total.

    A repeated kind has a sample per round, so one disturbed sample does
    not move its median; a once-per-run op is its own kind.  Times are
    wall seconds, not yet rescaled.
    """
    from workloads import CLASSES

    samples: dict[tuple[str, str], list[float]] = defaultdict(list)
    for rec in records:
        samples[rec.op.cls, rec.op.name].append(rec.seconds)
    per_class = dict.fromkeys(CLASSES, 0.0)
    for (cls, _), seconds in samples.items():
        per_class[cls] += statistics.median(seconds)
    metrics = {"setup_s": (statistics.median(setup_times), "s"),
               "cycle_s": (sum(per_class.values()), "s")}
    for cls in CLASSES:
        metrics[f"{cls}_s"] = (per_class[cls], "s")
    metrics["peak_rss_mb"] = (peak_kb / 1024, "MB")
    return metrics


READS = {"store.open", "store.model_ids", "store.load_all", "store.load_series",
         "store.mem.model_ids", "store.mem.load_all", "store.mem.load_series"}
APPENDS = {"store.append", "store.mem.append"}


def per_layer(spans: list, records: list, base_records: list, store_growth: int) -> tuple[dict, dict]:
    """The per-layer metrics of one traced pass, plus a per-span-name breakdown."""
    from tracer import END, ITEMS, NAME, PARENT, READ, START, WRITE, self_times

    own = self_times(spans)
    names = [s[NAME] for s in spans]

    def selfs(pred) -> float:
        return sum(t for n, t in zip(names, own) if pred(n))

    def spans_of(group) -> list:
        return [s for s in spans if s[NAME] in group]

    def external(group) -> int:
        return sum(1 for s in spans_of(group)
                   if s[PARENT] < 0 or not spans[s[PARENT]][NAME].startswith("store."))

    def under(index: int, name: str) -> bool:
        while index >= 0:
            if spans[index][NAME] == name:
                return True
            index = spans[index][PARENT]
        return False

    reads = spans_of(READS)
    appends = spans_of(APPENDS)
    read_bytes = sum(s[READ] for s in reads)
    points_read = sum(s[ITEMS] for s in reads)
    curves = len(spans_of({"ram.build_reference_curve"}))
    curve_loads = sum(1 for s in spans
                      if s[NAME] in ("store.load_series", "store.mem.load_series")
                      and under(s[PARENT], "ram.build_reference_curve"))
    append_write = sum(s[WRITE] for s in appends)
    artifacts = sum(p.stat().st_size for r in records for p in r.op.outputs if p.is_file())
    # The untraced pass is one round, so compare the traced pass's ops of the same kinds.
    kinds = {r.op.name for r in base_records}
    base = sum(r.seconds for r in base_records)
    traced = sum(r.seconds for r in records if r.op.name in kinds)
    metrics = {
        "store.read.self_s": (selfs(lambda n: n in READS), "s"),
        "store.append.self_s": (selfs(lambda n: n in APPENDS), "s"),
        "ingest.self_s": (selfs(lambda n: n.startswith("ingest.")), "s"),
        "series.iqr_filter.self_s": (selfs(lambda n: n == "series.iqr_filter"), "s"),
        "series.monthly_rollup.self_s": (selfs(lambda n: n == "series.monthly_rollup"), "s"),
        "series.combine.self_s": (selfs(lambda n: n in (
            "series.aggregate_group", "series.combine_series", "series.splice")), "s"),
        "ram.self_s": (selfs(lambda n: n.startswith("ram.")), "s"),
        "registry.load.self_s": (selfs(lambda n: n == "registry.load"), "s"),
        "derivatives.self_s": (selfs(lambda n: n.startswith("derivatives.")), "s"),
        "benchmarks.self_s": (selfs(lambda n: n.startswith("benchmarks.")), "s"),
        "reports.run_report.self_s": (selfs(lambda n: n == "reports.run_report"), "s"),
        "reports.emit_plot_data.self_s": (selfs(lambda n: n == "reports.emit_plot_data"), "s"),
        "cli.startup_s": (selfs(lambda n: n == "cli.startup"), "s"),
        "cli.self_s": (selfs(lambda n: n == "cli"), "s"),
        "store.open.calls": (len(spans_of({"store.open"})), "count"),
        "store.load_all.calls": (external({"store.load_all", "store.mem.load_all"}), "count"),
        "store.load_series.calls": (external({"store.load_series", "store.mem.load_series"}), "count"),
        "store.append.calls": (len(appends), "count"),
        "store.append.points": (sum(s[ITEMS] for s in appends), "count"),
        "store.read_mb": (read_bytes / 1e6, "MB"),
        "store.read_bytes_per_point": (read_bytes / points_read if points_read else 0.0, "B"),
        "store.append.read_mb": (sum(s[READ] for s in appends) / 1e6, "MB"),
        "store.append.write_mb": (append_write / 1e6, "MB"),
        "store.append.write_amp": (append_write / store_growth if store_growth else 0.0, "ratio"),
        "series.iqr_filter.calls": (len(spans_of({"series.iqr_filter"})), "count"),
        "series.iqr_filter.flagged_days": (sum(s[ITEMS] for s in spans_of({"series.iqr_filter"})), "count"),
        "ram.loads_per_curve": (curve_loads / curves if curves else 0.0, "count"),
        "registry.load.calls": (len(spans_of({"registry.load"})), "count"),
        "reports.artifact_mb": (artifacts / 1e6, "MB"),
        "trace.overhead_ratio": (traced / base, "ratio"),
    }
    detail: dict[str, dict] = {}
    for span, t in zip(spans, own):
        d = detail.setdefault(span[NAME], {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                           "read_mb": 0.0, "write_mb": 0.0})
        d["calls"] += 1
        d["self_s"] += t
        d["total_s"] += span[END] - span[START]
        d["read_mb"] += span[READ] / 1e6
        d["write_mb"] += span[WRITE] / 1e6
    return metrics, detail


# -- main ------------------------------------------------------------------------


def _flat(groups: list[list]) -> list:
    return [op for group in groups for op in group]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run(workload, seed: int, seconds: float, trace: int, tamper=None):
    """Set up, run and check one workload; returns ``(result, report, metrics, detail)``.

    *tamper*, when given, is called with the records between the timed
    section and the checks (the self-check uses it to alter an artifact).
    """
    from workloads import ROUNDS

    tag = f"{workload.name}-seed{seed}-trace{trace}"
    work = ROOT / ".perfbench" / f"work-{tag}-{os.getpid()}"
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    try:
        speed = Speed()
        setup_times = []
        inputs = None
        for i in range(SETUPS if trace == 0 else 1):
            if inputs is not None:
                shutil.rmtree(inputs.dir)
                inputs = None
            speed.sample(force=True)
            start = time.monotonic()
            inputs = workload.setup(seed, work / f"setup-{i}")
            setup_times.append(time.monotonic() - start)
        store_bytes = _dir_bytes(inputs.store_dir) if workload.backend == "fs" else 0
        # Set-up objects live for the whole run; frozen, they stay out of
        # the collector passes that in-process ops trigger.
        gc.collect()
        gc.freeze()
        runner = Runner(workload, inputs, work, speed)
        detail: dict = {}
        spans: list = []
        started = time.monotonic()
        if trace == 0:
            base, records = [], []
            groups = runner.singles()
            while runner.rounds < ROUNDS or time.monotonic() - started < seconds:
                group = groups[runner.rounds] if runner.rounds < len(groups) else []
                records += runner.round(group, traced=False)
        else:
            base = runner.round([], traced=False)
            records = runner.round(_flat(runner.singles()), traced=True)
            spans = runner.tracer.spans
        run_s = time.monotonic() - started
        speed.sample(force=True)
        peak_kb = max([r.vmhwm_kb for r in base + records]
                      + ([vmhwm_kb()] if workload.backend == "mem" else []))
        if tamper is not None:
            tamper(base + records)
        check_start = time.monotonic()
        check(base + records, inputs, work / "check")
        check_s = time.monotonic() - check_start
        wall: dict = {}
        if trace == 0:
            wall = end_to_end(records, setup_times, peak_kb)
            factor = speed.factor()
            metrics = {name: (value * factor if unit == "s" else value, unit)
                       for name, (value, unit) in wall.items()}
        else:
            metrics, detail = per_layer(spans, records, base, runner.store_growth)
        all_records = base + records
        failed = sum(1 for r in all_records if r.error is not None)
        result = {
            "correct": failed == 0,
            "attempted": len(all_records),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        report = {
            "workload": workload.name, "seed": seed, "trace": trace,
            "python": sys.version.split()[0], "rounds": runner.rounds, "run_s": run_s,
            "check_s": check_s,
            "setup_s_each": setup_times, "store_bytes": store_bytes,
            "calibration_s": speed.samples, "speed_factor": speed.factor(), "wall_metrics": wall,
            "error_rate": failed / len(all_records),
            "ops": [{"name": r.op.name, "class": r.op.cls, "round": r.round, "seconds": r.seconds,
                     "vmhwm_kb": r.vmhwm_kb, "error": r.error,
                     "sha256": {p.name: _sha256(p) for p in r.op.outputs if p.is_file()}}
                    for r in all_records],
            "result": result, "layers": detail,
        }
        (results_dir / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
        if spans:
            (results_dir / f"{tag}.spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")
        return result, report, metrics, detail
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One CPU for the harness and every op process it starts, so the
    # calibration loop times the CPU the ops run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    result, report, metrics, detail = run(WORKLOADS[args.workload](), args.seed, args.seconds, args.trace)
    _print_summary(report, metrics, detail)
    print(json.dumps(result))
    return 0


def _print_summary(report: dict, metrics: dict, detail: dict) -> None:
    print(f"{report['workload']} seed={report['seed']} trace={report['trace']}: "
          f"{report['rounds']} round(s), {len(report['ops'])} ops, run_s={report['run_s']:.3f}, "
          f"check_s={report['check_s']:.3f}, speed_factor={report['speed_factor']:.4f}, "
          f"error_rate={report['error_rate']:.4f}, store_bytes={report['store_bytes']}")
    for rec in report["ops"]:
        if rec["error"]:
            print(f"  FAILED {rec['name']} (round {rec['round']}): {rec['error']}")
    wall = report["wall_metrics"]
    for name, (value, unit) in metrics.items():
        unscaled = f"  (wall {wall[name][0]:.6f})" if unit == "s" and name in wall else ""
        print(f"  {name:32s} {value:14.6f} {unit}{unscaled}")
    for name, d in sorted(detail.items()):
        print(f"  span {name:34s} calls={d['calls']:6d} self_s={d['self_s']:9.4f} "
              f"read_mb={d['read_mb']:9.3f} write_mb={d['write_mb']:7.3f}")


if __name__ == "__main__":
    if not (SRC / "hubtrends" / "__init__.py").is_file():
        print(f"error: no hubtrends sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.exit(main())
