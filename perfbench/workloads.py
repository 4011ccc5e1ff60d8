"""The benchmark's workloads: set-up, op lists and output checks.

``fs-lookup-300`` runs every op as its own ``hubtrends`` process over a
:class:`SnapshotStore`; ``mem-report-1500``
calls ``reports.run_report`` in-process over an :class:`InMemoryStore`
(the CLI cannot open one), except for one store-free feed report that
goes through the CLI.  Every op list holds at least one op of each
class (report, ram, import, feed), so each class metric exists on every
workload.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, replace
from datetime import date, timedelta
from pathlib import Path
from typing import Callable

import gen
from hubtrends import ingest, ram, reports, series
from hubtrends.config import Config
from hubtrends.registry import Registry
from hubtrends.reports import ReportSpec
from hubtrends.store import InMemoryStore, SnapshotPoint, SnapshotStore

N_DAYS = 600
REF_DATE = gen.START + timedelta(days=420)
CLASSES = ("report", "ram", "import", "feed")


@dataclass
class Op:
    """One operation of a run.

    *name* is its kind: ops repeated in every round share a name, and an
    op that runs once per run has a name of its own.  *cls* is its class
    (report, ram, import or feed).  Exactly one of
    *argv* (hubtrends CLI arguments) and *run* (an in-process call) is
    set.  *check* returns an error message or None.
    """

    name: str
    cls: str
    outputs: list[Path]
    check: Callable[["Checker", "Record"], str | None]
    argv: list[str] | None = None
    run: Callable[[], object] | None = None


@dataclass
class Record:
    op: Op
    round: int
    seconds: float
    error: str | None = None
    stdout: str = ""
    value: object = None
    vmhwm_kb: int = 0


@dataclass
class Inputs:
    """Everything one set-up produced."""

    dir: Path
    ds: gen.Dataset
    registry: Path
    curves: dict[str, Path]
    derivatives: Path
    tokens: Path
    elo: Path
    index: Path
    splice_history: Path
    splice_date: date
    store: SnapshotStore | InMemoryStore
    points: list[SnapshotPoint]

    @property
    def store_dir(self) -> Path:
        return self.dir / "store"


def _log(path: Path) -> Path:
    return path.with_name(path.name + ".log")


# ReportSpec fields of the reports run through the CLI, and their flags.
_FLAGS = {
    "bucket": "--bucket",
    "reference_date": "--reference-date",
    "group_by": "--group-by",
    "derivatives_path": "--file",
    "tokens_path": "--file",
}


def _cli_flags(kwargs: dict) -> list[str]:
    out: list[str] = []
    for key, value in kwargs.items():
        out += [_FLAGS[key], value.isoformat() if isinstance(value, date) else str(value)]
    return out


class Workload:
    """A workload: its size, its backend, and how to build its ops.

    A measured run is made of *rounds*.  *build_round* gives one op of
    every repeated kind for round *r*; *build_singles* gives the ops that
    run once per run, in ``ROUNDS`` groups, group *r* spread through
    round *r*.
    """

    def __init__(self, name: str, backend: str, n_models: int, n_derivatives: int,
                 build_singles: Callable[["Workload", Inputs, Path], list[list[Op]]],
                 build_round: Callable[["Workload", Inputs, Path, int], list[Op]]):
        self.name = name
        self.backend = backend
        self.n_models = n_models
        self.n_derivatives = n_derivatives
        self._build_singles = build_singles
        self._build_round = build_round

    # -- set-up -----------------------------------------------------------

    def setup(self, seed: int, where: Path) -> Inputs:
        """Generate every input file and build the store (the timed set-up)."""
        ds = gen.generate(seed, self.n_models, N_DAYS)
        where.mkdir(parents=True)
        model = ds.models[2]
        history = where / "splice-history.csv"
        inputs = Inputs(
            dir=where,
            ds=ds,
            registry=gen.write_registry(ds, where / "registry.csv"),
            curves={b: gen.write_curve(ds, b, REF_DATE, where / f"curve-{b}.json")
                    for b, _, _ in gen.BUCKETS},
            derivatives=gen.write_derivatives(ds, self.n_derivatives, where / "derivatives.csv"),
            tokens=gen.write_tokens(ds, where / "tokens.csv"),
            elo=gen.write_elo(ds, 2000, where / "elo.csv"),
            index=gen.write_index(ds, 2000, where / "index.csv"),
            splice_history=history,
            splice_date=gen.write_splice_history(ds, model, history),
            store=InMemoryStore() if self.backend == "mem" else SnapshotStore(where / "store"),
            points=[SnapshotPoint(m, d, v) for m, d, v in ds.points()],
        )
        inputs.store.append(inputs.points)
        if self.backend == "mem":
            # Only the disk checks need the points again; held here they
            # would only lengthen garbage-collector passes inside the ops.
            inputs.points = []
        return inputs

    def singles(self, inputs: Inputs, out: Path) -> list[list[Op]]:
        """The once-per-run ops in ``ROUNDS`` groups, writing under *out*."""
        out.mkdir(parents=True)
        return self._build_singles(self, inputs, out)

    def round_ops(self, inputs: Inputs, out: Path, r: int, singles: list[Op]) -> list[Op]:
        """Round *r*: one op of every repeated kind, with *singles* spread among them."""
        out.mkdir(parents=True)
        return _spread(singles, self._build_round(self, inputs, out, r))

    def cli_prefix(self, inputs: Inputs) -> list[str]:
        prefix = ["--registry", str(inputs.registry)]
        if self.backend == "fs":
            prefix = ["--store", str(inputs.store_dir)] + prefix
        return prefix

    # -- op factories -----------------------------------------------------

    def report(self, inputs: Inputs, name: str, cls: str, kind: str, out: Path,
               fmt: str = "csv", plot: Path | None = None, cli: bool = False,
               mem_check=None, **kwargs) -> Op:
        """A ``report`` op: a CLI process on disk, an in-process call in memory.

        *cli* forces a CLI process in memory too (store-free kinds only);
        *mem_check* is the invariant check used in memory.
        """
        spec = ReportSpec(kind=kind, output_path=str(out), output_format=fmt, **kwargs)
        outputs = [out, _log(out)] + ([plot] if plot else [])
        if self.backend == "fs":
            def check(ck, rec):
                return ck.same_as(outputs, lambda d: _report_files(spec, plot, d, ck))
        else:
            def check(ck, rec):
                return mem_check(ck, rec, outputs)
        if self.backend == "fs" or cli:
            argv = (["--format", fmt] if fmt != "csv" else []) + ["report", kind, "--out", str(out)]
            argv += _cli_flags(kwargs) + (["--plot-data", str(plot)] if plot else [])
            return Op(name, cls, outputs, check, argv=argv)
        config = Config(registry_path=str(inputs.registry), output_format=fmt)

        def run():
            result = reports.run_report(spec, config, inputs.store)
            if plot:
                reports.emit_plot_data(result, plot)

        return Op(name, cls, outputs, check, run=run)

    def import_op(self, inputs: Inputs, out: Path, k: int) -> Op:
        """Import a history export whose only new month is month *k*."""
        path = out / f"import-{k}.csv"
        rows = gen.write_import(inputs.ds, k, path)
        n = len(inputs.ds.models)

        def check(ck, rec):
            ck.apply_import(k)
            if self.backend == "fs":
                want = f"imported {n} points ({rows - n} already stored, 0 conflicting, 0 bad rows)"
                return None if rec.stdout.strip() == want else f"import said {rec.stdout.strip()!r}"
            result = rec.value
            if (result.added, result.skipped, len(result.conflicts)) != (n, rows - n, 0):
                return f"import added {result.added}, skipped {result.skipped}"
            return None

        if self.backend == "fs":
            return Op("ingest import", "import", [], check, argv=["ingest", "import", "--file", str(path)])

        def run():
            records, report = ingest.import_history(path)
            if report.errors:
                raise ValueError(f"import rejected rows: {report.errors[:3]}")
            return inputs.store.append(ingest.history_points(records))

        return Op("ingest import", "import", [], check, run=run)


# -- disk-only ops: CLI commands outside `report`, checked against an in-memory rerun


def _report_files(spec: ReportSpec, plot: Path | None, d: Path, ck: "Checker") -> list[Path]:
    out = d / Path(spec.output_path).name
    result = reports.run_report(replace(spec, output_path=str(out)), ck.config, ck.store)
    paths = [out, _log(out)]
    if plot:
        paths.append(reports.emit_plot_data(result, d / plot.name))
    return paths


def _rollup(model: str, out: Path) -> Op:
    def expected(ck, d):
        path = d / out.name
        series.write_series_csv(path, model, series.monthly_rollup(ck.store.load_series(model)).points)
        return [path]

    return Op("series rollup", "report", [out],
              lambda ck, rec: ck.same_as([out], lambda d: expected(ck, d)),
              argv=["series", "rollup", "--model", model, "--out", str(out)])


def _splice(inputs: Inputs, out: Path) -> Op:
    model = inputs.ds.models[2].model_id

    def expected(ck, d):
        records, _ = ingest.import_history(inputs.splice_history)
        monthly = ingest.history_to_monthly(records)
        result = series.splice(monthly[model], ck.store.load_series(model), inputs.splice_date)
        path = d / out.name
        flags = {label: ["clamped"] for label in result.clamped}
        series.write_series_csv(path, model, result.series.points, flags)
        return [path]

    argv = ["series", "splice", "--history", str(inputs.splice_history), "--model", model,
            "--splice-date", inputs.splice_date.isoformat(), "--out", str(out)]
    return Op("series splice", "report", [out],
              lambda ck, rec: ck.same_as([out], lambda d: expected(ck, d)), argv=argv)


def _filter(models: list[str], out: Path) -> Op:
    def expected(ck, d):
        path = d / out.name
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "date", "cumulative_downloads", "flags"])
            for model in sorted(models):
                result = series.iqr_filter(ck.store.load_series(model))
                for day, value in result.series.points:
                    flags = (["outlier"] if day in result.flagged else []) + (
                        ["too_short"] if result.too_short else [])
                    if isinstance(value, float) and value.is_integer():
                        value = int(value)
                    writer.writerow([model, day.isoformat(), value, ";".join(flags)])
        return [path]

    argv = ["series", "filter", *[a for m in models for a in ("--model", m)], "--out", str(out)]
    return Op("series filter", "report", [out],
              lambda ck, rec: ck.same_as([out], lambda d: expected(ck, d)), argv=argv)


def _ram_score(name: str, model: str, out: Path, curve: Path | None = None) -> Op:
    """``ram score`` against a saved curve, or building one on the fly when *curve* is None."""

    def expected(ck, d):
        if curve is not None:
            reference = ram.load_reference_curve(curve)
        else:
            members = ck.registry.group_members(model) or [model]
            representative = max((ck.registry.by_id[m] for m in members), key=lambda r: r.total_params)
            reference = ram.build_reference_curve(representative.size_bucket, ck.registry, ck.store, REF_DATE)
        path = d / out.name
        ram.write_scores_csv(ram.ram_trajectory(model, ck.registry, ck.store, reference), path)
        return [path]

    source = ["--reference", str(curve)] if curve else ["--reference-date", REF_DATE.isoformat()]
    return Op(name, "ram", [out], lambda ck, rec: ck.same_as([out], lambda d: expected(ck, d)),
              argv=["ram", "score", "--model", model, *source, "--out", str(out)])


# -- model choices ------------------------------------------------------------


def _smallest_bucket(ds: gen.Dataset) -> str:
    """The smallest bucket; sizes depend on the model count only, not the seed."""
    by_bucket = ds.by_bucket()
    return min(by_bucket, key=lambda b: (len(by_bucket[b]), b))


def _score_keys(ds: gen.Dataset, bucket: str, n: int) -> list[str]:
    """*n* ram-score keys in *bucket*: every variant-group key first, then plain models."""
    members = ds.by_bucket()[bucket]
    groups = sorted({m.variant_of for m in members if m.variant_of})
    plain = sorted(m.model_id for m in members if not m.variant_of)
    return (groups + random.Random(ds.seed).sample(plain, len(plain)))[:n]


# -- op lists -------------------------------------------------------------------


# A run has at least this many rounds, so every repeated kind has at
# least three samples and its median discards one disturbed sample.
ROUNDS = 3


def _spread(ops: list[Op], extras: list[Op]) -> list[Op]:
    """*ops* with *extras* inserted at even intervals, the first at the start."""
    out = list(ops)
    step = len(ops) / len(extras)
    for i in reversed(range(len(extras))):
        out.insert(round(i * step), extras[i])
    return out


def fs_lookup_singles(w: Workload, inputs: Inputs, out: Path) -> list[list[Op]]:
    """The curve builds and ram scores; each is mostly whole-store parses."""
    ds = inputs.ds
    bucket = _smallest_bucket(ds)
    keys = _score_keys(ds, bucket, 8)
    return [
        [w.report(inputs, "report ram_reference", "ram", "ram_reference", out / "curve.json",
                  fmt="json", plot=out / "curve.plot.csv", bucket=bucket, reference_date=REF_DATE)],
        [_ram_score("ram score --reference-date", keys[0], out / "ram-built.csv")],
        [_ram_score(f"ram score --reference #{i}", key, out / f"ram-{i}.csv", inputs.curves[bucket])
         for i, key in enumerate(keys)],
    ]


def _fs_feeds(w: Workload, inputs: Inputs, out: Path, tag: str) -> list[Op]:
    return [
        w.report(inputs, "report derivative_share", "feed", "derivative_share",
                 out / f"deriv-{tag}.csv", derivatives_path=str(inputs.derivatives)),
        w.report(inputs, "report token_share", "feed", "token_share", out / f"tokens-{tag}.csv",
                 group_by="organization", tokens_path=str(inputs.tokens)),
    ]


def fs_lookup_round(w: Workload, inputs: Inputs, out: Path, r: int) -> list[Op]:
    """One op of each repeated kind; the import and the short feed ops twice, for more samples."""
    ds = inputs.ds
    picks = random.Random(ds.seed + 1).sample([m.model_id for m in ds.models], 10)
    first, second = _fs_feeds(w, inputs, out, "a"), _fs_feeds(w, inputs, out, "b")
    return [
        w.import_op(inputs, out, 2 * r + 1),
        first[0],
        _filter(picks, out / "filter.csv"),
        first[1],
        _rollup(ds.models[1].model_id, out / "rollup.csv"),
        w.import_op(inputs, out, 2 * r + 2),
        _splice(inputs, out / "splice.csv"),
        second[0],
        # The one whole-store scan (disk ``load_all``) of this workload.
        w.report(inputs, "report size_distribution", "report", "size_distribution", out / "size.csv"),
        second[1],
    ]


N_TRAJECTORIES = 300


def mem_report_singles(w: Workload, inputs: Inputs, out: Path) -> list[list[Op]]:
    """A curve per bucket and the trajectories, dealt over the rounds."""
    ds = inputs.ds
    bucket_of = {m.model_id: m.bucket for m in ds.models}
    groups = ds.variant_groups()
    plain = sorted(m.model_id for m in ds.models if not m.variant_of)
    n_keys = min(N_TRAJECTORIES, len(ds.models) // 4)  # a toy-size store has fewer
    keys = groups + random.Random(ds.seed + 2).sample(plain, n_keys - len(groups))
    curves = [w.report(inputs, f"report ram_reference {b}", "ram", "ram_reference",
                       out / f"curve-{b}.json", fmt="json", bucket=b, reference_date=REF_DATE,
                       mem_check=_check_curve)
              for b, _, _ in gen.BUCKETS]
    trajectories = [w.report(inputs, f"report ram_trajectory #{i}", "ram", "ram_trajectory",
                             out / f"traj-{i}.csv", model=key,
                             reference_path=str(inputs.curves[bucket_of[key]]),
                             mem_check=_check_trajectory)
                    for i, key in enumerate(keys)]
    dealt = [trajectories[j::ROUNDS] for j in range(ROUNDS)]
    return [curves + dealt[0], *dealt[1:]]


def mem_report_round(w: Workload, inputs: Inputs, out: Path, r: int) -> list[Op]:
    """One op of each repeated kind; the short import three times, for more samples."""
    return [
        w.report(inputs, "report region_downloads", "report", "region_downloads", out / "region.csv",
                 plot=out / "region.plot.csv", filtered=True, mem_check=_check_region),
        # Right after region_downloads, with no import between: its check
        # compares the two tables.
        w.report(inputs, "report org_downloads", "report", "org_downloads", out / "org.csv",
                 filtered=True, mem_check=_check_org),
        # Not first in the round: every import then follows the same kind
        # of work, in round 0 as in later rounds.
        w.import_op(inputs, out, 3 * r + 1),
        w.report(inputs, "report derivative_share", "feed", "derivative_share", out / "deriv.csv",
                 derivatives_path=str(inputs.derivatives), mem_check=_check_shares),
        w.report(inputs, "report size_distribution", "report", "size_distribution", out / "size.csv",
                 mem_check=_check_size),
        w.import_op(inputs, out, 3 * r + 2),
        w.report(inputs, "report derivative_share --group-by organization", "feed",
                 "derivative_share", out / "deriv-org.csv", group_by="organization",
                 derivatives_path=str(inputs.derivatives), mem_check=_check_shares),
        w.report(inputs, "report token_share", "feed", "token_share", out / "tokens.csv", cli=True,
                 group_by="organization", tokens_path=str(inputs.tokens), mem_check=_check_tokens),
        w.report(inputs, "report elo_frontier", "feed", "elo_frontier", out / "elo.csv",
                 elo_path=str(inputs.elo), mem_check=_check_elo),
        w.import_op(inputs, out, 3 * r + 3),
        w.report(inputs, "report index_trend", "feed", "index_trend", out / "index.csv",
                 index_path=str(inputs.index), mem_check=_check_index),
    ]


WORKLOADS = {
    "fs-lookup-300": lambda: Workload("fs-lookup-300", "fs", 300, 2000,
                                      fs_lookup_singles, fs_lookup_round),
    "mem-report-1500": lambda: Workload("mem-report-1500", "mem", 1500, 100_000,
                                        mem_report_singles, mem_report_round),
}


# -- checks -----------------------------------------------------------------------


class Checker:
    """Checks each op's outputs, in op order, outside the timed section.

    For disk workloads ``store`` is an in-memory mirror holding the same
    points plus each month imported so far, and outputs are recomputed
    over it and compared byte for byte.  For the in-memory workload
    ``store`` is a fresh copy and outputs are checked against invariants
    recomputed from the generated inputs.
    """

    def __init__(self, inputs: Inputs, scratch: Path):
        self.inputs = inputs
        self.scratch = scratch
        self.store = InMemoryStore()
        self.store.append(inputs.points)
        self.registry, _ = Registry.load(inputs.registry)
        self.config = Config(registry_path=str(inputs.registry))
        self.imports = 0
        self._n = 0

    def apply_import(self, k: int) -> None:
        ds = self.inputs.ds
        points = []
        for m in ds.models:
            label, value = gen.import_month(ds, m, k)
            points.append(SnapshotPoint(m.model_id, label - timedelta(days=1), value))
        self.store.append(points)
        self.imports = k

    def same_as(self, actual: list[Path], produce) -> str | None:
        self._n += 1
        where = self.scratch / f"check-{self._n}"
        where.mkdir(parents=True)
        expected = produce(where)
        for got, want in zip(actual, expected):
            if got.read_bytes() != want.read_bytes():
                return f"{got.name} differs from the in-memory recomputation"
        return None

    def last_values(self) -> dict[str, int]:
        ds = self.inputs.ds
        if self.imports == 0:
            return {m.model_id: ds.values[m.model_id][-1] for m in ds.models}
        return {m.model_id: gen.import_month(ds, m, self.imports)[1] for m in ds.models}


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _check_region(ck: Checker, rec: Record, outputs: list[Path]) -> str | None:
    rows = _rows(outputs[0])
    months = [r["month"] for r in rows]
    if months != sorted(months) or any(not m.endswith("-01") for m in months):
        return "region_downloads months are not ordered first-of-month labels"
    if {r["region"] for r in rows} - {"USA", "China", "Europe"}:
        return "region_downloads lists a region outside USA/China/Europe"
    if len(_rows(outputs[2])) != len(rows):
        return "plot data row count differs from the report"
    return None


def _check_org(ck: Checker, rec: Record, outputs: list[Path]) -> str | None:
    """Per month, organization totals summed by region match region_downloads."""
    region_of = dict(gen.ORGANIZATIONS)
    by_region: dict[tuple[str, str], int] = {}
    orgs: dict[str, set[str]] = {}
    for r in _rows(outputs[0]):
        key = (r["month"], region_of[r["organization"]])
        by_region[key] = by_region.get(key, 0) + int(r["downloads"])
        orgs.setdefault(key[1], set()).add(r["organization"])
    region_rows = _rows(outputs[0].with_name("region.csv"))
    if not region_rows:
        return "region_downloads is empty"
    for r in region_rows:
        total = by_region.get((r["month"], r["region"]), 0)
        if abs(total - int(r["downloads"])) > len(orgs.get(r["region"], ())):
            return f"{r['month']} {r['region']}: organizations sum to {total}, region says {r['downloads']}"
    return None


def _check_size(ck: Checker, rec: Record, outputs: list[Path]) -> str | None:
    """The table equals per-bucket sums of each model's last value."""
    bucket_of = {m.model_id: m.bucket for m in ck.inputs.ds.models}
    totals = {b: 0.0 for b, _, _ in gen.BUCKETS}
    for model_id, value in sorted(ck.last_values().items()):
        totals[bucket_of[model_id]] += value
    grand = sum(totals.values())
    want = "bucket,downloads,share\n" + "".join(
        f"{b},{round(v)},{v / grand:.6f}\n" for b, v in totals.items())
    if outputs[0].read_text(encoding="utf-8") != want:
        return "size_distribution differs from the per-bucket last values"
    return None


def _check_curve(ck: Checker, rec: Record, outputs: list[Path]) -> str | None:
    curve = json.loads(outputs[0].read_text(encoding="utf-8"))
    want = gen.top10(ck.inputs.ds, curve["bucket"], REF_DATE)
    if curve["members"] != want:
        return f"{curve['bucket']}: members {curve['members']} != top 10 {want}"
    ts = [s["t"] for s in curve["milestones"]]
    if not ts or ts != list(gen.MILESTONES[: len(ts)]):
        return f"{curve['bucket']}: milestones {ts} are not a prefix"
    return None


def _check_trajectory(ck: Checker, rec: Record, outputs: list[Path]) -> str | None:
    rows = _rows(outputs[0])
    ts = [int(r["t"]) for r in rows]
    if not ts or ts != list(gen.MILESTONES[: len(ts)]):
        return f"trajectory milestones {ts} are not a non-empty prefix"
    return None


def _share_sums(rows: list[dict[str, str]], month_key: str = "month") -> dict[str, float]:
    sums: dict[str, float] = {}
    for r in rows:
        sums[r[month_key]] = sums.get(r[month_key], 0.0) + float(r["share"])
    return sums


def _check_shares(ck: Checker, rec: Record, outputs: list[Path]) -> str | None:
    rows = _rows(outputs[0])
    if not rows:
        return "share table is empty"
    for month, total in _share_sums(rows).items():
        if abs(total - 1.0) > 1e-5:
            return f"{month}: shares sum to {total}"
    return None


def _check_tokens(ck: Checker, rec: Record, outputs: list[Path]) -> str | None:
    error = _check_shares(ck, rec, outputs)
    if error:
        return error
    fed: dict[str, int] = {}
    for r in _rows(ck.inputs.tokens):
        fed[r["month"]] = fed.get(r["month"], 0) + int(r["tokens"])
    reported: dict[str, int] = {}
    for r in _rows(outputs[0]):
        reported[r["month"]] = reported.get(r["month"], 0) + int(r["tokens"])
    return None if fed == reported else "token totals differ from the feed"


def _check_elo(ck: Checker, rec: Record, outputs: list[Path]) -> str | None:
    last: dict[str, float] = {}
    for r in _rows(outputs[0]):
        elo = float(r["elo"])
        if elo < last.get(r["region"], float("-inf")):
            return f"{r['region']} frontier drops at {r['date']}"
        last[r["region"]] = elo
    return None if last else "elo frontier is empty"


def _check_index(ck: Checker, rec: Record, outputs: list[Path]) -> str | None:
    kinds: dict[tuple[str, str], list[str]] = {}
    for r in _rows(outputs[0]):
        kinds.setdefault((r["region"], r["date"]), []).append(r["series"])
    if not kinds or any(sorted(v) != ["fitted", "observed"] for v in kinds.values()):
        return "index trend rows are not observed/fitted pairs"
    return None
