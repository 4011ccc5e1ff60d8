"""Seeded synthetic inputs for the benchmark (stdlib only).

Everything here is a pure function of ``(seed, n_models, n_days)``: the
same arguments always give the same registry, series and feed files.
Nothing imports hubtrends, so the program under test only ever sees the
files written here.
"""

from __future__ import annotations

import csv
import json
import random
import statistics
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

START = date(2024, 1, 1)
# Series starts are staggered over this many days after START.
START_SPREAD_DAYS = 150
SPIKE_SHARE = 0.05

# (registry organization spelling, region it resolves to through the
# bundled alias table).  The last group is unknown to the table, so it
# lands in Other.
ORGANIZATIONS = [
    ("meta-llama", "USA"), ("google", "USA"), ("microsoft", "USA"), ("nvidia", "USA"),
    ("allenai", "USA"), ("ibm-granite", "USA"),
    ("Qwen", "China"), ("deepseek-ai", "China"), ("THUDM", "China"), ("internlm", "China"),
    ("moonshotai", "China"), ("MiniMaxAI", "China"),
    ("mistralai", "Europe"), ("HuggingFaceTB", "Europe"),
    ("tiiuae", "Other"), ("cohere-labs", "Other"), ("indie-lab", "Other"),
]

# Size buckets in hubtrends order, a parameter count that stays inside
# the bucket with up to 10% added, and
# the share of models drawn into it.  Very large models are rare, which
# keeps the two top buckets small.
BUCKETS = [
    ("Sub1B", 500_000_000, 0.10),
    ("B1to5", 3_000_000_000, 0.20),
    ("B7to9", 8_000_000_000, 0.26),
    ("B10to50", 20_000_000_000, 0.25),
    ("B50to100", 70_000_000_000, 0.10),
    ("B100to250", 150_000_000_000, 0.05),
    ("B250plus", 400_000_000_000, 0.04),
]
MIN_PER_BUCKET = 12  # a reference curve needs ten members with data
VARIANT_EVERY = 25  # about one base model in 25 gets an official "-FP8" re-release


@dataclass(frozen=True)
class Model:
    model_id: str
    organization: str
    region: str
    bucket: str
    total_params: int
    release: date
    start: date
    variant_of: str  # group key ("" for a stand-alone model)
    rate: float  # mean daily downloads


@dataclass
class Dataset:
    seed: int
    n_days: int
    models: list[Model]
    values: dict[str, list[int]]  # model id -> cumulative count per day from its start

    def last_date(self, model: Model) -> date:
        return model.start + timedelta(days=self.n_days - 1)

    def points(self):
        """Every store point as ``(model_id, date, cumulative)``."""
        for m in self.models:
            for k, v in enumerate(self.values[m.model_id]):
                yield m.model_id, m.start + timedelta(days=k), v

    def by_bucket(self) -> dict[str, list[Model]]:
        out: dict[str, list[Model]] = {name: [] for name, _, _ in BUCKETS}
        for m in self.models:
            out[m.bucket].append(m)
        return out

    def variant_groups(self) -> list[str]:
        return sorted({m.variant_of for m in self.models if m.variant_of})


def _bucket_counts(n_models: int) -> list[int]:
    counts = [max(MIN_PER_BUCKET, int(share * n_models)) for _, _, share in BUCKETS]
    counts[2] += n_models - sum(counts)  # remainder to the most common class
    if counts[2] < MIN_PER_BUCKET:
        raise ValueError(f"{n_models} models are too few to fill every size bucket")
    return counts


def _units(rng: random.Random, n_models: int) -> list[tuple[str, bool]]:
    """Shuffled ``(bucket, has_variant)`` units; a unit with a variant is two models.

    Bucket sizes are fixed by *n_models* alone, and every bucket opens
    with a base model that has a variant, so each bucket holds a group.
    """
    units = []
    for (bucket, _, _), count in zip(BUCKETS, _bucket_counts(n_models)):
        used = 0
        while used < count:
            paired = used % (VARIANT_EVERY + 1) == 0 and used + 2 <= count
            units.append((bucket, paired))
            used += 2 if paired else 1
    rng.shuffle(units)
    return units


def generate(seed: int, n_models: int, n_days: int) -> Dataset:
    rng = random.Random(seed)
    params = {name: p for name, p, _ in BUCKETS}
    models: list[Model] = []
    for i, (bucket, has_variant) in enumerate(_units(rng, n_models)):
        org, region = ORGANIZATIONS[rng.randrange(len(ORGANIZATIONS))]
        start = START + timedelta(days=rng.randrange(START_SPREAD_DAYS))
        model_id = f"{org}/m{i:04d}"
        base = Model(
            model_id=model_id,
            organization=org,
            region=region,
            bucket=bucket,
            total_params=params[bucket] + params[bucket] // 1000 * rng.randrange(100),
            release=start - timedelta(days=rng.randrange(6)),
            start=start,
            variant_of=model_id if has_variant else "",
            rate=min(rng.lognormvariate(6.0, 1.4), 400_000.0),
        )
        models.append(base)
        if has_variant:
            models.append(
                Model(
                    model_id=f"{model_id}-FP8",
                    organization=org,
                    region=region,
                    bucket=bucket,
                    total_params=base.total_params,
                    release=base.release + timedelta(days=rng.randrange(3)),
                    start=start + timedelta(days=2),
                    variant_of=model_id,
                    rate=base.rate * 0.2,
                )
            )
    values: dict[str, list[int]] = {}
    for m in models:
        cum = 0
        spike_day = rng.randrange(30, n_days - 30) if rng.random() < SPIKE_SHARE else -1
        out = []
        for k in range(n_days):
            cum += int(m.rate * (0.5 + rng.random()) * (1.0 + k / 400.0))
            if k == spike_day:
                cum += max(200_000, int(100 * m.rate))
            out.append(cum)
        values[m.model_id] = out
    return Dataset(seed=seed, n_days=n_days, models=models, values=values)


# -- dates ----------------------------------------------------------------


def month_label(d: date) -> date:
    return date(d.year, d.month, 1)


def add_months(label: date, n: int) -> date:
    total = label.year * 12 + (label.month - 1) + n
    return date(total // 12, total % 12 + 1, 1)


def import_month(ds: Dataset, model: Model, k: int) -> tuple[date, int]:
    """The k-th (1-based) imported month label for *model* and its cumulative value.

    The label is at least two months past the model's last daily point,
    so the stored snapshot (label minus one day) is always new.
    """
    label = add_months(month_label(ds.last_date(model)), k + 1)
    last = ds.values[model.model_id][-1]
    return label, last + int(model.rate * 30.4 * (1.5 + k))


# -- files ----------------------------------------------------------------


def _write_csv(path: Path, header: list[str], rows) -> Path:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_registry(ds: Dataset, path: Path) -> Path:
    header = ["model_id", "organization", "region_hint", "total_params", "active_params",
              "release_date", "variant_group"]
    rows = [
        [m.model_id, m.organization, "", m.total_params, "", m.release.isoformat(), m.variant_of]
        for m in ds.models
    ]
    return _write_csv(path, header, rows)


def write_import(ds: Dataset, k: int, path: Path) -> int:
    """A full monthly history export through the k-th new month, for every model.

    The months inside each model's daily series and new months 1..k-1
    are already stored (equal values, so they re-import as skipped
    duplicates); only month k is new.  Returns the number of rows.
    """
    rows = []
    for m in sorted(ds.models, key=lambda m: m.model_id):
        label = add_months(month_label(m.start), 1)
        while label - timedelta(days=1) <= ds.last_date(m):
            day = (label - timedelta(days=1) - m.start).days
            rows.append([m.model_id, label.isoformat(), ds.values[m.model_id][day]])
            label = add_months(label, 1)
        for j in range(1, k + 1):
            label, value = import_month(ds, m, j)
            rows.append([m.model_id, label.isoformat(), value])
    _write_csv(path, ["model_id", "month", "cumulative_downloads"], rows)
    return len(rows)


def write_splice_history(ds: Dataset, model: Model, path: Path) -> date:
    """A baseline monthly history for *model*; returns its last label, the splice date.

    The baseline holds month-end values scaled by 0.9, standing in for
    an independently cleaned source.
    """
    first = add_months(month_label(model.start), 1)
    splice_label = add_months(first, 6)
    rows = []
    label = first
    values = ds.values[model.model_id]
    while label <= splice_label:
        k = (label - model.start).days - 1  # last daily point before the label
        rows.append([model.model_id, label.isoformat(), int(values[k] * 0.9)])
        label = add_months(label, 1)
    _write_csv(path, ["model_id", "month", "cumulative_downloads"], rows)
    return splice_label


def write_derivatives(ds: Dataset, n_records: int, path: Path) -> Path:
    """Derivative records over tracked and untracked bases.

    Mixes every rejection cause: untracked bases, five or fewer
    downloads, and gguf/mlx re-uploads by tag or by name.
    """
    rng = random.Random(ds.seed * 7919 + 1)
    ids = [m.model_id for m in ds.models]
    rows = []
    for j in range(n_records):
        roll = rng.random()
        if roll < 0.08:
            base_tag = f"base_model:ghost-org/untracked-{j % 97}"
        elif roll < 0.12:
            a, b = rng.choice(ids), rng.choice(ids)
            base_tag = f"base_model:{a};base_model:{b}"
        else:
            base_tag = f"base_model:{rng.choice(ids)}"
        fmt = ""
        name = f"tuner{j % 613}/ft-{j}"
        roll = rng.random()
        if roll < 0.06:
            fmt = "gguf"
        elif roll < 0.09:
            name += "-MLX"
        downloads = rng.choice([0, 3, 5]) if rng.random() < 0.1 else rng.randrange(6, 50_000)
        created = START + timedelta(days=rng.randrange(720)) if rng.random() > 0.02 else None
        rows.append([name, base_tag, downloads, fmt, created.isoformat() if created else ""])
    return _write_csv(
        path, ["child_id", "base_tag", "lifetime_downloads", "format_tags", "created_at"], rows
    )


def write_tokens(ds: Dataset, path: Path) -> Path:
    """Monthly top-10 served-token feed, some rows naming unregistered models."""
    rng = random.Random(ds.seed * 7919 + 2)
    ids = [m.model_id for m in ds.models]
    rows = []
    label = month_label(START)
    for _ in range(24):
        chosen = rng.sample(ids, 9) + [f"mistralai/hosted-{label.month}"]
        for model_id in chosen:
            rows.append([label.isoformat(), model_id, rng.randrange(10**9, 10**12)])
        label = add_months(label, 1)
    return _write_csv(path, ["month", "model_id", "tokens"], rows)


def write_elo(ds: Dataset, n_rows: int, path: Path) -> Path:
    """Arena ratings on dates straddling the recalibration cutover."""
    rng = random.Random(ds.seed * 7919 + 3)
    ids = [m.model_id for m in ds.models]
    rows = [
        [(START + timedelta(days=rng.randrange(720))).isoformat(), rng.choice(ids),
         f"{rng.uniform(1000, 1400):.1f}"]
        for _ in range(n_rows)
    ]
    return _write_csv(path, ["date", "model_id", "elo"], rows)


def write_index(ds: Dataset, n_rows: int, path: Path) -> Path:
    """Capability index scores, all inside the index scope."""
    rng = random.Random(ds.seed * 7919 + 4)
    ids = [m.model_id for m in ds.models]
    scope = date(2024, 4, 1)
    rows = []
    for _ in range(n_rows):
        days = rng.randrange(600)
        rows.append([(scope + timedelta(days=days)).isoformat(), rng.choice(ids),
                     f"{20 + days * 0.05 + rng.uniform(-8, 8):.3f}"])
    return _write_csv(path, ["date", "model_id", "score"], rows)


# -- reference curves -------------------------------------------------------

# The milestone days of the pinned convention (days after release).
MILESTONES = (7, 14, 30, 60, 90, 180, 365)


def value_asof(ds: Dataset, model: Model, when: date) -> int | None:
    """Cumulative count at the model's last daily point on or before *when*."""
    k = (when - model.start).days
    if k < 0:
        return None
    return ds.values[model.model_id][min(k, ds.n_days - 1)]


def top10(ds: Dataset, bucket: str, when: date) -> list[str]:
    """The bucket's ten largest models at *when*; ties go to the smaller id."""
    ranked = sorted(
        (-v, m.model_id)
        for m in ds.by_bucket()[bucket]
        if (v := value_asof(ds, m, when)) is not None
    )
    return [model_id for _, model_id in ranked[:10]]


def write_curve(ds: Dataset, bucket: str, when: date, path: Path) -> Path:
    """A reference-curve JSON for *bucket*, computed from the generator's own series.

    It stands in for a curve saved earlier, so ``ram score --reference``
    can run without first building one.
    """
    members = top10(ds, bucket, when)
    by_id = {m.model_id: m for m in ds.models}
    milestones = []
    for t in MILESTONES:
        values = []
        for model_id in members:
            m = by_id[model_id]
            target = m.release + timedelta(days=t)
            k = (target - m.start).days
            if 0 <= k < ds.n_days and target <= when:
                values.append(float(max(1, ds.values[model_id][k])))
        if not values:
            break
        q1, med, q3 = statistics.quantiles(values * 2, n=4) if len(values) > 1 else values * 3
        milestones.append({"t": t, "median": med, "q1": min(q1, med), "q3": max(q3, med),
                           "support": len(values)})
    curve = {"bucket": bucket, "reference_date": when.isoformat(), "milestones": milestones,
             "members": members}
    path.write_text(json.dumps(curve, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
