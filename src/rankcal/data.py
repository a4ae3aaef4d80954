"""Synthetic multimodal datasets, CSV ingestion, splits, and Gaussian corruption.

A Dataset checks its blocks and labels when it is built, so every dataset that
reaches the model is one it can run on; nothing downstream checks them again.

The synthetic generator places per-class Gaussian clusters in every modality.
Class means are drawn from per-(seed, class, modality) streams and rescaled so
the smallest pairwise distance between class means equals
class_separation * noise_std for that modality; separation 0 collapses all
means to the origin, making the modality uninformative.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionError, DomainError, EmptyInputError, ParseError
from .errors import SpecError, SplitError
from .errors import check_section

# Stream tags for mean placement, feature noise, corruption draws and validation carve-outs.
_MEANS_STREAM = 11
_FEATURES_STREAM = 12
_CORRUPT_STREAM = 13
_VALIDATION_STREAM = 14

# JSON kind of every "data.synthetic" key; per-class and per-modality values may be one scalar.
_SYNTHETIC_SCHEMA = {
    "num_classes": int,
    "modality_dims": list[int],
    "samples_per_class": int | list[int],
    "class_separation": float | list[float],
    "noise_std": float | list[float],
    "seed": int,
}
# JSON kind of every manifest key and of every key of a manifest's modality entry; all required.
_MANIFEST_SCHEMA = {"num_classes": int, "modalities": list[dict], "labels": str}
_ENTRY_SCHEMA = {"path": str, "dim": int}


@dataclass(frozen=True)
class SyntheticSpec:
    num_classes: int
    modality_dims: tuple[int, ...]
    samples_per_class: tuple[int, ...]
    class_separation: tuple[float, ...]
    noise_std: tuple[float, ...]
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "modality_dims", tuple(int(d) for d in self.modality_dims))
        object.__setattr__(self, "samples_per_class", tuple(int(n) for n in self.samples_per_class))
        object.__setattr__(self, "class_separation", tuple(float(s) for s in self.class_separation))
        object.__setattr__(self, "noise_std", tuple(float(s) for s in self.noise_std))
        if self.num_classes < 2:
            raise SpecError("need at least 2 classes")
        if len(self.modality_dims) < 2:
            raise SpecError("need at least 2 modalities")
        if any(d < 1 for d in self.modality_dims):
            raise SpecError(f"modality dims must be >= 1: {self.modality_dims}")
        if len(self.samples_per_class) != self.num_classes:
            raise SpecError("samples_per_class must list one count per class")
        if any(n < 1 for n in self.samples_per_class):
            raise SpecError(f"per-class counts must be >= 1: {self.samples_per_class}")
        if len(self.class_separation) != len(self.modality_dims):
            raise SpecError("class_separation must list one value per modality")
        if any(s < 0 for s in self.class_separation):
            raise SpecError(f"separations must be >= 0: {self.class_separation}")
        if len(self.noise_std) != len(self.modality_dims):
            raise SpecError("noise_std must list one value per modality")
        if any(s < 0 for s in self.noise_std):
            raise SpecError(f"noise stds must be >= 0: {self.noise_std}")
        if self.seed < 0:
            raise SpecError("seed must be >= 0")

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SyntheticSpec":
        """Parse a "data.synthetic" section; noise_std and seed are optional."""
        required = ("num_classes", "modality_dims", "samples_per_class", "class_separation")
        obj = check_section("data.synthetic", obj, _SYNTHETIC_SCHEMA, required)
        num_classes = obj["num_classes"]
        dims = tuple(obj["modality_dims"])
        per_class = obj["samples_per_class"]
        if isinstance(per_class, int):
            per_class = [per_class] * num_classes
        separation = obj["class_separation"]
        if isinstance(separation, float):
            separation = [separation] * len(dims)
        noise = obj.get("noise_std", 1.0)
        if isinstance(noise, float):
            noise = [noise] * len(dims)
        return cls(
            num_classes=num_classes,
            modality_dims=dims,
            samples_per_class=tuple(per_class),
            class_separation=tuple(separation),
            noise_std=tuple(noise),
            seed=obj.get("seed", 0),
        )


@dataclass
class Dataset:
    """Columnar storage: one (N, d_m) array per modality plus integer labels.

    Construction checks the data once: each block is stored as a 2-D float64
    array of finite values with one row per label, and every label is an
    integer in [0, num_classes).
    """

    modalities: list[np.ndarray]
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.modalities = [np.asarray(block, dtype=np.float64) for block in self.modalities]
        self.labels = labels = np.asarray(self.labels)
        if labels.ndim != 1 or not np.issubdtype(labels.dtype, np.integer):
            raise DomainError(
                f"labels must be a 1-D integer array, got {labels.dtype}{labels.shape}"
            )
        for m, block in enumerate(self.modalities):
            if block.ndim != 2 or len(block) != len(labels):
                raise DimensionError(
                    f"modality {m}: block {block.shape} is not ({len(labels)} rows, dim)"
                )
            bad = np.flatnonzero(~np.isfinite(block).all(axis=1))
            if len(bad):
                raise DomainError(f"modality {m}: non-finite feature at row {bad[0]}")
        bad = np.flatnonzero((labels < 0) | (labels >= self.num_classes))
        if len(bad):
            raise DomainError(
                f"label {labels[bad[0]]} at row {bad[0]} is outside [0, {self.num_classes})"
            )

    @property
    def num_samples(self) -> int:
        return int(self.labels.shape[0])

    @property
    def num_modalities(self) -> int:
        return len(self.modalities)

    @property
    def modality_dims(self) -> tuple[int, ...]:
        return tuple(m.shape[1] for m in self.modalities)

    def features(self, index: int) -> list[np.ndarray]:
        return [m[index] for m in self.modalities]

    def take(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.intp)  # fancy indexing copies
        return Dataset(
            modalities=[m[idx] for m in self.modalities],
            labels=self.labels[idx],
            num_classes=self.num_classes,
        )

    def class_counts(self) -> list[int]:
        return [int(np.sum(self.labels == k)) for k in range(self.num_classes)]


@dataclass(frozen=True)
class CorruptionSpec:
    """Gaussian noise of variance `epsilon` on the target modalities."""

    target_modalities: frozenset[int]
    epsilon: float
    seed: int

    def __post_init__(self):
        object.__setattr__(
            self, "target_modalities", frozenset(int(i) for i in self.target_modalities)
        )
        if not 0 <= self.epsilon < math.inf:
            raise SpecError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if any(i < 0 for i in self.target_modalities):
            raise SpecError(f"negative modality index: {self.target_modalities}")

    def noise_std(self) -> float:
        return float(np.sqrt(self.epsilon))

    def noisy_modalities(self) -> frozenset[int]:
        """The modalities that get noise: the targets, unless epsilon is 0."""
        return self.target_modalities if self.noise_std() > 0.0 else frozenset()


def class_means(spec: SyntheticSpec, modality: int) -> np.ndarray:
    """Deterministic (K, d) class means for one modality.

    Raw means come from per-(seed, class, modality) streams; the whole set is
    then rescaled so the minimum pairwise distance equals
    class_separation[modality] * noise_std[modality].
    """
    dim = spec.modality_dims[modality]
    raw = np.stack(
        [
            np.random.default_rng([spec.seed, _MEANS_STREAM, k, modality]).standard_normal(dim)
            for k in range(spec.num_classes)
        ]
    )
    min_dist = min(
        float(np.linalg.norm(raw[a] - raw[b]))
        for a in range(spec.num_classes)
        for b in range(a + 1, spec.num_classes)
    )
    if min_dist == 0.0:
        # Degenerate draw; per-stream Gaussians never actually collide.
        raise SpecError("degenerate class means")
    target = spec.class_separation[modality] * spec.noise_std[modality]
    return raw * (target / min_dist)


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Gaussian clusters per (class, modality); deterministic given the seed."""
    total = sum(spec.samples_per_class)
    labels = np.concatenate(
        [np.full(n, k, dtype=np.int64) for k, n in enumerate(spec.samples_per_class)]
    )
    modalities = []
    for m, dim in enumerate(spec.modality_dims):
        means = class_means(spec, m)
        blocks = []
        for k, n in enumerate(spec.samples_per_class):
            rng = np.random.default_rng([spec.seed, _FEATURES_STREAM, k, m])
            blocks.append(means[k] + spec.noise_std[m] * rng.standard_normal((n, dim)))
        modalities.append(np.concatenate(blocks, axis=0))
    assert modalities[0].shape[0] == total
    return Dataset(modalities=modalities, labels=labels, num_classes=spec.num_classes)


def write_csv_dataset(dataset: Dataset, out_dir) -> Path:
    """Write headerless per-modality CSVs, a labels file, and the manifest.

    Floats are serialized with 9 significant digits; the manifest is written
    last so a failed write never leaves a manifest pointing at missing files.
    Each file's text comes from one %-format over its flattened values and
    goes out in one write. Returns the manifest path.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for m, block in enumerate(dataset.modalities):
        name = f"modality_{m}.csv"
        row_format = ",".join(["%.9g"] * block.shape[1]) + "\n"
        write_text(out / name, row_format * len(block) % tuple(block.ravel().tolist()))
        entries.append({"path": name, "dim": int(block.shape[1])})
    labels_name = "labels.csv"
    write_text(out / labels_name, "%s\n" * dataset.num_samples % tuple(dataset.labels.tolist()))
    manifest = {
        "num_classes": dataset.num_classes,
        "modalities": entries,
        "labels": labels_name,
    }
    manifest_path = out / "manifest.json"
    text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False)
    write_text(manifest_path, text + "\n")
    return manifest_path


def write_text(path: Path, text: str) -> None:
    """Write an ASCII text file in one call."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


# The only bytes the C-level parse may see. Anything else (letters as in nan/inf,
# "_" as in 1_0, or whitespace such as "\x1c", which np.loadtxt strips and
# float() does not) sends the file to the line-wise reader.
_NUMERIC_CSV_BYTES = b"0123456789eE.+-, \t\r\n"


def _load_modality_csv(path: Path, dim: int) -> np.ndarray:
    """Parse a modality file in one np.loadtxt call, or else line by line.

    The block is kept only when the file holds nothing but _NUMERIC_CSV_BYTES,
    loadtxt parses it, and the result has `dim` columns of finite values.
    Every other file (a parse error, an empty or whitespace-only file, a
    non-finite value) is decided by _read_modality_lines, the one reader that
    names the offending line, so both paths give the same array or error.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.translate(None, _NUMERIC_CSV_BYTES):
        try:
            with warnings.catch_warnings():
                # "input contained no data" becomes an exception, not a leaked warning.
                warnings.simplefilter("error", UserWarning)
                lines = raw.decode("ascii").splitlines()
                block = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None, dtype=np.float64)
        except (ValueError, UserWarning):
            pass
        else:
            if block.shape[1] == dim and np.isfinite(block).all():
                return block
    return _read_modality_lines(path, dim)


def _read_modality_lines(path: Path, dim: int) -> np.ndarray:
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != dim:
                raise ParseError(str(path), lineno, f"expected {dim} columns, got {len(cells)}")
            try:
                row = [float(c) for c in cells]
            except ValueError:
                raise ParseError(str(path), lineno, f"non-numeric cell in {line!r}") from None
            if not all(math.isfinite(v) for v in row):
                raise ParseError(str(path), lineno, f"non-finite cell in {line!r}")
            rows.append(row)
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), dim)


def load_csv_dataset(manifest_path) -> Dataset:
    """Load a dataset from a manifest JSON and its referenced CSV files."""
    manifest_path = Path(manifest_path)
    with open(manifest_path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(str(manifest_path), exc.lineno, exc.msg) from None
    try:
        manifest = check_section("manifest", manifest, _MANIFEST_SCHEMA, _MANIFEST_SCHEMA)
        entries = [
            check_section(f"manifest.modalities[{i}]", entry, _ENTRY_SCHEMA, _ENTRY_SCHEMA)
            for i, entry in enumerate(manifest["modalities"])
        ]
    except ConfigError as exc:
        raise ParseError(str(manifest_path), 1, str(exc)) from None
    num_classes = manifest["num_classes"]
    base = manifest_path.parent
    modalities = [_load_modality_csv(base / entry["path"], entry["dim"]) for entry in entries]
    labels = _load_labels(base / manifest["labels"], num_classes)
    counts = {len(labels)} | {m.shape[0] for m in modalities}
    if len(counts) != 1:
        sizes = ", ".join(
            f"{entry['path']}={m.shape[0]}" for entry, m in zip(entries, modalities)
        )
        raise ParseError(
            str(manifest_path), 1, f"row counts disagree: {sizes}, labels={len(labels)}"
        )
    if len(modalities) < 2:
        raise ParseError(str(manifest_path), 1, "need at least 2 modalities")
    return Dataset(modalities=modalities, labels=labels, num_classes=num_classes)


# The only bytes a labels file parsed in one call may hold: every line is then one integer.
_LABEL_BYTES = b"0123456789\r\n"


def _load_labels(path: Path, num_classes: int) -> np.ndarray:
    """Parse a labels file in one np.array call, or else line by line.

    The one-call result is kept only when the file holds nothing but
    _LABEL_BYTES and every label is in range; every other file is decided by
    _read_label_lines, the reader that names the offending line.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.translate(None, _LABEL_BYTES):
        try:
            labels = np.array(raw.split(), dtype=np.int64)
        except OverflowError:
            pass
        else:
            if ((labels >= 0) & (labels < num_classes)).all():
                return labels
    return _read_label_lines(path, num_classes)


def _read_label_lines(path: Path, num_classes: int) -> np.ndarray:
    labels = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                value = int(line)
            except ValueError:
                raise ParseError(str(path), lineno, f"non-integer label {line!r}") from None
            if not 0 <= value < num_classes:
                message = f"label {value} out of range [0, {num_classes})"
                raise ParseError(str(path), lineno, message)
            labels.append(value)
    return np.asarray(labels, dtype=np.int64)


def split(dataset: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Stratified train/test split; both sides keep every class."""
    if not 0.0 < train_fraction < 1.0:
        raise SplitError(f"train_fraction must be in (0, 1), got {train_fraction}")
    # 0 for train, 1 for test.
    side = np.full(dataset.num_samples, -1, dtype=np.int8)
    for k in range(dataset.num_classes):
        members = np.flatnonzero(dataset.labels == k)
        if members.shape[0] < 2:
            raise SplitError(f"class {k} has {members.shape[0]} samples; need at least 2 to split")
        perm = np.random.default_rng([seed, k]).permutation(members.shape[0])
        members = members[perm]
        n_train = int(round(train_fraction * members.shape[0]))
        n_train = min(max(n_train, 1), members.shape[0] - 1)
        side[members[:n_train]] = 0
        side[members[n_train:]] = 1
    return dataset.take(np.flatnonzero(side == 0)), dataset.take(np.flatnonzero(side == 1))


def split_validation(train_set: Dataset, val_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Stratified (train, validation) carve-out of a train split.

    Each class gives about val_fraction of its samples, at least one, to the
    validation side; the draw is keyed by `seed` on its own stream, apart from
    the train/test split's.
    """
    if not 0.0 < val_fraction < 1.0:
        raise SplitError(f"val_fraction must be in (0, 1), got {val_fraction}")
    stream = int(np.random.default_rng([seed, _VALIDATION_STREAM]).integers(2**31))
    return split(train_set, 1.0 - val_fraction, stream)


def corrupt_block(block: np.ndarray, spec: CorruptionSpec, modality: int) -> np.ndarray:
    """`block` plus its Gaussian noise under `spec`, drawn from modality's stream."""
    rng = np.random.default_rng([spec.seed, _CORRUPT_STREAM, modality])
    return block + spec.noise_std() * rng.standard_normal(block.shape)


@dataclass(frozen=True)
class StandardizationStats:
    means: tuple[np.ndarray, ...]
    stds: tuple[np.ndarray, ...]


def standardize_fit(dataset: Dataset) -> StandardizationStats:
    """Per-feature mean and std per modality; constant features get std 1.

    A feature whose mean or std overflows (finite values near the float64
    limit) fails with a DomainError naming its modality and feature, since
    standardize_apply would turn it into zeros. An empty dataset has no
    mean to fit and fails with an EmptyInputError.
    """
    if dataset.num_samples == 0:
        raise EmptyInputError("cannot standardize on an empty dataset")
    means = []
    stds = []
    for m, block in enumerate(dataset.modalities):
        with np.errstate(over="ignore", invalid="ignore"):
            mu = block.mean(axis=0)
            sigma = block.std(axis=0)
        bad = np.flatnonzero(~(np.isfinite(mu) & np.isfinite(sigma)))
        if bad.size:
            j = bad[0]
            raise DomainError(
                f"modality {m}: feature {j} cannot be standardized "
                f"(mean {float(mu[j])!r}, std {float(sigma[j])!r})"
            )
        sigma = np.where(sigma < 1e-12, 1.0, sigma)
        means.append(mu)
        stds.append(sigma)
    return StandardizationStats(means=tuple(means), stds=tuple(stds))


def standardize_apply(dataset: Dataset, stats: StandardizationStats) -> Dataset:
    """Each feature minus its training mean, over its training std.

    A finite value that overflows there (far outside the training scale)
    fails with a DomainError naming its modality, feature, row and raw value.
    """
    if len(stats.means) != dataset.num_modalities:
        raise SpecError("standardization stats do not match the dataset")
    with np.errstate(over="ignore"):
        modalities = [
            (block - mu) / sigma
            for block, mu, sigma in zip(dataset.modalities, stats.means, stats.stds)
        ]
    try:
        return Dataset(
            modalities=modalities, labels=dataset.labels.copy(), num_classes=dataset.num_classes
        )
    except DomainError:
        # The Dataset check found a non-finite value. The raw values and the stats are
        # finite, so a value overflowed: name it by its raw value.
        m = next(m for m, block in enumerate(modalities) if not np.isfinite(block).all())
        row, j = np.argwhere(~np.isfinite(modalities[m]))[0]
        raw, mu, sigma = dataset.modalities[m][row, j], stats.means[m][j], stats.stds[m][j]
        raise DomainError(
            f"modality {m}: feature {j} at row {row} cannot be standardized (value "
            f"{float(raw)!r}, training mean {float(mu)!r}, std {float(sigma)!r})"
        ) from None
