"""Synthetic multimodal datasets, text-file I/O, splits, and Gaussian corruption.

Every JSON and CSV file goes through this module (model.py keeps the binary
checkpoint), and a bad byte or line fails as a ParseError naming its file and line.

A Dataset checks its blocks and labels when it is built, so every dataset that
reaches the model is one it can run on; nothing downstream checks them again.

The synthetic generator places per-class Gaussian clusters in every modality.
Class means are drawn from per-(seed, class, modality) streams and rescaled so
the smallest pairwise distance between class means equals
class_separation * noise_std for that modality; separation 0 collapses all
means to the origin, making the modality uninformative.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AT_LEAST_1, AT_LEAST_2, FINITE_NON_NEGATIVE, NON_NEGATIVE, OPEN_FRACTION, PATH
from .errors import TWO_OR_MORE
from .errors import ConfigError, DimensionError, DomainError, EmptyInputError, Key, ParseError
from .errors import SpecError, SplitError, check_section, read_section

# Stream tags for mean placement, feature noise, corruption draws and validation carve-outs.
_MEANS_STREAM = 11
_FEATURES_STREAM = 12
_CORRUPT_STREAM = 13
_VALIDATION_STREAM = 14

# Every "data.synthetic" key; per-class and per-modality values may be one scalar.
SYNTHETIC_SCHEMA = {
    "num_classes": Key(int, AT_LEAST_2),
    "modality_dims": Key(list[int], AT_LEAST_1, TWO_OR_MORE),
    "samples_per_class": Key(int | list[int], AT_LEAST_1),
    "class_separation": Key(float | list[float], FINITE_NON_NEGATIVE),
    "noise_std": Key(float | list[float], FINITE_NON_NEGATIVE),
    "seed": Key(int, NON_NEGATIVE),
}
# Every manifest key and every key of a manifest's modality entry; all required.
_MANIFEST_SCHEMA = {
    "num_classes": Key(int, AT_LEAST_2),
    "modalities": Key(list[dict]),
    "labels": Key(str, PATH),
}
_ENTRY_SCHEMA = {"path": Key(str, PATH), "dim": Key(int, AT_LEAST_1)}
# The keys of a fingerprint (a run snapshot's "resolved_test"); both required.
FINGERPRINT_SCHEMA = {"rows": Key(int), "sha256": Key(str)}


@dataclass(frozen=True)
class SyntheticSpec:
    num_classes: int
    modality_dims: tuple[int, ...]
    samples_per_class: tuple[int, ...]
    class_separation: tuple[float, ...]
    noise_std: tuple[float, ...]
    seed: int

    def __post_init__(self):
        # Kinds and bounds as the JSON section's; a numpy value is taken as its Python value.
        values = check_section("data.synthetic", vars(self), SYNTHETIC_SCHEMA)
        values["modality_dims"] = tuple(values["modality_dims"])
        for key, count in _entry_counts(values).items():
            value = values[key]  # a scalar stands for every class or modality
            values[key] = value = tuple(value if isinstance(value, list) else [value] * count)
            if len(value) != count:
                raise SpecError(f"data.synthetic.{key}: expected {count} entries, got {value}")
        vars(self).update(values)  # past the frozen dataclass's __setattr__

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SyntheticSpec":
        """Parse a "data.synthetic" section; noise_std and seed are optional.

        A scalar samples_per_class, class_separation or noise_std stands for
        every class or modality.
        """
        required = ("num_classes", "modality_dims", "samples_per_class", "class_separation")
        defaults = {"noise_std": 1.0, "seed": 0}
        return cls(**defaults | read_section("data.synthetic", obj, SYNTHETIC_SCHEMA, required))


def _entry_counts(spec: dict) -> dict:
    """How many entries each per-class or per-modality key of a "data.synthetic" object lists."""
    per_class, per_modality = spec["num_classes"], len(spec["modality_dims"])
    return dict(samples_per_class=per_class, class_separation=per_modality, noise_std=per_modality)


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
            if not np.isfinite(block).all():  # the row search runs only on a block that fails
                row = np.flatnonzero(~np.isfinite(block).all(axis=1))[0]
                raise DomainError(f"modality {m}: non-finite feature at row {row}")
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
    """Gaussian clusters per (class, modality); deterministic given the seed.

    Settings so large that a feature overflows float64 fail with a SpecError.
    """
    total = sum(spec.samples_per_class)
    labels = np.concatenate(
        [np.full(n, k, dtype=np.int64) for k, n in enumerate(spec.samples_per_class)]
    )
    modalities = []
    for m, dim in enumerate(spec.modality_dims):
        with np.errstate(over="ignore", invalid="ignore"):  # Dataset rejects what overflowed
            means = class_means(spec, m)
            blocks = []
            for k, n in enumerate(spec.samples_per_class):
                rng = np.random.default_rng([spec.seed, _FEATURES_STREAM, k, m])
                blocks.append(means[k] + spec.noise_std[m] * rng.standard_normal((n, dim)))
        modalities.append(np.concatenate(blocks, axis=0))
    assert modalities[0].shape[0] == total
    try:
        return Dataset(modalities=modalities, labels=labels, num_classes=spec.num_classes)
    except DomainError as exc:
        raise SpecError(f"data.synthetic overflows float64: {exc}") from None


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
    write_json(manifest_path, manifest)
    return manifest_path


def write_text(path: Path, text: str) -> None:
    """Write an ASCII text file in one call."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def json_text(obj) -> str:
    """Indented, key-sorted ASCII JSON with a final newline; NaN or infinity raises DomainError."""
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise DomainError(f"cannot write JSON: {exc}") from None


def write_json(path: Path, obj) -> None:
    """Write `obj` as json_text; a NaN or infinity fails before the file is opened."""
    write_text(path, json_text(obj))


def read_json(path: Path):
    """The value of a UTF-8 JSON file; a bad byte or bad syntax fails naming its line."""
    raw = path.read_bytes()
    try:
        return json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(str(path), line, f"not UTF-8 (byte 0x{raw[exc.start]:02x})") from None
    except json.JSONDecodeError as exc:
        raise ParseError(str(path), exc.lineno, f"invalid JSON ({exc.msg})") from None
    except (ValueError, RecursionError) as exc:  # an int over Python's digit limit; deep nesting
        raise DomainError(f"{path}: cannot read JSON ({exc})") from None


def _text_lines(path: Path, raw: bytes):
    """(line number, stripped text) of each nonempty line of an ASCII file's bytes.

    Lines end at \\n, \\r\\n or \\r, as in a file read in text mode. A byte
    outside ASCII fails as a ParseError naming its line.
    """
    lines = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n").split(b"\n")
    for lineno, line in enumerate(lines, start=1):
        try:
            text = line.decode("ascii").strip()
        except UnicodeDecodeError as exc:
            message = f"not ASCII (byte 0x{line[exc.start]:02x})"
            raise ParseError(str(path), lineno, message) from None
        if text:
            yield lineno, text


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
    raw = path.read_bytes()
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
    return _read_modality_lines(path, raw, dim)


def _read_modality_lines(path: Path, raw: bytes, dim: int) -> np.ndarray:
    rows = []
    for lineno, line in _text_lines(path, raw):
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
    manifest = read_json(manifest_path)
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
    if not len(labels):
        raise ParseError(str(manifest_path), 1, "0 rows; need at least 1")
    return Dataset(modalities=modalities, labels=labels, num_classes=num_classes)


# The only bytes a labels file parsed in one call may hold: every line is then one integer.
_LABEL_BYTES = b"0123456789\r\n"


def _load_labels(path: Path, num_classes: int) -> np.ndarray:
    """Parse a labels file in one np.array call, or else line by line.

    The one-call result is kept only when the file holds nothing but
    _LABEL_BYTES and every label is in range; every other file is decided by
    _read_label_lines, the reader that names the offending line.
    """
    raw = path.read_bytes()
    if not raw.translate(None, _LABEL_BYTES):
        try:
            labels = np.array(raw.split(), dtype=np.int64)
        except OverflowError:
            pass
        else:
            if ((labels >= 0) & (labels < num_classes)).all():
                return labels
    return _read_label_lines(path, raw, num_classes)


def _read_label_lines(path: Path, raw: bytes, num_classes: int) -> np.ndarray:
    labels = []
    for lineno, line in _text_lines(path, raw):
        try:
            value = int(line)
        except ValueError:
            raise ParseError(str(path), lineno, f"non-integer label {line!r}") from None
        if not 0 <= value < num_classes:
            raise ParseError(str(path), lineno, f"label {value} out of range [0, {num_classes})")
        labels.append(value)
    return np.asarray(labels, dtype=np.int64)


def fingerprint(dataset: Dataset) -> dict:
    """{"rows": N, "sha256": hex} of `dataset`, as a run records the rows it was scored on.

    The hash covers each block as <f8, then the labels as <i8, each after its
    shape: two datasets share it only when they hold the same rows in order.
    """
    digest = hashlib.sha256()
    for array in [*(b.astype("<f8") for b in dataset.modalities), dataset.labels.astype("<i8")]:
        digest.update(f"{array.shape}".encode("ascii") + array.tobytes())
    return {"rows": dataset.num_samples, "sha256": digest.hexdigest()}


def split(dataset: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Stratified train/test split; both sides keep every class."""
    OPEN_FRACTION.check("", "train_fraction", train_fraction)
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
    OPEN_FRACTION.check("", "val_fraction", val_fraction)
    stream = int(np.random.default_rng([seed, _VALIDATION_STREAM]).integers(2**31))
    return split(train_set, 1.0 - val_fraction, stream)


def corrupt_block(block: np.ndarray, epsilon: float, seed: int, modality: int) -> np.ndarray:
    """`block` plus Gaussian noise of variance `epsilon`, drawn from `seed`'s stream for `modality`.

    `epsilon` is a finite value >= 0; the caller checks it.
    """
    rng = np.random.default_rng([seed, _CORRUPT_STREAM, modality])
    return block + math.sqrt(epsilon) * rng.standard_normal(block.shape)


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
