"""Synthetic multimodal datasets, CSV ingestion, splits, and Gaussian corruption.

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

from .errors import ParseError, SpecError, SplitError, check_section

# Stream tags for mean placement, feature noise, and corruption draws.
_MEANS_STREAM = 11
_FEATURES_STREAM = 12
_CORRUPT_STREAM = 13

# JSON kind of every "data.synthetic" key; per-class and per-modality values may be one scalar.
_SYNTHETIC_SCHEMA = {
    "num_classes": int,
    "modality_dims": list[int],
    "samples_per_class": int | list[int],
    "class_separation": float | list[float],
    "noise_std": float | list[float],
    "seed": int,
}


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
    """Columnar storage: one (N, d_m) array per modality plus integer labels."""

    modalities: list[np.ndarray]
    labels: np.ndarray
    num_classes: int

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

    def label(self, index: int) -> int:
        return int(self.labels[index])

    def take(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset(
            modalities=[m[idx].copy() for m in self.modalities],
            labels=self.labels[idx].copy(),
            num_classes=self.num_classes,
        )

    def class_counts(self) -> list[int]:
        return [int(np.sum(self.labels == k)) for k in range(self.num_classes)]


@dataclass(frozen=True)
class CorruptionSpec:
    target_modalities: frozenset[int]
    epsilon: float
    seed: int
    # "variance": noise std = sqrt(epsilon); "std": noise std = epsilon.
    epsilon_is: str = "variance"

    def __post_init__(self):
        object.__setattr__(
            self, "target_modalities", frozenset(int(i) for i in self.target_modalities)
        )
        if self.epsilon < 0:
            raise SpecError(f"epsilon must be >= 0, got {self.epsilon}")
        if any(i < 0 for i in self.target_modalities):
            raise SpecError(f"negative modality index: {self.target_modalities}")
        if self.epsilon_is not in ("variance", "std"):
            raise SpecError(f"epsilon_is must be 'variance' or 'std', got {self.epsilon_is!r}")

    def noise_std(self) -> float:
        return float(np.sqrt(self.epsilon)) if self.epsilon_is == "variance" else float(self.epsilon)


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


def write_csv_dataset(dataset: Dataset, out_dir, prefix: str = "modality") -> Path:
    """Write headerless per-modality CSVs, a labels file, and the manifest.

    Floats are serialized with 9 significant digits; the manifest is written
    last so a failed write never leaves a manifest pointing at missing files.
    Returns the manifest path.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for m, block in enumerate(dataset.modalities):
        name = f"{prefix}_{m}.csv"
        row_format = ",".join(["{:.9g}"] * block.shape[1]) + "\n"
        with open(out / name, "w", encoding="ascii", newline="\n") as fh:
            fh.writelines(map(row_format.format, *block.T.tolist()))
        entries.append({"path": name, "dim": int(block.shape[1])})
    labels_name = "labels.csv"
    with open(out / labels_name, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(map("{}\n".format, dataset.labels.tolist()))
    manifest = {
        "num_classes": dataset.num_classes,
        "modalities": entries,
        "labels": labels_name,
    }
    manifest_path = out / "manifest.json"
    with open(manifest_path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest_path


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
    for key in ("num_classes", "modalities", "labels"):
        if key not in manifest:
            raise ParseError(str(manifest_path), 1, f"manifest missing key {key!r}")
    num_classes = int(manifest["num_classes"])
    base = manifest_path.parent
    modalities = []
    for entry in manifest["modalities"]:
        modalities.append(_load_modality_csv(base / entry["path"], int(entry["dim"])))
    labels_path = base / manifest["labels"]
    labels = []
    with open(labels_path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                value = int(line)
            except ValueError:
                raise ParseError(str(labels_path), lineno, f"non-integer label {line!r}") from None
            if not 0 <= value < num_classes:
                raise ParseError(
                    str(labels_path), lineno, f"label {value} out of range [0, {num_classes})"
                )
            labels.append(value)
    counts = {len(labels)} | {m.shape[0] for m in modalities}
    if len(counts) != 1:
        sizes = ", ".join(
            f"{entry['path']}={m.shape[0]}" for entry, m in zip(manifest["modalities"], modalities)
        )
        raise ParseError(
            str(manifest_path), 1, f"row counts disagree: {sizes}, labels={len(labels)}"
        )
    if len(modalities) < 2:
        raise ParseError(str(manifest_path), 1, "need at least 2 modalities")
    return Dataset(
        modalities=modalities,
        labels=np.asarray(labels, dtype=np.int64),
        num_classes=num_classes,
    )


def split(dataset: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Stratified train/test split; both sides keep every class."""
    if not 0.0 < train_fraction < 1.0:
        raise SplitError(f"train_fraction must be in (0, 1), got {train_fraction}")
    train_idx: list[int] = []
    test_idx: list[int] = []
    for k in range(dataset.num_classes):
        members = np.flatnonzero(dataset.labels == k)
        if members.shape[0] < 2:
            raise SplitError(f"class {k} has {members.shape[0]} samples; need at least 2 to split")
        perm = np.random.default_rng([seed, k]).permutation(members.shape[0])
        members = members[perm]
        n_train = int(round(train_fraction * members.shape[0]))
        n_train = min(max(n_train, 1), members.shape[0] - 1)
        train_idx.extend(members[:n_train].tolist())
        test_idx.extend(members[n_train:].tolist())
    train_idx.sort()
    test_idx.sort()
    return dataset.take(train_idx), dataset.take(test_idx)


def corrupt_gaussian(dataset: Dataset, spec: CorruptionSpec) -> Dataset:
    """Add zero-mean Gaussian noise to the targeted modalities.

    Untargeted modalities (and the epsilon = 0 case) are bit-identical copies;
    labels are never touched.
    """
    for m in spec.target_modalities:
        if m >= dataset.num_modalities:
            raise SpecError(f"corruption target {m} out of range for {dataset.num_modalities}")
    std = spec.noise_std()
    modalities = []
    for m, block in enumerate(dataset.modalities):
        if m in spec.target_modalities and std > 0.0:
            rng = np.random.default_rng([spec.seed, _CORRUPT_STREAM, m])
            modalities.append(block + std * rng.standard_normal(block.shape))
        else:
            modalities.append(block.copy())
    return Dataset(
        modalities=modalities, labels=dataset.labels.copy(), num_classes=dataset.num_classes
    )


@dataclass(frozen=True)
class StandardizationStats:
    means: tuple[np.ndarray, ...]
    stds: tuple[np.ndarray, ...]


def standardize_fit(dataset: Dataset) -> StandardizationStats:
    """Per-feature mean and std per modality; constant features get std 1."""
    means = []
    stds = []
    for block in dataset.modalities:
        mu = block.mean(axis=0)
        sigma = block.std(axis=0)
        sigma = np.where(sigma < 1e-12, 1.0, sigma)
        means.append(mu)
        stds.append(sigma)
    return StandardizationStats(means=tuple(means), stds=tuple(stds))


def standardize_apply(dataset: Dataset, stats: StandardizationStats) -> Dataset:
    if len(stats.means) != dataset.num_modalities:
        raise SpecError("standardization stats do not match the dataset")
    modalities = [
        (block - mu) / sigma
        for block, mu, sigma in zip(dataset.modalities, stats.means, stats.stds)
    ]
    return Dataset(
        modalities=modalities, labels=dataset.labels.copy(), num_classes=dataset.num_classes
    )
