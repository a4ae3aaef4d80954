from __future__ import annotations

import json
import random
import re

import numpy as np
import pytest

from rankcal import data
from rankcal.data import (
    Dataset,
    corrupt_block,
    SyntheticSpec,
    class_means,
    generate_synthetic,
    load_csv_dataset,
    split,
    standardize_apply,
    standardize_fit,
    write_csv_dataset,
)
from rankcal.errors import DimensionError, DomainError, EmptyInputError, ParseError, SpecError
from rankcal.errors import ConfigError, SplitError

from reference import corrupt_gaussian, label_of, reference_dataset_csv
from reference import reference_load_modality_csv, reference_split


def basic_spec(**overrides) -> SyntheticSpec:
    defaults = dict(
        num_classes=2,
        modality_dims=(4, 3),
        samples_per_class=(50, 50),
        class_separation=(3.0, 3.0),
        noise_std=(1.0, 1.0),
        seed=0,
    )
    defaults.update(overrides)
    return SyntheticSpec(**defaults)


def nearest_mean_accuracy(train: Dataset, test: Dataset, modality: int) -> float:
    """Oracle classifier: nearest class mean estimated on the train split."""
    means = np.stack(
        [
            train.modalities[modality][train.labels == k].mean(axis=0)
            for k in range(train.num_classes)
        ]
    )
    correct = 0
    for i in range(test.num_samples):
        x = test.modalities[modality][i]
        predicted = int(np.argmin(np.linalg.norm(means - x, axis=1)))
        correct += predicted == label_of(test, i)
    return correct / test.num_samples


class TestDataset:
    """A Dataset checks its blocks and labels once, when it is built."""

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(DimensionError, match=r"modality 1: block \(4, 2\) is not \(3 rows"):
            Dataset([np.zeros((3, 2)), np.zeros((4, 2))], np.array([0, 1, 0]), 2)

    def test_block_must_be_two_dimensional(self):
        with pytest.raises(DimensionError, match="modality 0"):
            Dataset([np.zeros(3), np.zeros((3, 2))], np.array([0, 1, 0]), 2)

    def test_out_of_range_label_names_the_first_bad_row(self):
        labels = np.zeros(11, dtype=np.int64)
        labels[[4, 7]] = [3, -1]
        with pytest.raises(DomainError) as excinfo:
            Dataset([np.zeros((11, 2)), np.zeros((11, 3))], labels, 3)
        assert str(excinfo.value) == "label 3 at row 4 is outside [0, 3)"

    @pytest.mark.parametrize("labels", [np.array([0.0, 1.0]), np.array([True, False]), [[0, 1]]])
    def test_non_integer_labels_rejected(self, labels):
        with pytest.raises(DomainError, match="labels must be a 1-D integer array"):
            Dataset([np.zeros((2, 2)), np.zeros((2, 3))], labels, 2)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("modality, row", [(0, 0), (1, 6), (1, 10)])
    def test_non_finite_feature_names_its_modality_and_row(self, value, modality, row):
        blocks = [np.zeros((11, 2)), np.zeros((11, 3))]
        blocks[modality][row, -1] = value
        blocks[modality][row + 1 :, 0] = value  # a later row names no earlier one
        with pytest.raises(DomainError) as excinfo:
            Dataset(blocks, np.zeros(11, dtype=np.int64), 2)
        assert str(excinfo.value) == f"modality {modality}: non-finite feature at row {row}"

    def test_first_non_finite_modality_is_named(self):
        blocks = [np.zeros((4, 2)), np.zeros((4, 3))]
        blocks[0][3, 1] = blocks[1][0, 0] = np.nan
        with pytest.raises(DomainError, match="modality 0: non-finite feature at row 3"):
            Dataset(blocks, np.zeros(4, dtype=np.int64), 2)

    def test_integer_features_are_stored_as_float64(self):
        dataset = Dataset([np.arange(6).reshape(3, 2), [[1], [2], [3]]], [0, 1, 1], 2)
        assert [block.dtype for block in dataset.modalities] == [np.float64, np.float64]
        assert dataset.modalities[0].tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
        assert dataset.labels.tolist() == [0, 1, 1]

    def test_float64_blocks_are_kept_without_a_copy(self):
        block = np.zeros((2, 3))
        assert Dataset([block, block], np.array([0, 1]), 2).modalities[0] is block


class TestSyntheticSpec:
    def test_count_mismatch_rejected(self):
        with pytest.raises(SpecError):
            basic_spec(samples_per_class=(50,))

    def test_negative_separation_rejected(self):
        message = r"^data.synthetic.class_separation\[0\]: expected a finite value >= 0, got -1.0$"
        with pytest.raises(ConfigError, match=message):
            basic_spec(class_separation=(-1.0, 3.0))

    def test_single_class_rejected(self):
        with pytest.raises(ConfigError, match=r"^data.synthetic.num_classes: expected an int >= 2"):
            basic_spec(num_classes=1, samples_per_class=(10,))

    def test_from_json_scalar_broadcast(self):
        spec = SyntheticSpec.from_json_dict(
            {
                "num_classes": 3,
                "modality_dims": [4, 5],
                "samples_per_class": 20,
                "class_separation": 2.5,
                "noise_std": 1.5,
                "seed": 7,
            }
        )
        assert spec.samples_per_class == (20, 20, 20)
        assert spec.class_separation == (2.5, 2.5)
        assert spec.noise_std == (1.5, 1.5)

    # Before, an array reached the bound check whole and raised numpy's ambiguous-truth error.
    def test_array_fields_taken_as_their_lists(self):
        spec = basic_spec(
            num_classes=3,
            modality_dims=np.array([4, 3]),
            samples_per_class=np.array([5, 5, 5]),
            class_separation=np.array([3.0, 2.0]),
            noise_std=np.array([1.0, 0.5]),
        )
        assert spec == basic_spec(
            num_classes=3,
            samples_per_class=(5, 5, 5),
            class_separation=(3.0, 2.0),
            noise_std=(1.0, 0.5),
        )
        assert type(spec.samples_per_class[0]) is int and type(spec.noise_std[1]) is float

    def test_array_field_out_of_bounds_names_the_entry(self):
        message = r"^data.synthetic.samples_per_class\[1\]: expected an int >= 1, got 0$"
        with pytest.raises(ConfigError, match=message):
            basic_spec(samples_per_class=np.array([5, 0]))

    def test_numpy_scalars_taken_as_python_values(self):
        spec = basic_spec(
            num_classes=np.int64(2),
            samples_per_class=np.int32(5),
            class_separation=(np.float32(0.5), 3),
            seed=np.uint16(3),
        )
        assert spec == basic_spec(samples_per_class=(5, 5), class_separation=(0.5, 3.0), seed=3)
        assert [type(v) for v in (spec.num_classes, spec.seed, *spec.class_separation)] == [
            int, int, float, float
        ]

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"seed": 1.0}, r"data.synthetic.seed: expected int, got 1\.0$"),
            ({"samples_per_class": (5, 5.0)}, r"data.synthetic.samples_per_class\[1\]: expected "),
            ({"noise_std": "1"}, r"data.synthetic.noise_std: expected float \| list\[float\]"),
        ],
    )
    def test_wrong_kind_rejected(self, overrides, message):
        with pytest.raises(ConfigError, match=f"^{message}"):
            basic_spec(**overrides)


class TestGenerateSynthetic:
    def test_deterministic(self):
        a = generate_synthetic(basic_spec())
        b = generate_synthetic(basic_spec())
        for ma, mb in zip(a.modalities, b.modalities):
            assert ma.tobytes() == mb.tobytes()
        assert np.array_equal(a.labels, b.labels)

    def test_shapes_and_labels(self):
        spec = basic_spec(samples_per_class=(30, 70))
        dataset = generate_synthetic(spec)
        assert dataset.num_samples == 100
        assert dataset.modality_dims == (4, 3)
        assert dataset.class_counts() == [30, 70]

    def test_mean_separation_is_exact(self):
        spec = basic_spec(num_classes=4, samples_per_class=(5, 5, 5, 5), class_separation=(6.0, 2.0))
        for m, sep in enumerate(spec.class_separation):
            means = class_means(spec, m)
            dists = [
                np.linalg.norm(means[a] - means[b])
                for a in range(4)
                for b in range(a + 1, 4)
            ]
            assert min(dists) == pytest.approx(sep * spec.noise_std[m], rel=1e-12)

    def test_zero_separation_collapses_means(self):
        spec = basic_spec(class_separation=(0.0, 0.0))
        for m in range(2):
            assert not class_means(spec, m).any()

    def test_zero_separation_is_chance_level(self):
        spec = basic_spec(class_separation=(0.0, 0.0), samples_per_class=(200, 200))
        dataset = generate_synthetic(spec)
        train, test = split(dataset, 0.8, seed=0)
        for m in range(2):
            acc = nearest_mean_accuracy(train, test, m)
            assert 0.3 < acc < 0.7

    def test_strong_separation_nearest_mean_oracle(self):
        spec = basic_spec(
            class_separation=(6.0, 6.0), noise_std=(1.0, 1.0), samples_per_class=(200, 200)
        )
        dataset = generate_synthetic(spec)
        train, test = split(dataset, 0.8, seed=0)
        for m in range(2):
            assert nearest_mean_accuracy(train, test, m) > 0.99


class TestCsvRoundTrip:
    def test_write_load_identical(self, tmp_path):
        dataset = generate_synthetic(basic_spec(samples_per_class=(10, 10)))
        manifest = write_csv_dataset(dataset, tmp_path / "ds")
        loaded = load_csv_dataset(manifest)
        assert loaded.num_classes == dataset.num_classes
        assert np.array_equal(loaded.labels, dataset.labels)
        for a, b in zip(loaded.modalities, dataset.modalities):
            # values survive the 9-significant-digit serialization
            assert np.allclose(a, b, rtol=1e-8, atol=1e-12)

    def test_second_write_byte_identical(self, tmp_path):
        dataset = generate_synthetic(basic_spec(samples_per_class=(10, 10)))
        write_csv_dataset(dataset, tmp_path / "a")
        write_csv_dataset(dataset, tmp_path / "b")
        for name in ("manifest.json", "modality_0.csv", "modality_1.csv", "labels.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_write_load_write_stable(self, tmp_path):
        dataset = generate_synthetic(basic_spec(samples_per_class=(10, 10)))
        manifest = write_csv_dataset(dataset, tmp_path / "a")
        loaded = load_csv_dataset(manifest)
        write_csv_dataset(loaded, tmp_path / "b")
        for name in ("modality_0.csv", "modality_1.csv", "labels.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def fixture_dataset() -> Dataset:
    """The acceptance-fixture size: 4 classes x 150 rows, dims (6, 6, 6)."""
    return generate_synthetic(
        basic_spec(
            num_classes=4,
            modality_dims=(6, 6, 6),
            samples_per_class=(150,) * 4,
            class_separation=(6.0, 3.0, 2.5),
            noise_std=(1.0, 1.0, 1.0),
        )
    )


def extreme_dataset() -> Dataset:
    """Signed zeros, subnormals, near-overflow values and a dim-1 modality."""
    values = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308]
    values += [1e300, -1e300, 1.7976931348623157e308, 123456789.987654321, -1e-5, 0.1]
    return Dataset(
        modalities=[np.array(values).reshape(4, 3), np.array([[1e300], [-0.0], [5e-324], [7.0]])],
        labels=np.array([0, 1, 1, 0]),
        num_classes=2,
    )


class TestCsvWriter:
    @pytest.mark.parametrize("make", [fixture_dataset, extreme_dataset])
    def test_bytes_match_per_cell_formatter(self, tmp_path, make):
        dataset = make()
        write_csv_dataset(dataset, tmp_path)
        for name, text in reference_dataset_csv(dataset).items():
            assert (tmp_path / name).read_bytes() == text.encode("ascii"), name


def read_outcome(read, path, dim):
    """The array bits a modality reader returns, or the line and message of its ParseError."""
    try:
        block = read(path, dim)
    except ParseError as exc:
        return exc.line, str(exc)
    return block.shape, block.dtype.str, block.tobytes()


class TestModalityCsvReader:
    """The block reader against the line-wise oracle: the same array bits or the same error."""

    @pytest.mark.parametrize(
        "text, dim, error_line",
        [
            pytest.param("1,2\n\n3,4\n\n", 2, None, id="blank-lines"),
            pytest.param("1,2\n   \n\t\n3,4\n", 2, None, id="whitespace-only-lines"),
            pytest.param("1.5,2\r\n3,4e-3\r\n", 2, None, id="crlf"),
            pytest.param(" 1 ,\t2\n3 , 4 \n", 2, None, id="whitespace-around-cells"),
            pytest.param("1_0,2\n3,4\n", 2, None, id="underscore-cell"),
            pytest.param("1,2\n3\x1c,4\n", 2, 2, id="whitespace-only-loadtxt-strips"),
            pytest.param("", 3, None, id="empty-file"),
            pytest.param("\n\n", 1, None, id="only-blank-lines"),
            pytest.param("1\n-2.5\n3e2\n", 1, None, id="dim-1"),
            pytest.param("0.1,0.2,0.3", 3, None, id="one-row-no-final-newline"),
            pytest.param("1,2\n3,4\n5\n", 2, 3, id="column-count"),
            pytest.param("1,2,3\n", 2, 1, id="one-row-column-count"),
            pytest.param("1,2\n3,x\n", 2, 2, id="non-numeric"),
            pytest.param("1,2\n3,4\nnan,1\n", 2, 3, id="nan"),
            pytest.param("1,2\n-inf,1\n", 2, 2, id="inf"),
            pytest.param("1,2\n1e400,1\n", 2, 2, id="overflow-to-inf"),
            pytest.param("1,2\n3\n4,x\n", 2, 2, id="column-count-before-non-numeric"),
            pytest.param("1,2\nx,4\n5\n", 2, 2, id="non-numeric-before-column-count"),
        ],
    )
    def test_matches_line_wise_oracle(self, tmp_path, text, dim, error_line):
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode("ascii"))
        outcome = read_outcome(data._load_modality_csv, path, dim)
        assert outcome == read_outcome(reference_load_modality_csv, path, dim)
        assert outcome[0] == error_line if error_line else len(outcome) == 3

    def test_written_file_skips_the_line_wise_reader(self, tmp_path, monkeypatch):
        dataset = fixture_dataset()
        write_csv_dataset(dataset, tmp_path)

        def unexpected(path, raw, dim):
            raise AssertionError(f"{path} went to the line-wise reader")

        monkeypatch.setattr(data, "_read_modality_lines", unexpected)
        for m in range(dataset.num_modalities):
            path = tmp_path / f"modality_{m}.csv"
            block = data._load_modality_csv(path, 6)
            assert block.tobytes() == reference_load_modality_csv(path, 6).tobytes()

    def test_fuzzed_cells_match_oracle(self, tmp_path):
        rng = random.Random(2024)
        # Number characters, the words of nan/inf, and whitespace only one parser strips.
        alphabet = "0123456789.eE+-_ \tinfaINFAN\x0b\x0c\x1c\x1f#"
        path = tmp_path / "m.csv"
        for _ in range(400):
            dim = rng.randint(1, 3)
            lines = []
            for _ in range(rng.randint(0, 4)):
                cells = [
                    "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 4)))
                    if rng.random() < 0.5
                    else repr(rng.uniform(-1e3, 1e3))
                    for _ in range(dim if rng.random() < 0.9 else rng.randint(1, 4))
                ]
                lines.append(",".join(cells) + rng.choice(["\n", "\r\n", "\n\n"]))
            path.write_bytes("".join(lines).encode("ascii"))
            assert read_outcome(data._load_modality_csv, path, dim) == read_outcome(
                reference_load_modality_csv, path, dim
            ), path.read_bytes()

    def test_fuzzed_numbers_are_bit_identical(self, tmp_path):
        rng = random.Random(7)
        path = tmp_path / "m.csv"
        lines = []
        for _ in range(300):
            cells = []
            for _ in range(6):
                digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 25)))
                sign = rng.choice(["", "-", "+"])
                exponent = rng.randint(-320, 307)
                cells.append(f"{sign}{digits[0]}.{digits[1:]}e{exponent}")
            lines.append(",".join(cells) + "\n")
        path.write_text("".join(lines))
        outcome = read_outcome(data._load_modality_csv, path, 6)
        assert outcome[0] == (300, 6)
        assert outcome == read_outcome(reference_load_modality_csv, path, 6)


class TestLabelsReader:
    """The one-call labels reader against the line-wise one: the same labels or the same error."""

    @pytest.mark.parametrize(
        "text",
        [
            "0\n1\n1\n0\n",
            "0\r\n1\r\n\r\n1",
            "\n\n007\n1\n\n",
            "",
            "0\n2\n1\n",  # out of range for 2 classes
            "0\n99999999999999999999\n",  # overflows int64
            "0\n 1\n",  # whitespace in a line: the line reader decides
            "0\n1 1\n",
            "0\n+1\n",
        ],
    )
    def test_same_outcome_as_the_line_reader(self, tmp_path, text):
        path = tmp_path / "labels.csv"
        raw = text.encode("ascii")
        path.write_bytes(raw)
        outcomes = []
        readers = (lambda: data._load_labels(path, 2), lambda: data._read_label_lines(path, raw, 2))
        for read in readers:
            try:
                labels = read()
            except ParseError as exc:
                outcomes.append((exc.line, str(exc)))
            else:
                outcomes.append((labels.dtype.str, labels.tolist()))
        assert outcomes[0] == outcomes[1]


def write_manifest(tmp_path, modalities, labels, num_classes=2):
    entries = []
    for m, rows in enumerate(modalities):
        name = f"m{m}.csv"
        (tmp_path / name).write_text("\n".join(",".join(r) for r in rows) + "\n")
        entries.append({"path": name, "dim": len(rows[0])})
    (tmp_path / "labels.csv").write_text("\n".join(labels) + "\n")
    manifest = {"num_classes": num_classes, "modalities": entries, "labels": "labels.csv"}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


class TestLoadCsvErrors:
    def test_minimal_load(self, tmp_path):
        manifest = write_manifest(
            tmp_path,
            [[["1.0", "2.0"]] * 3, [["0.5"]] * 3],
            ["0", "1", "0"],
        )
        dataset = load_csv_dataset(manifest)
        assert dataset.num_samples == 3
        assert dataset.modality_dims == (2, 1)

    def test_label_out_of_range_names_line(self, tmp_path):
        manifest = write_manifest(
            tmp_path,
            [[["1.0", "2.0"]] * 3, [["0.5"]] * 3],
            ["0", "2", "0"],
        )
        with pytest.raises(ParseError) as excinfo:
            load_csv_dataset(manifest)
        assert "labels.csv" in str(excinfo.value)
        assert excinfo.value.line == 2

    def test_row_count_mismatch(self, tmp_path):
        manifest = write_manifest(
            tmp_path,
            [[["1.0", "2.0"]] * 4, [["0.5"]] * 3],
            ["0", "1", "0"],
        )
        with pytest.raises(ParseError) as excinfo:
            load_csv_dataset(manifest)
        assert "row counts disagree" in str(excinfo.value)

    def test_non_numeric_cell_names_file_and_line(self, tmp_path):
        manifest = write_manifest(
            tmp_path,
            [[["1.0", "2.0"], ["1.0", "oops"], ["0.0", "0.0"]], [["0.5"]] * 3],
            ["0", "1", "0"],
        )
        with pytest.raises(ParseError) as excinfo:
            load_csv_dataset(manifest)
        assert "m0.csv" in str(excinfo.value)
        assert excinfo.value.line == 2

    def test_dim_mismatch_names_line(self, tmp_path):
        manifest = write_manifest(
            tmp_path,
            [[["1.0", "2.0"], ["1.0"], ["0.0", "0.0"]], [["0.5"]] * 3],
            ["0", "1", "0"],
        )
        with pytest.raises(ParseError) as excinfo:
            load_csv_dataset(manifest)
        assert excinfo.value.line == 2

    def test_missing_manifest_key(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"num_classes": 2}))
        with pytest.raises(ParseError):
            load_csv_dataset(path)


def test_fingerprint_tells_apart_values_labels_row_order_and_shapes():
    flat, labels = np.random.default_rng(0).standard_normal(30), np.array([0, 1, 1, 0, 1, 0])
    dataset = Dataset([flat[:12].reshape(6, 2), flat[12:].reshape(6, 3)], labels, 2)
    fp = data.fingerprint(dataset)
    assert fp["rows"] == 6 and re.fullmatch("[0-9a-f]{64}", fp["sha256"])
    assert data.fingerprint(dataset.take(range(6))) == fp
    nudged, relabeled = dataset.take(range(6)), dataset.take(range(6))
    nudged.modalities[1][5, 2] = np.nextafter(flat[-1], np.inf)
    relabeled.labels[0] = 1
    reordered = dataset.take([1, 0, 2, 3, 4, 5])
    # The same bytes in the same order, cut into blocks of other widths.
    recut = Dataset([flat[:18].reshape(6, 3), flat[18:].reshape(6, 2)], labels, 2)
    for other in (nudged, relabeled, reordered, recut):
        assert data.fingerprint(other)["sha256"] != fp["sha256"]


class TestSplit:
    def test_80_20_balanced(self):
        dataset = generate_synthetic(basic_spec(samples_per_class=(50, 50)))
        train, test = split(dataset, 0.8, seed=0)
        assert train.num_samples == 80 and test.num_samples == 20
        assert train.class_counts() == [40, 40]
        assert test.class_counts() == [10, 10]

    def test_deterministic(self):
        dataset = generate_synthetic(basic_spec())
        a_train, a_test = split(dataset, 0.8, seed=5)
        b_train, b_test = split(dataset, 0.8, seed=5)
        assert np.array_equal(a_train.labels, b_train.labels)
        assert a_train.modalities[0].tobytes() == b_train.modalities[0].tobytes()
        assert a_test.modalities[1].tobytes() == b_test.modalities[1].tobytes()

    def test_union_is_original_multiset(self):
        dataset = generate_synthetic(basic_spec(samples_per_class=(13, 17)))
        train, test = split(dataset, 0.7, seed=3)
        assert train.num_samples + test.num_samples == dataset.num_samples
        for m in range(dataset.num_modalities):
            combined = np.concatenate([train.modalities[m], test.modalities[m]])
            original = dataset.modalities[m]
            order_a = np.lexsort(combined.T)
            order_b = np.lexsort(original.T)
            assert np.array_equal(combined[order_a], original[order_b])

    def test_small_class_rejected(self):
        dataset = Dataset(
            modalities=[np.zeros((3, 2)), np.zeros((3, 2))],
            labels=np.array([0, 0, 1]),
            num_classes=2,
        )
        with pytest.raises(SplitError):
            split(dataset, 0.5, seed=0)

    def test_fraction_bounds(self):
        dataset = generate_synthetic(basic_spec())
        with pytest.raises(ConfigError, match=r"^train_fraction: expected a value in \(0, 1\)"):
            split(dataset, 0.0, seed=0)
        with pytest.raises(ConfigError, match=r"^train_fraction: expected a value in \(0, 1\)"):
            split(dataset, 1.0, seed=0)


    @pytest.mark.parametrize("fraction", [0.05, 0.5, 0.7, 0.95])
    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_same_samples_as_the_list_reference(self, fraction, seed):
        dataset = generate_synthetic(basic_spec(num_classes=3, samples_per_class=(13, 2, 30)))
        want_sides = reference_split(dataset, fraction, seed)
        for got, want in zip(split(dataset, fraction, seed), want_sides):
            assert got.labels.tobytes() == want.labels.tobytes()
            for a, b in zip(got.modalities, want.modalities):
                assert a.tobytes() == b.tobytes()


class TestSplitValidation:
    def test_carve_out_partitions_the_train_split_by_class(self):
        train = generate_synthetic(basic_spec(samples_per_class=(40, 21)))
        rest, val = data.split_validation(train, 0.25, seed=3)
        assert val.class_counts() == [10, 5] and rest.class_counts() == [30, 16]
        for m in range(train.num_modalities):
            combined = np.concatenate([rest.modalities[m], val.modalities[m]])
            assert sorted(map(tuple, combined)) == sorted(map(tuple, train.modalities[m]))

    def test_keyed_apart_from_the_train_test_split(self):
        train = generate_synthetic(basic_spec(samples_per_class=(40, 40)))
        _, val = data.split_validation(train, 0.25, seed=3)
        _, test = split(train, 0.75, seed=3)
        again = data.split_validation(train, 0.25, seed=3)[1]
        assert val.modalities[0].tobytes() == again.modalities[0].tobytes()
        assert val.modalities[0].tobytes() != test.modalities[0].tobytes()

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5])
    def test_fraction_bounds_name_val_fraction(self, fraction):
        train = generate_synthetic(basic_spec())
        with pytest.raises(ConfigError, match=r"^val_fraction: expected a value in \(0, 1\)"):
            data.split_validation(train, fraction, seed=0)


class TestCorruptGaussian:
    def test_zero_epsilon_bit_identical(self):
        dataset = generate_synthetic(basic_spec())
        out = corrupt_gaussian(dataset, {0}, epsilon=0.0, seed=1)
        for a, b in zip(out.modalities, dataset.modalities):
            assert a.tobytes() == b.tobytes()

    def test_empty_targets_bit_identical(self):
        dataset = generate_synthetic(basic_spec())
        out = corrupt_gaussian(dataset, set(), epsilon=0.5, seed=1)
        for a, b in zip(out.modalities, dataset.modalities):
            assert a.tobytes() == b.tobytes()

    def test_untargeted_modality_untouched_and_labels_kept(self):
        dataset = generate_synthetic(basic_spec())
        out = corrupt_gaussian(dataset, {1}, epsilon=0.5, seed=1)
        assert out.modalities[0].tobytes() == dataset.modalities[0].tobytes()
        noisy = corrupt_block(dataset.modalities[1], 0.5, seed=1, modality=1)
        assert out.modalities[1].tobytes() == noisy.tobytes()
        assert not np.array_equal(out.modalities[1], dataset.modalities[1])
        assert np.array_equal(out.labels, dataset.labels)

    def test_noise_variance_matches_epsilon(self):
        block = np.zeros((200, 100))
        noise = corrupt_block(block, 0.25, seed=2, modality=0)
        assert noise.size == 20_000
        assert abs(noise.var() - 0.25) / 0.25 < 0.05

    def test_epsilon_is_the_noise_variance(self):
        # The noise is the square root of epsilon times the (seed, modality) stream's normals.
        normals = np.random.default_rng([0, data._CORRUPT_STREAM, 1]).standard_normal((3, 4))
        noise = corrupt_block(np.zeros((3, 4)), 0.25, seed=0, modality=1)
        assert noise.tobytes() == (0.5 * normals).tobytes()

    def test_deterministic_per_seed_and_modality(self):
        block = generate_synthetic(basic_spec()).modalities[0]
        a = corrupt_block(block, 0.3, seed=9, modality=0)
        assert a.tobytes() == corrupt_block(block, 0.3, seed=9, modality=0).tobytes()
        assert not np.array_equal(a, corrupt_block(block, 0.3, seed=9, modality=1))
        assert not np.array_equal(a, corrupt_block(block, 0.3, seed=8, modality=0))

    def test_invalid_target_rejected(self):
        dataset = generate_synthetic(basic_spec())
        with pytest.raises(SpecError):
            corrupt_gaussian(dataset, {7}, epsilon=0.1, seed=0)


class TestStandardize:
    def test_train_split_standardized(self):
        dataset = generate_synthetic(basic_spec(class_separation=(5.0, 5.0)))
        stats = standardize_fit(dataset)
        out = standardize_apply(dataset, stats)
        for block in out.modalities:
            assert np.max(np.abs(block.mean(axis=0))) < 1e-12
            assert np.max(np.abs(block.std(axis=0) - 1.0)) < 1e-12

    def test_constant_feature_safe(self):
        dataset = Dataset(
            modalities=[np.ones((5, 2)), np.zeros((5, 3))],
            labels=np.array([0, 0, 1, 1, 0]),
            num_classes=2,
        )
        out = standardize_apply(dataset, standardize_fit(dataset))
        assert np.isfinite(out.modalities[0]).all()
        assert not out.modalities[0].any()

    @pytest.mark.parametrize(
        "column, message",
        [
            # Finite values whose squared deviations overflow: the std is inf.
            ([1e308, -1e308, 0.0, 1.0, 2.0], "modality 1: feature 2 cannot be standardized"),
            # The sum overflows: the mean is inf.
            ([1e308, 1e308, 1e308, 1.0, 2.0], "modality 1: feature 2 cannot be standardized"),
        ],
    )
    def test_overflowing_feature_named_without_a_warning(self, column, message):
        # Without the check the feature's std was inf and standardize_apply zeroed it.
        block = np.zeros((5, 3))
        block[:, 2] = column
        dataset = Dataset(
            modalities=[np.ones((5, 2)), block], labels=np.array([0, 0, 1, 1, 0]), num_classes=2
        )
        with pytest.raises(DomainError, match=message):
            standardize_fit(dataset)  # filterwarnings=error turns any numpy warning into a failure

    def test_overflowing_test_value_named_with_its_raw_value(self):
        # Before, numpy warned about the overflow and the Dataset check then blamed
        # a non-finite feature, although the raw value is finite.
        column = np.array([[0.0], [2e-11], [0.0], [2e-11]])  # std 1e-11
        labels = np.array([0, 1, 0, 1])
        train = Dataset(modalities=[np.ones((4, 2)), column], labels=labels, num_classes=2)
        test = Dataset(
            modalities=[np.ones((4, 2)), np.array([[0.0], [1e-11], [1e300], [0.0]])],
            labels=labels,
            num_classes=2,
        )
        stats = standardize_fit(train)
        message = "modality 1: feature 0 at row 2 cannot be standardized (value 1e+300, training"
        with pytest.raises(DomainError, match=re.escape(message)):
            standardize_apply(test, stats)  # filterwarnings=error makes a numpy warning fail

    def test_empty_dataset_rejected_without_a_warning(self):
        # Without the check numpy warned about an empty mean and the stats came out NaN.
        dataset = generate_synthetic(basic_spec()).take([])
        with pytest.raises(EmptyInputError, match="cannot standardize on an empty dataset"):
            standardize_fit(dataset)
