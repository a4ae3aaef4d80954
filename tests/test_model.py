from __future__ import annotations

import json
import math

import numpy as np
import pytest

from rankcal.errors import CapabilityError, ConfigError, DimensionError, StateError
from rankcal.model import (
    MAX_PARAM_BYTES,
    ClassifierParams,
    ModelSpec,
    backward_masks,
    forward_core,
    init_params,
    load_checkpoint,
    mask_names,
    mask_weights,
    param_shapes,
    save_checkpoint,
)
from rankcal.numerics import ALLOCATE, nll_loss

from gradcheck import grad_check
from reference import format_mask, nll_logit_grads, parse_mask, predicted_classes, reference_probs
from reference import row_major_probs

SPEC = ModelSpec(modality_dims=(3, 4, 2), hidden_dim=6, latent_dim=4, num_classes=3)
CHECKPOINT_SPECS = [
    SPEC,
    ModelSpec((1, 7, 2, 5), hidden_dim=1, latent_dim=9, num_classes=2),
    ModelSpec((5, 5), hidden_dim=3, latent_dim=1, num_classes=6),
]


def random_features(spec: ModelSpec, seed: int, rows: int = 1) -> list[np.ndarray]:
    """One (rows, d_m) block per modality."""
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((rows, d)) for d in spec.modality_dims]


def zero_params(spec: ModelSpec) -> ClassifierParams:
    params = init_params(spec, seed=0)
    params.flat[:] = 0.0
    return params


def run(params, feats, *masks):
    """forward_core on the given masks (lists of modality indices), shared by every row."""
    presence = np.zeros((len(masks), len(params.w1)), dtype=bool)
    for k, mask in enumerate(masks):
        presence[k, mask] = True
    return forward_core(params, feats, mask_weights(presence))


def gradients(params, fwd, logit_grads, out=None) -> ClassifierParams:
    """backward_masks into `out`, or into a new buffer, allocating every temporary."""
    out = ClassifierParams(params.spec) if out is None else out
    return backward_masks(params, fwd, logit_grads, out, ALLOCATE)


def encoder(params, m: int) -> tuple[np.ndarray, ...]:
    """Modality m's (w1, b1, w2, b2) views."""
    return params.w1[m], params.b1[m], params.w2[m], params.b2[m]


def identity_passthrough_params() -> ClassifierParams:
    """Two modalities of dim 2; encoders and head are identity maps."""
    params = ClassifierParams(ModelSpec((2, 2), hidden_dim=2, latent_dim=2, num_classes=2))
    for w in (*params.w1, *params.w2, params.head_w):
        w[...] = np.eye(2)
    return params


class TestModelSpec:
    def test_rejects_single_modality(self):
        with pytest.raises(ConfigError, match=r"^model.modality_dims: expected 2 to 63 entries"):
            ModelSpec(modality_dims=(3,), hidden_dim=4, latent_dim=2, num_classes=2)

    def test_rejects_single_class(self):
        with pytest.raises(ConfigError, match=r"^model.num_classes: expected an int >= 2, got 1$"):
            ModelSpec(modality_dims=(3, 3), hidden_dim=4, latent_dim=2, num_classes=1)

    def test_rejects_zero_dim(self):
        with pytest.raises(ConfigError, match=r"^model.modality_dims\[1\]: expected an int >= 1"):
            ModelSpec(modality_dims=(3, 0), hidden_dim=4, latent_dim=2, num_classes=2)

    def test_json_round_trip(self):
        assert ModelSpec.from_json_dict(SPEC.to_json_dict()) == SPEC

    # Before, an array reached the bound check whole and raised numpy's ambiguous-truth error.
    def test_array_dims_taken_as_their_list(self):
        spec = ModelSpec(np.array([3, 2]), 4, 2, 2)
        assert spec.modality_dims == (3, 2)
        assert [type(d) for d in spec.modality_dims] == [int, int]
        assert spec.to_json_dict()["modality_dims"] == [3, 2]

    def test_array_dims_out_of_bounds_name_the_entry(self):
        message = r"^model.modality_dims\[0\]: expected an int >= 1, got 0$"
        with pytest.raises(ConfigError, match=message):
            ModelSpec(np.array([0, 2]), 4, 2, 2)

    # Before, the spec kept the np.int64 and save_checkpoint raised a bare TypeError.
    def test_numpy_scalars_taken_as_python_ints(self, tmp_path):
        spec = ModelSpec((np.int32(3), 2), np.int64(4), np.uint8(2), 2)
        assert spec == ModelSpec((3, 2), 4, 2, 2)
        assert {type(value) for value in spec.to_json_dict().values()} == {list, int}
        save_checkpoint(tmp_path / "model.ckpt", init_params(spec, 0))
        assert load_checkpoint(tmp_path / "model.ckpt")[0] == spec

    @pytest.mark.parametrize(
        "fields, message",
        [
            (((3, 2), 4.0, 2, 2), "model.hidden_dim: expected int, got 4.0"),
            (((3, 2.5), 4, 2, 2), r"model.modality_dims\[1\]: expected int, got 2.5"),
            (((3, 2), 4, "2", 2), "model.latent_dim: expected int, got '2'"),
            (((3, 2), 4, 2, True), "model.num_classes: expected int, got True"),
        ],
    )
    def test_wrong_kind_rejected(self, fields, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            ModelSpec(*fields)


class TestMaskNames:
    def test_format_and_parse(self):
        assert mask_names([0b101]) == ["0+2"]
        assert parse_mask("0+2") == 0b101

    def test_every_code_below_64_matches_the_reference(self):
        codes = np.arange(1 << 6)
        assert mask_names(codes) == [format_mask(c) for c in range(1 << 6)]

    # Before, the names came from a table of all 2^M codes, which at M = 40 would not finish.
    def test_forty_modalities_name_only_the_given_codes(self):
        codes = [(1 << 40) - 1, 1 << 39, 0b101, (1 << 40) - 1]
        assert mask_names(np.array(codes)) == [format_mask(c) for c in codes]
        assert mask_names(codes)[0] == "+".join(map(str, range(40)))


class TestInitParams:
    def test_deterministic(self):
        a = init_params(SPEC, seed=7)
        b = init_params(SPEC, seed=7)
        assert a.flat.tobytes() == b.flat.tobytes()

    def test_seeds_differ(self):
        a = init_params(SPEC, seed=7)
        b = init_params(SPEC, seed=8)
        assert not np.array_equal(a.flat, b.flat)

    def test_biases_zero(self):
        params = init_params(SPEC, seed=0)
        assert not params.b1.any() and not params.b2.any() and not params.head_b.any()

    def test_xavier_bounds(self):
        params = init_params(SPEC, seed=0)
        for m, w1 in enumerate(params.w1):
            limit = np.sqrt(6.0 / (SPEC.modality_dims[m] + SPEC.hidden_dim))
            assert np.all(np.abs(w1) <= limit)
        limit = np.sqrt(6.0 / (SPEC.latent_dim + SPEC.num_classes))
        assert np.all(np.abs(params.head_w) <= limit)

    def test_params_carry_their_spec(self):
        assert init_params(SPEC, seed=0).spec is SPEC


def test_init_params_over_the_byte_limit_fails_before_allocating():
    spec = ModelSpec(modality_dims=(4, 3), hidden_dim=10**12, latent_dim=4, num_classes=2)
    with pytest.raises(CapabilityError, match=f"over the limit of {MAX_PARAM_BYTES}"):
        init_params(spec, seed=0)


def stacked_offsets(spec: ModelSpec) -> dict[str, int]:
    """Start of each stacked block in `flat`: every w1, then b1, w2, b2, head_w, head_b."""
    num, hidden, latent = spec.num_modalities, spec.hidden_dim, spec.latent_dim
    sizes = {"w1": hidden * sum(spec.modality_dims), "b1": num * hidden}
    sizes |= {"w2": num * hidden * latent, "b2": num * latent}
    sizes |= {"head_w": latent * spec.num_classes, "head_b": spec.num_classes}
    starts = np.cumsum([0, *sizes.values()])
    return dict(zip(sizes, starts.tolist()))


class TestClassifierParams:
    def test_named_arrays_are_views_of_flat_at_the_stacked_offsets(self):
        params = init_params(SPEC, seed=2)
        start = stacked_offsets(SPEC)
        hidden, latent = SPEC.hidden_dim, SPEC.latent_dim
        params.flat[:] = np.arange(params.flat.size)
        w1_start = start["w1"]
        for m, d in enumerate(SPEC.modality_dims):
            assert np.array_equal(params.w1[m].ravel(), np.arange(w1_start, w1_start + d * hidden))
            w1_start += d * hidden
        for name, shape in [("b1", (3, hidden)), ("w2", (3, hidden, latent)), ("b2", (3, latent))]:
            stacked = getattr(params, name)
            assert stacked.shape == shape and stacked.base is params.flat
            offsets = np.arange(start[name], start[name] + stacked.size)
            assert np.array_equal(stacked.ravel(), offsets)
        declared = list(params.arrays())
        for m in range(3):  # arrays() yields each modality's slices of the stacked blocks
            assert declared[4 * m] is params.w1[m]
            for k, name in enumerate(("b1", "w2", "b2"), start=1):
                assert np.shares_memory(declared[4 * m + k], getattr(params, name)[m])
        assert params.head_w[0, 0] == start["head_w"] and params.head_b[-1] == params.flat.size - 1
        declared[4 * 1 + 3][...] = -5.0  # modality 1's b2
        b2_start = start["b2"] + latent
        assert np.all(params.flat[b2_start : b2_start + latent] == -5.0)
        assert np.count_nonzero(params.flat == -5.0) == latent

    @pytest.mark.parametrize(
        "spec",
        [SPEC, ModelSpec((1, 7, 2, 5), hidden_dim=1, latent_dim=9, num_classes=2)],
    )
    def test_without_flat_every_parameter_is_zero(self, spec):
        params = ClassifierParams(spec)
        assert params.spec is spec and params.flat.dtype == np.float64
        assert params.flat.size == sum(map(math.prod, param_shapes(spec)))
        assert not params.flat.any()

    @pytest.mark.parametrize("spec", CHECKPOINT_SPECS)
    def test_views_tile_flat_in_param_shapes_order(self, spec):
        params = ClassifierParams(spec)
        views = [*params.w1, params.b1, params.w2, params.b2, params.head_w, params.head_b]
        assert [v.shape for v in views] == param_shapes(spec)
        start = params.flat.ctypes.data
        for view in views:  # each view begins where the one before it ends: no gap, no overlap
            assert view.base is params.flat and view.flags.c_contiguous
            assert view.ctypes.data == start
            start += view.nbytes
        assert start == params.flat.ctypes.data + params.flat.nbytes

    def test_given_flat_is_viewed_not_copied(self):
        flat = np.arange(init_params(SPEC, seed=0).flat.size, dtype=np.float64)
        params = ClassifierParams(SPEC, flat)
        assert params.flat is flat
        assert all(np.shares_memory(a, flat) for a in params.arrays())

    @pytest.mark.parametrize(
        "flat",
        [np.zeros(3), np.zeros(172), np.zeros((1, 171)), np.zeros(171, dtype=np.float32)],
    )
    def test_flat_of_another_size_or_dtype_rejected(self, flat):
        # SPEC has 171 parameters
        with pytest.raises(DimensionError, match=r"must be float64\(171,\)"):
            ClassifierParams(SPEC, flat)


class TestForward:
    def test_fused_latents_hand_example(self):
        params = identity_passthrough_params()
        feats = [np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]])]
        fwd = run(params, feats, [0, 1])
        assert np.array_equal(fwd.fused, [[[2.0, 3.0]]])

    def test_mean_of_equal_latents(self):
        params = identity_passthrough_params()
        feats = [np.array([[1.5, 0.5]]), np.array([[1.5, 0.5]])]
        fwd = run(params, feats, [0, 1])
        assert np.array_equal(fwd.fused, [[[1.5, 0.5]]])

    def test_singleton_mask_is_that_latent(self):
        params = identity_passthrough_params()
        feats = [np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]])]
        fwd = run(params, feats, [1], [0])
        assert np.array_equal(fwd.fused, [[[3.0, 4.0], [1.0, 2.0]]])

    def test_deterministic_bit_identical(self):
        params = init_params(SPEC, seed=1)
        feats = random_features(SPEC, 2, rows=5)
        mask = [0, 2]
        first, second = (row_major_probs(run(params, feats, mask)) for _ in range(2))
        assert first.tobytes() == second.tobytes()

    def test_mask_order_irrelevant(self):
        params = init_params(SPEC, seed=1)
        feats = random_features(SPEC, 2, rows=5)
        a = run(params, feats, [2, 0, 1])
        b = run(params, feats, [1, 2, 0])
        assert row_major_probs(a).tobytes() == row_major_probs(b).tobytes()

    def test_unused_modality_parameters_never_reach_probs(self):
        # every modality is encoded, but a zero fusion weight adds exactly zero
        # to the fused latent, whatever finite latent the unused encoder gives
        params = init_params(SPEC, seed=1)
        feats = random_features(SPEC, 2, rows=5)
        masks = ([0, 2], [2])
        before = row_major_probs(run(params, feats, *masks))
        rng = np.random.default_rng(3)
        for a in encoder(params, 1):
            a += 1e3 * rng.standard_normal(a.shape)
        after = run(params, feats, *masks)
        assert after.hidden[1].any()
        assert row_major_probs(after).tobytes() == before.tobytes()

    def test_per_row_masks_match_per_sample_reference(self):
        # each row under its own masks, against the per-sample oracle
        params = init_params(SPEC, seed=3)
        feats = random_features(SPEC, 4, rows=6)
        rng = np.random.default_rng(5)
        presence = rng.random((6, 4, 3)) < 0.6
        presence[..., 0] |= ~presence.any(axis=-1)
        probs = row_major_probs(forward_core(params, feats, mask_weights(presence)))
        for b, k in np.ndindex(6, 4):
            row = [x[b] for x in feats]
            expected = reference_probs(params, row, np.flatnonzero(presence[b, k]))
            assert np.allclose(probs[b, k], expected, rtol=0, atol=1e-15)


class TestClassMajorLayout:
    """forward_core's exponentials are C-contiguous (C, B*K); its sums are (B, K).

    An F-ordered result holds the same bits, so only the layout shows the difference.
    """

    @pytest.mark.parametrize("per_row", [False, True])
    def test_exp_is_c_contiguous_class_major(self, per_row):
        params = init_params(SPEC, seed=2)
        feats = random_features(SPEC, 1, rows=5)
        presence = np.random.default_rng(3).random((5, 4, 3) if per_row else (4, 3)) < 0.6
        presence[..., 0] |= ~presence.any(axis=-1)
        fwd = forward_core(params, feats, mask_weights(presence))
        assert fwd.fused.shape == (5, 4, SPEC.latent_dim)
        assert fwd.exp.shape == (SPEC.num_classes, 5 * 4) and fwd.exp.flags.c_contiguous
        assert fwd.sums.shape == (5, 4)


class TestConfidence:
    def test_zero_params_uniform_tie_break(self):
        fwd = run(zero_params(SPEC), random_features(SPEC, 3), [0, 1, 2])
        assert predicted_classes(fwd)[0, 0] == 0
        assert abs(fwd.confidence[0, 0] - 1.0 / SPEC.num_classes) < 1e-15

    def test_head_bias_sets_probs(self):
        params = zero_params(SPEC)
        params.head_b[...] = np.log([0.7, 0.2, 0.1])
        fwd = run(params, random_features(SPEC, 3), [0, 1, 2])
        assert predicted_classes(fwd)[0, 0] == 0
        assert abs(fwd.confidence[0, 0] - 0.7) < 1e-12

    def test_exact_tie_goes_to_lowest_index(self):
        spec = ModelSpec(modality_dims=(2, 2), hidden_dim=2, latent_dim=2, num_classes=2)
        fwd = run(zero_params(spec), [np.ones((1, 2)), np.ones((1, 2))], [0, 1])
        assert predicted_classes(fwd)[0, 0] == 0 and fwd.confidence[0, 0] == 0.5

    @pytest.mark.parametrize("per_row", [False, True])
    @pytest.mark.parametrize("head_scale", [1.0, 60.0])
    def test_confidence_is_the_largest_probability_bit_for_bit(self, per_row, head_scale):
        # 1.0 / sums against the class-wise max of the divided-out probabilities
        params = init_params(SPEC, seed=2)
        params.head_w *= head_scale  # large logits saturate some confidences at 1.0
        feats = random_features(SPEC, 3, rows=9)
        presence = (np.arange(1, 8)[:, None] >> np.arange(3)) & 1 > 0  # every nonempty mask
        if per_row:  # (B, K, M): each row its own masks
            presence = np.random.default_rng(4).random((9, 5, 3)) < 0.6
            presence[..., 0] |= ~presence.any(axis=-1)
        fwd = forward_core(params, feats, mask_weights(presence))
        probs = row_major_probs(fwd)
        assert fwd.confidence.shape == probs.shape[:-1]
        assert fwd.confidence.tobytes() == probs.max(axis=-1).tobytes()

    def test_confidence_bounds(self):
        for seed in range(10):
            params = init_params(SPEC, seed=seed)
            conf = run(params, random_features(SPEC, seed, rows=4), [0, 1, 2]).confidence
            assert np.all(1.0 / SPEC.num_classes <= conf) and np.all(conf < 1.0)


class TestBackward:
    def test_absent_modality_zero_grads(self):
        params = init_params(SPEC, seed=4)
        fwd = run(params, random_features(SPEC, 5, rows=3), [0, 2])
        grads = gradients(params, fwd, nll_logit_grads(fwd, 1))
        for a in encoder(grads, 1):
            assert not a.any() and not np.signbit(a).any()  # +0.0, not -0.0
        assert grads.w1[0].any()

    def test_singleton_mask_full_upstream(self):
        # With |mask| = 1 the fused latent is the encoder latent itself, so
        # the encoder must see the undivided upstream gradient.
        params = init_params(SPEC, seed=4)
        fwd = run(params, random_features(SPEC, 5), [1])
        g = nll_logit_grads(fwd, 0)
        grads = gradients(params, fwd, g)
        d_fused = g.T @ params.head_w.T
        d_w2_expected = fwd.hidden[1].T @ d_fused
        assert np.allclose(grads.w2[1], d_w2_expected, atol=1e-15)

    def test_reused_buffer_matches_fresh_buffer(self):
        # The first call fills every encoder's gradients; the second uses no
        # modality 1, whose stale gradients must be zeroed, not kept.
        params = init_params(SPEC, seed=4)
        feats = random_features(SPEC, 5, rows=3)
        out = ClassifierParams(params.spec)
        full = run(params, feats, [0, 1, 2], [1])
        gradients(params, full, nll_logit_grads(full, 1), out)
        assert out.w1[1].any() and out.b2[1].any()
        partial = run(params, feats, [0, 2], [2])
        g = nll_logit_grads(partial, 1)
        assert gradients(params, partial, g, out) is out
        assert out.flat.tobytes() == gradients(params, partial, g).flat.tobytes()
        assert not any(a.any() for a in encoder(out, 1))

    @pytest.mark.parametrize("mask_indices", [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)])
    def test_grad_check_every_mask_size(self, mask_indices):
        params = init_params(SPEC, seed=6)
        flat0 = params.flat.copy()
        feats = random_features(SPEC, 7, rows=2)
        mask = list(mask_indices)
        labels = np.array([[2], [0]])

        def objective(flat):
            params.flat[:] = flat
            fwd = run(params, feats, mask)
            grads = gradients(params, fwd, nll_logit_grads(fwd, labels))
            return float(nll_loss(row_major_probs(fwd)[:, 0], labels[:, 0]).sum()), grads.flat

        result = grad_check(objective, flat0, tolerance=1e-4)
        assert result.passed, f"mask {mask_indices}: {result.max_rel_error}"


class TestCheckpoint:
    @pytest.mark.parametrize("spec", CHECKPOINT_SPECS)
    def test_round_trip_bit_exact(self, tmp_path, spec):
        flat = np.random.default_rng(13).standard_normal(ClassifierParams(spec).flat.size)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ClassifierParams(spec, flat))
        spec_loaded, loaded = load_checkpoint(path)
        assert spec_loaded == loaded.spec == spec
        assert loaded.flat.tobytes() == flat.tobytes()

    def test_header_spec_is_the_params_spec(self, tmp_path):
        spec = ModelSpec(modality_dims=(2, 5), hidden_dim=3, latent_dim=7, num_classes=4)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(spec, seed=1))
        header = json.loads(path.read_bytes().split(b"\n", 2)[1])
        assert header["spec"] == spec.to_json_dict()
        assert load_checkpoint(path)[1].spec == spec

    def test_rewrite_byte_identical(self, tmp_path):
        params = init_params(SPEC, seed=11)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, params)
        save_checkpoint(p2, params)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint\n{}\n")
        with pytest.raises(StateError):
            load_checkpoint(path)

    def test_header_spec_mismatch_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(SPEC, seed=11))
        other = ModelSpec(modality_dims=(3, 4, 2), hidden_dim=5, latent_dim=4, num_classes=3)
        lines = path.read_bytes().split(b"\n", 2)
        header = json.loads(lines[1])
        header["spec"] = other.to_json_dict()
        path.write_bytes(lines[0] + b"\n" + json.dumps(header).encode() + b"\n" + lines[2])
        with pytest.raises(StateError):
            load_checkpoint(path)

    def test_payload_is_flat_and_header_lists_param_shapes(self, tmp_path):
        params = init_params(SPEC, seed=11)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        magic, header, payload = path.read_bytes().split(b"\n", 2)
        assert magic == b"rankcal-checkpoint v2"
        header = json.loads(header)
        assert [tuple(shape) for shape in header["arrays"]] == param_shapes(SPEC)
        assert header["dtype"] == "<f8"
        assert payload == params.flat.astype("<f8").tobytes()

    def test_v1_file_fails_naming_file_and_magic(self, tmp_path):
        # Version 1 stored each modality's w1, b1, w2, b2 in turn, then the head.
        rng = np.random.default_rng(12)
        hidden, latent = SPEC.hidden_dim, SPEC.latent_dim
        rest = ((hidden,), (hidden, latent), (latent,))
        shapes = [s for d in SPEC.modality_dims for s in ((d, hidden), *rest)]
        shapes += [(latent, SPEC.num_classes), (SPEC.num_classes,)]
        header = {"spec": SPEC.to_json_dict(), "arrays": shapes, "dtype": "<f8"}
        payload = b"".join(rng.standard_normal(shape).astype("<f8").tobytes() for shape in shapes)
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"rankcal-checkpoint v1\n" + json.dumps(header).encode() + b"\n" + payload)
        message = f"{path}: not a checkpoint file (magic 'rankcal-checkpoint v1')"
        with pytest.raises(StateError) as caught:
            load_checkpoint(path)
        assert str(caught.value) == message

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(SPEC, seed=11))
        with open(path, "ab") as fh:
            fh.write(b"\0" * 8)
        with pytest.raises(StateError):
            load_checkpoint(path)
