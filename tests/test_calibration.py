from __future__ import annotations

import itertools

import numpy as np
import pytest

from rankcal.calibration import (
    _VRR_STREAM,
    REGULARIZER_VARIANTS,
    RankingRecords,
    chain_objective,
    chain_presence,
    chain_weights,
    compute_vrr,
    evaluate_vrr,
    label_onehot,
    objective_core,
    pair_losses,
    removal_orders,
    write_records_csv,
)
from rankcal.data import Dataset
from rankcal.errors import CapabilityError, ConfigError, DomainError, EmptyInputError, SpecError
from rankcal.model import ClassifierParams, ModelSpec, backward_masks, forward_core, init_params
from rankcal.model import mask_weights
from rankcal.numerics import ALLOCATE, Workspace

from gradcheck import grad_check
from reference import (
    confidence_increment,
    nll_logit_grads,
    reference_chain_objective,
    reference_confidence_by_subset_size,
    reference_confidence_lookup,
    reference_objective,
    reference_probs,
    reference_records_csv,
    reference_vrr,
    row_major_lattice,
)

SPEC3 = ModelSpec(modality_dims=(3, 4, 2), hidden_dim=6, latent_dim=4, num_classes=3)


COLUMNS = ("sample_id", "t_code", "s_code", "conf_t", "conf_s", "ci")


def make_records(cis) -> RankingRecords:
    """One ({0}, {0, 1}) pair on sample 0 per increment."""
    ci = np.asarray(cis, dtype=np.float64)
    conf_s = 0.5 + ci / 2
    conf_t = 0.5 - ci / 2
    return RankingRecords(
        sample_id=np.zeros(len(ci), dtype=np.int64),
        t_code=np.full(len(ci), 0b01),
        s_code=np.full(len(ci), 0b11),
        conf_t=conf_t,
        conf_s=conf_s,
        ci=conf_s - conf_t,
    )


def record_rows(records: RankingRecords) -> list[tuple]:
    """The columns zipped into (sample_id, t_code, s_code, conf_t, conf_s, ci) rows."""
    return list(zip(*(getattr(records, name).tolist() for name in COLUMNS)))


def random_dataset(spec: ModelSpec, n: int, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    return Dataset(
        modalities=[rng.standard_normal((n, d)) for d in spec.modality_dims],
        labels=rng.integers(0, spec.num_classes, size=n),
        num_classes=spec.num_classes,
    )


def zero_params(spec: ModelSpec) -> ClassifierParams:
    params = init_params(spec, seed=0)
    params.flat[:] = 0.0
    return params


def chain_masks(presence_row) -> list[list[int]]:
    """The masks of one sample's chain as sorted index lists."""
    return [np.flatnonzero(mask).tolist() for mask in presence_row]


def reference_confidence(params, feats, mask) -> float:
    return float(reference_probs(params, feats, mask).max())


class TestSampleChain:
    def test_structure_three_modalities(self):
        chains = chain_presence(removal_orders(np.random.default_rng(0), 5, 3))
        assert chains.shape == (5, 3, 3)
        assert np.array_equal(chains.sum(axis=2), np.tile([3, 2, 1], (5, 1)))
        # each mask is a subset of the one before it
        assert np.all(chains[:, 1:] <= chains[:, :-1])

    def test_single_modality(self):
        chains = chain_presence(removal_orders(np.random.default_rng(0), 2, 1))
        assert chains.shape == (2, 1, 1) and chains.all()

    def test_zero_modalities_rejected(self):
        with pytest.raises(SpecError):
            removal_orders(np.random.default_rng(0), 4, 0)
        with pytest.raises(SpecError):
            chain_presence(np.zeros((4, 0), dtype=int))

    def test_deterministic_given_rng_state(self):
        a = removal_orders(np.random.default_rng(123), 10, 4)
        b = removal_orders(np.random.default_rng(123), 10, 4)
        assert np.array_equal(a, b)

    def test_removal_roughly_uniform(self):
        # over 600 samples each of the 3 modalities should be removed first
        # about a third of the time
        first = removal_orders(np.random.default_rng(0), 600, 3)[:, 0]
        for c in np.bincount(first, minlength=3):
            assert 0.2 < c / 600 < 0.47

    @pytest.mark.parametrize(
        "draws, expected",
        [
            (
                [[0.5, 0.5, 0.1], [0.2, 0.7, 0.2], [0.3, 0.3, 0.3], [0.9, 0.1, 0.9]],
                [[2, 0, 1], [0, 2, 1], [0, 1, 2], [1, 0, 2]],
            ),
            # numpy's default argsort reorders these ties from 8 values on
            ([[0.5, 0.1] * 4, [0.2] * 8], [[1, 3, 5, 7, 0, 2, 4, 6], list(range(8))]),
        ],
    )
    def test_tied_draws_keep_index_order(self, draws, expected):
        class TiedDraws:
            def random(self, shape):
                assert shape == np.shape(draws)
                return np.array(draws)

        orders = removal_orders(TiedDraws(), *np.shape(draws))
        assert orders.tolist() == expected
        weights = mask_weights(chain_presence(orders))
        assert chain_weights(orders).tobytes() == weights.tobytes()

    def test_invalid_chain_rejected(self):
        with pytest.raises(SpecError):
            chain_presence(np.array([[0, 0, 2]]))

    @pytest.mark.parametrize("num_modalities", range(2, 7))
    def test_chain_weights_are_the_presence_weights_bit_for_bit(self, num_modalities):
        orders = removal_orders(np.random.default_rng(num_modalities), 50, num_modalities)
        weights = chain_weights(orders)
        assert weights.dtype == np.float64
        assert weights.tobytes() == mask_weights(chain_presence(orders)).tobytes()
        # chain_weights skips the check that chain_presence, for outside callers, keeps
        with pytest.raises(SpecError):
            chain_presence(np.concatenate([orders[:1, :1], orders[:1, :-1]], axis=1))


class TestEnumerateChainPairs:
    def test_hand_example(self):
        # removing 1 then 0 walks {0,1,2} -> {0,2} -> {2}
        (chain,) = chain_presence(np.array([[1, 0, 2]]))
        assert chain_masks(chain) == [[0, 1, 2], [0, 2], [2]]

    def test_two_modalities_one_pair(self):
        (chain,) = chain_presence(removal_orders(np.random.default_rng(1), 1, 2))
        assert len(chain) - 1 == 1


class TestPairLosses:
    def test_confidence_increment(self):
        assert confidence_increment(0.7, 0.9) == pytest.approx(0.2)
        assert confidence_increment(0.8, 0.8) == 0.0
        assert confidence_increment(0.8, 0.6) == pytest.approx(-0.2)

    def test_confidence_increment_domain(self):
        with pytest.raises(DomainError):
            confidence_increment(-0.1, 0.5)
        with pytest.raises(DomainError):
            confidence_increment(0.5, 1.2)

    def test_hinge(self):
        loss, d_t = pair_losses("hinge", np.array([0.8, 0.5, 0.6]), np.array([0.6, 0.7, 0.6]))
        assert loss == pytest.approx([0.2, 0.0, 0.0])
        # zero gradient at equality, +1 w.r.t. conf_t where active
        assert np.array_equal(d_t, [1.0, 0.0, 0.0])

    def test_difference(self):
        loss, d_t = pair_losses("difference", np.array([0.8, 0.5, 0.4]), np.array([0.6, 0.7, 0.4]))
        assert loss == pytest.approx([0.2, -0.2, 0.0])
        assert np.array_equal(d_t, [1.0, 1.0, 1.0])

    def test_identities_with_ci(self):
        # hinge = max(0, -ci) and difference = -ci for any record
        conf_t, conf_s = np.random.default_rng(2).uniform(0, 1, size=(2, 100))
        ci = confidence_increment(conf_t, conf_s)
        assert np.array_equal(pair_losses("hinge", conf_t, conf_s)[0], np.maximum(0.0, -ci))
        assert np.array_equal(pair_losses("difference", conf_t, conf_s)[0], -ci)
        assert not pair_losses("none", conf_t, conf_s)[0].any()


class TestSampleObjective:
    def setup_method(self):
        self.params = init_params(SPEC3, seed=0)
        rng = np.random.default_rng(1)
        self.feats = [3 * rng.standard_normal((1, d)) for d in SPEC3.modality_dims]
        self.labels = np.array([1])
        # removes 0 then 2: {0,1,2} -> {1,2} -> {1}
        self.chain = chain_presence(np.array([[0, 2, 1]]))

    def objective(self, variant, lam=0.0, labels=None, **kwargs):
        labels = self.labels if labels is None else labels
        return chain_objective(self.params, self.feats, labels, self.chain, variant, lam, **kwargs)

    def test_lambda_zero_is_pure_classification(self):
        res = self.objective("hinge", lam=0.0)
        assert res.loss == res.cls_loss
        assert res.confidence.shape == (1, 3)

    def test_one_over_m_factor(self):
        res = self.objective("none")
        unfactored = sum(
            -np.log(reference_probs(self.params, [x[0] for x in self.feats], mask)[1])
            for mask in chain_masks(self.chain[0])
        )
        assert res.cls_loss * 3 == pytest.approx(unfactored, rel=1e-12)

    def test_variant_none_matches_lambda_zero_bitwise(self):
        a = self.objective("hinge", lam=0.0)
        b = self.objective("none", lam=0.0)
        assert a.loss == b.loss
        assert a.grads.flat.tobytes() == b.grads.flat.tobytes()

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            self.objective("l2")

    def test_skip_on_wrong_full_zeroes_regularizer(self):
        # fixture where the full-mask prediction is wrong and the hinge fires
        probs = reference_probs(self.params, [x[0] for x in self.feats], [0, 1, 2])
        wrong = np.array([int(np.argmin(probs))])
        assert np.argmax(probs) != wrong[0]

        live = self.objective("hinge", lam=10.0, labels=wrong, skip_on_wrong_full=False)
        assert live.reg_loss > 0.0
        skipped = self.objective("hinge", lam=10.0, labels=wrong, skip_on_wrong_full=True)
        baseline = self.objective("none", labels=wrong)
        assert skipped.reg_loss == 0.0
        assert skipped.loss == baseline.loss
        assert skipped.grads.flat.tobytes() == baseline.grads.flat.tobytes()

    def test_records_carry_pair_confidences(self):
        res = self.objective("hinge", lam=2.0)
        feats = [x[0] for x in self.feats]
        for k, mask in enumerate(chain_masks(self.chain[0])):
            assert res.confidence[0, k] == pytest.approx(
                reference_confidence(self.params, feats, mask), rel=0, abs=1e-15
            )

    @pytest.mark.parametrize("variant", ["hinge", "difference", "none"])
    @pytest.mark.parametrize("skip_on_wrong_full", [True, False])
    def test_matches_per_sample_reference(self, variant, skip_on_wrong_full):
        spec = ModelSpec(modality_dims=(3, 4, 2, 5), hidden_dim=6, latent_dim=4, num_classes=3)
        for trial in range(5):
            params = init_params(spec, seed=trial)
            rng = np.random.default_rng(100 + trial)
            feats = [3 * rng.standard_normal((7, d)) for d in spec.modality_dims]
            labels = rng.integers(0, 3, size=7)
            chains = chain_presence(removal_orders(rng, 7, 4))
            res = chain_objective(params, feats, labels, chains, variant, 2.5, skip_on_wrong_full)
            parts = [
                reference_objective(
                    params, [x[b] for x in feats], int(labels[b]), chain_masks(chains[b]),
                    variant, 2.5, skip_on_wrong_full,
                )
                for b in range(7)
            ]
            assert res.loss == pytest.approx(sum(p[0] for p in parts), rel=0, abs=1e-12)
            assert res.cls_loss == pytest.approx(sum(p[1] for p in parts), rel=0, abs=1e-12)
            assert res.reg_loss == pytest.approx(sum(p[2] for p in parts), rel=0, abs=1e-12)
            assert np.max(np.abs(res.grads.flat - sum(p[3] for p in parts))) <= 1e-12


class TestCompositeGradient:
    def test_merged_backward_matches_per_mask_composition(self):
        # the chain objective merges encoder backwards across masks; it must
        # agree with composing backward_masks mask by mask
        params = init_params(SPEC3, seed=8)
        rng = np.random.default_rng(9)
        feats = [rng.standard_normal((4, d)) for d in SPEC3.modality_dims]
        labels = np.array([1, 0, 2, 1])
        chains = chain_presence(removal_orders(rng, 4, 3))
        res = chain_objective(params, feats, labels, chains, "none")

        reference = np.zeros_like(params.flat)
        for b in range(4):
            row = [x[b : b + 1] for x in feats]
            for mask in chains[b]:
                fwd = forward_core(params, row, mask_weights(mask[None, :]))
                g = nll_logit_grads(fwd, labels[b]) / 3
                grads = backward_masks(params, fwd, g, ClassifierParams(SPEC3), ALLOCATE)
                reference += grads.flat
        assert np.allclose(res.grads.flat, reference, rtol=1e-12, atol=1e-15)

    def test_grad_check_hinge(self):
        # fixture chosen away from hinge kinks and argmax ties
        # (margins all > 1e-2, far beyond the 1e-5 probe step)
        spec = ModelSpec(modality_dims=(4, 5, 6), hidden_dim=7, latent_dim=5, num_classes=4)
        params = init_params(spec, seed=3)
        flat0 = params.flat.copy()
        rng = np.random.default_rng(42)
        feats = [rng.standard_normal((1, d)) for d in spec.modality_dims]
        chain = chain_presence(np.array([[2, 1, 0]]))
        label = np.array([2])

        def run():
            return chain_objective(
                params, feats, label, chain, "hinge", lam=10.0, skip_on_wrong_full=False
            )

        assert np.all(np.abs(np.diff(run().confidence)) > 1e-3)

        def objective(flat):
            params.flat[:] = flat
            out = run()
            return out.loss, out.grads.flat

        result = grad_check(objective, flat0, tolerance=1e-4)
        assert result.passed, result.max_rel_error

    def test_grad_check_difference(self):
        # a batch of three samples, each on its own chain
        spec = ModelSpec(modality_dims=(4, 5, 6), hidden_dim=7, latent_dim=5, num_classes=4)
        params = init_params(spec, seed=3)
        flat0 = params.flat.copy()
        rng = np.random.default_rng(42)
        feats = [rng.standard_normal((3, d)) for d in spec.modality_dims]
        chains = chain_presence(np.array([[2, 1, 0], [0, 1, 2], [1, 2, 0]]))
        labels = np.array([2, 0, 3])

        def objective(flat):
            params.flat[:] = flat
            out = chain_objective(
                params, feats, labels, chains, "difference", lam=5.0, skip_on_wrong_full=False
            )
            return out.loss, out.grads.flat

        result = grad_check(objective, flat0, tolerance=1e-4)
        assert result.passed, result.max_rel_error


class TestObjectiveMatchesComposition:
    """chain_objective's bytes must match the plain composition of forward, NLL and backward.

    The row-major oracle sums the classes left to right below 8 and pairwise from 8 on.
    A chain may stop short of its single-modality end: `dropped` masks come off
    each chain, which leaves one mask and no pair at two modalities.
    """

    @pytest.mark.parametrize("num_classes", [2, 4, 8, 11])
    @pytest.mark.parametrize("num_modalities", [2, 3, 5])
    @pytest.mark.parametrize("batch", [1, 11, 32])
    @pytest.mark.parametrize("lam", [0.0, 2.5])
    @pytest.mark.parametrize("dropped", [0, 1])
    @pytest.mark.parametrize("skip_on_wrong_full", [True, False])
    @pytest.mark.parametrize("variant", REGULARIZER_VARIANTS)
    @pytest.mark.parametrize("hidden, latent", [(7, 5), (24, 12), (128, 64)])
    def test_bytes_equal(
        self, hidden, latent, variant, skip_on_wrong_full, dropped, lam, batch, num_modalities,
        num_classes,
    ):
        dims = tuple(range(2, 2 + num_modalities))
        spec = ModelSpec(dims, hidden_dim=hidden, latent_dim=latent, num_classes=num_classes)
        params = init_params(spec, seed=num_modalities)
        rng = np.random.default_rng([batch, num_modalities])
        feats = [2 * rng.standard_normal((batch, d)) for d in dims]
        labels = rng.integers(0, num_classes, size=batch)
        chains = chain_presence(removal_orders(rng, batch, num_modalities))
        chains = chains[:, : num_modalities - dropped]
        options = (variant, lam, skip_on_wrong_full)
        res = chain_objective(params, feats, labels, chains, *options)
        loss, cls, reg, grads, confidence, full_correct = reference_chain_objective(
            params, feats, labels, chains, *options
        )
        assert (res.loss, res.cls_loss, res.reg_loss) == (loss, cls, reg)
        assert res.grads.flat.tobytes() == grads.tobytes()
        assert res.confidence.tobytes() == confidence.tobytes()
        assert np.array_equal(res.full_correct, full_correct)

    @pytest.mark.parametrize("variant", REGULARIZER_VARIANTS)
    def test_reused_gradient_buffer_and_workspace_change_no_byte(self, variant):
        # train runs objective_core on one gradient buffer and one workspace per batch shape:
        # a call must overwrite every array that an earlier batch of that shape left behind.
        spec = ModelSpec((2, 3, 4), hidden_dim=7, latent_dim=5, num_classes=4)
        params = init_params(spec, seed=6)
        out = ClassifierParams(spec, np.full_like(params.flat, np.nan))
        workspace = Workspace.for_batch(spec, 9, 3)
        for draw in range(3):
            rng = np.random.default_rng([6, draw])
            feats = [2 * rng.standard_normal((9, d)) for d in spec.modality_dims]
            labels = rng.integers(0, 4, size=9)
            chains = chain_presence(removal_orders(rng, 9, 3))
            options = (variant, 2.5, draw != 1)
            want = chain_objective(params, feats, labels, chains, *options)
            onehot = label_onehot(labels, 4, 3)
            weights = mask_weights(chains)
            got = objective_core(params, feats, weights, labels, onehot, *options, out, workspace)
            assert got.grads is out
            sums = [(r.loss, r.cls_loss, r.reg_loss) for r in (got, want)]
            assert sums[0] == sums[1]
            assert out.flat.tobytes() == want.grads.flat.tobytes()
            assert got.confidence.tobytes() == want.confidence.tobytes()
            assert np.array_equal(got.full_correct, want.full_correct)


class TestDeadUnitGradientBytes:
    """A ReLU unit dead on every row whose upstream gradient is negative on every row.

    The masked multiply leaves -0.0 in its pre-activation gradients where the
    oracle's np.where writes +0.0; the b1 and w1 gradients must not show it.
    """

    @pytest.mark.parametrize("modality", range(3))
    def test_b1_and_w1_bytes_equal(self, modality):
        spec = ModelSpec((2, 3, 4), hidden_dim=6, latent_dim=4, num_classes=2)
        params = init_params(spec, seed=5)
        rng = np.random.default_rng([5, modality])
        # Positive features: every w1 product with the dead unit's gradient is -0.0.
        feats = [np.abs(rng.standard_normal((9, d))) + 0.1 for d in spec.modality_dims]
        labels = np.zeros(9, dtype=np.int64)
        chains = chain_presence(removal_orders(rng, 9, 3))
        params.b1[modality, 0] = -1e3  # the unit is dead on every row
        # Two classes, all labelled 0, no penalty: each row's latent gradient is a positive
        # multiple of head_w[:, 1] - head_w[:, 0], so this w2 row makes the upstream one negative.
        params.w2[modality, 0] = params.head_w[:, 0] - params.head_w[:, 1]
        options = ("hinge", 0.0, False)
        for b in range(9):  # one row's b2 gradient is its latent gradient
            row = [f[b : b + 1] for f in feats]
            one = chain_objective(params, row, labels[:1], chains[b : b + 1], *options)
            assert one.grads.b2[modality] @ params.w2[modality, 0] < 0.0
        res = chain_objective(params, feats, labels, chains, *options)
        flat = reference_chain_objective(params, feats, labels, chains, *options)[3]
        grads = ClassifierParams(spec, flat)
        assert res.grads.b1.tobytes() == grads.b1.tobytes()
        for got, want in zip(res.grads.w1, grads.w1):
            assert got.tobytes() == want.tobytes()


class TestComputeVrr:
    def test_hand_example(self):
        assert compute_vrr(make_records([0.1, -0.2, 0.3, -0.05])) == 0.5

    def test_no_violations(self):
        assert compute_vrr(make_records([0.0, 0.1, 0.2])) == 0.0

    def test_all_violations(self):
        assert compute_vrr(make_records([-0.1, -0.2])) == 1.0

    def test_zero_is_not_a_violation(self):
        assert compute_vrr(make_records([0.0])) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            compute_vrr(make_records([]))

    def test_order_and_duplication_invariance(self):
        cis = [0.1, -0.2, 0.3, -0.05]
        shuffled = make_records([cis[i] for i in (2, 0, 3, 1)])
        assert compute_vrr(shuffled) == compute_vrr(make_records(cis))
        assert compute_vrr(make_records(cis + cis)) == compute_vrr(make_records(cis))


def brute_force_pairs(num_modalities: int) -> list[tuple[frozenset, frozenset]]:
    """Independent enumeration of every (T, S) with one modality removed."""
    out = []
    for size in range(2, num_modalities + 1):
        for s in itertools.combinations(range(num_modalities), size):
            for t in itertools.combinations(s, size - 1):
                out.append((frozenset(t), frozenset(s)))
    return out


class TestEvaluateVrr:
    def test_constant_model_zero_vrr(self):
        params = zero_params(SPEC3)
        dataset = random_dataset(SPEC3, 20, seed=3)
        result = evaluate_vrr(params, dataset, seed=0, mode="sampled")
        assert result.vrr == 0.0
        assert np.all(result.records.ci == 0.0)

    def test_exhaustive_three_modalities_matches_brute_force(self):
        params = init_params(SPEC3, seed=5)
        dataset = random_dataset(SPEC3, 50, seed=6)
        result = evaluate_vrr(params, dataset, seed=0, mode="exhaustive")
        expected_pairs = brute_force_pairs(3)
        assert len(expected_pairs) == 9
        assert len(result.records) == 9 * dataset.num_samples

        violations = 0
        total = 0
        for i in range(dataset.num_samples):
            feats = dataset.features(i)
            for t_set, s_set in expected_pairs:
                conf_t = reference_confidence(params, feats, t_set)
                conf_s = reference_confidence(params, feats, s_set)
                total += 1
                if conf_s - conf_t < 0:
                    violations += 1
        assert result.vrr == violations / total

    def test_sampled_pairs_are_single_removals(self):
        params = init_params(SPEC3, seed=5)
        dataset = random_dataset(SPEC3, 10, seed=6)
        result = evaluate_vrr(params, dataset, seed=1, mode="sampled")
        valid = {
            (sum(1 << m for m in t), sum(1 << m for m in s)) for t, s in brute_force_pairs(3)
        }
        for pair in zip(result.records.t_code.tolist(), result.records.s_code.tolist()):
            assert pair in valid
        # one chain per sample: M - 1 pairs each
        assert len(result.records) == 2 * dataset.num_samples

    @pytest.mark.parametrize("num_modalities", [3, 5])
    def test_sampled_pairs_form_one_chain_per_sample(self, num_modalities):
        # Each sample's M - 1 pairs walk its drawn removal order from the full set
        # down to one modality, so no mask recurs within a sample.
        spec = ModelSpec(tuple(range(2, 2 + num_modalities)), 6, 4, 3)
        n = 10
        result = evaluate_vrr(init_params(spec, 5), random_dataset(spec, n, 6), seed=9)
        orders = removal_orders(np.random.default_rng([9, _VRR_STREAM, 0]), n, num_modalities)
        rec = result.records
        t_code = rec.t_code.reshape(n, num_modalities - 1)
        s_code = rec.s_code.reshape(n, num_modalities - 1)
        assert rec.sample_id.tolist() == np.arange(n).repeat(num_modalities - 1).tolist()
        assert (s_code[:, 0] == (1 << num_modalities) - 1).all()
        assert (s_code ^ t_code).tolist() == (1 << orders[:, :-1]).tolist()
        assert (s_code[:, 1:] == t_code[:, :-1]).all()

    def test_sampled_equals_exhaustive_on_constant_model_two_modalities(self):
        spec = ModelSpec(modality_dims=(2, 3), hidden_dim=4, latent_dim=3, num_classes=2)
        params = zero_params(spec)
        dataset = Dataset(
            modalities=[np.ones((8, 2)), np.ones((8, 3))],
            labels=np.zeros(8, dtype=np.int64),
            num_classes=2,
        )
        sampled = evaluate_vrr(params, dataset, seed=0, mode="sampled")
        exhaustive = evaluate_vrr(params, dataset, seed=0, mode="exhaustive")
        assert sampled.vrr == exhaustive.vrr == 0.0

    def test_sampled_deterministic(self):
        params = init_params(SPEC3, seed=5)
        dataset = random_dataset(SPEC3, 10, seed=6)
        a = evaluate_vrr(params, dataset, seed=9, mode="sampled")
        b = evaluate_vrr(params, dataset, seed=9, mode="sampled")
        assert record_rows(a.records) == record_rows(b.records)

    def test_exhaustive_capped_at_five_modalities(self):
        spec = ModelSpec(
            modality_dims=(2, 2, 2, 2, 2, 2), hidden_dim=3, latent_dim=2, num_classes=2
        )
        params = init_params(spec, seed=0)
        rng = np.random.default_rng(0)
        dataset = Dataset(
            modalities=[rng.standard_normal((4, 2)) for _ in range(6)],
            labels=np.zeros(4, dtype=np.int64),
            num_classes=2,
        )
        with pytest.raises(CapabilityError):
            evaluate_vrr(params, dataset, seed=0, mode="exhaustive")

    def test_empty_dataset_rejected(self):
        params = init_params(SPEC3, seed=0)
        dataset = Dataset(
            modalities=[np.zeros((0, d)) for d in SPEC3.modality_dims],
            labels=np.zeros(0, dtype=np.int64),
            num_classes=3,
        )
        with pytest.raises(EmptyInputError):
            evaluate_vrr(params, dataset, seed=0)

    @pytest.mark.parametrize("mode, seed", [("exhaustive", 0), ("sampled", 0), ("sampled", 1)])
    def test_attribution_counts_removed_modality(self, mode, seed):
        # encoder 0 is confidently class 0; encoder 1 is uninformative, so
        # dropping modality 1 raises confidence on every sample
        params = ClassifierParams(ModelSpec((2, 2), hidden_dim=2, latent_dim=2, num_classes=2))
        for w in (params.w1[0], params.w2[0], params.head_w):
            w[...] = np.eye(2)
        n = 12
        dataset = Dataset(
            modalities=[np.tile([3.0, 0.0], (n, 1)), np.ones((n, 2))],
            labels=np.zeros(n, dtype=np.int64),
            num_classes=2,
        )
        result = evaluate_vrr(params, dataset, seed=seed, mode=mode)
        if mode == "exhaustive":  # both pairs of the full set, one violating
            assert result.attribution == {0: 0, 1: n}
            assert result.vrr == 0.5
        else:  # each sample's one pair violates when its chain removes modality 1 first
            orders = removal_orders(np.random.default_rng([seed, _VRR_STREAM, 0]), n, 2)
            k = int(np.count_nonzero(orders[:, 0] == 1))
            assert 0 < k < n
            assert result.attribution == {0: 0, 1: k}
            assert result.vrr == k / n


class TestWideHeadMatchesRowMajor:
    """Exhaustive VRR at 8 and 11 classes and latent 64, against the row-major classifier."""

    @pytest.mark.parametrize("num_classes", [8, 11])
    def test_exhaustive_bytes_equal(self, num_classes):
        spec = ModelSpec((3, 4, 2, 5), hidden_dim=32, latent_dim=64, num_classes=num_classes)
        params = init_params(spec, seed=num_classes)
        params.head_w *= 8.0  # logits of a few units: confidences well inside (1/C, 1)
        dataset = random_dataset(spec, 40, seed=5)
        result = evaluate_vrr(params, dataset, seed=0, mode="exhaustive")
        confidence, full_probs = row_major_lattice(params, dataset)
        rec = result.records
        conf_t = confidence[rec.sample_id, rec.t_code - 1]
        conf_s = confidence[rec.sample_id, rec.s_code - 1]
        assert rec.conf_t.tobytes() == conf_t.tobytes()
        assert rec.conf_s.tobytes() == conf_s.tobytes()
        assert rec.ci.tobytes() == (conf_s - conf_t).tobytes()
        assert result.full_probs.tobytes() == full_probs.tobytes()
        assert result.full_confidence.tobytes() == confidence[:, -1].tobytes()
        assert 0.0 < result.vrr < 1.0


class TestColumnarRecords:
    """The columnar records against the per-pair loop they replace."""

    @staticmethod
    def lattice_confidence(params, dataset):
        """confidence(i, mask) looked up in one batched forward over every subset."""
        m = dataset.num_modalities
        lattice = np.arange(1, 1 << m)
        presence = (lattice[:, None] & (1 << np.arange(m))) > 0
        table = forward_core(params, dataset.modalities, mask_weights(presence)).confidence
        return lambda i, mask: float(table[i, sum(1 << j for j in mask) - 1])

    @pytest.mark.parametrize("num_modalities", [3, 5])
    @pytest.mark.parametrize("mode, seed", [("exhaustive", 4), ("sampled", 4), ("sampled", 11)])
    def test_matches_per_pair_oracle(self, num_modalities, mode, seed):
        spec = ModelSpec(
            modality_dims=tuple(range(2, 2 + num_modalities)),
            hidden_dim=6,
            latent_dim=4,
            num_classes=3,
        )
        params = init_params(spec, seed=5)
        dataset = random_dataset(spec, 30, seed=6)
        result = evaluate_vrr(params, dataset, seed=seed, mode=mode)
        orders = None
        if mode == "sampled":
            rng = np.random.default_rng([seed, _VRR_STREAM, 0])
            orders = removal_orders(rng, 30, num_modalities)

        confidence = self.lattice_confidence(params, dataset)
        rows, vrr, attribution = reference_vrr(confidence, 30, num_modalities, orders)
        assert record_rows(result.records) == rows
        assert result.vrr == vrr
        assert result.attribution == attribution
        assert result.mean_confidence_by_subset_size == reference_confidence_by_subset_size(rows)

        # the same pairs with confidences from the per-sample reference model
        lookup = reference_confidence_lookup(params, dataset)
        ref_rows, _, _ = reference_vrr(lookup, 30, num_modalities, orders)
        assert [row[:3] for row in ref_rows] == [row[:3] for row in rows]
        np.testing.assert_allclose(
            [row[3:5] for row in ref_rows], [row[3:5] for row in rows], rtol=1e-12, atol=0
        )


class TestMeanConfidenceBySubsetSize:
    """evaluate_vrr's by-size means, read from the lattice, against the dict walk over records."""

    @pytest.mark.parametrize("num_modalities", [2, 3, 4, 5])
    @pytest.mark.parametrize(
        "mode, seed", [("exhaustive", 2), ("sampled", 2), ("sampled", 3), ("sampled", 8)]
    )
    def test_matches_dict_walk(self, num_modalities, mode, seed):
        spec = ModelSpec(
            modality_dims=tuple(range(2, 2 + num_modalities)),
            hidden_dim=6,
            latent_dim=4,
            num_classes=3,
        )
        params = init_params(spec, seed=num_modalities)
        dataset = random_dataset(spec, 25, seed=7)
        result = evaluate_vrr(params, dataset, seed=seed, mode=mode)
        by_size = result.mean_confidence_by_subset_size
        assert by_size == reference_confidence_by_subset_size(record_rows(result.records))
        assert list(by_size) == list(range(1, num_modalities + 1))


class TestRecordsCsv:
    def test_format(self, tmp_path):
        records = RankingRecords(
            sample_id=np.array([4]),
            t_code=np.array([0b101]),
            s_code=np.array([0b111]),
            conf_t=np.array([0.517784605835080]),
            conf_s=np.array([0.493476308493800]),
            ci=np.array([-0.024308297341280]),
        )
        path = tmp_path / "records.csv"
        write_records_csv(path, records)
        lines = path.read_text().splitlines()
        assert lines[0] == "sample_id,t_mask,s_mask,conf_t,conf_s,ci"
        fields = lines[1].split(",")
        assert fields[:3] == ["4", "0+2", "0+1+2"]
        assert float(fields[3]) == pytest.approx(0.517784605835080, rel=1e-9)
        # nine significant digits
        assert fields[3] == f"{0.517784605835080:.9g}"

    def test_bytes_match_per_record_formatter(self, tmp_path):
        rng = np.random.default_rng(11)
        n = 400
        s_code = rng.integers(1, 32, size=n)
        s_code[s_code & (s_code - 1) == 0] |= 0b11000  # at least two modalities
        lowest = s_code & -s_code
        conf_t = rng.random(n) ** rng.integers(1, 60, size=n)
        conf_s = rng.random(n)
        special = [0.0, 1.0, 5e-324, 1e-300, 0.1, 2 / 3, 1 - 2**-53, 123456789e-17]
        conf_t[: len(special)] = special
        conf_s[: len(special)] = special[::-1]
        records = RankingRecords(
            sample_id=np.sort(rng.integers(0, 10_000, size=n)),
            t_code=s_code ^ lowest,
            s_code=s_code,
            conf_t=conf_t,
            conf_s=conf_s,
            ci=conf_s - conf_t,
        )
        path = tmp_path / "records.csv"
        write_records_csv(path, records)
        assert path.read_bytes() == reference_records_csv(record_rows(records)).encode("ascii")
