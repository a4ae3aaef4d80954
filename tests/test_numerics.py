from __future__ import annotations

import math

import numpy as np
import pytest

from rankcal.errors import DimensionError, NumericError
from rankcal.numerics import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    adam_update,
    init_adam_state,
    nll_loss,
    softmax_parts,
)

from gradcheck import grad_check
from reference import nll_loss_grad, softmax


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax([0.0, 0.0, 0.0]), [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_two_to_one_ratio(self):
        p = softmax([math.log(2.0), 0.0])
        assert abs(p[0] - 2 / 3) < 1e-15 and abs(p[1] - 1 / 3) < 1e-15

    def test_large_logits_no_overflow(self):
        p = softmax([1000.0, 1000.0])
        assert np.array_equal(p, [0.5, 0.5])

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            softmax([np.inf, 0.0])
        with pytest.raises(NumericError):
            softmax([np.nan, 0.0])

    def test_sum_one_and_strictly_positive(self):
        # float64 saturates to exactly 1.0 once one logit leads by ~36+, so
        # strict positivity/openness is asserted below that regime.
        rng = np.random.default_rng(3)
        for _ in range(200):
            k = int(rng.integers(2, 12))
            z = rng.uniform(-17.0, 17.0, size=k)
            p = softmax(z)
            assert abs(p.sum() - 1.0) <= 1e-12
            assert np.all(p > 0.0) and np.all(p < 1.0)

    def test_rows_are_independent_distributions(self):
        z = np.random.default_rng(8).standard_normal((4, 3, 5))
        p = softmax(z)
        for row in np.ndindex(4, 3):
            assert np.allclose(p[row], softmax(z[row]), rtol=0, atol=1e-15)


class TestSoftmaxParts:
    @staticmethod
    def logits(num_classes: int, scale: float) -> np.ndarray:
        """400 rows of logits in +-scale; the first 100 tie two or more classes at the max."""
        rng = np.random.default_rng(num_classes)
        z = scale * rng.uniform(-1.0, 1.0, size=(400, num_classes))
        for row in range(100):
            tied = rng.choice(num_classes, size=rng.integers(2, num_classes + 1), replace=False)
            z[row, tied] = z[row].max()
        return z

    @pytest.mark.parametrize("scale", [1e-3, 0.1, 1.0, 10.0, 100.0, 700.0])
    @pytest.mark.parametrize("num_classes", range(2, 11))
    def test_inverse_sums_are_the_largest_probability(self, num_classes, scale):
        z = self.logits(num_classes, scale)
        exp, sums = softmax_parts(z)
        assert (exp.max(axis=-1) == 1.0).all()
        assert (1.0 / sums).tobytes() == softmax(z).max(axis=-1).tobytes()

    def test_softmax_divides_the_parts(self):
        z = self.logits(6, 10.0).reshape(20, 20, 6)
        before = z.copy()
        exp, sums = softmax_parts(z)
        assert exp.shape == z.shape and sums.shape == z.shape[:-1]
        assert softmax(z).tobytes() == (exp / sums[..., None]).tobytes()
        assert z.tobytes() == before.tobytes()  # the exponentials are not computed in the input

    @pytest.mark.parametrize("num_classes", range(2, 21))
    def test_sums_are_numpys_class_axis_sum(self, num_classes):
        z = self.logits(num_classes, 1.0)
        # Row 0 ties its maximum, row 100 does not; then all rows as 2-D and as 3-D logits.
        for logits in (z[0], z[100], z, z.reshape(20, 20, num_classes)):
            exp, sums = softmax_parts(logits)
            assert np.shape(sums) == logits.shape[:-1]
            assert np.asarray(sums).tobytes() == exp.sum(axis=-1).tobytes()

    def test_checks_like_softmax(self):
        with pytest.raises(NumericError):
            softmax_parts([0.0, np.nan])
        with pytest.raises(DimensionError):
            softmax_parts([1.0])


def nll(probs, label: int) -> float:
    """nll_loss of one distribution."""
    return float(nll_loss(np.asarray(probs)[None], np.array([label]))[0])


class TestNllLoss:
    def test_confident_correct_goes_to_zero(self):
        eps = 1e-12
        assert nll([1.0 - 2 * eps, eps, eps], 0) < 1e-11

    def test_half_half(self):
        assert abs(nll([0.5, 0.5], 0) - math.log(2.0)) < 1e-15

    def test_grad_is_probs_minus_onehot_exactly(self):
        p = softmax([0.3, -1.2, 0.8])
        g = nll_loss_grad(p, 1)
        expected = p.copy()
        expected[1] -= 1.0
        assert np.array_equal(g, expected)

    def test_one_loss_per_row(self):
        p = softmax(np.random.default_rng(9).standard_normal((3, 2, 4)))
        labels = np.array([0, 3, 1])[:, None]
        loss = nll_loss(p.reshape(6, 4), np.repeat(labels, 2))
        grad = nll_loss_grad(p, labels)
        for b, k in np.ndindex(3, 2):
            assert loss[2 * b + k] == nll(p[b, k], labels[b, 0])
            assert np.array_equal(grad[b, k], nll_loss_grad(p[b, k], labels[b, 0]))

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal(5)
        label = 3
        analytic = nll_loss_grad(softmax(z), label)
        step = 1e-6
        for idx in range(5):
            saved = z[idx]
            z[idx] = saved + step
            plus = nll(softmax(z), label)
            z[idx] = saved - step
            minus = nll(softmax(z), label)
            z[idx] = saved
            numeric = (plus - minus) / (2 * step)
            assert abs(analytic[idx] - numeric) / max(1.0, abs(analytic[idx]) + abs(numeric)) < 1e-5


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        state = init_adam_state(3, learning_rate=0.1)
        params = np.array([1.0, -2.0, 3.0])
        adam_update(params, np.zeros(3), state)
        assert np.array_equal(params, [1.0, -2.0, 3.0])
        assert state.step_count == 1

    def test_first_step_is_learning_rate_times_sign(self):
        for g in (0.37, -12.0, 1e-4):
            state = init_adam_state(1, learning_rate=1e-3)
            params = np.array([0.5])
            adam_update(params, np.array([g]), state)
            # bias-corrected first step: lr * g / (|g| + eps)
            expected = 0.5 - 1e-3 * g / (abs(g) + ADAM_EPSILON)
            assert abs(params[0] - expected) < 1e-18
            assert abs((0.5 - params[0]) - 1e-3 * np.sign(g)) < 1e-6

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        params = rng.standard_normal(7)
        grads = [rng.standard_normal(7) for _ in range(4)]

        def run():
            p = params.copy()
            s = init_adam_state(7, learning_rate=0.01)
            for g in grads:
                adam_update(p, g, s)
            return p

        assert run().tobytes() == run().tobytes()

    def test_matches_textbook_expression_bit_for_bit(self):
        # The scratch-buffer step must equal the allocating textbook expression exactly.
        rng = np.random.default_rng(9)
        params = rng.standard_normal(50)
        state = init_adam_state(50, learning_rate=0.01)
        p, m, v = params.copy(), np.zeros(50), np.zeros(50)
        b1, b2, eps, lr = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, state.learning_rate
        for t in range(1, 201):
            g = rng.standard_normal(50) * 10.0 ** rng.integers(-6, 3)
            adam_update(params, g, state)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            p -= lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
            assert params.tobytes() == p.tobytes()
            assert state.first_moment.tobytes() == m.tobytes()
            assert state.second_moment.tobytes() == v.tobytes()

    def test_step_count_increments(self):
        state = init_adam_state(1, learning_rate=0.1)
        p = np.zeros(1)
        for expected in (1, 2, 3):
            adam_update(p, np.ones(1), state)
            assert state.step_count == expected

    def test_hyperparameters(self):
        assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON) == (0.9, 0.999, 1e-8)
        assert init_adam_state(1, learning_rate=1e-3).learning_rate == 1e-3


class TestGradCheck:
    def test_quadratic(self):
        def objective(theta):
            return 0.5 * float(theta @ theta), theta.copy()

        result = grad_check(objective, np.array([1.0, -2.0, 0.5]), tolerance=1e-8)
        assert result.passed and result.max_rel_error < 1e-8

    def test_corrupted_gradient_flagged(self):
        def objective(theta):
            return 0.5 * float(theta @ theta), 2.0 * theta

        result = grad_check(objective, np.array([10.0, -20.0]), tolerance=1e-4)
        assert not result.passed
        assert abs(result.max_rel_error - 1 / 3) < 1e-3

    def test_non_finite_loss_rejected(self):
        def objective(theta):
            return float("inf"), theta.copy()

        with pytest.raises(NumericError):
            grad_check(objective, np.array([1.0]))

    def test_subsamples_large_parameter_sets(self):
        def objective(theta):
            return 0.5 * float(theta @ theta), theta.copy()

        theta = np.random.default_rng(6).standard_normal(250)
        result = grad_check(objective, theta, max_checked=50)
        assert result.num_checked == 50 and result.passed
