import dataclasses
import warnings
from itertools import permutations

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_sinkhorn, sentence_clouds

from psda.errors import (
    DegenerateSpectrumWarning,
    DimensionMismatchError,
    NonFiniteInputError,
    WeightSumError,
    ZeroMassMarginalError,
    ZeroVectorError,
)
from psda.otreg import (
    BLOCK_PAIRS,
    WARMUP_ITERATIONS,
    LossBreakdown,
    OtParams,
    affinity_regularization,
    compose_reg,
    compose_total,
    cost_matrix,
    distance_shrinkage_gradient,
    distance_shrinkage_loss,
    eig_shrinkage_gradient,
    eig_shrinkage_loss,
    ot_loss,
    ot_loss_gradient,
    pairwise_distances,
    procrustes_map,
    score_block,
    sinkhorn,
)


def central_fd(f, x, step=1e-5):
    """Central finite differences of a scalar function over an array."""
    grad = np.zeros_like(x, dtype=np.float64)
    for idx in np.ndindex(x.shape):
        hi = x.copy()
        lo = x.copy()
        hi[idx] += step
        lo[idx] -= step
        grad[idx] = (f(hi) - f(lo)) / (2.0 * step)
    return grad


def rel_error(approx, exact):
    scale = max(float(np.linalg.norm(exact)), 1e-12)
    return float(np.linalg.norm(approx - exact)) / scale


def brute_force_lp(cost):
    """Exact uniform-marginal transport cost of a square instance.

    With uniform marginals the optimum sits at a permutation matrix
    scaled by 1/n, so enumerating all n! assignments is exact.
    """
    n = cost.shape[0]
    best = min(sum(cost[i, p[i]] for i in range(n)) for p in permutations(range(n)))
    return best / n


def mpmath_sinkhorn_2x2(epsilon, iterations=400):
    """50-digit scaling iteration for C=[[0,1],[1,0]], uniform marginals."""
    with mpmath.workdps(50):
        eps = mpmath.mpf(repr(epsilon))
        k = [[mpmath.e ** (mpmath.mpf(-c) / eps) for c in row] for row in ((0, 1), (1, 0))]
        half = mpmath.mpf(1) / 2
        u = [mpmath.mpf(1), mpmath.mpf(1)]
        v = [mpmath.mpf(1), mpmath.mpf(1)]
        for _ in range(iterations):
            u = [half / (k[i][0] * v[0] + k[i][1] * v[1]) for i in range(2)]
            v = [half / (k[0][j] * u[0] + k[1][j] * u[1]) for j in range(2)]
        plan = [[u[i] * k[i][j] * v[j] for j in range(2)] for i in range(2)]
        loss = plan[0][1] + plan[1][0]
        return np.array([[float(p) for p in row] for row in plan]), float(loss)


def closed_form_2x2(epsilon):
    """Symmetry of the instance forces P = [[p, 1/2-p], [1/2-p, p]] with
    off/on ratio e^(-1/eps), hence p = (1/2) / (1 + e^(-1/eps))."""
    with mpmath.workdps(50):
        p = (mpmath.mpf(1) / 2) / (1 + mpmath.e ** (-1 / mpmath.mpf(repr(epsilon))))
        return float(p), float(2 * (mpmath.mpf(1) / 2 - p))


class TestPairwiseDistances:
    def test_matches_double_loop(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 8))
        y = rng.normal(size=(6, 8))
        dist = pairwise_distances(x, y)
        for i in range(4):
            for j in range(6):
                assert abs(dist[i, j] - np.linalg.norm(x[i] - y[j])) <= 1e-12

    def test_identical_rows_give_exact_zero(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 3))
        dist = pairwise_distances(x, x)
        assert np.all(np.diag(dist) == 0.0)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            pairwise_distances(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            pairwise_distances(np.zeros(3), np.zeros((2, 3)))

    def test_stack_entries_equal_single_calls(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(7, 5, 9)) + 3.0
        y = rng.normal(size=(7, 6, 9)) + 3.0
        y[2, :5] = x[2]
        dist = pairwise_distances(x, y)
        assert dist.shape == (7, 5, 6)
        for b in range(7):
            assert np.array_equal(dist[b], pairwise_distances(x[b], y[b]))
        assert np.all(np.diag(dist[2]) == 0.0)

    def test_stacks_must_pair_up(self):
        with pytest.raises(DimensionMismatchError):
            pairwise_distances(np.zeros((2, 3, 4)), np.zeros((3, 3, 4)))
        with pytest.raises(ValueError):
            pairwise_distances(np.zeros((2, 3, 4)), np.zeros((3, 4)))

    def test_near_duplicates_far_from_the_origin(self):
        # the Gram expansion cancels here; the differences do not
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 50)) + 1e3
        y = x + rng.normal(size=(6, 50)) * 1e-6
        dist = pairwise_distances(x, y)
        exact = np.sqrt(((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2))
        assert np.max(np.abs(dist - exact) / exact) <= 1e-12

    def test_explicit_center(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 3)) + 10.0
        dist = pairwise_distances(x[:2], x, x.mean(axis=0))
        exact = np.sqrt(((x[:2, None, :] - x[None, :, :]) ** 2).sum(axis=2))
        assert np.max(np.abs(dist - exact)) <= 1e-12
        assert dist[0, 0] == dist[1, 1] == 0.0


class TestCostMatrix:
    def test_single_pair(self):
        cost = cost_matrix(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))
        assert cost.shape == (1, 1)
        assert cost[0, 0] == 5.0

    def test_matches_double_loop(self):
        rng = np.random.default_rng(2)
        orig = rng.normal(size=(4, 8))
        aug = rng.normal(size=(4, 8))
        cost = cost_matrix(orig, aug)
        for i in range(4):
            for j in range(4):
                assert abs(cost[i, j] - np.linalg.norm(orig[i] - aug[j])) <= 1e-12

    def test_identical_clouds_zero_diagonal(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 4))
        assert np.all(np.diag(cost_matrix(x, x.copy())) == 0.0)

    def test_power_two_squares_distances(self):
        rng = np.random.default_rng(4)
        orig = rng.normal(size=(3, 3))
        aug = rng.normal(size=(3, 3))
        c1 = cost_matrix(orig, aug, power=1.0)
        c2 = cost_matrix(orig, aug, power=2.0)
        assert np.max(np.abs(c2 - c1**2)) <= 1e-12

    def test_rejects_bad_inputs(self):
        x = np.zeros((2, 2))
        with pytest.raises(ValueError):
            cost_matrix(x, x, power=0.0)
        with pytest.raises(DimensionMismatchError):
            cost_matrix(np.zeros((2, 2)), np.zeros((3, 2)))
        with pytest.raises(NonFiniteInputError):
            cost_matrix(np.array([[np.nan, 0.0]]), np.zeros((1, 2)))


class TestSinkhorn:
    def test_single_zero_cost_cell(self):
        plan = sinkhorn(np.array([[0.0]]), epsilon=0.1)
        assert plan.plan[0, 0] == 1.0
        assert plan.converged
        assert ot_loss(plan, np.array([[0.0]])) == 0.0

    def test_two_by_two_closed_form(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        result = sinkhorn(cost, epsilon=0.1, max_iter=10000, tol=1e-12)
        assert result.converged
        oracle_plan, oracle_loss = mpmath_sinkhorn_2x2(0.1)
        p, loss = closed_form_2x2(0.1)
        # the scaling iteration and the closed form agree to far beyond
        # double precision; both pin the implementation
        assert abs(oracle_plan[0, 0] - p) <= 1e-15
        assert abs(oracle_loss - loss) <= 1e-15
        assert np.max(np.abs(result.plan - oracle_plan)) <= 1e-8
        assert abs(ot_loss(result, cost) - oracle_loss) <= 1e-8

    def test_feasibility_and_scaling_identity(self):
        rng = np.random.default_rng(5)
        cost = rng.uniform(size=(5, 7))
        a = rng.uniform(0.1, 1.0, 5)
        a /= a.sum()
        b = rng.uniform(0.1, 1.0, 7)
        b /= b.sum()
        result = sinkhorn(cost, epsilon=0.2, a=a, b=b, max_iter=5000, tol=1e-10)
        assert result.converged
        assert np.max(np.abs(result.plan.sum(axis=1) - a)) <= 1e-9
        assert np.max(np.abs(result.plan.sum(axis=0) - b)) <= 1e-9
        # scaling form: log(plan) + cost/eps = log u_i + log v_j, so its
        # double-centred matrix vanishes
        log_k = np.log(result.plan) + cost / 0.2
        centred = log_k - log_k.mean(axis=1, keepdims=True) - log_k.mean(axis=0) + log_k.mean()
        assert np.max(np.abs(centred)) <= 1e-10
        assert np.all(result.plan >= 0.0) and np.all(result.plan <= 1.0)
        assert result.marginal_error <= 1e-10

    def test_zero_marginal_entry_is_fine(self):
        cost = np.array([[0.3, 0.7, 0.2], [0.6, 0.1, 0.5], [0.4, 0.9, 0.8]])
        a = np.array([0.5, 0.5, 0.0])
        result = sinkhorn(cost, epsilon=0.5, a=a, max_iter=5000, tol=1e-10)
        assert result.converged
        assert np.max(np.abs(result.plan[2])) <= 1e-12

    def test_non_convergence_is_flagged_not_raised(self):
        rng = np.random.default_rng(6)
        cost = rng.uniform(0.2, 1.0, size=(6, 6))
        result = sinkhorn(cost, epsilon=0.01, max_iter=3, tol=1e-12)
        assert not result.converged
        assert result.iterations_used == 3
        assert result.marginal_error > 1e-12

    def test_zero_iterations_allowed(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        result = sinkhorn(cost, epsilon=0.1, max_iter=0)
        assert result.iterations_used == 0
        assert not result.converged
        # no iteration: the plan is the kernel, its error covers both sides
        kernel = np.exp(-cost / 0.1)
        assert np.array_equal(result.plan, kernel)
        error = max(np.abs(kernel.sum(axis=1) - 0.5).max(), np.abs(kernel.sum(axis=0) - 0.5).max())
        assert result.marginal_error == error

    def test_zero_iterations_on_a_feasible_kernel_converge(self):
        result = sinkhorn(np.array([[0.0]]), epsilon=0.1, max_iter=0)
        assert result.iterations_used == 0
        assert result.marginal_error == 0.0
        assert result.converged

    @pytest.mark.parametrize("max_iter", [1, 5, WARMUP_ITERATIONS])
    def test_budget_inside_the_warm_up_is_plain_sinkhorn(self, max_iter):
        rng = np.random.default_rng(9)
        cost = cost_matrix(rng.normal(size=(12, 3)) * 2.0, rng.normal(size=(12, 3)) * 2.0)
        result = sinkhorn(cost, epsilon=0.1, max_iter=max_iter, tol=1e-12)
        ref_plan, ref_iterations = reference_sinkhorn(cost, 0.1, max_iter=max_iter, tol=1e-12)
        assert ref_iterations == max_iter
        assert result.iterations_used == max_iter
        assert not result.converged
        assert np.max(np.abs(result.plan - ref_plan)) <= 1e-13
        row_error = np.abs(result.plan.sum(axis=1) - 1.0 / 12).max()
        assert abs(result.marginal_error - row_error) <= 1e-15
        assert np.max(np.abs(result.plan.sum(axis=0) - 1.0 / 12)) <= 1e-15

    def test_budget_bounds_warm_up_and_newton_together(self):
        rng = np.random.default_rng(9)
        cost = cost_matrix(rng.normal(size=(12, 3)) * 2.0, rng.normal(size=(12, 3)) * 2.0)
        full = sinkhorn(cost, epsilon=0.1, tol=1e-12)
        assert full.converged and full.iterations_used > WARMUP_ITERATIONS + 1
        short = sinkhorn(cost, epsilon=0.1, max_iter=full.iterations_used - 1, tol=1e-12)
        assert short.iterations_used == full.iterations_used - 1
        assert not short.converged
        assert short.marginal_error > 1e-12

    def test_underflowing_kernel_converges(self):
        # exp(-cost/eps) is exactly zero in every cell
        cost = np.array([[5000.0, 6000.0], [7000.0, 5000.0]])
        result = sinkhorn(cost, epsilon=0.1, max_iter=500, tol=1e-9)
        assert result.converged
        assert np.max(np.abs(result.plan - np.diag([0.5, 0.5]))) <= 1e-6

    def test_matches_plain_scaling_reference(self):
        rng = np.random.default_rng(7)
        cost = rng.uniform(size=(4, 4))
        result = sinkhorn(cost, epsilon=0.5, max_iter=5000, tol=1e-11)
        ref_plan, _ = reference_sinkhorn(cost, 0.5, max_iter=5000, tol=1e-11)
        assert result.converged
        assert np.max(np.abs(result.plan - ref_plan)) <= 1e-8

    def test_converged_plan_matches_a_tighter_reference(self):
        # slow plain convergence (hundreds of iterations at eps=0.1) on
        # clouds of norm 3 to 4, the scale of real sentence embeddings
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 18, 3))
        clouds = x / np.linalg.norm(x, axis=2, keepdims=True) * rng.uniform(3, 4, size=(2, 18, 1))
        cost = cost_matrix(clouds[0], clouds[1])
        result = sinkhorn(cost, epsilon=0.1)
        ref_plan, ref_iterations = reference_sinkhorn(cost, 0.1, max_iter=20000, tol=1e-13)
        assert ref_iterations < 20000
        assert result.converged
        assert result.iterations_used < ref_iterations
        row_error = np.abs(result.plan.sum(axis=1) - 1.0 / 18).max()
        assert abs(result.marginal_error - row_error) <= 1e-15
        assert result.marginal_error <= 1e-9
        assert np.max(np.abs(result.plan - ref_plan)) <= 1e-10

    def test_benchmark_shaped_clouds_converge_at_the_defaults(self):
        # sentence pairs at d=300 with row norms 3 to 4: 1000 plain
        # iterations leave every one of these short of 1e-9 (6e-9 to 6e-6)
        rng = np.random.default_rng(10)
        params = OtParams()
        for n in np.linspace(18, 48, 20).astype(int):
            cost = cost_matrix(*sentence_clouds(rng, n))
            result = sinkhorn(cost, params.epsilon, max_iter=params.max_iter, tol=params.tol)
            assert result.converged, (n, result.marginal_error)
            assert result.marginal_error <= params.tol

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        cost = rng.uniform(size=(3, 5))
        a = sinkhorn(cost, epsilon=0.3)
        b = sinkhorn(cost, epsilon=0.3)
        assert np.array_equal(a.plan, b.plan)

    def test_marginal_validation(self):
        cost = np.ones((2, 2))
        with pytest.raises(ValueError):
            sinkhorn(cost, epsilon=0.1, a=np.array([0.7, 0.2]))
        with pytest.raises(ValueError):
            sinkhorn(cost, epsilon=0.1, a=np.array([1.5, -0.5]))
        with pytest.raises(ZeroMassMarginalError):
            sinkhorn(cost, epsilon=0.1, a=np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            sinkhorn(cost, epsilon=0.1, b=np.array([1.0]))
        with pytest.raises(NonFiniteInputError):
            sinkhorn(cost, epsilon=0.1, a=np.array([np.inf, 0.0]))

    def test_cost_validation(self):
        with pytest.raises(ValueError):
            sinkhorn(np.array([[-1.0]]), epsilon=0.1)
        with pytest.raises(ValueError):
            sinkhorn(np.zeros((0, 2)), epsilon=0.1)
        with pytest.raises(NonFiniteInputError):
            sinkhorn(np.array([[np.inf]]), epsilon=0.1)
        with pytest.raises(ValueError):
            sinkhorn(np.ones((2, 2)), epsilon=0.0)
        with pytest.raises(ValueError):
            sinkhorn(np.ones((2, 2)), epsilon=0.1, max_iter=-1)


class TestEntropicLimits:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_epsilon_monotone_and_near_lp(self, seed):
        rng = np.random.default_rng(seed)
        orig = rng.normal(size=(4, 3)) * 3.0
        aug = rng.normal(size=(4, 3)) * 3.0
        cost = cost_matrix(orig, aug)
        lp = brute_force_lp(cost)
        losses = []
        slacks = []
        for eps in (0.001, 0.01, 0.1, 1.0):
            result = sinkhorn(cost, epsilon=eps, max_iter=60000, tol=1e-10)
            # epsilon far below the cost scale leaves a residual marginal
            # deficit shrinking like 1/iterations, so the plan may miss
            # full convergence; it must still be nearly feasible, and the
            # loss error is bounded by misplaced mass times the top cost
            assert result.marginal_error <= 1e-5
            losses.append(ot_loss(result, cost))
            slacks.append(4.0 * float(cost.max()) * result.marginal_error)
        for i in range(len(losses) - 1):
            assert losses[i + 1] >= losses[i] - (slacks[i] + slacks[i + 1])
        for loss, slack in zip(losses, slacks):
            assert loss >= lp - slack
        assert abs(losses[0] - lp) <= 0.01 * lp


class TestOtLoss:
    def test_manual_sum(self):
        plan = np.array([[0.3, 0.2], [0.1, 0.4]])
        cost = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert ot_loss(plan, cost) == pytest.approx(2.6, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            ot_loss(np.ones((2, 2)) / 4, np.ones((2, 3)))


class TestOtLossGradient:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        orig = rng.normal(size=(3, 4))
        aug = rng.normal(size=(3, 4))
        plan = sinkhorn(cost_matrix(orig, aug), epsilon=0.5, max_iter=5000, tol=1e-11)
        assert plan.converged
        grad = ot_loss_gradient(orig, aug, plan)
        fd = central_fd(lambda x: ot_loss(plan.plan, cost_matrix(orig, x)), aug)
        assert rel_error(fd, grad) <= 1e-5

    @pytest.mark.parametrize("seed", range(3))
    def test_power_two_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed + 10)
        orig = rng.normal(size=(3, 4))
        aug = rng.normal(size=(3, 4))
        plan = sinkhorn(cost_matrix(orig, aug, power=2.0), epsilon=0.5, max_iter=5000, tol=1e-11)
        grad = ot_loss_gradient(orig, aug, plan, power=2.0)
        fd = central_fd(lambda x: ot_loss(plan.plan, cost_matrix(orig, x, power=2.0)), aug)
        assert rel_error(fd, grad) <= 1e-5

    def test_zero_distance_pairs_contribute_nothing(self):
        orig = np.array([[0.0, 0.0], [1.0, 1.0]])
        plan = np.eye(2) / 2.0
        grad = ot_loss_gradient(orig, orig.copy(), plan)
        assert np.array_equal(grad, np.zeros((2, 2)))

    def test_plan_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            ot_loss_gradient(np.zeros((3, 2)), np.zeros((4, 2)), np.ones((3, 3)) / 9)


class TestProcrustes:
    def test_identity_on_identical_clouds(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 3))
        w, s, u, vt = procrustes_map(x, x.copy())
        assert np.max(np.abs(w - np.eye(3))) <= 1e-10
        assert np.all(np.diff(s) <= 0)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("scale", [1.0, 2.0, 10.0])
    def test_recovers_rotation(self, seed, scale):
        rng = np.random.default_rng(seed)
        rot, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        orig = rng.normal(size=(8, 4))
        aug = scale * (orig @ rot)
        w, s, u, vt = procrustes_map(orig, aug)
        assert np.linalg.norm(aug @ w / scale - orig) <= 1e-8
        assert np.max(np.abs(w.T @ w - np.eye(4))) <= 1e-10
        assert np.all(np.diff(s) <= 0)

    def test_scale_invariant_map(self):
        rng = np.random.default_rng(9)
        orig = rng.normal(size=(7, 3))
        aug = rng.normal(size=(7, 3))
        w_base = procrustes_map(orig, aug)[0]
        for c in (0.5, 2.0, 10.0):
            assert np.max(np.abs(procrustes_map(orig, c * aug)[0] - w_base)) <= 1e-10
            assert np.max(np.abs(procrustes_map(c * orig, aug)[0] - w_base)) <= 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            procrustes_map(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_non_finite(self):
        x = np.zeros((2, 2))
        bad = np.array([[np.nan, 0.0], [0.0, 0.0]])
        with pytest.raises(NonFiniteInputError):
            procrustes_map(x, bad)


class TestEigShrinkage:
    def test_unit_spectrum_value(self):
        with pytest.warns(DegenerateSpectrumWarning):
            loss = eig_shrinkage_loss(np.ones(5), 3, 0.001)
        assert loss == pytest.approx(-0.003, rel=1e-12)

    def test_default_tail_on_wide_spectrum(self):
        rng = np.random.default_rng(1)
        s = rng.uniform(0.5, 100.0, size=768)
        loss = eig_shrinkage_loss(s, 300, 0.001)
        oracle = -0.001 * sum(sorted(float(x) ** 2 for x in s)[:300])
        assert loss == pytest.approx(oracle, rel=1e-12)

    def test_tail_larger_than_spectrum_uses_all(self):
        s = np.array([3.0, 1.0, 2.0])
        assert eig_shrinkage_loss(s, 300, 0.5) == pytest.approx(-0.5 * 14.0, rel=1e-12)

    def test_matches_eigvalsh_oracle(self):
        rng = np.random.default_rng(2)
        orig = rng.normal(size=(4, 4))
        aug = rng.normal(size=(4, 4))
        _, s, _, _ = procrustes_map(orig, aug)
        m = aug.T @ orig
        eigvals = np.linalg.eigvalsh(m.T @ m)  # ascending
        oracle = -0.01 * (eigvals[0] + eigvals[1])
        assert abs(eig_shrinkage_loss(s, 2, 0.01) - oracle) <= 1e-10

    def test_near_tie_warns(self):
        with pytest.warns(DegenerateSpectrumWarning):
            eig_shrinkage_loss(np.array([1.0, 1.0 + 5e-9, 2.0]), 2, 0.1)

    def test_clear_gaps_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eig_shrinkage_loss(np.array([1.0, 2.0, 3.0]), 3, 0.1)

    def test_tail_of_one_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eig_shrinkage_loss(np.ones(4), 1, 0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            eig_shrinkage_loss(np.array([]), 1, 0.1)
        with pytest.raises(ValueError):
            eig_shrinkage_loss(np.ones(3), 0, 0.1)
        with pytest.raises(ValueError):
            eig_shrinkage_loss(np.ones((2, 2)), 1, 0.1)

    @pytest.mark.parametrize("seed", range(3))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed + 20)
        orig = rng.normal(size=(6, 4))
        aug = rng.normal(size=(6, 4))
        _, s, u, vt = procrustes_map(orig, aug)
        grad = eig_shrinkage_gradient(orig, u, vt, s, 2, 0.05)

        def full_loss(x):
            return eig_shrinkage_loss(procrustes_map(orig, x)[1], 2, 0.05)

        fd = central_fd(full_loss, aug)
        assert rel_error(fd, grad) <= 1e-4


def full_svd_spectral_term(orig, aug, tail, eta):
    """The spectral loss and gradient from the full d x d SVD of
    aug^T @ orig, and whether the loss warned of a tie."""
    _, s, u, vt = procrustes_map(orig, aug)
    k = min(tail, s.size)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        loss = eig_shrinkage_loss(s, k, eta)
    grad = eig_shrinkage_gradient(orig, u, vt, s, k, eta)
    return loss, grad, any(issubclass(w.category, DegenerateSpectrumWarning) for w in caught)


def rank_aware_spectral_term(orig, aug, tail, eta):
    """The spectral loss and gradient as affinity_regularization computes
    them (rho puts all weight on the spectral term), and the tie warning."""
    params = OtParams(tail_count=tail, eta=eta, rho=(0.0, 1.0, 0.0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = affinity_regularization(orig, aug, params)
    warned = any(issubclass(w.category, DegenerateSpectrumWarning) for w in caught)
    return out.loss_eig, out.grad_augmented, warned


class TestRankAwareSpectrum:
    # d = 6; tails below d - n, at d - n, between d - n and d, at d, above d
    @pytest.mark.parametrize("rows", [3, 6, 9])
    @pytest.mark.parametrize("tail", [1, 2, 3, 4, 5, 6, 10])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_full_svd(self, rows, tail, seed):
        rng = np.random.default_rng(seed + 40)
        orig = rng.normal(size=(rows, 6)) + 0.5
        aug = orig + rng.normal(size=(rows, 6)) * 0.3
        eta = 0.01
        ref_loss, ref_grad, ref_warned = full_svd_spectral_term(orig, aug, tail, eta)
        loss, grad, warned = rank_aware_spectral_term(orig, aug, tail, eta)
        # relative to the whole term: eta ||M||_F^2 and 2 eta ||orig|| ||M||
        m_norm = np.linalg.norm(aug.T @ orig)
        assert abs(loss - ref_loss) <= 1e-12 * eta * m_norm**2
        assert np.linalg.norm(grad - ref_grad) <= 1e-12 * 2 * eta * np.linalg.norm(orig) * m_norm
        assert warned == ref_warned
        # the d - n zeros may fill the tail, but zeros never count as tied
        assert not warned

    @pytest.mark.parametrize("tail", [1, 2, 4, 10])
    def test_tied_nonzero_spectrum_warns_alike(self, tail):
        # orig = aug = 2Q with Q orthogonal: M = 4 I, four equal singular
        # values and no zeros
        q, _ = np.linalg.qr(np.random.default_rng(50).normal(size=(4, 4)))
        orig = 2.0 * q
        ref_loss, _, ref_warned = full_svd_spectral_term(orig, orig.copy(), tail, 0.1)
        loss, _, warned = rank_aware_spectral_term(orig, orig.copy(), tail, 0.1)
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        assert warned == ref_warned == (tail >= 2)


class TestDistanceShrinkage:
    def test_identical_clouds_exactly_zero(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 5))
        assert distance_shrinkage_loss(x, x.copy()) == 0.0

    def test_scaled_parallel_is_numerically_zero(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, 5))
        assert 0.0 <= distance_shrinkage_loss(x, 3.0 * x) <= 5e-16

    def test_orthogonal_pools(self):
        orig = np.array([[1.0, 0.0], [1.0, 0.0]])
        aug = np.array([[0.0, 1.0], [0.0, 1.0]])
        assert distance_shrinkage_loss(orig, aug) == 1.0

    def test_forty_five_degrees(self):
        orig = np.array([[1.0, 0.0]])
        aug = np.array([[1.0, 1.0]])
        assert distance_shrinkage_loss(orig, aug) == pytest.approx(
            1.0 - 2.0**-0.5, abs=1e-12
        )

    def test_opposite_pools(self):
        assert distance_shrinkage_loss(np.array([[1.0, 0.0]]), np.array([[-1.0, 0.0]])) == 2.0

    def test_non_parallel_is_positive(self):
        # 1e-6 keeps 1 - cos(theta) ~ 5e-13, safely above double rounding
        orig = np.array([[1.0, 0.0]])
        aug = np.array([[1.0, 1e-6]])
        assert distance_shrinkage_loss(orig, aug) > 0.0

    def test_zero_pool_rejected(self):
        zero_mean = np.array([[1.0, 0.0], [-1.0, 0.0]])
        other = np.ones((2, 2))
        with pytest.raises(ZeroVectorError):
            distance_shrinkage_loss(zero_mean, other)
        with pytest.raises(ZeroVectorError):
            distance_shrinkage_loss(other, zero_mean)
        with pytest.raises(ZeroVectorError):
            distance_shrinkage_gradient(other, zero_mean)

    @pytest.mark.parametrize("seed", range(4))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed + 30)
        orig = rng.normal(size=(4, 3)) + 1.0
        aug = rng.normal(size=(4, 3)) + 1.0
        grad = distance_shrinkage_gradient(orig, aug)
        fd = central_fd(lambda x: distance_shrinkage_loss(orig, x), aug)
        assert rel_error(fd, grad) <= 1e-5

    def test_gradient_rows_identical(self):
        rng = np.random.default_rng(5)
        orig = rng.normal(size=(5, 3)) + 1.0
        aug = rng.normal(size=(5, 3)) + 1.0
        grad = distance_shrinkage_gradient(orig, aug)
        assert all(np.array_equal(grad[0], row) for row in grad)


class TestCompose:
    def test_projections(self):
        assert compose_reg(2.0, 5.0, 7.0, (1.0, 0.0, 0.0)) == 2.0
        assert compose_reg(2.0, 5.0, 7.0, (0.0, 1.0, 0.0)) == 5.0
        assert compose_reg(2.0, 5.0, 7.0, (0.0, 0.0, 1.0)) == 7.0

    def test_zero_losses(self):
        assert compose_reg(0.0, 0.0, 0.0, (0.4, 0.2, 0.4)) == 0.0

    def test_default_blend(self):
        assert compose_reg(2.0, 5.0, 7.0, (0.4, 0.2, 0.4)) == pytest.approx(4.6, abs=1e-14)

    def test_total_projections(self):
        assert compose_total(9.0, 3.0, (0.0, 1.0)) == 3.0
        assert compose_total(9.0, 3.0, (1.0, 0.0)) == 9.0

    def test_total_fixed_point_at_even_split(self):
        value = 0.7342
        assert compose_total(value, value, (0.5, 0.5)) == value
        assert compose_total(value, value, (0.3, 0.7)) == pytest.approx(value, rel=1e-15)

    def test_weight_validation(self):
        with pytest.raises(WeightSumError):
            compose_reg(1.0, 1.0, 1.0, (0.5, 0.5))
        with pytest.raises(WeightSumError):
            compose_reg(1.0, 1.0, 1.0, (0.5, 0.3, 0.1))
        with pytest.raises(WeightSumError):
            compose_reg(1.0, 1.0, 1.0, (0.5, 0.6, -0.1))
        with pytest.raises(WeightSumError):
            compose_total(1.0, 1.0, (np.nan, 1.0))
        with pytest.raises(WeightSumError):
            compose_total(1.0, 1.0, (0.5, 0.5, 0.0))

    def test_sum_tolerance_accepted(self):
        assert compose_reg(1.0, 1.0, 1.0, (0.4 + 1e-10, 0.2, 0.4)) == pytest.approx(1.0)


class TestOtParams:
    def test_defaults(self):
        params = OtParams()
        assert params.epsilon == 0.1
        assert params.tail_count == 300
        assert params.eta == 0.001
        assert params.rho == (0.4, 0.2, 0.4)
        assert params.lam == (0.5, 0.5)
        assert params.power == 1.0
        assert params.max_iter == 1000
        assert params.tol == 1e-9

    def test_validation(self):
        with pytest.raises(WeightSumError):
            OtParams(rho=(0.5, 0.5, 0.5))
        with pytest.raises(WeightSumError):
            OtParams(lam=(0.9, 0.2))
        with pytest.raises(ValueError):
            OtParams(epsilon=0.0)
        with pytest.raises(ValueError):
            OtParams(eta=-0.1)
        with pytest.raises(ValueError):
            OtParams(tail_count=0)
        with pytest.raises(ValueError):
            OtParams(power=0.0)
        with pytest.raises(ValueError):
            OtParams(max_iter=-1)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            OtParams().epsilon = 0.5


class TestAffinityRegularization:
    def test_identical_single_row(self):
        cloud = np.array([[3.0, 4.0]])
        out = affinity_regularization(cloud, cloud.copy())
        assert out.loss_ot == 0.0
        assert out.loss_dis == 0.0
        # cross-covariance [[9,12],[12,16]] has singular values 25 and 0
        assert out.loss_eig == pytest.approx(-0.001 * 625.0, rel=1e-10)
        assert out.loss_reg == 0.2 * out.loss_eig
        assert out.loss_total == 0.5 * out.loss_reg
        assert out.tail_count == 2
        assert out.sinkhorn_converged

    def test_identical_repeated_rows(self):
        cloud = np.tile(np.array([1.0, 2.0, 0.0]), (3, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = affinity_regularization(cloud, cloud.copy())
        assert out.loss_ot == 0.0
        assert out.loss_dis == 0.0
        # M = 3 v v^T with ||v||^2 = 5: spectrum {15, 0, 0}
        assert out.loss_eig == pytest.approx(-0.001 * 225.0, rel=1e-10)
        assert out.loss_reg == pytest.approx(0.2 * out.loss_eig, rel=1e-12)

    def test_task_loss_blends_into_total(self):
        rng = np.random.default_rng(6)
        orig = rng.normal(size=(3, 4)) + 1.0
        aug = rng.normal(size=(3, 4)) + 1.0
        out = affinity_regularization(orig, aug, task_loss=2.0)
        assert out.task_loss == 2.0
        assert out.loss_total == pytest.approx(0.5 * 2.0 + 0.5 * out.loss_reg, rel=1e-15)

    def test_breakdown_composition(self):
        rng = np.random.default_rng(7)
        orig = rng.normal(size=(4, 3)) + 1.0
        aug = rng.normal(size=(4, 3)) + 1.0
        params = OtParams(rho=(0.3, 0.3, 0.4), lam=(0.25, 0.75))
        out = affinity_regularization(orig, aug, params, task_loss=1.5)
        blend = 0.3 * out.loss_ot + 0.3 * out.loss_eig + 0.4 * out.loss_dis
        assert out.loss_reg == pytest.approx(blend, rel=1e-14)
        assert out.loss_total == pytest.approx(0.25 * 1.5 + 0.75 * out.loss_reg, rel=1e-14)
        assert out.rho == (0.3, 0.3, 0.4)
        assert out.lam == (0.25, 0.75)

    @pytest.mark.parametrize("seed", range(20))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        orig = rng.normal(size=(6, 4))
        aug = rng.normal(size=(6, 4))
        params = OtParams(epsilon=0.5, eta=0.01, max_iter=5000, tol=1e-11)
        out = affinity_regularization(orig, aug, params)
        assert out.sinkhorn_converged

        plan = sinkhorn(
            cost_matrix(orig, aug, power=params.power),
            params.epsilon,
            max_iter=params.max_iter,
            tol=params.tol,
        )
        _, s, u, vt = procrustes_map(orig, aug)
        k = min(params.tail_count, s.size)
        idx = np.argsort(s)[:k]

        def reg_with_fixed_plan_and_factors(x):
            l_ot = ot_loss(plan.plan, cost_matrix(orig, x, power=params.power))
            tail = np.einsum("ir,ij,jr->r", u[:, idx], x.T @ orig, vt[idx, :].T)
            l_eig = -params.eta * float(np.sum(tail**2))
            l_dis = distance_shrinkage_loss(orig, x)
            return params.rho[0] * l_ot + params.rho[1] * l_eig + params.rho[2] * l_dis

        fd = central_fd(reg_with_fixed_plan_and_factors, aug)
        assert rel_error(fd, out.grad_augmented) <= 1e-4

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatchError):
            affinity_regularization(np.ones((2, 2)), np.ones((3, 2)))
        with pytest.raises(ValueError):
            affinity_regularization(np.ones((0, 2)), np.ones((0, 2)))
        with pytest.raises(ValueError):
            affinity_regularization(np.ones(3), np.ones(3))

    def test_sentence_pairs_do_not_warn(self):
        # repeated words make each core rank-deficient, and n < d adds
        # structural zeros; none of these zeros is a tie worth flagging
        rng = np.random.default_rng(11)
        deficient = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegenerateSpectrumWarning)
            for n in np.linspace(18, 48, 20).astype(int):
                orig, aug = sentence_clouds(rng, n)
                deficient += np.linalg.matrix_rank(orig) < n
                affinity_regularization(orig, aug)
        assert deficient >= 15

    def test_returns_breakdown(self):
        rng = np.random.default_rng(8)
        orig = rng.normal(size=(3, 5)) + 0.5
        # three points in five dimensions leave two zero singular values,
        # which tie at zero but add nothing, so nothing warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = affinity_regularization(orig, orig + rng.normal(size=(3, 5)) * 0.1)
        assert isinstance(out, LossBreakdown)
        assert out.grad_augmented.shape == (3, 5)


def sentence_block(seed: int, count: int, n: int = 18):
    """Benchmark-shaped pairs of one length, from identical clouds (which
    stop inside the warm-up) to pairs with six rows replaced."""
    rng = np.random.default_rng(seed)
    pairs = [sentence_clouds(rng, n, replaced=(0, 1, 3, 6)[i % 4]) for i in range(count)]
    return [o for o, _ in pairs], [a for _, a in pairs]


def assert_same_breakdown(got: LossBreakdown, want: LossBreakdown):
    for field in ("loss_ot", "loss_eig", "loss_dis", "loss_reg", "loss_total"):
        assert getattr(got, field) == getattr(want, field), field
    assert got.sinkhorn_iterations == want.sinkhorn_iterations
    assert got.sinkhorn_marginal_error == want.sinkhorn_marginal_error
    assert got.sinkhorn_converged == want.sinkhorn_converged
    assert np.array_equal(got.grad_augmented, want.grad_augmented)


class TestScoreBlock:
    @pytest.mark.parametrize(
        "max_iter", [1000, WARMUP_ITERATIONS + 3, 5], ids=["default", "newton-cap", "warm-up-cap"]
    )
    def test_pair_alone_equals_pair_in_a_full_block(self, max_iter):
        origs, augs = sentence_block(21, BLOCK_PAIRS)
        params = OtParams(max_iter=max_iter)
        block = score_block(origs, augs, params)
        # the same pairs in reverse order: every pair at another place
        reverse = score_block(origs[::-1], augs[::-1], params)[::-1]
        iterations = set()
        for i, (orig, aug) in enumerate(zip(origs, augs)):
            alone = affinity_regularization(orig, aug, params)
            assert_same_breakdown(block[i], alone)
            assert_same_breakdown(reverse[i], alone)
            iterations.add(alone.sinkhorn_iterations)
        # pairs left the working set at different iterations
        assert len(iterations) > 1

    def test_stacked_solve_equals_sinkhorn_per_pair(self):
        origs, augs = sentence_block(22, 12, n=9)
        params = OtParams()
        for out, orig, aug in zip(score_block(origs, augs, params), origs, augs):
            cost = cost_matrix(orig, aug)
            plan = sinkhorn(cost, params.epsilon, max_iter=params.max_iter, tol=params.tol)
            assert out.sinkhorn_iterations == plan.iterations_used
            assert out.sinkhorn_marginal_error == plan.marginal_error
            assert out.loss_ot == ot_loss(plan, cost)

    def test_converges_on_benchmark_shaped_blocks(self):
        origs, augs = sentence_block(23, 40, n=30)
        out = score_block(origs, augs)
        assert all(bd.sinkhorn_converged for bd in out)

    def test_validation(self):
        with pytest.raises(ValueError):
            score_block([], [])
        with pytest.raises(ValueError):
            score_block([np.ones((2, 2))], [np.ones((2, 2)), np.ones((2, 2))])
        with pytest.raises(DimensionMismatchError):
            score_block([np.ones((2, 2)), np.ones((3, 2))], [np.ones((2, 2)), np.ones((3, 2))])
        with pytest.raises(DimensionMismatchError):
            score_block([np.ones((2, 2))], [np.ones((3, 2))])
        with pytest.raises(NonFiniteInputError):
            score_block([np.ones((2, 2))], [np.array([[1.0, np.nan], [1.0, 1.0]])])


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**31), n=st.integers(1, 5), m=st.integers(1, 6))
def test_sinkhorn_feasible_when_converged(seed, n, m):
    rng = np.random.default_rng(seed)
    cost = rng.uniform(0.0, 2.0, size=(n, m))
    result = sinkhorn(cost, epsilon=0.3, max_iter=20000, tol=1e-9)
    if result.converged:
        assert np.max(np.abs(result.plan.sum(axis=1) - 1.0 / n)) <= 1e-8
        assert np.max(np.abs(result.plan.sum(axis=0) - 1.0 / m)) <= 1e-8
    assert np.all(result.plan >= 0.0)
    assert np.all(result.plan <= 1.0 + 1e-12)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**31), n=st.integers(1, 5), m=st.integers(1, 5))
def test_cost_matrix_swap_symmetry(seed, n, m):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    y = rng.normal(size=(m, 3))
    assert np.array_equal(pairwise_distances(x, y), pairwise_distances(y, x).T)


@settings(deadline=None, max_examples=40)
@given(
    losses=st.tuples(*([st.floats(-5, 5)] * 3)),
    raw=st.tuples(*([st.floats(0.05, 1.0)] * 3)),
)
def test_compose_reg_stays_within_hull(losses, raw):
    total = sum(raw)
    rho = tuple(r / total for r in raw)
    blended = compose_reg(*losses, rho)
    assert min(losses) - 1e-9 <= blended <= max(losses) + 1e-9
