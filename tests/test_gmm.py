import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import unflushed_logsumexp

from psda import gmm
from psda.errors import DimensionMismatchError, NonFiniteInputError, TooFewPointsError
from psda.gmm import GmmConfig, GmmModel, gmm_fit, seed_initialization
from psda.util import CANCELLATION_SHARE, LOG_TINY

MONOTONE_SLACK = 1e-9
TINY = np.finfo(np.float64).tiny


def responsibilities(model, points):
    """The (n, k) responsibilities of ``points`` under a fitted model, from
    the E-step that gmm_fit runs."""
    log_resp, _ = gmm._log_responsibilities(
        points, model.means, model.variances, model.mixing_weights, model.covariance
    )
    return np.exp(log_resp)


def reference_em(points, cfg):
    """Plain-probability EM sharing the seeded initialization and update
    order of gmm_fit, coded independently of the log-domain implementation."""
    points = np.asarray(points, dtype=np.float64)
    n, d = points.shape
    means, variances, weights = seed_initialization(points, cfg)

    def densities(means, variances, weights):
        dens = np.empty((n, cfg.k))
        for c in range(cfg.k):
            var = variances[c] if cfg.covariance == "diagonal" else np.full(d, variances[c])
            norm = (2.0 * np.pi) ** (d / 2.0) * np.sqrt(np.prod(var))
            quad = ((points - means[c]) ** 2 / var).sum(axis=1)
            dens[:, c] = np.exp(-0.5 * quad) / norm
        joint = dens * weights
        total = joint.sum(axis=1)
        return joint / total[:, None], float(np.log(total).sum())

    trace = []
    resp = None
    converged = False
    for _ in range(cfg.max_iter):
        resp, ll = densities(means, variances, weights)
        trace.append(ll)
        if len(trace) >= 2 and trace[-1] - trace[-2] < cfg.tol:
            converged = True
            break
        counts = resp.sum(axis=0)
        weights = counts / n
        means = (resp.T @ points) / counts[:, None]
        new_vars = np.empty_like(variances)
        for c in range(cfg.k):
            sq = resp[:, c] @ (points - means[c]) ** 2 / counts[c]
            if cfg.covariance == "diagonal":
                new_vars[c] = np.maximum(sq, cfg.cov_floor)
            else:
                new_vars[c] = max(float(sq.mean()), cfg.cov_floor)
        variances = new_vars
    if not converged:
        resp, ll = densities(means, variances, weights)
        trace.append(ll)
    return means, variances, weights, resp, trace


def unflushed_em(points, cfg):
    """gmm_fit without the subnormal flush and without shared centring:
    every responsibility goes through exp, and each step centres the
    points itself.  Returns the fit and the number of subnormal
    responsibilities its M-steps read."""
    points = np.asarray(points, dtype=np.float64)
    n, d = points.shape
    means, variances, weights = seed_initialization(points, cfg)

    def log_responsibilities(means, variances, weights):
        var = variances if cfg.covariance == "diagonal" else np.repeat(variances[:, None], d, axis=1)
        prec = 1.0 / var
        shift = means.mean(axis=0)
        x = points - shift
        mu = means - shift
        raw = (x * x) @ prec.T + np.sum(mu * mu * prec, axis=1)
        quad = raw - 2.0 * (x @ (mu * prec).T)
        cancelled = quad <= gmm._DENSITY_CANCEL * raw
        for c in np.flatnonzero(cancelled.any(axis=0)):
            rows = np.flatnonzero(cancelled[:, c])
            quad[rows, c] = ((points[rows] - means[c]) ** 2 / var[c]).sum(axis=1)
        log_density = -0.5 * (d * gmm._LOG_2PI + np.log(var).sum(axis=1) + quad)
        with np.errstate(divide="ignore"):
            log_joint = log_density + np.log(weights)
        norm = unflushed_logsumexp(log_joint, axis=1)
        return log_joint - norm[:, None], norm

    def m_step_variances(resp, means, counts):
        shift = means.mean(axis=0)
        x = points - shift
        mu = means - shift
        second = (resp.T @ (x * x)) / counts[:, None]
        sq = second - mu * mu
        cancelled = (
            gmm._VARIANCE_CANCEL * second > np.maximum(sq, cfg.cov_floor)
        ).any(axis=1)
        for c in np.flatnonzero(cancelled):
            sq[c] = resp[:, c] @ (points - means[c]) ** 2 / counts[c]
        if cfg.covariance == "diagonal":
            return np.maximum(sq, cfg.cov_floor)
        return np.maximum(sq.mean(axis=1), cfg.cov_floor)

    trace = []
    subnormal = 0
    converged = False
    for _ in range(cfg.max_iter):
        log_resp, norm = log_responsibilities(means, variances, weights)
        trace.append(float(norm.sum()))
        if len(trace) >= 2 and trace[-1] - trace[-2] < cfg.tol:
            converged = True
            break
        resp = np.exp(log_resp)
        subnormal += int(np.count_nonzero((resp > 0) & (resp < TINY)))
        counts = resp.sum(axis=0)
        safe_counts = np.maximum(counts, TINY)
        weights = counts / n
        means = (resp.T @ points) / safe_counts[:, None]
        variances = m_step_variances(resp, means, safe_counts)
    if not converged:
        log_resp, norm = log_responsibilities(means, variances, weights)
        trace.append(float(norm.sum()))
    model = GmmModel(
        means=means,
        variances=variances,
        mixing_weights=weights,
        assignments=np.argmax(log_resp, axis=1),
        log_likelihood_trace=trace,
        covariance=cfg.covariance,
        converged=converged,
    )
    return model, subnormal


def separated_points(seed=0, blobs=6, per_blob=40, dim=117, spread=2.5):
    """Unit-noise blobs far enough apart in 117 dimensions that EM gives
    many points a subnormal responsibility for another blob's component."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(blobs, dim)) * spread
    return np.concatenate([c + rng.normal(size=(per_blob, dim)) for c in centers])


def blob_points(seed=0, centers=((0.0, 0.0), (100.0, 100.0)), per_blob=5, scale=1.0):
    rng = np.random.default_rng(seed)
    rows = []
    labels = []
    for i, c in enumerate(centers):
        rows.append(np.asarray(c) + rng.normal(size=(per_blob, len(c))) * scale)
        labels += [i] * per_blob
    return np.vstack(rows), np.array(labels)


class TestGmmFit:
    def test_reports_convergence(self):
        points, _ = blob_points()
        converged = gmm_fit(points, GmmConfig(k=2, seed=0))
        assert converged.converged is True
        assert len(converged.log_likelihood_trace) <= 200
        capped = gmm_fit(points, GmmConfig(k=2, seed=0, max_iter=1))
        assert capped.converged is False
        assert len(capped.log_likelihood_trace) == 2

    def test_separates_far_blobs(self):
        points, labels = blob_points()
        model = gmm_fit(points, GmmConfig(k=2, seed=0))
        # the two blobs must land in two distinct pure components
        blob0 = set(model.assignments[labels == 0])
        blob1 = set(model.assignments[labels == 1])
        assert len(blob0) == 1 and len(blob1) == 1
        assert blob0 != blob1

    def test_k1_recovers_sample_mean(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(12, 3))
        model = gmm_fit(points, GmmConfig(k=1, seed=0))
        assert np.max(np.abs(model.means[0] - points.mean(axis=0))) <= 1e-10
        assert np.all(model.assignments == 0)
        assert model.mixing_weights[0] == 1.0

    @pytest.mark.parametrize("covariance", ["diagonal", "spherical"])
    def test_matches_reference_em(self, covariance):
        rng = np.random.default_rng(7)
        points = rng.normal(size=(10, 2))
        cfg = GmmConfig(k=2, covariance=covariance, seed=3)
        model = gmm_fit(points, cfg)
        means, variances, weights, resp, trace = reference_em(points, cfg)
        assert len(model.log_likelihood_trace) == len(trace)
        assert np.max(np.abs(np.array(model.log_likelihood_trace) - trace)) <= 1e-8
        assert np.max(np.abs(model.means - means)) <= 1e-8
        assert np.max(np.abs(model.variances - variances)) <= 1e-8
        assert np.max(np.abs(model.mixing_weights - weights)) <= 1e-8
        assert np.max(np.abs(responsibilities(model, points) - resp)) <= 1e-8

    @pytest.mark.parametrize("covariance", ["diagonal", "spherical"])
    def test_matches_reference_em_with_shared_constant_block(self, covariance):
        # Groups 1e5 apart with a small spread, plus a block of columns that
        # is constant within each group (like a frozen POS block): the
        # expanded variances cancel in the spread columns and sit at zero,
        # below the floor, in the constant ones.
        rng = np.random.default_rng(21)
        groups, per_group, free, fixed = 3, 10, 4, 3
        rows = []
        for g in range(groups):
            center = rng.normal(size=free) * 1e5
            spread = center + rng.normal(size=(per_group, free)) * 0.1
            block = np.tile(rng.normal(size=fixed), (per_group, 1))
            rows.append(np.hstack([spread, block]))
        points = np.vstack(rows)
        cfg = GmmConfig(k=groups, covariance=covariance, seed=2)
        model = gmm_fit(points, cfg)
        means, variances, weights, resp, trace = reference_em(points, cfg)
        assert len(model.log_likelihood_trace) == len(trace)
        assert np.max(np.abs(np.array(model.log_likelihood_trace) - trace)) <= 1e-8
        assert np.max(np.abs(model.means - means)) <= 1e-8
        assert np.max(np.abs(model.variances - variances)) <= 1e-8
        assert np.max(np.abs(model.mixing_weights - weights)) <= 1e-8
        assert np.max(np.abs(responsibilities(model, points) - resp)) <= 1e-8

    @pytest.mark.parametrize("seed", [0, 31, 36, 37, 39, 64, 71, 96, 98])
    def test_trace_monotone_on_cancellation_prone_fits(self, seed):
        # acceptance #4's data at n=20, dim=50, k=5, on the seeds where an
        # unguarded E-step expansion broke monotonicity
        n, dim, k = 20, 50, 5
        points = np.random.default_rng((seed, n, dim, k)).normal(size=(n, dim))
        trace = np.asarray(gmm_fit(points, GmmConfig(k=k, seed=seed)).log_likelihood_trace)
        assert np.all(np.diff(trace) >= -MONOTONE_SLACK)

    @pytest.mark.parametrize("covariance", ["diagonal", "spherical"])
    @pytest.mark.parametrize("seed", range(5))
    def test_trace_monotone(self, covariance, seed):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(30, 4)) * rng.uniform(0.5, 3.0)
        model = gmm_fit(points, GmmConfig(k=3, covariance=covariance, seed=seed))
        trace = model.log_likelihood_trace
        assert all(b >= a - MONOTONE_SLACK for a, b in zip(trace, trace[1:]))

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(20, 3))
        cfg = GmmConfig(k=3, seed=11)
        a = gmm_fit(points, cfg)
        b = gmm_fit(points, cfg)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.variances, b.variances)
        assert np.array_equal(a.assignments, b.assignments)
        assert a.log_likelihood_trace == b.log_likelihood_trace

    def test_identity_permutation_refit_is_identical(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(15, 2))
        cfg = GmmConfig(k=2, seed=5)
        a = gmm_fit(points, cfg)
        b = gmm_fit(points[np.arange(15)], cfg)
        assert np.array_equal(a.assignments, b.assignments)
        assert np.array_equal(a.means, b.means)

    def test_duplicate_points_hit_variance_floor(self):
        points = np.tile([2.0, -1.0], (6, 1))
        cfg = GmmConfig(k=2, seed=0, cov_floor=1e-6)
        model = gmm_fit(points, cfg)
        assert np.all(model.variances == cfg.cov_floor)
        assert np.isfinite(model.log_likelihood_trace).all()

    def test_mixing_weights_sum_to_one(self):
        rng = np.random.default_rng(8)
        points = rng.normal(size=(40, 2))
        model = gmm_fit(points, GmmConfig(k=4, seed=1))
        assert abs(model.mixing_weights.sum() - 1.0) <= 1e-12

    def test_spherical_variance_shape(self):
        rng = np.random.default_rng(9)
        points = rng.normal(size=(10, 3))
        model = gmm_fit(points, GmmConfig(k=2, covariance="spherical", seed=0))
        assert model.variances.shape == (2,)

    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            gmm_fit(np.zeros((2, 3)), GmmConfig(k=3, seed=0))

    def test_non_finite_points(self):
        points = np.array([[0.0, np.nan], [1.0, 2.0]])
        with pytest.raises(NonFiniteInputError):
            gmm_fit(points, GmmConfig(k=1, seed=0))

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(DimensionMismatchError):
            gmm_fit(np.zeros(5), GmmConfig(k=1, seed=0))


class TestSubnormalFlush:
    @pytest.mark.parametrize("max_iter", [4, 200])
    @pytest.mark.parametrize("covariance", ["diagonal", "spherical"])
    def test_fit_matches_the_unflushed_loop_bit_for_bit(self, covariance, max_iter):
        points = separated_points()
        cfg = GmmConfig(k=8, covariance=covariance, seed=3, max_iter=max_iter)
        expected, subnormal = unflushed_em(points, cfg)
        assert subnormal > 0
        model = gmm_fit(points, cfg)
        assert model.converged is expected.converged
        assert model.log_likelihood_trace == expected.log_likelihood_trace
        for name in ("means", "variances", "mixing_weights", "assignments"):
            assert np.array_equal(getattr(model, name), getattr(expected, name)), name

    @pytest.mark.parametrize("covariance", ["diagonal", "spherical"])
    def test_dead_component_keeps_the_unflushed_m_step(self, covariance):
        rng = np.random.default_rng(11)
        points = rng.normal(size=(60, 117)) * 3.0
        # columns 0 and 1 hold ordinary responsibilities and some in the
        # subnormal range; column 2 has nothing above 2^-900 (dead)
        log_resp = np.log(rng.dirichlet(np.ones(2), size=60))
        log_resp[::3, 0] = rng.uniform(-740.0, -700.0, size=20)
        log_resp = np.column_stack([log_resp, rng.uniform(-740.0, -650.0, size=60)])
        exact = np.exp(log_resp)
        assert np.any((exact[:, 0] > 0) & (exact[:, 0] < TINY))
        assert np.any((exact[:, 2] > 0) & (exact[:, 2] < TINY))

        resp = gmm._m_step_responsibilities(log_resp)
        assert np.array_equal(resp[:, :2], np.where(log_resp[:, :2] < LOG_TINY, 0.0, exact[:, :2]))
        assert np.array_equal(resp[:, 2], exact[:, 2])

        cfg = GmmConfig(k=3, covariance=covariance, seed=0)

        def m_step(resp):
            counts = np.maximum(resp.sum(axis=0), TINY)
            means = (resp.T @ points) / counts[:, None]
            centred = gmm._centre(points, means)
            return means, gmm._m_step_variances(points, resp, means, counts, cfg, centred)

        means, variances = m_step(resp)
        expected_means, expected_variances = m_step(exact)
        assert np.array_equal(means, expected_means)
        assert np.array_equal(variances, expected_variances)
        # flushing the dead column would have moved its mean to 0 / tiny
        assert np.all(means[2] != 0.0)


class TestResponsibilities:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        points = rng.normal(size=(25, 3))
        model = gmm_fit(points, GmmConfig(k=3, seed=2))
        resp = responsibilities(model, points)
        assert resp.shape == (25, 3)
        assert np.max(np.abs(resp.sum(axis=1) - 1.0)) <= 1e-12
        assert np.all(resp >= 0)

    def test_permuting_points_permutes_rows(self):
        rng = np.random.default_rng(12)
        points = rng.normal(size=(18, 2))
        model = gmm_fit(points, GmmConfig(k=2, seed=0))
        perm = rng.permutation(18)
        direct = responsibilities(model, points[perm])
        assert np.array_equal(direct, responsibilities(model, points)[perm])


class TestPredict:
    """A fitted model's hard assignment of a point: the argmax of its
    E-step responsibilities, as gmm_fit assigns its training points."""

    def test_component_mean_maps_to_itself(self):
        points, _ = blob_points(seed=1)
        model = gmm_fit(points, GmmConfig(k=2, seed=0))
        assert np.argmax(responsibilities(model, model.means), axis=1).tolist() == [0, 1]

    def test_tie_breaks_to_lowest_index(self):
        model = GmmModel(
            means=np.zeros((2, 2)),
            variances=np.ones((2, 2)),
            mixing_weights=np.array([0.5, 0.5]),
            assignments=np.zeros(0, dtype=np.int64),
        )
        assert np.argmax(responsibilities(model, np.array([[3.0, -1.0]]))[0]) == 0

    def test_matches_density_oracle(self):
        rng = np.random.default_rng(10)
        points = rng.normal(size=(30, 3)) * 2.0
        model = gmm_fit(points, GmmConfig(k=3, seed=4))
        queries = rng.normal(size=(20, 3)) * 2.0
        predicted = np.argmax(responsibilities(model, queries), axis=1)
        for x, c_hat in zip(queries, predicted):
            log_joint = np.array(
                [
                    np.log(model.mixing_weights[c])
                    - 0.5
                    * np.sum(
                        np.log(2.0 * np.pi * model.variances[c])
                        + (x - model.means[c]) ** 2 / model.variances[c]
                    )
                    for c in range(model.k)
                ]
            )
            assert c_hat == int(np.argmax(log_joint))


class TestSeedInitialization:
    def test_means_are_input_points(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(9, 2))
        means, variances, weights = seed_initialization(points, GmmConfig(k=3, seed=1))
        for m in means:
            assert any(np.array_equal(m, p) for p in points)
        assert np.all(weights == 1.0 / 3.0)
        assert np.all(variances >= 1e-6)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(9, 2))
        cfg = GmmConfig(k=3, seed=1)
        a = seed_initialization(points, cfg)
        b = seed_initialization(points, cfg)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class RecordingRng:
    """A Generator stand-in that records the indices k-means++ draws and
    the weights of each weighted draw."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.drawn = []
        self.weights = []

    def integers(self, n):
        self.drawn.append(int(self.rng.integers(n)))
        return self.drawn[-1]

    def choice(self, n, p):
        self.weights.append(p.copy())
        self.drawn.append(int(self.rng.choice(n, p=p)))
        return self.drawn[-1]


def difference_kmeanspp(points, k, seed):
    """k-means++ with every squared distance summed from the difference
    of the rows: the indices it draws."""
    rng = np.random.default_rng(seed)
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = np.sum((points - points[chosen[0]]) ** 2, axis=1)
    for _ in range(1, k):
        total = d2.sum()
        idx = int(rng.integers(n)) if total <= 0.0 else int(rng.choice(n, p=d2 / total))
        chosen.append(idx)
        d2 = np.minimum(d2, np.sum((points - points[idx]) ** 2, axis=1))
    return chosen


def with_duplicates(rng, points, copies):
    """``points`` plus ``copies`` repeats of randomly chosen rows, shuffled."""
    extra = points[rng.integers(len(points), size=copies)]
    return rng.permutation(np.concatenate([points, extra]))


def seeding_clouds():
    """(name, points) clouds for the seeding tests, each seeded."""
    for seed in range(4):
        rng = np.random.default_rng(seed)
        yield f"normal-{seed}", with_duplicates(rng, rng.normal(size=(60, 117)), 20)
    for offset in (1e3, 1e4, 1e5, 1e6):
        rng = np.random.default_rng(int(np.log10(offset)))
        yield f"offset-{offset:g}", with_duplicates(rng, offset + rng.normal(size=(50, 8)), 15)
        # two tight blobs at -offset and +offset: within a blob the
        # squared distance keeps under CANCELLATION_SHARE of |x|^2 + |c|^2
        blobs = np.concatenate([-offset + rng.normal(size=(25, 8)), offset + rng.normal(size=(25, 8))])
        yield f"blobs-{offset:g}", with_duplicates(rng, blobs, 15)


CLOUDS = [pytest.param(points, id=name) for name, points in seeding_clouds()]


class TestKmeansppSeeding:
    @pytest.mark.parametrize("points", CLOUDS)
    @pytest.mark.parametrize("k_share", [0.2, 1.0])
    def test_matches_the_difference_form_index_for_index(self, points, k_share):
        k = max(1, round(k_share * len(points)))
        for seed in range(3):
            rng = RecordingRng(seed)
            centers = gmm._kmeanspp_centers(points, k, rng)
            assert rng.drawn == difference_kmeanspp(points, k, seed)
            assert np.array_equal(centers, points[rng.drawn])

    def test_blob_clouds_take_the_recompute_path(self):
        for name, points in seeding_clouds():
            if not name.startswith("blobs"):
                continue
            x = points - points.mean(axis=0)
            norms = np.einsum("ij,ij->i", x, x)
            d2 = np.sum((points - points[0]) ** 2, axis=1)
            near = (d2 > 0) & (d2 < CANCELLATION_SHARE * (norms + norms[0]))
            assert near.any(), name

    @pytest.mark.parametrize("points", CLOUDS)
    def test_duplicates_of_a_chosen_centre_get_exactly_zero(self, points):
        distinct = len(np.unique(points, axis=0))
        rng = RecordingRng(7)
        gmm._kmeanspp_centers(points, len(points), rng)
        # one weighted draw per new centre until every distinct row is chosen
        assert len(rng.weights) == distinct - 1
        for i, p in enumerate(rng.weights):
            for c in rng.drawn[: i + 1]:
                assert np.all(p[np.all(points == points[c], axis=1)] == 0.0)
            assert np.all(p[~np.isin(np.arange(len(points)), rng.drawn[: i + 1])] >= 0.0)
        # once every distinct row is chosen the draws are uniform
        assert len(rng.drawn) == len(points)


class TestFitBuffers:
    """Each fit's reused buffers stay inside it."""

    @pytest.mark.parametrize("covariance", ["diagonal", "spherical"])
    def test_fits_in_a_row_are_bit_equal(self, covariance):
        points = separated_points(blobs=4, per_blob=30, dim=20)
        other = np.random.default_rng(9).normal(size=(50, 7))
        cfg = GmmConfig(k=5, covariance=covariance, seed=2, max_iter=30)
        first = gmm_fit(points, cfg)
        fits = [gmm_fit(points, cfg)]
        gmm_fit(other, GmmConfig(k=3, covariance=covariance, seed=4))
        fits.append(gmm_fit(points, cfg))
        for model in fits:
            assert model.log_likelihood_trace == first.log_likelihood_trace
            for name in ("means", "variances", "mixing_weights", "assignments"):
                assert np.array_equal(getattr(model, name), getattr(first, name)), name

    def test_centre_into_buffers_matches_a_fresh_centre(self):
        rng = np.random.default_rng(1)
        points, means = rng.normal(size=(30, 6)), rng.normal(size=(4, 6))
        out = (np.full_like(points, np.nan), np.full_like(points, np.nan))
        centred = gmm._centre(points, means, out)
        assert centred[0] is out[0] and centred[1] is out[1]
        for a, b in zip(centred, gmm._centre(points, means), strict=True):
            assert np.array_equal(a, b)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0},
            {"k": 2, "covariance": "full"},
            {"k": 2, "tol": 0.0},
            {"k": 2, "cov_floor": 0.0},
            {"k": 2, "tol": float("nan")},
            {"k": 2, "tol": float("inf")},
            {"k": 2, "cov_floor": float("nan")},
            {"k": 2, "cov_floor": float("inf")},
            {"k": 2, "max_iter": 0},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            GmmConfig(**kwargs)


@settings(deadline=None, max_examples=30)
@given(
    seed=st.integers(0, 2**31),
    n=st.integers(4, 25),
    dim=st.integers(1, 4),
    k=st.integers(1, 3),
)
def test_trace_monotone_property(seed, n, dim, k):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(max(n, k), dim)) * rng.uniform(0.1, 5.0)
    model = gmm_fit(points, GmmConfig(k=k, seed=seed, max_iter=40))
    trace = model.log_likelihood_trace
    assert all(b >= a - MONOTONE_SLACK for a, b in zip(trace, trace[1:]))
