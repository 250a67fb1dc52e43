import numpy as np
import pytest

from psda.gradcheck import (
    DEFAULT_STEP,
    DEFAULT_TOLERANCE,
    TERMS,
    GradCheckReport,
    _check_instance,
    fd_gradient,
    fd_rounding,
    relative_error,
    run_gradcheck,
)
from psda.otreg import OtParams


class TestFdGradient:
    def test_exact_on_quadratic(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 4))
        grad = fd_gradient(lambda a: float(np.sum(a**2)), x, step=1e-5)
        assert np.max(np.abs(grad - 2.0 * x)) <= 1e-9

    def test_linear_function(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3))
        c = rng.normal(size=(2, 3))
        grad = fd_gradient(lambda a: float(np.sum(c * a)), x, step=1e-5)
        assert np.max(np.abs(grad - c)) <= 1e-9


class TestRelativeError:
    def test_zero_against_zero(self):
        z = np.zeros((2, 2))
        assert relative_error(z, z) == 0.0

    def test_scale_invariant(self):
        rng = np.random.default_rng(2)
        g = rng.normal(size=(3, 3))
        f = g + rng.normal(size=(3, 3)) * 0.01
        assert relative_error(3.0 * g, 3.0 * f) == pytest.approx(
            relative_error(g, f), rel=1e-12
        )

    def test_total_disagreement_is_order_one(self):
        g = np.ones((2, 2))
        assert relative_error(g, np.zeros_like(g)) == pytest.approx(1.0)

    def test_floor_scales_small_gradients_only(self):
        noise = np.full((2, 2), 1e-11)
        assert relative_error(np.zeros((2, 2)), noise) == pytest.approx(1.0)
        assert relative_error(np.zeros((2, 2)), noise, floor=1e-6) == pytest.approx(2e-5)
        g = np.ones((2, 2))
        assert relative_error(g, 1.01 * g, floor=1e-6) == relative_error(g, 1.01 * g)

    def test_rounding_estimate(self):
        eps = np.finfo(np.float64).eps
        assert fd_rounding(0.0, 1e-5, 16) == pytest.approx(4 * eps / 1e-5)
        assert fd_rounding(-3.0, 1e-5, 16) == pytest.approx(12 * eps / 1e-5)


class TestRunGradcheck:
    def test_defaults_pass_with_no_skips(self):
        report = run_gradcheck(instances=5)
        assert isinstance(report, GradCheckReport)
        assert report.all_passed
        assert len(report.checks) == 15
        assert not any(c.skipped for c in report.checks)
        assert {c.term for c in report.checks} == set(TERMS)
        assert all(err <= report.tolerance for err in report.max_error.values())

    @pytest.mark.parametrize("term", TERMS)
    def test_corruption_fails_exactly_that_term(self, term):
        report = run_gradcheck(instances=2, corrupt=term)
        assert not report.all_passed
        failing = {c.term for c in report.checks if not (c.passed or c.skipped)}
        assert failing == {term}

    def test_wide_cloud_checks_the_spectral_term(self):
        # two rows in five dims leave three structural zeros in the
        # spectrum; the check runs on the two core singular values
        report = run_gradcheck(instances=3, rows=2, dim=5)
        assert report.all_passed
        assert len(report.checks) == 9
        assert not any(c.skipped for c in report.checks)
        assert all(err <= report.tolerance for err in report.max_error.values())
        corrupted = run_gradcheck(instances=3, rows=2, dim=5, corrupt="eig")
        failing = {c.term for c in corrupted.checks if not (c.passed or c.skipped)}
        assert failing == {"eig"}

    def test_tied_nonzero_core_skips_spectral_term(self):
        # orig = aug = 2Q with Q orthogonal: M = 4 I, four tied nonzero
        # singular values whose vectors the check cannot difference through
        # (transport and direction sit at their kinks here, so only the
        # spectral verdict is asserted)
        q, _ = np.linalg.qr(np.random.default_rng(50).normal(size=(4, 4)))
        orig = 2.0 * q
        checks = _check_instance(
            orig, orig.copy(), OtParams(), DEFAULT_STEP, DEFAULT_TOLERANCE, None, 0
        )
        assert [c.term for c in checks] == list(TERMS)
        eig = checks[1]
        assert eig.skipped and eig.passed
        assert "tied" in eig.reason

    def test_zero_direction_gradient_passes_at_identical_pools(self):
        # orig = aug = 2Q: the pooled vectors coincide, the analytic
        # gradient of 1 - cos is exactly zero and its central differences
        # are rounding alone (about 2e-11)
        q, _ = np.linalg.qr(np.random.default_rng(50).normal(size=(4, 4)))
        orig = 2.0 * q
        checks = _check_instance(
            orig, orig.copy(), OtParams(), DEFAULT_STEP, DEFAULT_TOLERANCE, None, 0
        )
        dis = checks[2]
        assert dis.term == "dis" and not dis.skipped
        assert dis.passed
        assert dis.relative_error <= DEFAULT_TOLERANCE

    def test_corrupted_direction_gradient_still_fails_on_the_defaults(self):
        report = run_gradcheck(corrupt="dis")
        failing = {c.term for c in report.checks if not (c.passed or c.skipped)}
        assert failing == {"dis"}
        assert sum(c.term == "dis" and not c.passed for c in report.checks) == report.instances

    def test_deterministic(self):
        a = run_gradcheck(instances=3)
        b = run_gradcheck(instances=3)
        assert [(c.term, c.relative_error) for c in a.checks] == [
            (c.term, c.relative_error) for c in b.checks
        ]

    def test_seed_changes_instances(self):
        a = run_gradcheck(instances=3, seed=0)
        b = run_gradcheck(instances=3, seed=1)
        assert [c.relative_error for c in a.checks] != [c.relative_error for c in b.checks]

    def test_invalid_corrupt_rejected(self):
        with pytest.raises(ValueError):
            run_gradcheck(instances=1, corrupt="spectral")

    def test_max_error_covers_all_terms(self):
        report = run_gradcheck(instances=2)
        assert set(report.max_error) == set(TERMS)
