import numpy as np
import pytest

from helpers import unflushed_logsumexp

from psda.errors import NonFiniteInputError
from psda.util import derive_seed, logsumexp, require_finite


def test_derive_seed_is_stable():
    assert derive_seed(0, "a", 1) == derive_seed(0, "a", 1)


def test_derive_seed_varies_with_each_input():
    base = derive_seed(3, "stage", "id")
    assert derive_seed(4, "stage", "id") != base
    assert derive_seed(3, "other", "id") != base
    assert derive_seed(3, "stage", "xx") != base


def test_derive_seed_separates_parts():
    # "ab" as one part must not collide with "a" then "b"
    assert derive_seed(0, "ab") != derive_seed(0, "a", "b")


def test_derive_seed_is_u64():
    for s in (0, 1, 2**63, -5):
        value = derive_seed(s, "x")
        assert isinstance(value, int)
        assert 0 <= value < 2**64


def test_derive_seed_accepts_structured_parts():
    tokens = ("the", "cat")
    assert derive_seed(0, "aa", tokens, 1) == derive_seed(0, "aa", ("the", "cat"), 1)
    assert derive_seed(0, "aa", tokens, 1) != derive_seed(0, "aa", tokens, 2)


def test_require_finite_passes_finite():
    require_finite(np.array([1.0, -2.0, 0.0]), "x")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_require_finite_rejects(bad):
    with pytest.raises(NonFiniteInputError, match="values"):
        require_finite(np.array([1.0, bad]), "values")


@pytest.mark.parametrize("axis", [0, 1])
def test_logsumexp_matches_direct_sum(axis):
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 5)) * 10.0
    direct = np.log(np.sum(np.exp(a), axis=axis))
    assert np.max(np.abs(logsumexp(a, axis=axis) - direct)) <= 1e-12


def test_logsumexp_large_entries_do_not_overflow():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 6))
    offset = 1.0e4
    expected = offset + np.log(np.sum(np.exp(a), axis=1))
    got = logsumexp(a + offset, axis=1)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - expected)) <= 1e-9


@pytest.mark.parametrize("axis", [0, 1])
def test_logsumexp_matches_the_unflushed_formula_bit_for_bit(axis):
    rng = np.random.default_rng(5)
    # most terms near the subnormal range of exp(a - max), -744.4 to
    # -708.4, a tenth of them ordinary, and one all -inf slice each way
    a = rng.uniform(-760.0, -690.0, size=(300, 55))
    ordinary = rng.random(size=a.shape) < 0.1
    a[ordinary] = rng.uniform(-5.0, 0.0, size=ordinary.sum())
    a[rng.random(size=a.shape) < 0.05] = -np.inf
    a[7] = -np.inf
    a[:, 11] = -np.inf
    a += rng.uniform(-50.0, 50.0, size=(300, 1))
    with np.errstate(invalid="ignore"):
        terms = np.exp(a - np.max(a, axis=axis, keepdims=True))
    assert np.count_nonzero((terms > 0) & (terms < np.finfo(np.float64).tiny)) > 500
    expected = unflushed_logsumexp(a, axis=axis)
    assert np.any(expected == -np.inf)
    assert np.array_equal(logsumexp(a, axis=axis), expected)


def test_logsumexp_all_minus_inf_rows():
    a = np.array([[-np.inf, -np.inf, -np.inf], [0.0, -np.inf, np.log(3.0)]])
    got = logsumexp(a, axis=1)
    assert got[0] == -np.inf
    assert got[1] == pytest.approx(np.log(4.0), abs=1e-15)
