"""Small shared helpers: stable seed derivation, finiteness checks, a
stable log-sum-exp, the Euclidean distance kernel and an ordered map over
worker threads."""

import hashlib
import math
import os
import threading

import numpy as np

from .errors import DimensionMismatchError, NonFiniteInputError

# Squared distances whose Gram expansion keeps less than this share of
# |a|^2 + |b|^2 are summed again from the difference of the rows.
CANCELLATION_SHARE = 1e-3
# Entries recomputed from differences at once, bounding the temporary.
_RECOMPUTE_CHUNK = 512
# The log of the smallest normal float64: exp of anything below it is
# subnormal or zero.
LOG_TINY = math.log(np.finfo(np.float64).tiny)


def derive_seed(base_seed: int, *parts) -> int:
    """Derive a child seed from ``base_seed`` and a sequence of labels.

    Uses blake2b over the decimal base seed plus the ``repr`` of each part,
    separated by 0x1f, so the result is stable across processes and
    platforms.  Returns an unsigned 64-bit integer.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(base_seed)).encode("utf-8"))
    for part in parts:
        h.update(b"\x1f")
        h.update(repr(part).encode("utf-8"))
    return int.from_bytes(h.digest(), "little")


def map_sorted(fn, keys, workers: int = 1) -> dict:
    """``{key: fn(key)}`` for each of ``keys``, in sorted key order, with
    the calls run on ``min(workers, len(keys))`` threads.

    With one thread every call runs inline: no thread starts and no CPU
    affinity is set.  Otherwise worker i first binds itself to CPU i of
    the calling thread's affinity set (in turn, when there are more
    workers than CPUs), and runs unbound where ``os.sched_setaffinity``
    is missing or raises ``OSError``: a kernel that does not balance load
    between CPUs keeps a thread on the CPU it was created on.  On Linux
    the call binds the calling thread only, so this thread's affinity
    never changes.  Workers take keys in sorted order.  When calls raise,
    the error of the first failing key in sorted order is raised here,
    once every worker has stopped; no key is taken after a failure, as
    every key left comes after the failing one.
    """
    keys = sorted(keys)
    workers = min(workers, len(keys))
    if workers <= 1:
        return {key: fn(key) for key in keys}
    setaffinity = getattr(os, "sched_setaffinity", None)
    cpus = sorted(os.sched_getaffinity(0)) if setaffinity is not None else []
    todo = iter(keys)
    lock = threading.Lock()
    results, errors = {}, {}

    def work(index):
        if cpus:
            try:
                setaffinity(0, {cpus[index % len(cpus)]})
            except OSError:
                pass
        while True:
            with lock:
                key = None if errors else next(todo, None)
            if key is None:
                return
            try:
                results[key] = fn(key)
            except BaseException as exc:  # re-raised in the calling thread
                errors[key] = exc

    threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[min(errors)]
    return {key: results[key] for key in keys}


def require_finite(arr: np.ndarray, what: str) -> None:
    """Raise NonFiniteInputError if ``arr`` contains NaN or Inf."""
    if not np.isfinite(arr).all():
        raise NonFiniteInputError(f"{what} contains NaN or Inf")


def logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """``log(sum(exp(a)))`` along ``axis``, shifted by the maximum so large
    entries do not overflow.  A slice that is all ``-inf`` gives ``-inf``.

    A shifted entry below ``LOG_TINY`` is set to ``-inf`` before the
    ``exp``, so its term is summed as an exact zero rather than as a
    subnormal, which costs a microcode assist on some CPUs in every
    operation that reads or writes it.  No bit of the result changes:
    such a term is below 2^-1022, under half an ulp of any partial sum of
    2^-969 or more, so it rounds away once it meets one, and every slice
    holds the term exp(0) = 1.  The tests compare the result bit for bit
    with the unflushed formula.
    """
    a_max = np.max(a, axis=axis, keepdims=True)
    a_max[~np.isfinite(a_max)] = 0.0
    shifted = a - a_max
    np.putmask(shifted, shifted < LOG_TINY, -np.inf)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(shifted, out=shifted), axis=axis, keepdims=True)) + a_max
    return np.squeeze(out, axis=axis)


def pairwise_distances(x, y, center=None) -> np.ndarray:
    """Euclidean distances between the rows of x (n, d) and the rows of y
    (m, d), as an (n, m) array.

    Uses |a|^2 + |b|^2 - 2 a.b on rows taken relative to ``center``,
    which defaults to the midpoint of the two row means.  That default is
    the same for (x, y) as for (y, x), so swapping the arguments
    transposes the result exactly.  Where the expansion keeps less than
    CANCELLATION_SHARE of |a|^2 + |b|^2 (equal and near-equal rows) its
    digits have cancelled, and the squared distance is summed from the
    difference instead; identical rows give an exact zero.  Memory grows
    as n x m, not n x m x d.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2:
        raise ValueError("point sets must be 2-D arrays")
    if x.shape[1] != y.shape[1]:
        raise DimensionMismatchError(f"point sets have dims {x.shape[1]} and {y.shape[1]}")
    # entries near the float64 limit overflow here; the caller's check of
    # the costs reports that, so numpy should not warn on stderr as well
    with np.errstate(over="ignore", invalid="ignore"):
        if center is None:
            center = 0.5 * (x.mean(axis=0) + y.mean(axis=0))
        xc = x - center
        yc = y - center
        d2 = xc @ yc.T
        d2 *= -2.0
        raw = np.einsum("ij,ij->i", xc, xc)[:, None] + np.einsum("ij,ij->i", yc, yc)[None, :]
        del xc, yc
        d2 += raw
        raw *= CANCELLATION_SHARE
        rows, cols = np.nonzero(d2 <= raw)
        for s in range(0, rows.size, _RECOMPUTE_CHUNK):
            i, j = rows[s : s + _RECOMPUTE_CHUNK], cols[s : s + _RECOMPUTE_CHUNK]
            diff = x[i] - y[j]
            d2[i, j] = np.einsum("ij,ij->i", diff, diff)
        return np.sqrt(np.maximum(d2, 0.0, out=d2), out=d2)
