"""Shared fixtures and independent numerical oracles for the test suite.

The oracle helpers here deliberately avoid the package's own operator
builders: convolution is a scalar loop, block matrices are assembled entry
by entry, and derivatives are finite differences, so that agreement with
the library is evidence rather than tautology.
"""

import numpy as np
import pytest
from hypothesis import settings

from blindcrb.channel import Channel, COMPLEX, REAL

# every run draws the same examples and writes no example database; each
# test keeps its own max_examples
settings.register_profile("blindcrb", derandomize=True, deadline=None, database=None)
settings.load_profile("blindcrb")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def chan_random():
    from blindcrb.channel import example_channel

    return example_channel("random")


@pytest.fixture
def chan_decaying():
    from blindcrb.channel import example_channel

    return example_channel("decaying")


def random_channel(rng, m, N, field, name="test"):
    C = rng.standard_normal((m, N))
    if field == COMPLEX:
        C = C + 1j * rng.standard_normal((m, N))
    return Channel(C, field=field, name=name)


def random_burst(rng, n, field):
    if field == COMPLEX:
        return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
    return rng.standard_normal(n)


def upper_band(A, kd=None):
    """LAPACK upper band storage ``(kd + 1, n)`` of the upper triangle of a
    square ``A``: ``A[i, j]`` in row ``kd + i - j`` (default ``kd = n - 1``)."""
    n = A.shape[0]
    kd = n - 1 if kd is None else kd
    band = np.zeros((kd + 1, n), dtype=A.dtype)
    for d in range(kd + 1):
        band[kd - d, d:] = np.diagonal(A, d)
    return band


def from_upper_band(band):
    """The upper-triangular ``n x n`` matrix held in upper band storage."""
    kd, n = band.shape[0] - 1, band.shape[1]
    A = np.zeros((n, n), dtype=band.dtype)
    for d in range(kd + 1):
        A[np.arange(n - d), np.arange(d, n)] = band[kd - d, d:]
    return A


def channel_with_common_roots(rng, m, N_I, roots, field, name="constructed"):
    """Channel built as (random irreducible part) * (monic factor with `roots`)."""
    hc = np.poly(np.asarray(roots, dtype=complex))
    HI = rng.standard_normal((m, N_I))
    if field == COMPLEX:
        HI = HI + 1j * rng.standard_normal((m, N_I))
    H = np.array([np.convolve(HI[l], hc) for l in range(m)])
    if field == REAL:
        assert np.abs(H.imag).max() < 1e-12
        H = H.real
    return Channel(H, field=field, name=name), HI, hc


def convolve_oracle(taps, A, M):
    """Direct scalar-loop convolution; observation stacked newest-first.

    Block r of the result is y(M-1-r) with y(k) = sum_i h(i) a(k-i) and the
    symbol vector newest-first, i.e. A[j] = a(M-1-j).
    """
    taps = np.atleast_2d(taps)
    m, N = taps.shape
    Y = np.zeros(M * m, dtype=np.result_type(taps, A))
    for r in range(M):
        for l in range(m):
            acc = 0.0
            for i in range(N):
                acc = acc + taps[l, i] * A[r + i]
            Y[r * m + l] = acc
    return Y


def finite_diff_cov(cov_fn, x0, i, h=1e-6):
    """Central finite difference of a matrix-valued function in coordinate i."""
    e = np.zeros_like(x0)
    e[i] = h
    return (cov_fn(x0 + e) - cov_fn(x0 - e)) / (2 * h)
