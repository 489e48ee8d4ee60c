"""Small shared numerical utilities: a central FD stencil, FFT derivatives."""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, _integer, _positive


def central_fd_stencil(deriv, order, h):
    """Smallest central stencil (offsets, weights) of even accuracy ``order``.

    Offsets -half..half, half = (deriv + order - 1) // 2; weight j is deriv!
    times the x^deriv coefficient of offset j's Lagrange basis polynomial,
    over h^deriv, and correctly rounded at h = 1 (up to 21 offsets).  A step
    at which h^deriv or a weight overflows or underflows (h = 1e300 or
    1e-200 for deriv = 2) raises DomainError.  Only a test uses it; it
    stays here as the benchmark tracer wraps the ``spectrum`` alias, until
    ROADMAP direction 2 moves it into the tests.
    """
    deriv = _integer(deriv, "derivative order deriv", least=1)
    order = _integer(order, "accuracy order", least=2)
    h = _positive(h, "step h")
    half = (deriv + order - 1) // 2
    if order % 2 or 2 * half + 1 > 21:
        raise DomainError(f"no central stencil of derivative {deriv}, order {order}")
    offsets = np.arange(-half, half + 1)
    weights = np.empty(offsets.size)
    for i, j in enumerate(offsets):
        others = offsets[offsets != j]
        weights[i] = math.factorial(deriv) * np.poly(others)[-1 - deriv] / np.prod(j - others)
    try:
        with np.errstate(all="raise"):
            return offsets, weights / h**deriv
    except (OverflowError, FloatingPointError):
        raise DomainError(f"step h={h} gives stencil weights that are not finite floats") from None


def spectral_derivative(samples):
    """First derivative of a 2*pi-periodic uniform sample set via FFT."""
    samples = np.asarray(samples, dtype=float)
    m = samples.size
    fk = np.fft.rfft(samples) * (1j * np.fft.rfftfreq(m, d=1.0 / m))
    if m % 2 == 0:
        fk[-1] = 0.0  # the unmatched Nyquist mode, as for every odd derivative
    return np.fft.irfft(fk, n=m)


def dealias_twothirds(samples):
    """Zero all modes above 2/3 of the Nyquist band (orszag rule)."""
    samples = np.asarray(samples, dtype=float)
    m = samples.size
    fk = np.fft.rfft(samples)
    kmax = (m // 2) * 2 // 3
    fk[kmax + 1 :] = 0.0
    return np.fft.irfft(fk, n=m)


def sine_coefficients(samples):
    """Coefficients g_n of samples(theta) = sum_n g_n sin(n theta), n>=1.

    The samples run along axis 0; the columns of a 2-d array are
    projected at once.
    """
    samples = np.asarray(samples, dtype=float)
    m = samples.shape[0]
    fk = np.fft.rfft(samples, axis=0)
    return -2.0 * fk.imag[1:] / m

