"""Small shared numerical utilities: FD weights, spectral derivatives."""

from __future__ import annotations

import numpy as np


def fd_weights(nodes, x0, deriv):
    """Finite-difference weights on arbitrary nodes (Fornberg's algorithm).

    Returns w such that f^(deriv)(x0) ~ sum_i w[i] f(nodes[i]), exact for
    polynomials up to degree len(nodes)-1.
    """
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.size
    c = np.zeros((n, deriv + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = nodes[0] - x0
    for i in range(1, n):
        mn = min(i, deriv)
        c2 = 1.0
        c5 = c4
        c4 = nodes[i] - x0
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, deriv]


def central_fd_stencil(deriv, order, h):
    """Symmetric central stencil (offsets, weights) of given accuracy order."""
    half = (deriv + order + 1) // 2
    # ensure symmetry and the requested order for odd/even derivatives
    if (deriv % 2 == 0 and (deriv + order) % 2 != 0) or (
        deriv % 2 == 1 and (deriv + order) % 2 == 0
    ):
        half = (deriv + order) // 2 + 1
    offsets = np.arange(-half, half + 1)
    w = fd_weights(offsets * h, 0.0, deriv)
    return offsets, w


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

