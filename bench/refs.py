"""Independent references for the benchmark's output checks.

Nothing here imports fracops. Coefficient samples come from mpmath at 30
digits, whole coefficient vectors from scipy.special.gammaln in vector
form, and values on points or grids from numpy.polynomial. The operator
formulas are written out again from their definitions:

    C(u)   = (g+1)^(b-t) G(X) G(t) / (G(X+t-b) G(b)),  X = (u+b-1)/(g+1) + 1
    Phi(k) = G(b1+t-b) / G(b1) * G(X_k) / G(X_k+t-b),  b1 = b/(g+1) + 1

for the image of z^u and the normalized multiplier. Every mpmath value is
cached per distinct input, so a reference is computed once per run.
"""

from __future__ import annotations

import functools
import math

import mpmath
import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.special import gammaln

EPS = float(np.finfo(np.float64).eps)
MP_DIGITS = 30

# The documented default screen grid: radii 0.1..0.9 and 0.99, 256 angles.
SCREEN_RADII = tuple(k / 10 for k in range(1, 10)) + (0.99,)
SCREEN_ANGLES = 256
# The documented default Bloch grid: radii 0.05..0.99 in steps of 0.01, then 0.999.
BLOCH_RADII = tuple(k / 100 for k in range(5, 100)) + (0.999,)
BLOCH_ANGLES = 128


def lgamma_tolerance(*args) -> float:
    """Relative error allowed for exp(sum of +-lgamma(args)) computed in float64.

    Each log-Gamma carries a rounding error proportional to its magnitude,
    and exp turns the absolute error of the sum into a relative error.
    """
    return 16.0 * EPS * (4.0 + sum(abs(math.lgamma(a)) for a in args))


def monomial_args(beta, tau, gamma, u):
    x = (u + beta - 1.0) / (gamma + 1.0) + 1.0
    return (x, x + tau - beta, tau, beta)


def phi_args(beta, tau, gamma, k):
    b1 = beta / (gamma + 1.0) + 1.0
    x = (k + beta - 1.0) / (gamma + 1.0) + 1.0
    return (b1, b1 + tau - beta, x, x + tau - beta)


@functools.lru_cache(maxsize=None)
def mp_monomial_coefficient(beta: float, tau: float, gamma: float, u: int) -> float:
    """C(u) at 30 digits, rounded to float64."""
    with mpmath.workdps(MP_DIGITS):
        b, t, g = mpmath.mpf(beta), mpmath.mpf(tau), mpmath.mpf(gamma)
        x = (u + b - 1) / (g + 1) + 1
        s = mpmath.loggamma(x) - mpmath.loggamma(x + t - b) + mpmath.loggamma(t) - mpmath.loggamma(b)
        return float((g + 1) ** (b - t) * mpmath.exp(s))


@functools.lru_cache(maxsize=None)
def mp_phi(beta: float, tau: float, gamma: float, k: int) -> float:
    """Phi(k) at 30 digits, rounded to float64."""
    with mpmath.workdps(MP_DIGITS):
        b, t, g = mpmath.mpf(beta), mpmath.mpf(tau), mpmath.mpf(gamma)
        b1 = b / (g + 1) + 1
        x = (k + b - 1) / (g + 1) + 1
        s = (mpmath.loggamma(b1 + t - b) - mpmath.loggamma(b1)
             + mpmath.loggamma(x) - mpmath.loggamma(x + t - b))
        return float(mpmath.exp(s))


def monomial_coefficients(beta, tau, gamma, u: np.ndarray) -> np.ndarray:
    """C(u) for an integer vector u, by vector gammaln."""
    x = (u + beta - 1.0) / (gamma + 1.0) + 1.0
    s = gammaln(x) - gammaln(x + tau - beta) + math.lgamma(tau) - math.lgamma(beta)
    return (gamma + 1.0) ** (beta - tau) * np.exp(s)


def phi_vector(beta, tau, gamma, k: np.ndarray) -> np.ndarray:
    """Phi(k) for an integer vector k >= 1, by vector gammaln."""
    b1 = beta / (gamma + 1.0) + 1.0
    x = (k + beta - 1.0) / (gamma + 1.0) + 1.0
    s = math.lgamma(b1 + tau - beta) - math.lgamma(b1) + gammaln(x) - gammaln(x + tau - beta)
    return np.exp(s)


def stock_coefficients(kind: str, order: int, **kw) -> np.ndarray:
    """c_0..c_order of a stock input, from Gamma-function closed forms."""
    k = np.arange(1, order + 1, dtype=np.float64)  # c_k for k >= 1; c_0 = 0
    m = k - 1.0                                      # c_k = (coefficient of z^m in f(z)/z)
    if kind == "koebe":
        a = kw["alpha"]
        logc = gammaln(a + m) - gammaln(a) - gammaln(m + 1.0)
    elif kind == "exp_times_z":
        logc = -gammaln(m + 1.0)
    elif kind == "kummer":
        a, lam = kw["alpha"], kw["lam"]
        logc = gammaln(a + m) - gammaln(a) - gammaln(lam + m) + gammaln(lam) - gammaln(m + 1.0)
    else:
        a, lam, rho, s, sh = kw["alpha"], kw["lam"], kw["rho"], kw["s"], kw["a"]
        logc = (gammaln(a + m) - gammaln(a) + gammaln(lam + m) - gammaln(lam)
                - gammaln(rho + m) + gammaln(rho) - gammaln(m + 1.0) - s * np.log(m + sh))
    out = np.zeros(order + 1, dtype=np.complex128)
    out[1:] = np.exp(logc)
    return out


def _order_for(z: complex, digits: float) -> int:
    """Truncation order whose geometric tail |z|^N is below 10^-digits."""
    return int(math.ceil(digits / -math.log10(abs(z)))) + 16


def image_value(beta, tau, gamma, kind: str, z: complex, **kw) -> complex:
    """Operator image of a stock input at z: termwise image summed by numpy.polynomial."""
    order = _order_for(z, 50.0)
    c = stock_coefficients(kind, order, **kw)
    c *= monomial_coefficients(beta, tau, gamma, np.arange(order + 1, dtype=np.float64))
    shift = (1.0 + (tau - beta)) * gamma
    return complex(np.exp(shift * np.log(complex(z))) * npoly.polyval(complex(z), c))


@functools.lru_cache(maxsize=None)
def mp_image_value(beta: float, tau: float, gamma: float, kind: str, z: complex, **kw) -> complex:
    """The same image value summed term by term at 30 digits."""
    order = _order_for(z, 34.0)
    with mpmath.workdps(MP_DIGITS):
        b, t, g = mpmath.mpf(beta), mpmath.mpf(tau), mpmath.mpf(gamma)
        zz = mpmath.mpc(z)
        front = (g + 1) ** (b - t) * mpmath.exp(mpmath.loggamma(t) - mpmath.loggamma(b))
        total = mpmath.mpc(0)
        for k in range(1, order + 1):
            m = k - 1
            if kind == "koebe":
                c = mpmath.rf(kw["alpha"], m) / mpmath.factorial(m)
            elif kind == "exp_times_z":
                c = 1 / mpmath.factorial(m)
            elif kind == "kummer":
                c = mpmath.rf(kw["alpha"], m) / (mpmath.rf(kw["lam"], m) * mpmath.factorial(m))
            else:
                c = (mpmath.rf(kw["alpha"], m) * mpmath.rf(kw["lam"], m)
                     / (mpmath.rf(kw["rho"], m) * mpmath.factorial(m) * mpmath.power(m + kw["a"], kw["s"])))
            x = (k + b - 1) / (g + 1) + 1
            ratio = mpmath.exp(mpmath.loggamma(x) - mpmath.loggamma(x + t - b))
            total += c * ratio * zz ** k
        shift = (1 + (t - b)) * g
        return complex(front * mpmath.exp(shift * mpmath.log(zz)) * total)


def criterion_partial_sums(beta, tau, gamma, mode: str, count: int) -> np.ndarray:
    """Partial sums of the rearranged criterion series, by vector gammaln."""
    k = np.arange(count, dtype=np.float64)

    def ratio(m):
        x = (m + beta - 1.0) / (gamma + 1.0) + 1.0
        return np.exp(gammaln(x) - gammaln(x + tau - beta))

    t = (k + 1.0) * ratio(k + 1.0)
    if mode == "theorem5_S":
        t = t + (k + 1.0) * (k + 2.0) * ratio(k + 2.0)
    return np.cumsum(t)


# ---------------------------------------------------------------------------
# Disk grids


def ring(r: float, angles: int) -> np.ndarray:
    theta = 2.0 * np.pi * np.arange(angles) / angles
    return r * np.exp(1j * theta)


def screen_quantity(coeffs: np.ndarray, z: np.ndarray, kind: str) -> np.ndarray:
    """Re(z f'/f) for 'starlike', Re(1 + z f''/f') for 'convex'."""
    d1 = npoly.polyder(coeffs)
    if kind == "starlike":
        return np.real(z * npoly.polyval(z, d1) / npoly.polyval(z, coeffs))
    d2 = npoly.polyder(d1)
    return np.real(1.0 + z * npoly.polyval(z, d2) / npoly.polyval(z, d1))


def grid_sup(coeffs: np.ndarray, radii, angles: int, radial_factor):
    """(max, per-point values) of |f'(z)| * radial_factor(|z|) over a polar grid."""
    d1 = npoly.polyder(coeffs)
    z = np.array([ring(r, angles) for r in radii])
    vals = np.abs(npoly.polyval(z, d1)) * np.array([radial_factor(r) for r in radii])[:, None]
    return float(vals.max()), vals, z


def compactness_norms(beta, tau, gamma, nmax: int, mu: float, radii) -> list:
    """Grid norms of Theta(z^n/n) with w = 1: Phi(n) * max_r r^(n-1) (1-r)^mu."""
    r = np.asarray(radii, dtype=np.float64)
    return [mp_phi(beta, tau, gamma, n) * float(np.max(r ** (n - 1) * (1.0 - r) ** mu))
            for n in range(2, nmax + 1)]
