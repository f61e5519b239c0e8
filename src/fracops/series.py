"""Truncated power series with complex coefficients, plus stock test functions.

A PowerSeries stores the coefficients c_0..c_N of a polynomial truncation
and evaluates by Horner's scheme on scalars or arrays. The stock series
(identity, Koebe-type powers, z*exp(z), confluent and Lerch-type
hypergeometric inputs) are generated by coefficient recurrences so small
integer cases come out exact in float64.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .special import is_near_pole


@dataclass
class PowerSeries:
    """Polynomial truncation sum_{k=0}^{N} c_k z^k.

    coeffs holds c_0..c_N as complex128; treat instances as immutable
    (arithmetic returns new objects).
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=np.complex128, copy=True).reshape(-1)
        if arr.size == 0:
            raise DomainError("a power series needs at least the constant coefficient")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise DomainError("power series coefficients must be finite")
        self.coeffs = arr

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, z):
        return self.evaluate(z)

    def evaluate(self, z):
        """Horner evaluation at a complex scalar or ndarray of points."""
        z = np.asarray(z, dtype=np.complex128)
        out = np.zeros_like(z)[()]  # a numpy scalar for scalar z, where in-place ops rebind
        for c in self.coeffs[::-1]:
            out *= z
            out += c
        if out.ndim == 0:
            return complex(out)
        return out

    def derivative(self) -> "PowerSeries":
        if self.coeffs.size == 1:
            return PowerSeries(np.zeros(1))
        k = np.arange(1, self.coeffs.size)
        return PowerSeries(self.coeffs[1:] * k)

    def is_normalized(self, tol: float = 1e-12) -> bool:
        """c_0 = 0 and c_1 = 1 within tol (class-A normalization)."""
        if self.coeffs.size < 2:
            return False
        return abs(self.coeffs[0]) <= tol and abs(self.coeffs[1] - 1.0) <= tol

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        n = max(self.coeffs.size, other.coeffs.size)
        out = np.zeros(n, dtype=np.complex128)
        out[: self.coeffs.size] += self.coeffs
        out[: other.coeffs.size] += other.coeffs
        return PowerSeries(out)

    def __mul__(self, scalar) -> "PowerSeries":
        return PowerSeries(self.coeffs * complex(scalar))

    __rmul__ = __mul__

    def to_fixture_dict(self) -> dict:
        return {
            "coeffs": [[float(c.real), float(c.imag)] for c in self.coeffs],
            "order": self.order,
        }

    @classmethod
    def from_fixture_dict(cls, doc: dict) -> "PowerSeries":
        try:
            pairs = doc["coeffs"]
            order = doc["order"]
            arr = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed series fixture: {exc}") from exc
        if arr.size != order + 1:
            raise DomainError(
                f"series fixture order field ({order}) disagrees with "
                f"coefficient count ({arr.size})"
            )
        return cls(arr)


def save_series_fixture(ps: PowerSeries, path) -> None:
    with open(path, "w") as fh:
        json.dump(ps.to_fixture_dict(), fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_series_fixture(path) -> PowerSeries:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DomainError(f"series fixture is not valid JSON: {exc}") from exc
    return PowerSeries.from_fixture_dict(doc)


# ---------------------------------------------------------------------------
# Stock series (coefficient recurrences keep small cases exact)
# ---------------------------------------------------------------------------


def monomial_series(power: int, order: int | None = None) -> PowerSeries:
    """z**power as a truncated series."""
    if power < 0 or power != int(power):
        raise DomainError("monomial power must be a nonnegative integer")
    n = int(power) if order is None else int(order)
    if n < power:
        raise DomainError("order too small to hold the monomial")
    c = np.zeros(n + 1, dtype=np.complex128)
    c[int(power)] = 1.0
    return PowerSeries(c)


def identity_series(order: int = 1) -> PowerSeries:
    return monomial_series(1, max(order, 1))


def koebe_series(alpha: float, order: int) -> PowerSeries:
    """z / (1-z)^alpha truncated: c_k = (alpha)_{k-1} / (k-1)!.

    alpha = 2 gives the classical extremal function with c_k = k exactly;
    alpha = 1 gives the half-plane map z/(1-z) with all coefficients 1.
    """
    if order < 1:
        raise DomainError("order must be at least 1")
    if alpha <= 0:
        raise DomainError("koebe exponent alpha must be positive")
    c = np.zeros(order + 1, dtype=np.complex128)
    c[1] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # PowerSeries rejects a non-finite c_k
        for k in range(1, order):
            # c*(alpha+k-1)/k regrouped so the integer cases stay exact:
            # alpha=2 adds c*1/k = k/k = 1, alpha=1 adds 0, at any order.
            c[k + 1] = c[k] + c[k] * (alpha - 1.0) / k
    return PowerSeries(c)


def exp_times_z_series(order: int) -> PowerSeries:
    """z * exp(z) truncated: c_k = 1 / (k-1)!."""
    if order < 1:
        raise DomainError("order must be at least 1")
    c = np.zeros(order + 1, dtype=np.complex128)
    c[1] = 1.0
    for k in range(1, order):
        c[k + 1] = c[k] / k
    return PowerSeries(c)


def kummer_series(alpha: float, lam: float, order: int) -> PowerSeries:
    """z * 1F1(alpha; lam; z) truncated: c_k = (alpha)_{k-1} / ((lam)_{k-1} (k-1)!)."""
    if order < 1:
        raise DomainError("order must be at least 1")
    if is_near_pole(lam):
        raise DomainError(f"kummer denominator parameter {lam} sits on a Gamma pole")
    c = np.zeros(order + 1, dtype=np.complex128)
    c[1] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # PowerSeries rejects a non-finite c_k
        for k in range(1, order):
            c[k + 1] = c[k] * (alpha + k - 1.0) / ((lam + k - 1.0) * k)
    return PowerSeries(c)


def hurwitz_lerch_series(alpha: float, lam: float, rho: float, s: float, a: float, order: int) -> PowerSeries:
    """Lerch-type input z * sum_k (alpha)_k (lam)_k / ((rho)_k k! (k+a)^s) z^k.

    Stored so that c_{k+1} = (alpha)_k (lam)_k / ((rho)_k k! (k+a)^s); note
    c_1 = a^{-s}, so this input is normalized only when a = 1.
    """
    if order < 1:
        raise DomainError("order must be at least 1")
    if is_near_pole(rho):
        raise DomainError(f"denominator parameter {rho} sits on a Gamma pole")
    if a <= 0:
        raise DomainError("shift parameter a must be positive")
    a, s = np.float64(a), np.float64(s)  # numpy powers overflow to inf, not OverflowError
    c = np.zeros(order + 1, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):  # PowerSeries rejects a non-finite c_k
        c[1] = a ** (-s)
        for k in range(1, order):
            ratio = (alpha + k - 1.0) * (lam + k - 1.0) / ((rho + k - 1.0) * k)
            ratio *= ((k - 1.0 + a) / (k + a)) ** s
            c[k + 1] = c[k] * ratio
    return PowerSeries(c)


#: CLI-facing registry: name -> (factory, required parameter names)
BUILTIN_SERIES = {
    "identity": (identity_series, ()),
    "koebe": (koebe_series, ("alpha",)),
    "exp_times_z": (exp_times_z_series, ()),
    "kummer": (kummer_series, ("alpha", "lam")),
    "hurwitz_lerch": (hurwitz_lerch_series, ("alpha", "lam", "rho", "s", "a")),
}


def make_builtin(kind: str, order: int, **params) -> PowerSeries:
    """Construct a stock series by registry name (CLI entry point)."""
    if kind not in BUILTIN_SERIES:
        raise DomainError(f"unknown builtin series {kind!r}; choices: {sorted(BUILTIN_SERIES)}")
    factory, required = BUILTIN_SERIES[kind]
    missing = [name for name in required if params.get(name) is None]
    if missing:
        raise DomainError(f"builtin {kind!r} needs parameters: {', '.join(missing)}")
    kwargs = {name: params[name] for name in required}
    if kind == "identity":
        return factory(max(order, 1))
    return factory(order=order, **kwargs)
