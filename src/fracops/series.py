"""Truncated power series with complex coefficients, plus stock test functions.

A PowerSeries stores the coefficients c_0..c_N of a polynomial truncation
and evaluates by Horner's scheme on scalars or arrays; evaluate_many runs
that scheme once for several series at one shared point set, bit-equal to
each series' own evaluate, so the Python loop over the coefficients is
paid once per caller and starts at the last nonzero coefficient, which
skips the zero tail of z*exp(z)-type inputs bit for bit. Every stock input
(Koebe-type powers, z*exp(z), confluent and Lerch-type hypergeometric
inputs) is declared once in STOCK_INPUTS as hypergeometric rows, which
both make_builtin and the closed forms in fracdiff read; make_builtin
builds every builtin truncation, a stock input by one real ratio
recurrence, so small integer cases come out exact in float64.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_count
from .special import is_near_pole

# |c_0| and |c_1 - 1| at most this count as class-A normalized; Theta's c_0 check reads it too.
_NORMALIZED_TOL = 1e-12


@dataclass
class PowerSeries:
    """Polynomial truncation sum_{k=0}^{N} c_k z^k.

    coeffs holds c_0..c_N as complex128; treat instances as immutable.
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

    def evaluate(self, z):
        """Horner evaluation at a complex scalar or ndarray of points: evaluate_many on one series."""
        z = np.asarray(z, dtype=np.complex128)
        out = evaluate_many([self], z.reshape(-1))[0].reshape(z.shape)
        if out.ndim == 0:
            return complex(out)
        return out

    def derivative(self) -> "PowerSeries":
        if self.coeffs.size == 1:
            return PowerSeries(np.zeros(1))
        with np.errstate(over="ignore"):  # an inf is refused by PowerSeries
            coeffs = self.coeffs[1:] * np.arange(1, self.coeffs.size)
        try:
            return PowerSeries(coeffs)
        except DomainError:
            raise DomainError("the derivative's coefficients overflow float64") from None

    def is_normalized(self) -> bool:
        """c_0 = 0 and c_1 = 1 within 1e-12 (class-A normalization)."""
        if self.coeffs.size < 2:
            return False
        return abs(self.coeffs[0]) <= _NORMALIZED_TOL and abs(self.coeffs[1] - 1.0) <= _NORMALIZED_TOL

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
            check_count(order, "the order field", 0)
            arr = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
        except (KeyError, TypeError, ValueError, DomainError) as exc:
            raise DomainError(f"malformed series fixture: {exc}") from exc
        if arr.size != order + 1:
            raise DomainError(
                f"series fixture order field ({order}) disagrees with "
                f"coefficient count ({arr.size})"
            )
        return cls(arr)


def _last_nonzero(coeffs: np.ndarray) -> int:
    """Index of the last coefficient whose bits are not all zero; 0 if every one is +0.0+0.0j.

    Horner's accumulator is exactly +0+0j after a +0.0+0.0j coefficient at
    any finite point (0 z has +-0 parts, and +-0 + +0 is +0), as it is
    before the first step, so a run of them at the top can be skipped bit
    for bit. A -0.0 part ends the run. O(1) when the top coefficient is
    nonzero.
    """
    bits = coeffs.view(np.uint64)
    if bits[-2] or bits[-1]:
        return coeffs.size - 1
    nonzero = np.flatnonzero(bits)
    return int(nonzero[-1]) // 2 if nonzero.size else 0


#: evaluate_many builds its coefficient rows at most this many elements (128 KiB) at a time.
_ROW_CHUNK = 2**13


def evaluate_many(series, z) -> np.ndarray:
    """Horner values of several series at one shared 1-D point set, in one loop over the coefficients.

    Returns a (len(series), z.size) complex128 array. All values share one
    contiguous array multiplied in place, so a coefficient costs two NumPy
    calls whatever the number of series and points. Each series enters at
    its last nonzero coefficient (_last_nonzero): above it, and above a
    lower order, it gets zeros, which Horner turns into an exact +0. Each
    value takes its series' c_k from a row built at most _ROW_CHUNK
    elements at a time, never an order x points table. One series runs on
    scalar coefficients; one series at one point runs on NumPy scalars, as
    at a scalar z: NumPy rounds an in-place complex product on a length-1
    array differently from a longer one. So every value is bit-equal to
    its series' Horner value at that point over all its coefficients.
    """
    z = np.asarray(z, dtype=np.complex128)
    if z.ndim != 1:
        raise DomainError("evaluate_many takes one 1-D array of points")
    out = np.zeros((len(series), z.size), dtype=np.complex128)
    if not out.size:
        return out
    tops = [_last_nonzero(f.coeffs) for f in series]
    if len(series) == 1:
        acc, at = (out[0, 0], z[0, ...]) if z.size == 1 else (out[0], z)
        for c in series[0].coeffs[tops[0]::-1]:
            acc *= at
            acc += c
        out[0] = acc
        return out
    acc, at = out.reshape(-1), np.tile(z, len(series))
    step = max(1, _ROW_CHUNK // acc.size)
    for top in range(max(tops), -1, -step):
        bottom = max(0, top - step + 1)
        table = np.zeros((top - bottom + 1, len(series)), dtype=np.complex128)
        for j, (f, f_top) in enumerate(zip(series, tops)):
            hi = min(top, f_top)
            table[top - hi:, j] = f.coeffs[bottom:hi + 1][::-1]
        for row in np.repeat(table, z.size, axis=1):
            acc *= at
            acc += row
    return out


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
# Stock series: one table of hypergeometric rows, one coefficient recurrence
# ---------------------------------------------------------------------------

#: Largest truncation order make_builtin accepts; an order-N series holds
#: N + 1 complex128 coefficients (16 MiB at the cap).
MAX_ORDER = 2**20


def monomial_series(power: int, order: int | None = None) -> PowerSeries:
    """z**power as a truncated series of an integer order at most MAX_ORDER."""
    if isinstance(power, (bool, np.bool_)) or not 0 <= power < math.inf or power != int(power):
        raise DomainError("monomial power must be a nonnegative integer")
    n = int(power) if order is None else order
    check_count(n, "order", 0, MAX_ORDER)
    if n < power:
        raise DomainError("order too small to hold the monomial")
    c = np.zeros(n + 1, dtype=np.complex128)
    c[int(power)] = 1.0
    return PowerSeries(c)


def identity_series(order: int) -> PowerSeries:
    return monomial_series(1, max(order, 1))


def _positive(what: str, x: float) -> float:
    if x <= 0.0:
        raise DomainError(f"{what} must be positive, got {x}")
    return x


#: Every stock input is z * sum_k prod (upper)_k / (prod (lower)_k k!) (k + a)^-s z^k.
#: name -> (parameter names, parameters -> (upper, lower, s, a)).
STOCK_INPUTS = {
    "koebe": (("alpha",),
              lambda alpha: ((_positive("koebe exponent alpha", alpha),), (), 0.0, 1.0)),
    "exp_times_z": ((), lambda: ((), (), 0.0, 1.0)),
    "kummer": (("alpha", "lam"), lambda alpha, lam: ((alpha,), (lam,), 0.0, 1.0)),
    "hurwitz_lerch": (("alpha", "lam", "rho", "s", "a"),
                      lambda alpha, lam, rho, s, a: ((alpha, lam), (rho,), s,
                                                     _positive("hurwitz_lerch shift a", a))),
}


def stock_rows(kind: str, **params) -> tuple:
    """(upper, lower, s, a) of a stock input, after checking its parameters.

    Names the kind does not use are ignored. A missing or non-finite
    parameter, a lower parameter on a Gamma pole, Koebe alpha <= 0 and a
    Lerch shift a <= 0 raise DomainError.
    """
    if kind not in STOCK_INPUTS:
        raise DomainError(f"unknown stock input {kind!r}; choices: {sorted(STOCK_INPUTS)}")
    names, rows = STOCK_INPUTS[kind]
    missing = [name for name in names if params.get(name) is None]
    if missing:
        raise DomainError(f"stock input {kind!r} needs parameters: {', '.join(missing)}")
    values = [float(params[name]) for name in names]
    for name, x in zip(names, values):
        if not math.isfinite(x):
            raise DomainError(f"{kind} parameter {name} must be finite, got {x}")
    upper, lower, s, a = rows(*values)
    for x in lower:
        if is_near_pole(x):
            raise DomainError(f"{kind} denominator parameter {x} sits on a Gamma pole")
    return upper, lower, s, a


#: Series names the CLI offers: the identity and every stock input.
BUILTIN_SERIES = ("identity",) + tuple(STOCK_INPUTS)


def make_builtin(kind: str, order: int, **params) -> PowerSeries:
    """A builtin series truncated at z^order: the identity z or a stock input.

    The order must be an integer in [1, MAX_ORDER] for every kind. A stock input is
    built by its ratio recurrence c_1 = a^-s and c_{k+1} = c_k *
    prod (u + k - 1) (k - 1 + a)^s / (prod (l + k - 1) k (k + a)^s), in real
    float64 with the multiplication first, so small integer cases stay
    exact: Koebe alpha = 2 gives c_k = k and alpha = 1 gives c_k = 1 at any
    order. Its parameters are checked by stock_rows.
    """
    check_count(order, "order", 1, MAX_ORDER)
    if kind == "identity":
        return identity_series(order)
    upper, lower, s, a = stock_rows(kind, **params)
    k = np.arange(1.0, order)
    with np.errstate(over="ignore", invalid="ignore"):  # PowerSeries rejects a non-finite c_k
        num = ((k - 1.0 + a) / (k + a)) ** s
        for u in upper:
            num *= u + (k - 1.0)
        den = k.copy()
        for low in lower:
            den *= low + (k - 1.0)
        c = [float(np.float64(a) ** -s)]
    for n, d in zip(num.tolist(), den.tolist()):
        c.append(c[-1] * n / d)
    return PowerSeries([0.0] + c)


def koebe_series(alpha: float, order: int) -> PowerSeries:
    """z / (1-z)^alpha: c_k = (alpha)_{k-1} / (k-1)!; alpha = 2 is the Koebe function."""
    return make_builtin("koebe", order, alpha=alpha)


def exp_times_z_series(order: int) -> PowerSeries:
    """z * exp(z): c_k = 1 / (k-1)!."""
    return make_builtin("exp_times_z", order)


def kummer_series(alpha: float, lam: float, order: int) -> PowerSeries:
    """z * 1F1(alpha; lam; z): c_k = (alpha)_{k-1} / ((lam)_{k-1} (k-1)!)."""
    return make_builtin("kummer", order, alpha=alpha, lam=lam)


def hurwitz_lerch_series(alpha: float, lam: float, rho: float, s: float, a: float, order: int) -> PowerSeries:
    """z * sum_k (alpha)_k (lam)_k / ((rho)_k k! (k+a)^s) z^k; c_1 = a^-s, normalized only at a = 1."""
    return make_builtin("hurwitz_lerch", order, alpha=alpha, lam=lam, rho=rho, s=s, a=a)
