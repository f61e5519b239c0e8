"""Property tests over the whole admissible parameter window."""

import cmath
import math

import pytest

from fracops.fracdiff import OperatorParams, apply_operator, closed_form_spec
from fracops.series import make_builtin
from fracops.special import POLE_GUARD

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402


@st.composite
def window_params(draw):
    """(beta, tau, gamma) with 0 < beta <= 1, POLE_GUARD <= tau <= beta, 0 <= gamma <= 50.

    tau <= beta and tau >= POLE_GUARD > 0 give 0 <= beta - tau < 1.
    """
    beta = draw(st.floats(POLE_GUARD, 1.0))
    tau = draw(st.floats(POLE_GUARD, beta))
    return beta, tau, draw(st.floats(0.0, 50.0))


# (kind, stock parameters, truncation order of the termwise image at |z| <= 0.5)
_STOCK = (
    ("koebe", {"alpha": 2.0}, 120),
    ("exp_times_z", {}, 60),
    ("kummer", {"alpha": 1.3, "lam": 0.9}, 60),
    ("hurwitz_lerch", {"alpha": 1.2, "lam": 0.8, "rho": 1.5, "s": 1.1, "a": 1.0}, 120),
)


@pytest.mark.parametrize("kind,kw,order", _STOCK, ids=[case[0] for case in _STOCK])
@settings(max_examples=50, deadline=None, derandomize=True)
@given(params=window_params(), r=st.floats(0.0, 0.5), angle=st.floats(-math.pi, math.pi))
@example(params=(1.0, 1e-9, 0.0), r=0.5, angle=0.0)  # beta - tau at its largest
@example(params=(1.0, 1e-9, 50.0), r=0.5, angle=2.1)
@example(params=(1.0, 1.0, 0.0), r=0.5, angle=math.pi)  # tau = beta = 1
@example(params=(1.0, 1.0, 50.0), r=0.5, angle=-2.5)
@example(params=(1e-9, 1e-9, 0.0), r=0.5, angle=1.0)  # the smallest beta and tau
@example(params=(1e-9, 1e-9, 50.0), r=0.5, angle=-1.0)
@example(params=(0.5, 1e-9, 25.0), r=0.5, angle=math.pi)
@example(params=(1.0, 0.5, 50.0), r=0.5, angle=0.3)
def test_closed_forms_match_the_termwise_image(kind, kw, order, params, r, angle):
    """Each closed form agrees with apply_operator on its truncated stock input to 1e-10."""
    p = OperatorParams(*params)
    z = r * cmath.exp(1j * angle)
    got = closed_form_spec(p, kind, **kw).evaluate(z)
    want = apply_operator(p, make_builtin(kind, order, **kw)).evaluate(z)
    assert abs(got - want) <= 1e-10 * abs(want) + 1e-300, (got, want)
