"""Forward-mode arithmetic: ``bilinear._Dual`` and the maps the searches run on it.

Every dual operation must give the plain operation's value bit for bit, and
tangents (n, *value.shape), or (n, 1) for a scalar, that match central
differences along each of its n random real directions.  A plain operand has
no tangent.  A scalar's (n, 1) tangent meets only scalars and 1-d values,
which is all the search's maps combine it with.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thetalab.bilinear import _Dual, _galilean

STEP = 1e-6


def draw(rng, shape, n, dual, zeros=False, away_from_zero=False):
    """A value of this shape, as a ``_Dual`` along n directions when ``dual``.

    ``zeros`` sets some entries exactly to 0; ``away_from_zero`` keeps every
    modulus at least 1/2, for a divisor.
    """
    value = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if away_from_zero:
        value = value / np.abs(value) * (0.5 + np.abs(rng.standard_normal(shape)))
    if zeros:
        value = value * (rng.random(shape) < 0.5)
    value = complex(value) if shape == () else value
    if not dual:
        return value
    tangents = (n, *(shape or (1,)))
    return _Dual(value, rng.standard_normal(tangents) + 1j * rng.standard_normal(tangents))


def moved(x, k, step):
    """The plain value of x moved by ``step`` along its k-th direction."""
    if not isinstance(x, _Dual):
        return x
    return x.value + step * x.tangent[k].reshape(np.shape(x.value))


def check(op, *args):
    """op on the dual args is op on their values, with central-difference tangents."""
    out = op(*args)
    plain = op(*(getattr(x, "value", x) for x in args))
    assert np.asarray(out.value).dtype == np.asarray(plain).dtype
    assert np.asarray(out.value).tobytes() == np.asarray(plain).tobytes()
    n = len(next(x.tangent for x in args if isinstance(x, _Dual)))
    assert out.tangent.shape == (n, *(np.shape(plain) or (1,)))
    for k in range(n):
        up, down = (op(*(moved(x, k, s) for x in args)) for s in (STEP, -STEP))
        want = (np.asarray(up) - np.asarray(down)) / (2.0 * STEP)
        scale = 1.0 + np.abs(want).max() + np.abs(np.asarray(plain)).max()
        assert np.abs(out.tangent[k] - want).max() <= 1e-7 * scale, k


BINARY = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
}
# (first, second) operand: dual or plain, and its shape
PAIRS = [
    (("dual", ()), ("dual", ())), (("dual", (3,)), ("dual", (3,))),
    (("dual", (2, 3)), ("dual", (2, 3))),
    (("dual", ()), ("dual", (3,))), (("dual", (3,)), ("dual", ())),
    (("dual", (2, 3)), ("plain", (2, 3))), (("plain", (3,)), ("dual", (3,))),
    (("dual", ()), ("plain", (3,))), (("plain", ()), ("dual", (3,))),
    (("dual", (3,)), ("plain", ())), (("dual", (2, 3)), ("plain", ())),
]


@pytest.mark.parametrize("name", sorted(BINARY))
@pytest.mark.parametrize("pair", PAIRS, ids=lambda p: f"{p[0][0]}{p[0][1]}-{p[1][0]}{p[1][1]}")
@settings(max_examples=15)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4))
def test_binary_operations(name, pair, seed, n):
    (kind_a, shape_a), (kind_b, shape_b) = pair
    if name == "div" and kind_a == "plain":
        return  # a plain numerator over a dual is not an operation the maps use
    rng = np.random.default_rng(seed)
    a = draw(rng, shape_a, n, kind_a == "dual")
    b = draw(rng, shape_b, n, kind_b == "dual", away_from_zero=name == "div")
    check(BINARY[name], a, b)


@pytest.mark.parametrize("shape", [(), (3,), (2, 3)])
@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), zeros=st.booleans())
def test_negation_and_modulus(shape, seed, n, zeros):
    # the modulus's tangent is 0 at an exact zero, as are its central differences
    rng = np.random.default_rng(seed)
    a = draw(rng, shape, n, True, zeros=zeros)
    check(lambda x: -x, a)
    check(abs, a)


def test_modulus_tangent_is_zero_at_exact_zeros():
    a = _Dual(np.array([0j, 3 - 4j, 0j]), np.array([[1 + 2j, 1j, -3.0], [0.5, 2.0, 1j]]))
    out = abs(a)
    assert np.array_equal(out.value, [0.0, 5.0, 0.0])
    assert np.array_equal(out.tangent[:, [0, 2]], np.zeros((2, 2)))
    assert np.allclose(out.tangent[:, 1], [-4.0 / 5.0, 6.0 / 5.0])  # Re(conj(t) dt) / |t|


@pytest.mark.parametrize("shape", [(3,), (2, 3)])
@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4))
def test_sum(shape, seed, n):
    # a 1-d value sums to a scalar, whose tangent is (n, 1)
    check(lambda x: x.sum(axis=0), draw(np.random.default_rng(seed), shape, n, True))


@pytest.mark.parametrize("kinds", [("dual", "dual"), ("dual", "plain"), ("plain", "dual")])
@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4))
def test_vdot(kinds, seed, n):
    rng = np.random.default_rng(seed)
    a, b = (draw(rng, (3,), n, kind == "dual") for kind in kinds)
    check(np.vdot, a, b)


@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), zero=st.booleans())
def test_norm(seed, n, zero):
    # at the zero vector the norm's tangent is 0, as are its central differences
    a = draw(np.random.default_rng(seed), (3,), n, True)
    if zero:
        a = _Dual(np.zeros(3, dtype=complex), a.tangent)
    check(np.linalg.norm, a)


def test_other_numpy_functions_are_refused():
    a = _Dual(np.ones(3, dtype=complex), np.ones((2, 3)))
    with pytest.raises(TypeError):
        np.concatenate([a, a])
    with pytest.raises(TypeError):
        np.exp(a)


@pytest.mark.parametrize("case", ["generic", "zero-U", "plain-U-genus-1"])
def test_galilean_on_duals_matches_central_differences(case):
    """``_galilean``'s (V, W) on dual U, V, W, as the KP search's Jacobian runs it.

    At U = 0 the representative is (V, W) itself, and U is held there (a zero
    tangent): W's difference quotient along U grows like 1/step.  A genus-1
    search keeps U as given, a plain vector.
    """
    rng = np.random.default_rng(31)
    g, n = (1, 4) if case == "plain-U-genus-1" else (3, 6)
    U, V, W = (draw(rng, (g,), n, True) for _ in range(3))
    if case == "zero-U":
        U = _Dual(np.zeros(g, dtype=complex), np.zeros((n, g)))
    elif case == "plain-U-genus-1":
        U = U.value
    for index in (0, 1):
        check(lambda u, v, w: _galilean(u, v, w)[index], U, V, W)
