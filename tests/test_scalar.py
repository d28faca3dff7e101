import random
from fractions import Fraction

import pytest

from qdrinfeld.cyclotomic import CyclotomicNumber
from qdrinfeld.errors import NotAUnit, ParseError, SpecError
from qdrinfeld.scalar import Scalar, ScalarContext, parse_scalar

CTX = ScalarContext(4, ("q", "lam"))
PLAIN = ScalarContext(3)


def test_context_rejects_reserved_names():
    with pytest.raises(SpecError):
        ScalarContext(4, ("zeta",))
    with pytest.raises(SpecError):
        ScalarContext(4, ("v1",))
    with pytest.raises(SpecError):
        ScalarContext(4, ("q", "q"))


def test_laurent_monomials_are_units():
    q = Scalar.param(CTX, "q")
    lam = Scalar.param(CTX, "lam", 2)
    x = q * lam
    assert x.is_unit()
    assert x * x.inv() == Scalar.one(CTX)


def test_sums_are_not_units():
    q = Scalar.param(CTX, "q")
    with pytest.raises(NotAUnit):
        (q + Scalar.one(CTX)).inv()


def test_negative_power_via_inverse():
    q = Scalar.param(CTX, "q")
    assert q ** -2 == q.inv() * q.inv()


def test_zeta_lives_in_the_cyclotomic_part():
    z = Scalar.zeta(CTX, 4)
    assert z * z == -Scalar.one(CTX)
    assert z.is_constant()
    assert str(z) == "zeta(4)"


def test_substitute_into_parameter_free_context():
    target = ScalarContext(4)
    q = Scalar.param(CTX, "q")
    lam = Scalar.param(CTX, "lam")
    expr = q ** 2 * lam + Scalar.rational(CTX, 3)
    values = {"q": Scalar.zeta(target, 4), "lam": Scalar.one(target)}
    out = expr.substitute(values, target)
    assert out == Scalar.from_cyclotomic(target, Scalar.zeta(target, 4).constant_value() ** 2) + Scalar.rational(target, 3)
    assert out.is_constant()


def test_substitute_keeps_unmentioned_parameters():
    expr = Scalar.param(CTX, "q") * Scalar.param(CTX, "lam")
    out = expr.substitute({"lam": Scalar.rational(CTX, 2)}, CTX)
    assert out == Scalar.param(CTX, "q") * Scalar.rational(CTX, 2)


def test_constant_value_refuses_parameters():
    with pytest.raises(SpecError):
        Scalar.param(CTX, "q").constant_value()
    half = Scalar.rational(PLAIN, Fraction(1, 2)).constant_value()
    assert half == CyclotomicNumber.from_rational(PLAIN.conductor, Fraction(1, 2))


@pytest.mark.parametrize(
    "text",
    ["1", "-1", "q", "q^-1", "lam*q^2", "1/2", "zeta(4)", "q + 1", "3 - 2*q^-3", "(1+q)*lam"],
)
def test_parse_round_trip(text):
    value = parse_scalar(text, CTX)
    assert parse_scalar(str(value), CTX) == value


def test_parse_rejects_bad_power():
    with pytest.raises(ParseError):
        parse_scalar("q^", CTX)


def test_parse_rejects_unknown_name():
    with pytest.raises(ParseError):
        parse_scalar("mu", CTX)


def test_parse_rejects_bad_zeta_order():
    # conductor 4 scalars cannot host a primitive cube root
    with pytest.raises(ParseError):
        parse_scalar("zeta(3)", CTX)


def test_field_laws_randomized():
    rng = random.Random(11)

    def rand():
        total = Scalar.zero(CTX)
        for _ in range(rng.randint(1, 3)):
            term = Scalar.rational(CTX, rng.randint(-3, 3))
            term = term * Scalar.param(CTX, "q", rng.randint(-2, 2))
            term = term * Scalar.param(CTX, "lam", rng.randint(0, 2))
            total = total + term
        return total

    for _ in range(80):
        a, b, c = rand(), rand(), rand()
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a


def test_factor_str_parenthesizes_sums():
    q = Scalar.param(CTX, "q")
    assert (q + Scalar.one(CTX)).factor_str().startswith("(")
    assert q.factor_str() == "q"
