import random
import warnings
from fractions import Fraction

import pytest

from qdrinfeld import cli
from qdrinfeld.algebra import NCElement, SpecCombination
from qdrinfeld.cyclotomic import CyclotomicNumber
from qdrinfeld.errors import NotAUnit, ParseError, SpecError
from qdrinfeld.hopf import check_hopf_axioms
from qdrinfeld.pbw import check_pbw
from qdrinfeld.scalar import Combination, LinearCombination, Scalar, ScalarContext, parse_scalar
from qdrinfeld.specfile import fixture_names, load_fixture, parse_nc_expression

from randspec import corpus, multi_letter_corpus
from test_hopf import _relation_certificates

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


def _double_loop_product(x, y):
    """The general product, term by term: the reference for the unit path."""
    out = {}
    for e1, c1 in x.terms.items():
        for e2, c2 in y.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return Scalar(x.ctx, out)


@pytest.mark.parametrize("conductor", [1, 6, 12])
@pytest.mark.parametrize("params", [(), ("t",)])
def test_unit_product_matches_the_double_loop(conductor, params):
    ctx = ScalarContext(conductor, params)
    rng = random.Random(conductor * 10 + len(params))

    def unit():
        coeff = CyclotomicNumber.from_rational(
            conductor, Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 3]))
        ) * CyclotomicNumber.zeta_power(conductor, rng.randrange(conductor))
        exps = tuple(rng.randint(-2, 2) for _ in params)
        return Scalar(ctx, {exps: coeff})

    def rand():
        total = Scalar.zero(ctx)
        for _ in range(rng.randint(2, 3)):
            total = total + unit()
        return total

    for _ in range(40):
        for a, b in ((unit(), unit()), (unit(), rand()), (rand(), rand())):
            product = a * b
            assert product == _double_loop_product(a, b)
            assert not any(c.is_zero() for c in product.terms.values())


def test_shared_one_is_unchanged_by_a_run(monkeypatch):
    loaded = []
    load = cli._load

    def keep(argument):
        loaded.append(load(argument))
        return loaded[-1]

    monkeypatch.setattr(cli, "_load", keep)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cli.run_all("ex1", 2)
    ctx = loaded[0].ctx
    assert Scalar.one(ctx) == Scalar.rational(ctx, 1)


def test_a_product_by_the_shared_one_is_the_other_factor():
    one = Scalar.one(CTX)
    for x in (Scalar.param(CTX, "q"), Scalar.zeta(CTX, 4) + Scalar.param(CTX, "q"), one):
        assert x * one is x
        assert one * x is x
    # a constant 1 from a constructor is on the shared terms, and one
    # built apart from them multiplies as before
    assert Scalar.rational(CTX, 1).terms is CTX._one_terms
    built = Scalar(CTX, {(0,) * CTX.rank: CyclotomicNumber.one(CTX.conductor)})
    q = Scalar.param(CTX, "q")
    assert built.terms is not CTX._one_terms
    assert built * q == q == q * built


def test_a_product_by_one_still_checks_the_context():
    other = ScalarContext(CTX.conductor * 2, CTX.params)
    x = Scalar.param(CTX, "q")
    for a, b in ((Scalar.one(other), x), (x, Scalar.one(other)),
                 (Scalar.one(CTX), Scalar.one(other))):
        with pytest.raises(SpecError):
            a * b


def test_factor_str_parenthesizes_sums():
    q = Scalar.param(CTX, "q")
    assert (q + Scalar.one(CTX)).factor_str().startswith("(")
    assert q.factor_str() == "q"


def test_outside_input_drops_zero_coefficients():
    # the public constructors filter: their terms may hold a zero
    spec = load_fixture("ex2")
    zero = Scalar.rational(spec.ctx, 0)
    assert zero.terms == {} and zero == Scalar.zero(spec.ctx)
    assert NCElement.monomial(spec, (0,), coeff=zero).terms == {}
    assert parse_nc_expression("0*v1", spec).terms == {}
    x = parse_nc_expression("v1 + lam*v2", spec)
    assert x.scale(zero).terms == {}
    assert Combination({0: Scalar.one(spec.ctx)}).scale(zero).terms == {}


def test_unit_monomials_skip_the_zero_filter(monkeypatch):
    # a monomial without coeff has the coefficient 1, so the filter of the
    # public constructor has nothing to drop.  ex1 fails strong vanishing,
    # and the reference sweep of its relation multiples, which its Hopf
    # check ran before the braiding decided it, builds the left flanks as
    # monomials; the Hopf check builds none, and the overlap oracle only
    # its chains
    spec = load_fixture("ex1")
    state = {"inside": False, "monomials": 0, "filtered": 0}
    init = LinearCombination.__init__
    monomial = NCElement.monomial.__func__

    def counted_init(self, terms=None):
        state["filtered"] += state["inside"]
        init(self, terms)

    def counted_monomial(cls, spec, word, g=None, coeff=None):
        if coeff is not None:
            return monomial(cls, spec, word, g, coeff)
        state["inside"] = True
        state["monomials"] += 1
        try:
            return monomial(cls, spec, word, g)
        finally:
            state["inside"] = False

    monkeypatch.setattr(LinearCombination, "__init__", counted_init)
    monkeypatch.setattr(NCElement, "monomial", classmethod(counted_monomial))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        check_hopf_axioms(spec, 3)
        _relation_certificates(spec, 3)
    assert state["monomials"] > 100
    assert state["filtered"] == 0
    with pytest.raises(SpecError, match="out of range"):
        NCElement.monomial(spec, (spec.n,))


def test_the_trusted_path_never_receives_a_zero(monkeypatch):
    # every build that skips the filter vouches for its terms; check that
    # on the fixtures end to end, on ex1's reference sweep of the relation
    # multiples (no command takes a coproduct now) and on the random
    # corpora; Scalar builds through its own override, and NCElement and
    # BraidedTensorElement through that of their base, so all three are
    # wrapped
    built = {}

    def checking(trusted):
        def checked(cls, space, terms):
            zeros = [key for key, coeff in terms.items() if coeff.is_zero()]
            assert not zeros, (cls.__name__, zeros)
            built[cls.__name__] = built.get(cls.__name__, 0) + 1
            return trusted(cls, space, terms)

        return classmethod(checked)

    for owner in (LinearCombination, Scalar, SpecCombination):
        monkeypatch.setattr(owner, "_trusted", checking(owner.__dict__["_trusted"].__func__))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name in fixture_names():
            cli.run_all(name, 3)
        _relation_certificates(load_fixture("ex1"), 2)
    for spec in corpus(60) + multi_letter_corpus(72, 1):
        check_pbw(spec)
    assert set(built) == {"Scalar", "NCElement", "BraidedTensorElement", "Combination"}
