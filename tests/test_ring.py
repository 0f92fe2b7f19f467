"""Ring, series, and rational-function arithmetic."""

import copy
import functools
import pickle
import re
import sys
import threading
import time
import uuid
from functools import cmp_to_key

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.ring_series import rs_mul, rs_series_inversion
from sympy.polys.rings import ring

from divzeta.graph import CurveModel, parse_graph
from divzeta.measures import (
    PRIME_POWER_LIMIT,
    EulerCharacteristic,
    PointCount,
    SymbolicIdentity,
    leaf_images,
)
from divzeta.ring import (
    LEFSCHETZ_GEN,
    MODEL_ID_RE,
    Generator,
    Monomial,
    RationalFn,
    RingElem,
    TruncSeries,
    _dot,
    _mono_cmp,
    _mono_mul,
    _mono_sorted,
    lefschetz,
    one,
    parse_elem,
    sum_elems,
    sym_pow,
    zero,
)
from divzeta.strata import (
    compositions,
    divisor_class_from_strata,
    divisor_series_from_strata,
    punctured_sym_class,
    stable_pair_count,
    stable_pairs,
    torus_class,
)
from divzeta.zeta import ZetaKind, zeta_series

from conftest import vertex

L = lefschetz()


def c(model, degree):
    return sym_pow(model, degree)


# -- strategies ---------------------------------------------------------------

_GEN_POOL = [L, c("m", 1), c("m", 2), c("n", 1)]


@st.composite
def ring_elems(draw):
    """Random elements with at most 5 terms and exponents at most 4."""
    total = zero()
    for _ in range(draw(st.integers(0, 5))):
        term = RingElem.from_int(draw(st.integers(-6, 6)))
        for gen in draw(st.lists(st.sampled_from(_GEN_POOL), max_size=4)):
            term = term * gen
        total = total + term
    return total


@st.composite
def small_elems(draw):
    """At most 2 terms, each with at most 2 generator factors."""
    total = zero()
    for _ in range(draw(st.integers(0, 2))):
        term = RingElem.from_int(draw(st.integers(-3, 3)))
        for gen in draw(st.lists(st.sampled_from(_GEN_POOL), max_size=2)):
            term = term * gen
        total = total + term
    return total


@st.composite
def unit_series(draw, max_order=12):
    order = draw(st.integers(1, max_order))
    coeffs = [one()] + [draw(small_elems()) for _ in range(order)]
    return TruncSeries(coeffs)


@st.composite
def int_unit_series(draw, max_order=12):
    order = draw(st.integers(1, max_order))
    return TruncSeries([1] + draw(st.lists(st.integers(-9, 9), min_size=order, max_size=order)))


# -- RingElem -----------------------------------------------------------------


def test_monomial_products():
    assert L * L == L**2
    assert (L - 1) * (L + 1) == L**2 - 1
    assert c("m", 1) * L * c("m", 1) == c("m", 1) ** 2 * L


def test_unit_and_zero():
    x = c("m", 2) * L - 3
    assert x * one() == x
    assert x + zero() == x
    assert x * zero() == zero()
    assert x - x == 0


def test_sym_pow_degree_zero_is_unit():
    assert sym_pow("m", 0) == one()


@given(ring_elems(), ring_elems())
def test_mul_commutative(a, b):
    assert a * b == b * a


@given(ring_elems(), ring_elems(), ring_elems())
@settings(max_examples=40, deadline=None)
def test_mul_associative(a, b, c_):
    assert (a * b) * c_ == a * (b * c_)


@given(ring_elems(), ring_elems(), ring_elems())
@settings(max_examples=40, deadline=None)
def test_distributive(a, b, c_):
    assert a * (b + c_) == a * b + a * c_


# -- generators and monomials ---------------------------------------------------


def test_generators_are_interned_and_immutable():
    gen = Generator("m", 1)
    assert gen is Generator("m", 1) and Generator() is Generator(None, 0)
    assert (gen.model, gen.degree, gen.sort_key(), str(gen)) == ("m", 1, (1, "m", 1), "c[m,1]")
    assert copy.deepcopy(gen) is gen and pickle.loads(pickle.dumps(gen)) is gen
    for attempt in (lambda: setattr(gen, "degree", 2), lambda: setattr(gen, "extra", 0),
                    lambda: delattr(gen, "model")):
        with pytest.raises(AttributeError):
            attempt()
    assert (gen.model, gen.degree) == ("m", 1)
    for model, degree in [("1m", 1), ("", 1), ("m", 0), ("m", -1), (None, 2),
                          ("m", 1.0), ("m", True)]:
        with pytest.raises(ValueError):
            Generator(model, degree)
    x = c("m", 1) ** 2 * L - 3 * c("m", 10) * c("n", 1) + c("m.x_2", 3) - 7
    assert parse_elem(str(x)) == x


def test_generator_interning_is_atomic_under_threads():
    # Eight threads released together make the same fresh generators.  A
    # tiny switch interval makes a check-then-insert intern table hand two
    # threads different instances of one generator; then c - c is not 0.
    threads, degrees = 8, range(1, 101)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            model = f"race_{uuid.uuid4().hex}"
            barrier = threading.Barrier(threads, timeout=30)
            made = [None] * threads

            def make(slot):
                barrier.wait()
                made[slot] = [Generator(model, d) for d in degrees]

            workers = [threading.Thread(target=make, args=(slot,)) for slot in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
                assert not worker.is_alive()
            for gens in zip(*made):
                assert all(gen is gens[0] for gen in gens)
    finally:
        sys.setswitchinterval(interval)
    assert sym_pow(model, 1) - sym_pow(model, 1) == zero()


_MONO_GENS = [Generator(), Generator("m", 1), Generator("m", 2), Generator("m", 10),
              Generator("n", 1), Generator("n_2", 3)]


def _ascending(exps):
    return tuple(sorted(exps, key=lambda pair: pair[0].sort_key()))


@st.composite
def monomials(draw):
    """Ascending ``(generator, exponent)`` tuples without zero exponents."""
    exps = draw(st.dictionaries(st.sampled_from(_MONO_GENS), st.integers(1, 5)))
    return _ascending(exps.items())


def _dict_and_sort_product(a, b):
    """The reference product: add exponents in a dict, then sort."""
    exps = dict(a)
    for gen, exp in b:
        exps[gen] = exps.get(gen, 0) + exp
    return _ascending(exps.items())


@given(monomials(), monomials(), monomials())
def test_merge_product_matches_dict_and_sort(a, b, c_):
    product = _mono_mul(a, b)
    assert type(product) is tuple and product == _dict_and_sort_product(a, b)
    keys = [gen.sort_key() for gen, _ in product]
    assert keys == sorted(set(keys))
    assert all(exp > 0 for _, exp in product)
    assert product == _mono_mul(b, a)
    assert _mono_mul(product, c_) == _mono_mul(a, _mono_mul(b, c_))


_LEF, _M1, _M2, _N1 = Generator(), Generator("m", 1), Generator("m", 2), Generator("n", 1)


@pytest.mark.parametrize(
    "a, b",
    [
        (((_LEF, 2), (_M1, 1)), ((_M2, 1), (_N1, 3))),
        (((_M2, 1), (_N1, 3)), ((_LEF, 2), (_M1, 1))),
        (((_LEF, 1), (_M2, 1)), ((_M2, 2), (_N1, 1))),
        (((_LEF, 3),), ((_M2, 4),)),
        (((_M2, 4),), ((_LEF, 3),)),
    ],
    ids=["a-below-b", "b-below-a", "shared-at-the-boundary", "L-then-c", "c-then-L"],
)
def test_disjoint_monomials_multiply_by_concatenation(a, b):
    # When every generator of one side comes before every generator of the
    # other, the product is the two tuples joined; a generator on both sides
    # at the boundary still merges.  Either way the product is the merge's.
    product = _mono_mul(a, b)
    assert product == _dict_and_sort_product(a, b)
    keys = [gen.sort_key() for gen, _ in product]
    assert keys == sorted(set(keys))


def _display_key(gens):
    """A monomial's negated dense exponent vector over ``gens``, which run
    largest generator first: one sort key in place of ``_mono_cmp``."""

    def key(mono):
        exps = dict(mono)
        return tuple(-exps.get(gen, 0) for gen in gens)

    return key


def _packed_display_key(gens, base):
    """The same vector packed into one int, ``-sum(exp * base**rank)``:
    ``base`` exceeds every exponent, and ``rank`` counts from 0 at the
    smallest generator, so the largest is the most significant digit."""
    ranks = {gen: rank for rank, gen in enumerate(reversed(gens))}

    def key(mono):
        return -sum(exp * base ** ranks[gen] for gen, exp in mono)

    return key


@given(st.lists(monomials(), unique=True, max_size=8))
def test_negated_exponent_vector_sorts_in_display_order(monos):
    # _mono_cmp compares exponents on the largest generator where two
    # monomials differ, larger first; over one element's generators that is
    # the lexicographic order of the negated exponent vectors, and the order
    # of those vectors read as digits of one number.
    gens = sorted({gen for mono in monos for gen, _ in mono}, key=Generator.sort_key, reverse=True)
    base = 1 + max((exp for mono in monos for _, exp in mono), default=0)
    for key in (_display_key(gens), _packed_display_key(gens, base)):
        assert sorted(monos, key=key) == sorted(monos, key=cmp_to_key(_mono_cmp))
        for a in monos:
            for b in monos:
                assert (key(a) > key(b)) - (key(a) < key(b)) == _mono_cmp(a, b)


# -- canonical text -----------------------------------------------------------


@given(st.lists(monomials(), unique=True, max_size=8), st.lists(st.integers(-3, 3), min_size=8, max_size=8))
def test_display_order_is_stored(monos, coeffs):
    # in_display_order stores the terms in the order str prints them, and
    # keeps the element.
    elem = RingElem(dict(zip(monos, coeffs)))
    ordered = elem.in_display_order()
    assert ordered == elem and str(ordered) == str(elem)
    stored = [mono for mono, _ in ordered.terms()]
    assert stored == sorted(stored, key=cmp_to_key(_mono_cmp))


def test_canonical_strings():
    assert str(L**2 - L) == "L^2 - L"
    assert str(c("m", 2) + c("m", 1) * L) == "c[m,2] + c[m,1]*L"
    assert str(zero()) == "0"
    assert str(one() - L) == "-L + 1"
    assert str(2 * L + 3) == "2*L + 3"
    assert str(c("m", 1) ** 2 * L - 1) == "c[m,1]^2*L - 1"


def test_parse_fixed_strings():
    assert parse_elem("L^2 - L") == L**2 - L
    assert parse_elem("c[m,2] + c[m,1]*L") == c("m", 2) + c("m", 1) * L
    assert parse_elem("0") == zero()
    assert parse_elem("-L + 1") == 1 - L
    assert parse_elem("7") == RingElem.from_int(7)


def test_parse_rejects_garbage():
    for text in ["", "+L", "L +", "c[,1]", "L^0 ??", "2*", "L L"]:
        with pytest.raises(ValueError):
            parse_elem(text)


@given(ring_elems())
def test_parse_inverts_str(x):
    assert parse_elem(str(x)) == x


@given(st.from_regex(MODEL_ID_RE, fullmatch=True), st.integers(1, 10**6))
def test_parse_reads_every_model_id_the_grammar_allows(model, degree):
    # The tokenizer and MODEL_ID_RE accept the same ids.
    gen = sym_pow(model, degree)
    assert parse_elem(str(gen)) == gen


# -- parse_elem against the recursive-descent parser it replaced ---------------
#
# The reference, verbatim but for the name of its entry point: a tokenizer, a
# token cursor and two descent helpers.  It pins the language parse_elem
# accepts and the element it reads from each text.

_TOKEN_RE = re.compile(
    r"c\[(?P<model>[A-Za-z_][A-Za-z0-9_.-]*),(?P<degree>\d+)\]"
    r"|(?P<lef>L)"
    r"|(?P<num>\d+)"
    r"|(?P<op>[*^+\-])"
    r"|(?P<space>\s+)"
)


def _tokenize(text: str) -> list[tuple[str, object]]:
    tokens: list[tuple[str, object]] = []
    pos = 0
    for match in _TOKEN_RE.finditer(text):
        if match.start() != pos:
            raise ValueError(f"unexpected character {text[pos]!r} at position {pos}")
        pos = match.end()
        if match.group("space"):
            continue
        if match.group("model") is not None:
            tokens.append(("gen", Generator(match.group("model"), int(match.group("degree")))))
        elif match.group("lef"):
            tokens.append(("gen", LEFSCHETZ_GEN))
        elif match.group("num") is not None:
            tokens.append(("num", int(match.group("num"))))
        else:
            tokens.append(("op", match.group("op")))
    if pos != len(text):
        raise ValueError(f"unexpected character {text[pos]!r} at position {pos}")
    return tokens


class _TokenCursor:
    def __init__(self, tokens: list[tuple[str, object]]):
        self.tokens = tokens
        self.index = 0

    def peek(self) -> tuple[str, object] | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def take(self) -> tuple[str, object]:
        token = self.peek()
        if token is None:
            raise ValueError("unexpected end of element text")
        self.index += 1
        return token


def reference_parse_elem(text: str) -> RingElem:
    """Parse the canonical text form back into a ``RingElem``."""
    cursor = _TokenCursor(_tokenize(text))
    if cursor.peek() is None:
        raise ValueError("empty element text")
    total: dict[Monomial, int] = {}
    first = True
    while cursor.peek() is not None:
        sign = 1
        kind, value = cursor.peek()
        if kind == "op" and value in "+-":
            if value == "+" and first:
                raise ValueError("element text may not start with '+'")
            sign = -1 if value == "-" else 1
            cursor.take()
        elif not first:
            raise ValueError("expected '+' or '-' between terms")
        coeff, mono = _parse_term(cursor)
        total[mono] = total.get(mono, 0) + sign * coeff
        first = False
    return RingElem(total)


def _parse_term(cursor: _TokenCursor) -> tuple[int, Monomial]:
    kind, value = cursor.take()
    coeff = 1
    exps: dict[Generator, int] = {}
    if kind == "num":
        coeff = value
        nxt = cursor.peek()
        if nxt == ("op", "*"):
            cursor.take()
            _parse_factors(cursor, exps)
    elif kind == "gen":
        _parse_factors(cursor, exps, first=value)
    else:
        raise ValueError(f"expected a coefficient or generator, got {value!r}")
    return coeff, _mono_sorted(exps.items())


def _parse_factors(
    cursor: _TokenCursor, exps: dict[Generator, int], first: Generator | None = None
) -> None:
    gen = first
    while True:
        if gen is None:
            kind, value = cursor.take()
            if kind != "gen":
                raise ValueError(f"expected a generator, got {value!r}")
            gen = value
        exp = 1
        if cursor.peek() == ("op", "^"):
            cursor.take()
            kind, value = cursor.take()
            if kind != "num" or value < 1:
                raise ValueError("exponent must be a positive integer")
            exp = value
        exps[gen] = exps.get(gen, 0) + exp
        if cursor.peek() == ("op", "*"):
            cursor.take()
            gen = None
        else:
            return


# Whole tokens, broken tokens, and what lies between tokens.
_GENS = ["L", "c[m,1]", "c[m,2]", "c[n,1]", "c[m,01]", "c[a.b-c_9,3]"]
_BROKEN = ["c[m,0]", "c[,1]", "c [m,1]", "c[m,]", "c[1m,1]", "c[m,1", "c", "l"]
_NUMBERS = ["0", "1", "2", "007", "00", "12", "\u0663"]
_OPS = ["+", "-", "*", "^"]
_STRAY = ["?", "x", "(", "]", ",", "."]
_SPACES = ["", "", " ", "   ", "\t", "\n ", "\u00a0"]
_VOCABULARY = _GENS + _BROKEN + _NUMBERS + _OPS + _STRAY + _SPACES[2:]


# The kinds of token the grammar allows after each kind ("" is the start):
# ``g`` a generator, ``n`` a number, and each operator as itself.
_NEXT = {"": "-ng", "+": "ng", "-": "ng", "n": "*+-", "g": "^*+-", "*": "g", "^": "n"}
_OF_KIND = {"g": _GENS, "n": _NUMBERS}


def _text_from(choices):
    """A text over the token vocabulary, read from ``choices`` two bytes per
    token: the first picks the whitespace before the token; the second, below
    200, a token of a kind the grammar allows next, else any token at all."""
    words, kind = [], ""
    for space, pick in zip(choices[::2], choices[1::2]):
        if pick < 200:
            allowed = _NEXT[kind]
            kind = allowed[pick % len(allowed)]
            options = _OF_KIND.get(kind, [kind])
            token = options[pick // len(allowed) % len(options)]
        else:
            token = _VOCABULARY[pick % len(_VOCABULARY)]
        words.append(_SPACES[space % len(_SPACES)] + token)
    return "".join(words)


def _outcome(parse, text):
    """The element read from ``text``, or ``ValueError`` for a rejection."""
    try:
        return parse(text)
    except ValueError:
        return ValueError


@given(st.binary(max_size=24).map(_text_from))
@settings(max_examples=2000)
def test_parse_matches_the_descent_parser(text):
    assert _outcome(parse_elem, text) == _outcome(reference_parse_elem, text)


def test_parse_accepts_the_documented_superset():
    m1, m2 = c("m", 1), c("m", 2)
    for text, expected in [
        (" \t-L +\n1 ", 1 - L),
        ("L*c[m,1]*L^2 + L^3*c[m,1]", 2 * L**3 * m1),
        ("007*c[m,02]^01 - 0*L + 0", 7 * m2),
        ("-0", zero()),
        ("1 + 2 - 3", zero()),
        ("\u0663*L^\u0662", 3 * L**2),
    ]:
        assert parse_elem(text) == expected == reference_parse_elem(text), text
    for text in ["L^0", "L^00", "c[m,0]", "c[m, 1]", "1 2", "2*3", "L*2", "L^2^3",
                 "--L", "- -L", "L -", "+"]:
        for parse in (parse_elem, reference_parse_elem):
            with pytest.raises(ValueError):
                parse(text)


_LONG = 200_000


@pytest.mark.parametrize(
    "text, expected",
    [
        (" " * (_LONG - 1) + "?", ValueError),
        ("-" + " " * (_LONG - 2) + "?", ValueError),
        ("L" + "*" * (_LONG - 1), ValueError),
        ("L + " * (_LONG // 4 - 1) + "L", _LONG // 4 * L),
        ("L + " * (_LONG // 4), ValueError),
    ],
    ids=["spaces-then-junk", "sign-spaces-junk", "L-then-stars", "terms", "terms-then-sign"],
)
def test_parse_is_linear_on_long_texts(text, expected):
    start = time.perf_counter()
    outcome = _outcome(parse_elem, text)
    assert time.perf_counter() - start < 2.0
    assert outcome == expected


# -- TruncSeries --------------------------------------------------------------


def geometric(ratio, order):
    """1 + r t + r^2 t^2 + ...; independent of series_inverse."""
    coeffs = [one()]
    for _ in range(order):
        coeffs.append(coeffs[-1] * ratio)
    return TruncSeries(coeffs)


def test_series_mul_basic():
    order = 4
    one_plus_t = RationalFn([1, 1]).series(order)
    one_minus_t = RationalFn([1, -1]).series(order)
    assert one_plus_t * one_minus_t == RationalFn([1, 0, -1]).series(order)
    assert one_minus_t * geometric(one(), order) == RationalFn([one()]).series(order)


def test_series_mul_rational_pair_cancels():
    # (1-t)/(1-Lt) times (1-Lt)/(1-t) is the unit series.
    order = 6
    a = RationalFn([1, -1], [1, -L]).series(order)
    b = RationalFn([1, -L], [1, -1]).series(order)
    assert a * b == RationalFn([one()]).series(order)


def test_series_mul_order_mismatch():
    with pytest.raises(ValueError):
        RationalFn([one()]).series(3) * RationalFn([one()]).series(4)


def test_series_inverse_geometric():
    order = 6
    assert RationalFn([1, -1]).series(order).inverse() == geometric(one(), order)
    assert RationalFn([1, -L]).series(order).inverse() == geometric(L, order)


def test_series_inverse_quadratic_denominator():
    # 1/(1 - (L+1)t + t^2): f_d = (L+1) f_{d-1} - f_{d-2}, solved by hand.
    inv = RationalFn([1, -(L + 1), 1]).series(3).inverse()
    assert inv[0] == one()
    assert inv[1] == L + 1
    assert inv[2] == L**2 + 2 * L
    assert inv[3] == L**3 + 3 * L**2 + L - 1


@given(st.one_of(unit_series(), int_unit_series()))
@settings(max_examples=60, deadline=None)
def test_series_inverse_is_inverse(series):
    assert series * series.inverse() == RationalFn([one()]).series(series.order)


def test_series_pow():
    order = 4
    one_minus_t = RationalFn([1, -1]).series(order)
    assert one_minus_t**0 == RationalFn([one()]).series(order)
    assert one_minus_t**2 == RationalFn([1, -2, 1]).series(order)


_POWER_BASES = [
    (TruncSeries([1, -2, 3, 0, 5]), RationalFn([1]).series(4)),
    (TruncSeries([one(), L - 1, c("m", 1), zero(), 2 * L]), RationalFn([one()]).series(4)),
    (RationalFn([2, -1, 3], [1, 5]), RationalFn([1])),
    (RationalFn([one(), L - 1, c("m", 1)]), RationalFn([one()])),
    (L - c("m", 1) + 2, one()),
]


def _coefficient_types(value):
    if isinstance(value, RingElem):
        return [RingElem]
    if isinstance(value, RationalFn):
        return [type(x) for x in value.numerator + value.denominator]
    return [type(x) for x in value.coefficients()]


@pytest.mark.parametrize("base, unit", _POWER_BASES)
def test_pow_is_repeated_multiplication(base, unit):
    product = unit
    for exponent in range(8):
        power = base**exponent
        assert power == product, exponent
        assert _coefficient_types(power) == _coefficient_types(product), exponent
        product = product * base


@pytest.mark.parametrize("base, unit", _POWER_BASES)
def test_power_builds_its_unit_only_at_exponent_zero(base, unit, monkeypatch):
    # A series' unit is one expansion: a positive power builds none, and a
    # refused exponent none either, whatever the type.
    from divzeta import ring

    calls = []
    expand = ring._expand_coeffs
    monkeypatch.setattr(ring, "_expand_coeffs", lambda *args: calls.append(args) or expand(*args))
    assert base**3 == base * base * base and not calls
    for exponent in (-1, True):
        with pytest.raises(ValueError, match=f"^{_BAD_EXPONENT}$"):
            base**exponent
    assert not calls
    assert base**0 == unit
    assert len(calls) == isinstance(base, TruncSeries)


def test_series_pow_square_of_torus_zeta():
    # Squaring the expansion of (1-t)/(1-Lt); the t^2 coefficient is
    # 2*(L^2-L) + (L-1)^2 = 3L^2 - 4L + 1 by the Cauchy product done by hand.
    squared = RationalFn([1, -1], [1, -L]).series(4) ** 2
    assert squared[2] == 3 * L**2 - 4 * L + 1


# -- products against their naive definitions ---------------------------------

_KINDS = ("symbolic", "int", "mixed")


@st.composite
def sparse_coeffs(draw, kind, size):
    """``size`` coefficients, about half of them zero: ``RingElem`` for
    ``symbolic``, ``int`` for ``int``, and either, entry by entry, for ``mixed``."""
    coeffs = []
    for _ in range(size):
        if not draw(st.booleans()):
            coeffs.append(zero() if kind == "symbolic" else 0)
        elif kind == "int" or (kind == "mixed" and draw(st.booleans())):
            coeffs.append(draw(st.integers(-4, 4)))
        else:
            coeffs.append(draw(small_elems()))
    return coeffs


def _alternating(coeffs):
    """``f(-t)``: multiplied by ``f(t)``, every odd coefficient cancels."""
    return [x if d % 2 == 0 else -x for d, x in enumerate(coeffs)]


def _naive_sum(products):
    """A sum of pairwise products, in ``RingElem`` if any product is one."""
    products = list(products)
    if any(isinstance(p, RingElem) for p in products):
        return sum_elems(RingElem.from_int(p) if isinstance(p, int) else p for p in products)
    return sum(products)


def _naive_series_mul(a, b):
    return [_naive_sum(a[i] * b[d - i] for i in range(d + 1)) for d in range(a.order + 1)]


def _naive_inverse(a):
    inv = [a[0]]
    for d in range(1, a.order + 1):
        inv.append(-_naive_sum(a[i] * inv[d - i] for i in range(1, d + 1)))
    return inv


def _naive_poly_mul(a, b):
    x, y = a.numerator, b.numerator
    out = [0] * (len(x) + len(y) - 1)
    for i, u in enumerate(x):
        for j, v in enumerate(y):
            out[i + j] = out[i + j] + u * v
    return out


def _same(coeffs, expected):
    """Equal values, and one ring: ``int`` exactly where the reference is."""
    expected = list(expected)
    assert list(coeffs) == expected
    assert [type(c) is int for c in coeffs] == [type(c) is int for c in expected]


def _in_one_ring(coeffs):
    """All ``RingElem`` or all ``int``, as the public constructors leave them."""
    assert all(isinstance(c, RingElem) for c in coeffs) or all(type(c) is int for c in coeffs)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_products_match_the_naive_definitions(data):
    order = data.draw(st.integers(0, 7))
    kind_a, kind_b = data.draw(st.sampled_from(_KINDS)), data.draw(st.sampled_from(_KINDS))
    raw_a = data.draw(sparse_coeffs(kind_a, order + 1))
    raw_b = data.draw(sparse_coeffs(kind_b, data.draw(st.integers(0, order + 1))))
    for x, y in [(raw_a, raw_b), (raw_a, _alternating(raw_a))]:
        y = y or [0]
        a, b = TruncSeries(x), RationalFn(y).series(order)
        _same((a * b).coefficients(), _naive_series_mul(a, b))
        p, q = RationalFn(x), RationalFn(y)
        _same((p * q).numerator, _naive_poly_mul(p, q))
    unit = TruncSeries([1 if kind_a == "int" else one()] + raw_a[1:])
    _same(unit.inverse().coefficients(), _naive_inverse(unit))
    # Products, powers, inverses and expansions wrap the kernel's output
    # without checking it again: it must already be in one ring, and a
    # denominator must keep its unit constant term.
    p = RationalFn(raw_a, unit.coefficients())
    q = RationalFn(raw_b or [0], [1 if kind_b == "int" else one(), *raw_b[1:]])
    numerator, inverse = RationalFn(raw_a).series(order), TruncSeries(_naive_inverse(unit))
    _same(p.series(order).coefficients(), _naive_series_mul(numerator, inverse))
    for fn in (p * q, q * p, p**2, q**3):
        _in_one_ring(fn.numerator)
        _in_one_ring(fn.denominator)
        assert fn.denominator[0] == 1
    for series in (a * b, unit**3, unit.inverse(), p.series(order), (p * q).series(order)):
        _in_one_ring(series.coefficients())


# -- the kernel's term order ------------------------------------------------------
#
# Every product inserts its terms in the order of the plain double loop over
# the pairs of coefficients and, within a pair, over their terms.  That order
# is the order the display sort starts from, so the kernel's shortcuts (zero
# pairs skipped, constant monomials multiplied without a merge) must keep it.


@st.composite
def kernel_coeffs(draw, size):
    """``size`` coefficients: zero elements, ints (lifted when the other side
    is symbolic), constants and elements with up to five terms."""
    kinds = st.one_of(
        st.just(zero()),
        st.integers(-3, 3),
        st.integers(-3, 3).map(RingElem.from_int),
        ring_elems(),
    )
    return [draw(kinds) for _ in range(size)]


def _lifted(coeffs):
    return [RingElem.from_int(x) if isinstance(x, int) else x for x in coeffs]


def _reference_dot(xs, ys):
    """``sum(x * y)`` as the plain double loop, every term product in turn."""
    total = {}
    for x, y in zip(xs, ys):
        for mono_a, coeff_a in x.terms():
            for mono_b, coeff_b in y.terms():
                mono = _dict_and_sort_product(mono_a, mono_b)
                total[mono] = total.get(mono, 0) + coeff_a * coeff_b
    return RingElem(total)


def _reference_expansion(num, den, order):
    """``num / den`` by ``s[d] = num[d] - sum_{i>=1} den[i]*s[d-i]``, the
    pairs taken from the highest ``i`` down."""
    out = []
    for d in range(order + 1):
        steps = range(min(d, len(den) - 1), 0, -1)
        acc = _reference_dot([den[i] for i in steps], [out[d - i] for i in steps])
        out.append(num[d] - acc if d < len(num) else -acc)
    return out


def _same_terms(coeffs, expected):
    """Equal values, and a symbolic coefficient's terms in the same order."""
    coeffs, expected = list(coeffs), list(expected)
    assert coeffs == expected
    for got, want in zip(coeffs, expected):
        if isinstance(got, RingElem):
            assert list(got._terms) == list(want._terms)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_kernel_keeps_the_double_loop_term_order(data):
    order = data.draw(st.integers(0, 6))
    a, b = data.draw(kernel_coeffs(order + 1)), data.draw(kernel_coeffs(order + 1))
    xs, ys = _lifted(a), _lifted(b)
    _same_terms([_dot(xs, ys)], [_reference_dot(xs, ys)])
    product = TruncSeries(a) * TruncSeries(b)
    expected = [_reference_dot(xs[: d + 1], ys[d::-1]) for d in range(order + 1)]
    _same_terms(product.coefficients(), expected)
    num = data.draw(kernel_coeffs(data.draw(st.integers(1, order + 2))))
    den = [1, *b[1:]]
    series = RationalFn(num, den).series(order)
    _same_terms(series.coefficients(), _reference_expansion(_lifted(num), _lifted(den), order))


# -- rational functions -------------------------------------------------------


def test_expansion_of_torus_zeta():
    # (1-t)/(1-Lt) expands to 1, L-1, L^2-L, L^3-L^2, ...
    series = RationalFn([1, -1], [1, -L]).series(3)
    assert series[0] == one()
    assert series[1] == L - 1
    assert series[2] == L**2 - L
    assert series[3] == L**3 - L**2


def test_expansion_of_node_factor():
    # (1-Lt)/(1-Lt-t+t^2): f_0 = f_1 = 1, then f_d = (L+1) f_{d-1} - f_{d-2}.
    series = RationalFn([1, -L], [1, -(L + 1), 1]).series(4)
    assert series[0] == one()
    assert series[1] == one()
    assert series[2] == L
    assert series[3] == L**2 + L - 1
    assert series[4] == L**3 + 2 * L**2 - L - 1


def test_expansion_of_unit():
    assert RationalFn([1], [1]).series(5) == TruncSeries([1, 0, 0, 0, 0, 0])


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_series_of_a_polynomial_truncates_or_pads_it(data):
    # Over the denominator 1, series(order) cuts the coefficients at t^order
    # or pads them with the ring's zero: RingElem() symbolically, 0 over the
    # integers.  An empty list counts as symbolic.
    kind = data.draw(st.sampled_from(("symbolic", "int")))
    coeffs = data.draw(sparse_coeffs(kind, data.draw(st.integers(1 if kind == "int" else 0, 8))))
    order = data.draw(st.integers(0, 10))
    expected = coeffs[: order + 1] + [0 if kind == "int" else zero()] * (order + 1 - len(coeffs))
    series = RationalFn(coeffs).series(order)
    assert series.coefficients() == tuple(expected)
    assert [type(x) for x in series.coefficients()] == [type(x) for x in expected]


def test_rational_denominator_must_be_unit():
    with pytest.raises(ValueError):
        RationalFn([1], [L, 1])


@given(st.integers(2, 8))
def test_expansion_times_denominator_is_numerator(order):
    for num, den in [
        ([1, -L], [1, -(L + 1), 1]),
        ([1, -1], [1, -L]),
        ([1, c("m", 1), c("m", 2)], [1, -1, L]),
    ]:
        expansion = RationalFn(num, den).series(order)
        denominator = RationalFn(den).series(order)
        assert expansion * denominator == RationalFn(num).series(order)


_QQ_T, _T = ring("t", QQ)


def _sympy_expansion(num, den, order):
    """``num / den`` to ``t^order`` in sympy's power-series ring (Newton
    inversion of the denominator, then a truncated product)."""
    p = sum((coeff * _T**i for i, coeff in enumerate(num)), _QQ_T.zero)
    q = sum((coeff * _T**i for i, coeff in enumerate(den)), _QQ_T.zero)
    expansion = rs_mul(p, rs_series_inversion(q, _T, order + 1), _T, order + 1)
    return [int(expansion.coeff(_T**d)) for d in range(order + 1)]


@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=6),
    st.lists(st.integers(-9, 9), max_size=5),
    st.integers(0, 30),
)
@example([3, -1, 4, 1, -5, 9], [], 2)  # a constant denominator, a numerator past the order
@example([1], [-2, 1], 0)
@settings(max_examples=100, deadline=None)
def test_integer_expansion_matches_sympy(num, den_tail, order):
    den = [1, *den_tail]
    coeffs = RationalFn(num, den).series(order).coefficients()
    assert all(type(x) is int for x in coeffs)
    assert list(coeffs) == _sympy_expansion(num, den, order)


def _inverse_times_numerator(num, den, order):
    """The expansion as ``RationalFn.series`` computed it before the recurrence."""
    inverse = RationalFn(den).series(order).inverse()
    return inverse * RationalFn(num).series(order)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_expansion_matches_inverse_times_numerator(data):
    order = data.draw(st.integers(0, 8))
    kind_num, kind_den = data.draw(st.sampled_from(_KINDS)), data.draw(st.sampled_from(_KINDS))
    num = data.draw(sparse_coeffs(kind_num, data.draw(st.integers(1, order + 3))))
    den_tail = data.draw(sparse_coeffs(kind_den, data.draw(st.integers(0, 4))))
    den = [1 if kind_den == "int" else one(), *den_tail]
    expected = _inverse_times_numerator(num, den, order).coefficients()
    _same(RationalFn(num, den).series(order).coefficients(), expected)


def test_rational_equality_by_cross_multiplication():
    plain = RationalFn([1, -1], [1, -L])
    inflated = plain * RationalFn([1, -1], [1, -1])
    assert plain == inflated
    assert plain != RationalFn([1, -1], [1, -L, 1])
    assert RationalFn([1, -1], [1, -1]) == RationalFn([1])


def test_rational_product_is_unreduced():
    a = RationalFn([1, -1], [1, -L])
    b = RationalFn([1, -L], [1, -1])
    product = a * b
    # (1-t)(1-Lt) on both sides, not cancelled.
    assert product.numerator == product.denominator == (1, -(L + 1), L)
    assert product.series(6) == RationalFn([one()]).series(6)


def test_rational_sides_keep_their_formal_length():
    # A side of a product is as long as its factors' sides together, less
    # one, with zero leading coefficients kept; equality ignores them.
    a = RationalFn([1, 0], [1, -L])
    b = RationalFn([1, -1, 0], [1, 0])
    assert (a * b).numerator == (1, -1, 0, 0)
    assert (a * b).denominator == (1, -L, 0)
    assert [len(side) for side in ((a**3).numerator, (a**3).denominator)] == [4, 4]
    assert [len(side) for side in ((b**0).numerator, (b**0).denominator)] == [1, 1]
    assert a * b == RationalFn([1, -1], [1, -L])
    assert RationalFn([1, 0]) == RationalFn([1])
    assert RationalFn([0, 0]) == RationalFn([0])
    assert RationalFn([1, -L]) != RationalFn([1])


def test_int_and_ring_coefficients_agree():
    # Series and polynomials hold RingElem or int coefficients; equal values
    # of either kind compare and hash alike.
    assert len({RingElem.from_int(3), 3, zero(), 0}) == 2
    ints = TruncSeries([1, 2, 0])
    elems = TruncSeries([one(), 2 * one(), zero()])
    assert ints == elems and hash(ints) == hash(elems)
    assert all(type(c) is int for c in ints.coefficients())
    assert (ints * ints).coefficients() == (1, 4, 4)
    assert all(type(c) is int for c in (ints * ints).inverse().coefficients())
    mixed = ints * RationalFn([1, L]).series(2)
    assert all(isinstance(c, RingElem) for c in mixed.coefficients())
    assert mixed == TruncSeries([one(), L + 2, 2 * L])
    assert str(RationalFn([-3, 1, 0, -1, 0])) == "(-3 + t - t^3) / (1)"
    assert (RationalFn([1, -2]) ** 2).numerator == (1, -4, 4)
    assert all(type(c) is int for c in (RationalFn([1, -2]) ** 2).numerator)
    assert RationalFn([1], [1, -1]).series(3).coefficients() == (1, 1, 1, 1)


_NATURAL = " must be a nonnegative integer"
_BAD_EXPONENT = "exponent" + _NATURAL
_BAD_ORDER = "truncation order" + _NATURAL
# A smooth, unmarked curve: its graph scalar is the unit, whose expansion
# still checks the order, and its leaves reach t^4 (2g) when built at order 2.
_SMOOTH = parse_graph({"vertices": [vertex("m", 2)]})
_LEAVES = leaf_images(_SMOOTH, SymbolicIdentity(), 2)
# A rational symbolic component: its leaves run through t^order, not t^2g.
_RATIONAL = parse_graph({"vertices": [vertex("z", 0)], "legs": ["z", "z", "z"]})
# A curve every measure realizes, and an order each refuses.
_ELLIPTIC = CurveModel("elliptic", "e", 1, trace=1)
_CLASS_ORDERS = [
    (label, measure, order)
    for label, measure in (
        ("symbolic", SymbolicIdentity()),
        ("euler", EulerCharacteristic()),
        ("point-count", PointCount(7)),
    )
    for order in (-1, 1.5, 0.0)
]


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: L**-1, ValueError, _BAD_EXPONENT),
        (lambda: L**1.5, ValueError, _BAD_EXPONENT),
        (lambda: RationalFn([one()]).series(3) ** -1, ValueError, _BAD_EXPONENT),
        (lambda: RationalFn([1], [1]) ** "2", ValueError, _BAD_EXPONENT),
        (lambda: TruncSeries([1, 2.5]), TypeError, r"cannot use 2\.5 as a ring element"),
        (lambda: TruncSeries([L, 2.5]), TypeError, r"cannot use 2\.5 as a ring element"),
        (lambda: RationalFn([1], [1, "x"]), TypeError, r"cannot use 'x' as a ring element"),
        (lambda: RationalFn([1]).series(-1), ValueError, _BAD_ORDER),
        (lambda: RationalFn([1]).series(1.5), ValueError, _BAD_ORDER),
        (lambda: RationalFn([1]).series("2"), ValueError, _BAD_ORDER),
        (lambda: divisor_series_from_strata(_SMOOTH, -1, _LEAVES), ValueError, _BAD_ORDER),
        (lambda: divisor_series_from_strata(_SMOOTH, 1.5, _LEAVES), ValueError, _BAD_ORDER),
        (lambda: stable_pair_count(_SMOOTH, -1), ValueError, _BAD_ORDER),
        (lambda: stable_pair_count(_SMOOTH, 1.5), ValueError, _BAD_ORDER),
        (lambda: zeta_series(ZetaKind.DIVISORIAL, _SMOOTH, -5, _LEAVES), ValueError, _BAD_ORDER),
        (lambda: zeta_series(ZetaKind.DIVISORIAL, _SMOOTH, 1.5, _LEAVES), ValueError, _BAD_ORDER),
        (lambda: leaf_images(_SMOOTH, SymbolicIdentity(), 5.5), ValueError, _BAD_ORDER),
        (lambda: leaf_images(_SMOOTH, SymbolicIdentity(), -1), ValueError, _BAD_ORDER),
        (lambda: divisor_class_from_strata(_RATIONAL, 1.5), ValueError, _BAD_ORDER),
        (
            lambda: zeta_series(ZetaKind.DIVISORIAL, _SMOOTH, 10, _LEAVES),
            ValueError,
            "truncation order mismatch: 10 vs 4",
        ),
        *[
            (functools.partial(measure.class_series, _ELLIPTIC, order), ValueError, _BAD_ORDER)
            for _, measure, order in _CLASS_ORDERS
        ],
        (lambda: punctured_sym_class(_ELLIPTIC, 1, -1), ValueError, _BAD_ORDER),
        (lambda: punctured_sym_class(_ELLIPTIC, -1, 2), ValueError, "holes" + _NATURAL),
        (lambda: stable_pairs(_SMOOTH, 1.5), ValueError, "degree" + _NATURAL),
        (lambda: stable_pairs(_SMOOTH, -1), ValueError, "degree" + _NATURAL),
        (lambda: compositions(1.5), ValueError, "composition total" + _NATURAL),
        (lambda: compositions(-1), ValueError, "composition total" + _NATURAL),
        (lambda: torus_class(1.5), ValueError, "symmetric-power index" + _NATURAL),
        (lambda: torus_class(-1), ValueError, "symmetric-power index" + _NATURAL),
        (lambda: L**True, ValueError, _BAD_EXPONENT),
        (lambda: RationalFn([1]).series(True), ValueError, _BAD_ORDER),
        (lambda: TruncSeries([True, 2]), TypeError, "cannot use True as a ring element"),
        (lambda: PointCount(7.0), ValueError, r"q must be a prime power >= 2, got 7\.0"),
        (lambda: PointCount("7"), ValueError, "q must be a prime power >= 2, got '7'"),
        (lambda: PointCount(True), ValueError, "q must be a prime power >= 2, got True"),
        (lambda: TruncSeries([1, 2])[True], ValueError, "degree" + _NATURAL),
        (lambda: TruncSeries([1, 2])[1.5], ValueError, "degree" + _NATURAL),
        (lambda: TruncSeries([1, 2])[-1], ValueError, "degree" + _NATURAL),
        (lambda: TruncSeries([1, 2])[2], IndexError, "degree 2 outside truncation order 1"),
        (lambda: Generator(5, 1), ValueError, "invalid model id: 5"),
        (lambda: Generator([1], 1), ValueError, r"invalid model id: \[1\]"),
        (lambda: Generator({"a": 1}, 1), ValueError, "invalid model id: {'a': 1}"),
        (
            lambda: TruncSeries([2, 1]).inverse(),
            ValueError,
            "denominator must have unit constant term, got 2",
        ),
        (
            lambda: TruncSeries([L, 1]).inverse(),
            ValueError,
            "denominator must have unit constant term, got L",
        ),
        (
            lambda: PointCount(PRIME_POWER_LIMIT),
            ValueError,
            f"q = {PRIME_POWER_LIMIT} is too large: prime powers are decided only below"
            f" {PRIME_POWER_LIMIT}",
        ),
    ],
    ids=[
        "ring-negative",
        "ring-float",
        "series-negative",
        "rational-string",
        "int-series-float",
        "ring-series-float",
        "denominator-string",
        "order-negative",
        "order-float",
        "order-string",
        "strata-order-negative",
        "strata-order-float",
        "count-order-negative",
        "count-order-float",
        "unit-scalar-order-negative",
        "unit-scalar-order-float",
        "leaves-order-float",
        "leaves-order-negative",
        "strata-class-order-float",
        "order-past-the-leaves",
        *[f"{label}-class-order-{order}" for label, _, order in _CLASS_ORDERS],
        "punctured-degree-negative",
        "punctured-holes-negative",
        "pairs-degree-float",
        "pairs-degree-negative",
        "compositions-float",
        "compositions-negative",
        "torus-index-float",
        "torus-index-negative",
        "ring-bool",
        "order-bool",
        "bool-coefficient",
        "q-float",
        "q-string",
        "q-bool",
        "series-degree-bool",
        "series-degree-float",
        "series-degree-negative",
        "series-degree-past-the-order",
        "generator-model-int",
        "generator-model-list",
        "generator-model-dict",
        "series-inverse-int",
        "series-inverse-symbolic",
        "q-at-the-limit",
    ],
)
def test_each_refusal_has_one_message(build, error, message):
    # One exponent check in _power for all three layers, one coefficient
    # check in _require_elem for every constructor, and one order check in
    # RationalFn.series, which every series builder reaches before it reads
    # the order: a closed form whose graph scalar is the unit included.
    # leaf_images and every measure's class_series apply the same order
    # check before they build any class, and every other count of the
    # package (a degree, a composition total, a torus index, holes, the
    # degree read from a series) is refused by that rule.  A bool is no
    # integer, as a count, a coefficient or a field size; a model id is a
    # string in the model-id grammar, checked before any intern lookup.  A
    # unit constant term is required by RationalFn alone, a series inverse
    # included, and a field size is judged by PointCount alone.
    with pytest.raises(error, match=rf"^{message}$"):
        build()
