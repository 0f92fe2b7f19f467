"""Exact arithmetic for motivic curve computations.

Three immutable layers, all over arbitrary-precision integers:

* ``RingElem``: sparse polynomials in the Lefschetz class ``L`` and
  symmetric-power class generators ``c[model,d]``.
* ``TruncSeries``: power series in ``t``, truncated at a fixed order.
* ``RationalFn``: unreduced ratios of polynomials in ``t``, each side a
  coefficient tuple at its formal length, so the lengths of factors add up
  under multiplication and a zero leading coefficient is kept.  Rational
  functions are never reduced to lowest terms; equality is decided by
  cross-multiplying numerators and denominators, up to trailing zeros.

The ``t``-layers are generic over the coefficient ring: their coefficients
are all ``RingElem`` or all plain ``int`` (the image of a measure), and the
arithmetic uses only ``+``, ``*``, negation, zero and one.  Input mixing the
two is lifted to ``RingElem``, as are the products of mixed operands.  The
constructors check their input, ``_power`` every exponent and
``RationalFn.series`` every order, by the package's one rule for a count
(``_require_natural``: an ``int``, not a ``bool``, and nonnegative); a
product, power, expansion or unit of ``**`` is already in one ring,
with a unit constant term in a denominator, and is wrapped unchecked.

Generators are interned: ``Generator(model, degree)`` returns the one
validated instance for that pair, so hashing and comparing monomials is
identity work done in C, and each generator carries its sort key.  A
monomial is a tuple of ``(generator, exponent)`` pairs, ascending in the
generator order with no zero exponent; two monomials multiply by one merge
of their tuples (the sparse representation of Monagan and Pearce, "Sparse
polynomial multiplication and division in Maple 14").  Every ``**`` here is
exponentiation by repeated squaring.

Series products and the products of the sides of rational functions share
one multiply-accumulate kernel, after the same paper: a coefficient
``sum_i a[i]*b[d-i]`` adds every term product of every pair into one dict,
with no intermediate ``RingElem``; over the integers it is a plain ``sum``.
It skips a pair with a zero side and multiplies a constant monomial without
a merge, and still inserts the terms in the order of the plain double loop:
the right factor's coefficients from the highest degree down, the left
factor's terms in their stored order within each pair.  That order is where
the display sort of ``str`` starts, so it fixes the cost of rendering.  A
left factor whose coefficients store their terms in display order
(``RingElem.in_display_order``) times a right factor whose coefficients are
each one monomial, in generators larger than all of the left's, comes out
in display order, and ``str`` sorts it in one pass.  Two monomials whose
generators do not interleave multiply by concatenation, without a merge.
Every expansion of a rational function in ``t`` is one linear recurrence
over the same kernel (``_expand_coeffs``), entered by ``RationalFn.series``
alone: ``TruncSeries.inverse`` expands ``1/s`` through it.

Canonical text form
-------------------

``str(elem)`` emits the grammar below, with a space on each side of a
binary ``+`` or ``-`` and no other whitespace::

    elem      := '-'? term ( ('+' | '-') term )*
    term      := natural ('*' monomial)? | monomial
    monomial  := factor ('*' factor)*
    factor    := generator ('^' natural)?
    generator := 'L' | 'c[' model ',' natural ']'

Generators are totally ordered with ``L`` smallest, then ``c`` classes by
``(model, degree)``.  Terms are sorted by comparing exponents on the largest
generator where two monomials differ, larger exponent first, so constants
print last: ``L^2 - L``, ``c[m,2] + c[m,1]*L + 3``.  Factors inside a
monomial print largest generator first, coefficients 1 and -1 are suppressed
next to a nonempty monomial, and ``^1`` is never written.

``parse_elem(str(x)) == x``, and ``parse_elem`` accepts exactly this grammar
with any Unicode whitespace around tokens, ``model`` as in ``MODEL_ID_RE``,
and ``natural`` a run of Unicode decimal digits (leading zeros allowed),
positive in a degree or an exponent.  Terms and factors may repeat and come
in any order, and a coefficient may be 0; anything else raises ``ValueError``.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Iterable, Iterator, Mapping
from functools import cmp_to_key

MODEL_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.-]*")


def _is_int(value: object) -> bool:
    """The package's integer test: an ``int``, but not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_model_id(value: object) -> bool:
    """The package's model-id test: a ``str`` in the ``MODEL_ID_RE`` grammar."""
    return isinstance(value, str) and MODEL_ID_RE.fullmatch(value) is not None


def _require_natural(value: object, name: str) -> None:
    """Refuse anything but a nonnegative integer: the one check of a count."""
    if not _is_int(value) or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer")


class Generator:
    """One ring generator: ``L`` (model None) or ``c[model,degree]``.

    Interned: the constructor checks ``(model, degree)``, then returns the
    one instance for that pair, its sort key computed when first made, so
    equality and hashing are identity.  Instances are immutable.
    """

    __slots__ = ("model", "degree", "_key")

    def __new__(cls, model: str | None = None, degree: int = 0) -> Generator:
        if not _is_int(degree):
            raise ValueError(f"generator degree must be an int, got {degree!r}")
        if model is None:
            if degree:
                raise ValueError("the Lefschetz generator carries no degree")
        elif not _is_model_id(model):
            raise ValueError(f"invalid model id: {model!r}")
        elif degree < 1:
            raise ValueError("symmetric-power degree must be at least 1")
        gen = _GENERATORS.get((model, degree))
        if gen is None:
            key = (0, "", 0) if model is None else (1, model, degree)
            gen = super().__new__(cls)
            for name, value in (("model", model), ("degree", degree), ("_key", key)):
                object.__setattr__(gen, name, value)
            # One atomic step, so two threads making the same generator both
            # get the instance that landed first.
            gen = _GENERATORS.setdefault((model, degree), gen)
        return gen

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Generator is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("Generator is immutable")

    def __reduce__(self):
        return (Generator, (self.model, self.degree))

    def sort_key(self) -> tuple[int, str, int]:
        return self._key

    def __str__(self) -> str:
        if self.model is None:
            return "L"
        return f"c[{self.model},{self.degree}]"

    def __repr__(self) -> str:
        return f"Generator(model={self.model!r}, degree={self.degree!r})"


_GENERATORS: dict[tuple[str | None, int], Generator] = {}
LEFSCHETZ_GEN = Generator()

# A monomial maps generators to positive exponents, stored as a tuple of
# (generator, exponent) pairs sorted ascending by the generator order.
Monomial = tuple[tuple[Generator, int], ...]


def _mono_sorted(items: Iterable[tuple[Generator, int]]) -> Monomial:
    return tuple(sorted(items, key=lambda pair: pair[0].sort_key()))


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Product of two monomials: one merge of the ascending factor lists, or
    their concatenation when every generator of one side comes before every
    generator of the other."""
    if not a:
        return b
    if not b:
        return a
    if a[-1][0]._key < b[0][0]._key:
        return a + b
    if b[-1][0]._key < a[0][0]._key:
        return b + a
    out = []
    i = j = 0
    len_a, len_b = len(a), len(b)
    while i < len_a and j < len_b:
        gen_a, exp_a = a[i]
        gen_b, exp_b = b[j]
        if gen_a is gen_b:
            out.append((gen_a, exp_a + exp_b))
            i += 1
            j += 1
        elif gen_a._key < gen_b._key:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    return (*out, *a[i:], *b[j:])


def _mono_cmp(a: Monomial, b: Monomial) -> int:
    """Display order: larger exponent on the largest differing generator first."""
    gens = sorted(
        {gen for gen, _ in a} | {gen for gen, _ in b},
        key=lambda g: g.sort_key(),
        reverse=True,
    )
    da, db = dict(a), dict(b)
    for gen in gens:
        ea, eb = da.get(gen, 0), db.get(gen, 0)
        if ea != eb:
            return -1 if ea > eb else 1
    return 0


def _display_order(terms: Iterable[Monomial]) -> list[Monomial]:
    """The monomials in the order ``str`` prints them: a list already in that
    order is sorted in one pass of ``len - 1`` comparisons.  ``str`` sorts
    with it directly, so it builds no ordered copy of a wide element."""
    return sorted(terms, key=cmp_to_key(_mono_cmp))


def _mono_str(mono: Monomial) -> str:
    factors = []
    for gen, exp in reversed(mono):
        factors.append(str(gen) if exp == 1 else f"{gen}^{exp}")
    return "*".join(factors)


def _power(base, exponent: int, unit):
    """``base ** exponent`` by repeated squaring; at exponent 0, ``unit()``,
    so the unit is built only when it is returned."""
    _require_natural(exponent, "exponent")
    result = None
    while exponent:
        if exponent & 1:
            result = base if result is None else result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return unit() if result is None else result


class RingElem:
    """An element of the coefficient ring, kept in canonical sparse form.

    Instances are immutable; all operators return new elements.  Integers
    coerce on either side of ``+ - *``.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        cleaned: dict[Monomial, int] = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff:
                    cleaned[mono] = coeff
        self._terms = cleaned

    @classmethod
    def from_int(cls, value: int) -> RingElem:
        return cls({(): value})

    @classmethod
    def from_generator(cls, gen: Generator) -> RingElem:
        return cls({((gen, 1),): 1})

    def terms(self) -> Iterator[tuple[Monomial, int]]:
        return iter(self._terms.items())

    def __add__(self, other: RingElem | int) -> RingElem:
        other = _as_elem(other)
        if other is NotImplemented:
            return NotImplemented
        total = dict(self._terms)
        for mono, coeff in other._terms.items():
            total[mono] = total.get(mono, 0) + coeff
        return RingElem(total)

    __radd__ = __add__

    def __neg__(self) -> RingElem:
        return RingElem({mono: -coeff for mono, coeff in self._terms.items()})

    def __sub__(self, other: RingElem | int) -> RingElem:
        other = _as_elem(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int) -> RingElem:
        return _as_elem(other) + (-self)

    def __mul__(self, other: RingElem | int) -> RingElem:
        other = _as_elem(other)
        if other is NotImplemented:
            return NotImplemented
        return _dot((self,), (other,))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> RingElem:
        return _power(self, exponent, one)

    def __eq__(self, other: object) -> bool:
        other = _as_elem(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._terms.keys() <= {()}:  # a constant equals an int: hash like one
            return hash(self._terms.get((), 0))
        return hash(frozenset(self._terms.items()))

    def in_display_order(self) -> RingElem:
        """An equal element whose terms are stored in display order, the
        order ``str`` prints them in, so that sorting them again for display
        takes one pass."""
        ordered = RingElem.__new__(RingElem)
        ordered._terms = {mono: self._terms[mono] for mono in _display_order(self._terms)}
        return ordered

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for index, mono in enumerate(_display_order(self._terms)):
            coeff = self._terms[mono]
            magnitude = abs(coeff)
            if not mono:
                body = str(magnitude)
            elif magnitude == 1:
                body = _mono_str(mono)
            else:
                body = f"{magnitude}*{_mono_str(mono)}"
            if index == 0:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"RingElem({self})"


_ZERO = RingElem()
_ONE = RingElem.from_int(1)
_L = RingElem.from_generator(LEFSCHETZ_GEN)


def zero() -> RingElem:
    return _ZERO


def one() -> RingElem:
    return _ONE


def lefschetz() -> RingElem:
    """The class of the affine line."""
    return _L


def sym_pow(model: str, degree: int) -> RingElem:
    """The symmetric-power class generator ``c[model,degree]``.

    Degree 0 is the ring unit and is never stored as a generator.
    """
    if degree == 0:
        return _ONE
    return RingElem.from_generator(Generator(model, degree))


def _as_elem(value: object) -> RingElem:
    if isinstance(value, RingElem):
        return value
    if _is_int(value):
        return RingElem.from_int(value)
    return NotImplemented


def sum_elems(elems: Iterable[RingElem]) -> RingElem:
    """Sum many elements with a single accumulator dict."""
    total: dict[Monomial, int] = {}
    for elem in elems:
        for mono, coeff in elem._terms.items():
            total[mono] = total.get(mono, 0) + coeff
    return RingElem(total)


# -- parsing -----------------------------------------------------------------

# One token per match, compiled on first use (by ``re``'s cache), like
# ``_ELEM``: nothing but ``parse_elem`` reads it.  A model id is read by
# ``MODEL_ID_RE``'s own pattern.
_TOKEN = (
    rf"c\[(?P<model>{MODEL_ID_RE.pattern}),(?P<degree>\d+)\]"
    r"|(?P<lef>L)"
    r"|(?P<num>\d+)"
    r"|(?P<op>[*^+\-])"
    r"|(?P<space>\s+)"
)

# The docstring's grammar over token kinds (``g`` a generator, ``n`` a positive
# natural, ``z`` a zero, an operator as itself), compiled on first use.  Each
# kind has one reading where it stands: deciding a text is linear in its tokens.
_FACTOR = r"g(?:\^n)?"
_MONOMIAL = rf"{_FACTOR}(?:\*{_FACTOR})*"
_TERM = rf"(?:[nz](?:\*{_MONOMIAL})?|{_MONOMIAL})"
_ELEM = rf"-?{_TERM}(?:[+-]{_TERM})*"


def parse_elem(text: str) -> RingElem:
    """Parse element text: tokenize, check the token kinds, fold into terms."""
    tokens: list[tuple[str, object]] = []
    pos = 0
    for match in re.finditer(_TOKEN, text):
        if match.start() != pos:
            break
        pos = match.end()
        if match["model"] is not None:
            tokens.append(("g", Generator(match["model"], int(match["degree"]))))
        elif match["lef"]:
            tokens.append(("g", LEFSCHETZ_GEN))
        elif match["num"] is not None:
            value = int(match["num"])
            tokens.append(("n" if value else "z", value))
        elif match["op"]:
            tokens.append((match["op"], None))
    if pos != len(text):
        raise ValueError(f"unexpected character {text[pos]!r} at position {pos}")
    if not re.fullmatch(_ELEM, "".join(kind for kind, _ in tokens)):
        raise ValueError("element text does not follow the grammar")
    total: dict[Monomial, int] = {}
    sign, coeff, exps, gen, previous = 1, 1, {}, None, None
    # Each sign closes the term before it, and a final "+" closes the last.
    for kind, value in (*tokens, ("+", None)):
        if kind == "g":
            gen = value
            exps[gen] = exps.get(gen, 0) + 1
        elif previous == "^":  # an exponent, positive by the check above
            exps[gen] += value - 1
        elif kind in "nz":
            coeff = value
        elif kind in "+-":
            if previous is not None:
                mono = _mono_sorted(exps.items())
                total[mono] = total.get(mono, 0) + sign * coeff
            sign, coeff, exps = (-1 if kind == "-" else 1), 1, {}
        previous = kind
    return RingElem(total)


# -- coefficient rings of the t-layers -----------------------------------------

Coeff = RingElem | int


def _ring_coeffs(values: Iterable[Coeff]) -> tuple[Coeff, ...]:
    """The values as coefficients of one ring: ``RingElem`` if any is one, else ``int``."""
    values = tuple(values)
    if all(map(_is_int, values)):
        return values
    return tuple(map(_require_elem, values))


def _is_symbolic(coeffs: tuple[Coeff, ...]) -> bool:
    """Whether coefficients normalized by ``_ring_coeffs`` are ``RingElem``.

    An empty tuple counts as symbolic, the ring of the package.
    """
    return not coeffs or isinstance(coeffs[0], RingElem)


def _one_of(coeffs: tuple[Coeff, ...]) -> Coeff:
    return _ONE if _is_symbolic(coeffs) else 1


def _dot(xs: Iterable[RingElem], ys: Iterable[RingElem]) -> RingElem:
    """``sum(x * y for x, y in zip(xs, ys))`` for ``RingElem`` coefficients.

    The multiply-accumulate kernel of the t-layers: every term product of
    every pair goes into one dict, with no intermediate ``RingElem``.  A
    pair with a zero side adds nothing and is skipped, and a term whose
    monomial is the constant ``()`` multiplies without ``_mono_mul``; the
    terms still go in in the order of the plain double loop, which sets the
    term order of every product and with it the cost of sorting for display.
    """
    total: dict[Monomial, int] = {}
    get = total.get
    for x, y in zip(xs, ys):
        x_terms, y_terms = x._terms, y._terms
        if not x_terms or not y_terms:
            continue
        y_items = y_terms.items()
        for mono_a, coeff_a in x_terms.items():
            if not mono_a:
                for mono_b, coeff_b in y_items:
                    total[mono_b] = get(mono_b, 0) + coeff_a * coeff_b
                continue
            for mono_b, coeff_b in y_items:
                mono = _mono_mul(mono_a, mono_b) if mono_b else mono_a
                total[mono] = get(mono, 0) + coeff_a * coeff_b
    return RingElem(total)


def _int_dot(xs: Iterable[int], ys: Iterable[int]) -> int:
    """The same over the integers: a plain ``sum``."""
    return sum(map(operator.mul, xs, ys))


def _one_ring(a: tuple[Coeff, ...], b: tuple[Coeff, ...]):
    """``a`` and ``b`` in one coefficient ring, an ``int`` side lifted when
    the other is symbolic, with that ring's dot product kernel."""
    if _is_symbolic(a) != _is_symbolic(b):
        return tuple(map(_require_elem, a)), tuple(map(_require_elem, b)), _dot
    return a, b, _dot if _is_symbolic(a) else _int_dot


def _product_coeffs(a: tuple[Coeff, ...], b: tuple[Coeff, ...], count: int) -> list[Coeff]:
    """The first ``count`` coefficients of the product of the t-polynomials
    with coefficients ``a`` and ``b``, each one dot product of a run of ``a``
    against reversed ``b`` (``zip`` stops at the shorter side).
    """
    a, b, dot = _one_ring(a, b)
    last, reversed_b = len(b) - 1, b[::-1]
    return [
        dot(a[: d + 1], reversed_b[last - d :]) if d < last else dot(a[d - last : d + 1], reversed_b)
        for d in range(count)
    ]


def _expand_coeffs(num: tuple[Coeff, ...], den: tuple[Coeff, ...], count: int) -> list[Coeff]:
    """The first ``count`` coefficients of the expansion of ``num / den``,
    where ``den[0] == 1``, by the recurrence
    ``s[d] = num[d] - sum_{i>=1} den[i]*s[d-i]``: each one dot product of
    ``den[1:]`` reversed against the last ``len(den) - 1`` coefficients.
    """
    num, den, dot = _one_ring(num, den)
    width, tail = len(den) - 1, den[:0:-1]
    out: list[Coeff] = []
    for d in range(count):
        acc = dot(tail[max(width - d, 0) :], out[max(d - width, 0) :])
        out.append(num[d] - acc if d < len(num) else -acc)
    return out


# -- truncated power series ---------------------------------------------------


class TruncSeries:
    """Power series in ``t``, truncated at a fixed order.

    A series of order ``N`` stores exactly the coefficients of ``t^0``
    through ``t^N``.  The two factors of a product must have equal orders.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Coeff]):
        elems = _ring_coeffs(coeffs)
        if not elems:
            raise ValueError("a truncated series needs at least the t^0 coefficient")
        self._coeffs = elems

    @classmethod
    def _wrap(cls, coeffs: Iterable[Coeff]) -> TruncSeries:
        """A series not checked again: ``_product_coeffs`` and
        ``_expand_coeffs`` give nonempty coefficients in one ring."""
        series = cls.__new__(cls)
        series._coeffs = tuple(coeffs)
        return series

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    def coefficients(self) -> tuple[Coeff, ...]:
        return self._coeffs

    def __getitem__(self, degree: int) -> Coeff:
        _require_natural(degree, "degree")
        if degree > self.order:
            raise IndexError(f"degree {degree} outside truncation order {self.order}")
        return self._coeffs[degree]

    def _check_order(self, other: TruncSeries) -> None:
        if self.order != other.order:
            raise ValueError(
                f"truncation order mismatch: {self.order} vs {other.order}"
            )

    def __mul__(self, other: TruncSeries) -> TruncSeries:
        self._check_order(other)
        return TruncSeries._wrap(_product_coeffs(self._coeffs, other._coeffs, len(self._coeffs)))

    def __pow__(self, exponent: int) -> TruncSeries:
        return _power(
            self, exponent, lambda: RationalFn([_one_of(self._coeffs)]).series(self.order)
        )

    def inverse(self) -> TruncSeries:
        """The expansion of ``s[0]/s``: ``1/s``, if ``s`` is invertible."""
        return RationalFn(self._coeffs[:1], self._coeffs).series(self.order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __str__(self) -> str:
        return _format_t_terms(self._coeffs)

    def __repr__(self) -> str:
        return f"TruncSeries(order={self.order}, {self})"


def _require_elem(value: object) -> RingElem:
    elem = _as_elem(value)
    if elem is NotImplemented:
        raise TypeError(f"cannot use {value!r} as a ring element")
    return elem


def _format_t_terms(coeffs: tuple[Coeff, ...]) -> str:
    parts = []
    for degree, coeff in enumerate(coeffs):
        if coeff == 0:
            continue
        if isinstance(coeff, RingElem):
            signs = [c < 0 for _, c in coeff.terms()]
            width, negate = len(signs), all(signs)
        else:
            width, negate = 1, coeff < 0
        shown = -coeff if negate else coeff
        body = str(shown)
        if degree == 0:
            if width > 1:
                body = f"({body})"
        else:
            t_part = "t" if degree == 1 else f"t^{degree}"
            if shown == 1:
                body = t_part
            elif width > 1:
                body = f"({body})*{t_part}"
            else:
                body = f"{body}*{t_part}"
        if not parts:
            parts.append(f"-{body}" if negate else body)
        else:
            parts.append(("- " if negate else "+ ") + body)
    if not parts:
        return "0"
    return " ".join(parts)


# -- rational functions in t ---------------------------------------------------


def _poly_product(a: tuple[Coeff, ...], b: tuple[Coeff, ...]) -> list[Coeff]:
    """Coefficients of the product of two t-polynomials, at formal length."""
    return _product_coeffs(a, b, len(a) + len(b) - 1)


class RationalFn:
    """Unreduced ratio of two polynomials in ``t``.

    Each side is a tuple of coefficients at its formal length: a product
    has the sum of its factors' lengths minus one, and a zero leading
    coefficient (the image of a symbolic one under a measure) is kept.  The
    denominator must have unit constant term, so a series expansion always
    exists.  Equality is exact cross-multiplication, up to trailing zeros;
    no gcd is ever computed, hence no ``__hash__``.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, numerator: Iterable[Coeff], denominator: Iterable[Coeff] = (1,)):
        num, den = _ring_coeffs(numerator), _ring_coeffs(denominator)
        constant = den[0] if den else 0
        if constant != 1:
            raise ValueError(f"denominator must have unit constant term, got {constant}")
        self._num = num
        self._den = den

    @classmethod
    def _wrap(cls, num: list[Coeff], den: list[Coeff]) -> RationalFn:
        """A rational function of kernel output, not checked again: each side
        is in one ring, and ``den`` a product of unit-constant denominators."""
        fn = cls.__new__(cls)
        fn._num, fn._den = tuple(num), tuple(den)
        return fn

    @property
    def numerator(self) -> tuple[Coeff, ...]:
        return self._num

    @property
    def denominator(self) -> tuple[Coeff, ...]:
        return self._den

    def __mul__(self, other: RationalFn) -> RationalFn:
        if not isinstance(other, RationalFn):
            return NotImplemented
        return RationalFn._wrap(
            _poly_product(self._num, other._num), _poly_product(self._den, other._den)
        )

    def __pow__(self, exponent: int) -> RationalFn:
        return _power(
            self, exponent, lambda: RationalFn._wrap([_one_of(self._num)], [_one_of(self._den)])
        )

    def series(self, order: int) -> TruncSeries:
        """Truncated expansion, by the recurrence of the denominator; over
        the denominator ``1``, the numerator truncated or zero-padded."""
        _require_natural(order, "truncation order")
        return TruncSeries._wrap(_expand_coeffs(self._num, self._den, order + 1))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalFn):
            return NotImplemented
        left = _poly_product(self._num, other._den)
        right = _poly_product(other._num, self._den)
        pad = len(right) - len(left)  # the shorter side gets the trailing zeros
        return left + [0] * pad == right + [0] * -pad

    __hash__ = None  # equality is up to cross-multiplication

    def __str__(self) -> str:
        return f"({_format_t_terms(self._num)}) / ({_format_t_terms(self._den)})"

    def __repr__(self) -> str:
        return f"RationalFn({self})"
