"""Motivic measures: ring homomorphisms to concrete targets.

A measure is a rule on curve models and holds no graph data.  It fixes an
image for the Lefschetz class (``lefschetz_image``) and, for any
``CurveModel``, the images of the model's symmetric-power generators in one
call (``class_series(model, order)``), then extends multiplicatively and
additively.  It is applied in one place, ``leaf_images``: one
``class_series`` call per model of a graph, returned as the ``Leaves`` that
the closed forms and the strata oracle are built from, directly in the
measure's ring.  ``of_elem(elem, models)`` maps a finished symbolic
expression instead.  A model the measure does not realize raises
``MeasureError`` naming the model's first generator, ``c[m,1]``, at every
order, 0 included; so does a generator that ``of_elem`` finds no model for
in ``models``.

* ``PointCount(q)``: counting points over a field with q elements.  ``L``
  goes to q and ``c[m,d]`` to the ``t^d`` coefficient of
  ``P(t) / ((1-t)(1-q t))``, ``P`` the model's Weil numerator: ``1`` for a
  projective line, ``1 - a t + q t^2`` for an elliptic curve of trace ``a``
  and the stored numerator of a weil model, checked against the functional
  equation at q.  A numerator ``1 - a t + q t^2`` of genus 1, elliptic or
  weil, must also satisfy the Hasse bound ``a^2 <= 4q``; the Riemann
  hypothesis is not checked in higher genus.  A symbolic model has none and
  is not realized.
* ``EulerCharacteristic()``: point counting at ``L -> 1`` with the
  numerator ``(1-t)^(2g)``, so ``c[m,d]`` goes to the ``t^d`` coefficient of
  ``(1-t)^(2g-2)``; it realizes every model.
* ``SymbolicIdentity()``: its images are the free generators ``L`` and
  ``c[m,d]`` themselves, and a projective line's classes
  ``1 + L + ... + L^d``.

Every measure realizes a model in one place, ``class_series``: one
expansion of the model's numerator over ``(1-t)(1-l t)``, ``l`` the image
of ``L`` (``class_rational``), whose constant term is the unit ``c[m,0]``.
A projective line's numerator is ``1``; ``_numerator`` gives any other's,
or ``None`` to keep ``c[m,d]`` free.  The closed forms build each vertex zeta from the same
``class_rational``.
"""

from __future__ import annotations

import math
import reprlib
from collections.abc import Mapping, Sequence

from .graph import CurveModel, DualGraph
from .ring import Coeff, RationalFn, RingElem, _is_int, _require_natural, lefschetz, sym_pow


class MeasureError(ValueError):
    """A generator has no realization under the measure."""


def class_rational(numerator: Sequence[Coeff], lef: Coeff) -> RationalFn:
    """``numerator / ((1-t)(1-l t))``, with ``l`` the image ``lef`` of ``L``,
    in the ring of ``lef``: the form of a curve's class series."""
    return RationalFn(numerator, (lef**0, -(lef + 1), lef))


# Miller-Rabin with the first 13 primes as bases is deterministic below this
# bound (Sorenson and Webster, 2015); larger field sizes are refused.
PRIME_POWER_LIMIT = 3_317_044_064_679_887_385_961_981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    for a in _WITNESSES:
        x = pow(a, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _integer_root(n: int, k: int) -> int:
    """Largest ``r`` with ``r**k <= n``, by integer Newton descent from above."""
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def is_prime_power(value: int) -> bool:
    """Whether ``value`` is ``p^k`` for a prime ``p`` and ``k >= 1``.

    Tries every exact ``k``-th root (``k`` up to the bit length) for
    primality.  Raises ``ValueError`` at or above ``PRIME_POWER_LIMIT``.
    """
    if value >= PRIME_POWER_LIMIT:
        raise ValueError(
            f"q = {value} is too large: prime powers are decided only below"
            f" {PRIME_POWER_LIMIT}"
        )
    if value < 2:
        return False
    for k in range(1, value.bit_length() + 1):
        root = _integer_root(value, k)
        if root < 2:
            break
        if root**k == value and _is_prime(root):
            return True
    return False


class MotivicMeasure:
    """Base class: a ring homomorphism from the symbolic ring.

    A subclass fixes the image ``l`` of ``L`` (``lefschetz_image``) and a
    rule that gives each curve model a Weil numerator ``P`` or ``None``
    (``_numerator``); ``class_series`` expands ``P(t) / ((1-t)(1-l t))``, or
    keeps the free generators.  A measure holds no graph data.
    """

    def lefschetz_image(self) -> Coeff:
        raise NotImplementedError

    def _numerator(self, model: CurveModel) -> Sequence[Coeff] | None:
        raise NotImplementedError

    def class_series(self, model: CurveModel, order: int) -> list[Coeff]:
        """Images of ``c[m,0]`` (the unit) through ``c[m,order]``, ``m`` the
        model's id."""
        _require_natural(order, "truncation order")
        lef = self.lefschetz_image()
        numerator = (lef**0,) if model.kind == "p1" else self._numerator(model)
        if numerator is None:
            return [sym_pow(model.name, d) for d in range(order + 1)]
        return list(class_rational(numerator, lef).series(order).coefficients())

    def of_elem(self, elem: RingElem, models: Mapping[str, CurveModel]) -> int:
        """The image of ``elem``, its generators' models looked up in
        ``models`` (a graph's ``models``); a generator whose model is not
        there raises ``MeasureError`` naming it."""
        total = 0
        for mono, coeff in elem.terms():
            value = coeff
            for gen, exp in mono:
                if gen.model is None:
                    value *= self.lefschetz_image() ** exp
                    continue
                model = models.get(gen.model)
                if model is None:
                    raise MeasureError(
                        f"no model for generator c[{reprlib.repr(gen.model)[1:-1]},{gen.degree}]"
                    )
                value *= self.class_series(model, gen.degree)[gen.degree] ** exp
            total += value
        return total


class SymbolicIdentity(MotivicMeasure):
    """The identity: ``L`` and each ``c[m,d]`` are their own images, so
    ``of_elem`` returns its input, and no model but a projective line
    (``1 + L + ... + L^d``) has a numerator: every other keeps ``c[m,d]``."""

    def of_elem(self, elem: RingElem, models: Mapping[str, CurveModel]) -> RingElem:
        return elem

    def lefschetz_image(self) -> RingElem:
        return lefschetz()

    def _numerator(self, model: CurveModel) -> None:
        return None


class EulerCharacteristic(MotivicMeasure):
    """Point counting at ``L -> 1``: a genus-g model's numerator is ``(1-t)^(2g)``."""

    def lefschetz_image(self) -> int:
        return 1

    def _numerator(self, model: CurveModel) -> tuple[int, ...]:
        genus = model.genus
        return tuple((-1) ** d * math.comb(2 * genus, d) for d in range(2 * genus + 1))


class PointCount(MotivicMeasure):
    """Point counting over a field with ``q`` elements, judged here (the
    CLI's ``--q`` too): an ``int`` prime power below ``PRIME_POWER_LIMIT``.

    An elliptic curve's numerator is ``1 - a t + q t^2`` and a weil model's
    the one it stores, which must satisfy the functional equation at ``q``
    when its degree is ``2g``.  In genus 1 that numerator is
    ``1 - a t + q t^2`` for both kinds, and a trace past the Hasse bound
    ``a^2 <= 4q`` raises ``MeasureError``: no curve has it.  A symbolic model
    has none and raises ``MeasureError``.
    """

    def __init__(self, q: int):
        if not _is_int(q) or not is_prime_power(q):
            raise ValueError(f"q must be a prime power >= 2, got {q!r}")
        self.q = q

    def lefschetz_image(self) -> int:
        return self.q

    def _numerator(self, model: CurveModel) -> tuple[int, ...]:
        if model.kind == "symbolic":
            raise MeasureError(
                f"no realization for generator c[{reprlib.repr(model.name)[1:-1]},1]"
                f" under point counting with q = {self.q}"
            )
        genus = model.genus
        if model.kind == "elliptic":
            numerator = (1, -model.trace, self.q)
        else:
            numerator = model.numerator
            if len(numerator) - 1 == 2 * genus:
                for j in range(genus + 1):
                    if numerator[2 * genus - j] != numerator[j] * self.q ** (genus - j):
                        raise MeasureError(
                            f"model {reprlib.repr(model.name)}: numerator fails the"
                            f" functional equation at degree {j}"
                        )
        # A genus-1 numerator of degree 2 is 1 - a t + q t^2, q fixed by now.
        if genus == 1 and len(numerator) == 3 and numerator[1] ** 2 > 4 * self.q:
            raise MeasureError(
                f"model {reprlib.repr(model.name)}: trace {-numerator[1]} is outside the"
                f" Hasse bound |a| <= 2 sqrt(q) at q = {self.q}"
            )
        return numerator


class Leaves:
    """The leaves of the closed forms and the oracle, all in one coefficient ring.

    ``lefschetz`` is the image of ``L``, ``one`` the unit of its ring, and
    ``classes`` maps each model id to the images of ``c[m,0..N]``, the
    classes of the model's symmetric powers.
    """

    __slots__ = ("lefschetz", "classes", "one")

    def __init__(self, lefschetz: Coeff, classes: Mapping[str, Sequence[Coeff]]):
        self.lefschetz = lefschetz
        self.classes = classes
        self.one = lefschetz**0  # the unit of the leaves' ring


def leaf_images(graph: DualGraph, measure: MotivicMeasure, order: int) -> Leaves:
    """The leaves of ``graph`` under ``measure``.

    Each model's classes run through ``t^max(order, 2g)``, in the order of
    ``graph.models``.  ``order`` is the highest degree a series builder will
    read (``zeta_series`` and ``divisor_series_from_strata`` take the first
    ``order + 1`` classes); ``zeta_rational`` takes only the first
    ``2g + 1``, so a caller that builds the rational form alone passes 0.
    A model the measure does not realize raises ``MeasureError`` here, at
    every order, and an order that is not a nonnegative ``int`` the ring's
    ``ValueError``, before any class is built.
    """
    _require_natural(order, "truncation order")
    classes = {
        name: measure.class_series(model, max(order, 2 * model.genus))
        for name, model in graph.models.items()
    }
    return Leaves(measure.lefschetz_image(), classes)
