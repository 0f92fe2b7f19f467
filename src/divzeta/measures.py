"""Motivic measures: ring homomorphisms to concrete targets.

A measure fixes an integer image for the Lefschetz class
(``lefschetz_image``) and, per model id it knows about, the images of the
model's symmetric-power generators in one call (``class_series``), then
extends multiplicatively and additively.  A measure is applied in one
place: ``zeta.leaf_images`` reads those images once per call, and the closed
forms and the strata oracle are built from them directly in the target
ring.  ``of_elem`` maps a finished symbolic expression, reading each
generator's image from the same series; no CLI path calls it.  Applying a
measure to a model it does not realize raises ``MeasureError`` naming the
model's first generator, ``c[m,1]`` (``c[m,0]`` is the unit and needs no
realization).

* ``PointCount(q, numerators, genera)``: counting points over a field with
  q elements.  ``L`` goes to q and ``c[m,d]`` to the ``t^d`` coefficient of
  ``P_m(t) / ((1-t)(1-q t))`` for the model's Weil numerator ``P_m``.
  ``point_count_for_graph(graph, q)`` takes each numerator from the graph's
  own model, its one source: an elliptic or weil model declares it, and a
  symbolic model has none.
* ``EulerCharacteristic(genera)``: point counting at ``L -> 1`` with the
  numerator ``(1-t)^(2g)``, so ``c[m,d]`` goes to the ``t^d`` coefficient of
  ``(1-t)^(2g-2)``.
* ``SymbolicIdentity()``: leaves expressions unchanged; its images are the
  free generators ``L`` and ``c[m,d]`` themselves.

Both integer measures share one ``class_series``: a model's classes are one
expansion of its numerator over ``(1-t)(1-l t)``, with ``l`` the image of
``L`` (``class_rational``, expanded by ``RationalFn.series``).  The closed
forms build a projective line's classes and each vertex zeta from the same
``class_rational``.
"""

from __future__ import annotations

import math
import reprlib
from collections.abc import Mapping, Sequence

from .graph import DualGraph
from .ring import Coeff, RationalFn, RingElem, lefschetz, sym_pow


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
    """Base class: integer-valued ring homomorphism.

    A subclass fixes the image ``l`` of ``L`` (``lefschetz_image``) and an
    integer numerator ``P_m`` per model it realizes (``_numerators``); the
    model's classes are then the expansion of ``P_m(t) / ((1-t)(1-l t))``.
    ``realm`` names the measure in messages.
    """

    name = "abstract"
    realm: str
    _numerators: Mapping[str, tuple[int, ...]]

    def lefschetz_image(self) -> int:
        raise NotImplementedError

    def class_series(self, model: str, order: int) -> list[int]:
        """Images of ``c[model,0]`` (the unit) through ``c[model,order]``."""
        if order == 0:  # c[m,0] is the unit: no numerator needed
            return [1]
        if model not in self._numerators:
            raise MeasureError(
                f"no realization for generator c[{reprlib.repr(model)[1:-1]},1]"
                f" under {self.realm}"
            )
        expansion = class_rational(self._numerators[model], self.lefschetz_image())
        return list(expansion.series(order).coefficients())

    def of_elem(self, elem: RingElem) -> int:
        total = 0
        for mono, coeff in elem.terms():
            value = coeff
            for gen, exp in mono:
                if gen.model is None:
                    value *= self.lefschetz_image() ** exp
                else:
                    value *= self.class_series(gen.model, gen.degree)[gen.degree] ** exp
            total += value
        return total


class SymbolicIdentity(MotivicMeasure):
    """The identity: apply is a no-op, useful as a uniform interface."""

    name = "symbolic"

    def of_elem(self, elem: RingElem) -> RingElem:
        return elem

    def lefschetz_image(self) -> RingElem:
        return lefschetz()

    def class_series(self, model: str, order: int) -> list[RingElem]:
        return [sym_pow(model, d) for d in range(order + 1)]


class EulerCharacteristic(MotivicMeasure):
    """Point counting at ``L -> 1``: a genus-g model's numerator is ``(1-t)^(2g)``."""

    name = "euler"
    realm = "the Euler-characteristic measure"

    def __init__(self, genera: Mapping[str, int] | None = None):
        self._numerators = {
            model: tuple((-1) ** d * math.comb(2 * genus, d) for d in range(2 * genus + 1))
            for model, genus in (genera or {}).items()
        }

    def lefschetz_image(self) -> int:
        return 1


class PointCount(MotivicMeasure):
    """Point counting over a field with ``q`` elements.

    ``numerators`` maps model ids to Weil numerator coefficient lists,
    ``genera`` to the corresponding genus, used to validate that the
    numerator has degree at most 2g and satisfies the functional equation
    when the degree is exactly 2g.
    """

    name = "point-count"

    def __init__(
        self,
        q: int,
        numerators: Mapping[str, Sequence[int]] | None = None,
        genera: Mapping[str, int] | None = None,
    ):
        if not is_prime_power(q):
            raise ValueError(f"q must be a prime power >= 2, got {q}")
        self.q = q
        self.realm = f"point counting with q = {q}"
        self._numerators = {m: tuple(p) for m, p in (numerators or {}).items()}
        genera = dict(genera or {})
        for model, numerator in self._numerators.items():
            if model not in genera:
                raise ValueError(f"missing genus for model {model!r}")
            self._validate_numerator(model, numerator, genera[model])

    def _validate_numerator(self, model: str, numerator: tuple[int, ...], genus: int) -> None:
        if not numerator or numerator[0] != 1:
            raise ValueError(f"model {model!r}: numerator must have constant term 1")
        degree = len(numerator) - 1
        if degree > 2 * genus:
            raise ValueError(
                f"model {model!r}: numerator degree {degree} exceeds 2*genus = {2 * genus}"
            )
        if degree == 2 * genus and genus > 0:
            for j in range(genus + 1):
                if numerator[2 * genus - j] != numerator[j] * self.q ** (genus - j):
                    raise ValueError(
                        f"model {model!r}: numerator fails the functional equation"
                        f" at degree {j}"
                    )

    def lefschetz_image(self) -> int:
        return self.q


def euler_for_graph(graph: DualGraph) -> EulerCharacteristic:
    """Euler measure realizing every model of the graph."""
    return EulerCharacteristic({name: model.genus for name, model in graph.models.items()})


def point_count_for_graph(graph: DualGraph, q: int) -> PointCount:
    """Point-count measure with numerators taken from the graph's models.

    Elliptic models contribute ``1 - a t + q t^2`` and weil models their
    stored numerator; projective lines need none.  A symbolic model has no
    numerator and raises ``MeasureError`` when first applied: one that should
    be counted is declared as a weil model.
    """
    numerators: dict[str, tuple[int, ...]] = {}
    for name, model in graph.models.items():
        if model.kind == "elliptic":
            numerators[name] = (1, -model.trace, q)
        elif model.kind == "weil":
            numerators[name] = model.numerator
    genera = {name: model.genus for name, model in graph.models.items()}
    return PointCount(q, numerators, genera)
