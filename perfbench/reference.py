"""Output checks against a plain-integer reference that shares no code with divzeta.

A realization is a ring homomorphism to the integers: ``L`` goes to an
integer ``ell`` and each vertex zeta ``Z_v`` to ``P_m(t)/((1-t)(1-ell t))``
for a numerator ``P_m`` of degree at most ``2g`` per model id.  Point
counting (``ell = q``, ``P = 1 - a t + q t^2``) and the Euler characteristic
(``ell = 1``, ``P = (1-t)^(2g)``) are realizations; symbolic outputs are
checked under a seeded random one, by evaluating the canonical text.  Every
closed form is expanded here with truncated integer series, so a wrong
coefficient or a rational form that does not expand to the reported
coefficients fails the check.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field

from workloads import Q, Job

# -- truncated integer series: a list of the coefficients of t^0 .. t^n --------


def truncate(coeffs: list[int], n: int) -> list[int]:
    out = list(coeffs[: n + 1])
    return out + [0] * (n + 1 - len(out))


def mul(a: list[int], b: list[int]) -> list[int]:
    return [sum(a[i] * b[d - i] for i in range(d + 1)) for d in range(len(a))]


def inverse(a: list[int]) -> list[int]:
    if a[0] != 1:
        raise ValueError(f"series with constant term {a[0]} is not invertible")
    inv = [1]
    for d in range(1, len(a)):
        inv.append(-sum(a[i] * inv[d - i] for i in range(1, d + 1)))
    return inv


def power(a: list[int], exponent: int) -> list[int]:
    out = truncate([1], len(a) - 1)
    for _ in range(exponent):
        out = mul(out, a)
    return out


def expand(numerator: list[int], denominator: list[int], n: int) -> list[int]:
    return mul(truncate(numerator, n), inverse(truncate(denominator, n)))


# -- realizations ----------------------------------------------------------------


@dataclass
class Realization:
    """``L -> ell`` and ``Z_v -> P_v(t)/((1-t)(1-ell t))``, keyed by vertex id.

    The benchmark's graphs name each model after its vertex and have no
    punctures or projective lines.
    """

    ell: int
    numerators: dict[str, list[int]]
    _generators: dict[tuple[str, int], int] = field(default_factory=dict)

    def vertex_zeta(self, vertex_id: str, n: int) -> list[int]:
        return expand(self.numerators[vertex_id], [1, -(self.ell + 1), self.ell], n)

    def generator(self, model_id: str, degree: int) -> int:
        key = (model_id, degree)
        if key not in self._generators:
            self._generators[key] = self.vertex_zeta(model_id, degree)[degree]
        return self._generators[key]

    def evaluate(self, text: str) -> int:
        """Image of one element in the canonical text form."""
        if text == "0":
            return 0
        total, sign = 0, 1
        for token in text.split(" "):
            if token in ("+", "-"):
                sign = 1 if token == "+" else -1
                continue
            if token.startswith("-"):
                sign, token = -1, token[1:]
            value = 1
            for factor in token.split("*"):
                value *= self._factor(factor)
            total += sign * value
        return total

    def _factor(self, factor: str) -> int:
        if factor.isdigit():
            return int(factor)
        base, _, exponent = factor.partition("^")
        if base == "L":
            value = self.ell
        elif base.startswith("c[") and base.endswith("]"):
            model_id, degree = base[2:-1].rsplit(",", 1)
            value = self.generator(model_id, int(degree))
        else:
            raise ValueError(f"unexpected factor {factor!r}")
        return value ** int(exponent) if exponent else value


def point_count(graph: dict) -> Realization:
    return Realization(
        Q, {v["id"]: [1, -v["model"]["trace"], Q] for v in graph["vertices"]}
    )


def euler(graph: dict) -> Realization:
    numerators = {}
    for v in graph["vertices"]:
        g = v["genus"]
        numerators[v["id"]] = [(-1) ** j * math.comb(2 * g, j) for j in range(2 * g + 1)]
    return Realization(1, numerators)


def random_realization(graph: dict, rng: random.Random) -> Realization:
    numerators = {
        v["id"]: [1] + [rng.randint(-9, 9) for _ in range(2 * v["genus"])]
        for v in graph["vertices"]
    }
    return Realization(rng.randint(2, 30), numerators)


# -- closed forms and strata counts -----------------------------------------------


def closed_form(kind: str, graph: dict, real: Realization, n: int) -> list[int]:
    """``[t^0..t^n]`` of the zeta of ``kind`` under the realization."""
    edges, legs = len(graph.get("edges", [])), len(graph.get("legs", []))
    one_minus_t = truncate([1, -1], n)
    product = truncate([1], n)
    for vertex in graph["vertices"]:
        product = mul(product, real.vertex_zeta(vertex["id"], n))
    if kind == "divisorial":
        node = expand([1, -real.ell], [1, -(real.ell + 1), 1], n)
        factor = mul(power(node, edges + legs), power(one_minus_t, 2 * edges + legs))
    elif kind == "hilbert":
        factor = power(truncate([1, -1, real.ell], n), edges)
    elif kind == "kapranov-nodal":
        factor = power(one_minus_t, edges)
    else:
        raise ValueError(f"unknown zeta kind {kind!r}")
    return mul(factor, product)


def strata_counts(graph: dict, n: int) -> list[int]:
    """Stable pairs per degree: ``(1-t)^(-|V|) * ((1-t)/(1-2t))^(|E|+n)``."""
    chains = len(graph.get("edges", [])) + len(graph.get("legs", []))
    per_vertex = expand([1], [1, -1], n)
    per_chain = expand([1, -1], [1, -2], n)
    return mul(power(per_vertex, len(graph["vertices"])), power(per_chain, chains))


# -- checks -------------------------------------------------------------------------


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


class Checker:
    """Judges one job's exit code and stdout; ``None`` means correct.

    Given ``digests`` (job name -> stdout sha256, recorded at the default
    seed), the stdout must also match, because the text and JSON outputs are
    a byte-stable contract.
    """

    def __init__(self, seed: int, graphs: dict[str, dict], digests: dict[str, str] | None):
        rng = random.Random(f"check-{seed}")
        self.graphs = graphs
        self.symbolic = {name: random_realization(graphs[name], rng) for name in sorted(graphs)}
        self.digests = digests
        self._verdicts: dict[tuple, str | None] = {}

    def check(self, job: Job, returncode: int, stdout: bytes) -> str | None:
        key = (job, returncode, digest(stdout))
        if key not in self._verdicts:
            self._verdicts[key] = self._check(job, returncode, stdout)
        return self._verdicts[key]

    def _check(self, job: Job, returncode: int, stdout: bytes) -> str | None:
        if returncode != 0:
            return f"exit code {returncode}"
        if self.digests is not None and self.digests.get(job.name) != digest(stdout):
            return "stdout differs from the recorded default-seed digest"
        try:
            report = json.loads(stdout)
            if job.mode == "compute":
                return self._check_compute(job, report)
            if job.mode == "verify":
                return self._check_verify(job, report)
            return self._check_counts(job, report)
        except (ValueError, KeyError, TypeError) as exc:
            return f"malformed report: {exc!r}"

    def _realization(self, job: Job) -> Realization:
        graph = self.graphs[job.graph]
        if job.measure == "point-count":
            return point_count(graph)
        if job.measure == "euler":
            return euler(graph)
        return self.symbolic[job.graph]

    def _values(self, job: Job, real: Realization, items: list) -> list[int]:
        if job.measure == "symbolic":
            return [real.evaluate(item) for item in items]
        if not all(type(item) is int for item in items):
            raise TypeError("measured values must be integers")
        return list(items)

    def _check_compute(self, job: Job, report: dict) -> str | None:
        n = job.max_degree
        real = self._realization(job)
        expected = closed_form(job.zeta, self.graphs[job.graph], real, n)
        if (report["mode"], report["zeta"], report["measure"]) != ("compute", job.zeta, job.measure):
            return "report header does not match the job"
        if self._values(job, real, report["coefficients"]) != expected:
            return "coefficients differ from the integer reference"
        rational = report["rational"]
        numerator = self._values(job, real, rational["numerator"])
        denominator = self._values(job, real, rational["denominator"])
        if expand(numerator, denominator, n) != expected:
            return "rational form does not expand to the coefficients"
        return None

    def _check_verify(self, job: Job, report: dict) -> str | None:
        if report["verified"] is not True:
            return "verify did not report verified: true"
        n = job.max_degree
        real = self._realization(job)
        expected = closed_form("divisorial", self.graphs[job.graph], real, n)
        rows = report["degrees"]
        if [row["degree"] for row in rows] != list(range(n + 1)):
            return "verify rows do not cover every degree"
        for row in rows:
            if row["oracle"] != row["closed"] or row["difference"] not in (0, "0"):
                return f"verify row {row['degree']} reports a difference"
        if self._values(job, real, [row["closed"] for row in rows]) != expected:
            return "closed coefficients differ from the integer reference"
        return None

    def _check_counts(self, job: Job, report: dict) -> str | None:
        if report["counts"] != strata_counts(self.graphs[job.graph], job.max_degree):
            return "stable-pair counts differ from the closed-form count"
        return None
