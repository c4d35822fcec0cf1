"""Output checks shared by the two workloads."""

from __future__ import annotations

import random

from liequad import ExpPoly
from liequad.exppoly import KIND_COS, KIND_SIN


def terms_close(c: ExpPoly, g: ExpPoly, tol: float) -> bool:
    """Term-for-term match: the same monomials and kinds, with exponential
    and trigonometric rates and coefficients each within `tol`."""
    unmatched = list(g.terms.items())
    if len(c.terms) != len(unmatched):
        return False
    for (k, a, b, kind), coeff in c.terms.items():
        for i, ((gk, ga, gb, gkind), gcoeff) in enumerate(unmatched):
            if (k == gk and kind == gkind and abs(coeff - gcoeff) <= tol
                    and all(abs(x - y) <= tol for x, y in zip(a + b, ga + gb))):
                del unmatched[i]
                break
        else:
            return False
    return True


def law_close(components, golden, tol: float = 1e-10) -> bool:
    """Term-for-term equality of two maps at `tol`."""
    return len(components) == len(golden) and all(
        terms_close(c, g, tol) for c, g in zip(components, golden))


def law_agrees(components, golden, tol: float = 1e-10, samples: int = 50,
               box: float = 1.2) -> bool:
    """Pointwise equality of two maps at seeded points of [-box, box]^n,
    relative to max(1, |value|)."""
    if len(components) != len(golden):
        return False
    rng = random.Random(0)
    for _ in range(samples):
        pt = {nm: rng.uniform(-box, box) for nm in golden[0].chart.names}
        for c, g in zip(components, golden):
            want = g.evaluate(pt)
            if abs(c.evaluate(pt) - want) > tol * max(1.0, abs(want)):
                return False
    return True


def fiveparam_law(chart, a, b) -> list[ExpPoly]:
    """Closed-form multiplication law of the 5-dim family on the doubled
    chart: z1 = x1 + y1 exp(-b x4 - a x5); the rest does not depend on (a, b)."""
    def rot(coeff, y, kind):
        return ExpPoly.term(chart, coeff, {y: 1}, {"x4": -1.0}, {"x5": 1.0}, kind)

    def x(name):
        return ExpPoly.coordinate(chart, name)

    return [
        x("x1") + ExpPoly.term(chart, 1.0, {"y1": 1}, {"x4": -float(b), "x5": -float(a)}),
        x("x2") + rot(1.0, "y2", KIND_COS) + rot(-1.0, "y3", KIND_SIN),
        x("x3") + rot(1.0, "y2", KIND_SIN) + rot(1.0, "y3", KIND_COS),
        x("x4") + x("y4"),
        x("x5") + x("y5"),
    ]
