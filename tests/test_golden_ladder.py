"""Byte-for-byte regression of six algebras of the benchmark ladder.

`fixtures/golden_ladder.json` holds, for filiform L10 and L14, Borel b3
and b4, the 5-dim family at the irrational-looking ratio b = 665857/470832
and at (a, b) = (-1/3, 1), the text of every μ and Ad(x) entry and the
repr of every `verify_group` and `preadjoint_oracle` error.  It was
written by `_record`: the first four entries from the tuple-keyed ring,
before the ring packed its term keys, and L14 and b3 before the signed
renaming and the sparse factor products; a change of term order, of a
coefficient bit or of a sampled error shows here as a text difference.
"""

import json
from fractions import Fraction as F

import pytest

from liequad import StructureConstants, adapted_chain, multiplication, preadjoint_oracle, verify_group
from conftest import borel_constants, five_dim_constants, fixture_path

GOLDEN = "golden_ladder.json"

ALGEBRAS = {
    "filiform10": lambda: filiform_constants(10),
    "borel4": lambda: borel_constants(4),
    "fiveparam_irrational": lambda: five_dim_constants(F(1), F(665857, 470832)),
    "fiveparam_a-1/3_b1": lambda: five_dim_constants(F(-1, 3), F(1)),
    "filiform14": lambda: filiform_constants(14),
    "borel3": lambda: borel_constants(3),
}


def filiform_constants(n: int) -> StructureConstants:
    """L_n: [e_n, e_k] = e_{k-1} for k = 2..n-1."""
    return StructureConstants.from_brackets(n, {(n, k): {k - 1: F(1)} for k in range(2, n)})


def _record(name: str) -> dict:
    """The μ and Ad text and the check errors of one algebra, with the
    benchmark's tolerances and seeds 1 (axioms) and 2 (oracle)."""
    _, chain = adapted_chain(ALGEBRAS[name]())
    law = multiplication(chain, tol=1e-10)
    report = verify_group(law, samples=100, seed=1, tol=1e-8)
    report.extend(preadjoint_oracle(chain, law, samples=100, seed=2, tol=1e-8))
    return {
        "mu": [c.to_text() for c in law.mu.components],
        "ad": [[e.to_text() for e in row] for row in law.ad],
        "checks": [[c.name, c.passed, repr(c.error)] for c in report.checks],
    }


@pytest.fixture(scope="module")
def golden():
    with open(fixture_path(GOLDEN), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_ladder_texts_and_errors_are_unchanged(golden, name):
    assert set(golden) == set(ALGEBRAS)
    got = _record(name)
    want = golden[name]
    for part in ("mu", "ad", "checks"):
        assert got[part] == want[part], f"{name}: {part} differs"
