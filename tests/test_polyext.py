from fractions import Fraction

import pytest

from princlab.core import Poly
from princlab.idem import is_idempotent_pair
from princlab.polyext import (
    Y2Y3,
    AlphaCounterexample,
    PolyExtRing,
    SubringDesc,
    SubringError,
    nonprinc_pair_from_alpha,
    seminormal_witness,
)

F = Fraction


def ypoly(*coeffs):
    return Poly([F(c) for c in coeffs])


Y = ypoly(0, 1)


def test_subring_desc_validation():
    SubringDesc({1})
    SubringDesc(set())
    with pytest.raises(SubringError):
        SubringDesc({0})
    with pytest.raises(SubringError):
        SubringDesc({2})  # y*y would leave the ring
    with pytest.raises(SubringError):
        SubringDesc({-1})


def test_membership():
    assert Y2Y3.contains(ypoly(3, 0, 1, 5))
    assert not Y2Y3.contains(Y)
    assert not Y2Y3.contains(ypoly(0, 2))
    assert Y2Y3.contains(ypoly(7))


def test_seminormal_witness_spec_cases():
    assert seminormal_witness(Y, Y2Y3)
    assert seminormal_witness(ypoly(0, 2), Y2Y3)  # 2y
    assert not seminormal_witness(ypoly(0, 0, 1), Y2Y3)  # y^2 already in D
    assert not seminormal_witness(Y, SubringDesc(set()))  # full ring is seminormal


def test_counterexample_alpha_y():
    ce = nonprinc_pair_from_alpha(Y, Y2Y3)
    y2, y3, y4, y5, y8 = (Y**k for k in (2, 3, 4, 5, 8))
    z = Poly()
    assert ce.u == Poly((ypoly(1), z, z, z, -y4))
    assert ce.v == Poly((y2, y3))
    assert ce.witness == Poly((z, z, z, z, y2, -y3, y4, -y5))
    # u(1-u) == y^4 X^4 - y^8 X^8
    ring = PolyExtRing(Y2Y3)
    lhs = ce.u * (ring.one - ce.u)
    assert lhs == Poly((z, z, z, z, y4, z, z, z, -y8))
    assert ce.verified()
    names = [s["step"] for s in ce.transcript]
    assert names == [
        "seminormal-witness",
        "unit-square-identity",
        "pair-identity",
        "membership",
        "generator-shape",
        "cofactor-comaximality",
        "conclusion-schema",
    ]


def test_counterexample_alpha_2y():
    ce = nonprinc_pair_from_alpha(ypoly(0, 2), Y2Y3)
    z = Poly()
    assert ce.u == Poly((ypoly(1), z, z, z, ypoly(0, 0, 0, 0, -16)))
    assert ce.v == Poly((ypoly(0, 0, 4), ypoly(0, 0, 0, 8)))
    assert ce.verified()


def test_counterexample_rejects_non_witness():
    with pytest.raises(SubringError):
        nonprinc_pair_from_alpha(ypoly(0, 0, 1), Y2Y3)


def test_pair_detected_by_idem_engine():
    ce = nonprinc_pair_from_alpha(Y, Y2Y3)
    ring = PolyExtRing(Y2Y3)
    pair = is_idempotent_pair(ce.u, ce.v, ring)
    assert pair is not None
    assert pair.orientation == "ab"
    assert pair.witness == ce.witness


def test_polyext_divides():
    ring = PolyExtRing(Y2Y3)
    ce = nonprinc_pair_from_alpha(Y, Y2Y3)
    # v does not divide u (gcd is 1 + yX, and u/v has denominators in y)
    assert ring.divides(ce.v, ce.u) is None
    q = ring.divides(ce.v, ce.v * ce.u)
    assert q == ce.u
