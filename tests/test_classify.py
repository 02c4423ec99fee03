"""Topological type computation for nonsingular parameters.

B/C signatures are pinned on constructed-root polynomials; the F4
descriptor is exercised on the spec'd slice points, on random samples
(structural invariants), and cross-checked against an independent
Sturm count of the boundary cubic.
"""

import importlib
import random
from fractions import Fraction

import pytest

from discatlas.exactpoly import Interval, UniPoly, sturm_count
from discatlas.classify import (
    BCSignature,
    CatalogMissing,
    DiscriminantParameter,
    F4Descriptor,
    F4_SEEDS,
    NonGenericConfiguration,
    candidate_descriptors,
    canonical_type_id,
    classify,
    classify_bc,
    classify_f4,
    f4_side_seeds,
    realized_catalog,
    type_key,
)
from discatlas.models import (
    Membership,
    Parameter,
    SingularityClass,
    boundary_polynomial,
    discriminant_membership,
    f4_reduce,
)

F = Fraction
F4P = SingularityClass("F4", 4, 1)
F4M = SingularityClass("F4", 4, -1)


# ---------------------------------------------------------------------------
# B/C signatures


def test_classify_bc_examples():
    sig = classify_bc(SingularityClass("B", 2, 1), Parameter.of(0, -1))
    assert (sig.p, sig.q) == (1, 1)
    # h = (x-1)(x-2)(x+1)(x+3) = x^4 + x^3 - 7x^2 - x + 6
    sig = classify_bc(SingularityClass("B", 4, 1), Parameter.of(1, -7, -1, 6))
    assert (sig.p, sig.q) == (2, 2)
    sig = classify_bc(SingularityClass("C", 3, 1), Parameter.of(0, 0, 1))
    assert (sig.p, sig.q) == (1, 0)


def test_classify_bc_rejects_discriminant():
    with pytest.raises(DiscriminantParameter) as err:
        classify_bc(SingularityClass("B", 2, 1), Parameter.of(0, 0))
    assert err.value.membership is Membership.BOTH
    with pytest.raises(DiscriminantParameter) as err:
        # h(0) = 0: Sigma1 for B
        classify_bc(SingularityClass("B", 3, 1), Parameter.of(1, -2, 0))
    assert err.value.membership is Membership.SIGMA1


def test_bc_signature_invariants_on_samples():
    rng = random.Random(97)
    for label in ("B+3", "B-4", "C+4", "C-5"):
        sc = SingularityClass.parse(label)
        seen = 0
        for _ in range(400):
            lam = Parameter.of(*[F(rng.randint(-40, 40), rng.randint(1, 8))
                                 for _ in range(sc.mu)])
            if discriminant_membership(sc, lam) is not Membership.NON_SINGULAR:
                continue
            sig = classify_bc(sc, lam)
            assert sig.p >= 0 and sig.q >= 0
            assert sig.p + sig.q <= sc.mu
            assert (sig.p + sig.q) % 2 == sc.mu % 2
            seen += 1
        assert seen > 300


def test_bc_signature_key_and_json():
    sig = BCSignature(1, 2)
    assert sig.key() == "p1q2"
    assert sig.json_obj() == {"p": 1, "q": 2}
    assert type_key(sig) == "p1q2"
    with pytest.raises(ValueError):
        BCSignature(-1, 0)


# ---------------------------------------------------------------------------
# F4 descriptors


def test_classify_f4_slice_examples():
    d = classify_f4(F4P, Parameter.of(1, 1, 0, 0))
    assert d.roots == (("B", "+"),) and d.oval == "A"
    d = classify_f4(F4P, Parameter.of(1, -1, 0, 0))
    assert d.roots == (("B", "+"), ("O", "+"), ("O", "+"))
    assert d.oval == "C"
    d = classify_f4(F4P, Parameter.of(3, -3, 0, 3))
    assert d.roots == (("B", "+"),) and d.oval == "L"


def test_classify_f4_rejects_discriminant_and_wall():
    with pytest.raises(DiscriminantParameter):
        classify_f4(F4P, Parameter.of(0, -3, 0, 2))
    with pytest.raises(NonGenericConfiguration):
        # a = c = 0: f_x vanishes identically on the boundary
        classify_f4(F4P, Parameter.of(0, -1, 0, 0))


def test_descriptor_constructor_validation():
    with pytest.raises(ValueError):
        F4Descriptor((("B", "+"), ("B", "-")), "A")  # two crossings
    with pytest.raises(ValueError):
        F4Descriptor((("O", "+"), ("B", "+"), ("O", "-")), "C")  # order
    with pytest.raises(ValueError):
        F4Descriptor((("B", "+"),), "C")  # crossed without oval roots
    with pytest.raises(ValueError):
        F4Descriptor((("B", "+"), ("O", "+"), ("O", "-")), "R")
    with pytest.raises(ValueError):
        F4Descriptor((("B", "+"),), "X")


def test_candidate_space():
    cands = candidate_descriptors()
    assert len(cands) == 38
    keys = {d.key() for d in cands}
    assert "B+:A" in keys and "B-:A" in keys
    # every sign pattern of three branch crossings with a left oval
    for s1 in "+-":
        for s2 in "+-":
            for s3 in "+-":
                assert f"B{s1}B{s2}B{s3}:L" in keys
    # no descriptor ever tags an oval crossing below a branch crossing
    for d in cands:
        kinds = [k for k, _ in d.roots]
        assert kinds == sorted(kinds)  # "B" < "O"


def test_canonical_type_id_quotient():
    assert canonical_type_id(F4Descriptor((("B", "+"),), "A")) == 1
    assert canonical_type_id(F4Descriptor((("B", "-"),), "A")) == 1
    assert canonical_type_id(F4Descriptor((("B", "+"),), "R")) == 4
    assert canonical_type_id(F4Descriptor((("B", "-"),), "L")) == 5
    assert canonical_type_id(
        F4Descriptor((("B", "+"), ("B", "-"), ("B", "+")), "A")) == 2
    assert canonical_type_id(
        F4Descriptor((("B", "-"), ("B", "+"), ("B", "-")), "A")) == 3
    assert canonical_type_id(
        F4Descriptor((("B", "+"), ("O", "+"), ("O", "-")), "C")) == 6
    assert canonical_type_id(
        F4Descriptor((("B", "+"), ("B", "+"), ("B", "+")), "R")) == 7
    assert canonical_type_id(
        F4Descriptor((("B", "-"), ("B", "-"), ("B", "-")), "L")) == 8


def test_realized_catalog():
    cat = realized_catalog()
    assert len(cat) == 8
    assert sorted(cat.values()) == list(range(1, 9))
    # six types are realized by the fixed c = 0 seeds
    assert len(F4_SEEDS) == 6
    for tid, lam in F4_SEEDS:
        assert lam[2] == 0
        assert canonical_type_id(classify_f4(F4P, lam)) == tid
    # the remaining two come from the cuspidal-edge seeds, off the slice
    sides = f4_side_seeds()
    assert [tid for tid, _ in sides] == [7, 8]
    for tid, lam in sides:
        assert lam[2] != 0
        assert canonical_type_id(classify_f4(F4P, lam)) == tid
    for d, tid in cat.items():
        assert canonical_type_id(d) == tid


def test_integer_fixtures_reach_side_oval_types():
    assert canonical_type_id(classify_f4(F4P, Parameter.of(7, -2, -6, 1))) == 7
    assert canonical_type_id(classify_f4(F4P, Parameter.of(-7, -2, 6, 1))) == 8


def test_descriptor_invariants_on_samples():
    rng = random.Random(5)
    ok = 0
    for _ in range(800):
        lam = Parameter.of(*[F(rng.randint(-30, 30), rng.randint(1, 6))
                             for _ in range(4)])
        if discriminant_membership(F4P, lam) is not Membership.NON_SINGULAR:
            continue
        try:
            d = classify_f4(F4P, lam)
        except NonGenericConfiguration:
            continue
        n_oval = sum(1 for k, _ in d.roots if k == "O")
        assert len(d.roots) in (1, 3)
        assert n_oval in (0, 2)
        assert (d.oval == "C") == (n_oval == 2)
        # dual route: crossing count equals the Sturm count of P
        P = boundary_polynomial(F4P, lam)
        assert len(d.roots) == sturm_count(P, Interval.real_line())
        ok += 1
    assert ok > 600


def test_f4_minus_classifies_through_reduction():
    rng = random.Random(61)
    n = 0
    for _ in range(200):
        lam = Parameter.of(*[F(rng.randint(-20, 20), rng.randint(1, 4))
                             for _ in range(4)])
        if discriminant_membership(F4M, lam) is not Membership.NON_SINGULAR:
            continue
        try:
            dm = classify_f4(F4M, lam)
            dp = classify_f4(F4P, f4_reduce(lam))
        except NonGenericConfiguration:
            continue
        assert dm == dp
        n += 1
    assert n > 150


def test_classify_dispatch_and_serialization():
    t = classify(SingularityClass("B", 2, 1), Parameter.of(0, -1))
    assert t.json_obj() == {"p": 1, "q": 1}
    t = classify(F4P, Parameter.of(1, 1, 0, 0))
    assert t.json_obj() == {"roots": [["B", "+"]], "oval": "A"}
    assert type_key(t) == "type1"


def test_catalog_id_unknown_type_guard():
    # every candidate descriptor quotients to a type id the catalogue
    # realizes
    ids = set(realized_catalog().values())
    for d in candidate_descriptors():
        assert canonical_type_id(d) in ids


@pytest.mark.parametrize("lam, member", [
    ((1, -3, 0, 2), Membership.SIGMA1),    # P = (y - 1)^2 (y + 2)
    ((-2, -3, 0, 3), Membership.SIGMA0),   # g = -4 (y - 1)^2 (y + 2)
])
def test_classify_f4_root_count_names_the_stratum(monkeypatch, lam, member):
    # with the membership test bypassed, a cubic with a double root is
    # still caught, by its root count
    assert discriminant_membership(F4P, lam) is member
    mod = importlib.import_module("discatlas.classify")
    monkeypatch.setattr(mod, "discriminant_membership",
                        lambda sc, lam: Membership.NON_SINGULAR)
    with pytest.raises(DiscriminantParameter) as err:
        classify_f4(F4P, lam)
    assert err.value.membership is member
