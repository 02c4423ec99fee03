"""Topological type computation for nonsingular parameters.

B/C signatures are pinned on constructed-root polynomials; the F4
descriptor is exercised on the spec'd slice points, on random samples
(structural invariants), and cross-checked against an independent
Sturm count of the boundary cubic and against the isolation-based
classifier kept at the end of this file as an oracle.
"""

import importlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from discatlas.exactpoly import (
    ArityMismatch,
    Interval,
    UniPoly,
    isolate_real_roots,
    refine_root,
    sturm_count,
)
from discatlas.atlas import SamplingConfig
from discatlas.classify import (
    BCSignature,
    DiscriminantParameter,
    F4Descriptor,
    F4_SEEDS,
    NonGenericConfiguration,
    _classify_point,
    canonical_type_id,
    classify,
    f4_side_seeds,
    type_key,
)
from discatlas.models import (
    Membership,
    Parameter,
    SingularityClass,
    _cleared,
    boundary_polynomial,
    discriminant_membership,
    f4_reduce,
    f4_seed_oval_side,
)

from oracles import candidate_descriptors

atlas_mod = importlib.import_module("discatlas.atlas")
classify_mod = importlib.import_module("discatlas.classify")

F = Fraction
F4P = SingularityClass("F4", 4, 1)
F4M = SingularityClass("F4", 4, -1)


# ---------------------------------------------------------------------------
# B/C signatures


def test_classify_bc_examples():
    sig = classify(SingularityClass("B", 2, 1), Parameter.of(0, -1))
    assert (sig.p, sig.q) == (1, 1)
    # h = (x-1)(x-2)(x+1)(x+3) = x^4 + x^3 - 7x^2 - x + 6
    sig = classify(SingularityClass("B", 4, 1), Parameter.of(1, -7, -1, 6))
    assert (sig.p, sig.q) == (2, 2)
    sig = classify(SingularityClass("C", 3, 1), Parameter.of(0, 0, 1))
    assert (sig.p, sig.q) == (1, 0)


def test_classify_bc_rejects_discriminant():
    with pytest.raises(DiscriminantParameter) as err:
        classify(SingularityClass("B", 2, 1), Parameter.of(0, 0))
    assert err.value.membership is Membership.BOTH
    with pytest.raises(DiscriminantParameter) as err:
        # h(0) = 0: Sigma1 for B
        classify(SingularityClass("B", 3, 1), Parameter.of(1, -2, 0))
    assert err.value.membership is Membership.SIGMA1


@pytest.mark.parametrize("label, lam, member", [
    # h = x^3 - 3x + 2 = (x - 1)^2 (x + 2): a real double root
    ("B+3", (0, -3, 2), Membership.SIGMA0),
    ("C+3", (0, -3, 2), Membership.SIGMA1),
    # h = x^3 + x^2 - 2x: a simple root at 0
    ("B+3", (1, -2, 0), Membership.SIGMA1),
    ("C+3", (1, -2, 0), Membership.SIGMA0),
])
def test_classify_bc_measure_zero_fallback(label, lam, member):
    with pytest.raises(DiscriminantParameter) as err:
        classify(SingularityClass.parse(label), Parameter.of(*lam))
    assert err.value.membership is member


@pytest.mark.parametrize("label", ["B+4", "C+4"])
def test_classify_bc_complex_double_root_is_nonsingular(label):
    # h = (x^2 + 4)^2: disc h = 0, yet no real multiple root
    sig = classify(SingularityClass.parse(label), Parameter.of(0, 8, 0, 16))
    assert sig.key() == "p0q0"


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
            sig = classify(sc, lam)
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
    d = classify(F4P, Parameter.of(1, 1, 0, 0))
    assert d.roots == (("B", "+"),) and d.oval == "A"
    d = classify(F4P, Parameter.of(1, -1, 0, 0))
    assert d.roots == (("B", "+"), ("O", "+"), ("O", "+"))
    assert d.oval == "C"
    d = classify(F4P, Parameter.of(3, -3, 0, 3))
    assert d.roots == (("B", "+"),) and d.oval == "L"


def test_classify_f4_rejects_discriminant_and_wall():
    with pytest.raises(DiscriminantParameter):
        classify(F4P, Parameter.of(0, -3, 0, 2))
    with pytest.raises(NonGenericConfiguration):
        # a = c = 0: f_x vanishes identically on the boundary
        classify(F4P, Parameter.of(0, -1, 0, 0))


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
    # six types are realized by the fixed c = 0 seeds
    assert len(F4_SEEDS) == 6
    for tid, lam in F4_SEEDS:
        assert lam[2] == 0
    # the remaining two come from the cuspidal-edge seeds, off the slice
    sides = f4_side_seeds()
    assert [tid for tid, _ in sides] == [7, 8]
    for tid, lam in sides:
        assert lam[2] != 0
    # in both classes each seed the census and the path router start
    # from classifies as its own type id, and the ids are 1..8
    for sc in (F4P, F4M):
        seeds = atlas_mod._f4_seeds(sc)
        assert list(seeds) == list(range(1, 9))
        for tid, lam in seeds.items():
            assert canonical_type_id(classify(sc, lam)) == tid, (sc, tid)


def test_integer_fixtures_reach_side_oval_types():
    assert canonical_type_id(classify(F4P, Parameter.of(7, -2, -6, 1))) == 7
    assert canonical_type_id(classify(F4P, Parameter.of(-7, -2, 6, 1))) == 8


def test_descriptor_invariants_on_samples():
    rng = random.Random(5)
    ok = 0
    for _ in range(800):
        lam = Parameter.of(*[F(rng.randint(-30, 30), rng.randint(1, 6))
                             for _ in range(4)])
        if discriminant_membership(F4P, lam) is not Membership.NON_SINGULAR:
            continue
        try:
            d = classify(F4P, lam)
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
            dm = classify(F4M, lam)
            dp = classify(F4P, f4_reduce(lam))
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


@pytest.mark.parametrize("label", ["B+3", "C-4", "F4+", "F4-"])
def test_classify_rejects_wrong_arity(label):
    with pytest.raises(ArityMismatch):
        classify(SingularityClass.parse(label), Parameter.of(1, 2))


@pytest.mark.parametrize("label", ["B+3", "C-4", "F4+", "F4-"])
def test_family_classifiers_check_arity_then_family(label):
    # the public classifier checks its input before clearing
    # denominators: one entry too few or too many is ArityMismatch
    sc = SingularityClass.parse(label)
    for n in (sc.parameter_count - 1, sc.parameter_count + 1):
        with pytest.raises(ArityMismatch):
            classify(sc, [F(1, 2)] * n)


def _result(fn, *args):
    # the type, or what the classifier raised
    try:
        return fn(*args)
    except DiscriminantParameter as e:
        return ("DiscriminantParameter", e.membership)
    except NonGenericConfiguration:
        return ("NonGenericConfiguration",)


@pytest.mark.parametrize("label", ["B+3", "C-4", "B-6", "C+7", "F4+", "F4-"])
def test_classify_point_is_scale_invariant(label):
    # the census den is the lcm of unreduced denominators, so the
    # integer entry must give the same type, or raise the same
    # membership, for every common denominator k*den, and agree with
    # classify at V/den; small boxes and denominator bounds put many
    # points on a stratum or the label wall
    sc = SingularityClass.parse(label)
    seen = Counter()
    for box, bound, n in ((2, 1, 60), (5, 2, 40), (5, 64, 20)):
        cfg = SamplingConfig(box_radius=box, random_count=n,
                             denominator_bound=bound, rng_seed=3)
        for V, den in atlas_mod._sample_points(cfg, sc.parameter_count):
            got = _result(_classify_point, sc, V, den)
            lam = Parameter(tuple(F(v, den) for v in V))
            assert got == _result(classify, sc, lam), (V, den)
            for k in range(1, 51):
                assert _result(_classify_point, sc, [k * v for v in V],
                               k * den) == got, (V, den, k)
            seen[got[0] if isinstance(got, tuple) else "type"] += 1
    assert seen["DiscriminantParameter"] and seen["type"], seen
    if sc.family == "F4":
        assert seen["NonGenericConfiguration"], seen


def test_catalog_id_unknown_type_guard():
    # every candidate descriptor quotients to a type id a seed realizes
    ids = {canonical_type_id(classify(F4P, lam))
           for lam in atlas_mod._f4_seeds(F4P).values()}
    cands = candidate_descriptors()
    assert len(cands) == 38
    for d in cands:
        assert canonical_type_id(d) in ids


@pytest.mark.parametrize("lam, member", [
    ((1, -3, 0, 2), Membership.SIGMA1),    # P = (y - 1)^2 (y + 2)
    ((-2, -3, 0, 3), Membership.SIGMA0),   # g = -4 (y - 1)^2 (y + 2)
])
def test_classify_f4_root_count_names_the_stratum(monkeypatch, lam, member):
    # classify reads F4 membership from its own stratum signs, so a
    # cubic with a double root is caught even with the membership test
    # replaced
    assert discriminant_membership(F4P, lam) is member
    mod = importlib.import_module("discatlas.classify")
    monkeypatch.setattr(mod, "discriminant_membership",
                        lambda sc, lam: Membership.NON_SINGULAR)
    with pytest.raises(DiscriminantParameter) as err:
        classify(F4P, lam)
    assert err.value.membership is member


# ---------------------------------------------------------------------------
# isolation oracle for the discriminant-sign classifier


class _IsolatedRoot:
    """A real algebraic number as a shrinking isolating interval."""

    __slots__ = ("poly", "iv")

    def __init__(self, poly: UniPoly, iv: Interval):
        self.poly = poly
        self.iv = iv

    def refine(self) -> None:
        if not self.iv.is_point():
            w = (self.iv.hi - self.iv.lo) / 4
            self.iv = refine_root(self.poly, self.iv, w)

    def bounds(self) -> tuple[Fraction, Fraction]:
        return self.iv.lo, self.iv.hi

    def compare(self, other: "_IsolatedRoot") -> int:
        """-1, 0, +1 ordering; 0 only for equal point intervals."""
        for _ in range(512):
            alo, ahi = self.bounds()
            blo, bhi = other.bounds()
            if ahi < blo or (ahi == blo and not (self.iv.is_point()
                                                 and other.iv.is_point())):
                return -1
            if bhi < alo or (bhi == alo and not (self.iv.is_point()
                                                 and other.iv.is_point())):
                return 1
            if self.iv.is_point() and other.iv.is_point():
                return 0
            self.refine()
            other.refine()
        raise RuntimeError("root comparison failed to separate")

    def compare_rational(self, r: Fraction) -> int:
        """Position of the root relative to an exact rational non-root."""
        for _ in range(512):
            lo, hi = self.bounds()
            if self.iv.is_point():
                return -1 if lo < r else (1 if lo > r else 0)
            if hi <= r:
                return -1
            if lo >= r:
                return 1
            self.refine()
        raise RuntimeError("root comparison failed to separate")


def _isolated(poly: UniPoly) -> list[_IsolatedRoot]:
    return [_IsolatedRoot(poly, iv)
            for iv in isolate_real_roots(poly, Fraction(1, 4))]


def _classify_f4_by_isolation(sc, lam) -> F4Descriptor:
    """F4 descriptor from isolated roots of both cubics, no sign shortcut.

    Membership comes from ``discriminant_membership``; the crossing
    count, the oval and every f_x sign are read from exactly ordered
    isolating intervals of P and g.
    """
    member = discriminant_membership(sc, lam)
    if member is not Membership.NON_SINGULAR:
        raise DiscriminantParameter("on the discriminant", member)
    if sc.sign < 0:
        lam = f4_reduce(lam)
    a, b, c, d = lam
    P = UniPoly("y", [d, b, 0, 1])
    if c == 0:
        if a == 0:
            raise NonGenericConfiguration("f_x vanishes on the boundary")
    elif P(-a / c) == 0:
        raise NonGenericConfiguration("f_x vanishes at a boundary crossing")
    g = UniPoly("y", [a * a - 4 * d, 2 * a * c - 4 * b, c * c, -4])
    p_roots, g_roots = _isolated(P), _isolated(g)

    def fx_sign(root) -> str:
        if c == 0:
            return "+" if a > 0 else "-"
        s = (1 if c > 0 else -1) * root.compare_rational(-a / c)
        return "+" if s > 0 else "-"

    if len(g_roots) == 1:
        return F4Descriptor(tuple(("B", fx_sign(r)) for r in p_roots), "A")
    r1, r2, r3 = g_roots
    tags = tuple(("B" if r.compare(r1) < 0 else "O", fx_sign(r))
                 for r in p_roots)
    if any(kind == "O" for kind, _ in tags):
        return F4Descriptor(tags, "C")
    while not r2.bounds()[1] < r3.bounds()[0]:
        r2.refine()
        r3.refine()
    y_mid = (r2.bounds()[1] + r3.bounds()[0]) / 2
    xc = -(a + c * y_mid) / 2
    if xc == 0:
        raise NonGenericConfiguration("midline vanishes inside the oval")
    return F4Descriptor(tags, "R" if xc > 0 else "L")


def _f4_oracle_points(sign: int, n: int, seed: int) -> list[Parameter]:
    """Seeded F4 points: every third on c = 0, about a fifth on a stratum.

    Small denominators hit the label wall and the strata by chance.  The
    built points lie on Sigma_1, with P = (y - t)^2 (y + 2t), or on
    Sigma_0, with g = -4 (y - u)^2 (y - v) and c^2 = 4(2u + v).
    """
    rng = random.Random(seed)

    def coord() -> Fraction:
        den = rng.choice((1, 1, 2, 3, 64))
        return F(rng.randint(-5 * den, 5 * den), den)

    out = []
    for i in range(n):
        a, b, c, d = coord(), coord(), coord(), coord()
        if i % 3 == 0:
            c = F(0)
        kind = rng.random()
        if kind < 0.1:
            t = coord()
            b, d = -3 * t * t, 2 * t ** 3
        elif kind < 0.2:
            u = coord()
            v = c * c / 4 - 2 * u
            b = a * c / 2 + u * u + 2 * u * v
            d = (a * a - 4 * u * u * v) / 4
            if sign < 0:
                # the minus class takes Sigma_0 at its plus-class reduction
                a, d = -a, -d
        out.append(Parameter.of(a, b, c, d))
    return out


# A root of g at y = 0, the first bisection midpoint of its isolation:
# the first two make r1's isolating interval the point [0, 0] (types 6
# and 4), the last two end it at r2 = 0 (types 6 and 5).
_F4_EXACT_HITS = (Parameter.of(1, -1, -3, F(1, 4)), Parameter.of(6, -2, -6, 9),
                  Parameter.of(6, -10, -3, 9), Parameter.of(2, 0, 1, 1))


def _f4_side_jitter(sign: int, n: int, seed: int) -> list[Parameter]:
    """Points within 1/64 of each coordinate of the two off-slice seeds.

    Most keep the seed's type 7 or 8, three crossings and a sided oval,
    which uniform samples almost never reach; the rest fall into the
    neighbouring types across a nearby stratum.
    """
    rng = random.Random(seed)
    out = []
    for _, lam in f4_side_seeds():
        for _ in range(n):
            p = Parameter.of(*(v + F(rng.randint(-8, 8), 512) for v in lam))
            out.append(f4_reduce(p) if sign < 0 else p)
    return out


def _outcome(classifier, sc, lam):
    try:
        desc = classifier(sc, lam)
    except DiscriminantParameter as e:
        return ("DiscriminantParameter", e.membership)
    except NonGenericConfiguration:
        return ("NonGenericConfiguration",)
    return (desc.key(), len(desc.roots), desc.oval)


@pytest.mark.parametrize("sc", [F4P, F4M], ids=["F4+", "F4-"])
def test_classify_f4_matches_isolation_oracle(sc):
    seen = Counter()
    hits = [f4_reduce(p) if sc.sign < 0 else p for p in _F4_EXACT_HITS]
    for lam in (_f4_oracle_points(sc.sign, 2100, seed=7 + sc.sign) + hits
                + _f4_side_jitter(sc.sign, 40, seed=11 + sc.sign)):
        got = _outcome(classify, sc, lam)
        assert got == _outcome(_classify_f4_by_isolation, sc, lam), lam
        seen[got[1:] if len(got) == 3 else got] += 1
    # every path of the classifier was taken: each stratum, the wall, no
    # oval with one and three crossings, and each oval state with each
    # crossing count it admits
    for case in [("DiscriminantParameter", Membership.SIGMA0),
                 ("DiscriminantParameter", Membership.SIGMA1),
                 ("DiscriminantParameter", Membership.BOTH),
                 ("NonGenericConfiguration",),
                 (1, "A"), (3, "A"), (1, "L"), (1, "R"), (3, "L"), (3, "R"),
                 (3, "C")]:
        assert seen[case] >= 5, (case, seen)


def _oval_cubic(lam: Parameter) -> list[int]:
    """G = den^2 * g at a plus-class point, as the classifier builds it."""
    V, den = _cleared(lam)
    al, be, ga, de = V
    return [al * al - 4 * den * de, 2 * al * ga - 4 * den * be, ga * ga,
            -4 * den * den]


# small integer points where the first square-root step (e = 0) leaves
# s or t on the wrong side of a root of g, so the loop raises e
_F4_OVAL_RAISED = (Parameter.of(6, -4, 6, -3), Parameter.of(3, -5, -5, 2),
                   Parameter.of(1, 6, 6, 0), Parameter.of(6, 0, 4, 2))


def test_f4_oval_points_separate_the_roots_of_g():
    # s in (r1, r2) and t in (r2, r3), against isolated roots of g
    pinched = [f4_seed_oval_side(side, 1, eps, eps * eps / 2 ** j)
               for side in ("left", "right") for eps in (F(1, 2), F(1, 8))
               for j in range(1, 13)]
    lams = ([Parameter.of(1, -3, 0, 0)] + pinched + list(_F4_OVAL_RAISED)
            + _f4_oracle_points(1, 600, seed=5)
            + _f4_side_jitter(1, 20, seed=3))
    cubics = [_oval_cubic(lam) for lam in lams]
    # -G(-y) trades the roles of s and t, so where G's first step left
    # s past r2, its mirror's leaves t short of r2
    cubics += [[-g0, g1, -g2, g3] for g0, g1, g2, g3 in cubics]
    checked = raised = 0
    for G in cubics:
        roots = _isolated(UniPoly("y", G))
        if len(roots) != 3:
            continue
        sn, tn, sd = classify_mod._f4_oval_points(G)
        assert [r.compare_rational(F(sn, sd)) for r in roots] == [-1, 1, 1]
        assert [r.compare_rational(F(tn, sd)) for r in roots] == [-1, -1, 1]
        checked += 1
        raised += sd > -3 * G[3]
    assert checked >= 400
    assert raised >= 2 * len(_F4_OVAL_RAISED)
    # D = 144 is a square: s and t are the critical points -1 and 1
    assert classify_mod._f4_oval_points(
        _oval_cubic(Parameter.of(1, -3, 0, 0))) == (-12, 12, 12)
