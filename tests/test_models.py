"""Family definitions and exact discriminant membership.

The interior-stratum eliminant is pinned here both as a frozen text
form and through constructive oracles: parameters built to carry a
zero-level critical point must annihilate it, and the c=0 slice must
reduce to the classical cusp bent along the parabola.
"""

import importlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from discatlas.exactpoly import (
    MultiPoly,
    UniPoly,
    _int_reduced,
    _interpolate,
    discriminant,
    gcd_uni,
    poly_from_roots,
)
from discatlas.models import (
    ArityMismatch,
    Membership,
    Parameter,
    SeedNotSmallEnough,
    SingularityClass,
    boundary_polynomial,
    deformation_polynomial,
    discriminant_membership,
    f4_reduce,
    f4_seed_oval_side,
    f4_sigma0_eliminant,
    f4_sigma1_polynomial,
    _KRONECKER_MAX_BITS,
    _balanced_digits,
    _int_point,
    _int_strata,
    _kronecker_bits,
    _node_strata,
    _packed_strata,
    _segment_line,
    _strata_degrees,
    segment_strata,
    stratum_values,
    table1_metadata,
    xi0_point,
)
import discatlas.atlas as atlas_mod
from elimination_oracle import derivative, derive_sigma0_eliminant, substitute

F = Fraction

B2 = SingularityClass("B", 2, 1)
F4P = SingularityClass("F4", 4, 1)
F4M = SingularityClass("F4", 4, -1)


# ---------------------------------------------------------------------------
# class algebra


def test_parse_and_label():
    assert SingularityClass.parse("B+4").label() == "B+4"
    assert SingularityClass.parse("-B3").label() == "B-3"
    assert SingularityClass.parse("C5-").label() == "C-5"
    assert SingularityClass.parse("F4+").label() == "F4+"
    assert SingularityClass.parse("f4-").sign == -1
    for bad in ("B1", "F5+", "A3", "", "B+0"):
        with pytest.raises(ValueError):
            SingularityClass.parse(bad)


def test_component_count_formulas():
    # (k+1)^2 for even mu, (k+1)(k+2) for odd
    assert SingularityClass("B", 4, 1).expected_component_count() == 9
    assert SingularityClass("B", 5, 1).expected_component_count() == 12
    assert SingularityClass("C", 6, -1).expected_component_count() == 16
    assert SingularityClass("C", 7, 1).expected_component_count() == 20
    assert F4P.expected_component_count() == 8


def test_sector_counts_and_decomposition():
    assert SingularityClass("B", 4, 1).asymptotic_sector_count() == 0
    assert SingularityClass("B", 4, -1).asymptotic_sector_count() == 2
    assert SingularityClass("B", 5, 1).asymptotic_sector_count() == 1
    assert SingularityClass("C", 4, 1).asymptotic_sector_count() == 2
    assert F4P.asymptotic_sector_count() == 1
    assert SingularityClass("B", 6, 1).decomposition() == ("A5", "A1")
    assert SingularityClass("C", 6, 1).decomposition() == ("A1", "A5")
    assert F4M.decomposition() == ("A2", "A2")


def test_table1_metadata_fields():
    md = table1_metadata(SingularityClass("C", 5, 1))
    assert md["expected_components"] == 12
    assert md["asymptotic_sectors"] == 2
    assert md["decomposition"] == ["A1", "A4"]
    assert "normal_form" in md and md["mu"] == 5


# ---------------------------------------------------------------------------
# deformations


def test_deformation_polynomial_examples():
    f = deformation_polynomial(B2, Parameter.of(0, -1))
    x, y = MultiPoly.variables(("x", "y"))
    one = MultiPoly.constant(("x", "y"), 1)
    assert f == x ** 2 + y ** 2 - one
    f = deformation_polynomial(F4P, Parameter.of(1, -1, 0, 0))
    assert f == x ** 2 + y ** 3 + x - y
    f = deformation_polynomial(SingularityClass("C", 3, 1), Parameter.of(0, 0, 0))
    assert f == x * y + y ** 3


def test_boundary_polynomial_examples():
    assert boundary_polynomial(B2, Parameter.of(0, -1)) == UniPoly("x", [-1, 0, 1])
    h = boundary_polynomial(SingularityClass("C", 4, 1), Parameter.of(1, 0, 0, 2))
    assert h == UniPoly("y", [2, 0, 0, 1, 1])
    h = boundary_polynomial(F4P, Parameter.of(5, -1, 7, 0))
    assert h == UniPoly("y", [0, -1, 0, 1])


def test_deformation_restricted_to_boundary_matches():
    # the boundary polynomial is f(x, 0) for B and f(0, y) for C / F4
    rng = random.Random(2)
    classes = [B2, SingularityClass("B", 5, -1), SingularityClass("C", 3, 1),
               SingularityClass("C", 6, -1), F4P, F4M]
    for sc in classes:
        for _ in range(5):
            lam = Parameter.of(*[F(rng.randint(-9, 9), rng.randint(1, 4))
                                 for _ in range(sc.parameter_count)])
            f = deformation_polynomial(sc, lam)
            h = boundary_polynomial(sc, lam)
            for v in (-2, F(-1, 3), 0, 1, F(5, 2)):
                pt = (v, 0) if sc.family == "B" else (0, v)
                assert f.eval(pt) == h(v)


def test_arity_mismatch():
    with pytest.raises(ArityMismatch):
        deformation_polynomial(B2, Parameter.of(1, 2, 3))
    with pytest.raises(ArityMismatch):
        discriminant_membership(F4P, Parameter.of(1, 2))


# ---------------------------------------------------------------------------
# membership, B and C


def test_membership_b2_double_root_origin():
    assert discriminant_membership(B2, Parameter.of(0, 0)) is Membership.BOTH


def test_membership_bc_conditions():
    # B: Sigma0 iff h has a real multiple root, Sigma1 iff h(0)=0
    sc = SingularityClass("B", 3, 1)
    lam = Parameter.of(-2, 1, 0)  # h = x^3 - 2x^2 + x = x(x-1)^2
    assert discriminant_membership(sc, lam) is Membership.BOTH
    lam = Parameter.of(0, -1, 0)  # h = x^3 - x, simple roots, 0 among them
    assert discriminant_membership(sc, lam) is Membership.SIGMA1
    lam = Parameter.of(2, 1, 0)  # h = x(x+1)^2, multiple root and h(0)=0
    assert discriminant_membership(sc, lam) is Membership.BOTH
    lam = Parameter.of(0, -1, 1)
    assert discriminant_membership(sc, lam) is Membership.NON_SINGULAR


def test_membership_complex_double_root_is_sigma0_free():
    # (x^2+1)^2 has no real multiple root: not Sigma0 for B
    sc = SingularityClass("B", 4, 1)
    lam = Parameter.of(0, 2, 0, 1)  # h = x^4 + 2x^2 + 1
    m = discriminant_membership(sc, lam)
    assert m is Membership.NON_SINGULAR


def test_bc_duality_roles_swap():
    # same h: B tests multiple roots for Sigma0 and h(0) for Sigma1,
    # C reports the same conditions with the labels interchanged
    pairs = [
        (Parameter.of(-2, 1, 0), Membership.BOTH, Membership.BOTH),
        (Parameter.of(0, -1, 0), Membership.SIGMA1, Membership.SIGMA0),
        (Parameter.of(0, -3, 2), Membership.SIGMA0, Membership.SIGMA1),
        (Parameter.of(0, -1, 1), Membership.NON_SINGULAR,
         Membership.NON_SINGULAR),
    ]
    scb = SingularityClass("B", 3, 1)
    scc = SingularityClass("C", 3, 1)
    for lam, want_b, want_c in pairs:
        assert discriminant_membership(scb, lam) is want_b
        assert discriminant_membership(scc, lam) is want_c


# ---------------------------------------------------------------------------
# F4 membership and the eliminant


FROZEN_ELIMINANT = ("27*a^4 + a^3*c^3 + 30*a^2*b*c^2 - 216*a^2*d"
                    " - 96*a*b^2*c + a*b*c^5 - 36*a*c^3*d + 64*b^3"
                    " - b^2*c^4 + 72*b*c^2*d - c^6*d + 432*d^2")


def test_eliminant_frozen_text():
    E = f4_sigma0_eliminant()
    assert E.vars == ("a", "b", "c", "d")
    assert E.text() == FROZEN_ELIMINANT
    assert f4_sigma1_polynomial().text() == "4*b^3 + 27*d^2"


def test_eliminant_closed_form_matches_resultant_derivation():
    # the closed form -disc_y(g)/16 against the resultant of the
    # critical-point system, made primitive and squarefree
    assert derive_sigma0_eliminant() == f4_sigma0_eliminant()


def test_stratum_values_f4_is_cubic_discriminant():
    # Delta_0 = -disc(g)/16 pointwise, taken at the reduced parameter
    # for the minus class; Sigma_1 is -disc(P)
    rng = random.Random(71)
    for _ in range(40):
        lam = Parameter.of(*[F(rng.randint(-9, 9), rng.randint(1, 4))
                             for _ in range(4)])
        a, b, c, d = lam
        g = UniPoly("y", [a * a - 4 * d, 2 * a * c - 4 * b, c * c, -4])
        P = boundary_polynomial(F4P, lam)
        assert stratum_values(F4P, lam) == (-discriminant(g) / 16,
                                            -discriminant(P))
        assert stratum_values(F4M, lam) == stratum_values(F4P, f4_reduce(lam))


def test_eliminant_quasi_homogeneous_weight_12():
    # weights a:3 b:4 c:1 d:6; every term has total weight 12
    E = f4_sigma0_eliminant()
    w = (3, 4, 1, 6)
    for e in E.terms:
        assert sum(wi * ei for wi, ei in zip(w, e)) == 12


def test_eliminant_nonzero_away_from_sigma0():
    # f = x^2 + y^3 + 1: unique critical point (0,0), value 1
    assert f4_sigma0_eliminant().eval((0, 0, 0, 1)) != 0


def test_constructed_critical_point_annihilates_eliminant():
    # choose (x0, y0, c), solve the critical-point system for a, b, d
    E = f4_sigma0_eliminant()
    rng = random.Random(17)
    for _ in range(60):
        x0 = F(rng.randint(-8, 8), rng.randint(1, 5))
        y0 = F(rng.randint(-8, 8), rng.randint(1, 5))
        c = F(rng.randint(-8, 8), rng.randint(1, 5))
        a = -2 * x0 - c * y0
        b = -3 * y0 ** 2 - c * x0
        d = -(x0 ** 2 + y0 ** 3 + a * x0 + b * y0 + c * x0 * y0)
        assert E.eval((a, b, c, d)) == 0
        f = deformation_polynomial(F4P, Parameter.of(a, b, c, d))
        assert f.eval((x0, y0)) == 0
        assert derivative(f, "x").eval((x0, y0)) == 0
        assert derivative(f, "y").eval((x0, y0)) == 0


def test_slice_parametrization_lands_in_sigma0():
    # on c=0 the eliminant zero set is 27*(d - a^2/4)^2 + 4*b^3 = 0,
    # parametrized by b = -3 t^2, d = 2 t^3 + a^2/4
    E = f4_sigma0_eliminant()
    rng = random.Random(23)
    for _ in range(40):
        t = F(rng.randint(-9, 9), rng.randint(1, 4))
        a = F(rng.randint(-9, 9), rng.randint(1, 4))
        lam = Parameter.of(a, -3 * t ** 2, 0, 2 * t ** 3 + a ** 2 / 4)
        assert E.eval(tuple(lam)) == 0
        m = discriminant_membership(F4P, lam)
        assert m in (Membership.SIGMA0, Membership.BOTH)


def test_membership_f4_examples():
    # (0,-3,0,2): 27*4 + 4*(-27) = 0, and the eliminant vanishes too
    lam = Parameter.of(0, -3, 0, 2)
    assert f4_sigma1_polynomial().eval(tuple(lam)) == 0
    assert f4_sigma0_eliminant().eval(tuple(lam)) == 0
    assert discriminant_membership(F4P, lam) is Membership.BOTH
    # Xi_0 point with y0=1, c=1
    lam = xi0_point(1, 1)
    assert lam.values == (F(-1), F(-3), F(1), F(2))
    assert discriminant_membership(F4P, lam) is Membership.BOTH
    # plainly nonsingular
    assert discriminant_membership(F4P, Parameter.of(1, 1, 0, 1)) \
        is Membership.NON_SINGULAR


def test_f4_sign_reduction_identity():
    # -f^-(x, -y) = f^+ at the reduced parameter, identically
    rng = random.Random(31)
    x, y = MultiPoly.variables(("x", "y"))
    for _ in range(20):
        lam = Parameter.of(*[F(rng.randint(-9, 9), rng.randint(1, 3))
                             for _ in range(4)])
        fm = deformation_polynomial(F4M, lam)
        fp = deformation_polynomial(F4P, f4_reduce(lam))
        # substitute y -> -y in fm, then negate
        fm_flip = substitute(fm, "y", -y)
        assert -fm_flip == fp


def test_f4_reduce_involution():
    lam = Parameter.of(F(1, 2), -3, F(7, 5), 4)
    assert f4_reduce(f4_reduce(lam)).values == lam.values


def test_f4_minus_membership_matches_reduced_plus():
    rng = random.Random(41)
    for _ in range(30):
        lam = Parameter.of(*[F(rng.randint(-6, 6), rng.randint(1, 3))
                             for _ in range(4)])
        assert discriminant_membership(F4M, lam) is \
            discriminant_membership(F4P, f4_reduce(lam))


# ---------------------------------------------------------------------------
# Xi_0 and the oval seeds


def test_xi0_point_examples():
    assert xi0_point(1, 1).values == (F(-1), F(-3), F(1), F(2))
    lam = xi0_point(1, 0)
    assert lam.values == (F(0), F(-3), F(0), F(2))
    assert f4_sigma1_polynomial().eval(tuple(lam)) == 0
    assert xi0_point(0, 5).values == (F(0), F(0), F(5), F(0))


def test_xi0_critical_point_identities():
    rng = random.Random(13)
    for _ in range(25):
        y0 = F(rng.randint(-6, 6), rng.randint(1, 4))
        c = F(rng.randint(-6, 6), rng.randint(1, 4))
        lam = xi0_point(y0, c)
        f = deformation_polynomial(F4P, lam)
        assert f.eval((0, y0)) == 0
        assert derivative(f, "x").eval((0, y0)) == 0
        assert derivative(f, "y").eval((0, y0)) == 0
        # boundary cubic factors as (y - y0)^2 (y + 2 y0)
        h = boundary_polynomial(F4P, lam)
        assert h == poly_from_roots("y", [y0, y0, -2 * y0])


def test_oval_seed_frozen_values():
    lam = f4_seed_oval_side("left", 1, F(1, 2), F(1, 8))
    assert lam.values == (F(-3), F(-1), F(4), F(3, 8))
    lam = f4_seed_oval_side("right", 1, F(1, 2), F(1, 8))
    assert lam.values == (F(3), F(-1), F(-4), F(3, 8))
    assert discriminant_membership(F4P, lam) is Membership.NON_SINGULAR


def test_oval_seed_degenerate_is_xi0():
    lam = f4_seed_oval_side("right", 1, 0, 0)
    assert lam.values == xi0_point(1, -4).values
    assert discriminant_membership(F4P, lam) is Membership.BOTH


def test_oval_seed_validation():
    with pytest.raises(ValueError):
        f4_seed_oval_side("up", 1, F(1, 2), F(1, 8))
    with pytest.raises(ValueError):
        f4_seed_oval_side("left", 0, F(1, 2), F(1, 8))
    with pytest.raises(ValueError):
        f4_seed_oval_side("left", 1, 0, F(1, 8))
    with pytest.raises(ValueError):
        f4_seed_oval_side("left", 1, F(1, 2), 0)


def test_oval_seed_rejects_singular_construction():
    # eps = 3/4 zeroes the shifted cubic's linear term (b' = -3 + 4 eps)
    # and delta = 7/16 zeroes its constant term, so the boundary cubic
    # degenerates to y^3 and the construction lands on Sigma_1
    with pytest.raises(SeedNotSmallEnough):
        f4_seed_oval_side("right", 1, F(3, 4), F(7, 16))


# ---------------------------------------------------------------------------
# eliminant vs the instantiated critical system


def test_eliminant_agrees_with_instantiated_system():
    # at fixed rational lambda, Sigma0 holds iff the y-eliminated pair
    # e1 = 4P(y) - (a+c y)^2 with P = y^3+by+d, e2 = 6 y^2 - c^2 y + 2b - a c
    # has a common root (gcd test), built here independently
    E = f4_sigma0_eliminant()
    rng = random.Random(53)
    agree = 0
    for _ in range(120):
        a, b, c, d = (F(rng.randint(-5, 5), rng.randint(1, 2))
                      for _ in range(4))
        e1 = UniPoly("y", [4 * d - a * a, 4 * b - 2 * a * c, -c * c, 4])
        e2 = UniPoly("y", [2 * b - a * c, -c * c, 6])
        system_hit = gcd_uni(e1, e2).degree() > 0
        elim_hit = E.eval((a, b, c, d)) == 0
        assert system_hit == elim_hit
        agree += 1
    assert agree == 120


# ---------------------------------------------------------------------------
# segment strata


SEGMENT_LABELS = [f"{fam}{s}{mu}" for fam in "BC" for s in "+-"
                  for mu in range(2, 9)] + ["F4+", "F4-"]
seg_rational = st.builds(F, st.integers(-40, 40),
                         st.sampled_from([1, 2, 3, 7, 12, 1024]))


@st.composite
def segments(draw):
    sc = SingularityClass.parse(draw(st.sampled_from(SEGMENT_LABELS)))
    a = Parameter(tuple(draw(seg_rational)
                        for _ in range(sc.parameter_count)))
    b = Parameter(tuple(draw(seg_rational)
                        for _ in range(sc.parameter_count)))
    if draw(st.booleans()):
        # share coordinates, so that a stratum is constant or zero on
        # the segment
        b = Parameter(tuple(x if draw(st.booleans()) else y
                            for x, y in zip(a, b)))
    return sc, a, b


@settings(max_examples=150, deadline=None)
@given(segments(), st.integers(1, 9))
@example((SingularityClass.parse("C+3"), Parameter.of(1, 2, 0),
          Parameter.of(-1, 2, 0)), 4)
def test_segment_strata_match_stratum_values(seg, m):
    sc, a, b = seg
    strata = segment_strata(sc, a, b)
    for cs, den in strata:
        assert den > 0 and (not cs or cs[-1] != 0)
    for k in range(m + 1):
        t = F(k, m)
        want = stratum_values(sc, atlas_mod._lerp(a, b, t))
        got = tuple(sum(c * t ** i for i, c in enumerate(cs)) / den
                    for cs, den in strata)
        assert got == want


# ---------------------------------------------------------------------------
# the integer stratum kernel


@st.composite
def scaled_points(draw):
    sc = SingularityClass.parse(draw(st.sampled_from(SEGMENT_LABELS)))
    lam = [F(draw(st.integers(-40, 40)), draw(st.integers(1, 1024)))
           for _ in range(sc.parameter_count)]
    if sc.family == "F4" and draw(st.booleans()):
        lam[2] = F(0)
    lam = Parameter(tuple(lam))
    # any common multiple of the denominators will do
    den = draw(st.integers(1, 4)) * math.lcm(*(v.denominator for v in lam))
    return sc, lam, den


@settings(max_examples=300, deadline=None)
@given(scaled_points())
@example((F4M, Parameter.of(F(1, 2), F(-3, 4), 0, F(5, 1024)), 1024))
def test_int_strata_is_scaled_stratum_values(point):
    sc, lam, den = point
    got = _int_strata(sc, _int_point(den, lam), den)
    assert tuple(F(v, den ** n) for v, n in zip(got, _strata_degrees(sc))) \
        == stratum_values(sc, lam)


@pytest.mark.parametrize("sc", [F4P, F4M], ids=["F4+", "F4-"])
def test_f4_segment_strata_need_only_eight_nodes(sc):
    # Delta_0 has degree 7, so a ninth node adds nothing
    rng = random.Random(5 + sc.sign)
    for _ in range(30):
        a, b = (Parameter.of(*[F(rng.randint(-50, 50), rng.randint(1, 40))
                               for _ in range(4)]) for _ in range(2))
        den = math.lcm(*(v.denominator for v in a.values + b.values))
        A, B = _int_point(den, a), _int_point(den, b)
        nodes = [_int_strata(sc, [x + k * (y - x) for x, y in zip(A, B)], den)
                 for k in range(9)]
        nine = []
        for vals, n in zip(zip(*nodes), _strata_degrees(sc)):
            cs, scale = _interpolate(vals)
            nine.append(_int_reduced(cs, scale * den ** n))
        assert segment_strata(sc, a, b) == tuple(nine)


# ---------------------------------------------------------------------------
# the packed (Kronecker) segment strata against the node interpolation


PACKED_LABELS = [f"{fam}{s}{mu}" for fam in "BC" for s in "+-"
                 for mu in range(2, 8)] + ["F4+", "F4-"]
# h_t = (x^2 + 1)^2 * (x - t) along the segment: disc h vanishes for
# every t, with the complex double root +-i kept throughout
VANISHING_B5 = (SingularityClass.parse("B+5"), Parameter.of(0, 2, 0, 1, 0),
                Parameter.of(-1, 2, -2, 1, -1))


def _digits(sc):
    return max(_strata_degrees(sc)) + 1


@st.composite
def sized_segments(draw, sides=("below", "numerators", "denominator")):
    """A segment of any of the 26 classes with its packed integer below
    the cutoff, or above it through large numerators or through a large
    common denominator."""
    sc = SingularityClass.parse(draw(st.sampled_from(PACKED_LABELS)))
    side = draw(st.sampled_from(sides))
    big = 2 * _KRONECKER_MAX_BITS // _digits(sc) ** 2 + 16
    if side == "below":
        den = draw(st.integers(1, 16))
        coord = st.builds(lambda k: F(k, den), st.integers(-255, 255))
    elif side == "numerators":
        den = draw(st.integers(1, 16))
        coord = st.builds(lambda s, k: F(s * (2 ** big + k), den),
                          st.sampled_from([1, -1]), st.integers(0, 255))
    else:
        coord = st.builds(lambda k: F(2 * k + 1, 2 ** big),
                          st.integers(-128, 127))
    n = sc.parameter_count
    a = Parameter(tuple(draw(coord) for _ in range(n)))
    b = Parameter(tuple(draw(coord) for _ in range(n)))
    if draw(st.booleans()):
        b = Parameter(tuple(x if draw(st.booleans()) else y
                            for x, y in zip(a, b)))
    return sc, a, b, side


@settings(max_examples=120, deadline=None)
@given(sized_segments())
@example((SingularityClass.parse("C-7"), Parameter.of(*[F(3, 7)] * 7),
          Parameter.of(*[F(3, 7)] * 7), "below"))
@example(VANISHING_B5 + ("below",))
@example((SingularityClass.parse("F4-"), Parameter.of(1, 2, 3, 4),
          Parameter.of(1, 2, 3, 4), "below"))
def test_packed_strata_match_node_strata(seg):
    sc, a, b, side = seg
    line, den = _segment_line(sc, a, b)
    bits = _kronecker_bits(sc, line, den)
    assert (bits * _digits(sc) > _KRONECKER_MAX_BITS) == (side != "below")
    packed = _packed_strata(sc, line, den, bits)
    assert packed == _node_strata(sc, line, den)
    assert tuple(packed) == segment_strata(sc, a, b)


def test_vanishing_disc_segment_packs_to_zero():
    sc, a, b = VANISHING_B5
    line, den = _segment_line(sc, a, b)
    packed = _packed_strata(sc, line, den, _kronecker_bits(sc, line, den))
    assert packed[0] == ([], 1) == _node_strata(sc, line, den)[0]
    assert packed[1] == ([0, -1], 1)


def test_balanced_digits_refuse_what_does_not_fit():
    assert _balanced_digits(-3 + 2 ** 8 * 63 - 2 ** 16 * 63, 8, 3) \
        == [-3, 63, -63]
    assert _balanced_digits(0, 2, 4) == [0, 0, 0, 0]
    for v, bits, count in [(64, 8, 3),             # a digit of 2^(bits - 2)
                           (-64, 8, 3),
                           (2 ** 16, 8, 2),        # a part above the last
                           (-(2 ** 16) + 5, 8, 2),
                           (1, 2, 1)]:
        with pytest.raises(ArithmeticError):
            _balanced_digits(v, bits, count)


@settings(max_examples=60, deadline=None)
@given(sized_segments(sides=("below",)))
def test_undersized_digit_width_raises(seg):
    # with 2^bits between 2 and 4 times the largest coefficient every
    # balanced digit is a true coefficient, so the largest one is out
    # of range and the digit reader must refuse
    sc, a, b, _ = seg
    line, den = _segment_line(sc, a, b)
    coeffs = [c * (den ** n // d) for (cs, d), n
              in zip(_node_strata(sc, line, den), _strata_degrees(sc))
              for c in cs]
    if not any(coeffs):
        return
    bits = max(abs(c).bit_length() for c in coeffs) + 1
    assert bits * _digits(sc) <= _KRONECKER_MAX_BITS  # the packed path runs
    models_mod = importlib.import_module("discatlas.models")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(models_mod, "_kronecker_bits", lambda *args: bits)
        with pytest.raises(ArithmeticError):
            segment_strata(sc, a, b)
