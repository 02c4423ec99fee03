"""Kernel tests: Sturm counts, isolation, gcd/squarefree, resultants.

The multivariate resultant of the test-only elimination oracle is
checked against a second oracle built here from scratch: the Sylvester
matrix assembled from the raw coefficient lists and expanded by
recursive cofactors.  The elimination oracle re-derives the F4
eliminant, so this file earns its keep before any discriminant
geometry is trusted.
"""

import copy
import math
import pickle
import random
from dataclasses import dataclass
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from discatlas.exactpoly import (
    ArityMismatch,
    DegreeZero,
    Interval,
    MultiPoly,
    UniPoly,
    ZeroPolynomial,
    discriminant,
    gcd_uni,
    isolate_real_roots,
    parse_rational,
    refine_root,
    restrict_to_segment,
    root_signature,
    sturm_count,
)
from discatlas import exactpoly as ep
from discatlas.exactpoly import _int_resultant
from elimination_oracle import (
    _mp_divide_exact,
    coefficients_in,
    degree_in,
    gcd_multi,
    resultant,
    squarefree_part_multi,
    sylvester_resultant_int,
)
from oracles import (
    _in_window,
    poly_divmod,
    poly_from_roots,
    reference_bisect_one,
    reference_isolate,
    reference_root_signature,
    reference_sturm_chain_int,
)

F = Fraction


# ---------------------------------------------------------------------------
# independent resultant oracle


def sylvester_matrix(f: MultiPoly, g: MultiPoly, var: str):
    """(m+n) x (m+n) Sylvester matrix with MultiPoly entries."""
    fc = coefficients_in(f, var)  # ascending in var
    gc = coefficients_in(g, var)
    m, n = len(fc) - 1, len(gc) - 1
    size = m + n
    zero = MultiPoly.constant(f.vars, 0)
    rows = []
    for i in range(n):
        row = [zero] * size
        for j, c in enumerate(reversed(fc)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [zero] * size
        for j, c in enumerate(reversed(gc)):
            row[i + j] = c
        rows.append(row)
    return rows


def det_cofactor(m):
    """Cofactor expansion along the first row; fine for size <= 6."""
    n = len(m)
    if n == 1:
        return m[0][0]
    acc = None
    for j in range(n):
        entry = m[0][j]
        if entry.is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = entry * det_cofactor(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    if acc is None:
        return MultiPoly.constant(m[0][0].vars, 0)
    return acc


def test_resultant_matches_cofactor_oracle_on_sigma1_cubic():
    # Res_y(y^3 + b*y + d, 3*y^2 + b): the Sigma_1 defining polynomial
    y, b, d = MultiPoly.variables(("y", "b", "d"))
    P = y ** 3 + b * y + d
    dP = MultiPoly.constant(P.vars, 3) * y ** 2 + b
    oracle = det_cofactor(sylvester_matrix(P, dP, "y"))
    got = resultant(P, dP, "y")
    expected = MultiPoly.constant(P.vars, 4) * b ** 3 \
        + MultiPoly.constant(P.vars, 27) * d ** 2
    assert got == expected
    assert oracle == expected


def test_resultant_matches_cofactor_oracle_random():
    rng = random.Random(7)
    names = ("x", "u")
    x, u = MultiPoly.variables(names)
    for _ in range(40):
        def rand_poly(deg):
            acc = MultiPoly.constant(names, 0)
            for k in range(deg + 1):
                c = rng.randint(-4, 4)
                if k == deg and c == 0:
                    c = 1
                term = MultiPoly.constant(names, c) * x ** k
                if rng.random() < 0.4:
                    term = term * u
                acc = acc + term
            return acc

        f = rand_poly(rng.randint(1, 3))
        g = rand_poly(rng.randint(1, 2))
        assert resultant(f, g, "x") == det_cofactor(sylvester_matrix(f, g, "x"))


def test_resultant_trivial_linear():
    # Res_x(x + c, x^2 + b) = c^2 + b, by substituting the root x = -c
    x, b, c = MultiPoly.variables(("x", "b", "c"))
    r = resultant(x + c, x ** 2 + b, "x")
    assert r == c ** 2 + b


def test_resultant_shared_parametric_root_vanishes():
    # f = (x-u)(x-1), g = (x-u)(x-2): common root for every u
    x, u = MultiPoly.variables(("x", "u"))
    one = MultiPoly.constant(("x", "u"), 1)
    two = MultiPoly.constant(("x", "u"), 2)
    f = (x - u) * (x - one)
    g = (x - u) * (x - two)
    assert resultant(f, g, "x").is_zero()


def test_resultant_rejects_degree_zero():
    x, u = MultiPoly.variables(("x", "u"))
    with pytest.raises(DegreeZero):
        resultant(x + u, u, "x")


def test_resultant_multiplicative_in_second_argument():
    rng = random.Random(21)
    for _ in range(30):
        f = poly_from_roots("x", [rng.randint(-3, 3) for _ in range(2)],
                            rng.choice([1, 2, -1]))
        g = poly_from_roots("x", [rng.randint(-3, 3)])
        h = poly_from_roots("x", [rng.randint(-3, 3) for _ in range(2)])
        f, g, h = (p._int_coeffs()[0] for p in (f, g, h))
        assert _int_resultant(f, ep._int_mul(g, h)) \
            == _int_resultant(f, g) * _int_resultant(f, h)


# ---------------------------------------------------------------------------
# Sturm counting


def test_sturm_count_examples():
    x2m1 = UniPoly("x", [-1, 0, 1])
    assert sturm_count(x2m1, Interval.open(0, None)) == 1
    p = poly_from_roots("x", [1, 1, -2])
    assert sturm_count(p, Interval.real_line()) == 2
    assert sturm_count(UniPoly("x", [1, 0, 1]), Interval.real_line()) == 0


def test_sturm_count_endpoint_openness():
    p = poly_from_roots("x", [0, 1, 1, 2])
    assert sturm_count(p, Interval.closed(0, 2)) == 3
    assert sturm_count(p, Interval.open(0, 2)) == 1
    assert sturm_count(p, Interval.point(1)) == 1
    assert sturm_count(p, Interval.point(F(1, 2))) == 0


def test_sturm_count_zero_polynomial():
    with pytest.raises(ZeroPolynomial):
        sturm_count(UniPoly("x", []), Interval.real_line())


def test_root_signature_examples():
    sig = root_signature(UniPoly("x", [2, -1, -2, 1]))
    assert (sig.neg, sig.pos) == (1, 2)
    assert not sig.zero_is_root and sig.is_squarefree
    sig = root_signature(UniPoly("x", [0, 0, 1]))
    assert (sig.neg, sig.pos) == (0, 0)
    assert sig.zero_is_root and not sig.is_squarefree
    sig = root_signature(UniPoly("x", [1, 0, 1]))
    assert (sig.neg, sig.pos) == (0, 0)
    assert not sig.zero_is_root and sig.is_squarefree


# ---------------------------------------------------------------------------
# isolation


def test_isolate_sqrt2():
    p = UniPoly("x", [-2, 0, 1])
    ivs = isolate_real_roots(p, F(1, 1024))
    assert len(ivs) == 2
    lo, hi = ivs
    assert lo.hi < 0 < hi.lo
    # 1.4142... lands in the second interval
    assert hi.lo <= F(14142, 10000) <= hi.hi or hi.lo <= F(14143, 10000) <= hi.hi
    for iv in ivs:
        assert iv.is_point() or iv.hi - iv.lo <= F(1, 1024)


def test_isolate_point_root():
    ivs = isolate_real_roots(UniPoly("x", [0, 0, 0, 1]), F(1, 2))
    assert len(ivs) == 1 and ivs[0].is_point() and ivs[0].lo == 0


def test_isolate_three_rational_roots():
    p = poly_from_roots("x", [1, 2, -1])
    ivs = isolate_real_roots(p, F(1, 8))
    assert len(ivs) == 3
    for iv, r in zip(ivs, (-1, 1, 2)):
        assert iv.lo <= r <= iv.hi
        assert iv.is_point() or iv.hi - iv.lo <= F(1, 8)
    assert ivs[0].hi < ivs[1].lo and ivs[1].hi < ivs[2].lo


def test_refine_root_shrinks():
    p = UniPoly("x", [-2, 0, 1])
    iv = isolate_real_roots(p, F(1, 2))[1]
    tight = refine_root(p, iv, F(1, 2 ** 30))
    assert tight.hi - tight.lo <= F(1, 2 ** 30)
    assert sturm_count(p, tight) == 1


def test_refine_root_exact_hit_and_point():
    p = UniPoly("x", [-1, 0, 4])                 # 4x^2 - 1
    assert refine_root(p, Interval.open(0, 1), F(1, 1024)) \
        == Interval.point(F(1, 2))
    pt = Interval.point(F(1, 2))
    assert refine_root(p, pt, F(1, 1024)) == pt
    # the sign is read from the squarefree part, so a double root is
    # refined the same way
    assert refine_root(p * p, Interval.open(F(1, 3), 1), F(1, 1024)) \
        == Interval.point(F(1, 2))


@pytest.mark.parametrize("width", [0, -1, F(-1, 8)])
def test_refine_root_rejects_a_width_that_is_not_positive(width):
    # a zero width used to bisect forever
    with pytest.raises(ValueError):
        refine_root(UniPoly("x", [-2, 0, 1]), Interval.open(1, 2), width)


def test_refine_root_rejects_a_root_on_a_closed_end():
    # [1/2, 1] holds the root 1/2 of 4x^2 - 1 on its end; this used to
    # return (1/2, 5/8), which holds no root
    with pytest.raises(ValueError):
        refine_root(UniPoly("x", [-1, 0, 4]), Interval.closed(F(1, 2), 1),
                    F(1, 8))


def test_refine_root_rejects_an_interval_without_a_sign_change():
    # (2, 3) holds no root of x^2 - 2 (this used to return (23/8, 3)),
    # and (-2, 2) holds two
    for iv in (Interval.open(2, 3), Interval.open(-2, 2)):
        with pytest.raises(ValueError):
            refine_root(UniPoly("x", [-2, 0, 1]), iv, F(1, 8))


@pytest.mark.parametrize("iv", [Interval.open(1, None),
                                Interval.open(None, 2),
                                Interval.real_line()])
def test_refine_root_rejects_an_infinite_end(iv):
    with pytest.raises(ValueError):
        refine_root(UniPoly("x", [-2, 0, 1]), iv, F(1, 8))


def test_refine_root_divides_out_a_root_on_an_open_end():
    # isolation of x^3 - 2x hits 0 at its first midpoint, so at a
    # coarse width the neighbouring intervals end at a root of p; they
    # stay refinable
    p = UniPoly("x", [0, -2, 0, 1])
    ivs = isolate_real_roots(p, 4)
    assert ivs[1] == Interval.point(0)
    assert ivs[0].hi == 0 and ivs[2].lo == 0
    for iv in (ivs[0], ivs[2]):
        tight = refine_root(p, iv, F(1, 2 ** 20))
        assert tight.hi - tight.lo <= F(1, 2 ** 20)
        assert sturm_count(p, tight) == 1 and 0 not in (tight.lo, tight.hi)
    with pytest.raises(ValueError):
        refine_root(p, Interval.closed(ivs[0].lo, 0), F(1, 8))


# ---------------------------------------------------------------------------
# squarefree


@dataclass(frozen=True)
class SquarefreeDecomposition:
    gcd_with_derivative: UniPoly
    squarefree_part: UniPoly


def squarefree_decomposition(p: UniPoly) -> SquarefreeDecomposition:
    """Split p into gcd(p, p') and the squarefree cofactor.

    The product of the two parts equals p up to a nonzero rational
    constant; both parts are primitive with positive leading
    coefficient.  The runtime reads the squarefree part off a Sturm
    chain; this is the direct route, by the integer gcd.
    """
    cs, _ = p._int_coeffs()
    if len(cs) == 1:
        one = UniPoly(p.var, [1])
        return SquarefreeDecomposition(one, one)
    g = ep._int_gcd_poly(cs, ep._int_derivative(cs))
    sf = ep._int_primitive(ep._int_divide_exact(cs, g))
    if sf[-1] < 0:
        sf = [-c for c in sf]
    return SquarefreeDecomposition(UniPoly(p.var, g), UniPoly(p.var, sf))


def test_squarefree_decomposition_examples():
    p = poly_from_roots("x", [1, 1, -2])
    d = squarefree_decomposition(p)
    assert d.squarefree_part == poly_from_roots("x", [1, -2])
    d = squarefree_decomposition(UniPoly("x", [1, 0, 1]))
    assert d.squarefree_part == UniPoly("x", [1, 0, 1])
    assert d.gcd_with_derivative.degree() == 0
    d = squarefree_decomposition(UniPoly("x", [0, 0, 0, 1]))
    assert d.squarefree_part == UniPoly("x", [0, 1])


def test_squarefree_product_recovers_input():
    rng = random.Random(3)
    for _ in range(25):
        roots = [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
        p = poly_from_roots("x", roots + roots[:2])
        d = squarefree_decomposition(p)
        prod = d.squarefree_part * d.gcd_with_derivative
        # equal up to a nonzero constant
        assert prod.degree() == p.degree()
        ratio = p.coeffs[-1] / prod.coeffs[-1]
        assert prod * ratio == p


# ---------------------------------------------------------------------------
# restriction and evaluation


def test_restrict_to_segment_examples():
    b, d = MultiPoly.variables(("b", "d"))
    sig1 = MultiPoly.constant(("b", "d"), 27) * d ** 2 \
        + MultiPoly.constant(("b", "d"), 4) * b ** 3
    r = restrict_to_segment(sig1, (-1, 0), (-1, 1))
    assert r == UniPoly("t", [-4, 0, 27])
    a, = MultiPoly.variables(("a",))
    assert restrict_to_segment(a, (0,), (1,)) == UniPoly("t", [0, 1])
    five = MultiPoly.constant(("a",), 5)
    assert restrict_to_segment(five, (2,), (3,)) == UniPoly("t", [5])


def test_restrict_arity_mismatch():
    a, = MultiPoly.variables(("a",))
    with pytest.raises(ArityMismatch):
        restrict_to_segment(a, (0, 1), (1, 1))


def test_eval_examples():
    b, d = MultiPoly.variables(("b", "d"))
    sig1 = MultiPoly.constant(("b", "d"), 27) * d ** 2 \
        + MultiPoly.constant(("b", "d"), 4) * b ** 3
    assert sig1.eval((-3, 2)) == 0
    x, y = MultiPoly.variables(("x", "y"))
    assert (x ** 2 + y ** 3).eval((1, 1)) == 2
    assert MultiPoly.constant(("x", "y"), 0).eval((5, 7)) == 0


def test_eval_arity_mismatch():
    x, y = MultiPoly.variables(("x", "y"))
    with pytest.raises(ArityMismatch):
        (x + y).eval((1,))


# ---------------------------------------------------------------------------
# discriminant / univariate resultant sanity


def test_discriminant_quadratic_formula():
    # a*x^2 + b*x + c -> b^2 - 4ac, rational coefficients included
    for a, b, c in ((1, 0, -1), (1, 3, 2), (1, 1, 1), (F(2, 3), F(1, 2), -5),
                    (-3, F(-7, 4), F(5, 6))):
        d = discriminant(UniPoly("x", [c, b, a]))
        assert d == b * b - 4 * a * c


def test_discriminant_vanishes_iff_repeated_root():
    assert discriminant(poly_from_roots("x", [1, 1, 2])) == 0
    assert discriminant(poly_from_roots("x", [0, 1, 2])) != 0


# ---------------------------------------------------------------------------
# property suites


rational = st.fractions(min_value=-5, max_value=5, max_denominator=16)
small_int = st.integers(min_value=-5, max_value=5)


@st.composite
def factored_poly(draw):
    """Polynomial with fully known root structure, degree <= 10."""
    reals = draw(st.lists(small_int.map(F), min_size=0, max_size=6))
    # repeated roots with small multiplicities
    mults = [draw(st.integers(min_value=1, max_value=2)) for _ in reals]
    quads = draw(st.integers(min_value=0, max_value=2))
    lead = draw(st.sampled_from([1, -1, 2]))
    deg = sum(mults) + 2 * quads
    if deg == 0 or deg > 10:
        reals, mults, quads = [F(1)], [1], 0
    p = UniPoly("x", [lead])
    for r, m in zip(reals, mults):
        for _ in range(m):
            p = p * UniPoly("x", [-r, 1])
    for k in range(quads):
        p = p * UniPoly("x", [k + 1, 0, 1])  # x^2 + (k+1), no real roots
    return p, sorted(set(reals))


@settings(max_examples=120, deadline=None)
@given(factored_poly())
def test_sturm_agrees_with_constructed_roots(pr):
    p, distinct = pr
    assert sturm_count(p, Interval.real_line()) == len(distinct)
    sig = root_signature(p)
    assert sig.neg == sum(1 for r in distinct if r < 0)
    assert sig.pos == sum(1 for r in distinct if r > 0)
    assert sig.zero_is_root == (F(0) in distinct)


@settings(max_examples=80, deadline=None)
@given(factored_poly())
def test_isolation_count_and_membership(pr):
    p, distinct = pr
    ivs = isolate_real_roots(p, F(1, 64))
    assert len(ivs) == len(distinct)
    for iv, r in zip(ivs, distinct):
        closed = Interval.closed(iv.lo, iv.hi)
        assert closed.lo <= r <= closed.hi
        assert sturm_count(p, closed) == 1


# roots at 0 and 1, at the bisection midpoints 0, +-B/2, ... of small
# Cauchy bounds B, and at a few other rationals
root_pool = st.sampled_from([F(0), F(1), F(1, 2), F(-1), F(2), F(3, 2),
                             F(1, 4), F(3, 4), F(-1, 2), F(1, 3)])
root_value = root_pool | st.fractions(min_value=-4, max_value=4,
                                      max_denominator=6)


@st.composite
def rooted_poly(draw, window=None):
    """lead * prod (x - r)^m * prod (x^2 + c) with c > 0, degree <= 12.

    Returns the polynomial and its distinct real roots, known without
    any root counting.  Given a window with two finite ends lo < hi,
    roots are also drawn from its ends, its dyadic bisection points
    lo + (hi - lo)*k/2^j, a non-dyadic point inside and points outside,
    so repeated roots sit at each.
    """
    values = root_value
    if window is not None and None not in (window.lo, window.hi) \
            and not window.is_point():
        lo, w = window.lo, window.hi - window.lo
        dyadic = st.integers(min_value=1, max_value=6).flatmap(
            lambda j: st.integers(min_value=1, max_value=(1 << j) - 1).map(
                lambda k: lo + w * F(k, 1 << j)))
        values = (st.sampled_from([lo, lo + w, lo + w / 3, lo - w / 5,
                                   lo + 2 * w])
                  | dyadic | root_value)
    roots = draw(st.lists(values, min_size=0, max_size=5))
    mults = [draw(st.integers(min_value=1, max_value=3)) for _ in roots]
    cs = draw(st.lists(st.fractions(min_value=F(1, 8), max_value=4,
                                    max_denominator=8), max_size=2))
    lead = draw(st.sampled_from([F(1), F(-1), F(2, 3), F(-5)]))
    p = UniPoly("x", [lead])
    for r, m in zip(roots, mults):
        for _ in range(m):
            if p.degree() < 10:
                p = p * UniPoly("x", [-r, 1])
    for c in cs:
        p = p * UniPoly("x", [c, 0, 1])
    distinct = sorted({r for r in roots if p(r) == 0})
    return p, distinct


@settings(max_examples=200, deadline=None)
@given(rooted_poly())
def test_root_signature_is_the_two_half_line_counts(pr):
    # one chain after deflating x^k must give what two separate Sturm
    # counts give, with 0 often a (multiple) root
    p, distinct = pr
    sig = root_signature(p)
    assert sig.neg == sturm_count(p, Interval.open(None, F(0))) \
        == sum(1 for r in distinct if r < 0)
    assert sig.pos == sturm_count(p, Interval.open(F(0), None)) \
        == sum(1 for r in distinct if r > 0)
    assert sig.zero_is_root == (F(0) in distinct)
    assert sig.is_squarefree == (gcd_uni(p, p.derivative()).degree() == 0)


big_int = st.integers(min_value=-2 ** 64, max_value=2 ** 64)


@st.composite
def int_poly(draw):
    """Integer coefficient lists of degree 0-9 with a nonzero lead:
    dense ones, sparse ones (so degree gaps of 2 or more occur in the
    chain), and lead * prod (x - r)^m, with repeated roots and roots at
    zero.  Leads of either sign, coefficients up to 2^64."""
    lead = draw(big_int.filter(bool) | st.sampled_from([1, -1, 2, -3]))
    kind = draw(st.sampled_from(["dense", "sparse", "rooted"]))
    if kind == "rooted":
        cs = [lead]
        for r in draw(st.lists(st.integers(-3, 3), max_size=9)):
            if len(cs) < 10:
                cs = ep._int_mul(cs, [-r, 1])
        return cs
    deg = draw(st.integers(min_value=0, max_value=9))
    coeff = big_int if kind == "dense" else st.just(0) | big_int
    return draw(st.lists(coeff, min_size=deg, max_size=deg)) + [lead]


@settings(max_examples=400, deadline=None)
@given(int_poly())
@example([1, 0, 0, 0, 1])                   # x^4 + 1: degree drops by 3
@example([0, 0, -2, 0, 0, 0, 0, -5])        # a root at 0, a negative lead
@example([-1, 3, -3, 1])                    # (x - 1)^3
@example([7])                               # degree 0
def test_sturm_chain_and_signature_match_reference(cs):
    k = 0
    while cs[k] == 0:
        k += 1
    assert ep._sturm_chain_int(cs[k:]) == reference_sturm_chain_int(cs[k:])
    assert ep._sturm_chain_int(cs) == reference_sturm_chain_int(cs)
    assert ep._int_root_signature(cs) == reference_root_signature(cs)


@settings(max_examples=200, deadline=None)
@given(st.lists(root_value, min_size=1, max_size=6), root_value,
       st.sampled_from([1, -3, (1 << 61) - 1]))
@example([F(1), F(2), F(3)], F(2), 1)
@example([F(-1), F(1, 2), F(1, 2)], F(0), -3)
def test_real_rooted_above_counts_with_multiplicity(roots, x, lead):
    # Descartes' rule is exact when every root is real: the variations
    # of p(x + y) are the roots above x, with multiplicity, and a root
    # at x is not counted
    cs, _ = poly_from_roots("x", roots, lead)._int_coeffs()
    assert ep._real_rooted_above(cs, x.numerator, x.denominator) == sum(1 for r in roots if r > x)


endpoint = st.none() | root_value


@settings(max_examples=200, deadline=None)
@given(rooted_poly(), endpoint, endpoint, st.booleans(), st.booleans())
def test_sturm_count_matches_known_roots(pr, lo, hi, lo_open, hi_open):
    # bounded, half-open and unbounded intervals; the endpoints are often
    # roots themselves, sometimes multiple ones
    p, distinct = pr
    if lo is not None and hi is not None:
        if lo > hi:
            lo, hi = hi, lo
        if lo == hi:
            lo_open = hi_open = False
    iv = Interval(lo, hi, lo_open, hi_open)

    def inside(r):
        above = lo is None or r > lo or (r == lo and not iv.lo_open)
        below = hi is None or r < hi or (r == hi and not iv.hi_open)
        return above and below

    assert sturm_count(p, iv) == sum(1 for r in distinct if inside(r))


WINDOWS = [Interval.closed(0, 1), Interval.open(0, 1),
           Interval.closed(F(-1, 2), F(3, 2)), Interval(None, F(0), True, False),
           Interval.point(1)]


@st.composite
def window(draw):
    """Closed, open, half-open, half-bounded and point windows whose ends
    are often roots or dyadic bisection midpoints."""
    if draw(st.booleans()):
        return draw(st.sampled_from(WINDOWS))
    lo, hi = draw(endpoint), draw(endpoint)
    if lo is None and hi is None:
        hi = draw(root_value)
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    if lo == hi:
        return Interval.point(lo)
    return Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))


@st.composite
def times_positive_quadratic(draw, window=None):
    """rooted_poly(window) times a*((x - m)^2 + c), c > 0, which adds no
    real root.  a = 2^61 - 1 puts a large prime in the leading
    coefficient."""
    p, distinct = draw(rooted_poly(window))
    m = draw(root_value)
    c = draw(st.fractions(min_value=F(1, 8), max_value=2, max_denominator=8))
    a = draw(st.sampled_from([1, 3, (1 << 61) - 1]))
    return p * UniPoly("x", [a * (m * m + c), -2 * a * m, a]), distinct


@settings(max_examples=300, deadline=None)
@given(times_positive_quadratic(), window(),
       st.sampled_from([F(1, 128), F(1, 16), F(1, 3), F(2)]))
@example((poly_from_roots("x", [0, F(1, 2), F(1, 2), 1]), [0, F(1, 2), 1]),
         Interval.closed(0, 1), F(1, 128))
@example((poly_from_roots("x", [F(1, 4), F(1, 2), F(3, 4)], (1 << 61) - 1),
          [F(1, 4), F(1, 2), F(3, 4)]), Interval.open(0, 1), F(1, 128))
@example((poly_from_roots("x", [F(1, 8), F(1, 2), F(2, 3)]),
          [F(1, 8), F(1, 2), F(2, 3)]), Interval.closed(0, 1), F(1, 128))
def test_isolation_window_contract(pr, w, width):
    _check_window_contract(*pr, w, width)


@settings(max_examples=300, deadline=None)
@given(st.data(), window(), st.sampled_from([F(1, 128), F(1, 3)]))
def test_window_contract_with_repeated_roots_on_window_points(data, w, width):
    # Descartes bisection runs on p itself: a repeated root on a dyadic
    # bisection point of the window is hit exactly, one strictly inside
    # elsewhere sends it to the squarefree restart, and one on an end or
    # outside is not counted by any node's bound
    _check_window_contract(*data.draw(times_positive_quadratic(w)), w, width)


def _check_window_contract(p, distinct, w, width):
    # every interval lies in the window, holds exactly one root of p
    # there and no other root, and there is one interval per root in
    # the window: the count sturm_count gives
    inside = [r for r in distinct if _in_window(w, r)]
    assert sturm_count(p, w) == len(inside)
    ivs = isolate_real_roots(p, width, w)
    assert len(ivs) == len(inside)
    for iv, r in zip(ivs, inside):
        if iv.is_point():
            assert iv.lo == r
        else:
            assert [x for x in distinct if iv.lo < x < iv.hi] == [r]
            assert iv.hi - iv.lo <= width
            assert (w.lo is None or iv.lo >= w.lo) \
                and (w.hi is None or iv.hi <= w.hi)
    for a, b in zip(ivs, ivs[1:]):
        assert a.hi <= b.lo


@pytest.mark.parametrize("roots, count, chains, isolated", [
    # a repeated root strictly inside that no bisection point hits:
    # past the depth bound, one chain gives the squarefree part
    ([F(1, 3), F(1, 3), F(3, 4)], 2, 1, ["(21/64, 43/128)", "[3/4, 3/4]"]),
    # a repeated root on a bisection point is hit exactly
    ([F(1, 2), F(1, 2), F(3, 4)], 2, 0, ["[1/2, 1/2]", "[3/4, 3/4]"]),
    # a repeated root outside [0, 1] never keeps a bound at 2 or more
    ([2, 2, F(1, 3)], 1, 0, ["(21/64, 43/128)"]),
])
def test_bounded_roots_build_a_chain_only_when_bisection_does_not_settle(
        monkeypatch, roots, count, chains, isolated):
    built = []
    chain_int = ep._sturm_chain_int

    def counting(cs):
        built.append(len(cs))
        return chain_int(cs)

    monkeypatch.setattr(ep, "_sturm_chain_int", counting)
    p = poly_from_roots("x", roots)
    assert sturm_count(p, Interval.closed(0, 1)) == count
    assert len(built) == chains
    ivs = isolate_real_roots(p, F(1, 128), Interval.closed(0, 1))
    assert [iv.text() for iv in ivs] == isolated
    assert len(built) == 2 * chains


UNIT = Interval.closed(0, 1)


@settings(max_examples=300, deadline=None)
@given(rooted_poly(UNIT) | times_positive_quadratic(UNIT))
@example((poly_from_roots("x", [0, 0, F(1, 3)]), [0, F(1, 3)]))
@example((poly_from_roots("x", [F(2, 3), 1, 1], -1), [F(2, 3), 1]))
@example((poly_from_roots("x", [F(1, 2), F(1, 2), F(3, 4)]),
          [F(1, 2), F(3, 4)]))
# the walk on p hits the repeated 1/256 exactly; the repeated 1/3 to
# its right sends the full isolation to the squarefree part, whose tree
# isolates 1/256 in (0, 1/128)
@example((poly_from_roots("x", [F(1, 256)] * 2 + [F(1, 3)] * 2),
          [F(1, 256), F(1, 3)]))
def test_first_root_walk_isolates_the_first_root_in_the_unit_interval(pr):
    # the walk behind certify_segment's witness stops at the first leaf:
    # nothing exactly when the count is 0, else the first interval of the
    # full isolation, unless the full walk alone passes the depth bound
    # and restarts on the squarefree part; then it still isolates the
    # first root within the isolate_real_roots contract
    p, distinct = pr
    inside = [r for r in distinct if 0 <= r <= 1]
    width = F(1, 128)
    cs = p._int_coeffs()[0]
    # the walk itself stops: one end root or one leaf at most
    _, _, _, head, leaves, _ = ep._bounded_roots(cs, UNIT, True)
    assert len(head) + len(leaves) <= 1
    with mock.patch.object(ep, "_sturm_chain_int",
                           wraps=ep._sturm_chain_int) as chains:
        got = ep._isolate(cs, width, UNIT, True)
        first_chains = chains.call_count
        full = isolate_real_roots(p, width, UNIT)
        full_chains = chains.call_count - first_chains
    assert (got == []) == (sturm_count(p, UNIT) == 0) == (inside == [])
    if full_chains == 0 or first_chains:
        assert got == full[:1]
    if not got:
        return
    [iv] = got
    if iv.is_point():
        assert iv.lo == inside[0]
    else:
        assert [r for r in distinct if iv.lo < r < iv.hi] == inside[:1]
        assert 0 <= iv.lo < iv.hi <= 1 and iv.hi - iv.lo <= width
        for end in (iv.lo, iv.hi):
            assert end.denominator & (end.denominator - 1) == 0


def test_deep_bisection_trees_run_at_the_default_recursion_limit():
    # x^5 - 2*(a*x - 1)^2, a = 2^1000, has two roots within 2^-3500 of
    # 1/a, one on each side, so bisection from [0, 1] separates them only
    # at depth 1000 and from the Cauchy bound 2*a^2 + 1 deeper still; a
    # third root lies near (2*a^2)^(1/3)
    a = 1 << 1000
    p = UniPoly("x", [-2, 4 * a, -2 * a * a, 0, 0, 1])
    assert sturm_count(p, Interval.closed(0, 1)) == 2
    ivs = isolate_real_roots(p, F(1, 128), Interval.closed(0, 1))
    assert [(iv.lo, iv.hi) for iv in ivs] == [(0, F(1, a)), (F(1, a), F(2, a))]
    line = isolate_real_roots(p, F(1, 128))
    assert len(line) == 3
    for iv in ivs + line:
        assert p(iv.lo) * p(iv.hi) < 0 and iv.hi - iv.lo <= F(1, 128)
    assert line[1].hi < 1 < line[2].lo


@settings(max_examples=200, deadline=None)
@given(rooted_poly(),
       st.sampled_from([F(1, 128), F(1, 2 ** 24), F(1, 2 ** 80), F(2)]),
       st.sampled_from(WINDOWS + [Interval.real_line()]))
# x*(x - 1)*(x^2 + 5/8)^2: the whole-line reference hits the root 1 as
# [1, 1], and bisection from the Cauchy window isolates it in
# (2043/2048, 513/512)
@example((UniPoly("x", [0, F(-25, 64), F(25, 64), F(-5, 4), F(5, 4), -1, 1]),
          [0, 1]), F(1, 128), Interval.real_line())
def test_isolation_matches_full_chain_reference(pr, width, w):
    # the reference keeps every whole-line interval that meets the
    # window, and the isolation, which bisects the real line from its
    # Cauchy window like any other window, holds the same roots: those
    # of the reference intervals whose root lies in the window, in the
    # same order
    p, distinct = pr
    ref = reference_isolate(p, width, w)
    got = isolate_real_roots(p, width, w)

    def root_of(iv):
        if iv.is_point():
            return iv.lo
        hits = [r for r in distinct if iv.lo < r < iv.hi]
        assert len(hits) == 1
        return hits[0]

    assert [root_of(iv) for iv in got] \
        == [r for r in map(root_of, ref) if _in_window(w, r)]


@settings(max_examples=200, deadline=None)
@given(rooted_poly(),
       st.sampled_from([F(1, 128), F(1, 2 ** 24), F(1, 2 ** 80), F(2)]))
def test_real_line_is_the_cauchy_window(pr, width):
    # one engine: the whole real line is counted and isolated as the
    # open window (-B, B), B the strict Cauchy bound of p's integer
    # coefficients
    p, distinct = pr
    bound = ep._cauchy_bound(p._int_coeffs()[0])
    assert isolate_real_roots(p, width) \
        == isolate_real_roots(p, width, Interval.open(-bound, bound))
    assert sturm_count(p, Interval.real_line()) == len(distinct)


@st.composite
def bisection_case(draw):
    """(sf, lo, hi, max_width): ends with unrelated denominators, roots
    that may sit on a dyadic point of (lo, hi), so some midpoint hits
    one exactly, and the widths the runtime asks for."""
    lo = draw(st.fractions(min_value=-3, max_value=3, max_denominator=12))
    hi = lo + draw(st.fractions(min_value=F(1, 16), max_value=5,
                                max_denominator=16))
    roots = draw(st.lists(st.fractions(min_value=-4, max_value=4,
                                       max_denominator=8), max_size=4))
    if draw(st.booleans()):
        j = draw(st.integers(min_value=1, max_value=12))
        k = draw(st.integers(min_value=1, max_value=(1 << j) - 1))
        roots.append(lo + (hi - lo) * F(k, 1 << j))
    lead = draw(st.sampled_from([1, -1, 3]))
    cs = poly_from_roots("x", roots, lead)._int_coeffs()[0]
    assume(ep._int_sign_at(cs, lo) != 0)
    width = draw(st.sampled_from(["45", F(1, 128), F(1, 1 << 24)]))
    if width == "45":
        width = (hi - lo) / (1 << 45)
    return cs, lo, hi, width


@settings(max_examples=300, deadline=None)
@given(bisection_case())
@example(([-1, 2], F(0), F(1), F(1, 128)))              # first midpoint a root
@example(([-3, 8], F(1, 3), F(1, 2), F(1, 1 << 24)))    # 3/8, second midpoint
@example(([-1, 0, 3], F(-2, 3), F(4, 5), F(1, 128)))    # no root hit
@example(([5, -7], F(1, 3), F(11, 5), F(28, 15) / (1 << 45)))
@example(([-1, 2], F(0), F(1, 256), F(1, 128)))          # already narrow
def test_bisect_one_matches_fraction_reference(case):
    # interval for interval, point results included
    sf, lo, hi, width = case
    assert ep._bisect_one(sf, lo, hi, width) \
        == reference_bisect_one(sf, lo, hi, width)


@settings(max_examples=150, deadline=None)
@given(st.lists(rational, max_size=8), st.lists(rational, max_size=5),
       rational.filter(bool))
@example([F(1), F(2)], [F(1), F(0)], F(2, 3))      # zero quotient
@example([F(1), F(0), F(0), F(1)], [F(1, 2)], F(-3, 7))
def test_divmod_identity(pc, dc, lead):
    p = UniPoly("x", pc)
    d = UniPoly("x", dc + [lead])
    q, r = poly_divmod(p, d)
    assert q * d + r == p
    assert r.degree() < d.degree()
    if p.degree() < d.degree():
        assert q.is_zero() and r == p


@settings(max_examples=80, deadline=None)
@given(st.lists(small_int, min_size=1, max_size=4),
       st.lists(small_int, min_size=1, max_size=4))
def test_resultant_vanishes_iff_common_root(r1, r2):
    f = poly_from_roots("x", r1)
    g = poly_from_roots("x", r2)
    res = _int_resultant(f._int_coeffs()[0], g._int_coeffs()[0])
    common = set(r1) & set(r2)
    assert (res == 0) == bool(common)
    assert (gcd_uni(f, g).degree() > 0) == bool(common)


@st.composite
def int_poly(draw, min_degree=0, max_degree=9):
    """Integer coefficients, constant term first; the leading one takes
    either sign and is often not a unit."""
    deg = draw(st.integers(min_value=min_degree, max_value=max_degree))
    coeff = (st.integers(min_value=-9, max_value=9)
             | st.integers(min_value=-2**64, max_value=2**64))
    body = draw(st.lists(coeff, min_size=deg, max_size=deg))
    lead = draw(st.sampled_from([1, -1, 2, -3, 12])
                | st.integers(min_value=-2**32, max_value=2**32).filter(bool))
    return body + [lead]


def _int_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


@st.composite
def resultant_operands(draw):
    """(a, b, shared): degrees 0-9 each; shared pairs carry a common
    factor of degree 1-3, so their resultant is 0."""
    if draw(st.booleans()):
        return draw(int_poly()), draw(int_poly()), False
    f = draw(int_poly(1, 3))
    top = 10 - len(f)
    return (_int_mul(draw(int_poly(0, top)), f),
            _int_mul(draw(int_poly(0, top)), f), True)


@settings(max_examples=300, deadline=None)
@given(resultant_operands())
@example(([5], [1, 0, -2, 3], False))     # constant a: 5^3
@example(([1, 0, -2, 3], [-4], False))    # constant b: (-4)^3
@example(([-7], [2], False))              # both constant: 1
def test_int_resultant_matches_sylvester_determinant(case):
    a, b, shared = case
    got = _int_resultant(a, b)
    assert got == sylvester_resultant_int(a, b)
    # the swap convention Res(b, a) = (-1)^(deg a * deg b) Res(a, b)
    sign = -1 if (len(a) - 1) * (len(b) - 1) % 2 else 1
    assert _int_resultant(b, a) == sign * got
    if shared:
        assert got == 0


@settings(max_examples=60, deadline=None)
@given(rational, rational, rational, rational)
def test_restriction_endpoint_identity(b0, d0, b1, d1):
    b, d = MultiPoly.variables(("b", "d"))
    sig1 = MultiPoly.constant(("b", "d"), 27) * d ** 2 \
        + MultiPoly.constant(("b", "d"), 4) * b ** 3
    r = restrict_to_segment(sig1, (b0, d0), (b1, d1))
    assert r(0) == sig1.eval((b0, d0))
    assert r(1) == sig1.eval((b1, d1))
    assert r(F(1, 2)) == sig1.eval(((b0 + b1) / 2, (d0 + d1) / 2))


@st.composite
def small_bivariate(draw):
    names = ("x", "y")
    x, y = MultiPoly.variables(names)
    acc = MultiPoly.constant(names, draw(st.integers(-3, 3)))
    for ex in range(draw(st.integers(0, 2)) + 1):
        for ey in range(2):
            c = draw(st.integers(-3, 3))
            if c:
                acc = acc + MultiPoly.constant(names, c) * x ** ex * y ** ey
    if acc.is_zero():
        acc = x + y
    return acc


@settings(max_examples=40, deadline=None)
@given(small_bivariate(), small_bivariate(), small_bivariate())
def test_gcd_multi_divides_products(P, Q, R):
    g = gcd_multi(P * R, Q * R)
    # g divides both products and the common factor R divides g
    # (exact division raises on any nonzero remainder)
    assert _mp_divide_exact(P * R, g) * g == P * R
    assert _mp_divide_exact(Q * R, g) * g == Q * R
    _mp_divide_exact(g, R)


@settings(max_examples=30, deadline=None)
@given(small_bivariate(), small_bivariate())
def test_squarefree_part_multi_kills_squares(P, Q):
    sq = squarefree_part_multi(P * P * Q)
    # the squarefree part vanishes exactly where P*Q does on probes
    rng = random.Random(5)
    for _ in range(25):
        pt = (F(rng.randint(-5, 5), rng.randint(1, 3)),
              F(rng.randint(-5, 5), rng.randint(1, 3)))
        assert (sq.eval(pt) == 0) == ((P * Q).eval(pt) == 0)


def test_gcd_multi_exact_cofactor():
    # direct structural check on a known factorization
    x, y = MultiPoly.variables(("x", "y"))
    one = MultiPoly.constant(("x", "y"), 1)
    P = x + y
    A = P * (x - one)
    B = P * (y + one)
    g = gcd_multi(A, B)
    assert degree_in(g, "x") == 1 and degree_in(g, "y") == 1
    # g is c*(x+y): check proportionality on probes
    assert g.eval((1, -1)) == 0 and g.eval((0, 0)) == 0
    assert g.eval((1, 1)) != 0


# ---------------------------------------------------------------------------
# intervals and parsing


def test_interval_invariants():
    iv = Interval.point(F(1, 2))
    assert iv.is_point() and iv.hi - iv.lo == 0 and iv.midpoint() == F(1, 2)
    with pytest.raises(ValueError):
        Interval.open(2, 1)
    line = Interval.real_line()
    assert line.lo is None and line.hi is None
    assert Interval.closed(0, 1).midpoint() == F(1, 2)


def test_parse_rational():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-7") == F(-7)
    assert parse_rational(" 5/10 ") == F(1, 2)
    for bad in ("0.5", "1e3", "x", "1/0", "3//4"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_unipoly_text_roundtrip_form():
    p = UniPoly("x", [2, 0, -1])
    assert p.text() == "-x^2 + 2"
    assert UniPoly("x", []).text() == "0"


def test_polynomials_pickle_and_deepcopy():
    # __reduce__ rebuilds through the constructor, which the
    # immutability guard leaves as the only way in
    p = poly_from_roots("x", [F(1, 3), -2, -2])
    assert sturm_count(p, Interval.real_line()) == 2
    x, y = MultiPoly.variables(("x", "y"))
    m = x * x - y * F(2, 3)
    for obj in (p, m):
        for back in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj),
                     copy.copy(obj)):
            assert back == obj and type(back) is type(obj)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=8),
       st.integers(1, 10 ** 4), st.integers(1, 60))
def test_of_ints_holds_the_pair_int_coeffs_clears(cs, den, scale):
    # a common factor, trailing zeros and all: the held pair is the one
    # clearing the Fraction coefficients gives, and counts agree
    cs = [c * scale for c in cs] + [0]
    p = UniPoly._of_ints("t", cs, den * scale)
    q = UniPoly("t", [F(c, den * scale) for c in cs])
    assert p == q and p._int_coeffs() == q._int_coeffs()
    p._int_coeffs()[0].append(1)  # callers get a copy
    assert p._int_coeffs() == q._int_coeffs()
    if not q.is_zero():
        for iv in (Interval.closed(0, 1), Interval.real_line()):
            assert sturm_count(p, iv) == sturm_count(q, iv)
    back = pickle.loads(pickle.dumps(p))
    assert back == p and back._int_coeffs() == p._int_coeffs()


class FracPoly:
    """Univariate polynomial as a list of Fractions, with Fraction
    arithmetic throughout: the reference ``UniPoly``'s integer pair is
    checked against."""

    def __init__(self, var, coeffs):
        cs = [F(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.var, self.coeffs = var, tuple(cs)

    def __call__(self, x):
        acc = F(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [F(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [F(0)] * (n - len(other.coeffs))
        return FracPoly(self.var, [x + y for x, y in zip(a, b)])

    def __neg__(self):
        return FracPoly(self.var, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (F, int)):
            return FracPoly(self.var, [c * other for c in self.coeffs])
        out = [F(0)] * max(len(self.coeffs) + len(other.coeffs) - 1, 0)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return FracPoly(self.var, out)

    def derivative(self):
        return FracPoly(self.var,
                        [i * c for i, c in enumerate(self.coeffs)][1:])

    def text(self):
        parts = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
            if not c:
                continue
            mono = "" if e == 0 else self.var if e == 1 else f"{self.var}^{e}"
            mag = str(abs(c))
            body = mag if not mono else mono if mag == "1" else f"{mag}*{mono}"
            if parts:
                parts.append(f"{'+' if c > 0 else '-'} {body}")
            else:
                parts.append(body if c > 0 else f"-{body}")
        return " ".join(parts) or "0"


_RATIONAL = st.one_of(
    st.just(0),
    st.integers(-40, 40),
    # reducible on purpose: F(6, 4) is built, and reduces, in the input
    st.builds(lambda n, d, k: F(n * k, d * k), st.integers(-40, 40),
              st.integers(1, 12), st.integers(1, 6)),
)
# empty, zero and trailing-zero lists included
_RATIONAL_LISTS = st.builds(lambda cs, z: cs + [0] * z,
                            st.lists(_RATIONAL, max_size=6), st.integers(0, 2))


def _same_as_reference(p: UniPoly, ref: FracPoly) -> None:
    assert p.coeffs == ref.coeffs
    assert all(type(c) is F for c in p.coeffs)
    assert p.degree() == len(ref.coeffs) - 1
    assert p.is_zero() == (not ref.coeffs)
    assert p.constant_term() == (ref.coeffs[0] if ref.coeffs else 0)
    assert type(p.constant_term()) is F
    assert p.text() == ref.text()


@settings(max_examples=300, deadline=None)
@given(_RATIONAL_LISTS, _RATIONAL_LISTS, _RATIONAL, _RATIONAL,
       st.integers(1, 30))
def test_unipoly_matches_fraction_list_reference(a, b, x, c, k):
    p, q = UniPoly("x", a), UniPoly("x", b)
    rp, rq = FracPoly("x", a), FracPoly("x", b)
    for got, ref in ((p, rp), (q, rq), (p + q, rp + rq), (p - q, rp - rq),
                     (-p, -rp), (p * q, rp * rq), (p * c, rp * c),
                     (p.derivative(), rp.derivative())):
        _same_as_reference(got, ref)
    assert p(x) == rp(x) and type(p(x)) is F
    assert (p == q) == (rp.coeffs == rq.coeffs)
    # the pair cleared independently, scaled by a common factor k and
    # padded with a trailing zero, is the same polynomial
    den = math.lcm(*[F(v).denominator for v in a])
    cs = [int(F(v) * den) * k for v in a] + [0]
    for same in (UniPoly._of_ints("x", cs, den * k), UniPoly("x", rp.coeffs),
                 pickle.loads(pickle.dumps(p)), copy.deepcopy(p),
                 copy.copy(p)):
        assert type(same) is UniPoly
        assert same == p and hash(same) == hash(p)
        assert same._int_coeffs() == p._int_coeffs()
    assert UniPoly("y", a) != p


def test_multipoly_canonical_text_sorted():
    b, d = MultiPoly.variables(("b", "d"))
    sig1 = MultiPoly.constant(("b", "d"), 27) * d ** 2 \
        + MultiPoly.constant(("b", "d"), 4) * b ** 3
    assert sig1.text() == "4*b^3 + 27*d^2"
