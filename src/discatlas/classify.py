"""Topological classification of nonsingular lower-value sets.

For a parameter off the discriminant the set W(lambda) = {f <= 0} meets
the boundary x = 0 transversally and its topology is captured by small
combinatorial invariants, computed here with exact arithmetic only.

B and C classes.  The boundary polynomial h is the univariate carrier
of everything: for B the pair W(lambda) is fibred over {h <= 0} (or
{h >= 0}), and for C the zero set is the graph x = -h(y)/(s*y).  Off
the discriminant all real roots of h are simple and nonzero, so the
pair of counts (p, q) of negative and positive real roots determines
the topological type, and every valid pair with p + q = mu mod 2 is
realised by an explicit integer-rooted representative.

F4.  Writing the deformation as x^2 + (a + c*y)*x + P(y) with boundary
cubic P(y) = y^3 + b*y + d, the zero set consists of the graphs
x = (-(a + c*y) +- sqrt(g(y)))/2 over {g >= 0}, where
g(y) = (a + c*y)^2 - 4*P(y) is a downward cubic.  Off Sigma_0 the set
{g >= 0} is either one branch support (-oo, r1] or a branch plus a
compact oval support [r2, r3].  Off Sigma_1 the boundary meets the
curve in 1 or 3 points, the roots of P, and each crossing y* satisfies
g(y*) = (a + c*y*)^2 > 0 unless f_x vanishes there, the nongeneric
wall where the crossing-sign labels degenerate (the topology does not
change across that wall, which is why the catalogue below quotients
some labels away).

Exact work per sample.  Every classifier runs in integers on the
cleared point V = den * lambda, through one entry, _classify_point;
the public classify, classify_bc and classify_f4 check the family and
the arity, clear the denominators once and call it, and the census
calls it on the integer points it draws.  A B/C sample builds one
Sturm chain of H = den * h, after dividing out a root at 0; its
variations at -oo, 0 and +oo give (p, q), and its last member is
gcd(H, H'), so a squarefree h with h(0) != 0 is nonsingular with no
further test.  Only the measure-zero rest builds rationals, for the
membership test, which tells a real multiple root from a complex pair.
For F4 the signs of the two stratum values from models._int_strata
decide membership and count real roots: Delta_0 = -disc(g)/16 and
Sigma_1 = -disc(P), so a zero puts the parameter on that stratum,
Sigma_1 > 0 means one crossing (three otherwise), and Delta_0 > 0
means no oval.  The f_x sign of a crossing is the side of the wall
y = -a/c it lies on, so the number of crossings below the wall decides
every sign: for one crossing it is the sign of P(-a/c), one integer
expression; for three it is read from the sign variations of
den * P(-a/c + y), which Descartes' rule makes exact because all three
roots are real.  With no oval every crossing is a branch crossing.
An oval case needs one rational point s in (r1, r2) and one t in
(r2, r3), for the roots r1 < r2 < r3 of the integer cubic
G = den^2 * g, and isolates no root: G's critical points c1 < c2
separate its roots, r1 < c1 < r2 < c2 < r3, and integer square roots
of the discriminant of G' at growing powers of two approach them from
inside [c1, c2] until G(s) < 0 < G(t).  A crossing has g > 0, so none
lies in [r1, r2]: the number k of oval crossings, the last k in
ascending order, is 0 for a sole crossing and otherwise the sign
variations of den * P(s + y).  So no F4 sample builds a Sturm chain.

The descriptor records the boundary crossings in ascending order, each
tagged Branch or Oval by which support interval of g it falls in and
by the sign of f_x there, plus the oval state: Absent, Crossed (the
oval meets the boundary, necessarily in exactly two of the crossings),
or Left/Right of the boundary.  The side is the sign of the midline
x = -(a + c*y)/2 at t; an uncrossed oval has P > 0 on its support
[r2, r3], so the two sheets have equal sign and the midline cannot
vanish there.

Only eight descriptor classes occur, matching the eight connected
components of the complement of the discriminant:

    1  one crossing, no oval         5  one crossing, oval left
    2  three crossings, no oval,     6  oval crossed
       middle f_x negative           7  three crossings, oval right
    3  three crossings, no oval,     8  three crossings, oval left
       middle f_x positive
    4  one crossing, oval right

Two geometric constraints cut the a-priori candidate space down:
a single crossing with a crossed oval is impossible (P < 0 left of the
sole root forces g > 0 there, so the oval would lie below it,
uncrossed), and along the branch path the crossing signs alternate
with the traversal direction, pinning the sign patterns that occur
with three branch crossings.  The identifiers above are a fixed
convention of this package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Sequence

from .exactpoly import (
    _int_root_signature,
    _int_sign_hom,
    _real_rooted_above,
)
from .models import (
    Membership,
    Parameter,
    SingularityClass,
    _bc_lead,
    _check_arity,
    _cleared,
    _int_strata,
    discriminant_membership,
    f4_seed_oval_side,
)


class DiscriminantParameter(ValueError):
    """Raised when a parameter to classify lies on the discriminant.

    ``membership`` is the stratum found, so callers need not test
    membership again.
    """

    def __init__(self, message: str, membership: Membership):
        super().__init__(message)
        self.membership = membership


class NonGenericConfiguration(ValueError):
    """Raised when f_x vanishes at a boundary crossing (label wall)."""


class CatalogMissing(LookupError):
    """Raised when the realized-type catalogue cannot be assembled."""


@dataclass(frozen=True)
class BCSignature:
    """Counts of negative and positive real roots of the boundary carrier.

    >>> BCSignature(1, 2).key()
    'p1q2'
    """

    p: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise ValueError("root counts must be nonnegative")

    def json_obj(self) -> dict:
        return {"p": self.p, "q": self.q}

    def key(self) -> str:
        return f"p{self.p}q{self.q}"


@dataclass(frozen=True)
class F4Descriptor:
    """Boundary crossings (ascending) with f_x signs, plus oval state.

    ``roots`` entries are ("B" | "O", "+" | "-"): Branch or Oval
    crossing and the sign of f_x there.  ``oval`` is one of "A"
    (absent), "L", "R" (present, uncrossed, on that side of the
    boundary) or "C" (crossed).  Branch crossings precede oval
    crossings, the oval is crossed iff exactly two crossings are
    oval-tagged, and a sided oval has none.

    >>> F4Descriptor((("B", "+"),), "A").key()
    'B+:A'
    """

    roots: tuple[tuple[str, str], ...]
    oval: str

    def __post_init__(self):
        if len(self.roots) not in (1, 3):
            raise ValueError("boundary crossing count must be 1 or 3")
        if self.oval not in ("A", "L", "R", "C"):
            raise ValueError(f"bad oval state {self.oval!r}")
        seen_oval = False
        n_oval = 0
        for kind, sign in self.roots:
            if kind not in ("B", "O") or sign not in ("+", "-"):
                raise ValueError(f"bad root tag {(kind, sign)!r}")
            if kind == "O":
                seen_oval = True
                n_oval += 1
            elif seen_oval:
                raise ValueError("branch crossings must precede oval ones")
        if (self.oval == "C") != (n_oval == 2):
            raise ValueError("crossed oval needs exactly two oval crossings")
        if self.oval != "C" and n_oval:
            raise ValueError("oval crossings without a crossed oval")

    def json_obj(self) -> dict:
        return {"roots": [list(t) for t in self.roots], "oval": self.oval}

    def key(self) -> str:
        return "".join(k + s for k, s in self.roots) + ":" + self.oval


LowerSetType = BCSignature | F4Descriptor


def type_key(t: LowerSetType) -> str:
    """Canonical report key: the quotient class, not the raw labels."""
    if isinstance(t, BCSignature):
        return t.key()
    return f"type{canonical_type_id(t)}"


def _point(sc: SingularityClass, lam) -> tuple[list[int], int]:
    # the public classifiers' one conversion: arity, then (V, den)
    return _cleared(_check_arity(sc, Parameter.coerce(lam)))


def classify_bc(sc: SingularityClass, lam) -> BCSignature:
    """Signature (p, q) of a nonsingular B- or C-class parameter.

    >>> sc = SingularityClass.parse("B+3")
    >>> classify_bc(sc, Parameter.of(-2, -1, 2)).json_obj()
    {'p': 1, 'q': 2}
    """
    if sc.family not in ("B", "C"):
        raise ValueError("classify_bc handles B and C classes")
    return _classify_point(sc, *_point(sc, lam))


def classify_f4(sc: SingularityClass, lam) -> F4Descriptor:
    """Exact descriptor of a nonsingular F4 parameter.

    The minus class is classified through its plus-class reduction
    (a, b, c, d) -> (-a, b, c, -d), under which the lower-value sets
    correspond by the flip y -> -y.

    >>> sc = SingularityClass.parse("F4+")
    >>> classify_f4(sc, Parameter.of(1, 1, 0, 0)).key()
    'B+:A'
    >>> classify_f4(sc, Parameter.of(3, -3, 0, 3)).key()
    'B+:L'
    >>> classify_f4(sc, Parameter.of(1, -1, 0, 0)).key()
    'B+O+O+:C'
    >>> classify_f4(sc, Parameter.of(7, -2, -6, 1)).key()
    'B+B+B+:R'
    """
    if sc.family != "F4":
        raise ValueError("classify_f4 handles the F4 classes")
    return _classify_point(sc, *_point(sc, lam))


def classify(sc: SingularityClass, lam) -> LowerSetType:
    """Topological type of a nonsingular parameter of any family."""
    return _classify_point(sc, *_point(sc, lam))


def _classify_point(sc: SingularityClass, V: Sequence[int], den: int
                    ) -> LowerSetType:
    """Type of the parameter lambda = V / den, in integers.

    The one classification entry: V is an integer vector of the class's
    arity and den > 0 any common denominator, not only the least one,
    since the type depends on lambda alone.  Raises
    DiscriminantParameter or NonGenericConfiguration as ``classify``.
    """
    if sc.family == "F4":
        return _f4_descriptor(sc, V, den)
    # den * h, constant term first
    sig = _int_root_signature([*reversed(V), _bc_lead(sc) * den])
    if sig.zero_is_root or not sig.is_squarefree:
        # measure zero: h(0) = 0 lies on a stratum, but a multiple root
        # may be a complex pair, which lies on neither
        lam = Parameter(tuple(Fraction(v, den) for v in V))
        member = discriminant_membership(sc, lam)
        if member is not Membership.NON_SINGULAR:
            raise DiscriminantParameter(
                f"{sc.label()} parameter lies on {member.value}", member)
    return BCSignature(sig.neg, sig.pos)


def _f4_descriptor(sc: SingularityClass, V: Sequence[int], den: int
                   ) -> F4Descriptor:
    # positive multiples of Delta_0 = -disc(g)/16 and Sigma_1 = -disc(P)
    s0, s1 = _int_strata(sc, V, den)
    member = Membership.of(s0 == 0, s1 == 0)
    if member is not Membership.NON_SINGULAR:
        raise DiscriminantParameter(
            f"{sc.label()} parameter lies on {member.value}", member)
    # den * (a, b, c, d) at the plus-class reduction (-a, b, c, -d)
    al, be, ga, de = V
    if sc.sign < 0:
        al, de = -al, -de
    P = [de, be, 0, den]  # den * P, constant term first

    # nongeneric wall: f_x = a + c*y vanishes at some boundary root
    if ga == 0:
        if al == 0:
            raise NonGenericConfiguration("f_x vanishes on the boundary")
    else:
        # ga^4 * den * P(-al/ga), which has the sign of P at the wall
        at_wall = ga * (de * ga ** 3 - al * (den * al * al + be * ga * ga))
        if at_wall == 0:
            raise NonGenericConfiguration(
                "f_x vanishes at a boundary crossing")

    # a real cubic with a nonzero discriminant has one real root when
    # the discriminant is negative and three when it is positive
    n = 1 if s1 > 0 else 3
    if ga == 0:
        below = 0
    elif n == 1:
        below = 0 if at_wall < 0 else 1  # P < 0 left of its sole root
    else:
        # the wall -al/ga over a positive denominator
        below = 3 - _real_rooted_above(P, -al if ga > 0 else al, abs(ga))

    def fx_sign(i: int) -> str:
        # f_x = c*(y - wall) at the i-th crossing y; the sign of a if c = 0
        s = al if ga == 0 else (ga if i >= below else -ga)
        return "+" if s > 0 else "-"

    signs = [fx_sign(i) for i in range(n)]
    if s0 > 0:
        # g has one real root: no oval, every crossing is on the branch
        return F4Descriptor(tuple(("B", s) for s in signs), "A")

    # g is a downward cubic with roots r1 < r2 < r3, and each crossing
    # has g = (a + c*y)^2 > 0 off the wall, so it lies left of r1
    # (branch) or in (r2, r3) (oval), never in [r1, r2].  G = den^2 * g
    # has the same roots, and its critical points c1 < c2, the local
    # minimum and maximum, satisfy r1 < c1 < r2 < c2 < r3.  So a point
    # s in [c1, c2] with G(s) < 0 lies in (r1, r2), and one t in
    # [c1, c2] with G(t) > 0 lies in (r2, r3).  A sole crossing lies
    # left of r1, since P < 0 left of it makes g > 0 there; three
    # crossings are all real roots of P, so the k above s are counted
    # without bisection.
    G = [al * al - 4 * den * de, 2 * al * ga - 4 * den * be, ga * ga,
         -4 * den * den]
    sn, tn, sd = _f4_oval_points(G)
    k = 0 if n == 1 else _real_rooted_above(P, sn, sd)
    tags = tuple(("B" if i < n - k else "O", s) for i, s in enumerate(signs))
    if k:
        return F4Descriptor(tags, "C")
    # no crossing lies on the oval support [r2, r3] and P(r2) =
    # (a + c*r2)^2 / 4, so (a + c*y)^2 >= 4*P > 0 there: the midline
    # x = -(a + c*y)/2 keeps one sign on it, read at t = tn / sd
    return F4Descriptor(tags, "R" if al * sd + ga * tn < 0 else "L")


def _f4_oval_points(G: Sequence[int]) -> tuple[int, int, int]:
    """Points s = sn / sd in (r1, r2) and t = tn / sd in (r2, r3) of a
    cubic G with a negative lead and three simple real roots r1 < r2 < r3.

    G's critical points are (g2 -+ sqrt(D)) / m for m = -3*g3 > 0 and
    D = g2^2 - 3*g1*g3 > 0.  With S = 2^e, the integer square root
    q = isqrt(D*S^2) >= 1 gives s = (g2*S - q)/(m*S) and
    t = (g2*S + q)/(m*S): s lies in [c1, g2/m) and t in (g2/m, c2], so
    both lie in [c1, c2], where G increases.  They are kept once
    G(s) < 0 < G(t); each e tightens them towards c1 and c2, where
    G(c1) < 0 < G(c2), so the loop ends.

    >>> _f4_oval_points([0, 3, 0, -1])    # 3y - y^3: c1 = -1, c2 = 1
    (-3, 3, 3)
    """
    g1, g2, g3 = G[1], G[2], G[3]
    m = -3 * g3
    D = g2 * g2 - 3 * g1 * g3
    e = 0
    while True:
        q = isqrt(D << 2 * e)
        sd = m << e
        sn, tn = (g2 << e) - q, (g2 << e) + q
        if _int_sign_hom(G, sn, sd) < 0 < _int_sign_hom(G, tn, sd):
            return sn, tn, sd
        e += 1


def canonical_type_id(d: F4Descriptor) -> int:
    """Quotient a descriptor to its component type id (1..8).

    The f_x sign labels are not constant on components: they flip on
    the nongeneric wall, which a component may cross.  What is constant
    is the crossing count, the oval state, and (with three branch
    crossings and no oval) the sign at the middle crossing, whose root
    stays bounded away from the wall by the outer two.
    """
    n = len(d.roots)
    if n == 1:
        return {"A": 1, "R": 4, "L": 5}[d.oval]
    if d.oval == "C":
        return 6
    if d.oval == "A":
        return 2 if d.roots[1][1] == "-" else 3
    return 7 if d.oval == "R" else 8


def candidate_descriptors() -> list[F4Descriptor]:
    """The a-priori descriptor space permitted by the local invariants.

    One or three transversal crossings; a crossed oval carries exactly
    the top two crossings; a sided oval carries none.  38 candidates;
    sampling realises far fewer (see :func:`realized_catalog`).
    """
    out: list[F4Descriptor] = []
    for signs in itertools.product("+-"):
        for oval in ("A", "L", "R"):
            out.append(F4Descriptor((("B", signs[0]),), oval))
    for signs in itertools.product("+-", repeat=3):
        for oval in ("A", "L", "R"):
            out.append(F4Descriptor(
                tuple(("B", s) for s in signs), oval))
    for signs in itertools.product("+-", repeat=3):
        out.append(F4Descriptor(
            (("B", signs[0]), ("O", signs[1]), ("O", signs[2])), "C"))
    out.sort(key=lambda d: (len(d.roots), d.oval, d.roots))
    return out


F4_SEEDS: tuple[tuple[int, Parameter], ...] = (
    (1, Parameter.of(1, 1, 0, 0)),
    (2, Parameter.of(-2, -1, 0, 0)),
    (3, Parameter.of(2, -1, 0, 0)),
    (4, Parameter.of(-1, -1, 0, Fraction(1, 2))),
    (5, Parameter.of(1, -1, 0, Fraction(1, 2))),
    (6, Parameter.of(1, -1, 0, 0)),
)


@lru_cache(maxsize=1)
def f4_side_seeds() -> tuple[tuple[int, Parameter], ...]:
    """The two off-slice seeds, built from the cuspidal edge of Sigma_0."""
    return (
        (7, f4_seed_oval_side("right", 1, Fraction(1, 2), Fraction(1, 8))),
        (8, f4_seed_oval_side("left", 1, Fraction(1, 2), Fraction(1, 8))),
    )


@lru_cache(maxsize=1)
def realized_catalog() -> dict[F4Descriptor, int]:
    """Map from representative descriptors to the eight type ids.

    Assembled by classifying fixed seed parameters: six on the slice
    c = 0 and two beside the cuspidal edge of the interior stratum.
    Raises CatalogMissing if the seeds fail to realise eight distinct
    types, which would indicate a defect in the classifier.
    """
    sc = SingularityClass("F4", 4, 1)
    cat: dict[F4Descriptor, int] = {}
    for tid, lam in F4_SEEDS + f4_side_seeds():
        try:
            desc = classify_f4(sc, lam)
        except (DiscriminantParameter, NonGenericConfiguration) as e:
            raise CatalogMissing(f"seed for type {tid} failed: {e}") from e
        if canonical_type_id(desc) != tid:
            raise CatalogMissing(
                f"seed for type {tid} classified as "
                f"{canonical_type_id(desc)}")
        cat[desc] = tid
    if sorted(cat.values()) != list(range(1, 9)):
        raise CatalogMissing("seeds did not realise eight distinct types")
    return dict(sorted(cat.items(), key=lambda kv: kv[1]))
