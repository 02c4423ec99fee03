"""Simple boundary singularity families and their discriminants.

The families handled here are the simple singularities of functions on
a half plane with boundary x = 0, in the normal forms

    B(mu, s):  x^mu + s*y^2            (mu even, s = +-1)
               s*(x^mu + y^2)          (mu odd, global sign)
    C(mu, s):  x*y + s*y^mu            (mu even)
               s*(x*y + y^mu)          (mu odd)
    F4(s):     s*x^2 + y^3

with truncated versal deformations

    B:  f = h(x) + s*y^2,    h(x) = (+-)x^mu + l1*x^(mu-1) + ... + lmu
    C:  f = sxy*x*y + h(y),  h(y) = s*y^mu + l1*y^(mu-1) + ... + lmu
    F4: f = s*x^2 + y^3 + a*x + b*y + c*x*y + d

where (+-) and sxy are s for odd mu and + for even mu.  They are
written once, as the term table _terms; every term carries at most one
parameter, to the first power, so f at a point (deformation_polynomial),
f over the parameters (deformation_generic) and the normal form (f at
lambda = 0) are all read from it.

The lower-value set W(lambda) = {f <= 0} changes topology exactly on
two hypersurface strata of the parameter space: Sigma_0 (an interior
critical point of f lies on the zero level) and Sigma_1 (the boundary
restriction f(0, y) has a degenerate zero).  For B the two strata are
cut out by "h has a real multiple root" and "h(0) = 0"; for C the same
two conditions swap roles, since f(0, y) = h(y) there and the interior
critical point sits at (-h'(0)/sxy, 0) with critical value h(0).

For F4 the interior stratum is carried by an eliminant Delta_0(a,b,c,d).
Solving f_x = 0 for x leaves f = -g(y)/4 and f_y = -g'(y)/4 with the
cubic g(y) = (a + c*y)^2 - 4*(y^3 + b*y + d), so Delta_0 = -disc_y(g)/16,
in closed form.  Delta_0 is irreducible of degree 7, quasi-homogeneous
of weight 12 for weights (3, 4, 1, 6).  The boundary stratum is the
cubic discriminant condition 4*b^3 + 27*d^2 = 0.  Every stratum is
thus the discriminant or a value of a univariate polynomial, and
stratum_values evaluates both defining polynomials for every family.
One integer kernel, _int_strata, gives the same two values at an
integer point den*lambda, each times a power of den.  The classifier
reads its signs, and segment_strata evaluates it once at t = 2^bits
on the segment line and reads both polynomials in the segment
parameter t off the result as balanced base-2^bits digits (Kronecker
substitution), or interpolates it at integer nodes when that integer
would be too long.  discriminant_membership reads the zeros of
stratum_values.
The minus class reduces to the plus class by
-f(x, -y; a, b, c, d) = f(x, y; -a, b, c, -d).

The cuspidal edge Xi_0 of Sigma_0 (parameters whose interior critical
point is degenerate) admits the rational parametrisation
xi0_point(y0, c) = (-c*y0, -3*y0^2, c, 2*y0^3), where the boundary
cubic becomes (y - y0)^2 * (y + 2*y0).  Points near Xi_0 seed the two
component types whose zero set carries an oval strictly to one side of
the boundary; f4_seed_oval_side builds them by shifting x off the
degenerate critical point and then lowering the function to split the
level set, with all signs tied to the requested side.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Sequence

from .exactpoly import (
    ArityMismatch,
    Interval,
    MultiPoly,
    UniPoly,
    _int_derivative,
    _int_reduced,
    _int_resultant,
    _interpolate,
    discriminant,
    gcd_uni,
    sturm_count,
)

F4_PARAMS = ("a", "b", "c", "d")


class SeedNotSmallEnough(ValueError):
    """Raised when an oval-side seed lands on the discriminant."""


class Membership(enum.Enum):
    NON_SINGULAR = "NonSingular"
    SIGMA0 = "Sigma0"
    SIGMA1 = "Sigma1"
    BOTH = "Both"

    def __str__(self) -> str:
        return self.value

    @staticmethod
    def of(sigma0: bool, sigma1: bool) -> "Membership":
        """Membership of a point on Sigma_0 iff sigma0 and on Sigma_1 iff
        sigma1."""
        if sigma0 and sigma1:
            return Membership.BOTH
        if sigma0:
            return Membership.SIGMA0
        if sigma1:
            return Membership.SIGMA1
        return Membership.NON_SINGULAR


_CLASS_RE = re.compile(r"^([+-]?)([BCF])([+-]?)(\d+)([+-]?)$")


@dataclass(frozen=True)
class SingularityClass:
    """One family member: B or C with Milnor number mu, or F4.

    ``sign`` is +1 or -1.  For even mu it is the coefficient of the
    quadratic normal-form term (y^2 for B, y^mu for C); for odd mu it
    is the global sign of the normal form; for F4 it is the sign of
    x^2.

    >>> SingularityClass.parse("B+4").label()
    'B+4'
    >>> SingularityClass.parse("C5-").expected_component_count()
    12
    >>> SingularityClass.parse("F4+").decomposition()
    ('A2', 'A2')
    """

    family: str
    mu: int
    sign: int

    def __post_init__(self):
        if self.family not in ("B", "C", "F4"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.family == "F4":
            if self.mu != 4:
                raise ValueError("F4 has Milnor number 4")
        elif self.mu < 2:
            raise ValueError("mu must be at least 2")

    @staticmethod
    def parse(text: str) -> "SingularityClass":
        m = _CLASS_RE.match(text.strip().upper())
        if not m:
            raise ValueError(f"cannot parse class {text!r}")
        pre, fam, mid, digits, post = m.groups()
        signs = [s for s in (pre, mid, post) if s]
        if len(signs) > 1:
            raise ValueError(f"ambiguous signs in class {text!r}")
        sign = -1 if signs and signs[0] == "-" else 1
        mu = int(digits)
        if fam == "F":
            if mu != 4:
                raise ValueError(f"unknown class {text!r}")
            return SingularityClass("F4", 4, sign)
        return SingularityClass(fam, mu, sign)

    # -- structure

    @property
    def is_even(self) -> bool:
        return self.mu % 2 == 0

    @property
    def k(self) -> int:
        return self.mu // 2

    @property
    def parameter_names(self) -> tuple[str, ...]:
        if self.family == "F4":
            return F4_PARAMS
        return tuple(f"l{i}" for i in range(1, self.mu + 1))

    @property
    def parameter_count(self) -> int:
        return 4 if self.family == "F4" else self.mu

    def label(self) -> str:
        s = "+" if self.sign > 0 else "-"
        if self.family == "F4":
            return f"F4{s}"
        return f"{self.family}{s}{self.mu}"

    def normal_form_text(self) -> str:
        """The undeformed f, all parameters zero.

        >>> SingularityClass.parse("C-3").normal_form_text()
        '-x*y - y^3'
        """
        return deformation_polynomial(self, [0] * self.parameter_count).text()

    # -- Table 1 metadata

    def expected_component_count(self) -> int:
        if self.family == "F4":
            return 8
        k = self.k
        return (k + 1) ** 2 if self.is_even else (k + 1) * (k + 2)

    def asymptotic_sector_count(self) -> int:
        """Unbounded components of the complement of the zero set of f0."""
        if self.family == "F4":
            return 1
        if self.family == "C":
            return 2
        if self.is_even:
            return 0 if self.sign > 0 else 2
        return 1

    def decomposition(self) -> tuple[str, str]:
        """Interior/boundary pair of ordinary singularity classes."""
        if self.family == "F4":
            return ("A2", "A2")
        if self.family == "B":
            return (f"A{self.mu - 1}", "A1")
        return ("A1", f"A{self.mu - 1}")


@dataclass(frozen=True)
class Parameter:
    """Point of a deformation parameter space, all entries rational."""

    values: tuple[Fraction, ...]

    @staticmethod
    def of(*vals) -> "Parameter":
        return Parameter(tuple(Fraction(v) for v in vals))

    @staticmethod
    def coerce(vals) -> "Parameter":
        if isinstance(vals, Parameter):
            return vals
        return Parameter(tuple(Fraction(v) for v in vals))

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def text_list(self) -> list[str]:
        return [str(v) for v in self.values]


def _check_arity(sc: SingularityClass, lam: Parameter) -> Parameter:
    if len(lam) != sc.parameter_count:
        raise ArityMismatch(
            f"{sc.label()} needs {sc.parameter_count} parameters, "
            f"got {len(lam)}")
    return lam


def boundary_polynomial(sc: SingularityClass, lam) -> UniPoly:
    """The univariate carrier of the discriminant conditions.

    For B this is h(x) with f = h(x) + s*y^2 (variable "x"); for C and
    F4 it is the boundary restriction f(0, y) (variable "y").

    >>> boundary_polynomial(SingularityClass.parse("B+4"),
    ...                     Parameter.of(0, 0, 0, -1)).text()
    'x^4 - 1'
    >>> boundary_polynomial(SingularityClass.parse("C-3"),
    ...                     Parameter.of(1, 0, 2)).text()
    '-y^3 + y^2 + 2'
    """
    lam = _check_arity(sc, Parameter.coerce(lam))
    if sc.family == "F4":
        a, b, c, d = lam
        return UniPoly("y", [d, b, 0, 1])
    mu = sc.mu
    var = "x" if sc.family == "B" else "y"
    coeffs = [lam[mu - 1 - i] for i in range(mu)] + [_bc_lead(sc)]
    return UniPoly(var, coeffs)


def _bc_lead(sc: SingularityClass) -> int:
    """Leading coefficient of h for B and C: a sign fixed by the class."""
    if sc.family == "B":
        return 1 if sc.is_even else sc.sign
    return sc.sign


def _terms(sc: SingularityClass
           ) -> list[tuple[int, int, int | None, int]]:
    """The deformation f as terms (i, j, k, c), each c*x^i*y^j times the
    parameter lam[k], or times 1 when k is None (module docstring).
    h's lead c is _bc_lead(sc), as in ``boundary_polynomial``."""
    if sc.family == "F4":
        return [(2, 0, None, sc.sign), (0, 3, None, 1), (1, 0, 0, 1),
                (0, 1, 1, 1), (1, 1, 2, 1), (0, 0, 3, 1)]
    mu = sc.mu
    h = [(mu, None, _bc_lead(sc))] + [(mu - 1 - k, k, 1) for k in range(mu)]
    if sc.family == "B":
        return [(e, 0, k, c) for e, k, c in h] + [(0, 2, None, sc.sign)]
    sxy = 1 if sc.is_even else sc.sign
    return [(1, 1, None, sxy)] + [(0, e, k, c) for e, k, c in h]


def deformation_polynomial(sc: SingularityClass, lam) -> MultiPoly:
    """The deformed function f at the parameter lam, as a polynomial in
    (x, y), read from ``_terms``.

    >>> deformation_polynomial(SingularityClass.parse("B-3"),
    ...                        Parameter.of(0, 1, -2)).text()
    '-x^3 + x - y^2 - 2'
    """
    lam = _check_arity(sc, Parameter.coerce(lam))
    return MultiPoly(("x", "y"), {
        (i, j): c if k is None else c * lam[k]
        for i, j, k, c in _terms(sc)})


def deformation_generic(sc: SingularityClass) -> MultiPoly:
    """f with the deformation parameters as extra variables after x and
    y, read from ``_terms``: the parameter of a term gets exponent 1.

    >>> deformation_generic(SingularityClass.parse("F4-")).text()
    '-x^2 + x*y*c + x*a + y^3 + y*b + d'
    """
    n = sc.parameter_count
    return MultiPoly(("x", "y") + sc.parameter_names, {
        (i, j, *(int(m == k) for m in range(n))): c
        for i, j, k, c in _terms(sc)})


def _has_real_multiple_root(h: UniPoly) -> bool:
    g = gcd_uni(h, h.derivative())
    return g.degree() > 0 and sturm_count(g, Interval.real_line()) > 0


def f4_reduce(lam) -> Parameter:
    """Parameter map realising the minus-to-plus class reduction."""
    a, b, c, d = Parameter.coerce(lam)
    return Parameter((-a, b, c, -d))


def stratum_values(sc: SingularityClass, lam) -> tuple[Fraction, Fraction]:
    """Values of the Sigma_0 and Sigma_1 defining polynomials at lam.

    (disc h, h(0)) for B, (h(0), disc h) for C, and for F4 the pair
    (Delta_0, 4*b^3 + 27*d^2), Delta_0 taken at the plus-class reduction
    of a minus-class parameter.  For B and C, disc h also vanishes when
    h has a complex double root, which is on neither stratum.

    >>> stratum_values(SingularityClass.parse("C+2"), Parameter.of(0, -1))
    (Fraction(-1, 1), Fraction(4, 1))
    """
    lam = _check_arity(sc, Parameter.coerce(lam))
    if sc.family == "F4":
        probe = f4_reduce(lam) if sc.sign < 0 else lam
        _, b, _, d = lam
        return (f4_sigma0_eliminant().eval(tuple(probe)),
                4 * b ** 3 + 27 * d ** 2)
    h = boundary_polynomial(sc, lam)
    mult, at_zero = discriminant(h), h.constant_term()
    return (mult, at_zero) if sc.family == "B" else (at_zero, mult)


IntPoly = tuple[list[int], int]


def _strata_degrees(sc: SingularityClass) -> tuple[int, int]:
    """Total degrees of the Sigma_0 and Sigma_1 polynomials in lambda."""
    if sc.family == "F4":
        return 7, 3
    n = 2 * sc.mu - 2
    return (n, 1) if sc.family == "B" else (1, n)


def _int_point(den: int, lam: Parameter) -> list[int]:
    """den * lam as integers; den must clear every denominator."""
    return [v.numerator * (den // v.denominator) for v in lam]


def _cleared(lam: Parameter) -> tuple[list[int], int]:
    """(V, den) with lam = V / den, den the lcm of lam's denominators."""
    den = lcm(*(v.denominator for v in lam))
    return _int_point(den, lam), den


def _cubic_discriminant(A, B, C, D):
    """Discriminant of A*y^3 + B*y^2 + C*y + D, for coefficients that
    are integers or polynomials in the parameters."""
    return (B * B * C * C - 4 * A * C ** 3 - 4 * B ** 3 * D
            - 27 * A * A * D * D + 18 * A * B * C * D)


def _int_strata(sc: SingularityClass, V: Sequence[int], den: int
                ) -> tuple[int, int]:
    """Both values of ``stratum_values`` at lambda = V / den, in integers.

    V is an integer vector and den > 0.  Each value comes times den to
    the degree of its polynomial (``_strata_degrees``), a positive
    factor, so the signs are those of the stratum values.

    For B and C, H = den * h has the leading coefficient _bc_lead(sc) *
    den, and disc(H) = den^(2*mu - 2) * disc(h) is one integer
    resultant, sign * Res(H, H') / lc(H); den * h(0) is the last entry
    of V.  For F4, G = den^2 * g is the cubic of Delta_0 = -disc(g)/16
    in integers; disc is homogeneous of degree 4 in the coefficients
    and Delta_0 has integer coefficients and degree 7, so -disc(G) =
    16 * den^8 * Delta_0 is divisible by 16 * den.  den^3 * Sigma_1 is
    4*beta^3 + 27*den*delta^2.

    >>> _int_strata(SingularityClass.parse("B+2"), [0, -2], 2)
    (16, -2)
    """
    if sc.family == "F4":
        al, be, ga, de = V
        s1 = 4 * be ** 3 + 27 * den * de * de
        if sc.sign < 0:
            # Delta_0 at the plus-class reduction (-a, b, c, -d)
            al, de = -al, -de
        disc = _cubic_discriminant(-4 * den * den, ga * ga,
                                   2 * al * ga - 4 * den * be,
                                   al * al - 4 * den * de)
        return -disc // (16 * den), s1
    mu = sc.mu
    lead = _bc_lead(sc) * den
    H = list(reversed(V)) + [lead]
    sign = -1 if (mu * (mu - 1) // 2) % 2 else 1
    mult = sign * _int_resultant(H, _int_derivative(H)) // lead
    return (mult, V[-1]) if sc.family == "B" else (V[-1], mult)


def _segment_line(sc: SingularityClass, start, end
                  ) -> tuple[list[tuple[int, int]], int]:
    """(line, den) with the segment point at t equal to (x + t*dx) / den
    for (x, dx) in line, den the lcm of all endpoint denominators."""
    a = _check_arity(sc, Parameter.coerce(start))
    b = _check_arity(sc, Parameter.coerce(end))
    den = lcm(*(v.denominator for v in a.values + b.values))
    A, B = _int_point(den, a), _int_point(den, b)
    return [(x, y - x) for x, y in zip(A, B)], den


# The packed evaluation of ``segment_strata`` pays while its integer
# has at most this many bits: one resultant on numbers this long costs
# less than 2*mu - 1 node resultants.  Past about 5k bits CPython's
# quadratic big-int division turns that around.  On 100 random segments
# of every family (mu = 2..7, coefficients of 4-120 bits; 2-vCPU Xeon,
# Python 3.11.7) the packed path was 1.2-5.1x faster up to 4096 bits,
# 1.0-1.7x at 4.1k-5k bits, and 0.13-0.84x from 6k bits on.
_KRONECKER_MAX_BITS = 4096


def _kronecker_bits(sc: SingularityClass, line: Sequence[tuple[int, int]],
                    den: int) -> int:
    """A digit width B with 2^B > 4 * |c| for every coefficient c of
    both stratum polynomials along the line (x + t*dx for (x, dx) in
    line) that ``_int_strata`` gives, each times den^degree.

    On |t| = 1 each entry x + t*dx has modulus at most |x| + |dx|, and
    by Cauchy's estimate no coefficient of a polynomial in t exceeds its
    maximum modulus on |t| = 1.  For B and C that maximum is bounded by
    Hadamard's bound on the Sylvester matrix of (H_t, H_t') divided by
    |lc(H)| = den: mu - 1 rows of H's entries and mu of H''s, whose
    product of Euclidean row norms, squared, is taken in integers.  It
    also bounds the linear den * h(0), since ||H'|| >= mu * den.  For F4
    the same majorants go through every term of ``_cubic_discriminant``
    (over 16 * den) and of 4*beta^3 + 27*den*delta^2.
    """
    mags = [abs(x) + abs(dx) for x, dx in line]
    if sc.family == "F4":
        al, be, ga, de = mags
        A, B, C = 4 * den * den, ga * ga, 2 * al * ga + 4 * den * be
        D = al * al + 4 * den * de
        disc = (B * B * C * C + 4 * A * C ** 3 + 4 * B ** 3 * D
                + 27 * A * A * D * D + 18 * A * B * C * D)
        bound = max(-(-disc // (16 * den)), 4 * be ** 3 + 27 * den * de * de)
        return bound.bit_length() + 2
    mu = sc.mu
    H = mags[::-1] + [den]
    rows_h = sum(m * m for m in H)
    rows_d = sum((i * m) ** 2 for i, m in enumerate(H))
    # 2^(2B) > 16 * rows_h^(mu-1) * rows_d^mu / den^2
    bound_sq = 16 * rows_h ** (mu - 1) * rows_d ** mu // (den * den) + 1
    return (bound_sq.bit_length() + 1) // 2


def _balanced_digits(v: int, bits: int, count: int) -> list[int]:
    """The digits c_0..c_(count-1) of v = sum c_k * 2^(bits*k), each
    with |c_k| < 2^(bits - 2).

    Balanced digits in [-2^(bits-1), 2^(bits-1)) are unique, so when
    every coefficient of an integer polynomial P of degree < count is
    below 2^(bits-2) in modulus they are those of P, read from P(2^bits).
    ArithmeticError is raised when a digit or the part left above the
    last one falls outside that range: bits was too small for v.

    >>> _balanced_digits(3 - 5 * 2 ** 8 + 2 ** 16, 8, 3)
    [3, -5, 1]
    """
    full = 1 << bits
    half, quarter = full >> 1, full >> 2
    out = []
    for _ in range(count):
        d = v & (full - 1)
        if d >= half:
            d -= full
        if not -quarter < d < quarter:
            raise ArithmeticError(f"digit {d} does not fit in {bits} bits")
        out.append(d)
        v = (v - d) >> bits
    if v:
        raise ArithmeticError(f"{count} digits of {bits} bits leave {v}")
    return out


def _packed_strata(sc: SingularityClass, line: Sequence[tuple[int, int]],
                   den: int, bits: int) -> list[IntPoly]:
    """``segment_strata`` from one ``_int_strata`` call at t = 2^bits,
    for a bits from ``_kronecker_bits``."""
    vals = _int_strata(sc, [x + (dx << bits) for x, dx in line], den)
    return [_int_reduced(_balanced_digits(v, bits, n + 1), den ** n)
            for v, n in zip(vals, _strata_degrees(sc))]


def _node_strata(sc: SingularityClass, line: Sequence[tuple[int, int]],
                 den: int) -> list[IntPoly]:
    """``segment_strata`` interpolated from ``_int_strata`` at the nodes
    t = 0..D, D the larger stratum degree."""
    degrees = _strata_degrees(sc)
    nodes = [_int_strata(sc, [x + k * dx for x, dx in line], den)
             for k in range(max(degrees) + 1)]
    out = []
    for vals, n in zip(zip(*nodes), degrees):
        cs, scale = _interpolate(vals[:n + 1])
        out.append(_int_reduced(cs, scale * den ** n))
    return out


def segment_strata(sc: SingularityClass, start, end
                   ) -> tuple[IntPoly, IntPoly]:
    """The two values of ``stratum_values`` along a parameter segment.

    Sigma0 and Sigma1 at (1-t)*start + t*end as polynomials in t, each
    an integer coefficient list (constant term first) with a positive
    denominator, the pair ``UniPoly._int_coeffs`` returns.  Everything
    runs in integers: den is the lcm of all endpoint denominators, and
    den times each endpoint is an integer vector A or B.

    At the point (A + t*(B - A)) / den, ``_int_strata`` gives both
    values times den^n, n the stratum's degree in lambda, and each is a
    polynomial P in Z[t] of degree at most n.  It is evaluated once, at
    V = A + 2^bits * (B - A) (Kronecker substitution): ``_kronecker_bits``
    bounds every coefficient of P by a quarter of 2^bits, so P(2^bits)
    determines P as its balanced base-2^bits digits
    (``_balanced_digits``).  The exact divisions inside ``_int_strata``
    survive the evaluation: Res(H_t, H_t') is lc(H) = +-den times a
    polynomial in Z[t] for B and C, -disc(G_t) is 16 * den times one for
    F4, so their values at t = 2^bits divide exactly too.  Each stratum
    is divided by den^n once.

    When the packed integer would pass ``_KRONECKER_MAX_BITS`` bits
    (the measured crossover of one long resultant against 2*mu - 1
    short ones), the nodes t = 0..D for the larger degree D (2*mu - 2
    for B and C, 7 for F4) are computed instead, and each stratum is
    interpolated from its own first n + 1 of them (``_node_strata``).

    >>> segment_strata(SingularityClass.parse("B+2"),
    ...                Parameter.of(0, -1), Parameter.of(0, -4))
    (([4, 12], 1), ([-1, -3], 1))
    """
    line, den = _segment_line(sc, start, end)
    bits = _kronecker_bits(sc, line, den)
    if bits * (max(_strata_degrees(sc)) + 1) <= _KRONECKER_MAX_BITS:
        out = _packed_strata(sc, line, den, bits)
    else:
        out = _node_strata(sc, line, den)
    return out[0], out[1]


def discriminant_membership(sc: SingularityClass, lam) -> Membership:
    """Locate a parameter relative to the two discriminant strata.

    A zero stratum value puts the point on that stratum, except that a
    zero disc h of B or C counts only for a real multiple root: disc h
    also vanishes at a complex double root (see stratum_values).

    >>> sc = SingularityClass.parse("B+4")
    >>> discriminant_membership(sc, Parameter.of(0, -2, 0, -1)).value
    'NonSingular'
    >>> discriminant_membership(sc, Parameter.of(0, 0, 0, 0)).value
    'Both'
    """
    lam = _check_arity(sc, Parameter.coerce(lam))
    on = [v == 0 for v in stratum_values(sc, lam)]
    if sc.family != "F4":
        i = 0 if sc.family == "B" else 1  # the index of disc h
        if on[i]:
            on[i] = _has_real_multiple_root(boundary_polynomial(sc, lam))
    return Membership.of(*on)


@lru_cache(maxsize=1)
def f4_sigma0_eliminant() -> MultiPoly:
    """The interior discriminant Delta_0 of the F4 deformation.

    Delta_0 = -disc_y(g)/16 for the plus-class cubic
    g(y) = (a + c*y)^2 - 4*(y^3 + b*y + d) = A*y^3 + B*y^2 + C*y + D,
    A = -4, B = c^2, C = 2*a*c - 4*b, D = a^2 - 4*d, by
    ``_cubic_discriminant``.  It is primitive with positive leading
    sign in lex order a > b > c > d.  Points with Delta_0 = 0 are
    exactly those whose deformation has an interior critical point on
    the zero level.

    >>> f4_sigma0_eliminant().eval((-1, -3, 1, 2))
    Fraction(0, 1)
    >>> f4_sigma0_eliminant().text()[:30]
    '27*a^4 + a^3*c^3 + 30*a^2*b*c^'
    """
    a, b, c, d = MultiPoly.variables(F4_PARAMS)
    disc = _cubic_discriminant(-4, c * c, 2 * a * c - 4 * b, a * a - 4 * d)
    return disc * Fraction(-1, 16)


@lru_cache(maxsize=1)
def f4_sigma1_polynomial() -> MultiPoly:
    """Boundary stratum of F4: the cubic y^3 + b*y + d degenerates."""
    _, b, _, d = MultiPoly.variables(F4_PARAMS)
    return 4 * b ** 3 + 27 * d ** 2


def xi0_point(y0, c) -> Parameter:
    """Point of the cuspidal edge Xi_0 of the F4 interior stratum.

    The interior critical point degenerates at y = y0 and the boundary
    cubic factors as (y - y0)^2 * (y + 2*y0).

    >>> xi0_point(1, 1).values
    (Fraction(-1, 1), Fraction(-3, 1), Fraction(1, 1), Fraction(2, 1))
    """
    y0, c = Fraction(y0), Fraction(c)
    return Parameter((-c * y0, -3 * y0 ** 2, c, 2 * y0 ** 3))


def f4_seed_oval_side(side: str, y0, eps, delta) -> Parameter:
    """Seed parameter whose zero set has an oval beside the boundary.

    Starting from the Xi_0 point at height y0 > 0, the degenerate
    critical point is resolved into a crossing by shifting x, then the
    function is raised to detach a small oval.  The sign of the shift
    and of the slope c select the side: the oval sits to the right of
    the boundary for side="right", to the left for side="left".  The
    slope magnitude must satisfy c^2 > 12*y0 for the critical point to
    resolve into a crossing rather than an extremum; the smallest such
    integer is used.

    eps and delta are positive magnitudes; they must be small (delta
    roughly below eps^2/4, eps below 1) for the oval to stay clear of
    the boundary.  SeedNotSmallEnough is raised when the constructed
    point lands on the discriminant; halve both and retry in that
    case.  Type membership of the result is checked by the classifier,
    not here.  The degenerate call eps = delta = 0 returns the Xi_0
    point itself without the membership check.

    >>> f4_seed_oval_side("left", 1, Fraction(1, 2), Fraction(1, 8)).values
    (Fraction(-3, 1), Fraction(-1, 1), Fraction(4, 1), Fraction(3, 8))
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    y0, eps, delta = Fraction(y0), Fraction(eps), Fraction(delta)
    if y0 <= 0 or eps < 0 or delta < 0 or (eps == 0) != (delta == 0):
        raise ValueError("y0 must be positive, eps and delta positive "
                         "or both zero")
    m = 1
    while m * m <= 12 * y0:
        m += 1
    s = 1 if side == "right" else -1
    c = Fraction(-s * m)
    e = s * eps
    a, b, _, d = xi0_point(y0, c)
    a2 = a - 2 * e
    b2 = b - c * e
    d2 = d + e * e - a * e + delta
    lam = Parameter((a2, b2, c, d2))
    if eps == 0:
        return lam
    sc = SingularityClass("F4", 4, 1)
    if discriminant_membership(sc, lam) is not Membership.NON_SINGULAR:
        raise SeedNotSmallEnough(
            f"seed {lam.text_list()} lies on the discriminant")
    return lam


def table1_metadata(sc: SingularityClass) -> dict:
    """Metadata row for the class, as reported by the CLI."""
    return {
        "class": sc.label(),
        "family": sc.family,
        "mu": sc.mu,
        "sign": "+" if sc.sign > 0 else "-",
        "normal_form": sc.normal_form_text(),
        "deformation": deformation_generic(sc).text(),
        "parameters": list(sc.parameter_names),
        "decomposition": list(sc.decomposition()),
        "expected_components": sc.expected_component_count(),
        "asymptotic_sectors": sc.asymptotic_sector_count(),
    }
