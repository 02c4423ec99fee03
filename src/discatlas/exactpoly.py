"""Exact polynomial arithmetic over the rationals.

Everything downstream (membership tests, classification, path
certificates) reduces to sign questions about polynomials with rational
coefficients, so this module keeps all arithmetic exact; no floating
point enters any decision.  Two polynomial carriers:

``UniPoly``
    dense univariate polynomial held as its reduced integer pair
    (cs, den): the polynomial is cs / den, cs from the constant term
    upward with no trailing zero.  Its arithmetic and text run on
    those integers; ``Fraction`` appears only where a value is asked.

``MultiPoly``
    sparse multivariate polynomial over an ordered variable tuple,
    terms keyed by exponent tuples, with nonzero ``Fraction``
    coefficients.

Real root decisions are exact and integer-only.  On the whole real
line one Sturm chain of the primitive polynomial itself decides: a
signed pseudo-remainder sequence that strips integer content at every
step, so coefficient growth stays linear rather than exponential, and
ends in gcd(p, p'); at non-roots its variations count distinct roots,
and isolation bisects from the Cauchy bound with it.  On an interval
with a finite end, an infinite end is replaced by the Cauchy bound,
and every rational root on an end is divided out to its full
multiplicity instead of nudged by an epsilon.  Descartes bisection (Vincent-Collins-Akritas)
then starts from the interval itself: Descartes' rule of signs on the
Moebius transform (1+x)^n p((lo + hi*x)/(1+x)), built by integer
Taylor shifts, proves no root or exactly one, and otherwise the
interval is halved.  It runs on p itself: a tree that settles is exact
whatever p's factorisation, and only a branch that passes a fixed
depth, as one around a repeated root does, restarts the bisection on
the squarefree part chain[0] / chain[-1] of p's Sturm chain.  Either
way, once a subtree holds one root it is bisected on the sign alone
of the polynomial that isolated it (on the whole line, the squarefree
part), with both ends kept as integer numerators over one denominator
that doubles with each halving, so a midpoint costs one homogeneous
integer Horner sign and no Fraction.  Interval
endpoints may be infinite; openness flags are honoured exactly.
Polynomial text is written from integer numerators and denominators.

``MultiPoly`` carries only ring operations, evaluation and restriction
to a parameter segment: every stratum of the families is the
discriminant or a value of a univariate polynomial, so no variable is
ever eliminated symbolically at run time.  Resultants and
discriminants are univariate, by the subresultant pseudo-remainder
sequence on integer coefficients; no Sylvester determinant is formed.

Values are immutable and operations are pure: nothing here mutates an
argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial as _factorial
from math import gcd as _igcd
from math import lcm as _ilcm
from typing import Iterable, Mapping, Sequence, Union

RationalLike = Union[Fraction, int]


class ZeroPolynomial(ValueError):
    """Raised when an operation is undefined for the zero polynomial."""


class DegreeZero(ValueError):
    """Raised when an operation needs positive degree in the main variable."""


class ArityMismatch(ValueError):
    """Raised when a point or variable list does not match the polynomial."""


def _frac(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def _sign(x) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


# ---------------------------------------------------------------------------
# univariate polynomials


class UniPoly:
    """Univariate polynomial over Q, held as its reduced integer pair.

    The polynomial is cs / den: integer coefficients cs from the
    constant term upward with no trailing zero, and den > 0 sharing no
    factor with every entry (Gauss' content and primitive part).  The
    pair is unique, so equality, hashing and pickling read it; zero is
    ((), 1), of degree -1.  ``coeffs`` builds Fractions on request.

    >>> p = UniPoly("x", [-1, 0, 1])        # x^2 - 1
    >>> p.degree(), p(Fraction(3))
    (2, Fraction(8, 1))
    >>> (p * p).derivative() == UniPoly("x", [0, -4, 0, 4])
    True
    """

    __slots__ = ("var", "_cs", "_den")

    def __init__(self, var: str, coeffs: Iterable[RationalLike]):
        # the lcm of reduced denominators shares no factor with every
        # cleared numerator, so the pair needs no further reduction
        pairs = [c.as_integer_ratio() for c in coeffs]
        den = _ilcm(*[d for _, d in pairs])
        self._hold(var, _int_trim([n * (den // d) for n, d in pairs]), den)

    @classmethod
    def _of_ints(cls, var: str, cs: Sequence[int], den: int) -> "UniPoly":
        """The polynomial cs / den for integers cs and den > 0, reduced.

        >>> UniPoly._of_ints("t", [2, 0, 4, 0], 6)._int_coeffs()
        ([1, 0, 2], 3)
        """
        p = cls.__new__(cls)
        p._hold(var, *_int_reduced(cs, den))
        return p

    def _hold(self, var: str, cs: Sequence[int], den: int) -> None:
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "_cs", tuple(cs))
        object.__setattr__(self, "_den", den)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("UniPoly is immutable")

    def __reduce__(self):
        # pickle and copy rebuild from the pair, since the guard above
        # refuses setattr
        return UniPoly._of_ints, (self.var, self._cs, self._den)

    # -- basic structure

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self._den) for c in self._cs)

    def degree(self) -> int:
        return len(self._cs) - 1

    def is_zero(self) -> bool:
        return not self._cs

    def constant_term(self) -> Fraction:
        return Fraction(self._cs[0] if self._cs else 0, self._den)

    def __call__(self, x: RationalLike) -> Fraction:
        # homogeneous Horner: acc = d^deg * cs(n/d), dp = d^(deg + 1)
        n, d = x.as_integer_ratio()
        acc, dp = 0, 1
        for c in reversed(self._cs):
            acc = acc * n + c * dp
            dp *= d
        return Fraction(acc * d, self._den * dp)

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and (self.var, self._cs, self._den) \
            == (other.var, other._cs, other._den)

    def __hash__(self) -> int:
        return hash((self.var, self._cs, self._den))

    def _check_var(self, other: "UniPoly") -> None:
        if self.var != other.var:
            raise ArityMismatch(
                f"variable mismatch: {self.var!r} vs {other.var!r}")

    # -- ring operations

    def __add__(self, other: "UniPoly") -> "UniPoly":
        self._check_var(other)
        den = _ilcm(self._den, other._den)
        out = [c * (den // self._den) for c in self._cs]
        out += [0] * (len(other._cs) - len(out))
        for i, c in enumerate(other._cs):
            out[i] += c * (den // other._den)
        return UniPoly._of_ints(self.var, out, den)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __neg__(self) -> "UniPoly":
        return UniPoly._of_ints(self.var, [-c for c in self._cs], self._den)

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, (Fraction, int)):
            return UniPoly._of_ints(self.var,
                                    [c * other.numerator for c in self._cs],
                                    self._den * other.denominator)
        self._check_var(other)
        return UniPoly._of_ints(self.var, _int_mul(self._cs, other._cs),
                                self._den * other._den)

    __rmul__ = __mul__

    def derivative(self) -> "UniPoly":
        return UniPoly._of_ints(self.var, _int_derivative(self._cs), self._den)

    def text(self) -> str:
        """Canonical ASCII form, terms sorted by descending exponent."""
        return _terms_text(
            [((e,), c, self._den) for e, c in enumerate(self._cs) if c],
            (self.var,),
        )

    def __repr__(self) -> str:
        return f"UniPoly({self.var!r}, {self.text()!r})"

    # -- integer scaling (internal)

    def _int_coeffs(self) -> tuple[list[int], int]:
        """The held pair: integer coefficients (a fresh list) and den."""
        return list(self._cs), self._den


# ---------------------------------------------------------------------------
# intervals


@dataclass(frozen=True)
class Interval:
    """Real interval with rational or infinite endpoints.

    ``lo`` / ``hi`` are Fractions or ``None`` for -oo / +oo.  Infinite
    endpoints are forced open.  A point interval is closed on both
    sides.  Construct through :meth:`open`, :meth:`closed`,
    :meth:`point` or :meth:`real_line` for readable call sites.
    """

    lo: Fraction | None
    hi: Fraction | None
    lo_open: bool
    hi_open: bool

    def __post_init__(self):
        if self.lo is None:
            object.__setattr__(self, "lo_open", True)
        if self.hi is None:
            object.__setattr__(self, "hi_open", True)
        if self.lo is not None and self.hi is not None:
            if self.lo > self.hi:
                raise ValueError("interval endpoints out of order")
            if self.lo == self.hi and (self.lo_open or self.hi_open):
                raise ValueError("degenerate open interval")

    @staticmethod
    def open(lo, hi) -> "Interval":
        return Interval(None if lo is None else _frac(lo),
                        None if hi is None else _frac(hi), True, True)

    @staticmethod
    def closed(lo, hi) -> "Interval":
        return Interval(_frac(lo), _frac(hi), False, False)

    @staticmethod
    def point(r) -> "Interval":
        r = _frac(r)
        return Interval(r, r, False, False)

    @staticmethod
    def real_line() -> "Interval":
        return Interval(None, None, True, True)

    def is_point(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    def midpoint(self) -> Fraction:
        if self.lo is None or self.hi is None:
            raise ValueError("midpoint of an unbounded interval")
        return (self.lo + self.hi) / 2

    def text(self) -> str:
        lo = "-oo" if self.lo is None else str(self.lo)
        hi = "+oo" if self.hi is None else str(self.hi)
        return f"{'(' if self.lo_open else '['}{lo}, {hi}{')' if self.hi_open else ']'}"


# ---------------------------------------------------------------------------
# integer kernel: signed pseudo-remainders, Sturm chains, gcd, resultants


def _int_content(cs: Sequence[int]) -> int:
    g = 0
    for c in cs:
        g = _igcd(g, abs(c))
        if g == 1:
            break
    return g


def _int_primitive(cs: Sequence[int]) -> list[int]:
    g = _int_content(cs)
    if g in (0, 1):
        return list(cs)
    return [c // g for c in cs]


def _int_trim(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _int_derivative(cs: Sequence[int]) -> list[int]:
    return [i * c for i, c in enumerate(cs)][1:]


def _int_mul(p: Sequence[int], q: Sequence[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        if x:
            for j, y in enumerate(q):
                out[i + j] += x * y
    return out


def _interpolate(values: Sequence[RationalLike]) -> tuple[list[int], int]:
    """Interpolant through (k, values[k]) for k = 0, ..., n - 1.

    Returned as integer coefficients (constant term first) and a
    positive denominator, as ``UniPoly._int_coeffs`` returns them.
    Newton's forward form sum_j (Delta^j y_0 / j!) * t(t-1)...(t-j+1)
    in integers: the values share one cleared denominator, the forward
    differences and the falling-factorial Horner steps stay in int, and
    the single division by (n-1)! times that denominator is left to the
    caller.
    """
    n = len(values)
    den = _ilcm(*(v.denominator for v in values))
    ys = [v.numerator * (den // v.denominator) for v in values]
    diffs = []
    for _ in range(n):
        diffs.append(ys[0])
        ys = [b - a for a, b in zip(ys, ys[1:])]
    # scale Delta^j y_0 by (n-1)!/j! so every Horner coefficient is integral
    fact = _factorial(n - 1)
    acc = [diffs[-1]]
    for j in range(n - 2, -1, -1):
        # acc <- acc * (t - j) + diffs[j] * (n-1)!/j!
        shifted = [0] + acc
        for i, c in enumerate(acc):
            shifted[i] -= j * c
        shifted[0] += diffs[j] * (fact // _factorial(j))
        acc = shifted
    return acc, fact * den


def _int_reduced(cs: Sequence[int], den: int) -> tuple[list[int], int]:
    """cs / den trimmed and in lowest terms: no trailing zero, and no
    common factor of den and every coefficient.  Zero is ([], 1)."""
    cs = _int_trim(list(cs))
    g = _igcd(_int_content(cs), den)
    return [c // g for c in cs], den // g


def _int_grid_numerators(cs: Sequence[int], m: int) -> list[int]:
    """The integers m^deg * cs(i/m) at i = 0, 1, ..., m.

    m^deg * cs(i/m) is an integer polynomial in i, so each costs one
    integer Horner pass; each has the sign of cs(i/m).
    """
    if not cs:
        return [0] * (m + 1)
    d = len(cs) - 1
    scaled = [c * m ** (d - k) for k, c in enumerate(cs)][::-1]
    out = []
    for i in range(m + 1):
        acc = 0
        for c in scaled:
            acc = acc * i + c
        out.append(acc)
    return out


def _int_pseudo_rem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Exact pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b.

    a must have a nonzero leading coefficient and degree >= deg b.
    """
    db, lb = len(b) - 1, b[-1]
    r = list(a)
    for k in range(len(a) - 1 - db, -1, -1):
        lead = r.pop()
        r = [c * lb for c in r]
        if lead:
            for i in range(db):
                r[k + i] -= lead * b[i]
    return _int_trim(r)


def _int_pseudo_quo(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Pseudo-quotient q of a by b: lc(b)^(deg a - deg b + 1) * a = q*b + r
    with deg r < deg b, so q / lc(b)^(deg a - deg b + 1) is the quotient
    in Q[x].  a must have degree >= deg b.

    >>> _int_pseudo_quo([1, 0, 0, 1], [1, 2])     # 8*(x^3 + 1) by 2x + 1
    [1, -2, 4]
    """
    db, lb = len(b) - 1, b[-1]
    r = list(a)
    q: list[int] = []   # highest power first
    for k in range(len(a) - 1 - db, -1, -1):
        lead = r.pop()
        q = [c * lb for c in q] + [lead]
        r = [c * lb for c in r]
        if lead:
            for i in range(db):
                r[k + i] -= lead * b[i]
    return q[::-1]


def _sturm_chain_int(cs: Sequence[int]) -> list[list[int]]:
    """Sturm chain of an integer polynomial with a nonzero leading
    coefficient: its primitive part, the primitive derivative, then
    each member the primitive negated remainder of the two before it.

    One loop step per member folds the exact pseudo-remainder, its
    content and the Sturm sign together.  The pseudo-remainder of a by
    b is lc(b)^(deg a - deg b + 1) times the rational remainder, so
    dividing it by its content, with the sign of
    -lc(b)^(deg a - deg b + 1), leaves a positive multiple of the
    negated remainder.  When the degree drops by one, the generic step,
    the pseudo-quotient q1*x + q0 has a closed form and the remainder
    is one pass over the coefficients; a larger drop runs
    ``_int_pseudo_rem``.

    >>> _sturm_chain_int([-2, 0, 1])
    [[-2, 0, 1], [0, 1], [1]]
    """
    g = _igcd(*cs)
    a = [c // g for c in cs] if g != 1 else list(cs)
    b = [i * c for i, c in enumerate(a)][1:]
    if not b:
        return [a]
    g = _igcd(*b)
    b = [c // g for c in b] if g != 1 else b
    chain = [a, b]
    while len(b) > 1:
        db, lb = len(b) - 1, b[-1]
        if len(a) == db + 2:
            # lb^2 * a = (q1*x + q0) * b + r; lb^2 > 0
            q1 = lb * a[-1]
            q0 = lb * a[-2] - a[-1] * b[-2]
            l2 = lb * lb
            r = [l2 * a[0] - q0 * b[0]]
            r += [l2 * ai - q1 * bp - q0 * bi
                  for ai, bp, bi in zip(a[1:db], b, b[1:])]
            _int_trim(r)
            negate = True
        else:
            r = _int_pseudo_rem(a, b)
            # negate when the multiplier lb^(len(a) - db) is positive
            negate = lb > 0 or (len(a) - db) % 2 == 0
        if not r:
            break
        g = _igcd(*r)
        a, b = b, [c // -g for c in r] if negate else [c // g for c in r]
        chain.append(b)
    return chain


def _int_sign_hom(cs: Sequence[int], num: int, den: int) -> int:
    """Sign of cs at num / den (den > 0), by the homogeneous Horner sum
    den^deg * cs(num / den) in integers."""
    acc = 0
    dp = 1
    for c in reversed(cs):
        acc = acc * num + c * dp
        dp *= den
    return _sign(acc)


def _int_sign_at(cs: Sequence[int], x: Fraction) -> int:
    return _int_sign_hom(cs, x.numerator, x.denominator)


def _int_sign_at_inf(cs: Sequence[int], positive: bool) -> int:
    s = _sign(cs[-1])
    if not positive and (len(cs) - 1) % 2 == 1:
        s = -s
    return s


def _variations(signs: Iterable[int]) -> int:
    v, prev = 0, 0
    for s in signs:
        if s == 0:
            continue
        if prev != 0 and s != prev:
            v += 1
        prev = s
    return v


def _chain_variations(chain: Sequence[Sequence[int]], x) -> int:
    if x is None:
        raise ValueError("use _chain_variations_inf")
    n, d = x.numerator, x.denominator
    return _variations(_int_sign_hom(p, n, d) for p in chain)


def _chain_variations_inf(chain: Sequence[Sequence[int]], positive: bool) -> int:
    return _variations(_int_sign_at_inf(p, positive) for p in chain)


def _int_gcd_poly(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Primitive gcd with positive leading coefficient.

    A gcd is fixed only up to sign until the end, so the remainders are
    the plain pseudo-remainders, each made primitive.

    >>> _int_gcd_poly([-1, 0, 1], [2, 2])       # x^2 - 1 and 2x + 2
    [1, 1]
    """
    a, b = _int_trim(list(a)), _int_trim(list(b))
    if len(a) < len(b):
        a, b = b, a
    a, b = _int_primitive(a), _int_primitive(b)
    while b:
        a, b = b, _int_primitive(_int_pseudo_rem(a, b))
    return [-c for c in a] if a and a[-1] < 0 else a


def _int_resultant(a: Sequence[int], b: Sequence[int]) -> int:
    """Resultant of integer polynomials by the subresultant PRS.

    Collins' subresultant algorithm (Brown & Traub 1971; Cohen, A Course
    in Computational Algebraic Number Theory, Alg. 3.3.7): contents are
    split off first, then each exact pseudo-remainder is divided by
    g * h^delta, which keeps every remainder a subresultant, so the
    coefficients grow linearly and every division is exact.  The sign
    follows Res(a, b) = (-1)^(deg a * deg b) Res(b, a).
    """
    m, n = len(a) - 1, len(b) - 1
    if m < 0 or n < 0:
        raise ZeroPolynomial("resultant with zero polynomial")
    if m == 0:
        return a[0] ** n
    if n == 0:
        return b[0] ** m
    sign = 1
    if m < n:
        a, b, m, n = b, a, n, m
        if m % 2 and n % 2:
            sign = -1
    ca, cb = _int_content(a), _int_content(b)
    scale = ca ** n * cb ** m
    a = [c // ca for c in a]
    b = [c // cb for c in b]
    g = h = 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 and db % 2:
            sign = -sign
        r = _int_pseudo_rem(a, b)
        if not r:
            return 0
        div = g * h ** delta
        a, b = b, [c // div for c in r]
        g = a[-1]
        h = g ** delta // h ** (delta - 1) if delta else h
        if len(b) == 1:
            dega = len(a) - 1
            return sign * scale * b[0] ** dega // h ** (dega - 1)


# ---------------------------------------------------------------------------
# public univariate root machinery


@dataclass(frozen=True)
class RootSignature:
    neg: int
    pos: int
    zero_is_root: bool
    is_squarefree: bool


def _int_divide_exact(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Quotient a / b of integer polynomials, b dividing a in Q[x].

    By Gauss's lemma the quotient is integral when b is primitive, so
    every step is an exact integer division.
    """
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c, r = divmod(a[k + db], lb)
        if r:
            raise ValueError("inexact polynomial division")
        q[k] = c
        if c:
            for i in range(db + 1):
                a[k + i] -= c * b[i]
    if any(a[:db]):
        raise ValueError("inexact polynomial division")
    return q


def _chain_squarefree(chain: Sequence[Sequence[int]]) -> Sequence[int]:
    """Squarefree part of a Sturm chain's first member: chain[0] divided
    by its last member, which is gcd(chain[0], chain[0]') up to a constant."""
    g = chain[-1]
    return chain[0] if len(g) == 1 else _int_divide_exact(chain[0], g)


def _deflate_root(cs: list[int], r: Fraction) -> list[int]:
    """Divide out (den*x - num) to its full multiplicity; r must be a root."""
    lin = [-r.numerator, r.denominator]
    while _int_sign_at(cs, r) == 0:
        cs = _int_divide_exact(cs, lin)
    return cs


def _int_taylor_shift(cs: Sequence[int], s: int) -> list[int]:
    """Coefficients of p(x + s), by repeated synthetic division."""
    a = list(cs)
    n = len(a) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            a[j] += s * a[j + 1]
    return a


def _cauchy_bound(cs: Sequence[int]) -> Fraction:
    lead = abs(cs[-1])
    m = max(abs(c) for c in cs[:-1]) if len(cs) > 1 else 0
    return Fraction(m, lead) + 1


def _unit_transform(cs: Sequence[int], lo: Fraction, hi: Fraction
                    ) -> list[int]:
    """A positive multiple of p(lo + (hi - lo)*y), which maps [0, 1]
    onto [lo, hi], in integers: (ld*sd)^n times it, for n = len(cs) - 1,
    ld the denominator of lo and sd that of ld*(hi - lo)."""
    n = len(cs) - 1
    ln, ld = lo.numerator, lo.denominator
    # ld^n p(lo + u/ld), then u = ld*(hi - lo)*y
    a = [c * ld ** (n - i) for i, c in enumerate(cs)] if ld != 1 else list(cs)
    if ln:
        a = _int_taylor_shift(a, ln)
    s = ld * (hi - lo)
    sn, sd = s.numerator, s.denominator
    if s != 1:
        a = [c * sn ** i * sd ** (n - i) for i, c in enumerate(a)]
    return a


def _descartes_bound(q: Sequence[int]) -> int:
    """Sign variations of the Moebius transform (1+x)^n q(1/(1+x)).

    It maps the positive half-line onto (0, 1), so the count bounds the
    roots of q in (0, 1), counted with multiplicity, and has their
    parity: 0 proves none and 1 proves exactly one, a simple root.  The
    transform is the reversed q shifted by one.

    >>> _descartes_bound([-1, 0, 4]), _descartes_bound([3, -16, 16])
    (1, 2)
    """
    return _variations(_sign(c) for c in _int_taylor_shift(q[::-1], 1))


def _real_rooted_above(cs: Sequence[int], num: int, den: int) -> int:
    """Roots above x = num / den (den > 0) of an integer polynomial
    whose roots are all real.

    They are the positive roots of den^n * p(x + y/den), whose
    coefficients are those of p's homogenised coefficients
    den^(n-i) * c_i Taylor-shifted by num, all in integers.  For a
    polynomial with only real roots Descartes' rule of signs is exact:
    the sign variations count them, with multiplicity, and a root at x
    itself is not counted.  So no bisection runs.

    >>> _real_rooted_above([-6, 11, -6, 1], 3, 2)   # 1, 2, 3 above 3/2
    2
    """
    n = len(cs) - 1
    a = [c * den ** (n - i) for i, c in enumerate(cs)] if den != 1 else cs
    return _variations(_sign(c) for c in _int_taylor_shift(a, num))


# Deepest level, counted from the window, that Descartes bisection on p
# itself may reach before it restarts on p's squarefree part.  On the
# segments of perfbench/path_corpus.json the deepest tree has 15 levels
# and 392 of 498 settle at the root node, so the bound trades time only:
# a repeated root strictly inside costs at most this many levels.
_VCA_DEPTH = 32


def _vca(q: list[int], max_depth: int | None = None
         ) -> list[tuple[int, int, bool]] | None:
    """Isolate the roots of q in (0, 1) by Descartes bisection.

    The node (c, k) is the interval (c/2^k, (c+1)/2^k), mapped onto
    (0, 1).  Returns, left to right, (c, k, False) for a node that holds
    exactly one root and (c, k, True) for a root hit exactly at c/2^k
    (Collins & Akritas 1976; Rouillier & Zimmermann 2004).

    The leaves are exact whatever q's factorisation: a node whose
    Descartes bound is 0 holds no root, one whose bound is 1 holds
    exactly one root, a simple one, and a hit is exact.  A squarefree q
    buys termination only: a repeated root strictly inside a node keeps
    the bound at 2 or more on every node around it.  So a node at depth
    ``max_depth`` whose bound is still 2 or more makes the call return
    None; with no max_depth, q must be squarefree.  The tree is walked
    from an explicit stack, so its depth is not limited by Python's
    recursion limit.
    """
    out: list[tuple[int, int, bool]] = []
    # (node polynomial, c, k); None in place of the polynomial marks a
    # root hit at c/2^k, emitted between the two halves it separates
    todo: list[tuple[list[int] | None, int, int]] = [(q, 0, 0)]
    while todo:
        q, c, k = todo.pop()
        if q is None:
            out.append((c, k, True))
            continue
        v = _descartes_bound(q)
        if v == 1:
            out.append((c, k, False))
        elif v > 1:
            if k == max_depth:
                return None
            n = len(q) - 1
            left = [x << (n - i) for i, x in enumerate(q)]     # 2^n q(y/2)
            right = _int_taylor_shift(left, 1)                 # 2^n q((y+1)/2)
            if right[0] == 0:
                # q(1/2) = 0: divide the root out of both halves once; a
                # repeated one left on their shared end is outside both
                # open intervals, so no bound counts it
                todo.append((right[1:], 2 * c + 1, k + 1))
                todo.append((None, 2 * c + 1, k + 1))
                left = _int_divide_exact(left, [-1, 1])
            else:
                todo.append((right, 2 * c + 1, k + 1))
            todo.append((left, 2 * c, k + 1))
    return out


def _bounded_roots(cs: Sequence[int], interval: Interval):
    """The distinct roots of p in an interval with a finite end, for
    p's integer coefficient list cs, of degree at least 1.

    Returns (sf, lo, hi, head, leaves, tail).  head and tail hold a
    point for a root on the closed lower and upper end; leaves are the
    ``_vca`` leaves of the open (lo, hi), in unit coordinates, and sf
    is the polynomial they isolate, p with its end roots divided out or
    that polynomial's squarefree part: a leaf interval holds exactly one
    root of p, a simple root of sf, and sf has no other root there.

    An infinite end is replaced by the Cauchy bound, and roots on the
    ends are divided out.  Descartes bisection then runs from the
    window on p itself, down to ``_VCA_DEPTH`` levels: a tree that
    settles is exact whatever p's factorisation, so no squarefree proof
    comes first.  Only when a branch passes that depth does it restart,
    unbounded, on the squarefree part chain[0] / chain[-1] of p's own
    Sturm chain.
    """
    lo, hi = interval.lo, interval.hi
    head: list[Interval] = []
    tail: list[Interval] = []
    if interval.is_point():
        if _int_sign_at(cs, lo) == 0:
            head.append(interval)
        return cs, lo, hi, head, [], tail
    if lo is None or hi is None:
        # every root lies strictly inside the Cauchy bound
        bound = _cauchy_bound(cs)
        lo = -bound if lo is None else lo
        hi = bound if hi is None else hi
        if lo >= hi:
            return cs, lo, hi, head, [], tail
    if _int_sign_at(cs, lo) == 0:
        if not interval.lo_open:
            head.append(Interval.point(lo))
        cs = _deflate_root(cs, lo)
    if _int_sign_at(cs, hi) == 0:
        if not interval.hi_open:
            tail.append(Interval.point(hi))
        cs = _deflate_root(cs, hi)
    leaves = _vca(_unit_transform(cs, lo, hi), _VCA_DEPTH)
    if leaves is None:
        # cs has no root on either end, and neither has its squarefree part
        cs = _chain_squarefree(_sturm_chain_int(cs))
        leaves = _vca(_unit_transform(cs, lo, hi))
    return cs, lo, hi, head, leaves, tail


def sturm_count(p: UniPoly, interval: Interval) -> int:
    """Number of distinct real roots of p in the interval.

    Endpoint openness is honoured exactly.  Multiple roots count once.
    On the whole real line p's own Sturm chain decides: it ends in
    gcd(p, p'), and at the non-roots -oo and +oo its variations count
    distinct roots.  On an interval with a finite end the count is
    that of ``_bounded_roots``: a root on a closed end counts, and
    Descartes bisection on p from the interval counts the rest, with no
    Sturm chain unless a branch passes its depth bound; no isolating
    interval is formed.

    >>> p = UniPoly("x", [0, -2, 5, -4, 1])   # x*(x - 1)^2*(x - 2)
    >>> sturm_count(p, Interval.closed(0, 2))
    3
    >>> sturm_count(p, Interval.open(0, 2))
    1
    >>> sturm_count(p, Interval.real_line())
    3
    >>> sturm_count(p, Interval.closed(Fraction(1, 4), Fraction(3, 4)))
    0
    """
    if p.is_zero():
        raise ZeroPolynomial("root counting on the zero polynomial")
    return _int_sturm_count(p._int_coeffs()[0], interval)


def _int_sturm_count(cs: Sequence[int], interval: Interval) -> int:
    """``sturm_count`` of a nonzero integer coefficient list.

    >>> _int_sturm_count([0, -1, 1], Interval.closed(0, 1))
    2
    """
    if len(cs) < 2:
        return 0
    if interval.lo is None and interval.hi is None:
        chain = _sturm_chain_int(cs)
        return (_chain_variations_inf(chain, False)
                - _chain_variations_inf(chain, True))
    _, _, _, head, leaves, tail = _bounded_roots(cs, interval)
    return len(head) + len(leaves) + len(tail)


def root_signature(p: UniPoly) -> RootSignature:
    """Distinct real root counts split by sign, plus squarefreeness.

    One Sturm chain answers all of it (``_int_root_signature``).

    >>> p = UniPoly("x", [0, 0, -6, -1, 1])   # x^2*(x + 2)*(x - 3)
    >>> root_signature(p)
    RootSignature(neg=1, pos=1, zero_is_root=True, is_squarefree=False)
    """
    if p.is_zero():
        raise ZeroPolynomial("signature of the zero polynomial")
    return _int_root_signature(p._int_coeffs()[0])


def _int_root_signature(cs: Sequence[int]) -> RootSignature:
    """``root_signature`` of a nonzero integer coefficient list.

    A root at 0 is divided out to its full multiplicity first, so -oo, 0
    and +oo are non-roots of the chained polynomial q and the variation
    differences count its distinct negative and positive roots; at 0
    each member's sign is that of its constant term, and at +-oo that
    of its lead times the parity of its degree, so one pass over the
    chain reads all three.  The chain ends in gcd(q, q'), a constant
    exactly when q is squarefree.

    >>> _int_root_signature([-6, -1, 1])
    RootSignature(neg=1, pos=1, zero_is_root=False, is_squarefree=True)
    """
    k = 0
    while cs[k] == 0:
        k += 1
    chain = _sturm_chain_int(cs[k:])
    # only the constant terms can be 0, and chain[0]'s is not
    q = chain[0]
    pos = 1 if q[-1] > 0 else -1
    neg = pos if len(q) % 2 else -pos
    zero = 1 if q[0] > 0 else -1
    v_neg = v0 = v_pos = 0
    for q in chain[1:]:
        s = 1 if q[-1] > 0 else -1
        if s != pos:
            v_pos += 1
            pos = s
        if len(q) % 2 == 0:
            s = -s
        if s != neg:
            v_neg += 1
            neg = s
        if q[0]:
            s = 1 if q[0] > 0 else -1
            if s != zero:
                v0 += 1
                zero = s
    return RootSignature(
        neg=v_neg - v0,
        pos=v0 - v_pos,
        zero_is_root=k > 0,
        is_squarefree=k <= 1 and len(chain[-1]) == 1,
    )


def _bisect_one(sf: Sequence[int], lo: Fraction, hi: Fraction,
                max_width: Fraction) -> Interval:
    """Bisect (lo, hi), on which sf changes sign, down to ``max_width``
    on the sign of sf alone.

    lo must not be a root of sf.  One evaluation per midpoint keeps the
    upper half when sf(mid) has the sign of sf(lo) and the lower half
    otherwise, so the sign change stays inside; a midpoint that is a
    root comes back as a point.  When (lo, hi) holds one root of sf,
    the result isolates it.

    The ends are kept as integer numerators a < b over one common
    denominator D.  Each halving doubles D, so the midpoint is a + b
    over the doubled D, and its sign is one homogeneous integer Horner
    pass (Rouillier & Zimmermann 2004).  The midpoints are those of
    rational bisection, and a Fraction is formed only for the result.
    """
    dlo, dhi = lo.denominator, hi.denominator
    D = dlo * dhi // _igcd(dlo, dhi)
    a, b = lo.numerator * (D // dlo), hi.numerator * (D // dhi)
    wn, wd = max_width.numerator, max_width.denominator
    if (b - a) * wd <= wn * D:
        # most subtrees of a coarse isolation end here: spare sf(lo)
        return Interval.open(lo, hi)
    slo = _int_sign_hom(sf, a, D)
    while (b - a) * wd > wn * D:
        m = a + b
        D <<= 1
        sm = _int_sign_hom(sf, m, D)
        if sm == 0:
            return Interval.point(Fraction(m, D))
        if sm == slo:
            a, b = m, b << 1
        else:
            a, b = a << 1, m
    return Interval.open(Fraction(a, D), Fraction(b, D))


def isolate_real_roots(p: UniPoly, max_width: RationalLike = Fraction(1, 16),
                       interval: Interval = Interval.real_line()
                       ) -> list[Interval]:
    """Disjoint isolating intervals for the distinct real roots of p in
    the interval.

    Intervals are sorted ascending, each of width at most ``max_width``
    and containing exactly one root of p, certified by a sign change of
    the squarefree part.  A rational root found exactly, or on a closed
    end of the interval, is reported as a point interval.

    On the whole real line, p's own Sturm chain splits from the Cauchy
    bound of the squarefree part until a subtree holds one root.  On an
    interval with a finite end, Descartes bisection on p starts from the
    interval itself (``_bounded_roots``), so every returned interval
    lies inside it and its midpoints are those of the interval: on
    [0, 1] every end is dyadic.  A squarefree part is formed there only
    when a branch passes the bisection's depth bound.  Either way a
    subtree with one root is then bisected on the sign alone of the
    polynomial that isolated it, which has no other root there.

    >>> [iv.text() for iv in isolate_real_roots(UniPoly("x", [-2, 0, 1]), 1)]
    ['(-3/2, -3/4)', '(3/4, 3/2)']
    >>> isolate_real_roots(UniPoly("x", [-2, 0, 1]), 1, Interval.closed(0, 1))
    []
    >>> [iv.text() for iv in isolate_real_roots(
    ...     UniPoly("x", [-2, 0, 1]), Fraction(1, 8), Interval.closed(0, 2))]
    ['(11/8, 3/2)']
    >>> isolate_real_roots(UniPoly("x", [0, 0, 1]))[0].text()
    '[0, 0]'
    """
    max_width = _frac(max_width)
    if max_width <= 0:
        raise ValueError("max_width must be positive")
    if p.is_zero():
        raise ZeroPolynomial("isolating roots of the zero polynomial")
    if p.degree() < 1:
        return []
    if interval.lo is not None or interval.hi is not None:
        sf, lo, hi, roots, leaves, tail = _bounded_roots(p._int_coeffs()[0],
                                                         interval)
        w = hi - lo
        for c, k, hit in leaves:
            a = lo + w * Fraction(c, 1 << k)
            if hit:
                # a leaf may end at this root: sf must not vanish there
                sf = _deflate_root(sf, a)
                roots.append(Interval.point(a))
            else:
                roots.append(
                    Interval.open(a, lo + w * Fraction(c + 1, 1 << k)))
        return [iv if iv.is_point() else _bisect_one(sf, iv.lo, iv.hi, max_width)
                for iv in roots + tail]
    return _isolate_line(p._int_coeffs()[0], max_width)


def _isolate_line(cs: Sequence[int], max_width: RationalLike
                  ) -> list[Interval]:
    """``isolate_real_roots`` on the whole real line, for an integer
    coefficient list of degree at least 1.

    The split tree is walked from an explicit stack, left half first,
    so its depth is not limited by Python's recursion limit."""
    out: list[Interval] = []
    chain = _sturm_chain_int(cs)
    sf = _chain_squarefree(chain)
    bound = _cauchy_bound(sf)
    # the Cauchy bound is strict, so -bound and bound are never roots
    todo = [(chain, sf, -bound, bound, _chain_variations(chain, -bound),
             _chain_variations(chain, bound))]
    while todo:
        # lo and hi are non-roots of chain[0], with chain variations vlo,
        # vhi; sf is the squarefree part of chain[0]
        chain, sf, lo, hi, vlo, vhi = todo.pop()
        n = vlo - vhi
        if n == 1:
            out.append(_bisect_one(sf, lo, hi, max_width))
        elif n > 1:
            mid = (lo + hi) / 2
            if _int_sign_at(sf, mid) == 0:
                # rational root hit exactly: emit it, deflate, and go on
                # with a fresh chain so the endpoint invariant is restored
                out.append(Interval.point(mid))
                cs = _deflate_root(chain[0], mid)
                if len(cs) <= 1:
                    continue
                chain = _sturm_chain_int(cs)
                sf = _chain_squarefree(chain)
                vlo = _chain_variations(chain, lo)
                vhi = _chain_variations(chain, hi)
            vmid = _chain_variations(chain, mid)
            todo.append((chain, sf, mid, hi, vmid, vhi))
            todo.append((chain, sf, lo, mid, vlo, vmid))
    out.sort(key=lambda iv: (iv.lo, iv.hi))
    return out


def refine_root(p: UniPoly, iv: Interval, max_width: RationalLike) -> Interval:
    """Shrink an isolating interval by bisection to the requested width.

    The bisection reads the sign of p's squarefree part alone, taken
    from p's own Sturm chain; a midpoint that is the root comes back as
    a point interval, as does a point iv.  A root on an open end (one
    ``isolate_real_roots`` leaves beside a root it hits) is divided out
    first.  ValueError unless max_width > 0, both ends are finite and
    the squarefree part then has nonzero values of opposite sign there.

    >>> refine_root(UniPoly("x", [-1, 0, 4]), Interval.open(0, 1),
    ...             Fraction(1, 1024)).text()
    '[1/2, 1/2]'
    """
    max_width = _frac(max_width)
    if max_width <= 0 or iv.lo is None or iv.hi is None:
        raise ValueError("refine_root needs max_width > 0 and finite ends")
    if iv.is_point():
        return iv
    if p.is_zero():
        raise ZeroPolynomial("squarefree part of the zero polynomial")
    sf = _chain_squarefree(_sturm_chain_int(p._cs))
    for end, is_open in ((iv.lo, iv.lo_open), (iv.hi, iv.hi_open)):
        if is_open and _int_sign_at(sf, end) == 0:
            sf = _deflate_root(sf, end)
    if _int_sign_at(sf, iv.lo) * _int_sign_at(sf, iv.hi) >= 0:
        raise ValueError("no sign change of the squarefree part at the ends")
    return _bisect_one(sf, iv.lo, iv.hi, max_width)


def discriminant(p: UniPoly) -> Fraction:
    """disc(p) = (-1)^(n(n-1)/2) Res(p, p') / lc(p)."""
    n = p.degree()
    if n < 1:
        raise DegreeZero("discriminant needs degree >= 1")
    if n == 1:
        return Fraction(1)
    # p = cs/den: Res(p, p') = Res(cs, cs')/den^(2n-1), and lc(p) = cs[n]/den
    cs, den = p._cs, p._den
    s = -1 if (n * (n - 1) // 2) % 2 else 1
    return Fraction(s * _int_resultant(cs, _int_derivative(cs)),
                    den ** (2 * n - 2) * cs[-1])


def gcd_uni(f: UniPoly, g: UniPoly) -> UniPoly:
    """Primitive gcd with positive leading coefficient."""
    if f.is_zero() and g.is_zero():
        raise ZeroPolynomial("gcd of two zero polynomials")
    var = f.var if not f.is_zero() else g.var
    return UniPoly(var, _int_gcd_poly(f._cs, g._cs))


# ---------------------------------------------------------------------------
# multivariate polynomials


def _terms_text(terms: Sequence[tuple[tuple[int, ...], int, int]],
                names: tuple[str, ...]) -> str:
    """Canonical text of nonzero terms (exponents, num, den), den > 0,
    by descending exponent tuple.  Each coefficient num/den is reduced
    by one gcd and written as str() writes that Fraction."""
    if not terms:
        return "0"
    parts: list[str] = []
    for expo, num, den in sorted(terms, key=lambda t: t[0], reverse=True):
        mono = "*".join(
            n if e == 1 else f"{n}^{e}"
            for n, e in zip(names, expo) if e != 0
        )
        g = _igcd(num, den)
        num, den = num // g, den // g
        mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        if not mono:
            body = mag
        elif mag == "1":
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not parts:
            parts.append(body if num > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if num > 0 else '-'} {body}")
    return " ".join(parts)


class MultiPoly:
    """Sparse multivariate polynomial over an ordered variable tuple.

    Terms map exponent tuples (one entry per variable, matching the
    declared order) to nonzero rational coefficients.

    >>> x, y = MultiPoly.variables(("x", "y"))
    >>> p = x * x - y
    >>> p.eval((3, 2))
    Fraction(7, 1)
    >>> p.text()
    'x^2 - y'
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str],
                 terms: Mapping[tuple[int, ...], RationalLike]):
        vs = tuple(variables)
        tm: dict[tuple[int, ...], Fraction] = {}
        for e, c in terms.items():
            e = tuple(int(k) for k in e)
            if len(e) != len(vs):
                raise ArityMismatch(
                    f"exponent tuple {e} does not match variables {vs}")
            c = _frac(c)
            if c != 0:
                tm[e] = tm.get(e, Fraction(0)) + c
                if tm[e] == 0:
                    del tm[e]
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "terms", dict(tm))

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("MultiPoly is immutable")

    def __reduce__(self):
        return MultiPoly, (self.vars, self.terms)

    @staticmethod
    def variables(names: Sequence[str]) -> tuple["MultiPoly", ...]:
        names = tuple(names)
        out = []
        for i in range(len(names)):
            e = tuple(1 if j == i else 0 for j in range(len(names)))
            out.append(MultiPoly(names, {e: 1}))
        return tuple(out)

    @staticmethod
    def constant(names: Sequence[str], c: RationalLike) -> "MultiPoly":
        names = tuple(names)
        return MultiPoly(names, {tuple([0] * len(names)): _frac(c)})

    def is_zero(self) -> bool:
        return not self.terms

    def _check_vars(self, other: "MultiPoly") -> None:
        if self.vars != other.vars:
            raise ArityMismatch(
                f"variable tuples differ: {self.vars} vs {other.vars}")

    def __eq__(self, other) -> bool:
        return (isinstance(other, MultiPoly) and self.vars == other.vars
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.vars, tuple(sorted(self.terms.items()))))

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_vars(other)
        tm = dict(self.terms)
        for e, c in other.terms.items():
            tm[e] = tm.get(e, Fraction(0)) + c
        return MultiPoly(self.vars, tm)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            return MultiPoly(
                self.vars, {e: c * other for e, c in self.terms.items()})
        self._check_vars(other)
        tm: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                tm[e] = tm.get(e, Fraction(0)) + c1 * c2
        return MultiPoly(self.vars, tm)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power")
        out = MultiPoly.constant(self.vars, 1)
        for _ in range(n):
            out = out * self
        return out

    def eval(self, point: Sequence[RationalLike]) -> Fraction:
        if len(point) != len(self.vars):
            raise ArityMismatch(
                f"point of length {len(point)} for {len(self.vars)} variables")
        pt = [_frac(x) for x in point]
        acc = Fraction(0)
        for e, c in self.terms.items():
            t = c
            for x, k in zip(pt, e):
                if k:
                    t *= x ** k
            acc += t
        return acc

    def text(self) -> str:
        """Canonical ASCII sparse term list, sorted by exponent tuple."""
        return _terms_text([(e, c.numerator, c.denominator)
                            for e, c in self.terms.items()], self.vars)

    def __repr__(self) -> str:
        return f"MultiPoly({self.vars!r}, {self.text()!r})"


def restrict_to_segment(F: MultiPoly, start: Sequence[RationalLike],
                        end: Sequence[RationalLike]) -> UniPoly:
    """Restrict F to the segment (1-t)*start + t*end, as a polynomial in t.

    >>> x, y = MultiPoly.variables(("x", "y"))
    >>> restrict_to_segment(x * y, (0, 1), (1, 3)).coeffs
    (Fraction(0, 1), Fraction(1, 1), Fraction(2, 1))
    """
    if len(start) != len(F.vars) or len(end) != len(F.vars):
        raise ArityMismatch("segment endpoints must match the variable count")
    a = [_frac(v) for v in start]
    b = [_frac(v) for v in end]
    lines = [UniPoly("t", [a[i], b[i] - a[i]]) for i in range(len(a))]
    # cache powers of each coordinate line
    pows: list[list[UniPoly]] = [[UniPoly("t", [1])] for _ in lines]
    acc = UniPoly("t", [])
    for e, c in F.terms.items():
        term = UniPoly("t", [c])
        for i, k in enumerate(e):
            while len(pows[i]) <= k:
                pows[i].append(pows[i][-1] * lines[i])
            if k:
                term = term * pows[i][k]
        acc = acc + term
    return acc


def parse_rational(s: str) -> Fraction:
    """Parse 'num' or 'num/den' with optional sign; no floats accepted."""
    s = s.strip()
    try:
        if "/" in s:
            num, den = s.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError(f"not a rational: {s!r}") from e
