"""Multivariate elimination over sparse ``MultiPoly``, for the tests only.

The package never eliminates a variable symbolically: the F4 interior
stratum is built in closed form from the discriminant of a cubic (see
``models.f4_sigma0_eliminant``).  This module keeps the general
machinery as an independent oracle: the fraction-free Sylvester
resultant, the recursive primitive-PRS gcd and the squarefree part, so
that the tests can re-derive the eliminant from the critical-point
system and check the slice identities against it.

Multivariate resultants use fraction-free Bareiss elimination on the
Sylvester matrix after clearing denominators, so every intermediate
division is exact integer (or integer-polynomial) division.  The same
elimination on integer coefficient lists is the reference for the
package's univariate subresultant resultant.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd
from math import lcm as _ilcm

from discatlas.exactpoly import (
    ArityMismatch,
    DegreeZero,
    MultiPoly,
    ZeroPolynomial,
    _int_gcd_poly,
    _int_trim,
)


# ---------------------------------------------------------------------------
# structure helpers


def _var_index(P: MultiPoly, var: str) -> int:
    try:
        return P.vars.index(var)
    except ValueError:
        raise ArityMismatch(f"unknown variable {var!r} in {P.vars}")


def is_constant(P: MultiPoly) -> bool:
    return all(all(e == 0 for e in expo) for expo in P.terms)


def degree_in(P: MultiPoly, var: str) -> int:
    i = _var_index(P, var)
    if not P.terms:
        return -1
    return max(e[i] for e in P.terms)


def derivative(P: MultiPoly, var: str) -> MultiPoly:
    i = _var_index(P, var)
    tm: dict[tuple[int, ...], Fraction] = {}
    for e, c in P.terms.items():
        if e[i] == 0:
            continue
        e2 = list(e)
        e2[i] -= 1
        tm[tuple(e2)] = c * e[i]
    return MultiPoly(P.vars, tm)


def substitute(P: MultiPoly, var: str, replacement: MultiPoly) -> MultiPoly:
    """Substitute a polynomial (over the same variable tuple) for var."""
    if P.vars != replacement.vars:
        raise ArityMismatch(
            f"variable tuples differ: {P.vars} vs {replacement.vars}")
    i = _var_index(P, var)
    powers: dict[int, MultiPoly] = {0: MultiPoly.constant(P.vars, 1)}
    maxe = max((e[i] for e in P.terms), default=0)
    for k in range(1, maxe + 1):
        powers[k] = powers[k - 1] * replacement
    acc = MultiPoly(P.vars, {})
    for e, c in P.terms.items():
        rest = list(e)
        k = rest[i]
        rest[i] = 0
        acc = acc + powers[k] * MultiPoly(P.vars, {tuple(rest): c})
    return acc


def drop_variable(P: MultiPoly, var: str) -> MultiPoly:
    """Remove a variable that no longer occurs."""
    i = _var_index(P, var)
    if any(e[i] != 0 for e in P.terms):
        raise ArityMismatch(f"variable {var!r} still occurs")
    names = P.vars[:i] + P.vars[i + 1:]
    return MultiPoly(names, {e[:i] + e[i + 1:]: c for e, c in P.terms.items()})


def coefficients_in(P: MultiPoly, var: str) -> list[MultiPoly]:
    """Coefficient list in var (constant upward), over the same tuple."""
    i = _var_index(P, var)
    d = degree_in(P, var)
    if d < 0:
        return []
    out = [dict() for _ in range(d + 1)]
    for e, c in P.terms.items():
        e2 = list(e)
        k = e2[i]
        e2[i] = 0
        out[k][tuple(e2)] = c
    return [MultiPoly(P.vars, tm) for tm in out]


def content(P: MultiPoly) -> Fraction:
    """Positive rational content (gcd of coefficients)."""
    if not P.terms:
        raise ZeroPolynomial("content of the zero polynomial")
    num = 0
    den = 1
    for c in P.terms.values():
        num = _igcd(num, abs(c.numerator))
        den = _ilcm(den, c.denominator)
    return Fraction(num, den)


def primitive_part(P: MultiPoly) -> MultiPoly:
    return P * (1 / content(P))


def leading_sign(P: MultiPoly) -> int:
    """Sign of the coefficient of the lexicographically largest term."""
    if not P.terms:
        return 0
    c = P.terms[max(P.terms)]
    return 1 if c > 0 else -1


# ---------------------------------------------------------------------------
# division, gcd, squarefree part, resultant


def _mp_divide_exact(A: MultiPoly, B: MultiPoly) -> MultiPoly:
    """Exact division A / B in the polynomial ring; raises if inexact."""
    if A.vars != B.vars:
        raise ArityMismatch(f"variable tuples differ: {A.vars} vs {B.vars}")
    if B.is_zero():
        raise ZeroPolynomial("division by zero polynomial")
    rem = dict(A.terms)
    out: dict[tuple[int, ...], Fraction] = {}
    b_lead = max(B.terms)
    b_lc = B.terms[b_lead]
    while rem:
        a_lead = max(rem)
        q = tuple(x - y for x, y in zip(a_lead, b_lead))
        if any(k < 0 for k in q):
            raise ValueError("inexact multivariate division")
        f = rem[a_lead] / b_lc
        out[q] = out.get(q, Fraction(0)) + f
        for e, c in B.terms.items():
            e2 = tuple(x + y for x, y in zip(q, e))
            v = rem.get(e2, Fraction(0)) - f * c
            if v == 0:
                rem.pop(e2, None)
            else:
                rem[e2] = v
    return MultiPoly(A.vars, out)


def _specialized_gcd_is_constant(A: MultiPoly, B: MultiPoly,
                                 main: str) -> bool:
    """Certify deg(gcd(A, B)) = 0 in main by one good specialization.

    Substituting small integers for the other variables can only raise
    the gcd degree in main, provided the leading coefficient of A in
    main survives the substitution.  A constant specialized gcd is
    therefore a proof; a nonconstant one proves nothing.
    """
    i = _var_index(A, main)
    others = [j for j in range(len(A.vars)) if j != i]
    lead = coefficients_in(A, main)[degree_in(A, main)]

    def specialize(P: MultiPoly, pt: dict[int, int]) -> list[int]:
        cs: dict[int, Fraction] = {}
        for e, c in P.terms.items():
            v = c
            for j in others:
                v *= Fraction(pt[j]) ** e[j]
            cs[e[i]] = cs.get(e[i], Fraction(0)) + v
        den = _ilcm(*[x.denominator for x in cs.values()]) if cs else 1
        out = [0] * (max(cs, default=-1) + 1)
        for k, v in cs.items():
            out[k] = int(v * den)
        return _int_trim(out)

    for trial in range(8):
        pt = {j: (trial + 1) * (2 + (j * 3) % 5) - trial for j in others}
        if lead.eval(tuple(
                Fraction(pt[j]) if j in pt else Fraction(0)
                for j in range(len(A.vars)))) == 0:
            continue
        ga = specialize(A, pt)
        gb = specialize(B, pt)
        if not ga or not gb:
            continue
        return len(_int_gcd_poly(ga, gb)) == 1
    return False


def gcd_multi(A: MultiPoly, B: MultiPoly) -> MultiPoly:
    """Primitive multivariate gcd by a recursive primitive PRS.

    Normalised so the lexicographically leading coefficient is
    positive.  A specialization certificate short-circuits the common
    coprime case before the remainder sequence is attempted; no
    modular heuristics beyond that.
    """
    if A.vars != B.vars:
        raise ArityMismatch(f"variable tuples differ: {A.vars} vs {B.vars}")
    if A.is_zero() and B.is_zero():
        raise ZeroPolynomial("gcd of two zero polynomials")
    if A.is_zero():
        g = primitive_part(B)
        return g if leading_sign(g) >= 0 else -g
    if B.is_zero():
        g = primitive_part(A)
        return g if leading_sign(g) >= 0 else -g
    if is_constant(A) or is_constant(B):
        return MultiPoly.constant(A.vars, 1)
    # choose the first variable that actually occurs in both
    main = None
    for v in A.vars:
        if degree_in(A, v) > 0 and degree_in(B, v) > 0:
            main = v
            break
    if main is None:
        # no shared variable: gcd is the gcd of contents, i.e. constant
        return MultiPoly.constant(A.vars, 1)
    if _specialized_gcd_is_constant(A, B, main):
        # gcd has degree 0 in main, so it divides both contents
        ca = _content_wrt(A, main)
        cb = _content_wrt(B, main)
        if is_constant(ca) or is_constant(cb):
            return MultiPoly.constant(A.vars, 1)
        return gcd_multi(ca, cb)

    ca, cb = _content_wrt(A, main), _content_wrt(B, main)
    pa = _mp_divide_exact(A, ca)
    pb = _mp_divide_exact(B, cb)
    cont_gcd = gcd_multi(ca, cb)

    # primitive PRS in the main variable
    def deg(P: MultiPoly) -> int:
        return degree_in(P, main)

    if deg(pa) < deg(pb):
        pa, pb = pb, pa
    while not pb.is_zero():
        r = _pseudo_rem_multi(pa, pb, main)
        if r.is_zero():
            pa, pb = pb, r
            break
        rc = _content_wrt(r, main) if deg(r) > 0 else r
        r = _mp_divide_exact(r, rc)
        pa, pb = pb, r
        if deg(pa) == 0:
            pa = MultiPoly.constant(A.vars, 1)
            break
    g = primitive_part(pa) * cont_gcd
    return g if leading_sign(g) >= 0 else -g


def _content_wrt(P: MultiPoly, main: str) -> MultiPoly:
    """gcd of the coefficients of P viewed as a polynomial in main."""
    cs = [c for c in coefficients_in(P, main) if not c.is_zero()]
    g = cs[0]
    for c in cs[1:]:
        g = gcd_multi(g, c)
        if is_constant(g):
            break
    if leading_sign(g) < 0:
        g = -g
    return g


def _pseudo_rem_multi(A: MultiPoly, B: MultiPoly, var: str) -> MultiPoly:
    """Pseudo-remainder of A by B with respect to var."""
    da, db = degree_in(A, var), degree_in(B, var)
    if db < 0:
        raise ZeroPolynomial("pseudo-remainder by zero")
    bl = coefficients_in(B, var)[db]
    i = _var_index(A, var)
    r = A * (bl ** (da - db + 1))
    while not r.is_zero() and degree_in(r, var) >= db:
        dr = degree_in(r, var)
        rl = coefficients_in(r, var)[dr]
        q = _mp_divide_exact(rl, bl)
        shift = MultiPoly(A.vars, {
            tuple(dr - db if j == i else 0
                  for j in range(len(A.vars))): 1})
        r = r - q * shift * B
    return r


def squarefree_part_multi(P: MultiPoly) -> MultiPoly:
    """Squarefree part: P divided by the gcd of P and all its partials."""
    if P.is_zero():
        raise ZeroPolynomial("squarefree part of the zero polynomial")
    if is_constant(P):
        return MultiPoly.constant(P.vars, 1)
    g = P
    for v in P.vars:
        d = derivative(P, v)
        if d.is_zero():
            continue
        g = gcd_multi(g, d)
        if is_constant(g):
            break
    if is_constant(g):
        out = primitive_part(P)
    else:
        out = primitive_part(_mp_divide_exact(P, g))
    return out if leading_sign(out) >= 0 else -out


def resultant(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """Sylvester resultant of f and g eliminating var.

    Both inputs must have positive degree in var.  Computed by
    fraction-free Bareiss elimination over integer-coefficient
    polynomials after clearing denominators, then rescaled to the exact
    resultant of the original inputs.  The result vanishes at a point
    iff the instantiated polynomials share a root or both leading
    coefficients vanish there.
    """
    if f.vars != g.vars:
        raise ArityMismatch(f"variable tuples differ: {f.vars} vs {g.vars}")
    m, n = degree_in(f, var), degree_in(g, var)
    if m < 0 or n < 0:
        raise ZeroPolynomial("resultant with zero polynomial")
    if m == 0 or n == 0:
        raise DegreeZero(f"resultant needs positive degree in {var!r}")
    df = _ilcm(*[c.denominator for c in f.terms.values()])
    dg = _ilcm(*[c.denominator for c in g.terms.values()])
    fc = [drop_variable(c, var) for c in coefficients_in(f * df, var)]
    gc = [drop_variable(c, var) for c in coefficients_in(g * dg, var)]
    size = m + n
    zero = MultiPoly(fc[0].vars, {})
    rows: list[list[MultiPoly]] = []
    fr = list(reversed(fc))
    gr = list(reversed(gc))
    for i in range(n):
        rows.append([zero] * i + fr + [zero] * (size - m - 1 - i))
    for i in range(m):
        rows.append([zero] * i + gr + [zero] * (size - n - 1 - i))
    det = _bareiss_multi(rows)
    det = det * Fraction(1, df ** n * dg ** m)
    # reinstate the eliminated variable slot with exponent zero
    i = _var_index(f, var)
    return MultiPoly(f.vars, {
        e[:i] + (0,) + e[i:]: c for e, c in det.terms.items()})


def _bareiss_multi(m: list[list[MultiPoly]]) -> MultiPoly:
    n = len(m)
    if n == 1:
        return m[0][0]
    vars_ = m[0][0].vars
    sign = 1
    prev = MultiPoly.constant(vars_, 1)
    for k in range(n - 1):
        if m[k][k].is_zero():
            for r in range(k + 1, n):
                if not m[r][k].is_zero():
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return MultiPoly(vars_, {})
        pk = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = pk * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = num if k == 0 else _mp_divide_exact(num, prev)
            m[i][k] = MultiPoly(vars_, {})
        prev = pk
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


# ---------------------------------------------------------------------------
# univariate integer resultants by determinant


def sylvester_matrix_int(a: list[int], b: list[int]) -> list[list[int]]:
    """(m+n) x (m+n) Sylvester matrix of integer coefficient lists.

    Lists run from the constant term upward and have nonzero leading
    entries; deg b rows of a come first, then deg a rows of b.
    """
    m, n = len(a) - 1, len(b) - 1
    size = m + n
    ar, br = list(reversed(a)), list(reversed(b))
    rows = []
    for i in range(n):
        rows.append([0] * i + ar + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + br + [0] * (size - n - 1 - i))
    return rows


def _bareiss_int(m: list[list[int]]) -> int:
    """Determinant by fraction-free Bareiss elimination (m is consumed)."""
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i, row_k = m[i], m[k]
            for j in range(k + 1, n):
                row_i[j] = (pk * row_i[j] - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pk
    return sign * m[n - 1][n - 1]


def sylvester_resultant_int(a: list[int], b: list[int]) -> int:
    """Res(a, b) as the Sylvester determinant; constants by convention."""
    m, n = len(a) - 1, len(b) - 1
    if m == 0:
        return a[0] ** n
    if n == 0:
        return b[0] ** m
    return _bareiss_int(sylvester_matrix_int(a, b))


# ---------------------------------------------------------------------------
# the F4 interior stratum, derived by elimination


def derive_sigma0_eliminant() -> MultiPoly:
    """Delta_0 eliminated from the plus-class critical point system.

    f_x = 0 gives x = -(a + c*y)/2; substituting into f = 0 and
    f_y = 0 leaves two polynomials in y whose resultant, made primitive
    and squarefree with positive leading sign in lex order
    a > b > c > d, is Delta_0.
    """
    names = ("x", "y", "a", "b", "c", "d")
    x, y, a, b, c, d = MultiPoly.variables(names)
    f = x * x + y ** 3 + a * x + b * y + c * x * y + d
    x_sol = (a + c * y) * Fraction(-1, 2)
    e1 = drop_variable(substitute(f, "x", x_sol) * 4, "x")
    e2 = drop_variable(substitute(derivative(f, "y"), "x", x_sol) * 2, "x")
    r = drop_variable(resultant(e1, e2, "y"), "y")
    r = squarefree_part_multi(primitive_part(r))
    return r if leading_sign(r) >= 0 else -r
