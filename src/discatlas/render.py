"""Deterministic SVG figures: zero sets and parameter slices.

Zero sets are drawn from the closed-form branch solutions rather than
generic implicit contouring: the families are solvable for one
variable (B: y = +-sqrt(-h(x)/s); C: x = -h(y)/(sigma*y); F4 the
quadratic formula in x).  Each curve point is a pair of integer
fractions (X/QX, Y/QY).  A C point lies on f = 0.  A B or F4 point is
off it by square-root rounding, the root being dyadic, from integer
isqrt of the reduced radicand; it is kept only if |f| < 10^-6, tested
exactly in integers on f's coefficients, cleared once per figure.
Each pixel coordinate is one int/int true division, which rounds as
float() of the rational position does, and all coordinates are
formatted with fixed precision, making the output byte-deterministic.

B and F4 share one sweep: along one axis t they are the two sheets
of +-sqrt(dom(t)) for a domain polynomial dom (-s*h(x) for B, the
discriminant in x of the quadratic for F4).  Where dom changes sign
between two sweep values the sheets join at a branch end, bisected
45 times on the signs of dom's integer coefficients.

The lower-value set W = {f <= 0} is shaded by exact signs on the
viewport grid, and the boundary line x = 0 is dashed.  A run of nodes
in W is drawn from its grid indices, pixels again one int/int
division each.  Parameter slices contour the two stratum-defining
polynomials with marching squares in two distinct strokes.

Both grids are exact and mostly integer additions.  Along a grid
column each grid value is a polynomial in the row index j: f in y of
degree deg_y f, and a stratum of total degree n in the parameters,
which are affine in the grid indices.  Only the first degree + 1 rows
are computed directly, as integer numerators over one common
denominator: a shading row is f restricted to its ordinate, an
integer polynomial in x read at the nodes by integer Horner passes; a
slice row is the parameter segment from (xmin, y) to (xmax, y), whose
Sigma0 and Sigma1 come from ``models.segment_strata`` (the same
segment math as the path certificates).  Every later row is a sum of
integer differences down each column (``_extend_rows``).
"""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .models import (
    Parameter,
    SingularityClass,
    _strata_degrees,
    boundary_polynomial,
    deformation_polynomial,
    segment_strata,
)
from .exactpoly import (
    UniPoly,
    _bisect_one,
    _int_grid_numerators,
    _int_sign_at,
    _unit_transform,
)

RESIDUAL_BOUND = Fraction(1, 10 ** 6)
_SQRT_BITS = 40
# a curve point (X/QX, Y/QY) as the integers (X, QX, Y, QY), QX, QY > 0
Point = tuple[int, int, int, int]


class EmptyViewport(ValueError):
    """Raised for degenerate axis ranges."""


class BadAxes(ValueError):
    """Raised when a slice request does not leave exactly two axes free."""


@dataclass(frozen=True)
class Viewport:
    xmin: Fraction
    xmax: Fraction
    ymin: Fraction
    ymax: Fraction
    width: int = 480
    height: int = 480
    samples: int = 129

    def __post_init__(self):
        for f in ("xmin", "xmax", "ymin", "ymax"):
            object.__setattr__(self, f, Fraction(getattr(self, f)))
        if self.xmin >= self.xmax or self.ymin >= self.ymax:
            raise EmptyViewport("axis ranges must be nonempty")
        if self.samples < 16:
            raise ValueError("need at least 16 samples per axis")
        if self.width < 32 or self.height < 32:
            raise ValueError("pixel dimensions too small")

    def xs(self) -> list[Fraction]:
        n = self.samples
        return [self.xmin + (self.xmax - self.xmin) * Fraction(i, n - 1)
                for i in range(n)]

    def ys(self, count: int | None = None) -> list[Fraction]:
        """The grid ordinates, or only the first count of them."""
        n = self.samples
        return [self.ymin + (self.ymax - self.ymin) * Fraction(j, n - 1)
                for j in range(n if count is None else min(count, n))]

    def to_px(self, x, y) -> tuple[float, float]:
        fx = (x - self.xmin) / (self.xmax - self.xmin)
        fy = (self.ymax - y) / (self.ymax - self.ymin)
        return (float(fx) * self.width, float(fy) * self.height)


# parameter slices default to this box in both swept parameters
SLICE_VIEWPORT = Viewport(-3, 3, -3, 3)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _sqrt_pair(n: int, d: int, bits: int = _SQRT_BITS) -> tuple[int, int]:
    """Integers (s, q) with s/q = dyadic_sqrt(n/d), for n >= 0 < d; n/d
    is reduced first, as the floor root of an unreduced n*d can differ."""
    g = math.gcd(n, d)
    n, d = n // g, d // g
    # sqrt(n/d) = sqrt(n*d)/d; scale so the integer sqrt carries the bits
    return math.isqrt(n * d << (2 * bits)), d << bits


def dyadic_sqrt(v: Fraction, bits: int = _SQRT_BITS) -> Fraction:
    """Floor square root of v >= 0 as a dyadic rational, error < 2^-bits."""
    if v < 0:
        raise ValueError("negative radicand")
    return Fraction(*_sqrt_pair(v.numerator, v.denominator, bits))


def _residual_test(F):
    """The test |f(X/QX, Y/QY)| < RESIDUAL_BOUND = p/q (QX, QY > 0) for
    the deformation polynomial F of f, exact in integers: with F's terms
    cleared once to c_ij over den, and dx, dy its degrees, a point passes
    iff q*|sum c_ij X^i QX^(dx-i) Y^j QY^(dy-j)| < p*den*QX^dx*QY^dy."""
    den = math.lcm(*(c.denominator for c in F.terms.values()))
    terms = [(i, j, c.numerator * (den // c.denominator))
             for (i, j), c in F.terms.items()]
    dx, dy = (max(e[k] for e in F.terms) for k in (0, 1))
    p, q = RESIDUAL_BOUND.numerator * den, RESIDUAL_BOUND.denominator

    def ok(X: int, QX: int, Y: int, QY: int) -> bool:
        xs = [X ** i * QX ** (dx - i) for i in range(dx + 1)]
        ys = [Y ** j * QY ** (dy - j) for j in range(dy + 1)]
        return (q * abs(sum(c * xs[i] * ys[j] for i, j, c in terms))
                < p * xs[0] * ys[0])

    return ok


def _node_pairs(lo: Fraction, hi: Fraction, m: int) -> tuple[int, int, int]:
    """Integers (a, b, den), den > 0, with lo + (hi - lo)*i/m equal to
    (a + b*i)/den at every i."""
    w = hi - lo
    return (lo.numerator * w.denominator * m, w.numerator * lo.denominator,
            lo.denominator * w.denominator * m)


def _grid_values(cs: list[int], lo: Fraction, hi: Fraction, m: int
                 ) -> tuple[list[int], int]:
    """Integers N_i and K > 0 with cs(lo + (hi - lo)*i/m) = N_i / K at
    i = 0..m: ``_unit_transform`` read at the nodes u = i/m, with K =
    (ld*sd*m)^deg as that transform documents."""
    ld = lo.denominator
    k = (ld * (ld * (hi - lo)).denominator * m) ** max(len(cs) - 1, 0)
    return _int_grid_numerators(_unit_transform(cs, lo, hi), m), k


def _branch_end(cs: list[int], lo: Fraction, hi: Fraction
                ) -> Fraction | None:
    """Where the integer polynomial cs changes sign on [lo, hi].

    A root at an end comes back as it is, equal end signs give None,
    and otherwise 45 halvings of (lo, hi) end at their midpoint.
    """
    slo, shi = _int_sign_at(cs, lo), _int_sign_at(cs, hi)
    if slo == 0:
        return lo
    if shi == 0:
        return hi
    if slo == shi:
        return None
    return _bisect_one(cs, lo, hi, (hi - lo) / 2 ** 45).midpoint()


def _two_sheets(F, dom: UniPoly, lo: Fraction, hi: Fraction, m: int,
                sheet, emit) -> None:
    """Emit the two sheets sheet(t, +-sqrt(dom(t))) of a zero set, for
    t swept over lo + (hi - lo)*i/m, i = 0..m.

    A run of sweep values t with dom(t) >= 0 gives one polyline per
    sheet; where dom changes sign between two sweep values, both
    sheets end at the join point sheet(e, 0), e the branch end.  Only
    points with |f| < 10^-6 are kept.  All of it is in integers: node i
    is t = (a + b*i)/den, dom(t) is v_i/K, its root the pair of
    ``_sqrt_pair``, and sheet(t, qt, r, qr) maps t/qt, r/qr to a point.
    """
    cs, cden = dom._int_coeffs()
    vals, k = _grid_values(cs, lo, hi, m)
    a, b, den = _node_pairs(lo, hi, m)
    ok = _residual_test(F)
    plus: list[Point] = []
    minus: list[Point] = []

    def join(i: int):
        # the branch end between nodes i - 1 and i
        e = _branch_end(cs, Fraction(a + b * (i - 1), den),
                        Fraction(a + b * i, den))
        if e is not None:
            pt = sheet(e.numerator, e.denominator, 0, 1)
            if ok(*pt):
                plus.append(pt)
                minus.append(pt)

    for i, v in enumerate(vals):
        if v >= 0:
            if not plus and i:
                join(i)
            s, r = _sqrt_pair(v, cden * k)
            t = a + b * i
            for line, pt in ((plus, sheet(t, den, s, r)),
                             (minus, sheet(t, den, -s, r))):
                if ok(*pt):
                    line.append(pt)
        else:
            if plus:
                join(i)
            emit(plus)
            emit(minus[::-1])
            plus, minus = [], []
    emit(plus)
    emit(minus[::-1])


def curve_points(sc: SingularityClass, lam, vp: Viewport
                 ) -> list[list[tuple[Fraction, Fraction]]]:
    """Polylines of the zero set, as exact rational plot points.

    Every returned point satisfies |f(x, y)| < 10^-6 exactly: C points
    lie on f = 0, and B and F4 points pass ``_residual_test``.  B and F4
    are two sheets over one swept axis, split where their domain
    polynomial turns negative; at such edges the branch end is bisected
    so curves close up.  The points are Fractions of the sweep's pairs.
    """
    lam = Parameter.coerce(lam)
    return [[(Fraction(X, QX), Fraction(Y, QY)) for X, QX, Y, QY in line]
            for line in _curve_points(sc, lam, vp,
                                      deformation_polynomial(sc, lam))]


def _curve_points(sc: SingularityClass, lam: Parameter, vp: Viewport, F
                  ) -> list[list[Point]]:
    """``curve_points`` of lam, whose deformation polynomial is F, as
    integer Points."""
    polylines: list[list[Point]] = []
    m = vp.samples - 1

    def emit(line: list[Point]):
        if len(line) >= 2:
            polylines.append(line)

    if sc.family == "B":
        h = boundary_polynomial(sc, lam)
        _two_sheets(F, h * -sc.sign, vp.xmin, vp.xmax, m,
                    lambda t, qt, s, r: (t, qt, s, r), emit)

    elif sc.family == "C":
        hc, hden = boundary_polynomial(sc, lam)._int_coeffs()
        sigma = 1 if sc.is_even else sc.sign
        clip = 2 * (vp.xmax - vp.xmin) + abs(vp.xmin) + abs(vp.xmax)
        a, b, den = _node_pairs(vp.ymin, vp.ymax, m)
        vals, k = _grid_values(hc, vp.ymin, vp.ymax, m)
        line: list[Point] = []
        for j, v in enumerate(vals):
            # x = -h(y)/(sigma*y) at y = Y/den, h(y) = v/(hden*k)
            Y = a + b * j
            X, QX = -sigma * v * den, Y * hden * k
            if Y < 0:
                X, QX = -X, -QX
            if Y and abs(X) * clip.denominator <= clip.numerator * QX:
                line.append((X, QX, Y, den))
            else:
                emit(line)
                line = []
        emit(line)

    else:
        a, b, c, d = lam
        s = sc.sign
        # (a + c*y)^2 - 4*s*(y^3 + b*y + d), the discriminant in x
        dom = UniPoly("y", [a * a - 4 * s * d, 2 * a * c - 4 * s * b,
                            c * c, -4 * s])
        ad, cd = a.denominator, c.denominator
        an, cn, acd = a.numerator * cd, c.numerator * ad, ad * cd
        # x = s*(r - a - c*y)/2 at y = t/qt, r = sr/qr over 2*ad*cd*qt*qr
        _two_sheets(F, dom, vp.ymin, vp.ymax, m, lambda t, qt, sr, qr: (
            s * (sr * acd * qt - (an * qt + cn * t) * qr),
            2 * acd * qt * qr, t, qt), emit)

    return polylines


def _extend_rows(rows: list[list[int]], count: int) -> list[list[int]]:
    """The first count rows of an integer table whose columns are
    polynomials in the row index of degree below len(rows).

    Given rows fix every column, and each later row is the last one
    plus its backward differences (Knuth, TAOCP vol. 2, 4.6.4), so it
    costs len(rows) - 1 integer additions per column.

    >>> _extend_rows([[0, 1], [1, 3], [4, 5]], 5)
    [[0, 1], [1, 3], [4, 5], [9, 7], [16, 9]]
    """
    if count <= len(rows):
        return rows[:count]
    out = list(rows)
    # diffs[k] is the k-th backward difference at the last row
    diffs = [rows[-1]]
    for _ in range(len(rows) - 1):
        rows = [[b - a for a, b in zip(r, s)] for r, s in zip(rows, rows[1:])]
        diffs.append(rows[-1])
    for _ in range(count - len(out)):
        for k in range(len(diffs) - 2, -1, -1):
            diffs[k] = list(map(operator.add, diffs[k], diffs[k + 1]))
        out.append(diffs[0])
    return out


def _common_rows(rows: list[tuple[list[int], int]]
                 ) -> tuple[list[list[int]], int]:
    """Rows of numerators over their own denominators, (v, q), as
    numerators over one common denominator L: (v * L/q, L)."""
    den = math.lcm(*(q for _, q in rows))
    return [[v * (den // q) for v in vals] for vals, q in rows], den


def _lower_runs(F, vp: Viewport) -> list[tuple[int, int, int]]:
    """Runs (j, i0, i1) of grid nodes in {f <= 0}: row j, columns i0..i1,
    for the deformation polynomial F of f.

    Only rows j = 0..deg_y f are evaluated.  Each is one polynomial in
    x: grouped by x-exponent, the terms of f give coefficients that are
    polynomials in y, so a row costs one evaluation per exponent and
    one cleared denominator, and ``_grid_values`` reads it at the nodes.
    Over one common denominator these rows extend to the whole grid,
    because f along a column has degree deg_y f in j; only signs are
    read.
    """
    cols: list[list] = [[] for _ in range(1 + max(i for i, _ in F.terms))]
    for (i, j), c in F.terms.items():
        cols[i].extend([0] * (j + 1 - len(cols[i])))
        cols[i][j] = c
    col_polys = [UniPoly("y", col) for col in cols]
    m = vp.samples - 1
    first = []
    for y in vp.ys(max(map(len, cols))):
        row, den = UniPoly("x", [q(y) for q in col_polys])._int_coeffs()
        vals, k = _grid_values(row, vp.xmin, vp.xmax, m)
        first.append((vals, den * k))
    runs = []
    for j, vals in enumerate(_extend_rows(_common_rows(first)[0],
                                          vp.samples)):
        i0 = None
        for i, v in enumerate(vals):
            if v <= 0:
                if i0 is None:
                    i0 = i
            elif i0 is not None:
                runs.append((j, i0, i - 1))
                i0 = None
        if i0 is not None:
            runs.append((j, i0, m))
    return runs


# ---------------------------------------------------------------------------
# SVG assembly


def _svg_header(vp: Viewport) -> str:
    return ('<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{vp.width}" height="{vp.height}" '
            f'viewBox="0 0 {vp.width} {vp.height}">\n'
            f'<rect width="{vp.width}" height="{vp.height}" fill="#ffffff"/>')


def _axis_lines(vp: Viewport) -> list[str]:
    out = []
    if vp.ymin < 0 < vp.ymax:
        _, py = vp.to_px(vp.xmin, Fraction(0))
        out.append(f'<line x1="0" y1="{_fmt(py)}" x2="{vp.width}" '
                   f'y2="{_fmt(py)}" stroke="#bbbbbb" stroke-width="0.8"/>')
    return out


def _boundary_line(vp: Viewport) -> list[str]:
    if not (vp.xmin < 0 < vp.xmax):
        return []
    px, _ = vp.to_px(Fraction(0), vp.ymin)
    return [f'<line x1="{_fmt(px)}" y1="0" x2="{_fmt(px)}" '
            f'y2="{vp.height}" stroke="#000000" stroke-width="1.2" '
            'stroke-dasharray="4,3"/>']


def _polyline_elements(vp: Viewport, polylines: list[list[Point]],
                       stroke: str, width: str = "1.6") -> list[str]:
    # Viewport.to_px of (X/QX, Y/QY): each coordinate is one int/int
    # true division, which rounds as float() of the rational does
    w, h = vp.xmax - vp.xmin, vp.ymax - vp.ymin
    xn, xd, wd = vp.xmin.numerator, vp.xmin.denominator, w.denominator
    yn, yd, hd = vp.ymax.numerator, vp.ymax.denominator, h.denominator
    xs, ys = xd * w.numerator, yd * h.numerator
    out = []
    for line in polylines:
        pts = " ".join(
            f"{_fmt((X * xd - xn * QX) * wd / (QX * xs) * vp.width)},"
            f"{_fmt((yn * QY - Y * yd) * hd / (QY * ys) * vp.height)}"
            for X, QX, Y, QY in line)
        out.append(f'<polyline points="{pts}" fill="none" '
                   f'stroke="{stroke}" stroke-width="{width}"/>')
    return out


def render_zero_set(sc: SingularityClass, lam, vp: Viewport | None = None
                    ) -> str:
    """SVG document of {f = 0} with the lower-value set shaded.

    Discriminant parameters render fine; only the picture degenerates.
    """
    lam = Parameter.coerce(lam)
    vp = vp or default_viewport(sc, lam)
    parts = [_svg_header(vp)]
    parts.append('<g fill="#9ecae1" fill-opacity="0.45" stroke="none">')
    F = deformation_polynomial(sc, lam)
    # a run's rectangle spans (i0 - 1/2 .. i1 + 1/2) grid steps across
    # and (j - 1/2 .. j + 1/2) up: each pixel is one int/int true
    # division, correctly rounded like float() of the rational position
    m = 2 * (vp.samples - 1)
    for j, i0, i1 in _lower_runs(F, vp):
        px0 = (2 * i0 - 1) / m * vp.width
        px1 = (2 * i1 + 1) / m * vp.width
        py0 = (m - 2 * j - 1) / m * vp.height
        py1 = (m - 2 * j + 1) / m * vp.height
        parts.append(f'<rect x="{_fmt(px0)}" y="{_fmt(py0)}" '
                     f'width="{_fmt(px1 - px0)}" '
                     f'height="{_fmt(py1 - py0)}"/>')
    parts.append("</g>")
    parts.extend(_axis_lines(vp))
    parts.extend(_polyline_elements(vp, _curve_points(sc, lam, vp, F),
                                    "#1f3d7a"))
    parts.extend(_boundary_line(vp))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def default_viewport(sc: SingularityClass, lam) -> Viewport:
    lam = Parameter.coerce(lam)
    r = Fraction(2) + max(abs(v) for v in lam)
    r = min(r, Fraction(8))
    return Viewport(-r, r, -r, r)


def figure_filename(sc: SingularityClass, lam) -> str:
    lam = Parameter.coerce(lam)
    tag = f"{sc.label()}|" + ",".join(str(v) for v in lam)
    digest = hashlib.sha256(tag.encode()).hexdigest()[:12]
    return f"{sc.label()}_{digest}.svg"


def write_figure(sc: SingularityClass, lam, out_dir,
                 vp: Viewport | None = None) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / figure_filename(sc, lam)
    path.write_text(render_zero_set(sc, lam, vp))
    return path


# ---------------------------------------------------------------------------
# parameter slices


_MS_EDGES = {1: (3, 0), 2: (0, 1), 3: (3, 1), 4: (1, 2), 6: (0, 2),
             7: (3, 2), 8: (2, 3), 9: (2, 0), 11: (2, 1), 12: (1, 3),
             13: (1, 0), 14: (0, 3)}


def _contour_segments(fv, fx, fy):
    """Marching squares segments for the zero level of a float grid
    fv[j][i] at the nodes (fx[i], fy[j]).

    Signs come first: each row is one bitmask of fv > 0 (the float's
    sign, since v / den may round to 0.0), and a cell of a row pair is
    mixed where its lower row, its upper row, or the two rows differ
    (three XORs).  Corner values and points are built for mixed cells
    only, in ascending i, so every other cell costs nothing.
    """
    segs = []

    def cross(va, vb, pa, pb):
        t = va / (va - vb)
        return (pa[0] + t * (pb[0] - pa[0]), pa[1] + t * (pb[1] - pa[1]))

    masks = [sum(1 << i for i, v in enumerate(row) if v > 0) for row in fv]
    cells = (1 << (len(fx) - 1)) - 1
    for j in range(len(fy) - 1):
        lo, hi = masks[j], masks[j + 1]
        mixed = ((lo ^ (lo >> 1)) | (hi ^ (hi >> 1)) | (lo ^ hi)) & cells
        while mixed:
            i = (mixed & -mixed).bit_length() - 1
            mixed &= mixed - 1
            c = [fv[j][i], fv[j][i + 1], fv[j + 1][i + 1], fv[j + 1][i]]
            p = [(fx[i], fy[j]), (fx[i + 1], fy[j]),
                 (fx[i + 1], fy[j + 1]), (fx[i], fy[j + 1])]
            m = ((c[0] > 0) | (c[1] > 0) << 1 | (c[2] > 0) << 2
                 | (c[3] > 0) << 3)

            def edge_point(e):
                a, b = e, (e + 1) % 4
                return cross(c[a], c[b], p[a], p[b])

            if m in (5, 10):
                center = sum(c) / 4
                # split the saddle consistently with the centre sign
                if (m == 5) == (center > 0):
                    pairs = [(3, 0), (1, 2)]
                else:
                    pairs = [(0, 1), (2, 3)]
                for ea, eb in pairs:
                    segs.append((edge_point(ea), edge_point(eb)))
                continue
            ea, eb = _MS_EDGES[m]
            segs.append((edge_point(ea), edge_point(eb)))
    return segs


def _float_nodes(lo: Fraction, hi: Fraction, m: int) -> list[float]:
    """float(lo + (hi - lo)*i/m) at i = 0..m, each one int/int true
    division of the node's exact numerator and denominator.

    >>> _float_nodes(Fraction(-1, 3), Fraction(1), 2)
    [-0.3333333333333333, 0.3333333333333333, 1.0]
    """
    a, b, den = _node_pairs(lo, hi, m)
    return [(a + b * i) / den for i in range(m + 1)]


def _slice_grids(sc: SingularityClass, fixed: dict, axes, vp: Viewport
                 ) -> tuple[tuple[list[list[int]], int],
                            tuple[list[list[int]], int]]:
    """Exact Sigma0 and Sigma1 at every slice grid node, by rows: for
    each stratum the integer numerators grid[j][i] and one common
    denominator L, the value at node (i, j) being grid[j][i] / L.

    Row j is the parameter segment from (xmin, y_j) to (xmax, y_j), and
    its i-th node is the segment point t = i / (samples - 1).  A
    stratum of total degree n in the parameters is a polynomial of
    degree at most n in j along each column, so only rows j = 0..D,
    D the larger degree, cost a ``segment_strata`` call and integer
    evaluations; each stratum's first n + 1 rows extend to the rest.
    """
    names = sc.parameter_names
    m = vp.samples - 1
    degrees = _strata_degrees(sc)
    rows = [segment_strata(sc, *(Parameter(tuple(
                {**fixed, axes[0]: xv, axes[1]: yv}[n] for n in names))
                for xv in (vp.xmin, vp.xmax)))
            for yv in vp.ys(max(degrees) + 1)]
    out = []
    for k, n in enumerate(degrees):
        grid, den = _common_rows(
            [(_int_grid_numerators(cs, m), q * m ** max(len(cs) - 1, 0))
             for cs, q in (r[k] for r in rows[:n + 1])])
        out.append((_extend_rows(grid, vp.samples), den))
    return out[0], out[1]


def render_parameter_slice(sc: SingularityClass, fixed: dict, axes,
                           vp: Viewport | None = None) -> str:
    """SVG contours of the two strata on a 2-parameter slice.

    ``fixed`` assigns rationals to all parameters except the two in
    ``axes``, which sweep the viewport (first axis horizontal).
    """
    names = sc.parameter_names
    axes = tuple(axes)
    if (len(axes) != 2 or axes[0] == axes[1]
            or any(a not in names for a in axes)):
        raise BadAxes(f"axes must be two distinct of {names}")
    rest = sorted(set(names) - set(axes))
    if sorted(fixed) != rest:
        raise BadAxes(f"fixed assignment must cover exactly {rest}")
    fixed = {k: Fraction(v) for k, v in fixed.items()}
    vp = vp or SLICE_VIEWPORT
    fx = _float_nodes(vp.xmin, vp.xmax, vp.samples - 1)
    fy = _float_nodes(vp.ymin, vp.ymax, vp.samples - 1)
    # Viewport.to_px on float points, whose Fraction operands Python
    # turns into these floats: the same operations, the same bytes
    x0, xw = float(vp.xmin), float(vp.xmax - vp.xmin)
    y1, yh = float(vp.ymax), float(vp.ymax - vp.ymin)
    parts = [_svg_header(vp)]
    parts.extend(_axis_lines(vp))
    for (grid, den), stroke in zip(_slice_grids(sc, fixed, axes, vp),
                                   ("#b2182b", "#2166ac")):
        # int/int true division rounds as float(Fraction(v, den))
        fv = [[v / den for v in row] for row in grid]
        parts.append(f'<g stroke="{stroke}" stroke-width="1.4" fill="none">')
        for (xa, ya), (xb, yb) in _contour_segments(fv, fx, fy):
            parts.append(
                f'<line x1="{_fmt((xa - x0) / xw * vp.width)}" '
                f'y1="{_fmt((y1 - ya) / yh * vp.height)}" '
                f'x2="{_fmt((xb - x0) / xw * vp.width)}" '
                f'y2="{_fmt((y1 - yb) / yh * vp.height)}"/>')
        parts.append("</g>")
    parts.append(f'<text x="{vp.width - 24}" y="{vp.height - 8}" '
                 f'font-size="12" fill="#333333">{axes[0]}</text>')
    parts.append(f'<text x="8" y="16" font-size="12" '
                 f'fill="#333333">{axes[1]}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def slice_filename(sc: SingularityClass, fixed: dict, axes) -> str:
    tag = (f"{sc.label()}|slice|{axes[0]},{axes[1]}|"
           + ",".join(f"{k}={Fraction(v)}" for k, v in sorted(fixed.items())))
    digest = hashlib.sha256(tag.encode()).hexdigest()[:12]
    return f"{sc.label()}_slice_{axes[0]}{axes[1]}_{digest}.svg"


def write_slice(sc: SingularityClass, fixed: dict, axes, out_dir,
                vp: Viewport | None = None) -> Path:
    # a bad request fails before it names a file or makes a directory
    svg = render_parameter_slice(sc, fixed, axes, vp)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / slice_filename(sc, fixed, axes)
    path.write_text(svg)
    return path
