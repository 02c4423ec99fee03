"""Deterministic SVG figures: zero sets and parameter slices.

Zero sets are drawn from the closed-form branch solutions rather than
generic implicit contouring: the families are solvable for one
variable (B: y = +-sqrt(-h(x)/s); C: x = -h(y)/(sigma*y); F4 the
quadratic formula in x), so plotted points satisfy the equation up to
square-root rounding.  Square roots are dyadic rationals obtained from
integer isqrt, every emitted point is checked exactly against
|f| < 10^-6, and all coordinates are formatted with fixed precision,
making the output byte-deterministic.

B and F4 share one sweep: along one axis t they are the two sheets
of +-sqrt(dom(t)) for a domain polynomial dom (-s*h(x) for B, the
discriminant in x of the quadratic for F4).  Where dom changes sign
between two sweep values the sheets join at a branch end, bisected
45 times on the signs of dom's integer coefficients.

The lower-value set W = {f <= 0} is shaded by exact signs on the
viewport grid, and the boundary line x = 0 is dashed.  Every grid row
is read from one integer row polynomial: f restricted to the row
ordinate is a polynomial in x with its denominators cleared once, and
each node costs one integer Horner sign.  A run of nodes in W is
drawn from its grid indices: each pixel coordinate is one int/int
true division, which rounds as float() of the rational position
does.  Parameter slices contour
the two stratum-defining polynomials with marching squares in two
distinct strokes; each grid row is a parameter segment, whose Sigma0
and Sigma1 come from ``models.segment_strata`` (the same segment math
as the path certificates) and are evaluated exactly at the nodes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .models import (
    Parameter,
    SingularityClass,
    boundary_polynomial,
    deformation_polynomial,
    segment_strata,
)
from .exactpoly import (
    UniPoly,
    _bisect_one,
    _int_grid_numerators,
    _int_grid_values,
    _int_sign_at,
    _unit_transform,
)

RESIDUAL_BOUND = Fraction(1, 10 ** 6)
_SQRT_BITS = 40


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

    def ys(self) -> list[Fraction]:
        n = self.samples
        return [self.ymin + (self.ymax - self.ymin) * Fraction(j, n - 1)
                for j in range(n)]

    def to_px(self, x, y) -> tuple[float, float]:
        fx = (x - self.xmin) / (self.xmax - self.xmin)
        fy = (self.ymax - y) / (self.ymax - self.ymin)
        return (float(fx) * self.width, float(fy) * self.height)


# parameter slices default to this box in both swept parameters
SLICE_VIEWPORT = Viewport(-3, 3, -3, 3)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def dyadic_sqrt(v: Fraction, bits: int = _SQRT_BITS) -> Fraction:
    """Floor square root of v >= 0 as a dyadic rational, error < 2^-bits."""
    if v < 0:
        raise ValueError("negative radicand")
    n, d = v.numerator, v.denominator
    # sqrt(n/d) = sqrt(n*d)/d; scale so the integer sqrt carries the bits
    s = math.isqrt(n * d << (2 * bits))
    return Fraction(s, d << bits)


def _residual_ok(F, x: Fraction, y: Fraction) -> bool:
    return abs(F.eval((x, y))) < RESIDUAL_BOUND


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


def _two_sheets(F, dom: UniPoly, ts: list[Fraction], sheet, emit) -> None:
    """Emit the two sheets sheet(t, +-sqrt(dom(t))) of a zero set.

    A run of sweep values t with dom(t) >= 0 gives one polyline per
    sheet; where dom changes sign between two sweep values, both
    sheets end at the join point sheet(e, 0), e the branch end.  Only
    points with |f| < 10^-6 are kept.
    """
    cs, _ = dom._int_coeffs()
    plus: list[tuple[Fraction, Fraction]] = []
    minus: list[tuple[Fraction, Fraction]] = []

    def join(lo: Fraction, hi: Fraction):
        e = _branch_end(cs, lo, hi)
        if e is not None:
            pt = sheet(e, Fraction(0))
            if _residual_ok(F, *pt):
                plus.append(pt)
                minus.append(pt)

    prev = None
    for t in ts:
        v = dom(t)
        if v >= 0:
            if not plus and prev is not None:
                join(prev, t)
            r = dyadic_sqrt(v)
            for line, pt in ((plus, sheet(t, r)), (minus, sheet(t, -r))):
                if _residual_ok(F, *pt):
                    line.append(pt)
        else:
            if plus:
                join(prev, t)
            emit(plus)
            emit(minus[::-1])
            plus, minus = [], []
        prev = t
    emit(plus)
    emit(minus[::-1])


def curve_points(sc: SingularityClass, lam, vp: Viewport
                 ) -> list[list[tuple[Fraction, Fraction]]]:
    """Polylines of the zero set, as exact rational plot points.

    Every returned point satisfies |f(x, y)| < 10^-6 exactly.  B and F4
    are two sheets over one swept axis, split where their domain
    polynomial turns negative; at such edges the branch end is
    bisected so curves close up.
    """
    lam = Parameter.coerce(lam)
    F = deformation_polynomial(sc, lam)
    polylines: list[list[tuple[Fraction, Fraction]]] = []

    def emit(line: list[tuple[Fraction, Fraction]]):
        if len(line) >= 2:
            polylines.append(line)

    if sc.family == "B":
        h = boundary_polynomial(sc, lam)
        _two_sheets(F, UniPoly("x", [-sc.sign * c for c in h.coeffs]),
                    vp.xs(), lambda x, r: (x, r), emit)

    elif sc.family == "C":
        h = boundary_polynomial(sc, lam)
        sigma = 1 if sc.is_even else sc.sign
        clip = 2 * (vp.xmax - vp.xmin) + abs(vp.xmin) + abs(vp.xmax)
        line: list[tuple[Fraction, Fraction]] = []
        for y in vp.ys():
            if y == 0:
                emit(line)
                line = []
                continue
            x = -h(y) / (sigma * y)
            if abs(x) > clip:
                emit(line)
                line = []
                continue
            line.append((x, y))
        emit(line)

    else:
        a, b, c, d = lam
        s = sc.sign
        # (a + c*y)^2 - 4*s*(y^3 + b*y + d), the discriminant in x
        dom = UniPoly("y", [a * a - 4 * s * d, 2 * a * c - 4 * s * b,
                            c * c, -4 * s])
        _two_sheets(F, dom, vp.ys(),
                    lambda y, r: ((-(a + c * y) + r) / (2 * s), y), emit)

    return polylines


def boundary_crossings(polylines) -> int:
    """Sign reversals of the x coordinate along the plotted curves."""
    n = 0
    for line in polylines:
        signs = []
        for x, _ in line:
            s = (x > 0) - (x < 0)
            if not signs or signs[-1] != s:
                signs.append(s)
        # a zero between opposite signs is the same single crossing
        compact = [s for s in signs if s != 0]
        n += sum(1 for a, b in zip(compact, compact[1:]) if a != b)
    return n


def _lower_runs(sc: SingularityClass, lam: Parameter, vp: Viewport
                ) -> list[tuple[int, int, int]]:
    """Runs (j, i0, i1) of grid nodes in {f <= 0}: row j, columns i0..i1.

    Each grid row is one polynomial in x: grouped by x-exponent, the
    terms of f give coefficients that are polynomials in y, so a row
    costs one evaluation per exponent and one cleared denominator.  Its
    integer transform onto the unit interval, a positive multiple of
    row(xmin + (xmax - xmin)*u), is read at the grid nodes u = i/m by
    integer Horner passes, so no node forms a Fraction.
    """
    F = deformation_polynomial(sc, lam)
    cols: list[list] = [[] for _ in range(1 + max(i for i, _ in F.terms))]
    for (i, j), c in F.terms.items():
        cols[i].extend([0] * (j + 1 - len(cols[i])))
        cols[i][j] = c
    col_polys = [UniPoly("y", col) for col in cols]
    m = vp.samples - 1
    runs = []
    for j, y in enumerate(vp.ys()):
        row, _ = UniPoly("x", [q(y) for q in col_polys])._int_coeffs()
        i0 = None
        for i, v in enumerate(_int_grid_numerators(
                _unit_transform(row, vp.xmin, vp.xmax), m)):
            if v <= 0:
                if i0 is None:
                    i0 = i
            elif i0 is not None:
                runs.append((j, i0, i - 1))
                i0 = None
        if i0 is not None:
            runs.append((j, i0, m))
    return runs


def lower_region_rects(sc: SingularityClass, lam, vp: Viewport
                       ) -> list[tuple[Fraction, Fraction, Fraction, Fraction]]:
    """Cell rectangles (x0, y0, x1, y1) covering sampled {f <= 0} runs.

    The rectangles are the runs of ``_lower_runs``, each widened by
    half a grid step on every side.
    """
    xs, ys = vp.xs(), vp.ys()
    dx = (vp.xmax - vp.xmin) / (vp.samples - 1)
    dy = (vp.ymax - vp.ymin) / (vp.samples - 1)
    return [(xs[i0] - dx / 2, ys[j] - dy / 2, xs[i1] + dx / 2, ys[j] + dy / 2)
            for j, i0, i1 in _lower_runs(sc, Parameter.coerce(lam), vp)]


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


def _polyline_elements(vp: Viewport, polylines, stroke: str,
                       width: str = "1.6") -> list[str]:
    out = []
    for line in polylines:
        pts = " ".join("%s,%s" % tuple(map(_fmt, vp.to_px(x, y)))
                       for x, y in line)
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
    # a run's rectangle spans (i0 - 1/2 .. i1 + 1/2) grid steps across
    # and (j - 1/2 .. j + 1/2) up: each pixel is one int/int true
    # division, correctly rounded like float() of the rational position
    m = 2 * (vp.samples - 1)
    for j, i0, i1 in _lower_runs(sc, lam, vp):
        px0 = (2 * i0 - 1) / m * vp.width
        px1 = (2 * i1 + 1) / m * vp.width
        py0 = (m - 2 * j - 1) / m * vp.height
        py1 = (m - 2 * j + 1) / m * vp.height
        parts.append(f'<rect x="{_fmt(px0)}" y="{_fmt(py0)}" '
                     f'width="{_fmt(px1 - px0)}" '
                     f'height="{_fmt(py1 - py0)}"/>')
    parts.append("</g>")
    parts.extend(_axis_lines(vp))
    parts.extend(_polyline_elements(vp, curve_points(sc, lam, vp), "#1f3d7a"))
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


def _contour_segments(vals, xs, ys):
    """Marching squares segments for the zero level of a value grid."""
    segs = []
    fv = [[float(v) for v in row] for row in vals]
    fx = [float(x) for x in xs]
    fy = [float(y) for y in ys]

    def cross(va, vb, pa, pb):
        t = va / (va - vb)
        return (pa[0] + t * (pb[0] - pa[0]), pa[1] + t * (pb[1] - pa[1]))

    for j in range(len(ys) - 1):
        for i in range(len(xs) - 1):
            c = [fv[j][i], fv[j][i + 1], fv[j + 1][i + 1], fv[j + 1][i]]
            p = [(fx[i], fy[j]), (fx[i + 1], fy[j]),
                 (fx[i + 1], fy[j + 1]), (fx[i], fy[j + 1])]
            m = sum(1 << k for k in range(4) if c[k] > 0)
            if m in (0, 15):
                continue

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


def _slice_grids(sc: SingularityClass, fixed: dict, axes, vp: Viewport
                 ) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """Exact Sigma0 and Sigma1 values at every slice grid node, by rows.

    A row is the parameter segment from (xmin, y) to (xmax, y), and its
    i-th node is the segment point t = i / (samples - 1): one
    ``segment_strata`` call per row, then integer evaluations.
    """
    names = sc.parameter_names
    m = vp.samples - 1
    grid0, grid1 = [], []
    for yv in vp.ys():
        start, end = (Parameter(tuple({**fixed, axes[0]: xv, axes[1]: yv}[n]
                                      for n in names))
                      for xv in (vp.xmin, vp.xmax))
        s0, s1 = segment_strata(sc, start, end)
        grid0.append(_int_grid_values(*s0, m))
        grid1.append(_int_grid_values(*s1, m))
    return grid0, grid1


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
    xs, ys = vp.xs(), vp.ys()
    parts = [_svg_header(vp)]
    parts.extend(_axis_lines(vp))
    for grid, stroke in zip(_slice_grids(sc, fixed, axes, vp),
                            ("#b2182b", "#2166ac")):
        parts.append(f'<g stroke="{stroke}" stroke-width="1.4" fill="none">')
        for (xa, ya), (xb, yb) in _contour_segments(grid, xs, ys):
            pa = vp.to_px(xa, ya)
            pb = vp.to_px(xb, yb)
            parts.append(f'<line x1="{_fmt(pa[0])}" y1="{_fmt(pa[1])}" '
                         f'x2="{_fmt(pb[0])}" y2="{_fmt(pb[1])}"/>')
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
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / slice_filename(sc, fixed, axes)
    path.write_text(render_parameter_slice(sc, fixed, axes, vp))
    return path
