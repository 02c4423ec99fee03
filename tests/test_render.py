"""Figure generation: exact branch plotting and parameter slices.

Rendering is allowed to round only at the final pixel mapping, so the
tests hold every emitted curve point to the exact residual bound and
compare crossing counts against the classifier, not against pixels.
"""

import hashlib
import importlib
import json
import math
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from discatlas.atlas import construct_representative
from discatlas.exactpoly import MultiPoly, UniPoly, poly_from_roots
from discatlas.models import (
    Parameter,
    SingularityClass,
    boundary_polynomial,
    deformation_polynomial,
    f4_reduce,
    f4_sigma0_eliminant,
    f4_sigma1_polynomial,
    segment_strata,
    stratum_values,
)
from discatlas.classify import (BCSignature, F4_SEEDS, classify_f4,
                                f4_side_seeds)
from discatlas.cli import run
import discatlas.render as render_module
from discatlas.render import (
    RESIDUAL_BOUND,
    _MS_EDGES,
    _branch_end,
    _contour_segments,
    _lower_runs,
    _slice_grids,
    BadAxes,
    EmptyViewport,
    Viewport,
    curve_points,
    default_viewport,
    dyadic_sqrt,
    figure_filename,
    render_parameter_slice,
    render_zero_set,
    slice_filename,
    write_figure,
    write_slice,
)

F = Fraction
B2 = SingularityClass("B", 2, 1)
F4P = SingularityClass("F4", 4, 1)
F4M = SingularityClass("F4", 4, -1)


# ---------------------------------------------------------------------------
# viewport and sqrt plumbing


def test_viewport_validation():
    with pytest.raises(EmptyViewport):
        Viewport(1, 1, 0, 2)
    with pytest.raises(EmptyViewport):
        Viewport(0, 1, 3, 2)
    with pytest.raises(ValueError):
        Viewport(0, 1, 0, 1, samples=8)
    vp = Viewport(-2, 2, -2, 2, samples=17)
    assert len(vp.xs()) == 17
    assert vp.xs()[0] == -2 and vp.xs()[-1] == 2


def test_dyadic_sqrt_error_bound():
    rng = random.Random(9)
    for _ in range(50):
        v = F(rng.randint(0, 10 ** 6), rng.randint(1, 10 ** 3))
        s = dyadic_sqrt(v, 40)
        assert s * s <= v
        assert (s + F(1, 2 ** 40)) ** 2 > v
    with pytest.raises(ValueError):
        dyadic_sqrt(F(-1))


# ---------------------------------------------------------------------------
# curve points


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


def _assert_residuals(sc, lam, vp):
    f = deformation_polynomial(sc, Parameter.coerce(lam))
    lines = curve_points(sc, lam, vp)
    n = 0
    for line in lines:
        for x, y in line:
            assert abs(f.eval((x, y))) < RESIDUAL_BOUND
            n += 1
    return lines, n


def test_circle_points_exact():
    vp = Viewport(-2, 2, -2, 2, samples=65)
    lines, n = _assert_residuals(B2, (0, -1), vp)
    assert n > 60
    # all points on the unit circle, both half-branches present
    top = any(y > F(1, 2) for line in lines for _, y in line)
    bot = any(y < F(-1, 2) for line in lines for _, y in line)
    assert top and bot


def test_c3_graph_points_exact():
    sc = SingularityClass("C", 3, 1)
    vp = Viewport(-4, 4, -3, 3, samples=65)
    lines, n = _assert_residuals(sc, (0, 0, 1), vp)
    assert n > 40
    # graph x = -(y^3+1)/y: no plotted point near the asymptote y = 0
    for line in lines:
        assert all(y != 0 for _, y in line)


def test_f4_curve_points_exact_all_representatives():
    for tid, lam in F4_SEEDS + f4_side_seeds():
        vp = default_viewport(F4P, Parameter.coerce(lam))
        lines, n = _assert_residuals(F4P, lam, vp)
        assert n > 30, f"type {tid} produced too few points"


def test_rendered_crossings_match_descriptor():
    for tid, lam in F4_SEEDS + f4_side_seeds():
        lam = Parameter.coerce(lam)
        desc = classify_f4(F4P, lam)
        vp = default_viewport(F4P, lam)
        lines = curve_points(F4P, lam, vp)
        assert boundary_crossings(lines) == len(desc.roots), f"type {tid}"


def test_boundary_crossings_counter():
    assert boundary_crossings([[(-1, 0), (1, 1)]]) == 1
    assert boundary_crossings([[(-1, 0), (0, 1), (1, 2)]]) == 1
    assert boundary_crossings([[(1, 0), (2, 1)]]) == 0
    assert boundary_crossings([[(-1, 0), (1, 1), (-2, 2)]]) == 2


def reference_refine_edge(val, lo, hi):
    """Branch-end bisection on Fraction values of ``val``.

    The sweep once joined its sheets at this point; the runtime now
    bisects the domain polynomial's integer signs, and both must land
    on the same rational after the same 45 halvings.
    """
    vlo, vhi = val(lo), val(hi)
    if vlo == 0:
        return lo
    if vhi == 0:
        return hi
    if (vlo > 0) == (vhi > 0):
        return None
    target = (hi - lo) / (1 << 45)
    while hi - lo > target:
        mid = (lo + hi) / 2
        vm = val(mid)
        if vm == 0:
            return mid
        if (vm > 0) == (vlo > 0):
            lo, vlo = mid, vm
        else:
            hi = mid
    return (lo + hi) / 2


half = st.integers(min_value=-8, max_value=8).map(lambda k: F(k, 2))
quarter = st.integers(min_value=-20, max_value=20).map(lambda k: F(k, 4))


@settings(max_examples=200, deadline=None)
@given(st.lists(half, min_size=1, max_size=5), st.sampled_from([1, -1, 3]),
       quarter, st.integers(min_value=1, max_value=24).map(lambda k: F(k, 4)))
@example([F(0)], 1, F(-1), F(2))                # first midpoint a root
@example([F(-1), F(3)], -1, F(-1), F(2))        # lower end a root
@example([F(2)], 3, F(-1), F(3))                # upper end a root
@example([F(1), F(1)], 1, F(0), F(3))           # double root: None
@example([F(4)], 1, F(-1), F(1))                # no root: None
def test_branch_end_matches_fraction_bisection(roots, lead, lo, width):
    p = poly_from_roots("y", roots, lead)
    hi = lo + width
    got = _branch_end(p._int_coeffs()[0], lo, hi)
    assert got == reference_refine_edge(p, lo, hi)
    if got is not None:
        assert lo <= got <= hi
    assert boundary_crossings([]) == 0


def lower_region_rects(sc, lam, vp):
    """Cell rectangles (x0, y0, x1, y1) covering sampled {f <= 0} runs:
    the runs of ``_lower_runs``, each widened by half a grid step on
    every side, as the figure shades them."""
    xs, ys = vp.xs(), vp.ys()
    dx = (vp.xmax - vp.xmin) / (vp.samples - 1)
    dy = (vp.ymax - vp.ymin) / (vp.samples - 1)
    return [(xs[i0] - dx / 2, ys[j] - dy / 2, xs[i1] + dx / 2, ys[j] + dy / 2)
            for j, i0, i1 in _lower_runs(
                deformation_polynomial(sc, Parameter.coerce(lam)), vp)]


def test_lower_region_rects_circle():
    vp = Viewport(-2, 2, -2, 2, samples=33)
    rects = lower_region_rects(B2, (0, -1), vp)
    f = deformation_polynomial(B2, Parameter.of(0, -1))
    assert rects
    for x0, y0, x1, y1 in rects:
        cx, cy = (x0 + x1) / 2, (y0 + y1) / 2
        # cell centres of the shading lie inside or near W
        assert f.eval((cx, cy)) <= F(1, 2)


# ---------------------------------------------------------------------------
# documents


def test_render_zero_set_svg_structure():
    svg = render_zero_set(B2, (0, -1))
    assert svg.startswith("<svg")
    assert 'stroke-dasharray="4,3"' in svg
    assert "#9ecae1" in svg and "#1f3d7a" in svg
    assert svg.rstrip().endswith("</svg>")


def test_render_zero_set_deterministic():
    a = render_zero_set(F4P, (1, -1, 0, 0))
    b = render_zero_set(F4P, (1, -1, 0, 0))
    assert a == b


@pytest.mark.parametrize("sc, lam", [(B2, (0, -1)), (F4P, (1, -1, 0, 0)),
                                     (SingularityClass("C", 3, 1), (0, 0, 1))])
def test_render_zero_set_builds_f_once(monkeypatch, sc, lam):
    # the shading and the curve share one deformation polynomial
    render_mod = importlib.import_module("discatlas.render")
    built = []
    original = render_mod.deformation_polynomial

    def counting(sc, lam):
        built.append(lam)
        return original(sc, lam)

    monkeypatch.setattr(render_mod, "deformation_polynomial", counting)
    render_zero_set(sc, lam)
    assert len(built) == 1


def test_figure_filename_stable():
    name1 = figure_filename(B2, Parameter.of(0, -1))
    name2 = figure_filename(B2, Parameter.of(0, -1))
    assert name1 == name2
    assert name1.startswith("B+2_") and name1.endswith(".svg")
    assert name1 != figure_filename(B2, Parameter.of(0, -2))


def test_write_figure(tmp_path):
    p = write_figure(B2, (0, -1), tmp_path)
    assert p.exists() and p.suffix == ".svg"
    assert p.read_text().startswith("<svg")


# ---------------------------------------------------------------------------
# parameter slices


def test_slice_identity_at_a0_c0():
    # on a = 0, c = 0 the interior stratum reduces to a constant times
    # the tangency stratum: 27(d - 0)^2 + 4b^3, times 16
    E = f4_sigma0_eliminant()
    S = f4_sigma1_polynomial()
    b, d = MultiPoly.variables(("b", "d"))
    sixteen = MultiPoly.constant(("b", "d"), 16)
    # substitute a = 0, c = 0 by evaluation over the remaining two
    restricted = {}
    for (ea, eb, ec, ed), cf in E.terms.items():
        if ea == 0 and ec == 0:
            restricted[(eb, ed)] = restricted.get((eb, ed), F(0)) + cf
    E00 = MultiPoly(("b", "d"), restricted)
    S2 = MultiPoly(("b", "d"),
                   {(eb, ed): cf for (ea, eb, ec, ed), cf in
                    f4_sigma1_polynomial().terms.items()})
    assert E00 == sixteen * S2


def test_slice_offset_cusps_at_a2():
    # with a = 2, c = 0: Sigma1 vanishes at (b,d) = (0,0), the interior
    # stratum at (0, 1) since d = a^2/4 shifts the cusp
    E = f4_sigma0_eliminant()
    S = f4_sigma1_polynomial()
    assert S.eval((0, 0, 0, 0)) == 0
    assert E.eval((2, 0, 0, 1)) == 0
    assert E.eval((2, 0, 0, 0)) != 0
    svg = render_parameter_slice(F4P, {"a": 2, "c": 0}, ("b", "d"),
                                 Viewport(-3, 3, -3, 3, samples=65))
    assert "#b2182b" in svg and "#2166ac" in svg


def test_slice_b2_axes():
    svg = render_parameter_slice(B2, {}, ("l1", "l2"),
                                 Viewport(-3, 3, -3, 3, samples=49))
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_slice_bad_axes():
    with pytest.raises(BadAxes):
        render_parameter_slice(F4P, {"a": 0}, ("b", "d"))  # c unassigned
    with pytest.raises(BadAxes):
        render_parameter_slice(F4P, {"a": 0, "c": 0}, ("b", "b"))
    with pytest.raises(BadAxes):
        render_parameter_slice(F4P, {"a": 0, "c": 0}, ("b", "z"))


def test_write_slice_deterministic(tmp_path):
    p1 = write_slice(F4P, {"a": 0, "c": 0}, ("b", "d"), tmp_path / "one")
    p2 = write_slice(F4P, {"a": 0, "c": 0}, ("b", "d"), tmp_path / "two")
    assert p1.name == p2.name
    assert p1.read_bytes() == p2.read_bytes()
    assert slice_filename(F4P, {"a": 0, "c": 0}, ("b", "d")) == p1.name


# ---------------------------------------------------------------------------
# byte pins


# stdout and SVG SHA-256 of render calls recorded before shading and
# slices moved to row polynomials: the benchmark's render set, one
# CLI-default figure per family and the default slice, non-dyadic
# boxes, rows whose polynomial vanishes identically, and slices with
# non-integer fixed values; each runs with "--out figs" in a fresh cwd
RENDER_PINS = json.loads(
    (Path(__file__).parent / "render_pins.json").read_text())


@pytest.mark.parametrize("pin", RENDER_PINS,
                         ids=[p["argv"] for p in RENDER_PINS])
def test_render_output_pinned(tmp_path, monkeypatch, capsys, pin):
    monkeypatch.chdir(tmp_path)
    assert run(pin["argv"].split()) == 0
    out = capsys.readouterr().out
    svg = Path(json.loads(out)["written"]).read_bytes()
    assert hashlib.sha256(out.encode()).hexdigest() == pin["stdout_sha256"]
    assert hashlib.sha256(svg).hexdigest() == pin["svg_sha256"]


# ---------------------------------------------------------------------------
# row evaluators against the per-node oracles


def per_node_rects(sc, lam, vp):
    """Shading by one MultiPoly.eval of f at every grid node."""
    f = deformation_polynomial(sc, Parameter.coerce(lam))
    xs, ys = vp.xs(), vp.ys()
    dx = (vp.xmax - vp.xmin) / (vp.samples - 1)
    dy = (vp.ymax - vp.ymin) / (vp.samples - 1)
    rects = []
    for y in ys:
        run_start = None
        for i, x in enumerate(xs + [None]):
            inside = x is not None and f.eval((x, y)) <= 0
            if inside and run_start is None:
                run_start = x
            elif not inside and run_start is not None:
                rects.append((run_start - dx / 2, y - dy / 2,
                              xs[i - 1] + dx / 2, y + dy / 2))
                run_start = None
    return rects


def per_node_slice_grids(sc, fixed, axes, vp):
    """Sigma0 and Sigma1 by one stratum_values call at every grid node."""
    grid0, grid1 = [], []
    for yv in vp.ys():
        row0, row1 = [], []
        for xv in vp.xs():
            point = {**fixed, axes[0]: xv, axes[1]: yv}
            v0, v1 = stratum_values(
                sc, Parameter(tuple(point[n] for n in sc.parameter_names)))
            row0.append(v0)
            row1.append(v1)
        grid0.append(row0)
        grid1.append(row1)
    return grid0, grid1


RENDER_LABELS = [f"{fam}{s}{mu}" for fam in "BC" for s in "+-"
                 for mu in range(2, 9)] + ["F4+", "F4-"]
small_rational = st.builds(F, st.integers(-12, 12), st.integers(1, 7))


@st.composite
def viewports(draw):
    # corners with denominators up to 7 and widths such as 7/3, so the
    # nodes are rarely dyadic
    lo = [draw(small_rational) for _ in range(2)]
    width = [draw(st.builds(F, st.integers(1, 24), st.integers(1, 7)))
             for _ in range(2)]
    return Viewport(lo[0], lo[0] + width[0], lo[1], lo[1] + width[1],
                    samples=draw(st.integers(16, 65)))


@st.composite
def shading_cases(draw):
    sc = SingularityClass.parse(draw(st.sampled_from(RENDER_LABELS)))
    lam = Parameter(tuple(draw(small_rational)
                          for _ in range(sc.parameter_count)))
    return sc, lam, draw(viewports())


@st.composite
def slice_cases(draw):
    sc = SingularityClass.parse(draw(st.sampled_from(RENDER_LABELS)))
    names = sc.parameter_names
    axes = tuple(draw(st.permutations(names))[:2])
    fixed = {n: draw(small_rational) for n in names if n not in axes}
    return sc, fixed, axes, draw(viewports())


# y = 0 is a grid row of these symmetric boxes with an odd sample count
C4_ZERO_ROW = (SingularityClass.parse("C+4"), Parameter.of(0, -2, 0, 0),
               Viewport(-3, 3, -3, 3, samples=33))
B3_ZERO_ROW = (SingularityClass.parse("B+3"), {"l2": F(-1)}, ("l1", "l3"),
               Viewport(-3, 3, -3, 3, samples=33))
C5_ZERO_ROW = (SingularityClass.parse("C-5"), {"l1": F(1, 2), "l2": F(-2),
                                               "l3": F(1, 3)},
               ("l4", "l5"), Viewport(-F(7, 3), 2, -F(5, 2), F(5, 2),
                                      samples=17))


# deg_y f = 16 rows plus one exceed the 16 grid rows, so every row is
# computed directly and none is extended
C16_ALL_DIRECT = (SingularityClass.parse("C+16"),
                  Parameter(tuple(F(k % 5 - 2, 1 + k % 3) for k in range(16))),
                  Viewport(-2, 2, -F(3, 2), F(3, 2), samples=16))
# Sigma0 of B+9 has degree 16: likewise no slice row is extended
B9_ALL_DIRECT = (SingularityClass.parse("B+9"),
                 {f"l{k}": F(k % 3 - 1, 2) for k in range(1, 10)
                  if k not in (8, 9)},
                 ("l8", "l9"), Viewport(-2, 2, -2, 2, samples=16))


@settings(max_examples=40, deadline=None)
@given(shading_cases())
@example(C4_ZERO_ROW)
@example(C16_ALL_DIRECT)
def test_row_shading_matches_per_node_eval(case):
    sc, lam, vp = case
    assert lower_region_rects(sc, lam, vp) == per_node_rects(sc, lam, vp)


@settings(max_examples=40, deadline=None)
@given(slice_cases())
@example(B3_ZERO_ROW)
@example(C5_ZERO_ROW)
@example((F4M, {"b": F(-2, 3), "d": F(1, 5)}, ("a", "c"),
          Viewport(-F(7, 3), F(7, 3), -F(7, 3), F(7, 3), samples=19)))
@example(B9_ALL_DIRECT)
def test_row_slice_grids_match_per_node_stratum_values(case):
    sc, fixed, axes, vp = case
    assert [[[F(v, den) for v in row] for row in grid]
            for grid, den in _slice_grids(sc, fixed, axes, vp)] \
        == list(per_node_slice_grids(sc, fixed, axes, vp))


@pytest.mark.parametrize("label, axes, fixed, calls", [
    ("B+4", ("l1", "l2"), {"l3": 1, "l4": 1}, 7),
    ("C-4", ("l1", "l2"), {"l3": 1, "l4": -1}, 7),
    ("F4+", ("b", "d"), {"a": 1, "c": 1}, 8),
])
def test_slice_grids_segment_strata_calls(monkeypatch, label, axes, fixed,
                                          calls):
    # only rows 0..D of the larger stratum degree D are segments; the
    # other 33 - (D + 1) rows are sums of differences
    sc = SingularityClass.parse(label)
    seen = []

    def counted(*args):
        seen.append(args)
        return segment_strata(*args)

    monkeypatch.setattr(render_module, "segment_strata", counted)
    fixed = {k: F(v) for k, v in fixed.items()}
    _slice_grids(sc, fixed, axes, Viewport(-3, 3, -3, 3, samples=33))
    assert len(seen) == calls



def reference_contour_segments(fv, fx, fy):
    # marching squares cell by cell, corner lists before the sign test
    segs = []

    def cross(va, vb, pa, pb):
        t = va / (va - vb)
        return (pa[0] + t * (pb[0] - pa[0]), pa[1] + t * (pb[1] - pa[1]))

    for j in range(len(fy) - 1):
        for i in range(len(fx) - 1):
            c = [fv[j][i], fv[j][i + 1], fv[j + 1][i + 1], fv[j + 1][i]]
            p = [(fx[i], fy[j]), (fx[i + 1], fy[j]),
                 (fx[i + 1], fy[j + 1]), (fx[i], fy[j + 1])]
            m = ((c[0] > 0) | (c[1] > 0) << 1 | (c[2] > 0) << 2
                 | (c[3] > 0) << 3)
            if m in (0, 15):
                continue

            def edge_point(e):
                a, b = e, (e + 1) % 4
                return cross(c[a], c[b], p[a], p[b])

            if m in (5, 10):
                center = sum(c) / 4
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


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 40), st.integers(2, 12), st.data())
def test_contour_segments_match_cell_by_cell_reference(nx, ny, data):
    # zeros (and -0.0, which is not > 0) sit on the negative side, and
    # saddles take either split; segments come out in the same order
    value = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 1e-300])
    fv = [[data.draw(value) for _ in range(nx)] for _ in range(ny)]
    fx = [i / 7 - 1 for i in range(nx)]
    fy = [j / 3 for j in range(ny)]
    assert _contour_segments(fv, fx, fy) \
        == reference_contour_segments(fv, fx, fy)


def test_identically_zero_rows():
    # f(x, 0) = h(0) = l4 = 0 shades the whole y = 0 row; on the slice
    # row l_mu = 0 the h(0) stratum vanishes at every node
    sc, lam, vp = C4_ZERO_ROW
    assert (vp.xmin - (vp.xmax - vp.xmin) / 64, F(-3, 32),
            vp.xmax + (vp.xmax - vp.xmin) / 64, F(3, 32)) \
        in lower_region_rects(sc, lam, vp)
    for sc, fixed, axes, vp in (B3_ZERO_ROW, C5_ZERO_ROW):
        grids = _slice_grids(sc, fixed, axes, vp)
        row = vp.ys().index(0)
        at_zero, _ = grids[1] if sc.family == "B" else grids[0]
        assert at_zero[row] == [0] * vp.samples


# ---------------------------------------------------------------------------
# the integer curve sweep against its Fraction oracle


def reference_curve_points(sc, lam, vp):
    """``curve_points`` in Fraction arithmetic, as the sweep once ran.

    Sweep values are ``vp.xs()``/``vp.ys()``, dom(t) is a Fraction, its
    root the dyadic floor root of the reduced value, each sheet point a
    pair of Fractions, and the residual one ``MultiPoly.eval`` per point.
    """
    lam = Parameter.coerce(lam)
    f = deformation_polynomial(sc, lam)
    polylines = []

    def emit(line):
        if len(line) >= 2:
            polylines.append(line)

    def residual_ok(x, y):
        return abs(f.eval((x, y))) < RESIDUAL_BOUND

    def two_sheets(dom, ts, sheet):
        cs = dom._int_coeffs()[0]
        plus, minus = [], []

        def join(lo, hi):
            e = _branch_end(cs, lo, hi)
            if e is not None:
                pt = sheet(e, F(0))
                if residual_ok(*pt):
                    plus.append(pt)
                    minus.append(pt)

        prev = None
        for t in ts:
            v = dom(t)
            if v >= 0:
                if not plus and prev is not None:
                    join(prev, t)
                n, d = v.numerator, v.denominator
                r = F(math.isqrt(n * d << 80), d << 40)
                for line, pt in ((plus, sheet(t, r)), (minus, sheet(t, -r))):
                    if residual_ok(*pt):
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

    if sc.family == "B":
        h = boundary_polynomial(sc, lam)
        two_sheets(UniPoly("x", [-sc.sign * c for c in h.coeffs]), vp.xs(),
                   lambda x, r: (x, r))
    elif sc.family == "C":
        h = boundary_polynomial(sc, lam)
        sigma = 1 if sc.is_even else sc.sign
        clip = 2 * (vp.xmax - vp.xmin) + abs(vp.xmin) + abs(vp.xmax)
        line = []
        for y in vp.ys():
            x = None if y == 0 else -h(y) / (sigma * y)
            if x is None or abs(x) > clip:
                emit(line)
                line = []
            else:
                line.append((x, y))
        emit(line)
    else:
        a, b, c, d = lam
        s = sc.sign
        dom = UniPoly("y", [a * a - 4 * s * d, 2 * a * c - 4 * s * b,
                            c * c, -4 * s])
        two_sheets(dom, vp.ys(),
                   lambda y, r: ((-(a + c * y) + r) / (2 * s), y))
    return polylines


def reference_polyline_elements(vp, polylines):
    """The curve's SVG elements from Fraction points by ``Viewport.to_px``."""
    return ['<polyline points="%s" fill="none" stroke="#1f3d7a" '
            'stroke-width="1.6"/>' % " ".join(
                "%s,%s" % tuple(f"{v:.2f}" for v in vp.to_px(x, y))
                for x, y in line)
            for line in polylines]


CURVE_LABELS = [f"{fam}{s}{mu}" for fam in "BC" for s in "+-"
                for mu in range(2, 7)] + ["F4+", "F4-"]


@st.composite
def curve_cases(draw):
    sc = SingularityClass.parse(draw(st.sampled_from(CURVE_LABELS)))
    lam = Parameter(tuple(draw(small_rational)
                          for _ in range(sc.parameter_count)))
    vp = draw(st.one_of(st.none(), viewports()))
    return sc, lam, vp or default_viewport(sc, lam)


# h = x^2 - 1 vanishes at the nodes x = +-1 of this grid of step 1/4,
# and the domain -h is negative at the first node x = -2
B2_ROOT_AT_NODE = (B2, Parameter.of(0, -1), Viewport(-2, 2, -2, 2, samples=17))
# the F4- domain (a + c*y)^2 + 4*(y^3 + b*y + d) = 4*y^3 is negative at
# the first node y = -1/10 and positive at the second, y = 1/25
F4M_NEGATIVE_FIRST = (F4M, Parameter.of(0, 0, 0, 0),
                      Viewport(-2, 2, -F(1, 10), 2, samples=16))
# x = -h(y)/y for h = y^2 - 13/4 is 6 at the node y = 1/2, which equals
# the clip bound 2*(xmax - xmin) + |xmin| + |xmax| and is kept
C2_AT_CLIP = (SingularityClass.parse("C+2"), Parameter.of(0, -F(13, 4)),
              Viewport(-1, 1, -1, 1, samples=17))


@settings(max_examples=60, deadline=None)
@given(curve_cases())
@example(C4_ZERO_ROW)
@example(B2_ROOT_AT_NODE)
@example(F4M_NEGATIVE_FIRST)
@example(C2_AT_CLIP)
@example((SingularityClass.parse("C-5"), Parameter.of(1, -2, F(1, 3), 0, 2),
          Viewport(-F(7, 3), F(5, 2), -F(5, 2), F(5, 2), samples=31)))
def test_curve_points_match_fraction_reference(case):
    sc, lam, vp = case
    want = reference_curve_points(sc, lam, vp)
    assert curve_points(sc, lam, vp) == want
    got = render_module._polyline_elements(
        vp, render_module._curve_points(
            sc, lam, vp, deformation_polynomial(sc, lam)), "#1f3d7a")
    assert got == reference_polyline_elements(vp, want)


def test_curve_reference_examples_reach_their_cases():
    # each explicit example exercises the node it is named for
    sc, lam, vp = C4_ZERO_ROW
    assert 0 in vp.ys() and len(curve_points(sc, lam, vp)) >= 2
    sc, lam, vp = B2_ROOT_AT_NODE
    lines = curve_points(sc, lam, vp)
    assert (F(-1), F(0)) in lines[0] and (F(1), F(0)) in lines[0]
    sc, lam, vp = F4M_NEGATIVE_FIRST
    dom = UniPoly("y", [0, 0, 0, 4])
    assert dom(vp.ys()[0]) < 0 < dom(vp.ys()[1])
    assert curve_points(sc, lam, vp)[0][0][1] < vp.ys()[1]
    sc, lam, vp = C2_AT_CLIP
    assert (F(6), F(1, 2)) in curve_points(sc, lam, vp)[-1]


small_point = st.builds(F, st.integers(-40, 40), st.integers(1, 9))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["B+3", "B-2", "C+4", "F4+", "F4-"]), st.data(),
       st.sampled_from([F(1, 10 ** 6), -F(1, 10 ** 6), F(0), None]),
       st.integers(1, 12), st.integers(1, 12))
def test_integer_residual_matches_eval(label, data, residual, gx, gy):
    # lam's constant term puts f(x, y) at the given residual, or lam is
    # drawn freely (None); the point goes in as unreduced pairs
    sc = SingularityClass.parse(label)
    x, y = data.draw(small_point), data.draw(small_point)
    lam = [data.draw(small_rational) for _ in range(sc.parameter_count)]
    k = sc.parameter_names.index("d" if sc.family == "F4" else
                                 f"l{sc.mu}")
    if residual is not None:
        lam[k] = 0
        f0 = deformation_polynomial(sc, Parameter(tuple(lam))).eval((x, y))
        lam[k] = residual - f0
    f = deformation_polynomial(sc, Parameter(tuple(lam)))
    want = abs(f.eval((x, y))) < RESIDUAL_BOUND
    if residual is not None:
        assert want == (residual == 0)
    ok = render_module._residual_test(f)
    assert ok(x.numerator * gx, x.denominator * gx,
              y.numerator * gy, y.denominator * gy) == want


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 12), st.integers(1, 10 ** 9),
       st.integers(1, 10 ** 6))
@example(2, 1, 2)
@example(0, 7, 3)
def test_sqrt_pair_reduces_before_the_root(n, d, g):
    s, q = render_module._sqrt_pair(n * g, d * g)
    assert F(s, q) == dyadic_sqrt(F(n, d))


def _bench_figures():
    """The benchmark's six zero-set figures: F4 types 1, 2, 7, 8 with
    the sign alternating, and the p0q0 representatives of B+4 and C-4,
    each on its default box at 49 samples."""
    seeds = dict(F4_SEEDS + f4_side_seeds())
    figures = [(F4P, Parameter.coerce(seeds[t])) if t % 2 else
               (F4M, f4_reduce(Parameter.coerce(seeds[t])))
               for t in (1, 2, 7, 8)]
    figures += [(sc, construct_representative(sc, BCSignature(0, 0)))
                for sc in map(SingularityClass.parse, ("B+4", "C-4"))]
    return [(sc, lam, replace(Viewport(-r, r, -r, r), samples=49))
            for sc, lam in figures
            for r in [default_viewport(sc, lam).xmax]]


def test_bench_figures_make_no_multipoly_eval(monkeypatch):
    # the Fraction sweep made 240 calls here, one per checked point
    figures = _bench_figures()
    calls = []
    original = MultiPoly.eval

    def counting(self, point):
        calls.append(point)
        return original(self, point)

    monkeypatch.setattr(MultiPoly, "eval", counting)
    svgs = [render_zero_set(*fig) for fig in figures]
    assert sum("<polyline" in svg for svg in svgs) == 5
    assert calls == []
