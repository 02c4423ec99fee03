"""Test oracles: the one home of test-only code the package does not run.

Two kinds of code live here.

- Helpers that tests build fixtures and expectations with:
  ``poly_from_roots``, the a-priori F4 descriptor space, the table-1
  key comparison, a Fraction long division, the dyadic square root and
  the grid abscissae.  No command needs them, so the package has none.
- ``reference_*``: frozen copies of code the runtime replaced, kept as
  they were written, so that a test can hold the replacement to the
  same answers on the same inputs.

Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from discatlas import exactpoly as ep
from discatlas.atlas import AtlasReport, SamplingConfig, valid_signatures
from discatlas.classify import F4Descriptor
from discatlas.exactpoly import (
    Interval,
    MultiPoly,
    UniPoly,
    isolate_real_roots,
    sturm_count,
)
from discatlas.models import (
    Parameter,
    SingularityClass,
    _bc_lead,
    _check_arity,
    boundary_polynomial,
    deformation_polynomial,
)
from discatlas.render import RESIDUAL_BOUND, Viewport, _MS_EDGES, _branch_end

F = Fraction


# ---------------------------------------------------------------------------
# test-only helpers


def poly_from_roots(var: str, roots, lead=1) -> UniPoly:
    """Monic-up-to-lead product of (var - r) over the given roots."""
    p = UniPoly(var, [lead])
    for r in roots:
        p = p * UniPoly(var, [-Fraction(r), 1])
    return p


def poly_divmod(p: UniPoly, d: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Quotient q and remainder r with p = q*d + r, deg r < deg d, by
    schoolbook long division in Fractions; d must be nonzero."""
    dc, dd = d.coeffs, d.degree()
    rem = list(p.coeffs)
    q = [F(0)] * max(len(rem) - dd, 0)
    for k in range(len(q) - 1, -1, -1):
        f = q[k] = rem[k + dd] / dc[-1]
        for i, c in enumerate(dc):
            rem[k + i] -= f * c
    return UniPoly(p.var, q), UniPoly(p.var, rem[:dd])


def candidate_descriptors() -> list[F4Descriptor]:
    """The a-priori descriptor space permitted by the local invariants.

    One or three transversal crossings; a crossed oval carries exactly
    the top two crossings; a sided oval carries none.  38 candidates;
    they quotient to the eight type ids of ``canonical_type_id``.
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


def verify_against_table1(report: AtlasReport) -> dict:
    """Compare a census against the expected component count.

    Missing keys are types every complete atlas must contain (all valid
    signatures for B/C, the eight ids for F4); extra keys would expose
    a classifier defect.
    """
    sc = SingularityClass.parse(report.label)
    if sc.family == "F4":
        expected = {f"type{i}" for i in range(1, 9)}
    else:
        expected = {sig.key() for sig in valid_signatures(sc)}
    got = set(report.realized)
    return {"match": report.match, "missing": sorted(expected - got),
            "extra": sorted(got - expected)}


def dyadic_sqrt(v: Fraction, bits: int = 40) -> Fraction:
    """Floor square root of v >= 0 as a dyadic rational, error < 2^-bits."""
    if v < 0:
        raise ValueError("negative radicand")
    n, d = v.numerator, v.denominator
    return Fraction(math.isqrt(n * d << (2 * bits)), d << bits)


def grid_xs(vp: Viewport) -> list[Fraction]:
    """The viewport's grid abscissae, as ``Viewport.ys`` gives ordinates."""
    n = vp.samples
    return [vp.xmin + (vp.xmax - vp.xmin) * Fraction(i, n - 1)
            for i in range(n)]


# ---------------------------------------------------------------------------
# census sampling and root-space waypoints (used by test_atlas.py)


def reference_bc_root_data(h, sig, bits):
    """The Fraction root data the integer ``_bc_root_data`` replaced:
    dyadic reals as Fractions, and the cofactor by long division
    by ``poly_from_roots``, remainder dropped."""
    scale = 1 << bits
    reals = [F(round(iv.midpoint() * scale), scale)
             for iv in isolate_real_roots(h, F(1, scale))]
    if sum(1 for r in reals if r < 0) != sig.p:
        return None
    if sum(1 for r in reals if r > 0) != sig.q:
        return None
    if any(reals[i] >= reals[i + 1] for i in range(len(reals) - 1)):
        return None
    rest = poly_divmod(h, poly_from_roots(h.var, reals))[0]
    if sturm_count(rest, Interval.real_line()) != 0:
        return None
    return reals, rest


def reference_lam_at(sc, reals, rest, sig, snap_bits):
    """The Fraction waypoint map the integer ``_bc_root_path`` replaced:
    ``poly_from_roots`` of the moved roots times the cofactor path, as
    UniPoly products, each coefficient snapped with ``round``."""
    mu = sc.mu
    var = rest.var
    target_reals = ([F(-i) for i in range(sig.p, 0, -1)]
                    + [F(j) for j in range(1, sig.q + 1)])
    target_rest = UniPoly(var, [_bc_lead(sc)])
    for m in range(1, rest.degree() // 2 + 1):
        target_rest = target_rest * UniPoly(var, [m, 0, 1])

    def lam_at(t):
        moved = [(1 - t) * r0 + t * r1 for r0, r1 in zip(reals, target_reals)]
        hpoly = (poly_from_roots(var, moved)
                 * (rest * (1 - t) + target_rest * t))
        cs = hpoly.coeffs
        if snap_bits is not None:
            scale = 1 << snap_bits
            cs = [F(round(c * scale), scale) for c in cs]
        return Parameter(tuple(cs[mu - k] for k in range(1, mu + 1)))

    return lam_at


def reference_sample_parameter(cfg: SamplingConfig, dim: int, index: int
                               ) -> Parameter:
    """The census sampler as it drew in Fractions.

    The runtime makes the same two randint calls per coordinate but
    returns an integer vector V and a common denominator den, building
    no Fraction; V / den must be these values.
    """
    rng = random.Random(f"{cfg.rng_seed}:{index}")
    r = cfg.box_radius
    vals = []
    for _ in range(dim):
        den = rng.randint(1, cfg.denominator_bound)
        bound = int(r * den)
        vals.append(Fraction(rng.randint(-bound, bound), den))
    return Parameter(tuple(vals))


def reference_nudge(V, den, jitter_tag) -> Parameter:
    """The census nudge off the F4 label wall as it was written in
    Fractions: each entry moves by +-randint(1, 64)/4096."""
    rng = random.Random(jitter_tag)
    return Parameter(tuple(
        Fraction(v, den) + Fraction(rng.randint(1, 64), 4096)
        * (1 if rng.random() < 0.5 else -1)
        for v in V))


# ---------------------------------------------------------------------------
# Sturm chains, isolation and bisection (used by test_exactpoly.py)


def reference_pseudo_rem_signed(a, b):
    """Pseudo-remainder of a by b scaled by a positive constant: the
    exact pseudo-remainder lc(b)^(deg a - deg b + 1) times the rational
    remainder, negated when that multiplier is negative."""
    a = ep._int_trim(list(a))
    if len(a) < len(b):
        return a
    r = ep._int_pseudo_rem(a, b)
    if b[-1] < 0 and (len(a) - len(b)) % 2 == 0:
        r = [-c for c in r]
    return r


def reference_sturm_chain_int(cs):
    """The Sturm chain as it was built before the fused loop: primitive
    part and derivative, then signed pseudo-remainders, each stripped
    of its content and negated, through the standalone helpers."""
    chain = [ep._int_primitive(cs)]
    d = ep._int_trim(ep._int_derivative(chain[0]))
    if d:
        chain.append(ep._int_primitive(d))
    while len(chain[-1]) > 1:
        r = reference_pseudo_rem_signed(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in ep._int_primitive(r)])
    return chain


def reference_root_signature(cs):
    """``_int_root_signature`` with one variation pass per point: the
    chain's signs at 0, at -oo and at +oo, each counted separately."""
    k = 0
    while cs[k] == 0:
        k += 1
    chain = reference_sturm_chain_int(cs[k:])
    v0 = ep._variations(ep._sign(q[0]) for q in chain)
    return ep.RootSignature(
        neg=ep._chain_variations_inf(chain, False) - v0,
        pos=v0 - ep._chain_variations_inf(chain, True),
        zero_is_root=k > 0,
        is_squarefree=k <= 1 and len(chain[-1]) == 1,
    )


def _in_window(w: Interval, x: Fraction) -> bool:
    return ((w.lo is None or x > w.lo or (x == w.lo and not w.lo_open))
            and (w.hi is None or x < w.hi or (x == w.hi and not w.hi_open)))


def reference_isolate(p: UniPoly, max_width, interval: Interval):
    """Whole-line isolation that evaluates the whole Sturm chain at every
    midpoint, pruned to the subtrees that meet ``interval``.

    The runtime bisects a subtree that holds one root on the sign of
    the squarefree part alone; this keeps the full-chain bisection it
    replaced, so on the real line both must give the same intervals.
    On a window it returns the whole-line intervals that meet it.
    """
    max_width = F(max_width)
    cs, _ = p._int_coeffs()
    if len(cs) <= 1:
        return []
    out = []

    def meets(lo, hi):
        return ((interval.lo is None or hi > interval.lo)
                and (interval.hi is None or lo < interval.hi))

    def split(cs, chain, lo, hi, vlo, vhi):
        n = vlo - vhi
        if n == 0 or not meets(lo, hi):
            return
        if n == 1 and hi - lo <= max_width:
            out.append(Interval.open(lo, hi))
            return
        mid = (lo + hi) / 2
        if ep._int_sign_at(cs, mid) == 0:
            if _in_window(interval, mid):
                out.append(Interval.point(mid))
            cs = ep._deflate_root(cs, mid)
            if len(cs) <= 1:
                return
            chain = ep._sturm_chain_int(cs)
            vlo = ep._chain_variations(chain, lo)
            vhi = ep._chain_variations(chain, hi)
        vmid = ep._chain_variations(chain, mid)
        split(cs, chain, lo, mid, vlo, vmid)
        split(cs, chain, mid, hi, vmid, vhi)

    chain = ep._sturm_chain_int(cs)
    g = chain[-1]
    bound = ep._cauchy_bound(chain[0] if len(g) == 1
                             else ep._int_divide_exact(chain[0], g))
    split(chain[0], chain, -bound, bound, ep._chain_variations(chain, -bound),
          ep._chain_variations(chain, bound))
    out.sort(key=lambda iv: (iv.lo, iv.hi))
    return out


def reference_bisect_one(sf, lo, hi, max_width):
    """The Fraction bisection the integer ``_bisect_one`` replaced, with
    signs read from Fraction evaluation of sf: each midpoint is
    (lo + hi) / 2 in lowest terms."""
    val = UniPoly("x", sf)
    if hi - lo <= max_width:
        return Interval.open(lo, hi)
    slo = val(lo) > 0
    while hi - lo > max_width:
        mid = (lo + hi) / 2
        vm = val(mid)
        if vm == 0:
            return Interval.point(mid)
        if (vm > 0) == slo:
            lo = mid
        else:
            hi = mid
    return Interval.open(lo, hi)


# ---------------------------------------------------------------------------
# the per-family constructions (used by test_models.py)


# The three per-family constructions the term table replaced, kept as
# they were written: the normal form as text, f at lambda through ring
# operations, and f over the parameters through monomial closures.


def reference_normal_form_text(sc: SingularityClass) -> str:
    if sc.family == "F4":
        return "x^2 + y^3" if sc.sign > 0 else "-x^2 + y^3"
    if sc.family == "B":
        if sc.is_even:
            return f"x^{sc.mu} {'+' if sc.sign > 0 else '-'} y^2"
        return (f"x^{sc.mu} + y^2" if sc.sign > 0
                else f"-x^{sc.mu} - y^2")
    if sc.is_even:
        return f"x*y {'+' if sc.sign > 0 else '-'} y^{sc.mu}"
    return (f"x*y + y^{sc.mu}" if sc.sign > 0
            else f"-x*y - y^{sc.mu}")


def reference_deformation_polynomial(sc: SingularityClass, lam) -> MultiPoly:
    lam = _check_arity(sc, Parameter.coerce(lam))
    x, y = MultiPoly.variables(("x", "y"))
    if sc.family == "F4":
        a, b, c, d = lam
        return (sc.sign * x * x + y ** 3 + a * x + b * y + c * x * y
                + MultiPoly.constant(("x", "y"), d))
    h = boundary_polynomial(sc, lam)
    if sc.family == "B":
        hx = sum((MultiPoly(("x", "y"), {(i, 0): c})
                  for i, c in enumerate(h.coeffs) if c != 0),
                 MultiPoly(("x", "y"), {}))
        return hx + sc.sign * y * y
    hy = sum((MultiPoly(("x", "y"), {(0, i): c})
              for i, c in enumerate(h.coeffs) if c != 0),
             MultiPoly(("x", "y"), {}))
    sxy = 1 if sc.is_even else sc.sign
    return sxy * x * y + hy


def reference_deformation_generic(sc: SingularityClass) -> MultiPoly:
    names = ("x", "y") + sc.parameter_names

    def mono(**exps) -> tuple[int, ...]:
        return tuple(exps.get(nm, 0) for nm in names)

    terms: dict[tuple[int, ...], Fraction] = {}

    def add(e, c):
        terms[e] = terms.get(e, Fraction(0)) + Fraction(c)

    if sc.family == "F4":
        add(mono(x=2), sc.sign)
        add(mono(y=3), 1)
        add(mono(x=1, a=1), 1)
        add(mono(y=1, b=1), 1)
        add(mono(x=1, y=1, c=1), 1)
        add(mono(d=1), 1)
        return MultiPoly(names, terms)
    mu = sc.mu
    main = "x" if sc.family == "B" else "y"
    lead = (1 if sc.is_even else sc.sign) if sc.family == "B" else sc.sign
    add(mono(**{main: mu}), lead)
    for i in range(1, mu + 1):
        add(mono(**{main: mu - i, f"l{i}": 1}), 1)
    if sc.family == "B":
        add(mono(y=2), sc.sign)
    else:
        add(mono(x=1, y=1), 1 if sc.is_even else sc.sign)
    return MultiPoly(names, terms)


# ---------------------------------------------------------------------------
# branch ends, contours and curve points (used by test_render.py)


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


def reference_curve_points(sc, lam, vp):
    """``curve_points`` in Fraction arithmetic, as the sweep once ran.

    Sweep values are ``grid_xs(vp)``/``vp.ys()``, dom(t) is a Fraction, its
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
        two_sheets(UniPoly("x", [-sc.sign * c for c in h.coeffs]), grid_xs(vp),
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
