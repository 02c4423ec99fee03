"""Acceptance gate: one test per shipped guarantee, one line each.

Every test prints a single "[criterion N] PASS/FAIL" line straight to
the terminal (bypassing capture) before asserting, so a full run reads
as a checklist.  Budgeted criteria measure wall time and include it in
the line.

Criterion 4 is expected to fail: the stated c = 0 slice identity uses
(d + a^2/4) where the computed restriction carries (d - a^2/4).  The
test asserts the identity as stated and stays red rather than silently
testing the corrected sign; the corrected identity is covered by
test_render.py::test_slice_identity_at_a0_c0.
"""

import random
import time
from fractions import Fraction

from discatlas.exactpoly import (
    Interval,
    MultiPoly,
    UniPoly,
    _int_resultant,
    gcd_uni,
    restrict_to_segment,
    root_signature,
    sturm_count,
)
from elimination_oracle import squarefree_part_multi
from oracles import poly_from_roots, verify_against_table1
from test_render import boundary_crossings
from discatlas.models import (
    Membership,
    Parameter,
    SingularityClass,
    deformation_polynomial,
    discriminant_membership,
    f4_sigma0_eliminant,
    f4_sigma1_polynomial,
)
from discatlas.classify import (
    F4_SEEDS,
    NonGenericConfiguration,
    canonical_type_id,
    classify,
    f4_side_seeds,
    type_key,
)
from discatlas.atlas import (
    NotFound,
    PathCertificate,
    SamplingConfig,
    SegmentFailure,
    certify_path,
    certify_segment,
    construct_representative,
    enumerate_components,
    valid_signatures,
)
from discatlas.render import (
    curve_points,
    default_viewport,
    write_figure,
)

F = Fraction

BC_LABELS = [f"{fam}{s}{mu}" for fam in "BC" for s in "+-"
             for mu in range(2, 8)]


def emit(capsys, n: int, ok: bool, msg: str) -> None:
    with capsys.disabled():
        print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {msg}",
              flush=True)


def _rand_param(sc, rng, radius=5, den_bound=64):
    vals = []
    for _ in range(sc.parameter_count):
        den = rng.randint(1, den_bound)
        vals.append(F(rng.randint(-radius * den, radius * den), den))
    return Parameter.of(*vals)


# ---------------------------------------------------------------------------
# 1. component counts for the twelve B and twelve C classes


def test_criterion_1_bc_component_counts(capsys):
    worst = 0.0
    bad = []
    for label in BC_LABELS:
        sc = SingularityClass.parse(label)
        t0 = time.perf_counter()
        rep = enumerate_components(sc, SamplingConfig())
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        cmp_ = verify_against_table1(rep)
        if not (rep.match and cmp_["match"] and not cmp_["missing"]
                and not cmp_["extra"] and dt < 60.0):
            bad.append((label, len(rep.realized), rep.expected, dt))
    ok = not bad
    emit(capsys, 1, ok,
         f"24 B/C classes at default budget, exact Table counts, "
         f"worst class {worst:.1f}s"
         + ("" if ok else f"; failures: {bad}"))
    assert not bad


# ---------------------------------------------------------------------------
# 2. F4 component count at 1e5 samples


def test_criterion_2_f4_component_count(capsys):
    sc = SingularityClass.parse("F4+")
    t0 = time.perf_counter()
    rep = enumerate_components(sc, SamplingConfig(random_count=100_000))
    dt = time.perf_counter() - t0
    c0 = sorted(k for k, v in rep.realized.items()
                if v.get("representative_c0"))
    side_ok = all(
        canonical_type_id(classify(sc, lam)) == tid
        and f"type{tid}" in rep.realized
        for tid, lam in f4_side_seeds())
    ok = (rep.match and len(rep.realized) == 8
          and c0 == [f"type{i}" for i in range(1, 7)]
          and side_ok and dt < 600.0)
    emit(capsys, 2, ok,
         f"F4+ realizes {len(rep.realized)}/8 types at 1e5 samples in "
         f"{dt:.0f}s; {len(c0)} types have c=0 representatives; "
         f"edge seeds reach types 7 and 8: {side_ok}")
    assert ok


# ---------------------------------------------------------------------------
# 3. closed form for the tangency stratum


def test_criterion_3_sigma1_closed_form(capsys):
    sc = SingularityClass.parse("F4+")
    S = f4_sigma1_polynomial()
    rng = random.Random(303)
    mismatches = 0
    for _ in range(10_000):
        lam = _rand_param(sc, rng)
        closed_form_zero = S.eval(tuple(lam)) == 0
        member = discriminant_membership(sc, lam)
        reported = member in (Membership.SIGMA1, Membership.BOTH)
        if closed_form_zero != reported:
            mismatches += 1
    ok = mismatches == 0
    emit(capsys, 3, ok,
         f"membership vs sign of 27d^2+4b^3 on 10000 random rational "
         f"points, {mismatches} mismatches")
    assert ok


# ---------------------------------------------------------------------------
# 4. stated c=0 slice identity (red: the computed sign differs)


def test_criterion_4_sigma0_slice_identity_as_stated(capsys):
    E = f4_sigma0_eliminant()
    restricted = {}
    for (ea, eb, ec, ed), cf in E.terms.items():
        if ec == 0:
            key = (ea, eb, 0, ed)
            restricted[key] = restricted.get(key, F(0)) + cf
    E0 = MultiPoly(E.vars, restricted)
    sf = squarefree_part_multi(E0)

    a, b, c, d = MultiPoly.variables(E.vars)
    quarter = MultiPoly.constant(E.vars, F(1, 4))
    stated = (MultiPoly.constant(E.vars, 27) * (d + quarter * a ** 2) ** 2
              + MultiPoly.constant(E.vars, 4) * b ** 3)
    # proportionality up to a nonzero rational constant
    ratio = None
    proportional = True
    for e in set(sf.terms) | set(stated.terms):
        x, y = sf.terms.get(e), stated.terms.get(e)
        if x is None or y is None:
            proportional = False
            break
        if ratio is None:
            ratio = x / y
        elif x != ratio * y:
            proportional = False
            break
    computed = (MultiPoly.constant(E.vars, 27) * (d - quarter * a ** 2) ** 2
                + MultiPoly.constant(E.vars, 4) * b ** 3)
    note = ("computed restriction is proportional to "
            "27*(d - a^2/4)^2 + 4*b^3" if _proportional(sf, computed)
            else "computed restriction matches neither sign")
    emit(capsys, 4, proportional,
         f"squarefree part of the c=0 restriction vs "
         f"27*(d + a^2/4)^2 + 4*b^3: "
         f"{'proportional' if proportional else 'not proportional'} "
         f"({note})")
    assert proportional, note


def _proportional(P: MultiPoly, Q: MultiPoly) -> bool:
    if set(P.terms) != set(Q.terms):
        return False
    ratio = None
    for e, x in P.terms.items():
        y = Q.terms[e]
        if ratio is None:
            ratio = x / y
        elif x != ratio * y:
            return False
    return True


# ---------------------------------------------------------------------------
# 5. interior stratum vs the instantiated critical system


def test_criterion_5_sigma0_oracle_equivalence(capsys):
    E = f4_sigma0_eliminant()
    rng = random.Random(505)
    constructed_bad = 0
    for _ in range(500):
        x0 = F(rng.randint(-9, 9), rng.randint(1, 6))
        y0 = F(rng.randint(-9, 9), rng.randint(1, 6))
        c = F(rng.randint(-9, 9), rng.randint(1, 6))
        a = -2 * x0 - c * y0
        b = -3 * y0 ** 2 - c * x0
        d = -(x0 ** 2 + y0 ** 3 + a * x0 + b * y0 + c * x0 * y0)
        if E.eval((a, b, c, d)) != 0:
            constructed_bad += 1
    system_bad = 0
    for _ in range(500):
        a, b, c, d = (F(rng.randint(-6, 6), rng.randint(1, 3))
                      for _ in range(4))
        # critical-point system eliminated by hand: f and f_y after the
        # x = -(a+cy)/2 substitution, cleared of denominators
        e1 = UniPoly("y", [4 * d - a * a, 4 * b - 2 * a * c, -c * c, 4])
        e2 = UniPoly("y", [2 * b - a * c, -c * c, 6])
        if (gcd_uni(e1, e2).degree() > 0) != (E.eval((a, b, c, d)) == 0):
            system_bad += 1
    ok = constructed_bad == 0 and system_bad == 0
    emit(capsys, 5, ok,
         f"eliminant vanishes on {500 - constructed_bad}/500 constructed "
         f"critical-point parameters; gcd equivalence holds on "
         f"{500 - system_bad}/500 random points")
    assert ok


# ---------------------------------------------------------------------------
# 6. path certification


def _bucket_samples(sc, rng, want_keys, per_key, tries):
    buckets = {k: [] for k in sorted(want_keys)}
    for _ in range(tries):
        if all(len(v) >= per_key for v in buckets.values()):
            break
        lam = _rand_param(sc, rng)
        if discriminant_membership(sc, lam) is not Membership.NON_SINGULAR:
            continue
        try:
            key = type_key(classify(sc, lam))
        except NonGenericConfiguration:
            continue
        if key in buckets and len(buckets[key]) < per_key:
            buckets[key].append(lam)
    return buckets


def _jitter_fill(sc, rng, buckets, reps, per_key):
    for key, rep in reps.items():
        radius = F(1, 4)
        for _ in range(2000):
            if len(buckets[key]) >= per_key:
                break
            cand = Parameter.of(*[v + F(rng.randint(-64, 64), 64) * radius
                                  for v in rep])
            if discriminant_membership(sc, cand) is not \
                    Membership.NON_SINGULAR:
                continue
            try:
                if type_key(classify(sc, cand)) == key:
                    buckets[key].append(cand)
                else:
                    radius /= 2
            except NonGenericConfiguration:
                continue
        assert len(buckets[key]) >= per_key, (sc.label(), key)


def _class_reps(sc):
    if sc.family in ("B", "C"):
        return {sig.key(): construct_representative(sc, sig)
                for sig in valid_signatures(sc)}
    return {f"type{tid}": Parameter.coerce(lam)
            for tid, lam in F4_SEEDS + f4_side_seeds()}


def test_criterion_6_path_certification(capsys):
    t0 = time.perf_counter()
    pair_fail = []          # B/C must be perfect
    bc_total = 0
    f4_total = f4_ok = f4_inconclusive = 0
    cross_total = 0
    cross_fail = []
    for label in BC_LABELS + ["F4+"]:
        sc = SingularityClass.parse(label)
        rng = random.Random(f"pairs:{label}")
        reps = _class_reps(sc)
        per_key = 20
        buckets = _bucket_samples(sc, rng, list(reps), per_key, 600)
        _jitter_fill(sc, rng, buckets, reps, per_key)

        for key, pts in buckets.items():
            rng.shuffle(pts)
            for i in range(10):
                a, b = pts[2 * i], pts[2 * i + 1]
                if sc.family == "F4":
                    f4_total += 1
                    try:
                        cert = certify_path(sc, a, b)
                        assert isinstance(cert, PathCertificate)
                        f4_ok += 1
                    except NotFound:
                        f4_inconclusive += 1
                else:
                    bc_total += 1
                    try:
                        cert = certify_path(sc, a, b)
                        assert isinstance(cert, PathCertificate)
                    except Exception as e:
                        pair_fail.append((label, key, repr(e)))
                        break

        # 100 random cross-type straight segments must fail with witness
        keys = sorted(buckets)
        n_cross = 0
        idx = 0
        while n_cross < 100:
            k1 = keys[idx % len(keys)]
            k2 = keys[(idx + 1 + idx // len(keys)) % len(keys)]
            idx += 1
            if k1 == k2:
                continue
            a = buckets[k1][idx % len(buckets[k1])]
            b = buckets[k2][idx % len(buckets[k2])]
            res = certify_segment(sc, a, b)
            if not isinstance(res, SegmentFailure):
                cross_fail.append((label, k1, k2))
            n_cross += 1
        cross_total += n_cross
    dt = time.perf_counter() - t0
    f4_rate = f4_ok / f4_total if f4_total else 0.0
    ok = (not pair_fail and not cross_fail and f4_total == 80
          and f4_rate >= 0.95)
    emit(capsys, 6, ok,
         f"same-type pairs: B/C {bc_total - len(pair_fail)}/{bc_total} "
         f"certified, F4 {f4_ok}/{f4_total} certified "
         f"({f4_inconclusive} inconclusive); cross-type segments "
         f"{cross_total - len(cross_fail)}/{cross_total} refused with "
         f"witness; {dt:.0f}s")
    assert ok, (pair_fail[:5], cross_fail[:5], f4_rate)


# ---------------------------------------------------------------------------
# 7. kernel property suites at scale


def test_criterion_7_kernel_property_suites(capsys):
    rng = random.Random(707)
    sturm_bad = 0
    for _ in range(10_000):
        n_lin = rng.randint(1, 5)
        roots = [F(rng.randint(-8, 8), rng.randint(1, 3))
                 for _ in range(n_lin)]
        mults = [rng.randint(1, 2) for _ in range(n_lin)]
        n_quad = rng.randint(0, (10 - sum(mults)) // 2)
        p = UniPoly("x", [rng.choice([1, -1, 2, -3])])
        for r, m in zip(roots, mults):
            for _ in range(m):
                p = p * UniPoly("x", [-r, 1])
        for j in range(n_quad):
            p = p * UniPoly("x", [j + 1, 0, 1])
        distinct = sorted(set(roots))
        if sturm_count(p, Interval.real_line()) != len(distinct):
            sturm_bad += 1
            continue
        sig = root_signature(p)
        if (sig.neg != sum(1 for r in distinct if r < 0)
                or sig.pos != sum(1 for r in distinct if r > 0)):
            sturm_bad += 1

    res_bad = 0
    for _ in range(500):
        r1 = [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))]
        r2 = [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.5:
            r2[0] = r1[0]  # force a shared root half the time
        f = poly_from_roots("x", r1)
        g = poly_from_roots("x", r2)
        res = _int_resultant(f._int_coeffs()[0], g._int_coeffs()[0])
        if (res == 0) != (gcd_uni(f, g).degree() > 0):
            res_bad += 1

    E = f4_sigma0_eliminant()
    S = f4_sigma1_polynomial()
    restr_bad = 0
    for _ in range(200):
        a = tuple(F(rng.randint(-9, 9), rng.randint(1, 4))
                  for _ in range(4))
        b = tuple(F(rng.randint(-9, 9), rng.randint(1, 4))
                  for _ in range(4))
        for G in (E, S):
            r = restrict_to_segment(G, a, b)
            if r(0) != G.eval(a) or r(1) != G.eval(b):
                restr_bad += 1
    ok = sturm_bad == 0 and res_bad == 0 and restr_bad == 0
    emit(capsys, 7, ok,
         f"Sturm vs constructed roots 10000 cases ({sturm_bad} bad); "
         f"resultant vs gcd 500 cases ({res_bad} bad); restriction "
         f"endpoints 400 identities ({restr_bad} bad)")
    assert ok


# ---------------------------------------------------------------------------
# 8. rendering smoke over the eight representatives


def test_criterion_8_rendering_smoke(capsys, tmp_path):
    sc = SingularityClass.parse("F4+")
    bad = []
    for tid, lam in F4_SEEDS + f4_side_seeds():
        lam = Parameter.coerce(lam)
        path = write_figure(sc, lam, tmp_path)
        if not path.exists() or path.stat().st_size < 500:
            bad.append((tid, "file"))
            continue
        f = deformation_polynomial(sc, lam)
        vp = default_viewport(sc, lam)
        lines = curve_points(sc, lam, vp)
        if any(abs(f.eval((x, y))) >= F(1, 10 ** 6)
               for line in lines for x, y in line):
            bad.append((tid, "residual"))
        desc = classify(sc, lam)
        if boundary_crossings(lines) != len(desc.roots):
            bad.append((tid, "crossings"))
    ok = not bad
    emit(capsys, 8, ok,
         "8 representative figures rendered, residuals < 1e-6, "
         "crossing counts match descriptors"
         if ok else f"rendering failures: {bad}")
    assert ok, bad
