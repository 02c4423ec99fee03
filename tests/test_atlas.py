"""Component enumeration and exact path certification.

Certificates are the load-bearing artifact: a segment proof is the
restricted product of the stratum polynomials together with a zero
root count (Descartes bisection) on the closed unit interval, so
every claim here reduces to integer arithmetic that the kernel tests
already pin down.
"""

import copy
import importlib
import json
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from discatlas.exactpoly import (
    Interval,
    UniPoly,
    _interpolate,
    discriminant,
    restrict_to_segment,
    sturm_count,
)
from discatlas.atlas import (
    AtlasReport,
    DiscriminantEndpoint,
    InvalidSignature,
    NotFound,
    PathCertificate,
    SamplingConfig,
    SegmentFailure,
    TypeMismatch,
    certify_path,
    certify_segment,
    construct_representative,
    enumerate_components,
    valid_signatures,
)
from discatlas.classify import (
    BCSignature,
    classify,
    type_key,
)
from discatlas.cli import run
from discatlas.models import (
    Membership,
    Parameter,
    SingularityClass,
    _int_strata,
    boundary_polynomial,
    discriminant_membership,
    f4_reduce,
    f4_sigma0_eliminant,
    f4_sigma1_polynomial,
    segment_strata,
    stratum_values,
)
from oracles import (
    reference_bc_root_data,
    reference_lam_at,
    reference_nudge,
    reference_sample_parameters,
    verify_against_table1,
)

atlas_mod = importlib.import_module("discatlas.atlas")
exactpoly_mod = importlib.import_module("discatlas.exactpoly")

F = Fraction
B2 = SingularityClass("B", 2, 1)
F4P = SingularityClass("F4", 4, 1)

ALL_BC_LABELS = [f"{fam}{s}{mu}" for fam in "BC" for s in "+-"
                 for mu in range(2, 8)]


# ---------------------------------------------------------------------------
# representatives


def test_construct_representative_examples():
    assert construct_representative(B2, BCSignature(1, 1)).values == (F(0), F(-1))
    assert construct_representative(B2, BCSignature(0, 0)).values == (F(0), F(1))
    lam = construct_representative(SingularityClass("B", 3, 1),
                                   BCSignature(1, 2))
    assert lam.values == (F(-2), F(-1), F(2))


def test_construct_representative_rejects_bad_signatures():
    with pytest.raises(InvalidSignature):
        construct_representative(B2, BCSignature(1, 0))  # parity
    with pytest.raises(InvalidSignature):
        construct_representative(B2, BCSignature(2, 2))  # bound


def test_valid_signature_counts_match_table1():
    for label in ALL_BC_LABELS:
        sc = SingularityClass.parse(label)
        assert len(valid_signatures(sc)) == sc.expected_component_count()


def test_representative_roundtrip_all_classes():
    for label in ALL_BC_LABELS:
        sc = SingularityClass.parse(label)
        for sig in valid_signatures(sc):
            lam = construct_representative(sc, sig)
            assert discriminant_membership(sc, lam) is Membership.NON_SINGULAR
            got = classify(sc, lam)
            assert (got.p, got.q) == (sig.p, sig.q)


# ---------------------------------------------------------------------------
# segment certification


def test_certify_segment_success_example():
    res = certify_segment(B2, (0, -1), (0, -4))
    assert isinstance(res, PathCertificate)
    assert len(res.segments) == 1
    proof = res.segments[0]
    # disc(x^2 - (1+3t)) * h(0) = 4(1+3t) * (-(1+3t)) = -(36t^2+24t+4)
    assert proof.polynomial == UniPoly("t", [-4, -24, -36])
    assert proof.roots_in_segment == 0
    assert sturm_count(proof.polynomial, Interval.closed(0, 1)) == 0


def test_certify_segment_failure_example():
    res = certify_segment(B2, (0, -1), (0, 1))
    assert isinstance(res, SegmentFailure)
    # h(0) = -1 + 2t crosses at t = 1/2
    iv = res.witness
    assert iv.lo <= F(1, 2) <= iv.hi
    assert res.polynomial(F(1, 2)) == 0


def test_certify_segment_degenerate():
    res = certify_segment(B2, (0, -1), (0, -1))
    assert isinstance(res, PathCertificate)
    assert all(p.roots_in_segment == 0 for p in res.segments)


def test_certify_segment_rejects_discriminant_endpoint():
    with pytest.raises(DiscriminantEndpoint):
        certify_segment(B2, (0, 0), (0, -1))
    with pytest.raises(DiscriminantEndpoint):
        certify_segment(B2, (0, -1), (0, 0))


def newton_interpolate(nodes, values) -> UniPoly:
    """Newton divided-difference interpolation in Fraction arithmetic.

    The oracle for exactpoly._interpolate, which works in integers on
    the nodes 0, 1, ..., n - 1.
    """
    n = len(nodes)
    coef = list(values)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (nodes[i] - nodes[i - j])
    poly = UniPoly("t", [])
    for i in range(n - 1, -1, -1):
        poly = poly * UniPoly("t", [-nodes[i], 1]) + UniPoly("t", [coef[i]])
    return poly


def test_integer_interpolation_matches_newton():
    rng = random.Random(23)
    for n in range(1, 16):
        vals = [F(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(n)]
        cs, den = _interpolate(vals)
        assert UniPoly("t", [F(c, den) for c in cs]) \
            == newton_interpolate([F(k) for k in range(n)], vals)


def test_bc_segment_polynomial_degree_bound():
    # 2*mu nodes suffice: interpolating disc(h_t) * h_t(0) at one node
    # more gives the same polynomial on random segments up to mu = 8,
    # on endpoints whose denominators differ (7 and 1024) and on a
    # segment with a == b
    rng = random.Random(19)
    extra = random.Random(29)

    def point(sc, den):
        return Parameter.of(*[F(extra.randint(-9 * den, 9 * den), den)
                              for _ in range(sc.mu)])

    for label in ("B+2", "B-3", "C+5", "C-6", "B+7", "C-8"):
        sc = SingularityClass.parse(label)
        segs = [tuple(Parameter.of(*[F(rng.randint(-9, 9), rng.randint(1, 4))
                                     for _ in range(sc.mu)])
                      for _ in range(2)) for _ in range(3)]
        segs.append((point(sc, 7), point(sc, 1024)))
        same = point(sc, 5)
        segs.append((same, same))
        for a, b in segs:
            nodes = [F(k) for k in range(2 * sc.mu + 1)]
            vals = []
            for t in nodes:
                h = boundary_polynomial(sc, atlas_mod._lerp(a, b, t))
                vals.append(discriminant(h) * h.constant_term())
            assert atlas_mod._segment_polynomial(sc, a, b) \
                == newton_interpolate(nodes, vals)


@pytest.mark.parametrize("label", ["F4+", "F4-"])
def test_f4_segment_polynomial_matches_restriction(label):
    # the symbolic restriction of Delta_0 and Sigma_1 at the plus-class
    # reductions of the endpoints is the reference; the later segments
    # put both endpoints on c = 0 and draw denominators up to 1024
    sc = SingularityClass.parse(label)
    rng = random.Random(f"f4seg:{label}")
    segs = [tuple(Parameter.of(*[F(rng.randint(-9, 9), rng.randint(1, 6))
                                 for _ in range(4)]) for _ in range(2))
            for _ in range(8)]
    for flat in (False, True, True, False, True):
        ends = []
        for _ in range(2):
            vals = []
            for _ in range(4):
                den = rng.choice([1, 3, 1024, rng.randint(1, 1024)])
                vals.append(F(rng.randint(-9 * den, 9 * den), den))
            if flat:
                vals[2] = F(0)
            ends.append(Parameter.of(*vals))
        segs.append(tuple(ends))
    for a, b in segs:
        ra, rb = (tuple(f4_reduce(p) if sc.sign < 0 else p) for p in (a, b))
        want = (restrict_to_segment(f4_sigma0_eliminant(), ra, rb)
                * restrict_to_segment(f4_sigma1_polynomial(), ra, rb))
        assert atlas_mod._segment_polynomial(sc, a, b) == want


CORPUS = json.loads((Path(__file__).parent.parent / "perfbench"
                     / "path_corpus.json").read_text())


def test_segment_strata_product_is_certificate_polynomial_on_corpus():
    # every same-type pair and cross-type segment of the frozen path
    # corpus: the product of the two segment strata, the polynomial the
    # certificate stores, equals the interpolant of Sigma0 * Sigma1 from
    # stratum_values at one node more than its degree bound (2*mu - 1
    # for B/C, 7 + 3 for F4)
    segs = [(label, a, b) for label, entry in CORPUS["classes"].items()
            for a, b in [p[1:] for p in entry["pairs"]]
            + [c[2:] for c in entry["cross"]]]
    assert len(segs) == 304
    for label, a, b in segs:
        sc = SingularityClass.parse(label)
        a, b = (Parameter(tuple(F(v) for v in p)) for p in (a, b))
        (c0, d0), (c1, d1) = segment_strata(sc, a, b)
        product = UniPoly("t", [F(c0i, d0) for c0i in c0]) \
            * UniPoly("t", [F(c1i, d1) for c1i in c1])
        nodes = [F(k) for k in range(
            12 if sc.family == "F4" else 2 * sc.mu + 1)]
        vals = []
        for t in nodes:
            s0, s1 = stratum_values(sc, atlas_mod._lerp(a, b, t))
            vals.append(s0 * s1)
        assert product == newton_interpolate(nodes, vals), (label, a, b)
        assert atlas_mod._segment_polynomial(sc, a, b) == product


def test_bc_segment_strata_take_one_resultant_below_the_cutoff(monkeypatch,
                                                               capsys):
    # every B/C segment_strata call of the path pins' certify calls: one
    # packed _int_resultant below the cutoff, one per node (2*mu - 1)
    # above it; a count, so nothing here depends on timing
    models_mod = importlib.import_module("discatlas.models")
    pins = json.loads((Path(__file__).parent
                       / "certify_path_pins.json").read_text())
    resultants = [0]
    seen = []
    real_resultant = models_mod._int_resultant
    real_strata = atlas_mod.segment_strata

    def counted_resultant(a, b):
        resultants[0] += 1
        return real_resultant(a, b)

    def counted_strata(sc, start, end):
        resultants[0] = 0
        out = real_strata(sc, start, end)
        line, den = models_mod._segment_line(sc, start, end)
        nodes = 2 * sc.mu - 1
        packed = (models_mod._kronecker_bits(sc, line, den) * nodes
                  <= models_mod._KRONECKER_MAX_BITS)
        seen.append((resultants[0], 1 if packed else nodes))
        return out

    monkeypatch.setattr(models_mod, "_int_resultant", counted_resultant)
    monkeypatch.setattr(atlas_mod, "segment_strata", counted_strata)
    for pin in pins:
        argv = pin["argv"].split()
        if argv[1][0] in "BC":
            assert run(argv) == pin["exit"]
    capsys.readouterr()
    assert [got for got, _ in seen] == [want for _, want in seen]
    # 11 = 2*6 - 1: some mu = 6 segments of the pins pass the cutoff
    assert {want for _, want in seen} == {1, 11}


def test_segment_proof_text_builds_no_fraction(monkeypatch):
    # certificate text is written from the integer pair UniPoly holds
    proofs = [
        certify_segment(B2, (0, -1), (0, -4)).segments[0],
        *certify_path(SingularityClass.parse("F4-"),
                      ("49179/16384", "-8173/8192", "8187/2048", "-3077/8192"),
                      ("49191/16384", "-16431/16384", "8193/2048",
                       "-6195/16384")).segments,
    ]
    want = [proof.json_obj() for proof in proofs]
    assert all("/" in w["polynomial"] for w in want[1:])
    built = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    got = [proof.json_obj() for proof in proofs]
    monkeypatch.undo()
    assert got == want and built == []


def test_bits_ladder_decides_each_segment_once(monkeypatch, capsys):
    # the item-4 defect pair climbs all three rungs of the bits ladder,
    # whose waypoints repeat nine segments from (0, 8, 0, 16); each is
    # decided once, and the pair still ends inconclusive
    seen = []
    real_strata = atlas_mod.segment_strata

    def counted_strata(sc, start, end):
        seen.append((sc.label(), Parameter.coerce(start).values,
                     Parameter.coerce(end).values))
        return real_strata(sc, start, end)

    monkeypatch.setattr(atlas_mod, "segment_strata", counted_strata)
    assert run("certify B+4 0 8 0 16 0 5 0 4".split()) == 3
    capsys.readouterr()
    assert seen and len(seen) == len(set(seen))


def test_certify_segment_unisolated_crossing_is_inconclusive(monkeypatch):
    monkeypatch.setattr(atlas_mod, "isolate_real_roots",
                        lambda poly, width, window: [])
    with pytest.raises(NotFound):
        certify_segment(B2, (0, -1), (0, 1))


@pytest.mark.parametrize("label, a, b", [
    # the first B+3 and F4+ cross-type pairs of perfbench/path_corpus.json
    ("B+3", ("-49/27", "-31/10", "-21/13"), ("-192/43", "134/27", "-4/21")),
    ("F4+", ("-122/49", "-5", "-218/47", "-5"),
     ("-11/18", "-17/6", "49/13", "-48/35")),
])
def test_certify_segment_refusal_builds_one_sturm_chain(monkeypatch, label,
                                                        a, b):
    # a refusal once built exactly one chain, the segment polynomial's own;
    # the Descartes bisection on [0, 1] now builds none, a stronger bound
    built = []
    chain_int = exactpoly_mod._sturm_chain_int

    def counting(cs):
        built.append(len(cs))
        return chain_int(cs)

    monkeypatch.setattr(exactpoly_mod, "_sturm_chain_int", counting)
    res = certify_segment(SingularityClass.parse(label),
                          tuple(map(F, a)), tuple(map(F, b)))
    assert isinstance(res, SegmentFailure)
    assert built == []


def test_certify_segment_refusal_builds_no_sturm_chain(monkeypatch):
    # every cross-type segment of perfbench/path_corpus.json: the zero
    # count and the witness come from Descartes bisection on [0, 1] of
    # the segment polynomial itself, which settles within the depth
    # bound, so no chain is built; each witness is a dyadic subinterval
    # of [0, 1] of width <= 1/128
    built = []
    chain_int = exactpoly_mod._sturm_chain_int

    def counting(cs):
        built.append(len(cs))
        return chain_int(cs)

    monkeypatch.setattr(exactpoly_mod, "_sturm_chain_int", counting)
    refusals = 0
    for label, entry in CORPUS["classes"].items():
        sc = SingularityClass.parse(label)
        for _, _, a, b in entry["cross"]:
            res = certify_segment(sc, tuple(map(F, a)), tuple(map(F, b)))
            assert isinstance(res, SegmentFailure), (label, a, b)
            w = res.witness
            assert 0 <= w.lo <= w.hi <= 1 and w.hi - w.lo <= F(1, 128)
            for end in (w.lo, w.hi):
                assert end.denominator & (end.denominator - 1) == 0
            assert sturm_count(res.polynomial, w) == 1
            refusals += 1
    assert refusals == 52
    assert built == []


def test_certify_segment_same_type_builds_no_sturm_chain(monkeypatch):
    # the straight segment of every same-type pair of the corpus: the
    # bisection settles on the segment polynomial itself whether the
    # segment is certified or refused, so the squarefree restart never
    # runs; a depth bound too small for these trees would build chains
    built = []
    chain_int = exactpoly_mod._sturm_chain_int

    def counting(cs):
        built.append(len(cs))
        return chain_int(cs)

    monkeypatch.setattr(exactpoly_mod, "_sturm_chain_int", counting)
    kinds = []
    for label, entry in CORPUS["classes"].items():
        sc = SingularityClass.parse(label)
        for _, a, b in entry["pairs"]:
            res = certify_segment(sc, tuple(map(F, a)), tuple(map(F, b)))
            kinds.append(type(res))
    assert kinds.count(PathCertificate) == 239
    assert kinds.count(SegmentFailure) == 13
    assert built == []


@pytest.mark.parametrize("label", ["F4+", "F4-"])
def test_f4_census_builds_no_sturm_chain(monkeypatch, label):
    # an oval's two points come from g's critical points and the
    # crossings are counted by Descartes' rule, so the F4 census builds
    # no chain; isolating g's roots on the whole line built 64 and 63
    built = []
    chain_int = exactpoly_mod._sturm_chain_int

    def counting(cs):
        built.append(len(cs))
        return chain_int(cs)

    monkeypatch.setattr(exactpoly_mod, "_sturm_chain_int", counting)
    rep = enumerate_components(SingularityClass.parse(label),
                               SamplingConfig(random_count=250))
    assert rep.total_samples > 250 and len(rep.realized) == 8
    assert built == []


def test_certificates_pickle_and_deepcopy():
    # a worker pool could return either result kind: both survive pickle
    # and copy.deepcopy, polynomials included
    fail = certify_segment(B2, (0, -1), (0, 1))
    cert = certify_segment(B2, (0, -1), (0, -4))
    assert isinstance(fail, SegmentFailure)
    assert isinstance(cert, PathCertificate)
    for obj in (fail, cert):
        for back in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            assert back == obj
            assert back.json_obj() == obj.json_obj()


def test_certify_segment_f4():
    # two type-1 points connected inside one component
    res = certify_segment(F4P, (1, 1, 0, 0), (2, 1, 0, 1))
    assert isinstance(res, PathCertificate)
    # cross-type straight segment must fail with a witness
    res = certify_segment(F4P, (1, 1, 0, 0), (1, -1, 0, 0))
    assert isinstance(res, SegmentFailure)
    assert res.polynomial(res.witness.lo) * res.polynomial(res.witness.hi) <= 0


# ---------------------------------------------------------------------------
# path certification


def _check_interior(sc, cert, want_key):
    # 32 interior points per segment stay nonsingular with the same type
    for proof in cert.segments:
        a, b = proof.start, proof.end
        # a reflected leg stores exactly what a forward recount gives
        assert proof == certify_segment(sc, a, b).segments[0]
        for i in range(1, 33):
            t = F(i, 33)
            lam = Parameter.of(*[(1 - t) * x + t * y
                                 for x, y in zip(a, b)])
            assert discriminant_membership(sc, lam) is Membership.NON_SINGULAR
            assert type_key(classify(sc, lam)) == want_key


def test_certify_path_single_segment_when_straight_works():
    cert = certify_path(B2, (0, -1), (0, -4))
    assert len(cert.segments) == 1
    assert [w.text_list() for w in cert.waypoints] == [["0", "-1"], ["0", "-4"]]


def test_certify_path_b4_same_type_pair():
    sc = SingularityClass("B", 4, 1)
    # two (2,2) parameters with different root layouts
    a = Parameter.of(1, -7, -1, 6)            # roots -3, -1, 1, 2
    h = [F(0), F(-5), F(0), F(4)]             # (x^2-1)(x^2-4): roots -2,-1,1,2
    b = Parameter.of(*h)
    cert = certify_path(sc, a, b)
    assert isinstance(cert, PathCertificate)
    assert cert.waypoints[0].values == a.values
    assert cert.waypoints[-1].values == b.values
    for proof in cert.segments:
        assert proof.roots_in_segment == 0
    _check_interior(sc, cert, "p2q2")


def test_certify_path_with_complex_pairs():
    sc = SingularityClass("B", 4, -1)
    sigs = valid_signatures(sc)
    sig = next(s for s in sigs if s.p + s.q == 2)
    a = construct_representative(sc, sig)
    # jitter into the same component, then certify back
    b = Parameter.of(*[v + F(1, 9) * ((-1) ** i)
                       for i, v in enumerate(a)])
    if discriminant_membership(sc, b) is not Membership.NON_SINGULAR:
        b = Parameter.of(*[v + F(1, 17) for v in a])
    assert type_key(classify(sc, b)) == sig.key()
    cert = certify_path(sc, a, b)
    _check_interior(sc, cert, sig.key())


def test_certify_path_homotopy_with_two_complex_pairs():
    # p1q0 in C+5: h has two complex pairs, so the homotopy moves a
    # degree-4 cofactor onto (y^2 + 1)(y^2 + 2); the straight segment
    # crosses the discriminant, so both legs are built
    sc = SingularityClass.parse("C+5")
    a = Parameter.of(-1, F(2, 7), F(13, 6), 6, F(28, 9))
    b = Parameter.of(F(13, 3), 3, F(25, 8), 6, F(10, 3))
    assert isinstance(certify_segment(sc, a, b), SegmentFailure)
    cert = certify_path(sc, a, b)
    assert cert.waypoints[0] == a and cert.waypoints[-1] == b
    assert len(cert.waypoints) > 2
    # both legs end on the representative, so the segments chain
    assert all(s.end == n.start
               for s, n in zip(cert.segments, cert.segments[1:]))
    _check_interior(sc, cert, "p1q0")


def test_certify_path_waypoint_on_discriminant_is_refused(monkeypatch,
                                                          capsys):
    # a homotopy waypoint with h(0) = 0 lies on Sigma1; the search
    # refuses the segments that meet it instead of blaming the input
    sc = SingularityClass("B", 3, 1)
    argv = ["-4", "2", "-1", "-2", "4", "-1"]
    root_path = atlas_mod._bc_root_path
    hits = []

    def through_sigma1(*args):
        lam_at = root_path(*args)

        def moved(t):
            lam = lam_at(t)
            if t == F(1, 2):
                lam = Parameter(lam.values[:-1] + (F(0),))
                hits.append(lam)
            return lam

        return moved

    monkeypatch.setattr(atlas_mod, "_bc_root_path", through_sigma1)
    # p0q1 pair whose straight segment crosses the discriminant
    assert run(["certify", "B+3", *argv]) in (0, 3)
    assert capsys.readouterr().err == ""
    try:
        cert = certify_path(sc, argv[:3], argv[3:])
    except NotFound:
        cert = None
    assert hits
    for lam in hits:
        assert boundary_polynomial(sc, lam)(0) == 0
        assert discriminant_membership(sc, lam) is not Membership.NON_SINGULAR
    if cert is not None:
        assert not set(hits) & set(cert.waypoints)
        _check_interior(sc, cert, "p0q1")


def test_certify_path_type_mismatch():
    with pytest.raises(TypeMismatch):
        certify_path(B2, (0, -1), (0, 1))
    with pytest.raises(TypeMismatch):
        certify_path(F4P, (1, 1, 0, 0), (1, -1, 0, 0))


def test_certify_path_f4_type1_pair():
    cert = certify_path(F4P, (1, 1, 0, 0), (F(1, 2), 2, F(-1, 3), 1))
    assert isinstance(cert, PathCertificate)
    _check_interior(F4P, cert, "type1")


def test_certify_path_f4_deterministic():
    a, b = (1, 1, 0, 0), (F(1, 2), 2, F(-1, 3), 1)
    c1 = certify_path(F4P, a, b, rng_seed=3)
    c2 = certify_path(F4P, a, b, rng_seed=3)
    assert c1 == c2


def test_path_certificate_json_shape():
    cert = certify_path(B2, (0, -1), (0, -4))
    obj = cert.json_obj()
    assert obj["class"] == "B+2"
    assert obj["certified"] is True
    assert obj["waypoints"][0] == ["0", "-1"]
    seg = obj["segments"][0]
    assert seg["roots_in_unit_interval"] == 0
    assert seg["polynomial"] == "-36*t^2 - 24*t - 4"


# ---------------------------------------------------------------------------
# root-space waypoints in integers


BC_RUNGS = ((24, 32), (80, None), (200, None))
DYADIC_TS = [F(k, 8) for k in range(9)] + [F(5, 32), F(201, 256)]


def _same_root_data(sc, lam):
    # the integer root data and waypoints of lam against the Fraction
    # reference, on every rung of the bits ladder; returns the rungs
    # whose data exist
    h = boundary_polynomial(sc, lam)
    sig = classify(sc, lam)
    sig = BCSignature(sig.p, sig.q)
    used = []
    for bits, snap in BC_RUNGS:
        ref = reference_bc_root_data(h, sig, bits)
        got = atlas_mod._bc_root_data(h, sig, bits)
        assert (got is None) == (ref is None), (sc.label(), bits)
        if got is None:
            continue
        reals, (cs, den) = got
        assert [F(r, 1 << bits) for r in reals] == ref[0]
        assert UniPoly(h.var, [F(c, den) for c in cs]) == ref[1]
        lam_at = atlas_mod._bc_root_path(sc, reals, (cs, den), sig, bits, snap)
        ref_at = reference_lam_at(sc, *ref, sig, snap)
        for t in DYADIC_TS:
            assert lam_at(t) == ref_at(t), (sc.label(), bits, t)
        used.append(bits)
    return used


def test_waypoints_match_fraction_reference_on_corpus():
    # the start of every B/C same-type pair of perfbench/path_corpus.json,
    # one pair per signature, on every rung: reals, cofactor and the
    # waypoints at t = k/2^j equal the Fraction reference's
    rungs, starts = set(), 0
    for label, entry in CORPUS["classes"].items():
        if label.startswith("F4"):
            continue
        sc = SingularityClass.parse(label)
        for _, start, _ in entry["pairs"]:
            rungs.update(_same_root_data(
                sc, Parameter.coerce([F(v) for v in start])))
            starts += 1
    assert starts == 188
    assert rungs == {24, 80, 200}


@pytest.mark.parametrize("k", [4, 5, -5, -6])
def test_waypoint_snap_ties_round_half_to_even(k):
    # rest = x^2 + (2k + 1)/2^33 * x + 1: at t = 0 the waypoint is rest,
    # and its x coefficient sits exactly halfway between k/2^32 and
    # (k + 1)/2^32, so it snaps to the even one of the two: the floor k
    # for k = 4 and -6, k + 1 for k = 5 and -5
    sc = SingularityClass.parse("B+2")
    den = 1 << 33
    rest = ([den, 2 * k + 1, den], den)
    lam_at = atlas_mod._bc_root_path(sc, [], rest, BCSignature(0, 0), 24, 32)
    ref_at = reference_lam_at(sc, [], UniPoly("x", [F(c, den) for c in rest[0]]),
                              BCSignature(0, 0), 32)
    even = k if k % 2 == 0 else k + 1
    assert lam_at(F(0)).values == (F(even, 1 << 32), F(1))
    assert lam_at(F(0)) == ref_at(F(0))


# one B pair and one C pair of perfbench/path_corpus.json whose straight
# segment crosses the discriminant; h has a complex pair at both ends
UNSNAPPED_PAIRS = [
    ("B-3", ("-129/53", "9/2", "-42/13"), ("-99/26", "-71/15", "-15/8")),
    ("C+5", ("1545/256", "3075/256", "3059/256", "5595/512", "3011/512"),
     ("8/3", "-31/27", "7/32", "14/3", "16/9")),
]


@pytest.mark.parametrize("label, a, b", UNSNAPPED_PAIRS)
def test_unsnapped_rung_certifies_with_reference_waypoints(monkeypatch,
                                                           label, a, b):
    # with the 24-bit rung refused, both legs run on the 80-bit rung,
    # whose waypoints are not snapped; no pinned certificate reaches it
    sc = SingularityClass.parse(label)
    a, b = (Parameter.coerce([F(v) for v in p]) for p in (a, b))
    root_data, root_path = atlas_mod._bc_root_data, atlas_mod._bc_root_path
    drawn = []

    def refuse_24(h, sig, bits):
        return None if bits == 24 else root_data(h, sig, bits)

    def recording(sc_, reals, rest, sig, bits, snap):
        assert (bits, snap) == (80, None)
        lam_at = root_path(sc_, reals, rest, sig, bits, snap)
        ref_at = reference_lam_at(
            sc_, [F(r, 1 << bits) for r in reals],
            UniPoly("x", [F(c, rest[1]) for c in rest[0]]), sig, snap)

        def moved(t):
            lam = lam_at(t)
            drawn.append((lam, ref_at(t)))
            return lam

        return moved

    monkeypatch.setattr(atlas_mod, "_bc_root_data", refuse_24)
    monkeypatch.setattr(atlas_mod, "_bc_root_path", recording)
    assert isinstance(certify_segment(sc, a, b), SegmentFailure)
    cert = certify_path(sc, a, b)
    assert cert.waypoints[0] == a and cert.waypoints[-1] == b
    for proof in cert.segments:
        assert proof.roots_in_segment == 0
        assert proof == certify_segment(sc, proof.start, proof.end).segments[0]
    assert drawn and all(got == want for got, want in drawn)
    assert set(cert.waypoints[1:-1]) <= {got for got, _ in drawn}


def test_bc_homotopy_forms_no_unipoly_product(monkeypatch):
    # the first B+6 same-type pair of perfbench/path_corpus.json whose
    # straight segment fails: both legs of the root-space homotopy run,
    # and no waypoint or cofactor is built from UniPoly products
    sc = SingularityClass.parse("B+6")
    a = Parameter.coerce([F(v) for v in
                          ("4", "45/26", "-19/28", "-13/11", "-60/43", "5/8")])
    b = Parameter.coerce([F(v) for v in
                          ("-31/50", "-111/26", "1/4", "-47/14", "-2/15",
                           "53/16")])
    calls = []
    mul = UniPoly.__mul__

    def counting_mul(self, other):
        calls.append("mul")
        return mul(self, other)

    monkeypatch.setattr(UniPoly, "__mul__", counting_mul)
    monkeypatch.setattr(UniPoly, "__rmul__", counting_mul)
    assert atlas_mod._segment_proof(sc, a, b).roots_in_segment > 0
    cert = certify_path(sc, a, b)
    assert len(cert.segments) > 1
    assert calls == []


# ---------------------------------------------------------------------------
# enumeration


def test_sampling_config_validation():
    with pytest.raises(ValueError):
        SamplingConfig(box_radius=F(-1))
    with pytest.raises(ValueError):
        SamplingConfig(random_count=-5)
    with pytest.raises(ValueError):
        SamplingConfig(denominator_bound=0)


def test_enumerate_b4_counts():
    cfg = SamplingConfig(random_count=200, rng_seed=1)
    rep = enumerate_components(SingularityClass("B", 4, 1), cfg)
    assert rep.expected == 9 and rep.match
    assert len(rep.realized) == 9
    cmp_ = verify_against_table1(rep)
    assert cmp_["match"] and not cmp_["missing"] and not cmp_["extra"]


def test_enumerate_c5_counts():
    cfg = SamplingConfig(random_count=200, rng_seed=1)
    rep = enumerate_components(SingularityClass("C", 5, 1), cfg)
    assert rep.expected == 12 and rep.match
    assert len(rep.realized) == 12


def test_enumerate_f4_counts_and_c0_representatives():
    cfg = SamplingConfig(random_count=400, rng_seed=1)
    rep = enumerate_components(F4P, cfg)
    assert rep.expected == 8 and rep.match
    assert len(rep.realized) == 8
    c0 = [k for k, v in rep.realized.items() if v.get("representative_c0")]
    assert len(c0) == 6
    assert sorted(c0) == [f"type{i}" for i in range(1, 7)]


def test_enumerate_jobs_merge_identical():
    cfg = SamplingConfig(random_count=120, rng_seed=7)
    sc = SingularityClass("C", 4, -1)
    r1 = enumerate_components(sc, cfg, jobs=1)
    r2 = enumerate_components(sc, cfg, jobs=3)
    assert r1.json_obj() == r2.json_obj()


@pytest.mark.parametrize("jobs, cpus, samples, pool", [
    (64, 2, 120, {"max_workers": 2, "chunksize": 8}),    # bounded by CPUs
    (64, 16, 2, {"max_workers": 11, "chunksize": 1}),    # by the 11 points
    (3, 8, 120, {"max_workers": 3, "chunksize": 5}),     # by jobs
    (64, 1, 120, None),                                  # one CPU: serial
], ids=["cpus", "points", "jobs", "serial"])
def test_enumerate_pool_is_bounded_by_work_and_cpus(monkeypatch, jobs, cpus,
                                                    samples, pool):
    # the fork start method launches every worker at the first submit,
    # so the pool must never be larger than the points or the usable CPUs
    import concurrent.futures

    made = []

    class RecordingPool:
        # records the pool size and chunksize and maps in this process,
        # so no worker is started
        def __init__(self, max_workers):
            made.append({"max_workers": max_workers})

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            made[-1]["chunksize"] = chunksize
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(atlas_mod, "_usable_cpus", lambda: cpus)
    sc = SingularityClass("C", 4, -1)   # 9 signature seeds
    cfg = SamplingConfig(random_count=samples, rng_seed=7)
    rep = enumerate_components(sc, cfg, jobs=jobs)
    assert made == ([] if pool is None else [pool])
    assert rep.json_obj() == enumerate_components(sc, cfg).json_obj()


def test_report_representatives_classify_to_their_key():
    cfg = SamplingConfig(random_count=150, rng_seed=4)
    for label in ("B-3", "C+4", "F4-"):
        sc = SingularityClass.parse(label)
        rep = enumerate_components(sc, cfg)
        for key, entry in rep.realized.items():
            lam = Parameter.of(*[F(v) for v in entry["representative"]])
            assert type_key(classify(sc, lam)) == key


def test_verify_against_table1_failure_lists_missing():
    # the oracle comparison that criterion 1 and the census tests rely
    # on must report a type an incomplete atlas lacks
    cfg = SamplingConfig(random_count=100, rng_seed=1)
    rep = enumerate_components(B2, cfg)
    # drop one realized type to simulate an incomplete atlas
    broken = AtlasReport(
        label=rep.label, expected=rep.expected,
        realized={k: v for k, v in rep.realized.items() if k != "p1q1"},
        rejections=rep.rejections, total_samples=rep.total_samples,
        match=False, config=rep.config)
    cmp_ = verify_against_table1(broken)
    assert not cmp_["match"]
    assert cmp_["missing"] == ["p1q1"] and cmp_["extra"] == []


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12) | st.fractions(min_value=F(1, 64), max_value=12,
                                         max_denominator=64),
       st.integers(1, 200), st.integers(0, 2 ** 31), st.integers(0, 6),
       st.integers(2, 7))
@example(F(5, 2), 64, 0, 5, 3)    # a non-integer box floors the bound
@example(F(1, 64), 1, 0, 3, 2)    # every bound is 0
@example(F(1, 3), 2 ** 40 + 5, 7, 4, 4)   # d takes two 32-bit words
@example(3 * 2 ** 31, 5, 2, 3, 3)     # 2*bound + 1 > 2^32 for every d
@example(F(2 ** 70, 3), 2 ** 33, 1, 3, 2)  # both draws above 64 bits
def test_sample_point_matches_fraction_sampler(box, den_bound, seed, count,
                                               dim):
    cfg = SamplingConfig(box_radius=box, denominator_bound=den_bound,
                         rng_seed=seed, random_count=count)
    points = atlas_mod._sample_points(cfg, dim)
    assert all(type(v) is int for V, _ in points for v in V)
    assert all(den >= 1 for _, den in points)
    assert [tuple(F(v, den) for v in V) for V, den in points] \
        == [lam.values for lam in reference_sample_parameters(cfg, dim)]


@pytest.mark.parametrize("box, den_bound, seed, dim", [
    (5, 64, 0, 4), (F(7, 3), 9, 2, 4), (2, 1, 1, 6), (F(1, 64), 1, 3, 2)])
def test_more_samples_only_append_points(box, den_bound, seed, dim):
    # one stream per census: the first k samples of a run with n > k
    # samples are the samples of a run with k, so raising --samples
    # keeps every earlier point
    full = atlas_mod._sample_points(
        SamplingConfig(box_radius=box, denominator_bound=den_bound,
                       rng_seed=seed, random_count=40), dim)
    for k in (0, 1, 7, 39):
        cfg = SamplingConfig(box_radius=box, denominator_bound=den_bound,
                             rng_seed=seed, random_count=k)
        assert atlas_mod._sample_points(cfg, dim) == full[:k]


@pytest.mark.parametrize("label", ALL_BC_LABELS + ["F4+", "F4-"])
def test_census_representatives_are_the_seeds(label):
    # seeds come first in the census, so each type's printed
    # representative is its seed: construct_representative for B and C,
    # the F4 seed of the type id for F4+-
    sc = SingularityClass.parse(label)
    rep = enumerate_components(sc, SamplingConfig(random_count=30,
                                                  rng_seed=2))
    if sc.family == "F4":
        seeds = {f"type{tid}": lam
                 for tid, lam in atlas_mod._f4_seeds(sc).items()}
    else:
        seeds = {sig.key(): construct_representative(sc, sig)
                 for sig in valid_signatures(sc)}
    assert {k: v["representative"] for k, v in rep.realized.items()} \
        == {k: lam.text_list() for k, lam in seeds.items()}


@pytest.mark.parametrize("label", ["F4+", "F4-"])
def test_label_wall_nudge_matches_fraction_reference(label):
    # a = c = 0 makes f_x vanish on the whole boundary, so every such
    # point off the strata lies on the label wall and takes the nudge
    sc = SingularityClass.parse(label)
    rng = random.Random(5)
    nudged = 0
    for i in range(60):
        den = rng.randint(1, 9)
        V = [0, rng.randint(-20, 20), 0, rng.randint(-20, 20)]
        if 4 * V[1] ** 3 + 27 * den * V[3] ** 2 == 0:
            continue
        tag = f"jitter:5:{i}"
        key, t, V2, den2 = atlas_mod._atlas_task((sc, V, den, tag))
        if t is None:
            assert key == "NonGeneric" and (V2, den2) == (V, den)
            continue
        ref = reference_nudge(V, den, tag)
        assert tuple(F(v, den2) for v in V2) == ref.values
        assert key == type_key(classify(sc, ref))
        nudged += 1
    assert nudged > 40


def test_census_reaches_boundary_polynomial_only_off_generic_points(
        monkeypatch):
    # the census classifies B and C in integers: only a point with
    # h(0) = 0 or disc h = 0 may build the Fraction carrier h, for the
    # membership test that tells a real multiple root from a complex pair
    models_mod = importlib.import_module("discatlas.models")
    classify_mod = importlib.import_module("discatlas.classify")
    reached = []
    original = models_mod.boundary_polynomial

    def recording(sc, lam):
        reached.append(Parameter.coerce(lam).values)
        return original(sc, lam)

    monkeypatch.setattr(models_mod, "boundary_polynomial", recording)
    monkeypatch.setattr(classify_mod, "boundary_polynomial", recording,
                        raising=False)
    sc = SingularityClass.parse("B+5")
    cfg = SamplingConfig()
    rep = enumerate_components(sc, cfg)
    monkeypatch.undo()
    points = (atlas_mod._seed_points(sc)
              + atlas_mod._sample_points(cfg, sc.parameter_count))
    assert rep.total_samples == len(points)
    off_generic = {tuple(F(v, den) for v in V) for V, den in points
                   if 0 in _int_strata(sc, V, den)}
    assert off_generic and set(reached) == off_generic
    assert sum(rep.rejections.values()) == len(off_generic)
