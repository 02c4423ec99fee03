"""Component enumeration and exact path certificates.

The complement of the discriminant in parameter space falls into
finitely many connected components, one per topological type of the
lower-value set.  This module assembles the census for a class
(seeded constructively, then backed by grid and random sampling) and
produces machine-checkable connectivity proofs between parameters.
The census runs in integers: every point is an integer vector V with a
common denominator den, and each is classified by the integer entry of
``classify``.  The B/C seeds are read off an integer product, and the
random samples are drawn that way from one seeded generator per census,
so raising the sample count only appends points.  Rationals are built
only for the representatives the report prints.  The rare nudge off
the F4 label wall stays in integers too: it moves each entry by
+-r/4096, which over the denominator 4096*den is V' = 4096*V +- r*den.

A path certificate is a polyline of rational waypoints together with,
for every segment, the segment restriction of the product of the
discriminant-defining polynomials and an exact count showing it has no
root on the closed unit interval.  The count is ``sturm_count``: the
endpoint values, then Descartes bisection from [0, 1] on the
polynomial itself, which needs no Sturm chain unless a branch passes
the bisection's depth bound.  Since the two strata are exactly the
zero sets of those polynomials, a zero count proves the segment, both
ends included, stays off the discriminant; the certificate can be
replayed by any exact root counter, and the path search tests
membership only at the F4 jitter points it draws, by the signs of the
integer stratum kernel.  Only ``certify_segment`` tests its endpoints and
isolates a witness: the first root in [0, 1], as a point or a dyadic
subinterval of [0, 1] of width at most 1/128.

For every family the segment polynomial is the product Sigma0 * Sigma1
of the two stratum polynomials ``models.segment_strata`` gives along
the segment line, multiplied in Z[t] with one division by the product
of their denominators.  ``UniPoly`` holds exactly that reduced
integer pair, so the root count, the reflected leg below and the
certificate text all read integers, and no Fraction is built.  Both
factors come from one call of the integer stratum kernel
``models._int_strata`` at t = 2^bits, read off as balanced
base-2^bits digits: one integer resultant per segment for B
and C, the two cubic discriminants in closed form for F4.  Where that
integer would pass 4096 bits the kernel is interpolated from the nodes
t = 0..D instead, D the degree of the stratum polynomials (2*mu - 2
for B and C, 7 for F4).  The same function gives the parameter slices
of ``render``, so the segment math exists once.  A
segment polynomial that vanishes identically (h_t keeps a complex
double root) decides nothing and ends the search as NotFound.

Paths between same-type parameters of B and C are constructed in root
space from exact data: the real roots of h are isolated and rounded to
dyadic rationals, and the cofactor ``rest`` of h by the monic
polynomial with those roots must have no real root.  The reals move
linearly onto those of the integer-rooted representative, and the
cofactor moves along (1-t)*rest + t*lead*prod(x^2 + m).  Sorted-to-sorted
linear interpolation preserves order and signs, and both ends of the
cofactor path are definite with the sign of lead, so every convex
combination is too: the exact path avoids the discriminant.  The
polyline approximates it with denominator-bounded waypoints, and every
segment is then certified independently; the leg from the end point
is reflected, since b -> a restricts to p(1 - t) where a -> b gives p(t).
The homotopy runs in integers: the reals are integers over 2^bits,
the cofactor comes from one integer pseudo-division, and at a dyadic
t each waypoint is one integer product over one common denominator,
snapped to 2^-32 by integer round-half-even on the first rung of the
bits ladder.  No UniPoly or Fraction product is formed per waypoint.

For F4 the component geometry is thick, so a straight segment is tried
first, then recursive midpoint subdivision with seeded rational
jitter, then routing through the catalogue representative, all under a
segment budget.  Exhaustion reports NotFound: failure to construct a
certificate is never evidence of disconnection.
"""

from __future__ import annotations

import itertools as it
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable

from .classify import (
    BCSignature,
    DiscriminantParameter,
    F4_SEEDS,
    LowerSetType,
    NonGenericConfiguration,
    _classify_point,
    canonical_type_id,
    classify,
    f4_side_seeds,
    type_key,
)
from .exactpoly import (
    Interval,
    UniPoly,
    _int_mul,
    _int_pseudo_quo,
    _int_reduced,
    _int_taylor_shift,
    isolate_real_roots,
    sturm_count,
)
from .models import (
    Membership,
    Parameter,
    SingularityClass,
    _bc_lead,
    _cleared,
    _int_strata,
    boundary_polynomial,
    discriminant_membership,
    f4_reduce,
    segment_strata,
)


class InvalidSignature(ValueError):
    """Raised for (p, q) pairs no parameter of the class can realise."""


class DiscriminantEndpoint(ValueError):
    """Raised when a certificate endpoint lies on the discriminant."""


class TypeMismatch(ValueError):
    """Raised when path endpoints have different topological types."""


class NotFound(RuntimeError):
    """Certificate search exhausted its budget; result is inconclusive."""


# ---------------------------------------------------------------------------
# configuration and report containers


@dataclass(frozen=True)
class SamplingConfig:
    """Census sampling: random_count random points in the box
    [-box_radius, box_radius]^dim with denominators at most
    denominator_bound, plus a grid of grid_resolution nodes per axis.
    rng_seed seeds the one generator all random points of a census are
    drawn from, and the label-wall nudges."""

    box_radius: Fraction = Fraction(5)
    random_count: int = 2000
    grid_resolution: int = 0
    rng_seed: int = 0
    denominator_bound: int = 64

    def __post_init__(self):
        object.__setattr__(self, "box_radius", Fraction(self.box_radius))
        if self.box_radius <= 0:
            raise ValueError("box_radius must be positive")
        if self.random_count < 0 or self.grid_resolution < 0:
            raise ValueError("counts must be nonnegative")
        if self.denominator_bound < 1:
            raise ValueError("denominator_bound must be at least 1")

    def json_obj(self) -> dict:
        return {
            "box_radius": str(self.box_radius),
            "random_count": self.random_count,
            "grid_resolution": self.grid_resolution,
            "rng_seed": self.rng_seed,
            "denominator_bound": self.denominator_bound,
        }


@dataclass(frozen=True)
class AtlasReport:
    label: str
    expected: int
    realized: dict
    rejections: dict
    total_samples: int
    match: bool
    config: SamplingConfig

    def json_obj(self) -> dict:
        return {
            "class": self.label,
            "expected_components": self.expected,
            "realized_count": len(self.realized),
            "match": self.match,
            "realized": self.realized,
            "rejections": self.rejections,
            "total_samples": self.total_samples,
            "config": self.config.json_obj(),
        }


@dataclass(frozen=True)
class SegmentProof:
    start: Parameter
    end: Parameter
    polynomial: UniPoly
    roots_in_segment: int

    def json_obj(self) -> dict:
        return {
            "start": self.start.text_list(),
            "end": self.end.text_list(),
            "polynomial": self.polynomial.text(),
            "roots_in_unit_interval": self.roots_in_segment,
        }


@dataclass(frozen=True)
class PathCertificate:
    label: str
    waypoints: tuple[Parameter, ...]
    segments: tuple[SegmentProof, ...]

    def json_obj(self) -> dict:
        return {
            "class": self.label,
            "certified": True,
            "waypoints": [w.text_list() for w in self.waypoints],
            "segments": [s.json_obj() for s in self.segments],
        }


@dataclass(frozen=True)
class SegmentFailure:
    start: Parameter
    end: Parameter
    polynomial: UniPoly
    witness: Interval

    def json_obj(self) -> dict:
        return {
            "certified": False,
            "polynomial": self.polynomial.text(),
            "witness": {
                "lo": "-oo" if self.witness.lo is None else str(self.witness.lo),
                "hi": "+oo" if self.witness.hi is None else str(self.witness.hi),
            },
        }


# ---------------------------------------------------------------------------
# representatives


def construct_representative(sc: SingularityClass, sig: BCSignature
                             ) -> Parameter:
    """Integer-rooted parameter realising a B/C signature.

    The boundary carrier is lead * prod(x + i, i <= p) * prod(x - j,
    j <= q) * prod(x^2 + m, m <= s) with 2s = mu - p - q, so the real
    roots are -p..-1 and 1..q and the parameter is read off the
    coefficients.

    >>> sc = SingularityClass.parse("B+2")
    >>> construct_representative(sc, BCSignature(1, 1)).text_list()
    ['0', '-1']
    """
    return Parameter(tuple(Fraction(v) for v in _bc_seed(sc, sig)))


def _bc_seed(sc: SingularityClass, sig: BCSignature) -> list[int]:
    """The integer parameter vector of ``construct_representative``."""
    if sc.family not in ("B", "C"):
        raise InvalidSignature("representatives exist for B and C classes")
    mu = sc.mu
    rest = mu - sig.p - sig.q
    if rest < 0 or rest % 2:
        raise InvalidSignature(
            f"(p, q) = ({sig.p}, {sig.q}) is not realisable for mu = {mu}")
    factors = ([[i, 1] for i in range(1, sig.p + 1)]
               + [[-j, 1] for j in range(1, sig.q + 1)]
               + [[m, 0, 1] for m in range(1, rest // 2 + 1)])
    cs = [_bc_lead(sc)]  # integer coefficients, constant term first
    for f in factors:
        cs = _int_mul(cs, f)
    return [cs[mu - k] for k in range(1, mu + 1)]


def valid_signatures(sc: SingularityClass) -> list[BCSignature]:
    """All signatures of the class, ordered by (p, q)."""
    out = []
    for p in range(sc.mu + 1):
        for q in range(sc.mu + 1 - p):
            if (sc.mu - p - q) % 2 == 0:
                out.append(BCSignature(p, q))
    return out


def _f4_seeds(sc: SingularityClass) -> dict[int, Parameter]:
    """Each F4 type id's seed in the class of sc, types ascending.

    The seeds live in the plus class; the reduction is the
    type-preserving bijection onto the minus class.
    """
    seeds = F4_SEEDS + f4_side_seeds()
    if sc.sign < 0:
        return {tid: f4_reduce(lam) for tid, lam in seeds}
    return dict(seeds)


# ---------------------------------------------------------------------------
# segment certificates


def _lerp(a: Parameter, b: Parameter, t: Fraction) -> Parameter:
    return Parameter(tuple((1 - t) * x + t * y for x, y in zip(a, b)))


def _segment_polynomial(sc: SingularityClass, a: Parameter, b: Parameter
                        ) -> UniPoly:
    # the certificate polynomial Sigma0 * Sigma1 along the segment
    (c0, d0), (c1, d1) = segment_strata(sc, a, b)
    return UniPoly._of_ints("t", _int_mul(c0, c1), d0 * d1)


def _segment_proof(sc: SingularityClass, a: Parameter, b: Parameter
                   ) -> SegmentProof:
    # the count is on the closed [0, 1], so zero also clears a and b
    poly = _segment_polynomial(sc, a, b)
    if poly.is_zero():
        # only disc(h_t) of B or C can vanish identically between
        # nonsingular endpoints: h_t keeps a complex double root
        raise NotFound("the segment polynomial vanishes identically")
    return SegmentProof(a, b, poly, sturm_count(poly, Interval.closed(0, 1)))


def _reversed_proof(proof: SegmentProof) -> SegmentProof:
    # b -> a restricts to p(1 - t): p(1 + t) by an integer Taylor shift
    # of the integers the polynomial holds, then t -> -t; the root count
    # is unchanged
    cs, den = proof.polynomial._int_coeffs()
    flipped = [-c if i % 2 else c
               for i, c in enumerate(_int_taylor_shift(cs, 1))]
    return SegmentProof(proof.end, proof.start,
                        UniPoly._of_ints("t", flipped, den),
                        proof.roots_in_segment)


def certify_segment(sc: SingularityClass, start, end
                    ) -> PathCertificate | SegmentFailure:
    """Certify one straight parameter segment, or isolate a crossing.

    Success means the segment-restricted product of the stratum-defining
    polynomials has Sturm count zero on the closed unit interval.  On
    failure the witness is an isolating interval (in t) of the first
    crossing: a point or a dyadic subinterval of [0, 1].
    DiscriminantEndpoint is raised for an endpoint on the discriminant,
    NotFound when the polynomial vanishes identically.

    >>> sc = SingularityClass.parse("B+2")
    >>> c = certify_segment(sc, Parameter.of(0, -1), Parameter.of(0, -4))
    >>> c.segments[0].polynomial.text()
    '-36*t^2 - 24*t - 4'
    """
    start = Parameter.coerce(start)
    end = Parameter.coerce(end)
    for lam in (start, end):
        m = discriminant_membership(sc, lam)
        if m is not Membership.NON_SINGULAR:
            raise DiscriminantEndpoint(
                f"segment endpoint lies on {m.value}")
    proof = _segment_proof(sc, start, end)
    if proof.roots_in_segment == 0:
        return PathCertificate(sc.label(), (start, end), (proof,))
    poly = proof.polynomial
    crossings = isolate_real_roots(poly, Fraction(1, 128),
                                   Interval.closed(0, 1))
    if not crossings:
        raise NotFound(f"{proof.roots_in_segment} crossings in [0, 1] but "
                       "none isolated there")
    return SegmentFailure(start, end, poly, crossings[0])


# ---------------------------------------------------------------------------
# root-space path construction for B and C


def _bc_root_data(h: UniPoly, sig: BCSignature, bits: int):
    """Dyadic real roots of h and the cofactor that carries no real root.

    The reals are the midpoints of isolating intervals of width 2^-bits,
    rounded to 2^-bits and returned as their integer numerators R_i over
    2^bits.  The cofactor is the quotient of h by the monic polynomial
    with those roots, taken by integer pseudo-division by M = prod(2^bits
    * x - R_i) with the remainder dropped, and returned reduced as an
    integer coefficient list with a positive denominator.  Returns None
    when the rounded roots lose their order or signs, or the cofactor
    has a real root, in which case the caller retries with more bits.
    """
    scale = 1 << bits
    reals = [round(iv.midpoint() * scale)
             for iv in isolate_real_roots(h, Fraction(1, scale))]
    if sum(1 for r in reals if r < 0) != sig.p:
        return None
    if sum(1 for r in reals if r > 0) != sig.q:
        return None
    if any(reals[i] >= reals[i + 1] for i in range(len(reals) - 1)):
        return None
    H, hden = h._int_coeffs()
    M = [1]
    for r in reals:
        M = _int_mul(M, [-r, scale])
    # lc(M)^e * H = Q*M + R with e = deg H - deg M + 1 and lc(M) =
    # 2^(bits*k), so the quotient of h by M / lc(M) is Q over
    # hden * lc(M)^(e - 1)
    e = len(H) - len(M) + 1
    rest = _int_reduced(_int_pseudo_quo(H, M), hden * M[-1] ** (e - 1))
    if sturm_count(UniPoly(h.var, rest[0]), Interval.real_line()) != 0:
        return None
    return reals, rest


def _bc_root_path(sc: SingularityClass, reals: list[int],
                  rest: tuple[list[int], int], sig: BCSignature, bits: int,
                  snap_bits: int | None) -> Callable[[Fraction], Parameter]:
    """The waypoint map t -> lambda(t) of the root-space homotopy, in
    integers.

    At t = tn/td the moved roots (1-t)*R_i/2^bits + t*T_i are integers
    N_i over D = 2^bits * td, so prod(D*x - N_i) is an integer
    polynomial with lead D^k; the cofactor path (1-t)*rest +
    t*lead*prod(x^2 + m) is an integer polynomial over td times rest's
    denominator.  One integer product then gives h_t over one
    denominator, and each coefficient is snapped to 2^-snap_bits by
    integer round-half-even, as ``round`` rounds a Fraction.
    """
    mu = sc.mu
    cs_rest, den_rest = rest
    targets = [-i for i in range(sig.p, 0, -1)] + list(range(1, sig.q + 1))
    target_rest = [_bc_lead(sc)]
    for m in range(1, (len(cs_rest) - 1) // 2 + 1):
        target_rest = _int_mul(target_rest, [m, 0, 1])

    def lam_at(t: Fraction) -> Parameter:
        tn, td = t.numerator, t.denominator
        D = td << bits
        hpoly = [(td - tn) * a + tn * den_rest * b
                 for a, b in zip(cs_rest, target_rest)]
        for r0, r1 in zip(reals, targets):
            hpoly = _int_mul(hpoly, [-((td - tn) * r0 + (tn * r1 << bits)), D])
        den = D ** len(reals) * td * den_rest
        if snap_bits is None:
            cs = [Fraction(c, den) for c in hpoly]
        else:
            # product denominators grow like 2^(bits*mu); quantising the
            # assembled coefficients keeps the certificate arithmetic
            # small, and exactness never depends on the waypoint being
            # on the ideal path
            cs = []
            for c in hpoly:
                q, r = divmod(c << snap_bits, den)
                if 2 * r > den or (2 * r == den and q & 1):
                    q += 1
                cs.append(Fraction(q, 1 << snap_bits))
        return Parameter(tuple(cs[mu - k] for k in range(1, mu + 1)))

    return lam_at


def _certify_bc_leg(sc: SingularityClass, src: Parameter, sig: BCSignature
                    ) -> list[SegmentProof]:
    """Segment proofs of a polyline from src to its representative.

    A later rung of the bits ladder meets some segments of an earlier
    one again; the proof decided there is reused, keyed by the endpoint
    values.
    """
    h = boundary_polynomial(sc, src)
    decided: dict[tuple, SegmentProof] = {}
    for bits, snap in ((24, 32), (80, None), (200, None)):
        data = _bc_root_data(h, sig, bits)
        if data is None:
            continue
        lam_at = _bc_root_path(sc, *data, sig, bits, snap)
        proofs: list[SegmentProof] = []

        def attempt(a: Parameter, b: Parameter, ta, tb, depth: int) -> bool:
            if a.values == b.values:
                return True
            proof = decided.get((a.values, b.values))
            if proof is None:
                proof = decided[a.values, b.values] = _segment_proof(sc, a, b)
            if proof.roots_in_segment == 0:
                proofs.append(proof)
                return True
            if ta is None or depth == 0:
                return False
            tm = (ta + tb) / 2
            wm = lam_at(tm)
            return (attempt(a, wm, ta, tm, depth - 1)
                    and attempt(wm, b, tm, tb, depth - 1))

        grid = [Fraction(0), Fraction(1, 2), Fraction(1)]
        if attempt(src, lam_at(Fraction(0)), None, None, 0) and all(
                attempt(lam_at(ta), lam_at(tb), ta, tb, 8)
                for ta, tb in zip(grid, grid[1:])):
            return proofs
    raise NotFound("root-space homotopy failed to certify")


# ---------------------------------------------------------------------------
# F4 path construction


def _f4_route(sc: SingularityClass, a: Parameter, b: Parameter, depth: int,
              budget: list[int], rng: random.Random, radius: Fraction
              ) -> list[SegmentProof] | None:
    if budget[0] <= 0:
        return None
    budget[0] -= 1
    proof = _segment_proof(sc, a, b)
    if proof.roots_in_segment == 0:
        return [proof]
    if depth == 0:
        return None
    for _ in range(3):
        mid = _lerp(a, b, Fraction(1, 2))
        jit = Parameter(tuple(
            v + Fraction(rng.randint(-256, 256), 1024) * radius
            for v in mid))
        if 0 in _int_strata(sc, *_cleared(jit)):
            continue
        left = _f4_route(sc, a, jit, depth - 1, budget, rng, radius / 2)
        if left is None:
            continue
        right = _f4_route(sc, jit, b, depth - 1, budget, rng, radius / 2)
        if right is not None:
            return left + right
    return None


def _proofs_to_certificate(sc: SingularityClass,
                           proofs: list[SegmentProof]) -> PathCertificate:
    way = [proofs[0].start] + [p.end for p in proofs]
    return PathCertificate(sc.label(), tuple(way), tuple(proofs))


def _labels(sc: SingularityClass, lam: Parameter) -> LowerSetType | None:
    """``classify``, or None for an F4 point on the label wall."""
    try:
        return classify(sc, lam)
    except NonGenericConfiguration:
        return None


def certify_path(sc: SingularityClass, start, end, rng_seed: int = 0,
                 budget: int = 48) -> PathCertificate:
    """Connect two same-type parameters by a certified polyline.

    Endpoint types must agree (TypeMismatch otherwise).  For B and C
    the straight segment is tried first, else both endpoints' root
    configurations move onto the integer-rooted representative; for
    F4 straight, subdivided and through-catalogue routes are tried
    under the segment budget.  An F4 endpoint on the label wall is off
    the discriminant but has no labels, so it skips the type check, and
    the catalogue route goes through the other endpoint's
    representative, or is not tried when neither has labels.  NotFound
    is raised on exhaustion and means only that this search gave up.
    """
    start = Parameter.coerce(start)
    end = Parameter.coerce(end)
    t0, t1 = (_labels(sc, lam) for lam in (start, end))
    if None not in (t0, t1) and type_key(t0) != type_key(t1):
        raise TypeMismatch(
            f"endpoint types differ: {type_key(t0)} vs {type_key(t1)}")
    if sc.family in ("B", "C"):
        proofs = [_segment_proof(sc, start, end)]
        if proofs[0].roots_in_segment:
            there = _certify_bc_leg(sc, start, t0)
            back = _certify_bc_leg(sc, end, t1)
            proofs = there + [_reversed_proof(p) for p in reversed(back)]
        return _proofs_to_certificate(sc, proofs)

    rng = random.Random(f"certify:{rng_seed}:{sc.label()}")
    radius = Fraction(1, 2)
    bud = [budget]
    proofs = _f4_route(sc, start, end, 4, bud, rng, radius)
    known = t1 if t0 is None else t0
    if proofs is None and bud[0] > 0 and known is not None:
        rep = _f4_seeds(sc)[canonical_type_id(known)]
        left = _f4_route(sc, start, rep, 3, bud, rng, radius)
        if left is not None:
            right = _f4_route(sc, rep, end, 3, bud, rng, radius)
            if right is not None:
                proofs = left + right
    if proofs is None:
        raise NotFound(f"budget of {budget} segments exhausted")
    return _proofs_to_certificate(sc, proofs)


# ---------------------------------------------------------------------------
# enumeration


def _sample_points(cfg: SamplingConfig, dim: int
                   ) -> list[tuple[list[int], int]]:
    """The random samples of a census as (V, den), lambda = V / den.

    All random_count points come in order from one generator seeded by
    the string ``census:<rng_seed>``, so the first k points do not
    depend on random_count.  Each coordinate draws a denominator d in
    [1, denominator_bound] and then a numerator in [-bound, bound],
    bound = floor(box_radius * d); den is the lcm of the drawn d, not
    reduced against the numerators.  Each draw is ``Random.randint``'s:
    k = n.bit_length() bits from ``getrandbits`` for a range of n
    integers, redrawn while >= n, so the stream and the points are
    randint's, without its call layers.
    """
    bits = random.Random(f"census:{cfg.rng_seed}").getrandbits
    rn, rd = cfg.box_radius.numerator, cfg.box_radius.denominator
    nd = cfg.denominator_bound
    kd = nd.bit_length()
    points = []
    for _ in range(cfg.random_count):
        nums, dens = [], []
        for _ in range(dim):
            d = bits(kd)
            while d >= nd:
                d = bits(kd)
            d += 1
            bound = rn * d // rd
            n = 2 * bound + 1
            k = n.bit_length()
            v = bits(k)
            while v >= n:
                v = bits(k)
            nums.append(v - bound)
            dens.append(d)
        den = lcm(*dens)
        points.append(([v * (den // d) for v, d in zip(nums, dens)], den))
    return points


def _grid_points(cfg: SamplingConfig, dim: int) -> list[Parameter]:
    res = cfg.grid_resolution
    if res < 2:
        return []
    r = cfg.box_radius
    axis = [(-r) + 2 * r * Fraction(k, res - 1) for k in range(res)]
    return [Parameter(tup) for tup in it.product(axis, repeat=dim)]


def _seed_points(sc: SingularityClass) -> list[tuple[list[int], int]]:
    if sc.family == "F4":
        return [_cleared(lam) for lam in _f4_seeds(sc).values()]
    return [(_bc_seed(sc, sig), 1) for sig in valid_signatures(sc)]


def _text_point(V, den: int) -> list[str]:
    return [str(Fraction(v, den)) for v in V]


def _atlas_task(args) -> tuple[str, LowerSetType | None, list[int], int]:
    """Classify one census point (sc, V, den, jitter_tag).

    Returns the type key, the type, and the point it was read at; a
    rejected point gives its rejection key and no type.
    """
    sc, V, den, jitter_tag = args
    try:
        t = _classify_point(sc, V, den)
    except DiscriminantParameter as e:
        return e.membership.value, None, V, den
    except NonGenericConfiguration:
        # the label wall has measure zero; one deterministic nudge of
        # each entry by +-r/4096, r = randint(1, 64) drawn before its sign
        rng = random.Random(jitter_tag)
        nudged = []
        for v in V:
            r = rng.randint(1, 64) * den
            nudged.append(4096 * v + (r if rng.random() < 0.5 else -r))
        try:
            t = _classify_point(sc, nudged, 4096 * den)
        except (DiscriminantParameter, NonGenericConfiguration):
            return "NonGeneric", None, V, den
        V, den = nudged, 4096 * den
    return type_key(t), t, V, den


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def enumerate_components(sc: SingularityClass,
                         config: SamplingConfig | None = None,
                         jobs: int = 1) -> AtlasReport:
    """Census of realized topological types for one class.

    Seeds guarantee every component is represented: for B/C one
    integer-rooted representative per signature, for F4 the six slice
    seeds plus the two cuspidal-edge seeds.  Grid and random samples
    add independent evidence and the rejection tally.  The report is
    deterministic for a given config, independent of ``jobs``.

    Every point travels as an integer vector V and a denominator den,
    lambda = V / den: the B/C seeds are integer vectors, F4 seeds and
    grid nodes are cleared once, and the random samples are drawn that
    way from one generator per call (``_sample_points``).  Seeds come
    first, so each type's first representative is its seed.  Each point
    is classified through the integer entry ``classify._classify_point``,
    and rationals are printed only for each type's first representative
    and, for F4, its first c = 0 representative (V[2] = 0).

    ``jobs`` caps the worker processes; the pool is also bounded by the
    number of points and the CPUs this process may run on, and the
    census runs serially when that bound is 1.
    """
    config = config or SamplingConfig()
    dim = sc.parameter_count
    points = (_seed_points(sc)
              + [_cleared(lam) for lam in _grid_points(config, dim)]
              + _sample_points(config, dim))
    tasks = [(sc, V, den, f"jitter:{config.rng_seed}:{i}")
             for i, (V, den) in enumerate(points)]
    workers = min(jobs, len(tasks), _usable_cpus())
    if workers > 1:
        # imported here so that serial runs never load multiprocessing;
        # the fork start method launches every worker at the first
        # submit, so the pool is never larger than the work or the CPUs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(
                _atlas_task, tasks,
                chunksize=max(1, len(tasks) // (workers * 8))))
    else:
        results = [_atlas_task(t) for t in tasks]

    realized: dict[str, dict] = {}
    rejections = {"Sigma0": 0, "Sigma1": 0, "Both": 0, "NonGeneric": 0}
    for key, t, V, den in results:
        if t is None:
            rejections[key] += 1
            continue
        entry = realized.get(key)
        if entry is None:
            entry = realized[key] = {
                "count": 0,
                "type": t.json_obj(),
                "representative": _text_point(V, den),
            }
            if sc.family == "F4":
                entry["representative_c0"] = None
        entry["count"] += 1
        if sc.family == "F4" and entry["representative_c0"] is None \
                and V[2] == 0:
            entry["representative_c0"] = _text_point(V, den)

    def sort_key(k: str):
        if k.startswith("type"):
            return (int(k[4:]),)
        return (int(k[1:k.index("q")]), int(k[k.index("q") + 1:]))

    realized = {k: realized[k] for k in sorted(realized, key=sort_key)}
    expected = sc.expected_component_count()
    return AtlasReport(
        label=sc.label(),
        expected=expected,
        realized=realized,
        rejections=rejections,
        total_samples=len(points),
        match=(len(realized) == expected),
        config=config,
    )
