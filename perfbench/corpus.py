"""Seeded generator of the frozen path-certification corpus.

Points are drawn the way acceptance criterion 6 draws them: random
rationals bucketed by type, then jittered around the type
representatives until every type has twenty points.  F4- uses the
f4_reduce images of the plus-class representatives.  From those
buckets the corpus keeps the work the benchmark times:

* B/C with mu <= 6: the first same-type pair of every type (one of the
  gate's ten);
* F4+ and F4-: the first four of the gate's ten same-type pairs of
  every type;
* every class: the first two of the gate's hundred cross-type segments;
* the known-defect pair of ROADMAP item 4;
* one F4+ type1 pair of the gate that ends inconclusive.

The subset is fixed rather than drawn per run because the cost of one
pair is heavy-tailed (6 ms median, up to 2.4 s): a seeded sample of
300 pairs varies by 20-30% in total time from seed to seed.  One pass
of the pairs is kept near four seconds and one of the segments near
one, so that a run times every call several times: the mu = 7 pairs
alone take about six seconds, and the gate's five inconclusive F4
type1 pairs seven, so only the cheapest of them (under a second) is
kept.  The census and the refusals still cover mu = 7.

The benchmark times the frozen file, not a fresh draw, so a change to
`classify` cannot silently change which work is timed.  Regenerating
with the same seed must reproduce the file byte for byte
(test_perfbench.py checks this); another seed gives fresh inputs on
which a claim can be re-checked.

    python3 perfbench/corpus.py [--seed N] [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS_PATH = HERE / "path_corpus.json"
CORPUS_SEED = 0

BC_LABELS = [f"{fam}{s}{mu}" for fam in "BC" for s in "+-"
             for mu in range(2, 8)]
LABELS = BC_LABELS + ["F4+", "F4-"]
POINTS_PER_TYPE = 20
CROSS_PER_CLASS = 2
F4_PAIRS_PER_TYPE = 4
BC_PAIRS_MAX_MU = 6

# ROADMAP item 4: both endpoints are nonsingular and of type p0q0, yet
# the complex discriminant makes the straight segment fail and the
# path search ends NotFound.  It stays in the corpus so that it counts.
KNOWN_DEFECT_PAIR = ["B+4", ["0", "8", "0", "16"], ["0", "5", "0", "4"]]
# The tenth type1 pair of F4+ at seed 0: both endpoints are type1, yet
# the jittered path search exhausts its budget of 48 segments.  It
# counts as an inconclusive call.
KNOWN_INCONCLUSIVE_PAIR = ["F4+", ["-61/37", "25/9", "1/8", "69/14"],
                           ["-86/57", "-74/63", "-23/5", "-17/14"]]


def _rand_param(sc, rng, radius=5, den_bound=64):
    from discatlas.models import Parameter

    vals = []
    for _ in range(sc.parameter_count):
        den = rng.randint(1, den_bound)
        vals.append(Fraction(rng.randint(-radius * den, radius * den), den))
    return Parameter.of(*vals)


def _type_key(sc, lam):
    """Type key of a parameter, or None off the complement / on a wall."""
    from discatlas.classify import NonGenericConfiguration, classify, type_key
    from discatlas.models import Membership, discriminant_membership

    if discriminant_membership(sc, lam) is not Membership.NON_SINGULAR:
        return None
    try:
        return type_key(classify(sc, lam))
    except NonGenericConfiguration:
        return None


def _class_reps(sc):
    from discatlas.atlas import construct_representative, valid_signatures
    from discatlas.classify import F4_SEEDS, f4_side_seeds
    from discatlas.models import Parameter, f4_reduce

    if sc.family in ("B", "C"):
        return {sig.key(): construct_representative(sc, sig)
                for sig in valid_signatures(sc)}
    reps = {f"type{tid}": Parameter.coerce(lam)
            for tid, lam in F4_SEEDS + f4_side_seeds()}
    if sc.sign < 0:
        reps = {k: f4_reduce(v) for k, v in reps.items()}
    return reps


def _buckets(sc, rng, reps, per_key=POINTS_PER_TYPE, tries=600):
    from discatlas.models import Parameter

    buckets = {k: [] for k in sorted(reps)}
    for _ in range(tries):
        if all(len(v) >= per_key for v in buckets.values()):
            break
        lam = _rand_param(sc, rng)
        key = _type_key(sc, lam)
        if key in buckets and len(buckets[key]) < per_key:
            buckets[key].append(lam)
    for key, rep in reps.items():
        radius = Fraction(1, 4)
        for _ in range(2000):
            if len(buckets[key]) >= per_key:
                break
            cand = Parameter.of(*[
                v + Fraction(rng.randint(-64, 64), 64) * radius for v in rep])
            got = _type_key(sc, cand)
            if got == key:
                buckets[key].append(cand)
            elif got is not None:
                radius /= 2
        if len(buckets[key]) < per_key:
            raise RuntimeError(f"{sc.label()}: too few points of {key}")
    return buckets


def class_corpus(label: str, seed: int) -> dict:
    """Same-type pairs and cross-type segments for one class."""
    from discatlas.models import SingularityClass

    sc = SingularityClass.parse(label)
    rng = random.Random(f"pairs:{seed}:{label}")
    buckets = _buckets(sc, rng, _class_reps(sc))
    pairs = []
    if sc.family == "F4":
        n_pairs = F4_PAIRS_PER_TYPE
    else:
        n_pairs = 1 if sc.mu <= BC_PAIRS_MAX_MU else 0
    for key, pts in buckets.items():
        rng.shuffle(pts)
        for i in range(n_pairs):
            pairs.append([key, pts[2 * i].text_list(),
                          pts[2 * i + 1].text_list()])
    keys = sorted(buckets)
    cross = []
    idx = 0
    while len(cross) < CROSS_PER_CLASS:
        k1 = keys[idx % len(keys)]
        k2 = keys[(idx + 1 + idx // len(keys)) % len(keys)]
        idx += 1
        if k1 == k2:
            continue
        a = buckets[k1][idx % len(buckets[k1])]
        b = buckets[k2][idx % len(buckets[k2])]
        cross.append([k1, k2, a.text_list(), b.text_list()])
    return {"pairs": pairs, "cross": cross}


def generate(seed: int = CORPUS_SEED) -> dict:
    return {
        "seed": seed,
        "known_defect_pair": KNOWN_DEFECT_PAIR,
        "known_inconclusive_pair": KNOWN_INCONCLUSIVE_PAIR,
        "classes": {label: class_corpus(label, seed) for label in LABELS},
    }


def dumps(corpus: dict) -> str:
    return json.dumps(corpus, separators=(",", ":"), sort_keys=True) + "\n"


def load(path: Path = CORPUS_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=CORPUS_SEED)
    ap.add_argument("--out", type=Path, default=CORPUS_PATH)
    args = ap.parse_args()
    sys.path.insert(0, str(HERE.parent / "src"))
    args.out.write_text(dumps(generate(args.seed)))


if __name__ == "__main__":
    main()
