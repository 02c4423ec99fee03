#!/usr/bin/env python3
"""End-to-end benchmark of the discatlas command line.

Drives the user's entry point, ``discatlas.cli.run``, in-process from
one process and one caller: a closed loop, the next call starts when
the previous one has returned (no ``--jobs``).  Each workload is a
fixed list of CLI invocations built from the seed, run in rounds: every
round runs the whole list, in an order drawn from the seed and the
round index.  Rounds repeat while the next one is expected to fit in
``--seconds``; at least one round always runs.

    python3 perfbench/run.py --workload path_certify --seed 0 \
        --seconds 28 --trace 0
    python3 perfbench/run.py --workload all

Every output is checked outside the timed region.  A wrong output
aborts the run (``correct`` false, exit 1); an inconclusive (exit 3)
or failed (exit 1/2, traceback) call is counted in ``failed``.  With
``--trace 0`` the last line holds the end-to-end metrics named in
BENCHMARK.json, with ``--trace 1`` the per-layer metrics of a traced
run (see spans.py) and its overhead against untraced rounds of the
same inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from xml.etree import ElementTree

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = Path(".perfbench_out")
SETUP_REPEATS = 15

BC_LABELS = [f"{fam}{s}{mu}" for fam in "BC" for s in "+-"
             for mu in range(2, 8)]
BC_CENSUS_SAMPLES = 100
F4_CENSUS_SAMPLES = 250
SLICE_GRID = ["--box", "3", "--samples", "33"]
# Zero-set figures keep their default viewport but sample it on a
# FIGURE_SAMPLES x FIGURE_SAMPLES grid instead of the CLI's 129 x 129.
# The shading evaluates f at every grid node, so at the default grid a
# figure takes about half a second; at this one about a tenth, and a
# run repeats each figure some thirty times.
FIGURE_SAMPLES = 49

# The render set is fixed, so the seed only orders the calls.  Zero-set
# figures of two F4 slice seeds (types 1, 2) and the two cuspidal-edge
# seeds (types 7, 8), the sign alternating with the type number; the
# p0q0 representatives of B+4 and C-4; one slice per family, at fixed
# values where strata cross the 3x3 box.  One pass takes about a
# second, so a run draws every figure some thirty times.
RENDER_F4 = [("F4+" if tid % 2 else "F4-", tid) for tid in (1, 2, 7, 8)]
RENDER_BC = [("B+4", "p0q0"), ("C-4", "p0q0")]
RENDER_SLICES = [("B+4", "l1,l2", "l3=1,l4=1"),
                 ("C-4", "l1,l2", "l3=1,l4=-1"),
                 ("F4+", "b,d", "a=1,c=1")]
# f = h(x) + y^2 with h > 0 on this representative: its zero set is
# empty, and its correct figure has no curve and about 400 bytes.
EMPTY_ZERO_SETS = {("B+4", "p0q0")}


class WrongOutput(Exception):
    """A call returned an answer that fails its correctness check."""


@dataclass
class Call:
    kind: str          # census | certify | refuse | render
    argv: list[str]
    expect: object = None


# ---------------------------------------------------------------------------
# workloads: set-up and rounds


def bc_keys(label: str) -> list[str]:
    mu = int(label[2:])
    return [f"p{p}q{q}" for p in range(mu + 1) for q in range(mu + 1 - p)
            if (mu - p - q) % 2 == 0]


F4_KEYS = [f"type{i}" for i in range(1, 9)]


def setup(workload: str) -> dict:
    """Import, lazy set-up and corpus load; everything before timing."""
    import discatlas.cli  # noqa: F401  (the import is part of set-up)
    from discatlas.classify import F4_SEEDS, f4_side_seeds
    from discatlas.models import f4_sigma0_eliminant

    f4_sigma0_eliminant()
    side = f4_side_seeds()
    state: dict = {}
    if workload in ("path_certify", "path_refuse"):
        sys.path.insert(0, str(HERE))
        import corpus

        state["corpus"] = corpus.load()
    if workload == "render_figures":
        from discatlas.atlas import construct_representative
        from discatlas.classify import BCSignature
        from discatlas.models import SingularityClass, f4_reduce
        from discatlas.render import default_viewport

        f4 = dict(F4_SEEDS + side)
        figures = []
        for label, tid in RENDER_F4:
            lam = f4[tid] if label == "F4+" else f4_reduce(f4[tid])
            figures.append((label, lam, True))
        for label, key in RENDER_BC:
            p, q = (int(v) for v in key[1:].split("q"))
            lam = construct_representative(SingularityClass.parse(label),
                                           BCSignature(p, q))
            figures.append((label, lam, (label, key) not in EMPTY_ZERO_SETS))
        state["figures"] = [
            (label, lam.text_list(),
             str(default_viewport(SingularityClass.parse(label), lam).xmax),
             curve)
            for label, lam, curve in figures]
    return state


def _census_calls(rng, labels, samples) -> list[Call]:
    return [Call("census",
                 ["atlas", label, "--samples", str(samples),
                  "--seed", str(rng.randrange(2 ** 31))],
                 F4_KEYS if label.startswith("F4") else bc_keys(label))
            for label in labels]


def census_calls(rng, state) -> list[Call]:
    return (_census_calls(rng, BC_LABELS, BC_CENSUS_SAMPLES)
            + _census_calls(rng, ["F4+", "F4-"], F4_CENSUS_SAMPLES))


def path_certify_calls(rng, state) -> list[Call]:
    """Every same-type pair of the frozen corpus, plus the known-defect
    and known-inconclusive pairs, in the corpus orientation: the path
    search cost depends on the direction, so the seed only orders these
    calls."""
    corpus = state["corpus"]
    pairs = [(label, a, b) for label, entry in corpus["classes"].items()
             for _, a, b in entry["pairs"]]
    pairs += [corpus["known_defect_pair"], corpus["known_inconclusive_pair"]]
    return [Call("certify", ["certify", label, *a, *b], (a, b))
            for label, a, b in pairs]


def path_refuse_calls(rng, state) -> list[Call]:
    """Every cross-type segment of the frozen corpus, seeded orientation."""
    calls = []
    for label, entry in state["corpus"]["classes"].items():
        for _, _, a, b in entry["cross"]:
            if rng.random() < 0.5:
                a, b = b, a
            calls.append(Call("refuse",
                              ["certify", label, "--segment", *a, *b]))
    return calls


def render_calls(rng, state) -> list[Call]:
    """The fixed render set; ``expect`` says whether a curve is drawn."""
    out = str(OUT_DIR / "render")
    calls = [Call("render", ["render", label, *lam, "--box", box,
                             "--samples", str(FIGURE_SAMPLES),
                             "--out", out], curve)
             for label, lam, box, curve in state["figures"]]
    for label, axes, fixed in RENDER_SLICES:
        calls.append(Call("render", ["render", label, "--axes", axes,
                                     "--slice", fixed, *SLICE_GRID,
                                     "--out", out], True))
    return calls


# Each builds the workload's call list once per run from
# random.Random(f"{workload}:{seed}").
WORKLOADS = {
    "census": census_calls,
    "path_certify": path_certify_calls,
    "path_refuse": path_refuse_calls,
    "render_figures": render_calls,
}


# ---------------------------------------------------------------------------
# correctness checks (outside the timed region)


def _same_point(got: list[str], want: list[str]) -> bool:
    return [Fraction(v) for v in got] == [Fraction(v) for v in want]


def check(call: Call, rc, out: str) -> bool:
    """True for a conclusive correct answer, False for a failed or
    inconclusive call; raises WrongOutput for a wrong answer."""
    if rc is None or rc in (1, 2):
        return False
    try:
        return _check_output(call, rc, json.loads(out))
    except (ValueError, KeyError, TypeError, IndexError,
            ElementTree.ParseError) as e:
        raise WrongOutput(f"{call.argv}: unreadable output {out!r}") from e


def _check_output(call: Call, rc: int, obj: dict) -> bool:
    if rc == 3:
        if call.kind != "certify" or obj.get("inconclusive") is not True:
            raise WrongOutput(f"unexpected exit 3: {obj}")
        return False
    if rc != 0:
        raise WrongOutput(f"unknown exit code {rc}")
    if call.kind == "census":
        keys = call.expect
        if (obj["match"] is not True or sorted(obj["realized"]) != sorted(keys)
                or obj["expected_components"] != len(keys)):
            raise WrongOutput(f"census {call.argv[1]}: {sorted(obj['realized'])}")
        if call.argv[1].startswith("F4"):
            for i in range(1, 7):
                rep = obj["realized"][f"type{i}"]["representative_c0"]
                if rep is None or Fraction(rep[2]) != 0:
                    raise WrongOutput(f"no c = 0 representative of type{i}")
    elif call.kind == "certify":
        start, end = call.expect
        way = obj["waypoints"]
        if (obj.get("certified") is not True or not _same_point(way[0], start)
                or not _same_point(way[-1], end) or not obj["segments"]
                or any(s["roots_in_unit_interval"] != 0
                       for s in obj["segments"])):
            raise WrongOutput(f"bad certificate for {call.argv}")
    elif call.kind == "refuse":
        w = obj.get("witness")
        if obj.get("certified") is not False or w is None:
            raise WrongOutput(f"cross-type segment not refused: {call.argv}")
        lo, hi = Fraction(w["lo"]), Fraction(w["hi"])
        if not 0 <= lo <= hi <= 1:
            raise WrongOutput(f"witness [{lo}, {hi}] outside [0, 1]")
    elif call.kind == "render":
        _check_svg(Path(obj["written"]), call.expect)
    return True


def _check_svg(path: Path, curve: bool) -> None:
    """A complete SVG document.  Where a curve is expected, it has one
    (a zero-set polyline, or a stratum contour line inside a group) and
    more than 500 bytes; where none is expected, it has none."""
    if not path.is_file():
        raise WrongOutput(f"missing figure {path}")
    root = ElementTree.parse(path).getroot()
    if root.tag != "{http://www.w3.org/2000/svg}svg":
        raise WrongOutput(f"{path} is not an SVG document")
    has_curve = (root.find(".//{*}polyline") is not None
                 or root.find(".//{*}g/{*}line") is not None)
    if has_curve != curve:
        raise WrongOutput(f"{path}: curve drawn {has_curve}, expected {curve}")
    if curve and path.stat().st_size <= 500:
        raise WrongOutput(f"short figure {path}")


# ---------------------------------------------------------------------------
# measurement


def percentile(values, q: float) -> float:
    """Nearest-rank q-th percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100 * len(s)) - 1)]


def tail_level(n: int) -> int | None:
    """Highest whole percentile (at most 99) with at least ten of n
    samples beyond it, or None when that is below the median."""
    if n <= 10:
        return None
    q = min(99, (100 * (n - 10)) // n)
    return q if q >= 50 else None


def latency_summary(values) -> dict:
    """Median plus the highest percentile the sample count supports."""
    q = tail_level(len(values))
    return {"n": len(values), "p50_ms": statistics.median(values) * 1e3,
            "tail_pct": q,
            "tail_ms": None if q is None else percentile(values, q) * 1e3}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    # latencies[i]: the seconds call i of the list took, one per round
    latencies: list[list[float]] = field(default_factory=list)

    def call_times(self) -> list[float]:
        """Each call's fastest latency over the rounds.  The machine's
        speed drifts by tens of percent over seconds (see ``measure``);
        the fastest of a call's repeats, spread over the run and the
        CPUs, varies least."""
        return [min(v) for v in self.latencies]

    def wall(self) -> float:
        """Time of one round of the fixed work, each call at its fastest."""
        return sum(self.call_times())


def execute(argv: list[str]) -> tuple[int | None, str, float]:
    """One in-process CLI call; rc None means it raised."""
    from discatlas import cli

    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
    except Exception:
        rc = None
    return rc, out.getvalue(), perf_counter() - t0


def measure(workload: str, seed: int, seconds: float, state: dict,
            tally: Tally, tracer=None, digest=None) -> None:
    """Run rounds until the next is not expected to fit in ``seconds``.

    Each round runs pinned to the next of the process's CPUs in turn.
    On a shared host one vCPU can run 30-50% slower than the other for
    tens of seconds; with the rounds spread over the CPUs, each call's
    fastest round is one on a CPU that was not slowed.
    """
    calls = WORKLOADS[workload](random.Random(f"{workload}:{seed}"), state)
    tally.latencies = [[] for _ in calls]
    cpus = sorted(os.sched_getaffinity(0))
    start = perf_counter()
    try:
        while not tally.rounds or ((perf_counter() - start)
                                   * (tally.rounds + 1) / tally.rounds
                                   <= seconds):
            os.sched_setaffinity(0, {cpus[tally.rounds % len(cpus)]})
            _round(workload, seed, calls, tally, tracer, digest)
            tally.rounds += 1
    finally:
        os.sched_setaffinity(0, cpus)


def _round(workload, seed, calls, tally, tracer, digest) -> None:
    """Every call once, in an order drawn from the seed and round index."""
    order = list(range(len(calls)))
    random.Random(f"{workload}:{seed}:{tally.rounds}").shuffle(order)
    for i in order:
        call = calls[i]
        if tracer is not None:
            tracer.call_id += 1
        rc, out, dt = execute(call.argv)
        if tracer is not None:
            tracer.flush()
        tally.latencies[i].append(dt)
        tally.attempted += 1
        if not check(call, rc, out):
            tally.failed += 1
        if digest is not None and tally.rounds == 0:
            digest.update(json.dumps([call.argv, rc, out]).encode())
            if call.kind == "render" and rc == 0:
                digest.update(Path(json.loads(out)["written"]).read_bytes())


def setup_seconds(workload: str) -> float:
    """Median time of ``setup`` over fresh interpreters."""
    code = ("import sys, time\n"
            f"sys.path[:0] = [{str(HERE)!r}, {str(ROOT / 'src')!r}]\n"
            "import run\n"
            "t0 = time.perf_counter()\n"
            f"run.setup({workload!r})\n"
            "print(time.perf_counter() - t0)\n")
    times = []
    for _ in range(SETUP_REPEATS):
        res = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                             capture_output=True, text=True, timeout=120,
                             check=True)
        times.append(float(res.stdout.split()[-1]))
    return statistics.median(times)


def machine() -> dict:
    import mpmath

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    sha = "unknown"
    with contextlib.suppress(OSError):
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (ROOT / ".git" / head[5:]).read_text().strip()
        sha = head
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(),
            "mpmath": mpmath.__version__, "git_sha": sha}


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def declared_metrics(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in benchmark_spec()[kind]}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def unwrapped_layers(tracer) -> list[str]:
    """Layers named by BENCHMARK.json's per-layer metrics that the
    tracer did not find and wrap, e.g. after a rename."""
    named = {name.rsplit(".", 1)[0] for name in declared_metrics("per_layer")
             if not name.startswith("trace.")}
    return sorted(named - tracer.wrapped)


def per_layer(tracer, n_rounds: int, overhead: float) -> dict[str, float]:
    """Per-layer metrics, each per round of fixed work."""
    out = {}
    for name, (calls, self_s) in tracer.totals.items():
        out[f"{name}.calls"] = calls / n_rounds
        out[f"{name}.self_s"] = self_s / n_rounds
    c = tracer.counts
    t = tracer.totals
    for name, value in c.items():
        out[name] = value / n_rounds
    out["models.discriminant_membership.nonsingular_ratio"] = _ratio(
        c["models.discriminant_membership.nonsingular"],
        t.get("models.discriminant_membership", (0,))[0])
    out["models.discriminant_membership.per_sample"] = _ratio(
        t.get("models.discriminant_membership", (0,))[0],
        c["atlas.enumerate_components.samples"])
    out["atlas.certify_path.segments"] = _ratio(
        c["atlas.certify_path.segments"], c["atlas.certify_path.certified"])
    out["atlas.certify_segment.useful_ratio"] = _ratio(
        c["atlas.certify_path.segments"],
        c["atlas.certify_segment.under_path"])
    out["trace.overhead_frac"] = overhead
    return out


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> int:
    state = setup(workload)
    meta = machine()
    tally = Tally()
    digest = hashlib.sha256()
    shutil.rmtree(OUT_DIR, ignore_errors=True)
    try:
        if not trace:
            setup_s = setup_seconds(workload)
            measure(workload, seed, seconds, state, tally, digest=digest)
            times = tally.call_times()
            lat = latency_summary(times)
            values = {
                "wall_s": tally.wall(),
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024,
                "conclusive_frac": 1 - tally.failed / tally.attempted,
                "call_p50_ms": lat["p50_ms"],
                "call_p90_ms": percentile(times, 90) * 1e3,
            }
            kind = "end_to_end"
            info = {"rounds": tally.rounds, "latency": lat}
        else:
            from spans import Tracer

            untraced = Tally()
            measure(workload, seed, seconds / 2, state, untraced)
            tracer = Tracer()
            tracer.install()
            try:
                missing = unwrapped_layers(tracer)
                if missing:
                    print(f"per-layer metrics name unknown layers: {missing}",
                          file=sys.stderr)
                    return 2
                measure(workload, seed, seconds / 2, state, tally, tracer,
                        digest=digest)
            finally:
                tracer.restore()
            overhead = tally.wall() / untraced.wall() - 1
            values = per_layer(tracer, tally.rounds, overhead)
            kind = "per_layer"
            tally.attempted += untraced.attempted
            tally.failed += untraced.failed
            info = {"untraced_rounds": untraced.rounds,
                    "traced_rounds": tally.rounds,
                    "layers": {k: {"calls": v[0], "self_s": round(v[1], 6)}
                               for k, v in sorted(tracer.totals.items())}}
    except WrongOutput as e:
        print(f"wrong output: {e}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": tally.attempted,
                          "failed": tally.failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(OUT_DIR, ignore_errors=True)

    units = declared_metrics(kind)
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"workload": workload, "seed": seed, "seconds": seconds,
                      "machine": meta, "output_sha256": digest.hexdigest(),
                      "fail_frac": tally.failed / tally.attempted, **info}))
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": True, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS stays per workload."""
    status = 0
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        res = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT)
        status = status or res.returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int,
                    default=benchmark_spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "discatlas" / "__init__.py").is_file():
        print(f"no discatlas sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
