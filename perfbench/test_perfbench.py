"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import importlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for p in (str(HERE), str(HERE.parent / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import corpus  # noqa: E402
import run  # noqa: E402
from spans import LAYER_MODULES, Tracer, self_times  # noqa: E402

DEFECT = ["certify", "B+4", "0", "8", "0", "16", "0", "5", "0", "4"]


def test_self_time_of_nested_spans():
    spans = [
        ("a", None, 1, 0.0, 10.0),
        ("b", 0, 1, 1.0, 4.0),
        ("c", 1, 1, 2.0, 3.0),
        ("b", 0, 1, 5.0, 6.0),
    ]
    got = self_times(spans)
    assert got["a"] == (1, pytest.approx(6.0))
    assert got["b"] == (2, pytest.approx(3.0))
    assert got["c"] == (1, pytest.approx(1.0))


def test_percentile_rule():
    assert run.tail_level(10) is None
    assert run.tail_level(20) == 50
    assert run.tail_level(100) == 90
    assert run.tail_level(285) == 96
    assert run.tail_level(5000) == 99
    values = [i / 1000 for i in range(1, 101)]
    s = run.latency_summary(values)
    assert s["n"] == 100 and s["tail_pct"] == 90
    assert s["p50_ms"] == pytest.approx(50.5)
    assert s["tail_ms"] == pytest.approx(90.0)
    assert sum(v * 1e3 > s["tail_ms"] for v in values) >= 10
    assert run.latency_summary(values[:10])["tail_ms"] is None


def _bindings():
    import mpmath

    from discatlas.exactpoly import MultiPoly

    mods = [importlib.import_module(f"discatlas.{m}") for m in LAYER_MODULES]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    snap[("MultiPoly", "eval")] = MultiPoly.eval
    snap[("mpmath", "polyroots")] = mpmath.polyroots
    return snap


def test_wrappers_restored_after_traced_run():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        tracer.call_id = 1
        rc, out, _ = run.execute(["certify", "F4+", "1", "1", "0", "0",
                                  "1", "2", "0", "0", "--segment"])
        tracer.flush()
    finally:
        tracer.restore()
    after = _bindings()
    assert rc == 0
    assert all(after[k] is v for k, v in before.items())
    assert tracer.totals["cli.run"][0] == 1
    for layer in ("atlas.certify_segment", "exactpoly.sturm_count",
                  "exactpoly.MultiPoly.eval", "models.discriminant_membership"):
        assert tracer.totals[layer][0] >= 1, layer
    assert not tracer.spans
    assert not tracer.wrapped


def test_every_named_layer_is_wrapped(monkeypatch):
    tracer = Tracer()
    tracer.install()
    try:
        assert run.unwrapped_layers(tracer) == []
        monkeypatch.setattr(tracer, "wrapped",
                            tracer.wrapped - {"exactpoly.sturm_count"})
        assert run.unwrapped_layers(tracer) == ["exactpoly.sturm_count"]
    finally:
        tracer.restore()


def test_figure_check_follows_expected_curve(tmp_path):
    svg = '<svg xmlns="http://www.w3.org/2000/svg">{}</svg>'
    empty = tmp_path / "empty.svg"
    empty.write_text(svg.format('<line x1="0" y1="0" x2="1" y2="1"/>'))
    run._check_svg(empty, False)
    with pytest.raises(run.WrongOutput):
        run._check_svg(empty, True)
    curve = tmp_path / "curve.svg"
    curve.write_text(svg.format('<polyline points="0,0 1,1"/>'))
    with pytest.raises(run.WrongOutput):
        run._check_svg(curve, True)
    curve.write_text(svg.format('<polyline points="0,0 1,1"/>'
                                + "<!-- pad -->" * 50))
    run._check_svg(curve, True)
    with pytest.raises(run.WrongOutput):
        run._check_svg(curve, False)


def test_inconclusive_call_counts_as_failed(monkeypatch):
    call = run.Call("certify", DEFECT, (DEFECT[2:6], DEFECT[6:]))
    monkeypatch.setitem(run.WORKLOADS, "defect", lambda rng, state: [call])
    tally = run.Tally()
    cpus = os.sched_getaffinity(0)
    run.measure("defect", 0, 0.0, {}, tally)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.rounds == 1
    assert os.sched_getaffinity(0) == cpus


def test_wrong_output_is_not_counted_but_raised():
    same_type = ["certify", "B+2", "0", "-1", "0", "-4"]
    rc, out, _ = run.execute(same_type + ["--segment"])
    assert rc == 0
    with pytest.raises(run.WrongOutput):
        run.check(run.Call("refuse", same_type), rc, out)


def test_generator_reproduces_frozen_corpus():
    assert corpus.dumps(corpus.generate(corpus.CORPUS_SEED)) \
        == corpus.CORPUS_PATH.read_text()


def test_fails_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "path_certify",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout == ""
