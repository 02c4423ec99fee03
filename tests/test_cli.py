"""Command-line surface: JSON payloads, exit codes, file emission.

Everything runs in-process through run() except the subprocess tests
of ``python -m discatlas`` and of the installed console script.
"""

import hashlib
import importlib
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from discatlas.cli import (USAGE, _COMMAND_FLAGS, _FLAG_ARITY,
                           _split_args, run)

cli_mod = importlib.import_module("discatlas.cli")


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# classify


def test_classify_b2_exact_bytes(capsys):
    code, out, err = invoke(capsys, "classify", "B+2", "0", "-1")
    assert code == 0
    assert out == '{"membership":"NonSingular","type":{"p":1,"q":1}}\n'
    assert err == ""


def test_classify_f4_includes_type_id(capsys):
    code, out, _ = invoke(capsys, "classify", "F4+", "1", "1", "0", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["type_id"] == 1
    assert payload["type"] == {"roots": [["B", "+"]], "oval": "A"}


def test_classify_discriminant_point_is_domain_error(capsys):
    # (0,-3,0,2) lies on both strata (it is a cuspidal-edge point)
    code, out, _ = invoke(capsys, "classify", "F4+", "0", "-3", "0", "2")
    assert code == 2
    assert json.loads(out) == {"membership": "Both"}


def test_classify_rational_literals(capsys):
    code, out, _ = invoke(capsys, "classify", "B+2", "-1/2", "1/3")
    assert code == 0
    assert json.loads(out)["membership"] == "NonSingular"


def test_classify_rejects_floats(capsys):
    code, out, err = invoke(capsys, "classify", "B+2", "0.5", "1")
    assert code == 1
    assert "error" in err


def test_classify_arity_usage_error(capsys):
    code, _, err = invoke(capsys, "classify", "B+2", "1/2")
    assert code == 1
    assert "takes 2 parameters" in err


# ---------------------------------------------------------------------------
# info / eliminant


def test_info_payload(capsys):
    code, out, _ = invoke(capsys, "info", "C5-")
    assert code == 0
    payload = json.loads(out)
    assert payload["expected_components"] == 12
    assert payload["decomposition"] == ["A1", "A4"]


def test_eliminant_frozen(capsys):
    code, out, _ = invoke(capsys, "eliminant")
    assert code == 0
    payload = json.loads(out)
    assert payload["variables"] == ["a", "b", "c", "d"]
    assert payload["sigma0"].startswith("27*a^4 + a^3*c^3")
    assert payload["sigma1"] == "4*b^3 + 27*d^2"


# ---------------------------------------------------------------------------
# certify


def test_certify_segment_success(capsys):
    code, out, _ = invoke(capsys, "certify", "B+2", "0", "-1", "0", "-4",
                          "--segment")
    assert code == 0
    payload = json.loads(out)
    assert payload["certified"] is True
    assert payload["segments"][0]["polynomial"] == "-36*t^2 - 24*t - 4"


def test_certify_segment_failure_witness(capsys):
    code, out, _ = invoke(capsys, "certify", "B+2", "0", "-1", "0", "1",
                          "--segment")
    assert code == 0
    payload = json.loads(out)
    assert payload["certified"] is False
    lo = Fraction(payload["witness"]["lo"])
    hi = Fraction(payload["witness"]["hi"])
    assert lo <= Fraction(1, 2) <= hi


# full certify --segment output of the known-defect pair (its witness is
# the exact root t = 0) and of one refused cross-type segment each for
# B, C and F4-, recorded before the root decisions were reworked; then,
# with their exit code, two B endpoints on the discriminant that reach
# the whole-line count of a multiple root, recorded before that count
# left the Sturm chain
SEGMENT_PINS = json.loads(
    (Path(__file__).parent / "certify_segment_pins.json").read_text())


@pytest.mark.parametrize("pin", SEGMENT_PINS, ids=[
    p["argv"].split()[1] + (f"-exit{p['exit']}" if "exit" in p else "")
    for p in SEGMENT_PINS])
def test_certify_segment_output_pinned(capsys, pin):
    code, out, err = invoke(capsys, *pin["argv"].split())
    assert code == pin.get("exit", 0) and err == ""
    assert out == pin["stdout"]


# h_t keeps a complex double root along each segment, so disc(h_t) and
# the segment polynomial vanish identically although both endpoints are
# nonsingular: B+6 moves h_t = (x^2+4)^2 (x^2+1+t), and the B+4 segment
# has one point, (x^2+4)^2, for both ends
@pytest.mark.parametrize("argv", [
    "certify B+6 0 9 0 24 0 16 0 10 0 32 0 32",
    "certify B+6 0 9 0 24 0 16 0 10 0 32 0 32 --segment",
    "certify B+4 0 8 0 16 0 8 0 16 --segment",
], ids=["B+6", "B+6-segment", "B+4-segment"])
def test_certify_zero_segment_polynomial_is_inconclusive(capsys, argv):
    code, out, err = invoke(capsys, *argv.split())
    assert code == 3 and err == ""
    assert json.loads(out) == {
        "certified": False, "inconclusive": True,
        "reason": "the segment polynomial vanishes identically"}


def test_certify_path_type_mismatch_domain_error(capsys):
    code, out, _ = invoke(capsys, "certify", "B+2", "0", "-1", "0", "1")
    assert code == 2
    assert "error" in json.loads(out)


def test_certify_path_success(capsys):
    code, out, _ = invoke(capsys, "certify", "B+4",
                          "1", "-7", "-1", "6", "0", "-5", "0", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["certified"] is True
    assert payload["waypoints"][0] == ["1", "-7", "-1", "6"]


# f_x = a + c*y vanishes identically at a = c = 0, so classify gives no
# labels to an F4 point there, though it is off the discriminant; the
# path search certifies it against a type-6 point of its component and
# gives up (exit 3) against a type-1 point
@pytest.mark.parametrize("argv", [
    "certify F4+ 0 -1 0 0 1 -1 0 0",
    "certify F4- 0 -1 0 0 -1 -1 0 0",
], ids=["F4+", "F4-"])
def test_certify_path_from_the_label_wall(capsys, argv):
    code, out, err = invoke(capsys, *argv.split())
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["certified"] is True
    assert payload["waypoints"][0] == argv.split()[2:6]
    assert payload["waypoints"][-1] == argv.split()[6:]
    assert all(seg["roots_in_unit_interval"] == 0
               for seg in payload["segments"])


def test_certify_path_from_the_label_wall_to_another_type(capsys):
    code, out, err = invoke(capsys, *"certify F4+ 0 -1 0 0 1 1 0 0".split())
    assert code == 3 and err == ""
    assert json.loads(out)["inconclusive"] is True


def test_certify_discriminant_endpoint(capsys):
    code, out, _ = invoke(capsys, "certify", "B+2", "0", "0", "0", "-1",
                          "--segment")
    assert code == 2


# ---------------------------------------------------------------------------
# atlas


# stdout of the benchmark's census calls (F4 at 250 samples, seeds 0-2;
# B+5, C-6 and B-7 at 100) as SHA-256, and the full classify output of
# the eight F4 seeds of each sign; then four more censuses: a
# non-integer box (B+3), a non-integer box with --den (F4-), a grid
# (C+4), and an integer F4+ box where 38 samples take the label-wall
# nudge.  The census hashes are of the samples drawn from one generator
# per census; drawing them so changed only the counts and rejection
# tallies, never a realized type or representative.  Last, B/C classify
# calls on the measure-zero branch, where a multiple root of h is
# counted on the whole line: complex ones (exit 0) and real ones (exit 2)
CENSUS_PINS = json.loads(
    (Path(__file__).parent / "census_pins.json").read_text())


@pytest.mark.parametrize("pin", CENSUS_PINS,
                         ids=[p["argv"] for p in CENSUS_PINS])
def test_census_output_pinned(capsys, pin):
    _check_pin(capsys, pin)


# stdout SHA-256 and exit code of the benchmark's 254 path_certify calls
# (perfbench/path_corpus.json), recorded before the path search stopped
# testing waypoint membership and replaying its second leg backwards
PATH_PINS = json.loads(
    (Path(__file__).parent / "certify_path_pins.json").read_text())


@pytest.mark.parametrize("pin", PATH_PINS, ids=[p["argv"] for p in PATH_PINS])
def test_certify_path_output_pinned(capsys, pin):
    _check_pin(capsys, pin)


# stdout of info for B+-/C+- at mu = 2..7 and F4+-, recorded before the
# normal form and both deformations were read from one term table
INFO_PINS = json.loads((Path(__file__).parent / "info_pins.json").read_text())


@pytest.mark.parametrize("pin", INFO_PINS, ids=[p["argv"] for p in INFO_PINS])
def test_info_output_pinned(capsys, pin):
    _check_pin(capsys, pin)


def _check_pin(capsys, pin):
    code, out, err = invoke(capsys, *pin["argv"].split())
    assert code == pin["exit"] and err == ""
    if "stdout" in pin:
        assert out == pin["stdout"]
    else:
        assert hashlib.sha256(out.encode()).hexdigest() == \
            pin["stdout_sha256"]



def test_atlas_stdout_report(capsys):
    code, out, _ = invoke(capsys, "atlas", "B+2", "--samples", "60",
                          "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == "B+2"
    assert payload["expected_components"] == 4 and payload["match"] is True
    assert set(payload["realized"]) == {"p0q0", "p1q1", "p2q0", "p0q2"}


def test_atlas_grid_samples_every_node(capsys):
    # 4 signature seeds plus the 3 x 3 grid over [-5, 5]^2; the three
    # nodes with h(0) = 0 lie on Sigma1, and (0, 0) on Sigma0 too
    code, out, _ = invoke(capsys, "atlas", "B+2", "--grid", "3",
                          "--samples", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["total_samples"] == 13
    assert payload["config"]["grid_resolution"] == 3
    assert payload["rejections"] == {"Sigma0": 0, "Sigma1": 2, "Both": 1,
                                     "NonGeneric": 0}
    assert {k: v["count"] for k, v in payload["realized"].items()} == \
        {"p0q0": 2, "p0q2": 2, "p1q1": 4, "p2q0": 2}


def test_atlas_out_file_and_jobs(tmp_path, capsys):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    code, _, _ = invoke(capsys, "atlas", "C+3", "--samples", "80",
                        "--seed", "5", "--out", str(out_a))
    assert code == 0
    code, _, _ = invoke(capsys, "atlas", "C+3", "--samples", "80",
                        "--seed", "5", "--jobs", "2", "--out", str(out_b))
    assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    payload = json.loads(out_a.read_text())
    assert payload["match"] is True and payload["expected_components"] == 6


def test_atlas_figures_directory(tmp_path, capsys):
    figs = tmp_path / "figs"
    code, out, _ = invoke(capsys, "atlas", "B+2", "--samples", "40",
                          "--figures", str(figs))
    assert code == 0
    payload = json.loads(out)
    names = payload["figures"]
    assert len(names) == 4
    for name in names:
        assert (figs / name).exists()


# ---------------------------------------------------------------------------
# render


def test_render_zero_set_writes_file(tmp_path, capsys):
    code, out, _ = invoke(capsys, "render", "B+2", "0", "-1",
                          "--out", str(tmp_path))
    assert code == 0
    path = json.loads(out)["written"]
    assert path.endswith(".svg")
    text = open(path).read()
    assert text.startswith("<svg") and 'stroke-dasharray="4,3"' in text


def test_render_px_without_box_resizes_default_viewport(tmp_path, capsys):
    code, out, _ = invoke(capsys, "render", "B+2", "0", "-1", "--px", "64",
                          "--out", str(tmp_path / "px"))
    assert code == 0
    text = open(json.loads(out)["written"]).read()
    assert 'width="64" height="64"' in text.split("\n")[0]
    # the default box of this parameter has radius 2 + max |lambda_i| = 3
    code, out, _ = invoke(capsys, "render", "B+2", "0", "-1", "--px", "64",
                          "--box", "3", "--out", str(tmp_path / "box"))
    assert code == 0
    assert open(json.loads(out)["written"]).read() == text


def test_render_slice_writes_file(tmp_path, capsys):
    code, out, _ = invoke(capsys, "render", "F4+", "--axes", "b,d",
                          "--slice", "a=0,c=0", "--out", str(tmp_path))
    assert code == 0
    path = json.loads(out)["written"]
    assert "slice" in path and path.endswith(".svg")


@pytest.mark.parametrize("argv", [
    ["render", "F4+", "--axes", "b,d", "--slice", "a=0.5,c=0"],
    ["atlas", "B+2", "--samples", "-1"],
    ["atlas", "B+2", "--den", "0"],
    ["render", "B+2", "0", "-1", "--box", "2", "--px", "8"],
    ["render", "B+2", "0", "-1", "--px", "8"],
    ["render", "F4+", "--axes", "b,d", "--slice", "a=0,c=0",
     "--samples", "10"],
    ["render", "F4+", "--axes", "b,d", "--slice", "a=0,c=0",
     "--box", "3", "--samples", "10"],
    ["render", "F4+", "--axes", "b,d", "--slice", "a=0,c=0,z=1"],
    ["certify", "F4+", "1", "1", "0", "0", "2", "1", "0", "1",
     "--budget", "-1"],
    ["certify", "F4+", "1", "1", "0", "0", "2", "1", "0", "1",
     "--segment", "--budget", "-1"],
    ["atlas", "B+2", "--samples", "10", "--jobs", "0"],
    ["atlas", "B+2", "--samples", "10", "--jobs", "-3"],
    ["certify", "F4+", "1", "1", "0", "0", "2", "1", "0", "1",
     "--figures", "figs"],
    ["atlas", "B+2", "--samples", "3", "--budget", "5"],
    ["render", "B+2", "0", "-1", "--segment"],
    ["render", "B+2", "0", "-1", "--slice", "l1=0"],
    ["classify", "B+2", "0", "-1", "--seed", "1"],
    ["render", "B+3", "--axes", "l1,l2", "--slice", "l3=1,l3=2"],
    ["render", "B+2", "0", "-1", "--box", "0"],
    ["render", "F4+", "--axes", "b,d", "--slice", "a=0,c=0",
     "--box", "-1"],
], ids=["slice-float", "samples", "den", "px", "px-no-box",
        "slice-samples-no-box", "slice-samples", "slice-name",
        "budget-negative", "segment-budget-negative", "jobs-zero",
        "jobs-negative", "certify-figures", "atlas-budget",
        "render-segment", "render-slice-no-axes", "classify-seed",
        "slice-duplicate-name", "box-zero", "box-negative"])
def test_bad_input_is_usage_error(tmp_path, capsys, argv):
    # --out goes only to commands that take it, so that each call fails
    # for its own reason and not for a foreign --out
    out_path = tmp_path / "out"
    if "--out" in _COMMAND_FLAGS[argv[0]]:
        argv = [*argv, "--out", str(out_path)]
    code, out, err = invoke(capsys, *argv)
    assert code == 1
    assert out == "" and "usage:" in err
    assert not out_path.exists()


def test_certify_budget_zero_is_inconclusive(capsys):
    # a zero budget is a valid request that tries no segment
    code, out, _ = invoke(capsys, "certify", "F4+", "1", "1", "0", "0",
                          "2", "1", "0", "1", "--budget", "0")
    assert code == 3
    assert json.loads(out) == {"certified": False, "inconclusive": True,
                               "reason": "budget of 0 segments exhausted"}


def test_render_bad_axes_domain_error(capsys):
    code, out, _ = invoke(capsys, "render", "F4+", "--axes", "b,d",
                          "--slice", "a=0")
    assert code == 2
    assert "error" in json.loads(out)


@pytest.mark.parametrize("axes, fixed", [
    ("b,d", "a=0"), ("a", "b=0,c=0,d=0"), ("a,b,c", "d=0")],
    ids=["fixed-short", "one-axis", "three-axes"])
def test_render_bad_axes_writes_nothing(tmp_path, capsys, axes, fixed):
    # the axes are checked before a file name is built or --out made
    out_path = tmp_path / "out"
    code, out, _ = invoke(capsys, "render", "F4+", "--axes", axes,
                          "--slice", fixed, "--out", str(out_path))
    assert code == 2
    assert "error" in json.loads(out)
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [
    ["atlas", "B+2", "--samples", "3", "--out", "{dir}/missing/x.json"],
    ["atlas", "B+2", "--samples", "3", "--out", "{dir}"],
    ["render", "B+2", "0", "-1", "--out", "{file}"],
    ["atlas", "B+2", "--samples", "3", "--figures", "{file}"],
    ["render", "B+2", "--axes", "l1,l2", "--out", "{file}/sub"],
], ids=["missing-parent", "out-is-dir", "render-out-is-file",
        "figures-is-file", "out-below-file"])
def test_unwritable_output_path_is_domain_error(tmp_path, capsys, argv):
    # an output path the file system refuses is exit 2 with one JSON
    # error line, not a traceback
    (tmp_path / "f").write_text("")
    argv = [t.format(dir=tmp_path, file=tmp_path / "f") for t in argv]
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and err == ""
    assert out.count("\n") == 1 and list(json.loads(out)) == ["error"]


@pytest.mark.parametrize("argv", [
    ["atlas", "B+2", "--samples", "3", "--out", "{dir}/missing/x.json"],
    ["atlas", "B+2", "--samples", "3", "--out", "{dir}"],
    ["atlas", "B+2", "--samples", "3", "--figures", "{file}"],
], ids=["missing-parent", "out-is-dir", "figures-is-file"])
def test_unwritable_atlas_path_fails_before_the_census(tmp_path, capsys,
                                                       monkeypatch, argv):
    def census(*args, **kwargs):
        raise AssertionError("the census ran before the path was checked")

    monkeypatch.setattr(cli_mod, "enumerate_components", census)
    (tmp_path / "f").write_text("")
    argv = [t.format(dir=tmp_path, file=tmp_path / "f") for t in argv]
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and err == ""
    assert out.count("\n") == 1 and list(json.loads(out)) == ["error"]


# ---------------------------------------------------------------------------
# top level


def test_no_arguments_prints_usage(capsys):
    code, out, err = invoke(capsys)
    assert code == 1
    assert "usage:" in out + err


def test_help_flag_exits_zero(capsys):
    code, out, err = invoke(capsys, "--help")
    assert code == 0
    assert "usage:" in out + err


def test_usage_lists_every_flag():
    for flag in _FLAG_ARITY:
        assert flag in USAGE, flag


def _usage_flags() -> dict[str, set[str]]:
    """The flags USAGE shows on each command's synopsis lines."""
    shown: dict[str, set[str]] = {}
    cmd = None
    for line in USAGE.splitlines():
        indent = len(line) - len(line.lstrip())
        if indent == 2:
            cmd = line.split()[0]
        elif indent < 8:
            cmd = None  # a description or the closing notes
        if cmd:
            shown.setdefault(cmd, set()).update(
                w.strip("[]") for w in line.split()
                if w.lstrip("[").startswith("--"))
    return shown


def test_every_usage_flag_is_taken_by_its_command():
    shown = _usage_flags()
    assert shown == {cmd: set(f) for cmd, f in _COMMAND_FLAGS.items()}
    for cmd, flags in shown.items():
        for flag in flags:
            value = ["1"] * _FLAG_ARITY[flag]
            assert _split_args(cmd, [flag, *value]) \
                == ([], {flag: "".join(value)})


def test_unknown_command(capsys):
    code, _, err = invoke(capsys, "bogus")
    assert code == 1
    assert "unknown command" in err


def test_unknown_flag(capsys):
    code, _, err = invoke(capsys, "atlas", "B+2", "--frobnicate", "1")
    assert code == 1


def test_negative_rationals_not_swallowed_as_flags(capsys):
    code, out, _ = invoke(capsys, "classify", "B+2", "-1/2", "-1")
    assert code == 0
    assert json.loads(out)["membership"] == "NonSingular"


SRC = Path(__file__).resolve().parent.parent / "src"


def _env_with_src():
    """The environment with the source tree first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


@pytest.mark.parametrize("argv,code,stdout", [
    (["classify", "B+2", "0", "-1"], 0,
     '{"membership":"NonSingular","type":{"p":1,"q":1}}\n'),
    (["certify", "F4+", "1", "1", "0", "0", "2", "1", "0", "1",
      "--budget", "0"], 3,
     '{"certified":false,"inconclusive":true,'
     '"reason":"budget of 0 segments exhausted"}\n'),
], ids=["classify", "inconclusive"])
def test_python_m_discatlas(argv, code, stdout):
    env = _env_with_src()
    r = subprocess.run([sys.executable, "-m", "discatlas", *argv],
                       capture_output=True, text=True, env=env, timeout=120)
    assert (r.returncode, r.stdout, r.stderr) == (code, stdout, "")


def test_cli_import_loads_no_process_pool():
    # only atlas --jobs N > 1 needs the pool, so no other call should
    # pay for loading multiprocessing
    env = _env_with_src()
    r = subprocess.run(
        [sys.executable, "-c", "import sys, discatlas.cli; "
         "print('concurrent.futures.process' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120)
    assert (r.returncode, r.stdout, r.stderr) == (0, "False\n", "")


def test_certify_homotopy_runs_without_mpmath():
    # this pair needs the root-space homotopy; the import blocker makes
    # any use of mpmath fail
    start = ["-129/53", "9/2", "-42/13"]
    end = ["-99/26", "-71/15", "-15/8"]
    code = ("import sys; sys.modules['mpmath'] = None; "
            "from discatlas.cli import run; sys.exit(run(sys.argv[1:]))")
    env = _env_with_src()
    r = subprocess.run([sys.executable, "-c", code, "certify", "B-3",
                        *start, *end],
                       capture_output=True, text=True, env=env, timeout=120)
    assert (r.returncode, r.stderr) == (0, "")
    cert = json.loads(r.stdout)
    assert cert["certified"] is True
    assert len(cert["waypoints"]) > 2
    assert cert["waypoints"][0] == start and cert["waypoints"][-1] == end


def test_console_script_smoke():
    exe = shutil.which("discatlas")
    if exe is None:
        pytest.skip("console script not installed")
    r = subprocess.run([exe, "classify", "B+2", "0", "-1"],
                       capture_output=True, text=True)
    assert r.returncode == 0
    assert r.stdout == '{"membership":"NonSingular","type":{"p":1,"q":1}}\n'
