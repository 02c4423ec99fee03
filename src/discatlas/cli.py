"""Command-line surface with JSON output.

Hand-rolled argument handling: parameter literals such as "-1/2" are
indistinguishable from option syntax to stock parsers, and the exit
code contract (0 ok, 1 usage, 2 domain error, 3 inconclusive) must be
exact.  Flags may appear anywhere after the subcommand; anything that
does not start with "--" is a positional, and a flag the command does
not read is a usage error.  All rationals are "num/den" or
integer literals; floats are rejected.  Identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from fractions import Fraction

from .atlas import (
    DiscriminantEndpoint,
    NotFound,
    SamplingConfig,
    TypeMismatch,
    certify_path,
    certify_segment,
    enumerate_components,
)
from .classify import (
    DiscriminantParameter,
    NonGenericConfiguration,
    canonical_type_id,
    classify,
)
from .exactpoly import ArityMismatch, parse_rational
from .models import (
    Membership,
    Parameter,
    SingularityClass,
    f4_sigma0_eliminant,
    f4_sigma1_polynomial,
    table1_metadata,
)
from .render import (
    SLICE_VIEWPORT,
    BadAxes,
    EmptyViewport,
    Viewport,
    default_viewport,
    write_figure,
    write_slice,
)

USAGE = """\
usage: discatlas <command> [arguments]

commands:
  info <class>
      Table metadata for one class (e.g. B+4, C5-, F4+).
  classify <class> <param...>
      Discriminant membership and, off the discriminant, the
      topological type of the lower-value set.
  atlas <class> [--seed N] [--samples N] [--grid N] [--box R]
                [--den N] [--jobs N] [--out FILE] [--figures DIR]
      Component census with constructive seeds; writes a JSON report.
  certify <class> <start-params...> <end-params...>
          [--segment] [--budget N] [--seed N]
      Exact path certificate between two nonsingular parameters
      (--segment: straight segment only, failure yields a witness).
  render <class> <param...> [--out DIR] [--box R] [--samples N] [--px N]
  render <class> --axes U,V [--slice NAME=R,NAME=R...] [--out DIR] ...
      SVG figure of the zero set, or of a 2-parameter discriminant
      slice.
  eliminant
      The stratum-defining polynomials for F4.

rationals are integers or num/den (no floats); exit codes: 0 ok,
1 usage error, 2 domain error, 3 not found / inconclusive\
"""

_FLAG_ARITY = {
    "--seed": 1, "--samples": 1, "--grid": 1, "--box": 1, "--den": 1,
    "--jobs": 1, "--out": 1, "--figures": 1, "--budget": 1,
    "--segment": 0, "--slice": 1, "--axes": 1, "--px": 1,
}

# the flags each command reads; any other flag is a usage error
_COMMAND_FLAGS = {
    "info": (),
    "classify": (),
    "atlas": ("--seed", "--samples", "--grid", "--box", "--den", "--jobs",
              "--out", "--figures"),
    "certify": ("--segment", "--budget", "--seed"),
    "render": ("--out", "--box", "--samples", "--px", "--axes", "--slice"),
    "eliminant": (),
}


class UsageError(ValueError):
    pass


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")


def _split_args(cmd: str, tokens: list[str]
                ) -> tuple[list[str], dict[str, str]]:
    pos: list[str] = []
    flags: dict[str, str] = {}
    i = 0
    while i < len(tokens):
        t = tokens[i]
        if t.startswith("--"):
            if t not in _FLAG_ARITY:
                raise UsageError(f"unknown flag {t}")
            if t not in _COMMAND_FLAGS[cmd]:
                raise UsageError(f"{cmd} does not take {t}")
            if _FLAG_ARITY[t]:
                if i + 1 >= len(tokens):
                    raise UsageError(f"flag {t} needs a value")
                flags[t] = tokens[i + 1]
                i += 2
            else:
                flags[t] = ""
                i += 1
        else:
            pos.append(t)
            i += 1
    return pos, flags


def _parse_class(text: str) -> SingularityClass:
    try:
        return SingularityClass.parse(text)
    except ValueError as e:
        raise UsageError(str(e)) from e


def _parse_params(sc: SingularityClass, literals: list[str]) -> Parameter:
    if len(literals) != sc.parameter_count:
        raise UsageError(
            f"{sc.label()} takes {sc.parameter_count} parameters, "
            f"got {len(literals)}")
    try:
        return Parameter(tuple(parse_rational(s) for s in literals))
    except ValueError as e:
        raise UsageError(str(e)) from e


def _int_flag(flags: dict, name: str, default: int) -> int:
    if name not in flags:
        return default
    try:
        return int(flags[name])
    except ValueError as e:
        raise UsageError(f"flag {name} needs an integer") from e


def _rat_flag(flags: dict, name: str, default) -> Fraction:
    if name not in flags:
        return Fraction(default)
    try:
        return parse_rational(flags[name])
    except ValueError as e:
        raise UsageError(f"flag {name} needs a rational") from e


def _cmd_info(pos, flags):
    if len(pos) != 1:
        raise UsageError("info takes exactly one class argument")
    _emit(table1_metadata(_parse_class(pos[0])))
    return 0


def _cmd_classify(pos, flags):
    if not pos:
        raise UsageError("classify takes a class and its parameters")
    sc = _parse_class(pos[0])
    lam = _parse_params(sc, pos[1:])
    m = Membership.NON_SINGULAR.value
    try:
        t = classify(sc, lam)
    except DiscriminantParameter as e:
        _emit({"membership": e.membership.value})
        return 2
    except NonGenericConfiguration as e:
        _emit({"membership": m, "error": str(e)})
        return 2
    out = {"membership": m, "type": t.json_obj()}
    if sc.family == "F4":
        out["type_id"] = canonical_type_id(t)
    _emit(out)
    return 0


def _cmd_atlas(pos, flags):
    if len(pos) != 1:
        raise UsageError("atlas takes exactly one class argument")
    sc = _parse_class(pos[0])
    try:
        cfg = SamplingConfig(
            box_radius=_rat_flag(flags, "--box", 5),
            random_count=_int_flag(flags, "--samples", 2000),
            grid_resolution=_int_flag(flags, "--grid", 0),
            rng_seed=_int_flag(flags, "--seed", 0),
            denominator_bound=_int_flag(flags, "--den", 64),
        )
    except ValueError as e:
        raise UsageError(str(e)) from e
    jobs = _int_flag(flags, "--jobs", 1)
    if jobs < 1:
        raise UsageError("flag --jobs needs an integer of at least 1")
    report = enumerate_components(sc, cfg, jobs=jobs)
    obj = report.json_obj()
    if "--figures" in flags:
        names = []
        for entry in report.realized.values():
            lam = Parameter(tuple(Fraction(v)
                                  for v in entry["representative"]))
            names.append(write_figure(sc, lam, flags["--figures"]).name)
        obj["figures"] = names
    text = json.dumps(obj, separators=(",", ":")) + "\n"
    if "--out" in flags:
        with open(flags["--out"], "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_certify(pos, flags):
    if not pos:
        raise UsageError("certify takes a class and two parameter points")
    sc = _parse_class(pos[0])
    n = sc.parameter_count
    if len(pos) != 1 + 2 * n:
        raise UsageError(
            f"certify {sc.label()} takes {2 * n} parameter literals "
            f"(start then end), got {len(pos) - 1}")
    start = _parse_params(sc, pos[1:1 + n])
    end = _parse_params(sc, pos[1 + n:])
    budget = _int_flag(flags, "--budget", 48)
    if budget < 0:
        raise UsageError("flag --budget needs a nonnegative integer")
    seed = _int_flag(flags, "--seed", 0)
    if "--segment" in flags:
        res = certify_segment(sc, start, end)
        _emit(res.json_obj())
        return 0
    cert = certify_path(sc, start, end, rng_seed=seed, budget=budget)
    _emit(cert.json_obj())
    return 0


def _parse_slice_assignment(sc: SingularityClass, text: str) -> dict:
    fixed = {}
    if not text:
        return fixed
    for part in text.split(","):
        if "=" not in part:
            raise UsageError(f"bad slice assignment {part!r}")
        name, lit = (s.strip() for s in part.split("=", 1))
        if name not in sc.parameter_names:
            raise UsageError(f"{sc.label()} has no parameter {name!r}")
        if name in fixed:
            raise UsageError(f"slice assigns {name!r} twice")
        try:
            fixed[name] = parse_rational(lit)
        except ValueError as e:
            raise UsageError(str(e)) from e
    return fixed


def _cmd_render(pos, flags):
    if not pos:
        raise UsageError("render takes a class argument")
    sc = _parse_class(pos[0])
    out_dir = flags.get("--out", ".")
    box = _rat_flag(flags, "--box", 0)
    if "--box" in flags and box <= 0:
        raise UsageError("flag --box needs a positive rational")
    samples = _int_flag(flags, "--samples", 129)
    px = _int_flag(flags, "--px", 480)
    if "--axes" in flags:
        if len(pos) != 1:
            raise UsageError("slice rendering takes no parameter literals")
        axes = tuple(a.strip() for a in flags["--axes"].split(","))
        fixed = _parse_slice_assignment(sc, flags.get("--slice", ""))
        base = SLICE_VIEWPORT
    else:
        if "--slice" in flags:
            raise UsageError("--slice needs --axes")
        lam = _parse_params(sc, pos[1:])
        base = default_viewport(sc, lam)
    # --px and --samples without --box apply to the default box
    try:
        if box:
            base = Viewport(-box, box, -box, box)
        vp = replace(base, width=px, height=px, samples=samples)
    except EmptyViewport:
        raise
    except ValueError as e:
        raise UsageError(str(e)) from e
    if "--axes" in flags:
        path = write_slice(sc, fixed, axes, out_dir, vp)
    else:
        path = write_figure(sc, lam, out_dir, vp)
    _emit({"written": str(path)})
    return 0


def _cmd_eliminant(pos, flags):
    if pos:
        raise UsageError("eliminant takes no arguments")
    _emit({
        "variables": ["a", "b", "c", "d"],
        "sigma0": f4_sigma0_eliminant().text(),
        "sigma1": f4_sigma1_polynomial().text(),
    })
    return 0


_COMMANDS = {
    "info": _cmd_info,
    "classify": _cmd_classify,
    "atlas": _cmd_atlas,
    "certify": _cmd_certify,
    "render": _cmd_render,
    "eliminant": _cmd_eliminant,
}

_DOMAIN_ERRORS = (
    DiscriminantParameter,
    NonGenericConfiguration,
    DiscriminantEndpoint,
    TypeMismatch,
    ArityMismatch,
    BadAxes,
    EmptyViewport,
    # an output path that cannot be written: a missing parent, a
    # directory where a file goes or a file where a directory goes
    OSError,
)


def run(argv: list[str]) -> int:
    """Execute one invocation; returns the exit code."""
    if not argv or argv[0] in ("-h", "--help", "help"):
        print(USAGE)
        return 0 if argv and argv[0] in ("-h", "--help", "help") else 1
    cmd = argv[0]
    if cmd not in _COMMANDS:
        sys.stderr.write(f"error: unknown command {cmd!r}\n{USAGE}\n")
        return 1
    try:
        pos, flags = _split_args(cmd, argv[1:])
        return _COMMANDS[cmd](pos, flags)
    except UsageError as e:
        sys.stderr.write(f"error: {e}\n{USAGE}\n")
        return 1
    except _DOMAIN_ERRORS as e:
        _emit({"error": str(e)})
        return 2
    except NotFound as e:
        _emit({"certified": False, "inconclusive": True, "reason": str(e)})
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
