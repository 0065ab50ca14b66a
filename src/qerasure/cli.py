"""Batch command-line front end.

Modes: analyze, classify, distance, union, theorem-check.  Reports are
emitted as stable JSON or as aligned text tables; output for identical inputs
is byte-identical across runs.  Exit status is 0 on success, 1 on any
validation problem, and 2 when an internal cross-check (the intersection
formulas against direct computation) fails beyond tolerance or the program
itself fails (error[internal]).  main may be called repeatedly in one
process; the parsers are built on the first call, and each call parses its
arguments once, with its mode's own parser.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .codes import CodeValidationError, QuantumCode, ingest_code, transform_code
from .erasure import _complement_width, _scan, is_degenerate_distance, minimum_distance
from .fixtures import FIXTURE_NAMES, fixture_union_components, get_fixture
from .operator_space import _pauli_table
from .states import CodeTransform, UnitaryAction
from .unions import _cross_check, cross_check_intersection_formulas, union_code


class CliError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    modes: dict[str, _Parser]  # the top-level parser's mode parsers (build_parser)

    def error(self, message):  # argparse defaults to exit code 2
        raise CliError("bad-arguments", message)


def _parse_json(text: str, source: str):
    """JSON text named by source; nesting too deep to decode is malformed JSON too."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CliError("bad-json", f"{source}: {exc}") from exc


def _load_json_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError("unreadable-file", f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:  # JSON text is UTF-8
        raise CliError("bad-json", f"{path}: {exc}") from exc
    return _parse_json(text, path)


def _ingest_file(path: str) -> QuantumCode:
    try:
        return ingest_code(_load_json_file(path))
    except CodeValidationError as exc:
        raise CliError(exc.code, f"{path}: {exc}") from exc


def _resolve_code(args) -> QuantumCode:
    if (args.fixture is None) == (args.code is None):
        raise CliError("bad-arguments", "provide exactly one of --fixture or --code")
    if args.fixture is not None:
        try:
            return get_fixture(args.fixture)
        except KeyError:
            raise CliError(
                "unknown-fixture",
                f"no fixture named {args.fixture!r}; known: {', '.join(FIXTURE_NAMES)}",
            ) from None
    return _ingest_file(args.code)


def _resolve_transform(args, n: int) -> CodeTransform:
    raw = args.transform
    if raw is None:
        raise CliError("bad-arguments", "this mode requires --transform")
    if raw.lstrip().startswith("{"):
        spec = _parse_json(raw, "--transform")
    else:
        spec = _load_json_file(raw)
    try:
        return CodeTransform.from_json(spec, n)
    except (ValueError, TypeError) as exc:  # TypeError: a field of the wrong type
        raise CliError("invalid-transform", str(exc)) from exc


def _space_sections(code: QuantumCode, max_weight: int, families) -> list[dict]:
    """Each family's dimension, distance and per-weight rows, from one Pauli scan.

    families lists pure flags.  The dimension is structural (see
    erasure._complement_width), so no space is built.
    """
    labels = _pauli_table(code.n).labels
    sections = []
    for pure, scan in zip(families, _scan(code, families, max_weight)):
        violators = labels[scan.coords].tolist()
        sections.append({
            "dim": 4**code.n - _complement_width(code.n, code.k, pure),
            "distance": scan.distance,
            "degenerate": is_degenerate_distance(code, scan.distance),
            "per_weight": [{"w": w, "members": members, "non_members": viols.stop - viols.start,
                            "violators": violators[viols]}
                           for w, members, viols in scan.per_weight],
        })
    return sections


def _mode_analyze(args) -> dict:
    code = _resolve_code(args)
    max_weight = code.n if args.max_weight is None else args.max_weight
    erasure, pure = _space_sections(code, max_weight, (False, True))
    return {"code": code.label, "n": code.n, "K": code.k, "erasure": erasure, "pure": pure}


def _mode_classify(args) -> dict:
    code = _resolve_code(args)
    max_weight = code.n if args.max_weight is None else args.max_weight
    [section] = _space_sections(code, max_weight, (args.pure,))
    return {"code": code.label, "pure": bool(args.pure),
            **{key: section[key] for key in ("per_weight", "dim", "distance")}}


def _mode_distance(args) -> dict:
    code = _resolve_code(args)
    dist, pdist = (scan.distance for scan in _scan(code, (False, True), max_weight=0))
    return {
        "code": code.label,
        "n": code.n,
        "K": code.k,
        "distance": dist,
        "degenerate": is_degenerate_distance(code, dist),
        "pure_distance": pdist,
        "pure_degenerate": is_degenerate_distance(code, pdist),
    }


def _union_inputs(args) -> tuple[list[QuantumCode], QuantumCode | None, UnitaryAction | None]:
    """Components plus, when built from a transform, the base code and the transform's action."""
    components = fixture_union_components(args.fixture) if args.fixture in FIXTURE_NAMES else None
    if components is not None:
        if args.code is not None or args.transform is not None or args.code2 is not None:
            raise CliError("bad-arguments",
                           "union fixtures already define their components")
        return list(components), None, None
    base = _resolve_code(args)
    if (args.code2 is None) == (args.transform is None):
        raise CliError("bad-arguments",
                       "union mode needs exactly one of --code2 or --transform")
    if args.code2 is not None:
        return [base, _ingest_file(args.code2)], None, None
    action = UnitaryAction.from_transform(_resolve_transform(args, base.n))
    image = transform_code(base, action, label=f"U({base.label})")
    return [base, image], base, action


def _mode_union(args) -> dict:
    components, base, action = _union_inputs(args)
    union, report = union_code(components)
    result = {
        "components": list(report.component_labels),
        "n": report.n,
        "K": report.k,
        "max_cross_inner": report.max_cross_inner,
        "distance": minimum_distance(union),
        "theorem4": None,
        "theorem5": None,
    }
    if base is not None and action is not None:
        checks = _cross_check(base, action, union)
        result["theorem4"] = checks["theorem4"]
        result["theorem5"] = checks["theorem5"]
    return result


def _mode_theorem_check(args) -> dict:
    code = _resolve_code(args)
    t = _resolve_transform(args, code.n)
    checks = cross_check_intersection_formulas(code, t)
    return {
        "code": code.label,
        "n": code.n,
        "K": code.k,
        "theorem4": checks["theorem4"],
        "theorem5": checks["theorem5"],
    }


@functools.lru_cache(maxsize=None)
def _orbit_representatives(n: int) -> dict[str, str]:
    """Each n-qubit Pauli label's cyclic-orbit key: its lexicographically smallest rotation."""
    t = _pauli_table(n)
    best, x, z = t.labels, t.x, t.z
    for _ in range(n - 1):
        # move qubit j to j + 1; qubit j sits at mask bit n - 1 - j
        x, z = (x >> 1) | ((x & 1) << (n - 1)), (z >> 1) | ((z & 1) << (n - 1))
        rotated = t.labels[t.coordinate[(z << n) | x]]
        best = np.where(rotated < best, rotated, best)
    return dict(zip(t.labels.tolist(), best.tolist()))


def _cyclic_groups(labels: list[str]) -> list[list[str]]:
    """Group operator labels into cyclic-rotation orbits, deterministically."""
    groups: dict[str, list[str]] = {}
    keys = _orbit_representatives(len(labels[0])) if labels else {}
    for label in labels:
        groups.setdefault(keys[label], []).append(label)
    return [groups[key] for key in sorted(groups)]


def _code_line(report: dict) -> str:
    return f"code: {report['code']} (n={report['n']}, K={report['K']})"


def _per_weight_lines(rows: list[dict]) -> list[str]:
    lines = [f"  {'w':>2}  {'members':>8}  {'non-members':>11}"]
    for row in rows:
        lines.append(f"  {row['w']:>2}  {row['members']:>8}  {row['non_members']:>11}")
        lines += [f"        {' '.join(group)}" for group in _cyclic_groups(row["violators"])]
    return lines


def _space_lines(name: str, section: dict) -> list[str]:
    flag = " (degenerate)" if section["degenerate"] else ""
    return [f"{name}: dim {section['dim']}, distance {section['distance']}{flag}",
            *_per_weight_lines(section["per_weight"])]


def _theorem_line(key: str, section: dict | None) -> str:
    """One intersection formula's line; union and theorem-check share it."""
    if section is None:
        return f"{key}: not applicable"
    return (f"{key}: dim {section['dim']} vs direct {section['direct_dim']}, "
            f"residual {section['residual']:.3e}, matches={section['matches_direct']}")


def _table_analyze(report: dict) -> list[str]:
    return [_code_line(report), *_space_lines("erasure space", report["erasure"]),
            *_space_lines("pure erasure space", report["pure"])]


def _table_classify(report: dict) -> list[str]:
    kind = "pure erasure" if report["pure"] else "erasure"
    return [f"code: {report['code']}",
            f"{kind} space: dim {report['dim']}, distance {report['distance']}",
            *_per_weight_lines(report["per_weight"])]


def _table_distance(report: dict) -> list[str]:
    flag = " (degenerate)" if report["degenerate"] else ""
    pflag = " (degenerate)" if report["pure_degenerate"] else ""
    return [_code_line(report), f"distance: {report['distance']}{flag}",
            f"pure distance: {report['pure_distance']}{pflag}"]


def _table_union(report: dict) -> list[str]:
    return ["union of: " + ", ".join(report["components"]),
            f"n={report['n']}, K={report['K']}, distance {report['distance']}",
            f"max cross inner product: {report['max_cross_inner']:.3e}",
            *(_theorem_line(key, report[key]) for key in ("theorem4", "theorem5"))]


def _table_theorem_check(report: dict) -> list[str]:
    return [_code_line(report),
            *(_theorem_line(key, report[key]) for key in ("theorem4", "theorem5"))]


# mode -> (report builder, table renderer, the options it reads beyond the shared ones)
_MODES = {
    "analyze": (_mode_analyze, _table_analyze, ("--max-weight",)),
    "classify": (_mode_classify, _table_classify, ("--max-weight", "--pure")),
    "distance": (_mode_distance, _table_distance, ()),
    "union": (_mode_union, _table_union, ("--code2", "--transform")),
    "theorem-check": (_mode_theorem_check, _table_theorem_check, ("--transform",)),
}

_OPTIONS = {
    "--code2": {"help": "second JSON code file (union mode)"},
    "--transform": {"help": "transform as JSON literal or file"},
    "--max-weight": {"type": int, "dest": "max_weight",
                     "help": "largest Pauli weight to classify (default n)"},
    "--pure": {"action": "store_true", "help": "classify against the pure erasure space"},
}


def emit_report(report: dict, fmt: str, mode: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    return "\n".join(_MODES[mode][1](report)) + "\n"


@functools.cache
def build_parser() -> _Parser:
    """The qerasure argument parser, built on the first call and shared after it.

    Each mode accepts only the options it reads, so a stray one is refused.
    Its modes map holds each mode's own parser, which _parse_args calls directly.
    """
    parser = _Parser(prog="qerasure",
                     description="Erasure-space analysis of small quantum codes")
    sub = parser.add_subparsers(dest="mode", required=True)
    parser.modes = {}
    for mode, (*_, options) in _MODES.items():
        p = parser.modes[mode] = sub.add_parser(mode, help=f"{mode} report")
        p.add_argument("--fixture", metavar="NAME",
                       help=f"bundled code name ({', '.join(FIXTURE_NAMES)})")
        p.add_argument("--code", help="JSON code description file")
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--out", help="write the report to a file instead of stdout")
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """argv parsed once: a known mode's arguments by the mode parser that the
    top-level parser would hand them to after classifying them all itself.
    Anything else (no mode, an unknown one, an option first) goes to the
    top-level parser, for its messages and help.
    """
    parser = build_parser()
    mode_parser = parser.modes.get(argv[0]) if argv else None
    if mode_parser is None:
        return parser.parse_args(argv)
    args = mode_parser.parse_args(argv[1:])
    args.mode = argv[0]
    return args


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(argv)
        report = _MODES[args.mode][0](args)
    except (CliError, ValueError) as exc:  # CodeValidationError and OrthogonalityError carry a code
        print(f"qerasure: error[{getattr(exc, 'code', 'invalid-input')}] {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a fault of the program, not of its input
        print(f"qerasure: error[internal] {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    text = emit_report(report, args.format, args.mode)
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            print(f"qerasure: error[unwritable-file] cannot write {args.out}: {exc}",
                  file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    for key in ("theorem4", "theorem5"):
        section = report.get(key)
        if section is not None and not section["matches_direct"]:
            print(f"qerasure: error[formula-mismatch] {key} disagrees with the "
                  f"direct computation (residual {section['residual']:.3e})",
                  file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
