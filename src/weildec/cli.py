"""Command-line front end: construction, decomposition, censuses, and
the acceptance criteria of ``weildec.criteria``.

Exit codes: 0 success, 1 mathematical mismatch, 2 usage or resource
error.  All JSON output is deterministic (fixed key order, rationals as
"num/den" strings) so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import analysis, criteria, decompose, modgroup, weilrep

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


def _frac_str(value):
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_gauss(args):
    value = weilrep.gauss_sum(args.a, args.b, args.level)
    norm = value.norm_sq()
    if args.format == "json":
        payload = {
            "a": args.a,
            "b": args.b,
            "level": args.level,
            "field_order": value.field.level,
            "coefficients": [_frac_str(c) for c in value.coeffs],
            "norm_sq": _frac_str(norm.as_fraction()),
        }
        text = json.dumps(payload, separators=(",", ":")) + "\n"
    else:
        text = f"{value}\nnorm_sq = {norm.as_fraction()}\n"
    _emit(text, args.out)
    return EXIT_OK


def cmd_rep_show(args):
    rep = weilrep.WeilRep(args.level, args.genus)
    lines = [
        f"level {rep.p}  genus {rep.g}  rank {rep.dim}  "
        f"root order {rep.m}  field order {rep.field.level}"
    ]
    for tag in rep.tags():
        cols, _, _, scale = rep.generator_entries(tag)
        lines.append(f"generator {tag}: scale {scale}, support {cols.size} entries")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_decompose(args):
    try:
        tree = decompose.decomposition_tree(args.level, args.genus)
    except ValueError:
        return EXIT_USAGE
    text = tree.to_json() + "\n"
    if args.format == "text":
        names = [
            " * ".join(lab.name() for lab in tensor) for tensor in tree.factors
        ]
        text = "\n".join(
            [f"level {tree.level} genus {tree.genus}: "
             f"{tree.factor_count} factors"]
            + [f"  {name}  (dim {d})" for name, d in zip(names, tree.dims())]
        ) + "\n"
    _emit(text, args.out)
    if decompose.commutant_certifiable(args.level, args.genus):
        try:
            dim = decompose.commutant_dimension(args.level, args.genus)
        except ValueError:
            return EXIT_MISMATCH
        if dim != tree.factor_count:
            return EXIT_MISMATCH
    return EXIT_OK


def cmd_charsum(args):
    try:
        report = analysis.char_sum(args.level)
    except ValueError:
        return EXIT_USAGE
    if args.format == "json":
        text = analysis.charsum_json(report) + "\n"
    else:
        text = (
            f"level {report.level} modulus {report.modulus} "
            f"value {report.value} expected {report.expected} "
            f"({report.method})\n"
        )
    _emit(text, args.out)
    return EXIT_OK if report.match else EXIT_MISMATCH


def cmd_census(args):
    if args.n is None or args.n < 2:
        return EXIT_USAGE
    rows = modgroup.census(args.n)
    _emit(modgroup.census_csv(rows), args.out)
    return EXIT_OK if all(row.match for row in rows) else EXIT_MISMATCH


def cmd_orbits(args):
    try:
        count, orbits = modgroup.orbit_census(args.level, args.genus)
    except ValueError:
        return EXIT_USAGE
    expected = modgroup.sigma0(args.level)
    lines = [f"{delta},{size}" for delta, size in sorted(
        orbits, key=lambda t: (t[0] is None, t[0] or 0, t[1])
    )]
    _emit("delta,size\n" + "\n".join(lines) + "\n", args.out)
    return EXIT_OK if count == expected else EXIT_MISMATCH


def cmd_semiclassical(args):
    monomials = [(0, 0), (1, 1), (2, 1), (0, 3), (3, 0), (2, 2)]
    report = analysis.semiclassical_traces(args.level, 1, monomials)
    _emit(analysis.semiclassical_csv(report), args.out)
    return EXIT_OK


def cmd_verify(args):
    if args.criterion == "all":
        selected = criteria.REGISTRY
    else:
        selected = [c for c in criteria.REGISTRY
                    if str(c.number) == args.criterion]
        if not selected:
            return EXIT_USAGE
    lines, passed = [], True
    for criterion in selected:
        ok, detail = criterion.check()
        lines.append(criteria.line(criterion, ok, detail))
        passed = passed and ok
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if passed else EXIT_MISMATCH


def build_parser():
    parser = argparse.ArgumentParser(
        prog="weildec",
        description="Exact metaplectic representations and their decompositions",
    )
    sub = parser.add_subparsers(dest="command")

    def output(p, formats=False):
        """--out, and --format where the command reads it."""
        if formats:
            p.add_argument("--format", choices=("json", "text"),
                           default="json")
        p.add_argument("--out", default=None)

    def common(p, genus, formats):
        """--level, --genus where the command reads it, and the output flags."""
        p.add_argument("--level", type=int, default=3)
        if genus:
            p.add_argument("--genus", type=int, default=1)
        output(p, formats)

    # the level is positional here; a --level option would overwrite it
    p_gauss = sub.add_parser("gauss", help="print one Gauss sum")
    p_gauss.add_argument("a", type=int)
    p_gauss.add_argument("b", type=int)
    p_gauss.add_argument("level", type=int)
    output(p_gauss, formats=True)
    p_gauss.set_defaults(func=cmd_gauss)

    p_rep = sub.add_parser("rep", help="representation inspection")
    rep_sub = p_rep.add_subparsers(dest="rep_command")
    p_show = rep_sub.add_parser("show")
    common(p_show, genus=True, formats=False)
    p_show.set_defaults(func=cmd_rep_show)

    for name, func, genus, formats in (
        ("decompose", cmd_decompose, True, True),
        ("charsum", cmd_charsum, False, True),
        ("orbits", cmd_orbits, True, False),
        ("semiclassical", cmd_semiclassical, False, False),
    ):
        p_cmd = sub.add_parser(name)
        common(p_cmd, genus, formats)
        p_cmd.set_defaults(func=func)

    p_census = sub.add_parser("census")
    p_census.add_argument("--n", type=int, default=None)
    output(p_census)
    p_census.set_defaults(func=cmd_census)

    p_verify = sub.add_parser("verify", help="run the acceptance criteria")
    p_verify.add_argument("criterion",
                          help="all, or a criterion number from 1 to 17")
    output(p_verify)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    func = getattr(args, "func", None)
    if func is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return func(args)
    except (ValueError, OverflowError):
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
