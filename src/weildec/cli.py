"""Command-line front end: construction, decomposition, censuses, and
the aggregated verification suites.

Exit codes: 0 success, 1 mathematical mismatch, 2 usage or resource
error.  All JSON output is deterministic (fixed key order, rationals as
"num/den" strings) so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import analysis, decompose, modgroup, weilrep

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
        mat = rep.generator_cyc(tag)
        lines.append(f"generator {tag}: scale {mat.scale}, "
                     f"support {int((mat.arr != 0).any(axis=2).sum())} entries")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_decompose(args):
    try:
        tree = decompose.decomposition_tree(args.level, args.genus)
    except (ValueError, AssertionError):
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
    if args.level ** (2 * args.genus) <= 256:
        try:
            dim = decompose.commutant_dimension(args.level, args.genus)
        except ValueError as exc:
            if "bound" in str(exc):
                return EXIT_USAGE
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


def _suite_census(checks, max_n):
    for n in range(2, max_n + 1):
        rows = modgroup.census(n)
        checks.append((f"census n={n}", all(row.match for row in rows)))


def _suite_charsum(checks, max_level):
    for level in (2, 4, 8):
        if level <= max_level:
            report = analysis.char_sum(level)
            checks.append((f"charsum level={level}", report.match))
    for level in (3, 5, 7):
        if level <= max_level:
            checks.append((f"charsum level={level}", analysis.char_sum(level).match))


def _suite_crt(checks, max_level):
    for a, b in ((2, 3), (3, 5), (4, 3)):
        if a * b <= max_level * 3:
            checks.append((f"crt {a}x{b}", decompose.crt_check(a, b, 1).passed))


def _suite_tower(checks, max_level):
    for r, n in ((2, 1), (3, 0), (3, 1)):
        if r ** (n + 2) <= max(max_level, 9) * 3:
            checks.append((f"tower {r}^{n}", decompose.tower_check(r, n, 1).passed))


def _suite_egorov(checks, max_level):
    for p in range(2, min(max_level, 7) + 1):
        for g in (1, 2):
            ok = all(r.ok for r in decompose.egorov_verify(p, g))
            checks.append((f"egorov level={p} genus={g}", ok))


def _suite_semiclassical(checks, max_level):
    monomials = [(0, 0), (1, 1), (2, 1), (0, 3), (3, 0)]
    ok = True
    for p in range(3, max(max_level, 9) + 1):
        report = analysis.semiclassical_traces(p, 1, monomials)
        for row in report.rows:
            degree = sum(row.monomial[0])
            if degree == 0:
                ok = ok and row.value == 1
            elif p > degree:
                ok = ok and row.value == 0
    checks.append(("semiclassical vanishing", ok))


def _suite_faithful(checks, max_level):
    for p in (3, 5, 7):
        if p <= max(max_level, 7):
            checks.append(
                (f"faithful level={p}", analysis.kernel_check(p).injective)
            )


def cmd_verify(args):
    suites = {
        "census": lambda c: _suite_census(c, min(args.n or 3, 4)),
        "charsum": lambda c: _suite_charsum(c, args.max_level),
        "crt": lambda c: _suite_crt(c, args.max_level),
        "tower": lambda c: _suite_tower(c, args.max_level),
        "egorov": lambda c: _suite_egorov(c, args.max_level),
        "semiclassical": lambda c: _suite_semiclassical(c, args.max_level),
        "faithful": lambda c: _suite_faithful(c, args.max_level),
    }
    if args.suite == "all":
        selected = list(suites.values())
    elif args.suite in suites:
        selected = [suites[args.suite]]
    else:
        return EXIT_USAGE
    checks = []
    for run in selected:
        run(checks)
    lines = [
        f"{'PASS' if ok else 'FAIL'} {name}" for name, ok in checks
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if all(ok for _, ok in checks) else EXIT_MISMATCH


def build_parser():
    parser = argparse.ArgumentParser(
        prog="weildec",
        description="Exact metaplectic representations and their decompositions",
    )
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--level", type=int, default=3)
        p.add_argument("--genus", type=int, default=1)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--format", choices=("json", "csv", "text"),
                       default="json")
        p.add_argument("--out", default=None)
        p.add_argument("--max-level", dest="max_level", type=int, default=9)

    p_gauss = sub.add_parser("gauss", help="print one Gauss sum")
    p_gauss.add_argument("a", type=int)
    p_gauss.add_argument("b", type=int)
    p_gauss.add_argument("level", type=int)
    common(p_gauss)
    p_gauss.set_defaults(func=cmd_gauss)

    p_rep = sub.add_parser("rep", help="representation inspection")
    rep_sub = p_rep.add_subparsers(dest="rep_command")
    p_show = rep_sub.add_parser("show")
    common(p_show)
    p_show.set_defaults(func=cmd_rep_show)

    for name, func in (
        ("decompose", cmd_decompose),
        ("charsum", cmd_charsum),
        ("census", cmd_census),
        ("orbits", cmd_orbits),
        ("semiclassical", cmd_semiclassical),
    ):
        p_cmd = sub.add_parser(name)
        common(p_cmd)
        p_cmd.set_defaults(func=func)

    p_verify = sub.add_parser("verify")
    p_verify.add_argument("suite")
    common(p_verify)
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
