"""Command-line front end.

Subcommands: validate, present, strata, gamma, c0, rform-check, gb,
eliminate, report.  All output is canonical deterministic text; exit codes
are 0 (success), 1 (a check failed), 2 (input or usage error).
"""

from __future__ import annotations

import argparse
import sys

from . import catalog as _catalog
from .cocycle import (CocycleBoundError, CocycleInputError, CorrectedCocycle, ExponentialCocycle,
                      cybe_check, verify_cocycle_identity)
from .groebner import Ideal, TermOrder, eliminate as _eliminate, krull_dimension
from .groupfile import GroupFileError, default_degree_bound, parse_group_file, verify_lie_table
from .hopf import PresentationError
from .poly import PolyRing, parse_poly, render_poly
from .strata import (StratumError, c0_solver, commutator_ideal_and_gamma, fixed_locus_ideal,
                     stratum_presentation)
from .twist import (TwistConsistencyError, TwistedContext, ihoe_presentation, rform_axiom_check,
                    twisted_antipode)


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a usage error like an input error: one "error:" line, exit 2."""

    def error(self, message):
        raise InputError(message)


def catalog_entry(example):
    try:
        return _catalog.get(example)
    except KeyError as e:
        raise InputError(e.args[0]) from None


def load_group(args):
    if getattr(args, "example", None):
        return catalog_entry(args.example).load()
    if getattr(args, "file", None):
        try:
            with open(args.file, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise InputError(str(e))
        except UnicodeDecodeError as e:
            raise InputError("cannot read %s: not UTF-8 text (%s)" % (args.file, e.reason))
        try:
            return parse_group_file(text)
        except (GroupFileError, PresentationError, ValueError) as e:
            raise InputError("cannot parse %s: %s" % (args.file, e))
    raise InputError("give a group file or --example ID")


def build_context(data):
    """The two-sided context of the group's cocycle, built once per GroupData."""
    if data.context is None:
        if data.cocycle is None:
            raise InputError("group file defines no [rmatrix] or [cocycle-table]")
        data.context = TwistedContext.hopf(data.presentation, data.cocycle)
    return data.context


def header(data, max_degree, strict):
    return ["group: %s" % data.name,
            "max-degree: %d" % max_degree,
            "strict: %s" % ("on" if strict else "off")]


def run_validate(data, max_degree, strict):
    lines = []
    ok = True
    rep = data.presentation.validate(strict=strict)
    lines += ["[presentation-checks]"] + rep.lines()
    ok = ok and rep.ok
    lie_ok, where = verify_lie_table(data)
    lines.append("declared lie table: %s" % ("pass" if lie_ok else "FAIL at %s" % (where,)))
    ok = ok and lie_ok
    if data.rmatrix is not None:
        lie = data.presentation.lie_data()
        cy = cybe_check(lie, data.rmatrix)
        lines.append("classical Yang-Baxter equation: %s" % ("pass" if cy else "FAIL"))
        ok = ok and cy
    idrep = verify_cocycle_identity(build_context(data).right, max_degree)
    lines.append("cocycle identity at bound %d: %s"
                 % (max_degree, "pass" if idrep.ok else "FAIL on %r" % (idrep.failure,)))
    ok = ok and idrep.ok
    return ok, lines


def run_present(data):
    ctx = build_context(data)
    pres = ihoe_presentation(ctx)
    return pres, pres.lines()


def run_gamma(data):
    ctx = build_context(data)
    ihoe_presentation(ctx)
    return commutator_ideal_and_gamma(ctx)


def run_c0(data, bound):
    ctx = build_context(data)
    gamma_ideal = commutator_ideal_and_gamma(ctx).commutator_ideal
    # A solved correction table is a particular cocycle representative and
    # need not be equivariant, so the conditions are evaluated on the
    # exponential cocycle J_r it corrects instead.  Conjugation moves J_r
    # along the adjoint action, J_r^g = J_{Ad_g r}, so its fixed locus is
    # the stabiliser of r, and the sweep stops once its kept conditions
    # generate that ideal.  A [cocycle-table] is not J_r; its sweep runs to
    # the bound.
    j = ctx.right.base if isinstance(ctx.right, CorrectedCocycle) else ctx.right
    exact = None
    if isinstance(j, ExponentialCocycle):
        exact = fixed_locus_ideal(data.presentation, j.rmatrix)
    return c0_solver(data.presentation, j, bound, gamma_ideal=gamma_ideal, exact=exact)


def run_stratum(data, subgroup_name, point_name):
    pres = data.presentation
    if subgroup_name not in pres.named_subgroups:
        raise InputError("unknown subgroup %r" % subgroup_name)
    if "=" in point_name:
        # inline coordinates: "X=1,Y=1/2"
        coords = {}
        for part in point_name.split(","):
            name, eq, val = part.partition("=")
            name = name.strip()
            if not eq:
                raise InputError("bad inline coordinate %r: expected NAME=VALUE" % part)
            if name in coords:
                raise InputError("coordinate %r is given twice" % name)
            try:
                coords[name] = parse_poly(val, pres.ring)
            except ValueError as e:
                raise InputError("bad inline coordinate %r: %s" % (part, e))
        try:
            point = pres.point(coords)
        except ValueError as e:
            raise InputError(str(e))
        label = point_name
    elif point_name in pres.named_points:
        point = pres.named_points[point_name]
        label = point_name
    else:
        raise InputError("unknown point %r" % point_name)
    ctx = build_context(data)
    return stratum_presentation(pres, ctx, pres.named_subgroups[subgroup_name],
                                point, name=label)


def _ring_and_polys(args):
    """The ring from --vars/--params and the polynomials given on the line."""
    gens = tuple(args.vars.replace(",", " ").split())
    params = tuple((args.params or "").replace(",", " ").split())
    try:
        ring = PolyRing(gens, params)
        return ring, [parse_poly(t, ring) for t in args.polys]
    except ValueError as e:
        raise InputError(str(e))


def cmd_gb(args, out):
    ring, polys = _ring_and_polys(args)
    ideal = Ideal(ring, polys)
    basis = ideal.groebner()
    for g in basis:
        out.write(render_poly(g) + "\n")
    if not basis:
        out.write("0\n")
    out.write("dimension: %d\n" % krull_dimension(ideal))
    return 0


def cmd_eliminate(args, out):
    ring, polys = _ring_and_polys(args)
    drop = tuple(args.drop.replace(",", " ").split())
    unknown = [n for n in drop if n not in ring.index]
    if unknown:
        raise InputError("unknown variable %r in --drop" % unknown[0])
    kept = _eliminate(Ideal(ring, polys), TermOrder(ring, eliminate=drop))
    gb = kept.groebner()
    for g in gb:
        out.write(render_poly(g) + "\n")
    if not gb:
        out.write("0\n")
    return 0


def report_lines(entry, strict=False):
    """The full golden report for a catalog entry, plus mismatch list."""
    data = entry.load()
    expected = entry.expected
    pres = data.presentation
    lines = ["= report %s =" % entry.id]
    lines += header(data, default_degree_bound(pres), strict)
    mismatches = []

    def check(label, got, want=True):
        if got != want:
            mismatches.append("%s: %r != %r" % (label, got, want))

    _, vlines = run_validate(data, max_degree=3, strict=strict)
    lines += ["", "[validate]"] + vlines

    ctx = build_context(data)
    rel_lines = ihoe_presentation(ctx).lines()
    lines += ["", "[presentation]"] + (rel_lines or ["(commutative)"])
    check("relations", rel_lines, expected["relations"])

    # (evaluator, manifest key, mismatch label, report line)
    identities = [(ctx.right, "cocycle_identity", "cocycle identity",
                   "cocycle identity at bound %d: %s (recorded)")]
    if isinstance(ctx.right, CorrectedCocycle):
        identities.append((ctx.right.base, "exponential_identity", "exponential identity",
                           "raw exponential identity at bound %d: %s (corrected table in use)"))
    for cocycle, key, label, line in identities:
        for b, want in sorted(expected.get(key, {}).items()):
            got = verify_cocycle_identity(cocycle, b).ok
            lines.append(line % (b, "pass" if got else "fail"))
            check("%s verdict at bound %d" % (label, b), got, want)

    gam = commutator_ideal_and_gamma(ctx)
    lines += ["", "[gamma]"] + gam.lines()
    check("gamma ideal", [render_poly(g) for g in gam.commutator_ideal.groebner()],
          expected["gamma_gb"])
    check("gamma dim", gam.gamma_dim, expected["gamma_dim"])
    check("gamma hopf-ideal check", gam.hopf_ok)

    lines += ["", "[strata]"]
    for spec in expected.get("strata", []):
        stratum = run_stratum(data, "T", spec["point"])
        lines += stratum.lines()
        label = "stratum %s " % spec["point"]
        check(label + "ideal", [render_poly(g) for g in stratum.ideal.groebner()], spec["ideal"])
        check(label + "dims", stratum.dims, spec["dims"])
        check(label + "weyl verdict", stratum.flags["weyl"][0], "weyl: " + spec["weyl"])

    lines += ["", "[centre]"]
    candidates = []
    if "T" in pres.named_subgroups:
        for f in pres.coinvariants(pres.named_subgroups["T"], 2, side="double"):
            f = f - pres.ring.const(f.counit())
            if not f.is_zero():
                candidates.append(f.normalize_sign())
    if not candidates:
        lines.append("(no nontrivial double-coset functions up to degree 2)")
    for f in candidates:
        is_central = all(ctx.commutator(f, pres.ring.var(n)).is_zero()
                         for n in pres.ring.generators)
        lines.append("double-coset function %s: %s"
                     % (render_poly(f), "central" if is_central else "NOT CENTRAL"))
        check("non-central double-coset function %s" % render_poly(f), is_central)
    renders = [render_poly(f) for f in candidates]
    for member in expected.get("centre_members", []):
        check("expected centre member %s" % member, member in renders)

    rrep = rform_axiom_check(ctx, 3)
    lines += ["", "[checks]"] + rrep.lines()
    check("r-form axioms at bound 3", rrep.ok)

    sj_ok = all([twisted_antipode(ctx, twisted_antipode(ctx, x)) == x
                 for x in map(pres.ring.var, pres.ring.generators)])
    lines.append("(S^J)^2 = id on generators: %s" % ("pass" if sj_ok else "FAIL"))
    check("(S^J)^2 = id", sj_ok)

    if "c0_bound" in expected:
        c0 = run_c0(data, expected["c0_bound"])
        lines.append(c0.describe())
        check("c0 locus matches gamma", c0.matches_gamma)

    if mismatches:
        return lines + ["", "MISMATCHES:"] + ["  " + m for m in mismatches], mismatches
    return lines + ["", "manifest: all comparisons OK"], mismatches


def main(argv=None):
    out = sys.stdout
    parser = _Parser(prog="unitwist", description="deformed coordinate rings of unipotent groups")
    sub = parser.add_subparsers(dest="command", required=True)

    # each command takes only the options it reads
    def group_command(name, help, max_degree=False):
        p = sub.add_parser(name, help=help)
        p.add_argument("file", nargs="?", help="group definition file")
        p.add_argument("--example", help="built-in catalog id")
        if max_degree:
            p.add_argument("--max-degree", type=int, default=None)
        return p

    p = group_command("validate", "check presentation, CYBE and cocycle axioms", max_degree=True)
    p.add_argument("--strict", action="store_true")
    group_command("present", "emit the commutator presentation")
    group_command("gamma", "commutator ideal and 1-dimensional module group")
    group_command("c0", "fixed-cocycle locus by symbolic conjugation", max_degree=True)
    p = group_command("strata", "double-coset stratum report")
    p.add_argument("--subgroup", default="T")
    p.add_argument("--point", required=True)
    group_command("rform-check", "verify the cotriangular form axioms", max_degree=True)
    p = sub.add_parser("report", help="golden report for a catalog example")
    p.add_argument("--example", required=True)
    p.add_argument("--strict", action="store_true")
    p = sub.add_parser("gb", help="reduced Groebner basis of explicit generators")
    p.add_argument("--vars", required=True)
    p.add_argument("--params", default="")
    p.add_argument("polys", nargs="+")
    p = sub.add_parser("eliminate", help="elimination ideal of explicit generators")
    p.add_argument("--vars", required=True)
    p.add_argument("--params", default="")
    p.add_argument("--drop", required=True)
    p.add_argument("polys", nargs="+")

    try:
        args = parser.parse_args(argv)
        if getattr(args, "max_degree", None) is not None and args.max_degree < 1:
            raise InputError("--max-degree must be at least 1")
        if args.command == "gb":
            return cmd_gb(args, out)
        if args.command == "eliminate":
            return cmd_eliminate(args, out)
        if args.command == "report":
            lines, mismatches = report_lines(catalog_entry(args.example), args.strict)
            out.write("\n".join(lines) + "\n")
            return 1 if mismatches else 0

        data = load_group(args)
        if args.command == "present":
            _, lines = run_present(data)
            out.write("\n".join(lines) + ("\n" if lines else "(commutative)\n"))
            return 0
        if args.command == "gamma":
            rep = run_gamma(data)
            out.write("\n".join(rep.lines()) + "\n")
            return 0
        if args.command == "strata":
            stratum = run_stratum(data, args.subgroup, args.point)
            out.write("\n".join(stratum.lines()) + "\n")
            return 0
        bound = args.max_degree or default_degree_bound(data.presentation)
        if args.command == "validate":
            ok, lines = run_validate(data, bound, args.strict)
            out.write("\n".join(header(data, bound, args.strict) + lines) + "\n")
            return 0 if ok else 1
        if args.command == "c0":
            rep = run_c0(data, bound)
            out.write(rep.describe() + "\n")
            return 0 if rep.verdict != "MISMATCH" else 1
        if args.command == "rform-check":
            # without --max-degree, at most 3: the R-form walk grows fast with the bound
            rep = rform_axiom_check(build_context(data), args.max_degree or min(bound, 3))
            out.write("\n".join(rep.lines()) + "\n")
            return 0 if rep.ok else 1
        raise InputError("unknown command")
    except (InputError, GroupFileError, PresentationError) as e:
        sys.stderr.write("error: %s\n" % e)
        return 2
    except (StratumError, TwistConsistencyError, CocycleBoundError, CocycleInputError) as e:
        # the input parsed, but its data fails the engine's own checks
        sys.stderr.write("error: %s\n" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
