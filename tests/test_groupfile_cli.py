import copy
import hashlib
import os
import shlex

import pytest

from unitwist import catalog, cli, strata
from unitwist.cli import main, report_lines
from unitwist.cocycle import (CocycleBoundError, CocycleInputError, CorrectedCocycle,
                              ExponentialCocycle, TableCocycle)
from unitwist.groupfile import GroupFileError, default_degree_bound, parse_group_file
from unitwist.poly import parse_rational
from unitwist.strata import StratumError
from unitwist.twist import TwistConsistencyError, TwistedContext


GOLDEN = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "refs", "catalog")


def run_cli(args, capsys):
    rc = main(args)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_catalog_files_parse(each_example):
    data = each_example.data
    assert data.presentation.ring.generators
    assert data.rmatrix is not None


def test_default_degree_bounds(examples):
    assert default_degree_bound(examples("u3").pres) == 2
    assert default_degree_bound(examples("jordan4-abelian").pres) == 6
    assert default_degree_bound(examples("u4-ex5").pres) == 4


def test_round_trip_through_file(tmp_path, capsys):
    # exporting a catalog entry to a file and re-importing yields the same
    # presentation output
    entry = catalog.get("jordan4-abelian")
    path = tmp_path / "jordan.group"
    path.write_text(entry.group_text)
    rc1, out1, _ = run_cli(["present", str(path)], capsys)
    rc2, out2, _ = run_cli(["present", "--example", "jordan4-abelian"], capsys)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert out1.strip().splitlines() == entry.expected["relations"]


def test_cli_determinism(capsys):
    rc1, out1, _ = run_cli(["gamma", "--example", "u4-ex5"], capsys)
    rc2, out2, _ = run_cli(["gamma", "--example", "u4-ex5"], capsys)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_cli_validate_pass(capsys):
    rc, out, _ = run_cli(["validate", "--example", "u4-ex5", "--max-degree", "3"], capsys)
    assert rc == 0
    assert "classical Yang-Baxter equation: pass" in out


def test_cli_validate_honest_failure(capsys):
    # the raw exponential evaluator of the nonabelian example is recorded
    # as failing the cocycle identity: validate exits nonzero
    rc, out, _ = run_cli(["validate", "--example", "jordan4-minimal",
                          "--max-degree", "3"], capsys)
    assert rc == 1
    assert "cocycle identity at bound 3: FAIL" in out


def test_cli_validate_beyond_solved_degree(capsys):
    # past its solved total degree the corrected cocycle keeps its bound
    # error: the identity check must not skip the pair that raises it
    rc, out, err = run_cli(["validate", "--example", "u4-ex6", "--max-degree", "7"], capsys)
    assert (rc, out) == (1, "")
    assert err == "error: pair (F12^2, F12^5) exceeds the solved total degree 6\n"


def test_cli_strata(capsys):
    rc, out, _ = run_cli(["strata", "--example", "u4-ex5", "--point", "caseI2"], capsys)
    assert rc == 0
    assert "ideal <F24*F13 - a*F14, F23 - a>" in out
    assert "dimension law 2*dimT - dimTg == dim: pass" in out


def test_cli_unknown_example(capsys):
    rc, _, err = run_cli(["present", "--example", "nope"], capsys)
    assert rc == 2
    assert "unknown catalog id" in err
    rc, _, err = run_cli(["report", "--example", "nope"], capsys)
    assert rc == 2


def test_cli_missing_file(capsys):
    rc, _, err = run_cli(["present", "/nonexistent/file.group"], capsys)
    assert rc == 2


def test_cli_gb_and_eliminate(capsys):
    rc, out, _ = run_cli(["gb", "--vars", "X,Y,Z", "Y - X^2", "Z - X^3"], capsys)
    assert rc == 0
    assert "dimension: 1" in out
    rc, out, _ = run_cli(["eliminate", "--vars", "X,Y,Z", "--drop", "X",
                          "Y - X^2", "Z - X^3"], capsys)
    assert rc == 0
    assert "Y^3 - Z^2" in out


def test_non_antisymmetric_rmatrix_rejected():
    text = """
[group]
name = bad
generators = X V

[rmatrix]
1 2 1
2 1 1
"""
    with pytest.raises(GroupFileError) as err:
        parse_group_file(text)
    assert "antisymmetric" in str(err.value)


def test_parse_error_line_numbers():
    text = """
[group]
name = bad
generators = X V

[coproduct]
V = X + V
"""
    with pytest.raises(GroupFileError) as err:
        parse_group_file(text)
    assert "line 7" in str(err.value)


def test_corrupted_q_fails_validation(capsys, tmp_path):
    text = """
[group]
name = corrupt
generators = X Y V W

[coproduct]
V = X (x) Y
W = V (x) Y

[rmatrix]
1 3 1
"""
    path = tmp_path / "corrupt.group"
    path.write_text(text)
    rc, out, _ = run_cli(["validate", str(path)], capsys)
    assert rc == 1
    assert "FAIL coassociativity" in out


def test_report_all_catalog(capsys):
    # the golden reports are the behaviour contract: byte-identical stdout
    for cid in catalog.ids():
        rc, out, _ = run_cli(["report", "--example", cid], capsys)
        assert rc == 0, (cid, out[-2000:])
        assert "manifest: all comparisons OK" in out
        with open(os.path.join(GOLDEN, cid + ".txt")) as fh:
            assert out == fh.read(), cid


@pytest.mark.parametrize("cid", catalog.ids())
def test_report_builds_one_context(monkeypatch, cid):
    # every section of a report reads the one context of its loaded group
    built = []
    init = TwistedContext.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TwistedContext, "__init__", spy)
    _, mismatches = report_lines(catalog.get(cid))
    assert not mismatches
    assert len(built) == 1


@pytest.mark.parametrize("cid", [c for c in catalog.ids() if "c0_bound" in catalog.get(c).expected])
def test_report_computes_gamma_once(monkeypatch, cid):
    # the [gamma] section and c0's locus comparison share one commutator
    # ideal report: one Hopf-ideal check per report
    checked = []
    check = strata.hopf_ideal_check

    def spy(group, ideal):
        checked.append(ideal)
        return check(group, ideal)

    monkeypatch.setattr(strata, "hopf_ideal_check", spy)
    _, mismatches = report_lines(catalog.get(cid))
    assert not mismatches
    assert len(checked) == 1


def test_build_context_once_per_group_data():
    data = catalog.get("u4-ex6").load()
    ctx = cli.build_context(data)
    assert cli.build_context(data) is ctx
    assert ctx.right is data.cocycle
    # a second load is a second group, with its own context
    assert cli.build_context(catalog.get("u4-ex6").load()) is not ctx


def test_one_cocycle_per_file():
    # a [cocycle-table] wins over an [rmatrix]; an [rmatrix] alone gives J_r
    rmat = "[rmatrix]\n1 3 1\n"
    table = "[cocycle-table]\nbound = 4\nX , Y = 1/2\nY , X = -1/2\n"
    both = parse_group_file(_HEIS + rmat + table)
    assert isinstance(both.cocycle, TableCocycle) and both.rmatrix is not None
    only_r = parse_group_file(_HEIS + rmat)
    assert isinstance(only_r.cocycle, ExponentialCocycle)
    assert only_r.cocycle.rmatrix is only_r.rmatrix
    neither = parse_group_file(_HEIS)
    assert neither.cocycle is None
    with pytest.raises(cli.InputError, match="defines no"):
        cli.build_context(neither)
    # a frozen correction table wraps the file's J_r
    ex6 = catalog.get("u4-ex6").load()
    assert isinstance(ex6.cocycle, CorrectedCocycle)
    assert isinstance(ex6.cocycle.base, ExponentialCocycle)
    assert ex6.cocycle.base.rmatrix is ex6.rmatrix


def test_report_determinism():
    lines1, mis1 = report_lines(catalog.get("jordan4-abelian"))
    lines2, mis2 = report_lines(catalog.get("jordan4-abelian"))
    assert lines1 == lines2
    assert not mis1 and not mis2


# each perturbed manifest field, and the stem its mismatch message starts with
PERTURBED = {
    "u4-ex5": [
        ("relations", lambda e: e.update(relations=e["relations"][1:])),
        ("cocycle identity verdict at bound 4",
         lambda e: e["cocycle_identity"].update({4: False})),
        ("gamma ideal", lambda e: e.update(gamma_gb=e["gamma_gb"][::-1])),
        ("gamma dim", lambda e: e.update(gamma_dim=e["gamma_dim"] + 1)),
        ("stratum caseI1 ideal", lambda e: e["strata"][0].update(ideal=["F23"])),
        ("stratum caseI1 dims", lambda e: e["strata"][0].update(dims=(2, 1, 4))),
        ("stratum caseI1 weyl verdict", lambda e: e["strata"][0].update(weyl="A_2")),
        ("expected centre member F12", lambda e: e["centre_members"].append("F12")),
    ],
    "u4-ex6": [
        ("exponential identity verdict at bound 3",
         lambda e: e["exponential_identity"].update({3: True})),
    ],
}


@pytest.mark.parametrize("cid", sorted(PERTURBED))
def test_report_lists_every_manifest_mismatch(monkeypatch, capsys, cid):
    # a manifest the computation disagrees with: one message per perturbed
    # field, a MISMATCHES section in place of the OK line, and exit 1
    entry = catalog.get(cid)
    expected = copy.deepcopy(entry.expected)
    for _, perturb in PERTURBED[cid]:
        perturb(expected)
    monkeypatch.setattr(entry, "expected", expected)
    lines, mismatches = report_lines(entry)
    assert len(mismatches) == len(PERTURBED[cid])
    for (stem, _), message in zip(PERTURBED[cid], mismatches):
        assert message.startswith(stem), (stem, message)
    assert lines[-len(mismatches) - 1:] == ["MISMATCHES:"] + ["  " + m for m in mismatches]
    assert "manifest: all comparisons OK" not in lines
    rc, out, _ = run_cli(["report", "--example", cid], capsys)
    assert (rc, out) == (1, "\n".join(lines) + "\n")


def test_lie_table_verified(examples):
    from unitwist.groupfile import verify_lie_table
    ok, _ = verify_lie_table(examples("jordan4-abelian").data)
    assert ok
    text = catalog.get("heisenberg3").group_text
    assert verify_lie_table(parse_group_file(text.replace("1 2 3 1", "1 2 3 2"))) \
        == (False, (1, 2))
    # [u_Y, u_X] = -u_V declares the same bracket as [u_X, u_Y] = u_V
    assert verify_lie_table(parse_group_file(text.replace("1 2 3 1", "2 1 3 -1"))) \
        == (True, None)


def test_cocycle_table_section(tmp_path, capsys):
    text = """
[group]
name = tiny
generators = X V

[cocycle-table]
bound = 2
X , V = 1/2
V , X = -1/2
"""
    data = parse_group_file(text)
    assert data.cocycle is not None
    X = data.presentation.ring.var("X")
    V = data.presentation.ring.var("V")
    from fractions import Fraction
    assert data.cocycle.eval(X, V) == Fraction(1, 2)


def test_report_independent_of_hash_seed():
    # monomials hash by identity, so a set or dict of monomials hashes by
    # memory address: neither that layout nor the string hash seed, both of
    # which differ between the two processes, may reach the output
    import subprocess
    import sys

    import unitwist
    src = os.path.dirname(os.path.dirname(os.path.abspath(unitwist.__file__)))
    for argv in (["report", "--example", "heisenberg3"], ["report", "--example", "u3"],
                 ["report", "--example", "u4-ex6"],
                 ["strata", "--example", "u4-ex5", "--point", "F14=1,F23=1/3"]):
        outs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-m", "unitwist.cli"] + argv,
                                  capture_output=True, text=True, env=env, timeout=60)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        if argv[0] == "report":
            assert "manifest: all comparisons OK" in outs[0]
        assert outs[0] == outs[1], argv


_HEIS = """
[group]
name = heis
generators = X Y V

[coproduct]
V = X (x) Y
"""

_STRATA = _HEIS + """
[subgroup T]
params = s1 s2
X = s1
V = s2

[point g]
X = 1
Y = 2
"""

_UNKNOWN_ID = ("error: unknown catalog id 'nope' (known: heisenberg3, jordan4-abelian, "
               "jordan4-minimal, u3, u4-ex5, u4-ex6)\n")

# (case, group file text or None, argv with FILE for the file, exit code,
# stderr substring)
MALFORMED = [
    ("inline-point-zero-denominator", None,
     ["strata", "--example", "u4-ex5", "--point", "F23=1/0"], 2, "zero denominator in '1/0'"),
    ("inline-point-part-without-value", None,
     ["strata", "--example", "u4-ex5", "--point", "F12=1,F13"], 2,
     "bad inline coordinate 'F13': expected NAME=VALUE"),
    ("inline-point-empty-part", None,
     ["strata", "--example", "u4-ex5", "--point", ",F12=1"], 2,
     "bad inline coordinate '': expected NAME=VALUE"),
    ("inline-point-repeated-coordinate", None,
     ["strata", "--example", "u4-ex5", "--point", "F12=1,F12=2"], 2,
     "coordinate 'F12' is given twice"),
    ("point-zero-denominator", _HEIS + "[point g]\nX = 1/0\n", ["present", "FILE"], 2,
     "zero denominator in '1/0'"),
    ("coproduct-zero-denominator", _HEIS.replace("V = X", "V = 1/0 X"), ["present", "FILE"], 2,
     "zero denominator in '1/0'"),
    ("rmatrix-zero-denominator", _HEIS + "[rmatrix]\n1 3 1/0\n", ["present", "FILE"], 2,
     "line 9: zero denominator in '1/0'"),
    ("lie-zero-denominator", _HEIS + "[lie]\n1 2 3 1/0\n", ["present", "FILE"], 2,
     "line 9: zero denominator"),
    ("cocycle-table-zero-denominator", _HEIS + "[cocycle-table]\nbound = 2\nX , Y = 2/0\n",
     ["present", "FILE"], 2, "line 10: zero denominator in '2/0'"),
    ("bad-rational", _HEIS + "[rmatrix]\n1 3 one\n", ["present", "FILE"], 2,
     "line 9: Invalid literal"),
    ("gb-zero-denominator", None, ["gb", "--vars", "X", "X - 1/0"], 2, "zero denominator"),
    ("gb-dangling-sign", None, ["gb", "--vars", "X", "X -"], 2, "dangling sign"),
    ("gb-duplicate-variable", None, ["gb", "--vars", "X,X", "X"], 2, "duplicate variable"),
    ("eliminate-unknown-drop", None, ["eliminate", "--vars", "X,Y", "--drop", "Z", "X - Y"], 2,
     "unknown variable 'Z'"),
    ("unknown-example", None, ["present", "--example", "nope"], 2, _UNKNOWN_ID),
    ("unknown-example-report", None, ["report", "--example", "nope"], 2, _UNKNOWN_ID),
    ("unknown-point", None, ["strata", "--example", "u3", "--point", "nope"], 2,
     "unknown point 'nope'"),
    ("cocycle-beyond-bound", _HEIS + "[cocycle-table]\nbound = 0\n", ["present", "FILE"], 1,
     "exceeds the declared bound 0"),
    ("stratum-not-two-sided", _STRATA + "[cocycle-table]\nbound = 3\nX , Y = 1\n",
     ["strata", "FILE", "--point", "g"], 1, "double-coset ideal is not two-sided"),
]
# q(V) may only involve generators below V in the chain
_SELF_REF = _HEIS.replace("V = X (x) Y", "V = V (x) X") + "[rmatrix]\n1 2 1\n"
MALFORMED += [("self-referential-coproduct-" + cmd, _SELF_REF, [cmd, "FILE"], 2,
               "line 7: q(V) involves a generator of index >= 3")
              for cmd in ("validate", "present", "gamma")]
# parameters are central scalars, never part of a coproduct correction
_PARAM_Q = _HEIS.replace("generators = X Y V", "generators = X Y V\nparameters = a").replace(
    "V = X (x) Y", "V = a X (x) Y") + "[rmatrix]\n1 3 1\n"
MALFORMED += [("parameter-in-coproduct-" + cmd, _PARAM_Q, [cmd, "FILE"], 2,
               "line 8: coproduct corrections may not involve parameters")
              for cmd in ("validate", "present", "gamma")]
# [lie] indices name generators, and a bracket needs two different ones
_HEIS3 = catalog.get("heisenberg3").group_text
MALFORMED += [("lie-%s-%s" % (case, cmd), _HEIS3.replace("1 2 3 1", row), [cmd, "FILE"], 2,
               "line 11: [lie] indices must lie in 1..3 with i != j")
              for case, row in [("index-past-n", "1 2 9 1"), ("index-zero", "0 2 3 1"),
                                ("equal-indices", "1 1 3 1")]
              for cmd in ("validate", "present")]
# indices and the table bound are integers, and the message names the line
MALFORMED += [
    ("lie-non-integer-index", _HEIS3.replace("1 2 3 1", "1 2 x 1"), ["present", "FILE"], 2,
     "line 11: expected an integer, got 'x'"),
    ("rmatrix-non-integer-index", _HEIS3.replace("1 3 1", "1 x 1"), ["present", "FILE"], 2,
     "line 14: expected an integer, got 'x'"),
    ("cocycle-table-non-integer-bound", _HEIS + "[cocycle-table]\nbound = x\n",
     ["present", "FILE"], 2, "line 9: expected an integer, got 'x'"),
]
# polynomial fields name their line too
MALFORMED += [
    ("coproduct-dangling-power", _HEIS.replace("V = X (x) Y", "V = X (x) Y^"),
     ["present", "FILE"], 2, "line 7: expected factor in ' Y^'"),
    ("point-line-zero-denominator", _HEIS + "[point p]\nY = 1/0\n", ["present", "FILE"], 2,
     "line 9: zero denominator in '1/0'"),
    ("subgroup-unknown-parameter", _HEIS + "[subgroup T]\nparams = s\nV = q\n",
     ["present", "FILE"], 2, "line 10: unknown variable 'q'"),
    ("cocycle-table-bound-without-equals", _HEIS + "[cocycle-table]\nbound 3\n",
     ["present", "FILE"], 2, "line 9: expected 'bound = d'"),
]
# names the engine refuses name their line too: a point or subgroup error names
# its section header, and the message names the coordinate
MALFORMED += [
    ("group-duplicate-generator", _HEIS3.replace("generators = X Y V", "generators = X X V"),
     ["present", "FILE"], 2, "line 4: duplicate variable names: ('X', 'X', 'V', "),
    ("group-parameter-named-like-a-generator", _HEIS3.replace("x0 v0", "x0 V"),
     ["present", "FILE"], 2, "line 5: duplicate variable names: "),
    ("subgroup-duplicate-parameter", _HEIS3.replace("params = s1 s2", "params = s1 s1"),
     ["present", "FILE"], 2, "line 17: duplicate variable names: ('s1', 's1')"),
    ("subgroup-off-the-identity", _HEIS3.replace("X = s1", "X = s1 + 1"), ["present", "FILE"], 2,
     "line 16: parametrization of 'X' does not pass through the identity"),
    ("point-coordinate-with-generator", _HEIS3.replace("X = x0", "X = Y"), ["present", "FILE"], 2,
     "line 21: point coordinate 'X' must be generator-free"),
]
# an exponent is an integer literal, and a '*' needs a factor after it
MALFORMED += [
    ("gb-non-integer-exponent", None, ["gb", "--vars", "x y", "x^1/2 - y"], 2,
     "non-integer exponent in 'x^1/2 - y'"),
    ("gb-rational-exponent", None, ["gb", "--vars", "Y", "Y^2/2"], 2,
     "non-integer exponent in 'Y^2/2'"),
    ("gb-dangling-times", None, ["gb", "--vars", "X", "X*"], 2, "dangling '*' in 'X*'"),
    ("subgroup-non-integer-exponent", _HEIS3.replace("X = s1", "X = s1^1/2"),
     ["present", "FILE"], 2, "line 18: non-integer exponent in 's1^1/2'"),
    ("point-line-dangling-times", _HEIS3.replace("Y = y0", "Y = y0*"), ["present", "FILE"], 2,
     "line 24: dangling '*' in 'y0*'"),
]
# a section header may appear once: a second one would replace the first
MALFORMED += [("repeated-%s-%s" % (case, cmd), _HEIS3 + extra, [cmd, "FILE"], 2,
               "line 26: repeated section [%s]" % header)
              for case, header, extra in [
                  ("rmatrix", "rmatrix", "\n[rmatrix]\n1 2 5\n"),
                  ("subgroup", "subgroup T", "\n[subgroup T]\nparams = s\nX = s\n"),
                  ("point", "point generic", "\n[point generic]\nX = 1\n"),
                  ("group", "group", "\n[group]\ngenerators = X Y V\n")]
              for cmd in ("validate", "present")]
# a subgroup's or a point's kind is the header's first whole word
MALFORMED += [("run-together-%s-%s" % (case, cmd), _HEIS3.replace(header, joined), [cmd, "FILE"],
               2, "line %d: unknown section %s" % (no, joined))
              for case, header, joined, no in [
                  ("point", "[point generic]", "[pointgeneric]", 21),
                  ("subgroup", "[subgroup T]", "[subgroupT]", 16)]
              for cmd in ("validate", "present")]
# a number may not follow a number: "1 2" is no product of 1 and 2
MALFORMED += [
    ("gb-number-after-number", None, ["gb", "--vars", "x y", "x - 1 2"], 2,
     "number after a number in 'x - 1 2'"),
    ("point-line-number-after-number", _HEIS3.replace("Y = y0", "Y = 1 2"), ["present", "FILE"],
     2, "line 24: number after a number in '1 2'"),
]
# a key, a coproduct, a table pair or a bracket row may appear once in its
# section: a second one would replace the first
_HEIS3_LIE = _HEIS3.replace("1 2 3 1", "1 2 3 1\n%s")
MALFORMED += [("repeated-%s-%s" % (case, cmd), text, [cmd, "FILE"], 2, message)
              for case, text, message in [
                  ("group-key", _HEIS3.replace("x0 v0 y0", "x0 v0 y0\ngenerators = X Y"),
                   "line 6: 'generators' is given twice"),
                  ("subgroup-key", _HEIS3.replace("V = s2", "V = s2\nX = s2"),
                   "line 20: 'X' is given twice"),
                  ("point-key", _HEIS3 + "X = 1\n", "line 25: 'X' is given twice"),
                  ("coproduct", _HEIS.replace("V = X (x) Y", "V = X (x) Y\nV = 2 X (x) Y"),
                   "line 8: 'V' is given twice"),
                  ("cocycle-table-pair",
                   _HEIS + "[cocycle-table]\nbound = 2\nX , Y = 1\nX,Y = 2\n",
                   "line 11: pair (X, Y) is given twice"),
                  ("cocycle-table-bound",
                   _HEIS + "[cocycle-table]\nbound = 2\nX , Y = 1\nbound = 3\n",
                   "line 11: 'bound' is given twice"),
                  ("lie-row", _HEIS3_LIE % "1 2 3 2", "line 12: bracket row 1 2 3 is given twice"),
                  ("lie-row-swapped", _HEIS3_LIE % "2 1 3 -1",
                   "line 12: bracket row 2 1 3 is given twice")]
              for cmd in ("validate", "present")]
MALFORMED += [
    ("repeated-point-coordinate-strata", _STRATA + "X = 2\n", ["strata", "FILE", "--point", "g"],
     2, "line 17: 'X' is given twice"),
]
MALFORMED += [
    ("max-degree-zero", None, ["validate", "--example", "u3", "--max-degree", "0"], 2,
     "--max-degree must be at least 1"),
    ("max-degree-negative", None, ["c0", "--example", "u3", "--max-degree", "-3"], 2,
     "--max-degree must be at least 1"),
]
# a command takes only the options it reads
MALFORMED += [("unread-option-%s-%s" % (cmd, option[2:]), None,
               [cmd, "--example", "u3"] + (["--point", "origin"] if cmd == "strata" else [])
               + ([option, "3"] if option == "--max-degree" else [option]),
               2, "unrecognized arguments: " + option)
              for cmd, option in [("present", "--max-degree"), ("present", "--strict"),
                                  ("gamma", "--max-degree"), ("gamma", "--strict"),
                                  ("strata", "--max-degree"), ("strata", "--strict"),
                                  ("c0", "--strict"), ("rform-check", "--strict"),
                                  ("report", "--max-degree")]]


@pytest.mark.parametrize("text,argv,code,message", [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_input_exit_codes(tmp_path, capsys, text, argv, code, message):
    # exit 2 for input errors, 1 for data failing its own checks; one
    # stderr line and no stdout either way
    if text is not None:
        path = tmp_path / "input.group"
        path.write_text(text)
        argv = [str(path) if a == "FILE" else a for a in argv]
    rc, out, err = run_cli(argv, capsys)
    assert rc == code, err
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err


def test_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    # a UTF-16 byte order mark is no UTF-8 text: one error line and exit 2,
    # not a traceback
    path = tmp_path / "input.group"
    path.write_bytes(b"\xff\xfe" + catalog.HEISENBERG3_TEXT.encode("utf-16-le"))
    rc, out, err = run_cli(["validate", str(path)], capsys)
    assert (rc, out) == (2, "")
    assert err == "error: cannot read %s: not UTF-8 text (invalid start byte)\n" % path


@pytest.mark.parametrize("name", ["c_s1", "s_s2", "t_s1", "g_X"])
@pytest.mark.parametrize("argv", [["strata", "FILE", "--point", "X=1"], ["c0", "FILE"],
                                  ["validate", "--strict", "FILE"]], ids=lambda a: a[0])
def test_user_names_shaped_like_helper_variables(tmp_path, capsys, name, argv):
    # the engine's own variables are c_<t> (coset functions), s_<t> and t_<t>
    # (strata) and g_<X> (conjugation); a parameter of that name is renamed
    # around and changes nothing but its own name in the output
    runs = []
    for text in (catalog.HEISENBERG3_TEXT, catalog.HEISENBERG3_TEXT.replace("x0", name)):
        path = tmp_path / "input.group"
        path.write_text(text)
        runs.append(run_cli([str(path) if a == "FILE" else a for a in argv], capsys))
    assert runs[0][0] == 0
    assert runs[1] == (0, runs[0][1].replace("x0", name), runs[0][2])


def test_rform_check_reports_each_failure(tmp_path, capsys):
    # this table is not a cocycle: its R-form fails six splitting instances
    path = tmp_path / "heis.group"
    path.write_text(_HEIS + "[cocycle-table]\nbound = 4\nX , Y = 1\n")
    rc, out, err = run_cli(["rform-check", str(path)], capsys)
    assert (rc, err) == (1, "")
    assert out.splitlines() == ["r-form axioms FAIL at bound 3: ('%s', %s)" % case for case in [
        ("split-right", "X, V, Y"), ("split-right", "Y, X, V"), ("split-left", "Y, X, V"),
        ("split-left", "Y, V, X"), ("split-right", "V, X, Y"), ("split-left", "V, Y, X")]]


@pytest.mark.parametrize("value", ["1", "1/2"])
def test_cocycle_table_bound_line_is_found_by_key(value):
    # a generator whose name starts with "bound" is a table entry's
    # monomial, not the bound line
    data = parse_group_file("[group]\ngenerators = boundX V\n[cocycle-table]\nbound = 2\n"
                            "boundX , V = %s\nV , boundX = -1\n" % value)
    ring = data.presentation.ring
    X, V = ring.var_monomial("boundX"), ring.var_monomial("V")
    assert data.cocycle.bound == 2
    assert data.cocycle.table == {(X, V): parse_rational(value), (V, X): -1}


def test_sections_before_coproduct_do_not_read_q(tmp_path, capsys):
    # nothing the parser builds before the last [coproduct] reads q, so
    # sections may come in any order: q is fixed only once something reads it
    head, coproduct = _HEIS.split("[coproduct]")
    rest = "[cocycle-table]\nbound = 4\n" + _STRATA[len(_HEIS):]
    runs = []
    for text in (_HEIS + rest, head + rest + "\n[coproduct]" + coproduct):
        path = tmp_path / "heis.group"
        path.write_text(text)
        runs.append([run_cli([cmd, str(path)] + extra, capsys)
                     for cmd, extra in (("validate", ["--max-degree", "3"]),
                                        ("strata", ["--point", "g"]))])
    assert runs[0] == runs[1]
    assert [(rc, err) for rc, _, err in runs[0]] == [(0, ""), (0, "")]
    assert "cocycle identity at bound 3: pass" in runs[0][0][1]


@pytest.mark.parametrize("error", [StratumError, TwistConsistencyError, CocycleBoundError,
                                   CocycleInputError])
def test_check_errors_exit_1(monkeypatch, capsys, error):
    def fail(data):
        raise error("data fails a check")

    monkeypatch.setattr(cli, "run_present", fail)
    assert run_cli(["present", "--example", "u3"], capsys) == \
        (1, "", "error: data fails a check\n")


# stdout and stderr digests with the exit code of the identity-check,
# R-form, strata and Groebner commands: a change to how the checks walk
# their triples, or to the Groebner kernel, must leave every byte as it was
EMPTY = hashlib.sha256(b"").hexdigest()
CLI_PINS = {
    "validate --example heisenberg3 --max-degree 3":
        (0, "ad81b744595aabe69ea255a578c71abf2f5dae93e693d7498085a8f4de4f8f20", EMPTY),
    "validate --example heisenberg3 --max-degree 4":
        (0, "70cc6289d9d3af62f4742fb8d9c5f00422692fecc3c046bd442ff5fd076e163c", EMPTY),
    "validate --example heisenberg3 --max-degree 5":
        (0, "7d849a56d21da93329f21dea4822e864141e49bdb14c95983253cfcc33d47895", EMPTY),
    "validate --example jordan4-abelian --max-degree 3":
        (0, "bed49cd16dc621ada55d2839a1cac09dc0c2a594a5b5fe608cf8154b51851664", EMPTY),
    "validate --example jordan4-abelian --max-degree 4":
        (0, "e623bf4e6acf688d2be5694b6cfa7177452af3148006e8538a488d587ce91b86", EMPTY),
    "validate --example jordan4-abelian --max-degree 5":
        (0, "815bdda85c681b11fb619a0fd0b8acd5bf81223ae00b91f20d512b599473a624", EMPTY),
    "validate --example jordan4-minimal --max-degree 3":
        (1, "e5b64aaea0c1b2af0f2d5f6c04bc4f501f39fc4da133cb3fff3be0e8fc81d5dc", EMPTY),
    "validate --example jordan4-minimal --max-degree 4":
        (1, "5312a0b13154b5b755519cc95413f9f5fb931ad2feff6ad9fb098a0ce8c36926", EMPTY),
    "validate --example jordan4-minimal --max-degree 5":
        (1, "ac599ec2af84d5a3acd3a7796c0a019f8eae07113a3037860f7dd53076f8eac3", EMPTY),
    "validate --example u3 --max-degree 3":
        (0, "071ec318dd84d9b33b1aa741912c6e1b1c52f88ef5638d3e4464da359b1f1173", EMPTY),
    "validate --example u3 --max-degree 4":
        (0, "cde17a4ae1a138e19a761c2a2f312aecf60fc6f6c54f4326bdb89010c7e235dc", EMPTY),
    "validate --example u3 --max-degree 5":
        (0, "f5a663c64d51a9a834e976128ad680207b79dd94b11bb664d70a7bd794d5fc85", EMPTY),
    "validate --example u4-ex5 --max-degree 3":
        (0, "4ef07ec06d550bb51e19d4f866b28a24528cfe4c67823b783887cbac5a2eee83", EMPTY),
    "validate --example u4-ex5 --max-degree 4":
        (0, "e7a8f7ac2485e2447e7a87e204762902df6f9b64add334acdff7dfe6f6187a9f", EMPTY),
    "validate --example u4-ex5 --max-degree 5":
        (0, "45c4d2f9e17f0294c17351061eb1f76cd733057da7f749241a5210606f626a8c", EMPTY),
    "validate --example u4-ex6 --max-degree 3":
        (0, "f8536f0d32a8bf626c8e76de8904110f049f39c14620c8663ea294cb179011af", EMPTY),
    "validate --example u4-ex6 --max-degree 4":
        (0, "0a5a0d529efc29b25d57a47a72eaa1e3b35a1469fe5ecba766cc080d8a98baf3", EMPTY),
    "validate --example u4-ex6 --max-degree 5":
        (0, "e213ce8af850cb5a7a46f548127a2d58e082f6290fb13f4a43a755839afcf6f9", EMPTY),
    "validate --example u4-ex6 --max-degree 7":
        (1, EMPTY, "69088219a726ddb9529ebbdb1c1158be2294b4e55b10e48e38c35f93c8f11f47"),
    "validate --example jordan4-minimal --max-degree 6":
        (1, "9d6a76a99dad6b5993c2e3e63127c6d6b165e6a7d1a1c4d3e286308d5533d42f", EMPTY),
    "rform-check --example heisenberg3":
        (0, "373ec19e620665e1b90cf9c191baa418f937f44975c1c945dd77bbf230f0930d", EMPTY),
    "rform-check --example jordan4-abelian":
        (0, "373ec19e620665e1b90cf9c191baa418f937f44975c1c945dd77bbf230f0930d", EMPTY),
    "rform-check --example jordan4-minimal":
        (0, "373ec19e620665e1b90cf9c191baa418f937f44975c1c945dd77bbf230f0930d", EMPTY),
    "rform-check --example u3":
        (0, "b7de2ba19599e38fe3e23de323a07b2a5ccbcf24db44a3ff53c68562be7469d3", EMPTY),
    "rform-check --example u4-ex5":
        (0, "373ec19e620665e1b90cf9c191baa418f937f44975c1c945dd77bbf230f0930d", EMPTY),
    "rform-check --example u4-ex6":
        (0, "373ec19e620665e1b90cf9c191baa418f937f44975c1c945dd77bbf230f0930d", EMPTY),
    # an explicit --max-degree above 3 is honoured, not lowered to 3
    "rform-check --example heisenberg3 --max-degree 4":
        (0, "2ea2d15876dd28a3215e5999459657a1412c34fd8849d6292fdcc85283870560", EMPTY),
    "rform-check --example jordan4-abelian --max-degree 4":
        (0, "2ea2d15876dd28a3215e5999459657a1412c34fd8849d6292fdcc85283870560", EMPTY),
    "rform-check --example u3 --max-degree 4":
        (0, "2ea2d15876dd28a3215e5999459657a1412c34fd8849d6292fdcc85283870560", EMPTY),
    "rform-check --example u4-ex6 --max-degree 4":
        (0, "2ea2d15876dd28a3215e5999459657a1412c34fd8849d6292fdcc85283870560", EMPTY),
    "rform-check --example u4-ex5 --max-degree 4":
        (0, "2ea2d15876dd28a3215e5999459657a1412c34fd8849d6292fdcc85283870560", EMPTY),
    # 18 split failures: jordan4-minimal's J_r is not a cocycle
    "rform-check --example jordan4-minimal --max-degree 4":
        (1, "3e1cb02c524e7a236919c7c7ba2b85d7360fab48be550dd3f26d28975b3e8e69", EMPTY),
    # bound 5 reads deformed products of total degree up to 5
    "rform-check --example heisenberg3 --max-degree 5":
        (0, "0802a9eda407c42ba05a33c93105ba4ae5fdf8ec1b4cc0f6def2f64f3898b378", EMPTY),
    "rform-check --example jordan4-abelian --max-degree 5":
        (0, "0802a9eda407c42ba05a33c93105ba4ae5fdf8ec1b4cc0f6def2f64f3898b378", EMPTY),
    "rform-check --example u3 --max-degree 5":
        (0, "0802a9eda407c42ba05a33c93105ba4ae5fdf8ec1b4cc0f6def2f64f3898b378", EMPTY),
    "rform-check --example u4-ex5 --max-degree 5":
        (0, "0802a9eda407c42ba05a33c93105ba4ae5fdf8ec1b4cc0f6def2f64f3898b378", EMPTY),
    "rform-check --example u4-ex6 --max-degree 5":
        (0, "0802a9eda407c42ba05a33c93105ba4ae5fdf8ec1b4cc0f6def2f64f3898b378", EMPTY),
    "rform-check --example jordan4-minimal --max-degree 5":
        (1, "dd2b71991d61dd9f1a7949e0c3f0cb7472690fa2abbc0ab3108ac92a6a5b11ef", EMPTY),
    # bound 6 on every entry, and 7 on the two u4 entries: the bounds where
    # the unit-leg entries certify identity (2) from generator pairs
    "rform-check --example heisenberg3 --max-degree 6":
        (0, "181011a5e974bdd466f282c57bd99f192593adc69f8f295809a50746517eee11", EMPTY),
    "rform-check --example jordan4-abelian --max-degree 6":
        (0, "181011a5e974bdd466f282c57bd99f192593adc69f8f295809a50746517eee11", EMPTY),
    "rform-check --example jordan4-minimal --max-degree 6":
        (1, "e3eea46fd04058ed40cc0f2b67cb50a72696ff7eb4b6f1cef05a8f7263ac10ea", EMPTY),
    "rform-check --example u3 --max-degree 6":
        (0, "181011a5e974bdd466f282c57bd99f192593adc69f8f295809a50746517eee11", EMPTY),
    "rform-check --example u4-ex5 --max-degree 6":
        (0, "181011a5e974bdd466f282c57bd99f192593adc69f8f295809a50746517eee11", EMPTY),
    "rform-check --example u4-ex6 --max-degree 6":
        (0, "181011a5e974bdd466f282c57bd99f192593adc69f8f295809a50746517eee11", EMPTY),
    "rform-check --example u4-ex5 --max-degree 7":
        (0, "f7fd6dfb70550ee6871b8411e1168dbadd13182f1787fc7ad987150358c65cf6", EMPTY),
    # past the frozen table's total degree 6: the bound error, exit 1
    "rform-check --example u4-ex6 --max-degree 7":
        (1, EMPTY, "341aaebf98ba27207c6c22a568a5cb41d62a0489c2ba5796e2bbe8ad041f1678"),
    # a point normalizing T, so the stratum is checked against the left coset
    # functions of degree <= 3
    "strata --example heisenberg3 --point Y=1":
        (0, "eeeb95037423719e702d342945cab7e781432f925ade1445839dca0601cf5645", EMPTY),
    "strata --example jordan4-abelian --point W=1":
        (0, "1053b9528af8c1c93d8777c0b8cb932b40cbfc23a0777eab4efaefd972e0fe99", EMPTY),
    "strata --example jordan4-minimal --point W=2":
        (0, "0ffbe1ec97ac7191324af9fea8193027fad669be6482b10281840b46e6fe122c", EMPTY),
    "strata --example u3 --point X=2,V=3":
        (0, "147003cde656e0004aa069f85e33c204eff4ce03e63e0b0a248d9c8be747a429", EMPTY),
    "strata --example u4-ex5 --point F14=1":
        (0, "2bf516d9ed6d1531ed83562661afa4f3d49a871eee5f881b09cbbf01ba154ff0", EMPTY),
    "strata --example u4-ex6 --point F13=1":
        (0, "07ec7a71317e1924849a5cca3de622821626b0a6cd8dfbeed0d3e142a1e3b2d2", EMPTY),
    # reduced bases with rational coefficients and non-unit leading
    # coefficients, with a parameter, and the README's twisted cubic
    'gb --vars X,Y "2/3*X - 1/5" "X*Y"':
        (0, "9608eed148c952b640fe3dd5e3d05595079f2bb0a01f6b050114ce0fff12228a", EMPTY),
    'eliminate --vars X,Y --drop X "2/3*X - 1/5" "X*Y"':
        (0, "d08c5f95ebb8581ee4e5c0a2ee534d5a10d3c8e7f3a18d961adf902602bbd8a3", EMPTY),
    'gb --vars X,Y,Z "2/7*X - 3/5*Y" "X*Z - 1/3" "Y^2 - 5/2*Z"':
        (0, "dcd9d2ad96734e2be2196b8b72d43d9fa6bf2d5cccad852b4e220cdfc7660159", EMPTY),
    # prints a^2 - 1 and dimension: -1
    'gb --vars X --params a "a*X - 1" "X - a"':
        (0, "1401d071182dfe05909024ab1e13cfb3e7a9d3ba6982f8d926ebea88bd9c8d28", EMPTY),
    'eliminate --vars X,Y --params a --drop X "a*X - 1" "Y - a*X^2"':
        (0, "4438a50508cdb06775c8c9bf625e770a9d7bd8ecde6842b7eb49fd9cc42de916", EMPTY),
    'gb --vars X,Y,Z "Y - X^2" "Z - X^3"':
        (0, "d7d643e336b444254abe8884cad0b41480b3e14063d4c9871b3bc762309e3509", EMPTY),
    'eliminate --vars X,Y,Z --drop X "Y - X^2" "Z - X^3"':
        (0, "3500ce885ad529518b674f94725c6f4f3f45c747eb9de30e5229b7ccc46e7726", EMPTY),
}


@pytest.mark.parametrize("argv", sorted(CLI_PINS))
def test_cli_output_pinned(capsys, argv):
    rc, out, err = run_cli(shlex.split(argv), capsys)
    digest = [hashlib.sha256(s.encode()).hexdigest() for s in (out, err)]
    assert (rc, *digest) == CLI_PINS[argv], (out, err)


# heisenberg3 with data that fails its own Lie checks: r = u_X ^ u_Y does not
# solve the classical Yang-Baxter equation, and a declared [lie] row that
# disagrees with q; each command must exit 1 with the same bytes
FAILING_LIE_PINS = {
    ("cybe", "validate"):
        (1, "85a26aedc513d6b657adb83038ed42c6f4285721a5897024380b093a822304f9", EMPTY),
    ("cybe", "rform-check"):
        (1, "a8147adb94f5a762d8889039ba7e2e02ad02686f61c4a15f1ead1624e589e9d7", EMPTY),
    ("lie", "validate"):
        (1, "b26a0d774b629e580ca7d09de28809ec4ba3875df19ee64f3b96a5f1b138b548", EMPTY),
}
FAILING_LIE_TEXT = {"cybe": _HEIS3.replace("[rmatrix]\n1 3 1", "[rmatrix]\n1 2 1"),
                    "lie": _HEIS3.replace("1 2 3 1", "1 2 3 2")}


@pytest.mark.parametrize("case, cmd", sorted(FAILING_LIE_PINS))
def test_failing_lie_checks_pinned(tmp_path, capsys, case, cmd):
    assert FAILING_LIE_TEXT[case] != _HEIS3
    path = tmp_path / "heis.group"
    path.write_text(FAILING_LIE_TEXT[case])
    rc, out, err = run_cli([cmd, str(path)], capsys)
    digest = [hashlib.sha256(s.encode()).hexdigest() for s in (out, err)]
    assert (rc, *digest) == FAILING_LIE_PINS[(case, cmd)], (out, err)
    if case == "lie":
        assert "declared lie table: FAIL at (1, 2)" in out.splitlines()
    elif cmd == "validate":
        assert "classical Yang-Baxter equation: FAIL" in out.splitlines()
