"""Built-in example groups with their expected-results manifests.

Each entry embeds a complete group-definition file (exercising the same
parser as user input) plus the golden data its report is diffed against:
relation lines, reduced bases, dimensions, verdicts.  All expected text is
canonical rendering, byte-exact.

Entries whose r-matrix has nonabelian support may carry a frozen
correction table solved by `solve_cocycle_corrections`: the exponential
evaluator alone is not a cocycle there, and the corrections upgrade it to
a genuine bounded one without touching any generator-pair value.  A test
re-derives the frozen table from scratch.
"""

from __future__ import annotations

from fractions import Fraction

from .cocycle import CorrectedCocycle
from .groupfile import parse_group_file
from .poly import parse_poly


class CatalogEntry:
    def __init__(self, id, group_text, expected):
        self.id = id
        self.group_text = group_text
        self.expected = expected

    def load(self):
        data = parse_group_file(self.group_text)
        corrections = self.expected.get("cocycle_corrections")
        if corrections:
            ring = data.presentation.ring
            table = {}
            for m1txt, m2txt, val in corrections:
                m1 = next(iter(parse_poly(m1txt, ring).terms))
                m2 = next(iter(parse_poly(m2txt, ring).terms))
                table[(m1, m2)] = Fraction(val)
            data.cocycle = CorrectedCocycle(
                data.cocycle, table, self.expected["corrections_total_bound"])
        return data


U3_TEXT = """
# two-dimensional abelian unipotent group, realized inside U(3)
[group]
name = u3
generators = X V

[rmatrix]
1 2 1

[subgroup T]
params = s1 s2
X = s1
V = s2

[point origin]
"""

HEISENBERG3_TEXT = """
[group]
name = heisenberg3
generators = X Y V
parameters = x0 v0 y0

[coproduct]
V = X (x) Y

[lie]
1 2 3 1

[rmatrix]
1 3 1

[subgroup T]
params = s1 s2
X = s1
V = s2

[point generic]
X = x0
V = v0
Y = y0
"""

JORDAN4_ABELIAN_TEXT = """
[group]
name = jordan4-abelian
generators = X Y V W
parameters = x0 v0 w0 y0

[coproduct]
V = X (x) Y
W = V (x) Y + 1/2 X (x) Y^2

[lie]
1 2 3 1
3 2 4 1

[rmatrix]
1 3 1

[subgroup T]
params = s1 s2
X = s1
V = s2

[point normalizing]
X = x0
V = v0
W = w0

[point offchain]
Y = y0
"""

JORDAN4_MINIMAL_TEXT = """
[group]
name = jordan4-minimal
generators = X Y V W

[coproduct]
V = X (x) Y
W = V (x) Y + 1/2 X (x) Y^2

[lie]
1 2 3 1
3 2 4 1

[rmatrix]
1 3 1
4 2 1

[subgroup T]
params = t1 t2 t3 t4
X = t1
Y = t2
V = t3
W = t4

[point origin]
"""

U4_EX5_TEXT = """
[group]
name = u4-ex5
generators = F12 F23 F34 F13 F24 F14
parameters = y0 b0 a z0

[coproduct]
F13 = F12 (x) F23
F24 = F23 (x) F34
F14 = F13 (x) F34 + F12 (x) F24

[rmatrix]
1 3 1

[subgroup T]
params = s1 s2
F12 = s1
F34 = s2

[point caseI1]
F13 = y0
F24 = b0

[point caseI2]
F23 = a

[point caseII]
F14 = z0
"""

U4_EX6_TEXT = """
[group]
name = u4-ex6
generators = F12 F23 F34 F13 F24 F14
parameters = x0 u0

[coproduct]
F13 = F12 (x) F23
F24 = F23 (x) F34
F14 = F13 (x) F34 + F12 (x) F24

[rmatrix]
1 4 1
6 2 1
6 3 1

[subgroup T]
params = t1 t2 t3 t4
F12 = t1
F23 = t2
F34 = t2
F13 = t3
F24 = 1/2 t2^2
F14 = t4

[point gammax]
F12 = x0
F24 = x0

[point betau]
F34 = u0
"""


# Frozen output of solve_cocycle_corrections for the minimal nonabelian
# U(4) cocycle (total degree 6); re-derived from scratch by the test suite.
EX6_COCYCLE_CORRECTIONS = [
    ("F13^2", "F14", "1/8"),
    ("F13^2*F12", "F14*F13", "1/16"),
    ("F13^2*F23", "F14^2", "-1/8"),
    ("F13^2*F34", "F14^2", "-1/8"),
    ("F13^3", "F14*F12", "-3/16"),
    ("F13^3", "F14^2*F13", "-3/32"),
    ("F13^4", "F14^2", "3/32"),
    ("F14", "F13^2", "1/8"),
    ("F14", "F14*F12", "-1/8"),
    ("F14", "F14^2*F13", "-1/6"),
    ("F14*F12", "F13^3", "3/16"),
    ("F14*F12", "F14", "-1/8"),
    ("F14*F12", "F14*F13*F12", "-1/16"),
    ("F14*F12", "F14^2*F13^2", "-1/6"),
    ("F14*F12^2", "F14*F13", "-1/8"),
    ("F14*F13", "F13^2*F12", "-1/16"),
    ("F14*F13", "F14*F12^2", "1/8"),
    ("F14*F13", "F14*F13^3", "-3/64"),
    ("F14*F13", "F14^2", "-1/24"),
    ("F14*F13", "F14^2*F13*F12", "11/96"),
    ("F14*F13*F12", "F14*F12", "1/16"),
    ("F14*F13*F12", "F14^2*F13", "1/96"),
    ("F14*F13*F23", "F14^3", "1/16"),
    ("F14*F13*F34", "F14^3", "1/16"),
    ("F14*F13^2", "F14*F13^2", "1/64"),
    ("F14*F13^2", "F14*F23", "1/16"),
    ("F14*F13^2", "F14*F34", "1/16"),
    ("F14*F13^2", "F14^2*F12", "1/24"),
    ("F14*F13^3", "F14*F13", "-3/64"),
    ("F14*F23", "F14*F13^2", "-1/16"),
    ("F14*F23", "F14^2*F12", "1/8"),
    ("F14*F23", "F14^3*F13", "1/4"),
    ("F14*F23*F12", "F14^2", "1/8"),
    ("F14*F24", "F14^2*F13^2", "1/32"),
    ("F14*F24", "F14^3*F12", "-3/32"),
    ("F14*F24*F12", "F14^3", "-3/32"),
    ("F14*F34", "F14*F13^2", "-1/16"),
    ("F14*F34", "F14^2*F12", "1/8"),
    ("F14*F34", "F14^3*F13", "1/4"),
    ("F14*F34*F12", "F14^2", "1/8"),
    ("F14^2", "F13^2*F23", "1/8"),
    ("F14^2", "F13^2*F34", "1/8"),
    ("F14^2", "F13^4", "3/32"),
    ("F14^2", "F14*F13", "-5/24"),
    ("F14^2", "F14*F23*F12", "-1/8"),
    ("F14^2", "F14*F34*F12", "-1/8"),
    ("F14^2", "F14^2*F12^2", "-1/16"),
    ("F14^2", "F14^2*F13*F23", "-1/6"),
    ("F14^2", "F14^2*F13*F34", "-1/6"),
    ("F14^2", "F14^3", "-3/32"),
    ("F14^2*F12", "F14*F13^2", "-5/24"),
    ("F14^2*F12", "F14*F23", "-1/8"),
    ("F14^2*F12", "F14*F34", "-1/8"),
    ("F14^2*F12", "F14^2*F12", "-1/16"),
    ("F14^2*F12^2", "F14^2", "-1/16"),
    ("F14^2*F13", "F13^3", "-3/32"),
    ("F14^2*F13", "F14", "-1/12"),
    ("F14^2*F13", "F14*F13*F12", "13/96"),
    ("F14^2*F13", "F14^2*F23", "-1/24"),
    ("F14^2*F13", "F14^2*F34", "-1/24"),
    ("F14^2*F13*F12", "F14*F13", "-1/96"),
    ("F14^2*F13*F23", "F14^2", "1/12"),
    ("F14^2*F13*F34", "F14^2", "1/12"),
    ("F14^2*F13^2", "F14*F12", "1/12"),
    ("F14^2*F13^2", "F14*F24", "1/32"),
    ("F14^2*F23", "F14^2*F13", "5/24"),
    ("F14^2*F34", "F14^2*F13", "5/24"),
    ("F14^3", "F13", "-1/4"),
    ("F14^3", "F14*F13*F23", "-5/16"),
    ("F14^3", "F14*F13*F34", "-5/16"),
    ("F14^3", "F14*F24*F12", "-3/32"),
    ("F14^3", "F14^2", "-3/32"),
    ("F14^3", "F24*F13^2", "3/32"),
    ("F14^3*F12", "F13^2", "-1/4"),
    ("F14^3*F12", "F14*F24", "-3/32"),
    ("F14^3*F13", "F13*F12", "1/8"),
    ("F14^3*F13", "F14*F23", "-1/8"),
    ("F14^3*F13", "F14*F34", "-1/8"),
    ("F14^3*F23", "F14*F13", "1/8"),
    ("F14^3*F34", "F14*F13", "1/8"),
    ("F14^4", "F13*F23", "-1/2"),
    ("F14^4", "F13*F34", "-1/2"),
    ("F24*F13^2", "F14^3", "3/32"),
]


CATALOG = {}


def _add(entry):
    CATALOG[entry.id] = entry


_add(CatalogEntry(
    "u3",
    U3_TEXT,
    {
        "relations": [],
        "gamma_gb": [],
        "gamma_dim": 2,
        "dim_C": 2,
        "strata": [],
        "cocycle_identity": {4: True, 5: True},
        "abelian_support": True,
        "one_sided_weyl": "A_1",
        "F_dim": 2,
        "centre_members": [],
    }))

_add(CatalogEntry(
    "heisenberg3",
    HEISENBERG3_TEXT,
    {
        "relations": [],
        "gamma_gb": [],
        "gamma_dim": 3,
        "dim_C": 3,
        "strata": [
            {"point": "generic", "ideal": ["Y - y0"], "dims": (2, 2, 2),
             "weyl": "commutative"},
        ],
        "cocycle_identity": {4: True, 5: True},
        "abelian_support": True,
        "F_dim": 2,
        "centre_members": ["Y"],
    }))

_add(CatalogEntry(
    "jordan4-abelian",
    JORDAN4_ABELIAN_TEXT,
    {
        "relations": ["[W,X] = Y", "[W,V] = 1/2*Y^2"],
        "gamma_gb": ["Y"],
        "gamma_dim": 3,
        "dim_C": 3,
        "strata": [
            {"point": "normalizing", "ideal": ["W - w0", "Y"], "dims": (2, 2, 2),
             "weyl": "commutative"},
            {"point": "offchain", "ideal": ["Y - y0"], "dims": (2, 1, 3),
             "weyl": "A_1-with-centre", "central": ["2*V - y0*X"]},
        ],
        "cocycle_identity": {4: True, 5: True},
        "abelian_support": True,
        "F_dim": 2,
        "centre_members": ["Y"],
    }))

_add(CatalogEntry(
    "jordan4-minimal",
    JORDAN4_MINIMAL_TEXT,
    {
        "relations": ["[W,X] = Y", "[W,V] = 1/2*Y^2 + X"],
        # after the change of variable X' = X + Y^2/2 the relations read
        # [W,X'] = Y, [W,V] = X' (checked in the acceptance suite)
        "gamma_gb": ["Y", "X"],
        "gamma_dim": 2,
        "dim_C": 4,
        "strata": [
            {"point": "origin", "ideal": [], "dims": (4, 4, 4),
             "weyl": "unrecognized"},
        ],
        "cocycle_identity": {3: False},
        "exponential_identity": {3: False},
        "abelian_support": False,
        "F_dim": 2,
        "F_kernel": ["u_V", "u_W"],
        "c0_bound": 6,
        "centre_members": [],
    }))

_add(CatalogEntry(
    "u4-ex5",
    U4_EX5_TEXT,
    {
        "relations": ["[F13,F34] = -F23", "[F24,F12] = -F23",
                      "[F14,F12] = -F13", "[F14,F34] = -F24"],
        "gamma_gb": ["F24", "F13", "F23"],
        "gamma_dim": 3,
        "dim_C": 3,
        "strata": [
            {"point": "caseI1", "ideal": ["F24 - b0", "F13 - y0", "F23"],
             "dims": (2, 1, 3), "weyl": "A_1-with-centre",
             "central": ["y0*F34 - b0*F12"]},
            {"point": "caseI2", "ideal": ["F24*F13 - a*F14", "F23 - a"],
             "dims": (2, 0, 4), "weyl": "unrecognized",
             "polycentral": ["F23 - a", "F24*F13 - a*F14"]},
            {"point": "caseII", "ideal": ["F14 - z0", "F24", "F13", "F23"],
             "dims": (2, 2, 2), "weyl": "commutative",
             "free_vars": ["F12", "F34"]},
        ],
        "cocycle_identity": {4: True, 5: True},
        "abelian_support": True,
        "F_dim": 2,
        "c0_bound": 4,
        "centre_members": ["F23", "F14*F23 - F24*F13"],
        "coinvariants_deg2": ["F23", "F13", "F24 - F23*F34", "F14 - F13*F34"],
    }))

_add(CatalogEntry(
    "u4-ex6",
    U4_EX6_TEXT,
    {
        # the third relation is the dual-route-verified value; see the
        # acceptance suite for the cross-checks pinning it
        "relations": ["[F14,F12] = F34",
                      "[F14,F13] = F34*F23 - F24 + F12",
                      "[F14,F24] = -F34 + F23"],
        "gamma_gb": ["F24 - F12", "F34", "F23"],
        "gamma_dim": 3,
        "dim_C": 5,
        "strata": [
            {"point": "gammax", "ideal": ["F23^2 - 2*F24 + 2*x0", "F34 - F23"],
             "dims": (4, 4, 4), "weyl": "unrecognized"},
            {"point": "betau", "ideal": ["F34 - F23 - u0"],
             "dims": (4, 3, 5), "weyl": "unrecognized"},
        ],
        "cocycle_identity": {3: True, 4: True},
        "exponential_identity": {3: False},
        "cocycle_corrections": EX6_COCYCLE_CORRECTIONS,
        "corrections_total_bound": 6,
        "abelian_support": False,
        "F_dim": 2,
        "c0_bound": 4,
        "centre_members": ["F34 - F23"],
        "coinvariants_deg2": ["F34 - F23", "2*F24 - F23^2"],
        "pullback_images": {"F12": "X", "F23": "Y", "F34": "Y",
                            "F13": "V", "F24": "1/2*Y^2", "F14": "W"},
        "pullback_target": "jordan4-minimal",
    }))


def ids():
    return sorted(CATALOG)


def get(id):
    if id not in CATALOG:
        raise KeyError("unknown catalog id %r (known: %s)" % (id, ", ".join(ids())))
    return CATALOG[id]
