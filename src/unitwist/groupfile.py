"""Parser for the group-definition text format.

Sections, in any order and each at most once (a subgroup or a point once per
NAME), '#' comments allowed anywhere:

    [group]            name, generators (chain order), optional parameters
    [coproduct]        one line per non-primitive generator:
                           V = X (x) Y + 1/2 X (x) Y^2
                       using only earlier generators, and no parameters
    [lie]              optional bracket table, lines "i j k p/q" meaning the
                       u_k coefficient of [u_i, u_j], i != j; verified against
                       the brackets derived from the coproducts
    [rmatrix]          lines "i j p/q": antisymmetric entries in the Lie basis
    [subgroup NAME]    params = t1 t2 ...  then   GEN = poly in the params
    [point NAME]       GEN = rational or parameter polynomial
    [cocycle-table]    bound = d  then  MONOMIAL , MONOMIAL = p/q

Within a section a key, a coproduct, a table pair or a bracket row (in
either order of i and j) is given at most once.  Everything is
whitespace-insensitive; '(x)' separates tensor slots.

A file defines one cocycle, carried by `GroupData.cocycle`: its
[cocycle-table] if it has one, else the exponential cocycle J_r of its
[rmatrix], else none.  A catalog entry with a frozen correction table
wraps that J_r in a `CorrectedCocycle` when it is loaded.
"""

from __future__ import annotations

from .cocycle import ExponentialCocycle, RMatrix, TableCocycle
from .hopf import GroupPresentation
from .poly import PolyRing, TensorPoly, parse_poly, parse_rational


class GroupFileError(ValueError):
    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = "line %d: %s" % (line_no, message)
        super().__init__(message)


class GroupData:
    """Everything a group file defines; `context` is set by `cli.build_context`."""

    def __init__(self, presentation, rmatrix=None, lie_table=None, cocycle=None):
        self.presentation = presentation
        self.rmatrix = rmatrix
        self.lie_table = lie_table
        self.cocycle = cocycle
        self.context = None

    @property
    def name(self):
        return self.presentation.name


def _strip(line):
    if "#" in line:
        line = line[: line.index("#")]
    return line.strip()


def _sections(text):
    """The sections as (kind, name, header line, lines).  A subgroup's or a
    point's name is the header's words after its first, the kind; any other
    header is its kind whole.  No kind and name may appear twice."""
    current = None
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            head = line[1:-1].strip()
            first = head.split(None, 1)[:1]
            kind = first[0] if first in (["subgroup"], ["point"]) else head
            current = (kind, head[len(kind):].strip(), no, [])
            if any(s[:2] == current[:2] for s in out):
                raise GroupFileError("repeated section [%s]" % head, no)
            out.append(current)
            continue
        if current is None:
            raise GroupFileError("content before any section header", no)
        current[3].append((no, line))
    return out


def _keyvals(lines, form="KEY = VALUE"):
    """{key: (line number, value)} in line order; each key is given once."""
    out = {}
    for no, line in lines:
        key, eq, val = line.partition("=")
        if not eq:
            raise GroupFileError("expected " + form, no)
        key = key.strip()
        if key in out:
            raise GroupFileError("%r is given twice" % key, no)
        out[key] = (no, val.strip())
    return out


def parse_tensor(text, ring, line_no=None):
    """Parse a sum of 'POLY (x) POLY' terms into a rank-2 tensor."""
    total = TensorPoly.zero(ring, 2)
    # split on top-level +/- while keeping signs with their term
    terms = []
    buf = ""
    sign = 1
    for ch in text:
        if ch in "+-" and buf.strip():
            terms.append((sign, buf))
            buf = ""
            sign = 1 if ch == "+" else -1
        elif ch in "+-" and not buf.strip():
            sign = sign if ch == "+" else -sign
        else:
            buf += ch
    if buf.strip():
        terms.append((sign, buf))
    for sign, term in terms:
        if "(x)" not in term:
            raise GroupFileError("tensor term %r lacks the (x) separator" % term.strip(), line_no)
        left, right = term.split("(x)", 1)
        if "(x)" in right:
            raise GroupFileError("only rank-2 tensors are accepted here", line_no)
        lp, rp = _at(line_no, parse_poly, left, ring), _at(line_no, parse_poly, right, ring)
        total = total + TensorPoly.from_polys([lp, rp], sign)
    return total


def parse_group_file(text):
    sections = _sections(text)
    group = next((s for s in sections if s[0] == "group"), None)
    if group is None:
        raise GroupFileError("missing [group] section")
    kv = _keyvals(group[3])
    if "generators" not in kv:
        raise GroupFileError("[group] must declare generators", group[2])
    name = kv.get("name", (None, None))[1]
    gno, text = kv["generators"]
    generators = tuple(text.replace(",", " ").split())
    pno, text = kv.get("parameters", (gno, ""))
    parameters = tuple(text.replace(",", " ").split())
    # a repeated name is on the generators line, or else on the parameters line
    pres = _at(gno if len(set(generators)) < len(generators) else pno,
               GroupPresentation, name or "group", generators, parameters)

    rmatrix = None
    lie_table = None
    cocycle = None
    for kind, label, hno, lines in sections:
        if kind == "coproduct":
            for gen, (no, rhs) in _keyvals(lines, "GEN = tensor").items():
                if gen not in pres.ring.index:
                    raise GroupFileError("unknown generator %r" % gen, no)
                q = parse_tensor(rhs, pres.ring, no)
                if any(m.param_degree() for key in q.terms for m in key):
                    raise GroupFileError("coproduct corrections may not involve parameters", no)
                for check, detail in pres.q_defects(gen, q):
                    if check == "q-chain-containment":
                        raise GroupFileError(detail + "; corrections may only use "
                                             "earlier generators", no)
                pres.set_q(gen, q)
        elif kind == "lie":
            lie_table = {}
            for no, line in lines:
                parts = line.split()
                if len(parts) != 4:
                    raise GroupFileError("expected 'i j k p/q'", no)
                i, j, k = (_integer(p, no) - 1 for p in parts[:3])
                n = len(pres.ring.generators)
                if not all(0 <= t < n for t in (i, j, k)) or i == j:
                    raise GroupFileError("[lie] indices must lie in 1..%d with i != j" % n, no)
                if any(k in lie_table.get(p, ()) for p in ((i, j), (j, i))):
                    raise GroupFileError("bracket row %s is given twice" % " ".join(parts[:3]), no)
                lie_table.setdefault((i, j), {})[k] = _at(no, parse_rational, parts[3])
        elif kind == "rmatrix":
            entries = {}
            for no, line in lines:
                parts = line.split()
                if len(parts) != 3:
                    raise GroupFileError("expected 'i j p/q'", no)
                i, j = _integer(parts[0], no) - 1, _integer(parts[1], no) - 1
                n = len(pres.ring.generators)
                if not (0 <= i < n and 0 <= j < n) or i == j:
                    raise GroupFileError("r-matrix indices out of range", no)
                if (i, j) in entries or (j, i) in entries:
                    raise GroupFileError(
                        "pair (%d,%d) declared twice; entries are antisymmetric "
                        "and must be given once" % (i + 1, j + 1), no)
                entries[(i, j)] = _at(no, parse_rational, parts[2])
            rmatrix = RMatrix(len(pres.ring.generators), entries)
        elif kind == "subgroup":
            if not label:
                raise GroupFileError("subgroup section needs a name", hno)
            kv = _keyvals(lines)
            if "params" not in kv:
                raise GroupFileError("[subgroup %s] must declare params" % label, hno)
            pno, text = kv.pop("params")
            params = tuple(text.replace(",", " ").split())
            tring = _at(pno, PolyRing, params)
            coords = {}
            for key, (no, val) in kv.items():
                if key not in pres.ring.index:
                    raise GroupFileError("unknown generator %r" % key, no)
                coords[key] = _at(no, parse_poly, val, tring)
            _at(hno, pres.add_subgroup, label, params, coords)
        elif kind == "point":
            if not label:
                raise GroupFileError("point section needs a name", hno)
            coords = {}
            for key, (no, val) in _keyvals(lines).items():
                if key not in pres.ring.index:
                    raise GroupFileError("unknown generator %r" % key, no)
                coords[key] = _at(no, parse_poly, val, pres.ring)
            _at(hno, pres.add_point, label, coords)
        elif kind == "cocycle-table":
            bound = None
            table = {}
            for no, line in lines:
                lhs, eq, val = line.partition("=")
                if (lhs.split() if eq else line.split()[:1]) == ["bound"]:
                    if not eq:
                        raise GroupFileError("expected 'bound = d'", no)
                    if bound is not None:
                        raise GroupFileError("'bound' is given twice", no)
                    bound = _integer(val, no)
                    continue
                if not eq or "," not in lhs:
                    raise GroupFileError("expected 'MONOMIAL , MONOMIAL = p/q'", no)
                m1txt, m2txt = lhs.split(",", 1)
                m1 = _as_monomial(_at(no, parse_poly, m1txt, pres.ring), no)
                m2 = _as_monomial(_at(no, parse_poly, m2txt, pres.ring), no)
                if (m1, m2) in table:
                    raise GroupFileError("pair (%r, %r) is given twice" % (m1, m2), no)
                table[(m1, m2)] = _at(no, parse_rational, val)
            if bound is None:
                raise GroupFileError("[cocycle-table] must declare bound = d", hno)
            cocycle = TableCocycle(pres, table, bound)
        elif kind != "group":
            raise GroupFileError("unknown section [%s]" % kind, hno)

    if cocycle is None and rmatrix is not None:
        cocycle = ExponentialCocycle(pres, rmatrix)
    return GroupData(pres, rmatrix=rmatrix, lie_table=lie_table, cocycle=cocycle)


def _integer(text, line_no):
    try:
        return int(text)
    except ValueError:
        raise GroupFileError("expected an integer, got %r" % text.strip(), line_no) from None


def _at(line_no, fn, *args):
    """fn(*args), with a ValueError it raises re-raised as a GroupFileError naming the line."""
    try:
        return fn(*args)
    except ValueError as e:
        raise GroupFileError(str(e), line_no) from None


def _as_monomial(p, line_no):
    if len(p.terms) != 1:
        raise GroupFileError("expected a single monomial", line_no)
    m, c = next(iter(p.terms.items()))
    if c != 1:
        raise GroupFileError("monomial must have coefficient 1", line_no)
    return m


def verify_lie_table(data):
    """Check a declared bracket table against the q-derived one."""
    if data.lie_table is None:
        return True, None
    lie = data.presentation.lie_data()
    n = lie.n
    # both brackets are antisymmetric, so the pairs i < j decide
    for i in range(n):
        for j in range(i + 1, n):
            declared = [0] * n
            for (a, b), sign in (((i, j), 1), ((j, i), -1)):
                for k, c in data.lie_table.get((a, b), {}).items():
                    declared[k] += sign * c
            if tuple(declared) != lie.bracket_basis(i, j):
                return False, (i + 1, j + 1)
    return True, None


def default_degree_bound(pres):
    """2 * `pres.leg_degree` (the largest degree of a q slot entry) + 2."""
    return 2 * pres.leg_degree + 2
