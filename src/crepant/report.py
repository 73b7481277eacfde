"""Structured reports and the replayable state token.

Reports are plain JSON-compatible dictionaries with a versioned schema
field; serialisation sorts keys and keeps integers exact (rationals are
encoded as "p/q" strings), so identical inputs give byte-identical output.
State tokens pack a chamber state (group, triangulation, bundle
coefficients) through zlib+base64 for replay across CLI invocations.
"""

from __future__ import annotations

import base64
import json
import zlib
from fractions import Fraction
from functools import cache

from .bundles import TautBundle
from .chambers import Chamber, ChamberState, functional
from .errors import UserError
from .fans import Triangulation, line_ratio
from .groups import GroupSpec, parse_group
from .intlin import primitive

SCHEMA = "crepant-report/1"


def frac_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def dumps(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def loads(text: str) -> dict:
    return json.loads(text)


def char_label(rho) -> str:
    if len(rho.index) == 1:
        return str(rho.index[0])
    return "(" + ",".join(str(i) for i in rho.index) + ")"


@cache
def _theta_names(g: GroupSpec) -> tuple:
    """The name th<label> of each nontrivial character, built once per
    group (groups are interned and hash by identity)."""
    return tuple("th" + char_label(rho) for rho in g.characters[1:])


def theta_string(g: GroupSpec, functional) -> str:
    """Render a functional over nontrivial characters as 'a*th_i + ... > 0'."""
    lhs = ""
    for coeff, name in zip(functional, _theta_names(g)):
        if coeff == 0:
            continue
        term = name if abs(coeff) == 1 else f"{abs(coeff)}*{name}"
        if lhs:
            lhs += (" - " if coeff < 0 else " + ") + term
        else:
            lhs = ("-" if coeff < 0 else "") + term
    return (lhs or "0") + " > 0"


def group_report(g: GroupSpec) -> dict:
    return {
        "spec": str(g),
        "order": g.r,
        "factors": [[n, list(w)] for n, w in g.factors],
        "characters": [list(c.index) for c in g.characters],
    }


def fan_report(fan: Triangulation, g: GroupSpec) -> dict:
    geo = fan.geometry
    edges = []
    for e in fan.interior_edges:
        m1, m2, rho = line_ratio(fan, e, g)
        edges.append(
            {
                "endpoints": list(e.endpoints),
                "degrees": sorted(geo.relation(e)),
                "ratio": [list(m1), list(m2)],
                "ratio_character": list(rho.index),
            }
        )
    return {
        "vertices": [list(v) for v in fan.vertices],
        "kinds": list(fan.vertex_kind),
        "triangles": [list(t) for t in fan.triangles],
        "interior_edges": edges,
    }


def monomial_str(e) -> str:
    num = ""
    den = ""
    for v, n in zip("xyz", e):
        if n == 1:
            num += v
        elif n > 1:
            num += f"{v}^{n}"
        elif n == -1:
            den += v
        elif n < -1:
            den += f"{v}^{-n}"
    if den:
        return (num or "1") + "/" + den
    return num or "1"


def taut_report(taut) -> dict:
    """Chart generators and interior-edge degrees of every tautological
    line bundle."""
    geo = taut.fan.geometry
    return {
        char_label(rho): {
            "generators": [monomial_str(m) for m in gens],
            "edge_degrees": geo.edge_degrees(row),
        }
        for rho, gens, row in zip(taut.group.characters, taut.gens, taut.coeffs)
    }


def marking_report(marking) -> dict:
    return {
        "lines": sorted(
            [list(ep), list(rho.index)] for ep, rho in marking.line_marks.items()
        ),
        "divisors": sorted(
            [v, sorted(list(c.index) for c in marks)]
            for v, marks in marking.divisor_marks.items()
        ),
    }


def facet_report(g: GroupSpec, facet, flabels=None) -> dict:
    pretty = theta_string(g, facet.normal)
    label = None
    if flabels:
        label = flabels.get(facet.normal)
    out = {
        "normal": list(facet.normal),
        "type": facet.wall_type,
        "inequality": pretty,
        "contracted_edges": [list(ep) for ep in facet.contracted],
    }
    if label:
        out["label"] = label
    if facet.splitting is not None:
        out["sub_characters"] = [list(i) for i in facet.splitting[0]]
        out["quotient_characters"] = [list(i) for i in facet.splitting[1]]
    if facet.divisor is not None:
        out["unstable_divisor"] = sorted(facet.divisor)
    if facet.swept is not None:
        out["swept_divisor"] = facet.swept
    return out


def chamber_report(g: GroupSpec, chamber: Chamber, flabels=None) -> dict:
    facets = sorted(
        (facet_report(g, f, flabels) for f in chamber.facets),
        key=lambda d: d["normal"],
    )
    # The family's raw classes are regenerated as they are read.
    family = chamber.inequalities
    indices = set(chamber.redundant)
    pairs = enumerate(zip(family.all_raws(), family.senses))
    redundant = sorted({functional(*ineq) for i, ineq in pairs if i in indices})
    return {
        "facets": facets,
        "interior_point": [frac_str(x) for x in chamber.interior_point],
        "redundant_inequalities": [
            {"functional": list(f), "inequality": theta_string(g, f)} for f in redundant
        ],
    }


def curve_labels(state: ChamberState) -> dict:
    """Label curve-wall normals in the style f_k, with k the index of the
    character marking the contracted line."""
    g = state.group
    geo = state.fan.geometry
    out = {}
    # Per compact curve, every character's degree on it: the curve's class
    # less one, so the class functional c[k] - c[0] is d[k] - d[0].
    for e, degrees in zip(geo.edges, zip(*map(geo.edge_degrees, state.taut.coeffs))):
        func = tuple(d - degrees[0] for d in degrees[1:])
        if not any(func):
            continue
        _, _, rho = line_ratio(state.fan, e, g)
        out.setdefault(primitive(func), f"f{char_label(rho)}")
    return out


# ---------------------------------------------------------------------------
# State tokens


def state_token(state: ChamberState) -> str:
    payload = {
        "group": str(state.group),
        "triangles": [list(t) for t in state.fan.triangles],
        "coeffs": [list(row) for row in state.taut.coeffs],
    }
    raw = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return base64.urlsafe_b64encode(zlib.compress(raw, 9)).decode()


# Upper bound on the decompressed payload of a state token.  A real state
# is a few kilobytes, so a larger payload is malformed, and the bound keeps
# a compressed bomb from exhausting memory.
MAX_TOKEN_PAYLOAD = 1 << 23


def state_from_token(token: str) -> ChamberState:
    try:
        inflate = zlib.decompressobj()
        raw = inflate.decompress(
            base64.urlsafe_b64decode(token.encode()), MAX_TOKEN_PAYLOAD + 1
        )
        if len(raw) > MAX_TOKEN_PAYLOAD:
            raise UserError(
                f"invalid state token: payload exceeds {MAX_TOKEN_PAYLOAD} bytes"
            )
        if not inflate.eof:
            raise UserError("invalid state token: truncated data")
        payload = json.loads(raw)
        g = parse_group(payload["group"])
        tris = [tuple(t) for t in payload["triangles"]]
        rows = [tuple(r) for r in payload["coeffs"]]
        # Fans are looked up by key before they are built, and 1.0 or True
        # would find the fan of the integer 1.
        if any(type(x) is not int for seq in tris + rows for x in seq):
            raise UserError("invalid state token: indices and coefficients must be integers")
        fan = Triangulation(g, tris)
        taut = TautBundle.from_coeffs(g, fan, rows)
    except UserError:
        raise
    except Exception as ex:  # malformed token data
        raise UserError(f"invalid state token: {ex}") from None
    return ChamberState(g, fan, taut)
