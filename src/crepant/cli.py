"""Command-line front end.

Commands: ghilb | markings | chamber | walls | cross | enumerate | quiver
| verify.  Reports go to stdout as JSON (also to --json PATH); --svg PATH
writes a rendering where available.  Exit codes: 0 success, 1 usage or
invalid input, 2 resource cap exceeded (memory included), 3 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import sys

from . import chambers, report
from .errors import CapError, InternalError, UserError
from .fans import flip_reachable_fans
from .ggraphs import ghilb_fan
from .groups import parse_group
from .lp import LPCounter
from .recipe import check_partition, marking
from .svgout import quiver_svg, triangulation_svg


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UserError(message)


def _build_parser():
    p = _Parser(prog="crepant", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, svg=False):
        sp.add_argument("group", help="group spec, e.g. '1/11(1,2,8)' or '1/6(1,1,4)+1/2(1,0,1)'")
        sp.add_argument("--json", metavar="PATH", help="also write the report to PATH")
        if svg:
            sp.add_argument("--svg", metavar="PATH", help="write an SVG rendering to PATH")

    common(sub.add_parser("ghilb", help="G-Hilb fan, tautological data, markings"), svg=True)
    common(sub.add_parser("markings", help="Reid's-recipe markings only"), svg=True)
    common(sub.add_parser("chamber", help="facets of the G-Hilb chamber"))
    common(sub.add_parser("walls", help="alias of chamber (facets with wall types)"))

    sp = sub.add_parser("cross", help="cross a facet of a chamber")
    common(sp)
    sp.add_argument("--facet", type=int, required=True, metavar="N", help="facet index from the chamber report")
    sp.add_argument("--seed-state", metavar="TOKEN", help="start from a state token instead of G-Hilb")

    sp = sub.add_parser("enumerate", help="enumerate the chamber graph")
    common(sp)
    sp.add_argument("--max-chambers", type=int, default=10_000, metavar="N")
    sp.add_argument("--max-lp", type=int, default=100_000, metavar="N")
    sp.add_argument("--max-fans", type=int, default=100_000, metavar="N")

    sp = sub.add_parser("quiver", help="quiver representation on a 2-dimensional orbit")
    common(sp, svg=True)
    sp.add_argument("--orbit", metavar="TRI,VERT", help="triangle index and vertex index (default: first orbit of a compact divisor)")
    sp.add_argument("--split", metavar="I0,I1,...", help="quotient characters by index; reports ext1 and rigidity")
    sp.add_argument("--seed-state", metavar="TOKEN")

    common(sub.add_parser("verify", help="run the self-check battery for a group"))
    return p


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as ex:
        raise UserError(f"cannot write {path}: {ex.strerror}") from None


def _emit(rep: dict, args) -> None:
    text = report.dumps(rep)
    if getattr(args, "json", None):
        _write(args.json, text)
    sys.stdout.write(text)


def _state(args):
    g = parse_group(args.group)
    if getattr(args, "seed_state", None) is not None:
        state = report.state_from_token(args.seed_state)
        if state.group is not g:
            raise UserError(f"the state token is a state of {state.group}, not of {g}")
        return state
    return chambers.ghilb_state(g)


def cmd_ghilb(args):
    g = parse_group(args.group)
    gh = ghilb_fan(g)
    m = marking(gh, g)
    check_partition(gh, g, m)
    state = chambers.ghilb_state(g)
    rep = {
        "schema": report.SCHEMA,
        "command": "ghilb",
        "group": report.group_report(g),
        "fan": report.fan_report(gh.fan, g),
        "markings": report.marking_report(m),
        "tautological": report.taut_report(state.taut),
        "state_token": report.state_token(state),
    }
    if getattr(args, "svg", None):
        _write(args.svg, triangulation_svg(gh.fan, g, m, title=f"G-Hilb fan of {g}"))
        rep["svg"] = args.svg
    _emit(rep, args)


def cmd_markings(args):
    g = parse_group(args.group)
    gh = ghilb_fan(g)
    m = marking(gh, g)
    check_partition(gh, g, m)
    rep = {
        "schema": report.SCHEMA,
        "command": "markings",
        "group": report.group_report(g),
        "markings": report.marking_report(m),
    }
    if getattr(args, "svg", None):
        _write(args.svg, triangulation_svg(gh.fan, g, m, title=f"Reid's recipe for {g}"))
        rep["svg"] = args.svg
    _emit(rep, args)


def cmd_chamber(args):
    g = parse_group(args.group)
    chamber = chambers.ghilb_chamber(g)
    flabels = report.curve_labels(chamber.state)
    rep = {
        "schema": report.SCHEMA,
        "command": "chamber",
        "group": report.group_report(g),
        "chamber": report.chamber_report(g, chamber, flabels),
        "state_token": report.state_token(chamber.state),
    }
    _emit(rep, args)


def cmd_cross(args):
    state = _state(args)
    counter = LPCounter()
    chamber = chambers.compute_chamber(state, counter)
    facets = sorted(chamber.facets, key=lambda f: f.normal)
    if not 0 <= args.facet < len(facets):
        raise UserError(
            f"facet index {args.facet} out of range (chamber has {len(facets)} facets)"
        )
    facet = facets[args.facet]
    nstate = chambers.cross_wall(state, facet)
    nchamber = chambers.compute_chamber(nstate, counter)
    g = state.group
    rep = {
        "schema": report.SCHEMA,
        "command": "cross",
        "group": report.group_report(g),
        "crossed_facet": report.facet_report(g, facet),
        "chamber": report.chamber_report(g, nchamber, report.curve_labels(nstate)),
        "fan": report.fan_report(nstate.fan, g),
        "state_token": report.state_token(nstate),
    }
    _emit(rep, args)


def cmd_enumerate(args):
    for cap in ("max_chambers", "max_lp", "max_fans"):
        if getattr(args, cap) < 0:
            raise UserError(f"--{cap.replace('_', '-')} must not be negative")
    g = parse_group(args.group)
    graph = chambers.enumerate_chambers(
        g, max_chambers=args.max_chambers, max_lp=args.max_lp
    )
    fans = sorted(graph.fans())
    flips = flip_reachable_fans(ghilb_fan(g).fan, cap=args.max_fans)
    unrealized = sorted(set(flips) - set(fans))
    rep = {
        "schema": report.SCHEMA,
        "command": "enumerate",
        "group": report.group_report(g),
        "chamber_count": len(graph.nodes),
        "fan_count": len(fans),
        "flip_reachable_fan_count": len(flips),
        "fans_equal_flip_closure": sorted(set(fans)) == sorted(set(flips)),
        "unrealized_flip_fans": [[list(t) for t in key] for key in unrealized],
        "lp_solves": graph.lp_count,
        "wall_type_counts": {
            t: sum(1 for e in graph.edges if e[3] == t) for t in ("0", "I", "III")
        },
        "nodes": [
            {"id": i, "fan": [list(t) for t in st.fan.key], "facet_count": len(facets)}
            for i, (st, facets, _pt) in enumerate(graph.nodes)
        ],
        "edges": sorted(
            {
                (min(a, b), max(a, b), t): None
                for a, b, _n, t in graph.edges
            }.keys()
        ),
    }
    _emit(rep, args)


def cmd_quiver(args):
    from . import quiver as qv

    state = _state(args)
    g = state.group
    if args.orbit is not None:
        try:
            tri, vert = (int(x) for x in args.orbit.split(","))
        except ValueError:
            raise UserError("--orbit expects 'TRIANGLE_INDEX,VERTEX_INDEX'") from None
    else:
        interior = state.fan.interior_vertices()
        if not interior:
            raise UserError("no compact divisor; pass --orbit explicitly")
        vert = interior[0]
        tri = state.fan.triangles_at_vertex(vert)[0]
    graph = qv.orbit_rep(state, tri, vert)
    qv.check_diamond_cover(graph)
    ds, diag = qv.diamonds(graph)
    rep = {
        "schema": report.SCHEMA,
        "command": "quiver",
        "group": report.group_report(g),
        "orbit": {"triangle": tri, "vertex": vert},
        "arrows_present": sum(1 for v in graph.arrows.values() if v),
        "diamonds": len(ds),
        "diagonals_absent": all(diag.values()),
    }
    band_dec = None
    if args.split is not None:
        try:
            quot = {int(x) for x in args.split.split(",")}
        except ValueError:
            raise UserError("--split expects comma-separated character indices") from None
        if not quot <= set(range(g.r)):
            raise UserError(f"--split indices must lie in 0..{g.r - 1}")
        r1 = tuple(0 if k in quot else 1 for k in range(g.r))
        if not any(r1) or all(r1):
            raise UserError("--split must be a proper nonempty character subset")
        band_dec, ext1 = qv.band(graph, r1)
        rep["split"] = {
            "quotient_characters": sorted(quot),
            "ext1_dim": ext1,
            "band_components": len(band_dec.band_components),
        }
        if ext1 == 1:
            rep["split"]["quotient_rigid"] = qv.is_rigid(graph, r1, "quot")
            rep["split"]["subsheaf_rigid"] = qv.is_rigid(graph, r1, "sub")
    if getattr(args, "svg", None):
        _write(args.svg, quiver_svg(graph, band_dec))
        rep["svg"] = args.svg
    _emit(rep, args)


def cmd_verify(args):
    """Each check raises when it fails, so a report is written only when
    every check has passed.  Wall classification raises on any wall
    type other than 0, I and III, which is what no_type_II records."""
    from .quiver import check_diamond_cover, orbit_rep, two_dim_orbits

    g = parse_group(args.group)
    gh = ghilb_fan(g)
    check_partition(gh, g, marking(gh, g))
    chamber = chambers.ghilb_chamber(g)
    state = chamber.state
    for tri, vert in two_dim_orbits(state):
        check_diamond_cover(orbit_rep(state, tri, vert))
    checks = {
        "fan_valid": True,
        "marking_partition": True,
        "ghilb_chamber_consistent": True,
        "facet_count": len(chamber.facets),
        "no_type_II": True,
        "quiver_invariants": True,
    }
    rep = {
        "schema": report.SCHEMA,
        "command": "verify",
        "group": report.group_report(g),
        "checks": checks,
        "ok": True,
    }
    _emit(rep, args)


_COMMANDS = {
    "ghilb": cmd_ghilb,
    "markings": cmd_markings,
    "chamber": cmd_chamber,
    "walls": cmd_chamber,
    "cross": cmd_cross,
    "enumerate": cmd_enumerate,
    "quiver": cmd_quiver,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _COMMANDS[args.command](args)
        return 0
    except UserError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    except CapError as ex:
        print(f"cap exceeded: {ex}", file=sys.stderr)
        return 2
    except MemoryError:
        print("cap exceeded: out of memory", file=sys.stderr)
        return 2
    except InternalError as ex:
        print(f"internal invariant violation: {ex}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
