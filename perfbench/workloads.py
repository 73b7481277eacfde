"""The three benchmark workloads: set-up, one pass of fixed work, checks.

Every workload drives the library in-process through public functions,
single-threaded (no thread or process pools).  A pass is the workload's
fixed unit of work; run.py repeats passes for the measuring time.  Inputs
come only from the seed given on the command line.

Each operation ("op") is timed around its library calls only; its checks
run afterwards, inside the pass but outside the op's latency.  An op that
raises or fails a check counts as failed.  An op whose output contradicts a
recorded reference value also marks the run as not correct.
"""

from __future__ import annotations

import random
import sys
import time
import traceback
from collections import Counter

from crepant.bundles import ghilb_taut
from crepant.chambers import (
    ChamberState,
    ClassTable,
    chamber_cone,
    compute_chamber,
    cross_wall,
    enumerate_chambers,
    generate_inequalities,
    ghilb_chamber,
)
from crepant.errors import CrepantError, InternalError, PreconditionError, UserError
from crepant.fans import flip_reachable_fans
from crepant.ggraphs import ghilb_fan
from crepant.groups import parse_group
from crepant.lp import LPCounter
from crepant.quiver import band, check_diamond_cover, is_rigid, orbit_rep, two_dim_orbits
from crepant.recipe import check_partition, marking
from crepant.report import (
    SCHEMA,
    chamber_report,
    curve_labels,
    dumps,
    group_report,
    loads,
    state_from_token,
    state_token,
)

_clock = time.perf_counter


class CheckFailed(Exception):
    """An op's output broke an invariant; the op counts as failed."""


class WrongOutput(CheckFailed):
    """An op's output contradicts a recorded reference value."""


class ReverseCrossingMissing(CheckFailed):
    """Crossed walls without a matching reverse crossing (the double-crossing
    identity fails); carries the walls' normals."""

    def __init__(self, walls):
        super().__init__(f"{len(walls)} walls without a matching reverse crossing, first {walls[0]}")
        self.walls = walls


class Recorder:
    """Outcomes and latencies of every op of a run, plus exact work counts.

    A pass is fixed work, the same ops in the same order every time, so
    `attempted` is the number of ops in one pass and `failed` the number of
    those ops that failed in any pass (an op is known by its position in the
    pass).  Work counts are kept for the first pass only.  All three
    reproduce exactly for a seed however many passes the measuring time
    allows; latencies and `ops` (for throughput) cover every pass.
    """

    def __init__(self):
        self.latency_ms: list = []
        self.ops = 0  # ops run, all passes
        self.attempted = 0  # ops in one pass
        self.failed_ops: set = set()  # positions in the pass
        self.wrong_ops: set = set()
        self.chambers = 0  # chambers computed and checked, all passes
        self.counts: Counter = Counter()
        self.failures: list = []  # (position, kind, message), first few
        self.first_pass = True
        self.position = 0  # of the current op in its pass

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    @property
    def wrong(self) -> int:
        return len(self.wrong_ops)

    def count(self, **kw):
        if self.first_pass:
            self.counts.update(kw)

    def fail(self, kind: str, ex: BaseException):
        if isinstance(ex, ReverseCrossingMissing):
            self.count(reverse_fail=len(ex.walls))
        elif isinstance(ex, InternalError) and str(ex).startswith("missing reverse crossing"):
            self.count(reverse_fail=1)  # raised by enumerate_chambers' own check
        if isinstance(ex, WrongOutput):
            self.wrong_ops.add(self.position)
        if self.position in self.failed_ops:
            return  # failed in an earlier pass too
        self.failed_ops.add(self.position)
        if len(self.failures) < 20:
            self.failures.append((self.position, kind, f"{type(ex).__name__}: {ex}"))
            if not isinstance(ex, (CrepantError, CheckFailed)):  # a bug, not a finding
                traceback.print_exception(ex, file=sys.stderr)


def run_op(rec: Recorder, tr, kind: str, call, check) -> None:
    """Time call() as one op, then check its result outside the timing."""
    rec.ops += 1
    rec.position += 1
    if rec.first_pass:
        rec.attempted += 1
    tr.op = rec.ops
    err = None
    with tr.span("op." + kind):
        t0 = _clock()
        try:
            out = call()
        except Exception as ex:  # op boundary: record the failure, keep running
            err = ex
        rec.latency_ms.append((_clock() - t0) * 1000.0)
        if err is None:
            try:
                with tr.span("bench.check"):
                    check(out)
            except Exception as ex:
                err = ex
    if err is not None:
        rec.fail(kind, err)


def _traced(tr, name, fn, *args):
    with tr.span(name):
        return fn(*args)


def _ghilb_setup(tr, spec: str):
    """Parse a group, build its G-Hilb fan and check Reid's recipe on it."""
    g = _traced(tr, "groups.parse_group", parse_group, spec)
    gh = _traced(tr, "ggraphs.ghilb_fan", ghilb_fan, g)
    with tr.span("recipe.marking"):
        check_partition(gh, g, marking(gh, g))
    return g, gh


def _check_interior_point(chamber) -> None:
    pt = chamber.interior_point
    for f in chamber.facets:
        if sum(a * b for a, b in zip(f.normal, pt)) <= 0:
            raise CheckFailed(f"interior point not strictly inside facet {f.normal}")


def _neg(normal) -> tuple:
    return tuple(-x for x in normal)


# ---------------------------------------------------------------------------
# enum-sweep


def sweep_groups() -> list:
    """Every valid cyclic 1/r(a,b,c) with r <= 7 and a <= b <= c, except the
    non-isolated 1/7(0,a,7-a) (factorial-size graphs), plus the Klein four
    group."""
    out = []
    for r in range(2, 8):
        for a in range(r):
            for b in range(a, r):
                for c in range(b, r):
                    if (a + b + c) % r or (r == 7 and a == 0):
                        continue
                    spec = f"1/{r}({a},{b},{c})"
                    try:
                        parse_group(spec)
                    except UserError:
                        continue
                    out.append(spec)
    out.append("1/2(1,1,0)+1/2(0,1,1)")
    return out


# (chambers, fans) of every sweep group whose enumeration passes today.
# 1/6(3,4,5) (type-I reverse crossing) and the Klein four group (type-III
# reverse crossing) raise at this reference and have no entry.
SWEEP_REFERENCE = {
    "1/2(0,1,1)": (2, 1),
    "1/3(0,1,2)": (6, 1),
    "1/3(1,1,1)": (3, 1),
    "1/3(2,2,2)": (3, 1),
    "1/4(0,1,3)": (24, 1),
    "1/4(1,1,2)": (8, 1),
    "1/4(2,3,3)": (8, 1),
    "1/5(0,1,4)": (120, 1),
    "1/5(0,2,3)": (120, 1),
    "1/5(1,1,3)": (15, 1),
    "1/5(1,2,2)": (15, 1),
    "1/5(2,4,4)": (15, 1),
    "1/5(3,3,4)": (15, 1),
    "1/6(0,1,5)": (720, 1),
    "1/6(1,1,4)": (48, 1),
    "1/6(1,2,3)": (264, 5),
    "1/6(2,5,5)": (48, 1),
    "1/7(1,1,5)": (105, 1),
    "1/7(1,2,4)": (112, 1),
    "1/7(1,3,3)": (105, 1),
    "1/7(2,2,3)": (105, 1),
    "1/7(2,6,6)": (105, 1),
    "1/7(3,5,6)": (112, 1),
    "1/7(4,4,6)": (105, 1),
    "1/7(4,5,5)": (105, 1),
}


class EnumSweep:
    """Verified chamber-graph enumeration plus the flop-closure check over
    a seeded order of small groups.  One op = one group."""

    name = "enum-sweep"
    tail_pct = 75

    def __init__(self, seed: int, tr):
        specs = sweep_groups()
        random.Random(seed).shuffle(specs)
        self.groups = [(spec,) + _ghilb_setup(tr, spec) for spec in specs]

    def run_pass(self, rec: Recorder, tr) -> None:
        for spec, g, gh in self.groups:

            def call(g=g, gh=gh):
                with tr.span("chambers.enumerate_chambers"):
                    graph = enumerate_chambers(g, verify_crossings=True, workers=1)
                with tr.span("fans.flip_reachable_fans"):
                    flips = flip_reachable_fans(gh.fan)
                return graph, flips

            def check(out, spec=spec):
                graph, flips = out
                chambers, fans = len(graph.nodes), graph.fans()
                rec.chambers += chambers
                wall_types = Counter(e[3] for e in graph.edges)
                rec.count(
                    chambers=chambers,
                    lp_solves=graph.lp_count,
                    crossings=len(graph.edges),
                    dedup_hits=len(graph.edges) - (chambers - 1),
                    facets_0=wall_types["0"],
                    facets_I=wall_types["I"],
                    facets_III=wall_types["III"],
                )
                if fans != set(flips):
                    raise CheckFailed(f"{spec}: fans differ from the flip closure")
                ref = SWEEP_REFERENCE.get(spec)
                if ref is not None and ref != (chambers, len(fans)):
                    raise WrongOutput(
                        f"{spec}: {chambers} chambers / {len(fans)} fans, reference {ref}"
                    )

            run_op(rec, tr, "enumerate", call, check)


# ---------------------------------------------------------------------------
# walk-1_11

WALK_GROUP = "1/11(1,2,8)"
# Every chamber within this many crossings of G-Hilb is expanded: 666
# chambers.  Whole BFS levels make the pass the same set of chambers for
# every seed, and level 3 holds the known double-crossing failures (in
# plain BFS order the first is near expansion 468, and 16 fail within 600).
WALK_DEPTH = 3
# Facet counts by wall type of the G-Hilb chamber of 1/11(1,2,8).
WALK_GHILB_FACETS = {"0": 12, "I": 3, "III": 1}


class Walk:
    """Bounded BFS over chambers of 1/11(1,2,8) from G-Hilb, deduplicated on
    state keys, visiting each chamber's facets in a seeded order (which
    orders the chambers within each BFS level).  The chamber is computed by
    the three steps of compute_chamber, called one by one so each is timed.
    One op = one chamber expansion."""

    name = "walk-1_11"
    tail_pct = 95

    def __init__(self, seed: int, tr):
        self.seed = seed
        g, gh = _ghilb_setup(tr, WALK_GROUP)
        taut = _traced(tr, "bundles.ghilb_taut", ghilb_taut, g, gh)
        self.start = ChamberState(g, gh.fan, taut)

    def run_pass(self, rec: Recorder, tr) -> None:
        rng = random.Random(self.seed)
        counter = LPCounter()
        seen = {self.start.key}
        queue = [(self.start, 0)]  # (state, crossings from G-Hilb)
        expanded: dict = {}  # state key -> {facet normal: (wall type, neighbour key)}
        for qi, (state, depth) in enumerate(queue):
            if depth > WALK_DEPTH:
                break

            def call(state=state, depth=depth):
                with tr.span("chambers.ClassTable"):
                    table = ClassTable(state)
                with tr.span("chambers.generate_inequalities"):
                    ineqs = generate_inequalities(state, table)
                lp0 = counter.count
                with tr.span("chambers.chamber_cone"):
                    chamber = chamber_cone(state, ineqs, counter)
                facets = list(chamber.facets)
                rng.shuffle(facets)
                crossings = {}
                hits = 0
                for f in facets:
                    with tr.span("chambers.cross_wall." + f.wall_type):
                        nstate = cross_wall(state, f)
                    crossings[f.normal] = (f.wall_type, nstate.key)
                    if nstate.key in seen:
                        hits += 1
                    else:
                        seen.add(nstate.key)
                        queue.append((nstate, depth + 1))
                expanded[state.key] = crossings
                return chamber, crossings, hits, counter.count - lp0

            def check(out, state=state, first=(qi == 0)):
                chamber, crossings, hits, lps = out
                rec.chambers += 1
                types = Counter(f.wall_type for f in chamber.facets)
                rec.count(
                    chambers=1,
                    ineqs=len(chamber.inequalities),
                    lp_solves=lps,
                    crossings=len(crossings),
                    dedup_hits=hits,
                    facets_0=types["0"],
                    facets_I=types["I"],
                    facets_III=types["III"],
                )
                _check_interior_point(chamber)
                if first and dict(types) != WALK_GHILB_FACETS:
                    raise WrongOutput(f"G-Hilb facet types {dict(types)}")
                bad = []
                for normal, (wtype, nkey) in crossings.items():
                    back = expanded.get(nkey)
                    if back is not None and back.get(_neg(normal)) != (wtype, state.key):
                        bad.append(normal)
                if bad:
                    raise ReverseCrossingMissing(bad)

            run_op(rec, tr, "expand", call, check)


# ---------------------------------------------------------------------------
# serve-mixed

SERVE_GROUPS = (
    "1/9(1,2,6)",
    "1/11(1,2,8)",
    "1/13(1,3,9)",
    "1/15(1,2,12)",
    "1/6(1,1,4)+1/2(1,0,1)",
)
# Simple splits kept per pool state for quiver requests.
SERVE_SPLITS_PER_ORBIT = 2


class Serve:
    """Closed loop, one client, no think time: seeded CLI-style requests
    against a token pool built at set-up (G-Hilb of each group plus every
    state one crossing away).  One op = one request."""

    name = "serve-mixed"
    tail_pct = 95

    def __init__(self, seed: int, tr):
        self.rng = random.Random(seed)
        self.pool = []  # (token, state key)
        self.ghilb_facets = {}  # spec -> facet normals of the G-Hilb chamber
        self.quiver_inputs = []  # (pool index, triangle, vertex, r1 class, ext1 or None)
        counter = LPCounter()
        for spec in SERVE_GROUPS:
            g, gh = _ghilb_setup(tr, spec)
            s0 = ChamberState(g, gh.fan, _traced(tr, "bundles.ghilb_taut", ghilb_taut, g, gh))
            ch0 = _traced(tr, "chambers.compute_chamber", compute_chamber, s0, counter)
            self.ghilb_facets[spec] = {f.normal for f in ch0.facets}
            states = [s0]
            for f in ch0.facets:
                states.append(
                    _traced(tr, "chambers.cross_wall." + f.wall_type, cross_wall, s0, f)
                )
            splits = [
                tuple(1 if c.index in f.splitting[0] else 0 for c in g.characters)
                for f in ch0.facets
                if f.wall_type == "0"
            ]
            interior = set(gh.fan.interior_vertices())
            for st in states:
                idx = len(self.pool)
                self.pool.append((_traced(tr, "report.state_token", state_token, st), st.key))
                self._quiver_inputs(tr, idx, st, interior, splits)
        self.deck = self._deck()

    def _quiver_inputs(self, tr, idx, st, interior, splits):
        """Simple splits on a seeded compact-divisor orbit of a pool state.
        An orbit whose representation fails to build is kept with no
        expected answer, so the failure shows in the requests too."""
        tri, v = self.rng.choice([o for o in two_dim_orbits(st) if o[1] in interior])
        try:
            graph = _traced(tr, "quiver.orbit_rep", orbit_rep, st, tri, v)
        except CrepantError:
            self.quiver_inputs.append((idx, tri, v, splits[0], None))
            return
        kept = 0
        for r1 in splits:
            try:
                _, ext1 = _traced(tr, "quiver.band", band, graph, r1)
            except PreconditionError:
                continue
            self.quiver_inputs.append((idx, tri, v, r1, ext1))
            kept += 1
            if kept == SERVE_SPLITS_PER_ORBIT:
                break

    def _deck(self) -> list:
        """The requests of a pass: a chamber request for every pool token,
        plus cross, verify and quiver requests at 3/5, 1/5 and 1/5 of that
        (50/30/10/10 overall), in a seeded order with seeded cross facets
        and quiver targets.  Drawn once, so every pass is the same work."""
        rng = self.rng
        n = len(self.pool)
        deck = [("chamber", i) for i in range(n)]
        deck += [("cross", i) for i in rng.sample(range(n), round(0.6 * n))]
        deck += [("verify", SERVE_GROUPS[i % len(SERVE_GROUPS)]) for i in range(round(0.2 * n))]
        deck += [("quiver", q) for q in rng.sample(self.quiver_inputs, round(0.2 * n))]
        rng.shuffle(deck)
        return [
            (kind, (target, rng.randrange(64)) if kind == "cross" else target)
            for kind, target in deck
        ]

    def run_pass(self, rec: Recorder, tr) -> None:
        counter = LPCounter()
        for kind, target in self.deck:
            rec.count(**{"requests_" + kind: 1})
            if kind == "chamber":
                self._chamber(rec, tr, counter, target)
            elif kind == "cross":
                self._cross(rec, tr, counter, *target)
            elif kind == "verify":
                self._verify(rec, tr, target)
            else:
                self._quiver(rec, tr, target)
        rec.count(lp_solves=counter.count)

    def _count_chamber(self, rec, chamber):
        rec.chambers += 1
        types = Counter(f.wall_type for f in chamber.facets)
        rec.count(
            chambers=1,
            ineqs=len(chamber.inequalities),
            facets_0=types["0"],
            facets_I=types["I"],
            facets_III=types["III"],
        )

    def _decode(self, tr, idx):
        token, key = self.pool[idx]
        state = _traced(tr, "report.state_from_token", state_from_token, token)
        return state, key

    def _chamber(self, rec, tr, counter, idx):
        def call():
            state, key = self._decode(tr, idx)
            chamber = _traced(tr, "chambers.compute_chamber", compute_chamber, state, counter)
            with tr.span("report.chamber_report"):
                g = state.group
                rep = {
                    "schema": SCHEMA,
                    "command": "chamber",
                    "group": group_report(g),
                    "chamber": chamber_report(g, chamber, curve_labels(state)),
                }
                text = dumps(rep)
            return state, key, chamber, rep, text

        def check(out):
            state, key, chamber, rep, text = out
            self._count_chamber(rec, chamber)
            if state.key != key:
                raise CheckFailed("decoded state key differs from the pool key")
            _check_interior_point(chamber)
            if loads(text) != rep:
                raise CheckFailed("report does not round-trip through loads")
            if len(rep["chamber"]["facets"]) != len(chamber.facets):
                raise CheckFailed("report facet count differs from the chamber")

        run_op(rec, tr, "chamber", call, check)

    def _cross(self, rec, tr, counter, idx, pick):
        def call():
            state, key = self._decode(tr, idx)
            chamber = _traced(tr, "chambers.compute_chamber", compute_chamber, state, counter)
            facets = sorted(chamber.facets, key=lambda f: f.normal)
            facet = facets[pick % len(facets)]
            nstate = _traced(tr, "chambers.cross_wall." + facet.wall_type, cross_wall, state, facet)
            nchamber = _traced(tr, "chambers.compute_chamber", compute_chamber, nstate, counter)
            token = _traced(tr, "report.state_token", state_token, nstate)
            return state, key, chamber, facet, nstate, nchamber, token

        def check(out):
            state, key, chamber, facet, nstate, nchamber, token = out
            self._count_chamber(rec, chamber)
            self._count_chamber(rec, nchamber)
            rec.count(crossings=1)
            if state.key != key:
                raise CheckFailed("decoded state key differs from the pool key")
            _check_interior_point(chamber)
            _check_interior_point(nchamber)
            if state_from_token(token).key != nstate.key:
                raise CheckFailed("crossed state token does not round-trip")
            back = [f for f in nchamber.facets if f.normal == _neg(facet.normal)]
            if not back or back[0].wall_type != facet.wall_type:
                raise ReverseCrossingMissing([facet.normal])

        run_op(rec, tr, "cross", call, check)

    def _verify(self, rec, tr, spec):
        def call():
            g, gh = _ghilb_setup(tr, spec)
            chamber = _traced(tr, "chambers.ghilb_chamber", ghilb_chamber, g)
            state = chamber.state
            for tri, v in two_dim_orbits(state):
                graph = _traced(tr, "quiver.orbit_rep", orbit_rep, state, tri, v)
                _traced(tr, "quiver.check_diamond_cover", check_diamond_cover, graph)
            return chamber

        def check(chamber):
            self._count_chamber(rec, chamber)
            _check_interior_point(chamber)
            if {f.normal for f in chamber.facets} != self.ghilb_facets[spec]:
                raise WrongOutput(f"{spec}: G-Hilb facets differ from set-up")

        run_op(rec, tr, "verify", call, check)

    def _quiver(self, rec, tr, qin):
        idx, tri, v, r1, ext1_ref = qin

        def call():
            state, key = self._decode(tr, idx)
            graph = _traced(tr, "quiver.orbit_rep", orbit_rep, state, tri, v)
            dec, ext1 = _traced(tr, "quiver.band", band, graph, r1)
            rigid = None
            if ext1 == 1:
                with tr.span("quiver.is_rigid"):
                    rigid = (is_rigid(graph, r1, "quot"), is_rigid(graph, r1, "sub"))
            return state, key, dec, ext1, rigid

        def check(out):
            state, key, dec, ext1, rigid = out
            if state.key != key:
                raise CheckFailed("decoded state key differs from the pool key")
            r = state.group.r
            ndiamonds = (
                len(dec.sub_diamonds)
                + len(dec.quot_diamonds)
                + sum(len(c) for c in dec.band_components)
            )
            if ndiamonds != r or len(dec.sub_vertices | dec.quot_vertices) != r:
                raise CheckFailed("band decomposition does not tile the character torus")
            if ext1_ref is not None and ext1 != ext1_ref:
                raise WrongOutput(f"ext1 {ext1}, set-up found {ext1_ref}")

        run_op(rec, tr, "quiver", call, check)


WORKLOADS = {w.name: w for w in (EnumSweep, Walk, Serve)}
