import base64
import hashlib
import json
import subprocess
import sys
import time
import zlib

import pytest

from crepant import bundles, report
from crepant.chambers import compute_chamber, cross_wall, ghilb_state
from crepant.errors import UserError
from crepant.fans import Triangulation
from crepant.ggraphs import ghilb_fan
from crepant.groups import Character, parse_group
from crepant.lp import LPCounter
from crepant.report import state_from_token, state_token


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "crepant.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


def test_ghilb_command_counts():
    # Enumerating every G-graph of 1/64(1,2,61) took 47 s and 766 MB on a
    # 2-vCPU host; walking the fan's 64 triangles takes well under a second.
    for spec, triangles, divisors in [("1/11(1,2,8)", 11, 5), ("1/64(1,2,61)", 64, 31)]:
        p = run_cli("ghilb", spec)
        assert p.returncode == 0
        rep = json.loads(p.stdout)
        assert len(rep["fan"]["triangles"]) == triangles
        assert len(rep["markings"]["divisors"]) == divisors


def test_group_order_above_limit_is_a_cap():
    # checked before the G-Hilb fan is built; the group itself is small
    from crepant.groups import MAX_GROUP_ORDER

    r = MAX_GROUP_ORDER + 1
    p = run_cli("ghilb", f"1/{r}(1,1,{r - 2})")
    assert p.returncode == 2
    assert p.stderr == (
        f"cap exceeded: group order {r} exceeds the G-graph enumeration limit of {MAX_GROUP_ORDER}\n"
    )
    assert p.stdout == ""


def test_huge_group_order_is_a_cap_before_any_character():
    # the order is checked when the spec is parsed, before the million
    # characters of this group would be built
    start = time.perf_counter()
    p = run_cli("ghilb", "1/1000000(1,1,999998)")
    assert time.perf_counter() - start < 2
    assert p.returncode == 2
    assert p.stderr.startswith("cap exceeded: group order 1000000 exceeds")
    assert p.stdout == ""


def test_too_many_compact_divisors_is_a_cap(monkeypatch, capsys, request):
    # The cap counts connected divisor sets, not divisors: the 22 compact
    # divisors of 1/45(1,1,43) form a chain with 253 connected sets, and
    # its chamber is computed.
    from crepant import cli, fans

    p = run_cli("chamber", "1/45(1,1,43)")
    assert p.returncode == 0
    assert p.stderr == ""
    assert json.loads(p.stdout)["chamber"]["facets"]
    # The 18 compact divisors of 1/37(1,10,26) are densely connected; the
    # cap is met as soon as the sets are grown, right after the G-Hilb fan.
    p = run_cli("chamber", "1/37(1,10,26)")
    assert p.returncode == 2
    assert p.stderr == (
        "cap exceeded: the connected sets of 18 compact divisors exceed the limit of 3000\n"
    )
    assert p.stdout == ""
    # Under a cap below the 26 connected sets of 1/11(1,2,8), growing the
    # sets stops at the cap.  Fresh fan objects, hence fresh geometry; the
    # G-Hilb memo is dropped before and after.
    monkeypatch.setattr(fans, "MAX_DIVISOR_SETS", 25)
    monkeypatch.setattr(Triangulation, "_interned", {})
    ghilb_fan.cache_clear()
    request.addfinalizer(ghilb_fan.cache_clear)
    assert cli.main(["chamber", "1/11(1,2,8)"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "cap exceeded: the connected sets of 5 compact divisors exceed the limit of 25\n"
    )


@pytest.mark.parametrize("spec", ["1/" + "9" * 5000 + "(1,1,1)", "1/3(1,1," + "9" * 5000 + ")"])
def test_oversized_integer_in_spec_is_a_parse_error(spec):
    # more digits than int() converts: an error line, not a traceback
    p = run_cli("ghilb", spec)
    assert p.returncode == 1
    assert p.stderr == "error: an integer in a term of 5009 characters is too long\n"
    assert p.stdout == ""


def test_invalid_group_exit_code():
    p = run_cli("ghilb", "1/0(1,1,1)")
    assert p.returncode == 1
    assert "error" in p.stderr


def test_usage_error_exit_code():
    p = run_cli("frobnicate", "1/2(1,0,1)")
    assert p.returncode == 1


def test_chamber_report_contains_f_labels():
    p = run_cli("chamber", "1/11(1,2,8)")
    rep = json.loads(p.stdout)
    labeled = {f.get("label"): f for f in rep["chamber"]["facets"] if "label" in f}
    assert labeled["f1"]["inequality"] == "th1 + th3 + th9 > 0"
    assert labeled["f1"]["type"] == "I"
    assert labeled["f8"]["type"] == "III"
    # f2 is redundant and reported as such
    reds = {r["inequality"] for r in rep["chamber"]["redundant_inequalities"]}
    assert "th2 + th3 + 2*th4 + th7 + th10 > 0" in reds


def test_determinism_byte_identical():
    a = run_cli("chamber", "1/6(1,2,3)").stdout
    b = run_cli("chamber", "1/6(1,2,3)").stdout
    assert a == b
    c = run_cli("enumerate", "1/3(1,1,1)").stdout
    d = run_cli("enumerate", "1/3(1,1,1)").stdout
    assert c == d


# sha256 of the stdout of each command, pinned so a report's bytes cannot
# drift between commits.  quiver --split 0,1 is left out for the
# two-factor group, where that split is not simple and the command exits 1.
REPORT_DIGESTS = {
    ("1/6(1,2,3)", "chamber"): "68269f9bfb6a3668f20ee6abbcb6809a2849f08db54c7d1470f65f16b55ba2bb",
    ("1/6(1,2,3)", "ghilb"): "6af0cec105b8487bb7d70c738e531a2cfec32a1ceb1c4e853301d4cddd1de1fd",
    ("1/6(1,2,3)", "cross --facet 0"): "d341b4248d7f6f3880c3e01cd33015c86fd626c46cf5bb4512b66eb759039cdb",
    ("1/6(1,2,3)", "quiver --split 0,1"): "79c750edea96bccef5f0ce70e6d97deff5e50802209f48232fd513c18d102ea1",
    ("1/11(1,2,8)", "chamber"): "8ded904441c5023ce1a9daf59a4be907759fbe522a5c0f20556393803a01222e",
    ("1/11(1,2,8)", "ghilb"): "268e7563f8b69c733baab14e87bf2c3d28fe8fe727bbb97bdba72795d6cc0cb6",
    ("1/11(1,2,8)", "cross --facet 0"): "a06a657ecb78a1d007ccb8b76249cda83b4f584805f397506a41335ad93ad1ed",
    ("1/11(1,2,8)", "quiver --split 0,1"): "7f3f3a260b6f73dd5b697623143f33c578e2d4e6c2434e8f7b4a3252fa3e3262",
    ("1/6(1,1,4)+1/2(1,0,1)", "chamber"): "194d667c1b6530b4a5b9975152aca19b58df2d64c09cc35d6f5492123f06647d",
    ("1/6(1,1,4)+1/2(1,0,1)", "ghilb"): "bf44df8480a137a33b12a5f1523fc1a6636e32461dad62ef02b0e54b1a0cba57",
    ("1/6(1,1,4)+1/2(1,0,1)", "cross --facet 0"): "3da87263c40f1d3a2e9c7ae69afee9389aa99a082e519b89f92f27b7a48b2fff",
}


@pytest.mark.parametrize("spec,command", sorted(REPORT_DIGESTS))
def test_report_bytes_are_pinned(spec, command):
    name, *options = command.split()
    p = run_cli(name, spec, *options)
    assert p.returncode == 0, p.stderr
    assert hashlib.sha256(p.stdout.encode()).hexdigest() == REPORT_DIGESTS[spec, command]


def test_enumerate_command():
    p = run_cli("enumerate", "1/3(1,1,1)")
    rep = json.loads(p.stdout)
    assert rep["chamber_count"] == 3
    assert rep["fan_count"] == 1
    assert rep["fans_equal_flip_closure"] is True


def test_enumerate_cap_exit_code():
    p = run_cli("enumerate", "1/6(1,2,3)", "--max-chambers", "10")
    assert p.returncode == 2


def test_enumerate_fan_cap_counts_the_start_fan():
    # the flip closure of 1/5(1,1,3) is its G-Hilb fan alone
    assert run_cli("enumerate", "1/5(1,1,3)", "--max-fans", "0").returncode == 2
    assert run_cli("enumerate", "1/5(1,1,3)", "--max-fans", "1").returncode == 0


def test_cross_roundtrip_with_token():
    p = run_cli("chamber", "1/3(1,1,1)")
    rep = json.loads(p.stdout)
    token = rep["state_token"]
    p2 = run_cli("cross", "1/3(1,1,1)", "--facet", "0")
    assert p2.returncode == 0
    rep2 = json.loads(p2.stdout)
    assert rep2["crossed_facet"]["type"] in ("0", "I", "III")
    # replay from the token gives the same chamber
    p3 = run_cli("cross", "1/3(1,1,1)", "--facet", "0", "--seed-state", token)
    assert p3.returncode == 0
    assert json.loads(p3.stdout)["chamber"] == rep2["chamber"]


def test_state_token_roundtrip_on_ghilb_neighbours():
    g = parse_group("1/6(1,1,4)+1/2(1,0,1)")
    s0 = ghilb_state(g)
    facets = compute_chamber(s0, LPCounter()).facets
    assert {f.wall_type for f in facets} >= {"0", "I"}
    states = [(f.wall_type, cross_wall(s0, f)) for f in facets]
    for wall_type, s in states:
        assert state_from_token(state_token(s)).key == s.key, wall_type
    # The canonicalising reducer is the group's and shared by every fan of
    # it.  Decode again with the reducer rebuilt while a bundle on each
    # flopped fan in turn is built, so a reducer that read the charts of
    # the fan it was first used on would show here.
    for filler_type, flopped in states:
        if filler_type != "I":
            continue
        vars(g).pop("principal_reducer", None)
        bundles.TautBundle.from_coeffs(g, flopped.fan, flopped.taut.coeffs)
        for wall_type, s in states:
            assert state_from_token(state_token(s)).key == s.key, wall_type


def _encode(payload):
    raw = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return base64.urlsafe_b64encode(zlib.compress(raw, 9)).decode()


def _malformed_tokens():
    # Each token breaks one condition on the coefficient rows or the
    # triangles of a valid state of 1/6(1,2,3), or is not a token at all.
    g = parse_group("1/6(1,2,3)")
    state = ghilb_state(g)
    good = json.loads(zlib.decompress(base64.urlsafe_b64decode(state_token(state))))
    k0 = g.char_index[g.trivial]
    k1, k2 = g.char_index[Character((1,))], g.char_index[Character((2,))]
    v = state.fan.interior_vertices()[0]
    corners = sorted(state.fan.vindex[c] for c in ((6, 0, 0), (0, 6, 0), (0, 0, 6)))

    def edited(edit, field="coeffs"):
        payload = json.loads(json.dumps(good))
        edit(payload[field])
        return _encode(payload)

    def first_triangle(tris, tri):
        tris[0] = tri

    def bump(rows, k, w, by):
        rows[k][w] += by

    def swap(rows):
        rows[k1], rows[k2] = rows[k2], rows[k1]

    return {
        "missing row": edited(lambda rows: rows.pop()),
        "short row": edited(lambda rows: rows[k1].pop()),
        "non-integral chart": edited(lambda rows: bump(rows, k1, v, 1)),
        "wrong character": edited(swap),
        "nonzero trivial row": edited(lambda rows: bump(rows, k0, v, g.r)),
        "float coefficients": edited(lambda rows: bump(rows, k1, v, 0.0)),
        "non-basic triangle": edited(lambda tris: first_triangle(tris, corners), "triangles"),
        "float triangle index": edited(
            lambda tris: first_triangle(tris, [float(i) for i in tris[0]]), "triangles"
        ),
        "garbage": "not-a-token",
        "truncated": state_token(state)[:40],
        "compressed zeros": base64.urlsafe_b64encode(
            zlib.compress(bytes(report.MAX_TOKEN_PAYLOAD + 1), 9)
        ).decode(),
    }


@pytest.mark.parametrize("case", sorted(_malformed_tokens()))
def test_state_from_token_rejects_malformed(case):
    token = _malformed_tokens()[case]
    with pytest.raises(UserError) as info:
        state_from_token(token)
    if case in ("missing row", "short row"):
        assert "6 rows of" in str(info.value)
    if case == "compressed zeros":
        assert "payload exceeds" in str(info.value)
    p = run_cli("cross", "1/6(1,2,3)", "--facet", "0", "--seed-state", token)
    assert p.returncode == 1, (case, p.stderr)
    assert "error" in p.stderr


def test_rejected_token_enters_no_fan():
    # Fans are interned by key; a token whose triangles fail validation, or
    # whose indices only compare equal to a known key, must leave the
    # table as it was.
    tokens = _malformed_tokens()
    before = dict(Triangulation._interned)
    for case in ("non-basic triangle", "float triangle index"):
        with pytest.raises(UserError):
            state_from_token(tokens[case])
        assert Triangulation._interned == before, case


def test_cross_bad_facet_index():
    p = run_cli("cross", "1/3(1,1,1)", "--facet", "99")
    assert p.returncode == 1


def test_quiver_command():
    p = run_cli("quiver", "1/6(1,2,3)", "--split", "0,1")
    rep = json.loads(p.stdout)
    assert rep["split"]["ext1_dim"] == 1
    assert rep["split"]["quotient_rigid"] is True
    p2 = run_cli("quiver", "1/6(1,2,3)", "--split", "0,1,3")
    rep2 = json.loads(p2.stdout)
    assert rep2["split"]["ext1_dim"] == 2


@pytest.mark.parametrize("orbit", ["--orbit=99,0", "--orbit=-1,5"])
def test_quiver_rejects_triangle_index_out_of_range(orbit):
    # A negative index must not select a triangle from the end.
    p = run_cli("quiver", "1/6(1,2,3)", orbit)
    assert p.returncode == 1
    assert p.stderr.startswith("error:") and "out of range" in p.stderr
    assert "Traceback" not in p.stderr
    assert p.stdout == ""


def assert_rejected(p):
    """Invalid input: exit 1 with an error line, no traceback, no report."""
    assert p.returncode == 1
    assert p.stderr.startswith("error:")
    assert "Traceback" not in p.stderr
    assert p.stdout == ""


@pytest.mark.parametrize("split", ["--split=0,99", "--split=-1,0"])
def test_quiver_rejects_split_index_out_of_range(split):
    assert_rejected(run_cli("quiver", "1/6(1,2,3)", split))


@pytest.mark.parametrize("option", ["--split=", "--orbit=", "--seed-state="])
def test_quiver_rejects_empty_option_value(option):
    # an empty value is malformed input, not an absent option
    assert_rejected(run_cli("quiver", "1/6(1,2,3)", option))


@pytest.mark.parametrize("command", [("cross", "--facet", "0"), ("quiver",)])
def test_seed_state_of_another_group_is_rejected(command):
    token = state_token(ghilb_state(parse_group("1/11(1,2,8)")))
    p = run_cli(command[0], "1/3(1,1,1)", *command[1:], "--seed-state", token)
    assert_rejected(p)
    assert "1/11" in p.stderr


@pytest.mark.parametrize(
    "command,flag",
    [("markings", "--json"), ("chamber", "--json"), ("ghilb", "--svg"), ("quiver", "--svg")],
)
def test_unwritable_output_path_is_rejected(tmp_path, command, flag):
    p = run_cli(command, "1/6(1,2,3)", flag, str(tmp_path / "missing" / "out"))
    assert_rejected(p)


@pytest.mark.parametrize("cap", ["--max-chambers=-1", "--max-lp=-1", "--max-fans=-1"])
def test_enumerate_rejects_negative_caps(cap):
    assert_rejected(run_cli("enumerate", "1/3(1,1,1)", cap))


def test_enumerate_max_lp_zero_disables_the_lp_cap():
    # 1/5(1,1,3) takes 15 LP solves
    assert run_cli("enumerate", "1/5(1,1,3)", "--max-lp", "1").returncode == 2
    assert run_cli("enumerate", "1/5(1,1,3)", "--max-lp", "0").returncode == 0


def test_svg_labels(tmp_path):
    svg = tmp_path / "fan.svg"
    p = run_cli("ghilb", "1/11(1,2,8)", "--svg", str(svg))
    assert p.returncode == 0
    text = svg.read_text()
    # every vertex (8) and interior edge (15) visibly labeled
    assert text.count("<text") >= 8 + 15
    assert "rho" in text


def test_json_flag_writes_identical_report(tmp_path):
    out = tmp_path / "report.json"
    p = run_cli("markings", "1/6(1,2,3)", "--json", str(out))
    assert p.returncode == 0
    assert out.read_text() == p.stdout


def test_verify_command():
    p = run_cli("verify", "1/6(1,2,3)")
    assert p.returncode == 0
    rep = json.loads(p.stdout)
    assert rep["ok"] is True


def test_verify_fails_on_type_ii_wall(monkeypatch, capsys):
    # Wall classification raises on a contracted curve whose normal
    # degrees are neither (-1,-1) nor (-2,0), so verify writes no report
    # and exits 3 when a wall of the chamber contracts one.
    from crepant import cli
    from crepant.fans import FanGeometry

    monkeypatch.setattr(FanGeometry, "relation", lambda self, e: (-3, 1))
    assert cli.main(["verify", "1/6(1,2,3)"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(
        "internal invariant violation: wall contracts a curve with degrees (-3, 1)"
    )


def test_memory_error_is_a_cap(monkeypatch, capsys):
    from crepant import chambers, cli

    def out_of_memory(g):
        raise MemoryError

    monkeypatch.setattr(chambers, "ghilb_chamber", out_of_memory)
    assert cli.main(["chamber", "1/3(1,1,1)"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "cap exceeded: out of memory\n"


def test_report_round_trip():
    from crepant import report

    p = run_cli("chamber", "1/3(1,1,1)")
    rep = json.loads(p.stdout)
    assert report.loads(report.dumps(rep)) == rep
