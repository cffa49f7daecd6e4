"""Command line behavior: exit codes, frozen outputs, determinism."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from skewstab.cli import EXIT_INTERNAL, EXIT_UNDECIDED, _build_parser, main


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


THM6_ORBIT = (
    "step 0: fibre 0  zeta(0, 1)  [m=1, g=1]\n"
    "step 1: fibre 0  zeta(0, 1/2)  [m=1, g=2]\n"
    "step 2: fibre 0  zeta(0, 3/4)  [m=1, g=4]\n"
    "step 3: fibre 0  zeta(0, 7/8)  [m=1, g=8]\n"
    "step 4: fibre 0  zeta(0, 11/16)  [m=1, g=16]\n"
)


class TestImage:
    def test_thm6_orbit_five_points(self):
        code, out, err = run_cli("image", "thm6", "zeta(0, 1)", "5")
        assert code == 0
        assert out == THM6_ORBIT

    def test_bad_literal_exits_2(self):
        code, out, err = run_cli("image", "thm6", "zeta(0, q)", "2")
        assert code == 2
        assert "parse error" in err and "col 9" in err

    def test_unknown_fixture_exits_2(self):
        code, _, err = run_cli("image", "nothere", "zeta(0,1)", "2")
        assert code == 2
        assert "nothere" in err

    def test_definition_from_path(self, tmp_path):
        f = tmp_path / "m.skew"
        f.write_text("period 1\n[fibre 0]\nphi1 = x\nphi2 = y^2\n")
        code, out, _ = run_cli("image", str(f), "zeta(0, 0)", "2")
        assert code == 0
        assert out.count("zeta(0, 0)") == 2

    def test_fixture_name_with_extension(self):
        code, out, _ = run_cli("image", "thm6.skew", "zeta(0, 1)", "1")
        assert code == 0

    def test_precision_flag_rejects_deep_series(self):
        code, _, err = run_cli("image", "thm6", "zeta(0,1)", "2", "--precision", "3")
        assert code == 2
        assert "exceeds precision" in err

    def test_missing_subcommand_exits_2(self):
        assert run_cli()[0] == 2


class TestVertexSetCommands:
    def test_smooth_hull_three_point_path(self):
        code, out, _ = run_cli("smooth-hull", "--points", "zeta(0, 1/2)", "-n", "2")
        assert code == 0
        assert out == (
            "smooth 2-convex hull: 3 point(s)\n"
            "  zeta(0, 0)\n"
            "  zeta(0, 1/2)\n"
            "  zeta(0, 1)\n"
        )

    def test_check_smooth_violation_names_interior_vertex(self):
        code, out, _ = run_cli("check-smooth", "--points", "zeta(0,0), zeta(0,2)")
        assert code == 1
        assert "smooth: no" in out
        assert "zeta(0, 1)" in out

    def test_check_smooth_accepts_smooth_hull(self):
        code, out, _ = run_cli(
            "check-smooth", "--points", "zeta(0,0), zeta(0,1/2), zeta(0,1)"
        )
        assert code == 0
        assert "smooth: yes" in out

    def test_points_from_fixture_gammas(self):
        code, out, _ = run_cli("check-smooth", "thm6")
        assert code == 0

    def test_no_points_is_usage_error(self):
        code, _, err = run_cli("check-smooth")
        assert code == 2
        assert "points" in err

    def test_domains(self):
        code, out, _ = run_cli("domains", "--points", "zeta(0,0), zeta(0,1)")
        assert code == 0
        assert out.splitlines()[0] == "3 complement domain(s)"
        assert "annulus" in out

    def test_dual_graph_singleton_dot(self):
        code, out, _ = run_cli("dual-graph", "--points", "zeta(0,0)")
        assert code == 0
        assert out == 'graph dual {\n  v0 [label="a=0 t=0 m=1 g=1" cls="integral"];\n}\n'


def wandering_lines(point):
    return [
        f"wandering-julia.point: {point}",
        "wandering-julia.interval: [0, 1]",
        "wandering-julia.fixed-point: t = 4/5, multiplier -3/2",
        "wandering-julia.orbit: odd/2^n with strictly growing n",
    ]


class TestStabilityCommands:
    def test_check_stability_thm6_exits_3_with_witness(self):
        code, out, _ = run_cli("check-stability", "thm6")
        assert code == 3
        assert "verdict: DestabilisingFound" in out
        assert "witness[0].point: zeta(0, 1) @ fibre 0" in out
        assert "witness[0].image: zeta(0, 1/2) @ fibre 0" in out
        assert "replay: start=zeta(0, 2/3)" in out
        assert out.splitlines()[-4:] == wandering_lines("zeta(0, 1/2) @ fibre 0")

    def test_check_stability_goodred_exits_0(self):
        code, out, _ = run_cli("check-stability", "goodred")
        assert code == 0
        assert "verdict: StableCertified" in out

    def test_check_stability_thmB_attaches_certificate(self):
        code, out, _ = run_cli("check-stability", "thmB")
        assert code == 3
        assert "witness[0].image: zeta(0, 1) @ fibre 1" in out
        assert "replay: start=zeta(0, 4/3)" in out
        assert out.splitlines()[-4:] == wandering_lines("zeta(0, 1) @ fibre 1")

    def test_min_stabilize_cap_exits_4_with_dyadic_trace(self):
        code, out, _ = run_cli("min-stabilize", "thm6", "--max-rounds", "4")
        assert code == 4
        lines = out.splitlines()
        assert lines[0].startswith("round 1: zeta(0, 1) @ fibre 0 -> added zeta(0, 1/2)")
        assert "added zeta(0, 11/16)" in lines[3]
        assert lines[-1].startswith("round cap exceeded")

    def test_stabilize_cap_exits_4_with_round_trace(self):
        code, out, _ = run_cli("stabilize", "thm6", "--max-rounds", "1")
        assert code == 4
        lines = out.splitlines()
        assert lines[0].startswith("round 1: added ")
        assert lines[-1] == "round cap exceeded: smooth stabilisation open after 1 rounds"

    def test_min_stabilize_goodred_closes(self):
        code, out, _ = run_cli("min-stabilize", "goodred")
        assert code == 0
        assert "verdict: StableCertified" in out

    def test_stabilize_xy2_exits_0(self):
        code, out, _ = run_cli("stabilize", "xy2")
        assert code == 0
        assert "registry: D(fibre 0, at zeta(0, -16), towards infinity)" in out
        assert "registry: D(fibre 0, at zeta(0, 10), towards 0)" in out
        assert "registry audit: clean" in out
        assert "fibre 0: 27 vertex(es)" in out
        assert "verdict: StableCertified" in out

    def test_structured_output_is_deterministic(self):
        a = run_cli("check-stability", "thm6")
        b = run_cli("check-stability", "thm6")
        assert a == b and a[0] == 3


class TestFailureSurface:
    def test_root_of_a_huge_coefficient_is_a_one_line_error(self, tmp_path):
        # 2^1100 is past float range; its cube root does not exist over Q
        f = tmp_path / "big.skew"
        f.write_text("period 1\n[fibre 0]\nphi1 = 2^1100*x^3\nphi2 = y^2\n")
        code, out, err = run_cli("image", str(f), "zeta(x, 2)", "3")
        assert code == EXIT_UNDECIDED == 6
        assert err.startswith("error: reversion needs a rational 3-th root of ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_a_literal_past_the_digit_limit_is_a_parse_error(self, tmp_path):
        huge = "7" * 5000
        f = tmp_path / "huge.skew"
        f.write_text(f"period 1\n[fibre 0]\nphi1 = x\nphi2 = {huge}*y^2\n")
        for argv in (("image", str(f), "zeta(0, 1)", "1"), ("image", "thm6", f"zeta({huge}, 1)", "1")):
            code, out, err = run_cli(*argv)
            assert code == 2 and out == ""
            assert err.startswith("parse error: line ") and err.count("\n") == 1
            assert "integer literal of 5000 digits is too long" in err

    def test_a_number_past_the_digit_limit_is_not_printed(self, tmp_path):
        # 2300 sevens parse, and their square has 4600 digits
        f = tmp_path / "square.skew"
        f.write_text("period 1\ntail 0\n[fibre 0]\nphi1 = x\nphi2 = y^2\ngamma = zeta(0, 0)\n")
        code, out, err = run_cli("image", str(f), f"zeta({'7' * 2300}, 1)", "2")
        assert code == EXIT_UNDECIDED == 6 and out == ""
        assert err == "error: a number to be printed has too many decimal digits\n"

    def test_a_definition_file_that_is_not_utf8_exits_2_on_one_line(self, tmp_path):
        f = tmp_path / "latin.skew"
        f.write_bytes(b"period 1\n[fibre 0]\nphi1 = x\nphi2 = y^2 \xff\n")
        code, out, err = run_cli("check-smooth", str(f))
        assert code == 2 and out == ""
        assert err == f"error: {f}: not UTF-8 text (byte 0xff at offset 39)\n"

    def test_an_unexpected_exception_exits_5_on_one_line(self, monkeypatch):
        def boom(args):
            raise ValueError("unexpected\nsecond line")

        monkeypatch.setattr("skewstab.cli.cmd_image", boom)
        code, out, err = run_cli("image", "thm6", "zeta(0, 1)", "2")
        assert code == EXIT_INTERNAL == 5
        assert out == ""
        assert err == "internal error: ValueError: unexpected second line\n"


class TestDemo:
    def test_demo_thm6_all_pass(self):
        code, out, _ = run_cli("demo", "thm6")
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith("PASS ") for line in lines[:-1])
        assert lines[-1] == "demo thm6: 7/7 checks passed"
        assert any("breakpoint at t = 2/3" in line for line in lines)
        assert any("t = 4/5 with multiplier of modulus 3/2" in line for line in lines)
        assert any("1, 1/2, 3/4, 7/8, 11/16" in line for line in lines)

    def test_demo_thmB_all_pass(self):
        code, out, _ = run_cli("demo", "thmB")
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith("PASS ") for line in lines[:-1])
        assert lines[-1] == "demo thmB: 5/5 checks passed"
        assert any("critical points 0, 2/3 and infinity" in line for line in lines)
        assert any("maps to zeta(0, 1) over 0" in line for line in lines)
        assert any("(2 + 2*y^6) / y^3" in line for line in lines)

    def test_unknown_demo_exits_2(self):
        code, _, err = run_cli("demo", "bogus")
        assert code == 2
        assert "unknown demo" in err


class TestFlags:
    COMMON = {"--precision", "--horizon", "--max-rounds", "--probe-budget", "--out"}

    def test_each_subcommand_declares_the_common_flags_it_reads(self):
        listing = {"--precision", "--out"}
        stabilize = {"--precision", "--horizon", "--max-rounds", "--probe-budget", "--out"}
        want = {
            "image": listing,
            "hull": listing,
            "smooth-hull": listing,
            "check-smooth": listing,
            "domains": listing,
            "dual-graph": listing,
            "check-stability": {"--precision", "--horizon", "--probe-budget", "--out"},
            "min-stabilize": stabilize,
            "stabilize": stabilize,
            "demo": {"--horizon", "--probe-budget", "--out"},
        }
        (sub,) = [a for a in _build_parser()._actions if a.dest == "command"]
        got = {
            name: {o for a in sp._actions for o in a.option_strings} & self.COMMON
            for name, sp in sub.choices.items()
        }
        assert got == want
        assert sum(len(flags) for flags in got.values()) == 29

    @pytest.mark.parametrize(
        "argv",
        [
            ("hull", "thm6", "--horizon", "5"),
            ("smooth-hull", "thm6", "--max-rounds", "5"),
            ("dual-graph", "thm6", "--format", "dot"),
            ("check-stability", "thm6", "--format", "structured"),
            ("stabilize", "xy2", "--format", "text"),
            ("demo", "thm6", "--precision", "8"),
            ("image", "thm6", "zeta(0,1)", "2", "--format", "dot"),
            ("hull", "thm6", "--format", "structured"),
            ("min-stabilize", "thm6", "--format", "structured"),
        ],
    )
    def test_a_flag_the_command_does_not_read_exits_2(self, argv):
        code, out, err = run_cli(*argv)
        assert code == 2 and out == ""
        first = next(i for i, a in enumerate(argv) if a.startswith("--"))
        assert f"unrecognized arguments: {' '.join(argv[first:])}" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("check-stability", "thm6", "--horizon", "0"), "--horizon must be >= 1"),
            (("min-stabilize", "thm6", "--max-rounds", "0"), "--max-rounds must be >= 1"),
            (("stabilize", "xy2", "--probe-budget", "-1"), "--probe-budget must be >= 1"),
            (("demo", "thm6", "--horizon", "0"), "--horizon must be >= 1"),
            (
                ("hull", "--points", "zeta(0,1/3)", "-n", "2"),
                "--level 2 is below g = 3 of zeta(0, 1/3)",
            ),
            (
                ("smooth-hull", "thm6", "--points", "zeta(0,1/3)", "-n", "2"),
                "--level 2 is below g = 3 of zeta(0, 1/3)",
            ),
            (("image", "thm6", "zeta(0, 1)", "3", "--fibre", "5"), "fibre 5 out of range (size 1)"),
            (("hull", "thm6", "--fibre", "5"), "fibre 5 out of range (size 1)"),
            (("image", "thm6", "zeta(0, 1)", "0"), "steps must be >= 1"),
            (("check-stability", "thm6", "--precision", "0"), "--precision must be >= 1"),
            (("hull", "thm6", "--precision", "-2"), "--precision must be >= 1"),
            (("hull", "--points", "zeta(0, 1/3)", "--fibre", "5"), "--fibre needs a definition file"),
        ],
    )
    def test_an_out_of_range_setting_is_a_usage_error(self, argv, message):
        code, out, err = run_cli(*argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


COMMANDS = (
    "image", "hull", "smooth-hull", "check-smooth", "domains", "dual-graph",
    "check-stability", "min-stabilize", "stabilize", "demo",
)


class TestFrontEnd:
    """`main` reads a command's arguments with that command's own parser;
    every argv gives what the full parser gives."""

    @pytest.mark.parametrize(
        "argv",
        [[name, "-h"] for name in COMMANDS]
        + [
            ["-h"],
            [],
            ["nothere", "thm6"],
            ["stabilize", "thm6", "--foo"],
            ["--foo", "stabilize", "thm6"],
            ["image", "thm6", "zeta(0, 1)", "x"],
            ["image", "thm6"],
            ["check-smooth", "thm6", "--prec", "8"],
            ["image", "thm6", "zeta(0, 1)", "5"],
            ["hull", "thm6"],
            ["smooth-hull", "thm6"],
            ["check-smooth", "thm6"],
            ["domains", "thm6"],
            ["dual-graph", "thm6"],
            ["check-stability", "thm6"],
            ["min-stabilize", "goodred"],
            ["stabilize", "xy2"],
            ["demo", "thm6"],
        ],
    )
    def test_main_answers_as_the_full_parser(self, argv, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        got = run_cli(*argv)
        monkeypatch.setattr("skewstab.cli._parse", lambda argv: _build_parser().parse_args(argv))
        assert got == run_cli(*argv)


class TestOutputPlumbing:
    def test_out_flag_writes_file(self, tmp_path):
        target = tmp_path / "orbit.txt"
        code, out, _ = run_cli("image", "thm6", "zeta(0,1)", "5", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text() == THM6_ORBIT

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_an_out_file_that_cannot_be_written_exits_2_on_one_line(self, tmp_path, where):
        target = tmp_path / "missing" / "orbit.txt" if where == "missing directory" else tmp_path
        code, out, err = run_cli("image", "thm6", "zeta(0,1)", "2", "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write --out {target}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_console_entry_point_importable(self):
        from skewstab import cli

        assert callable(cli.main)


# -- golden runs ---------------------------------------------------------------
#
# stdout, stderr and exit code of these runs, pinned byte for byte in
# cli_golden.json.  Paths are relative to the repository root.  After an
# intended output change, regenerate the file with
#   PYTHONPATH=src python tests/test_cli.py

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("cli_golden.json")
GOLDEN_RUNS = [
    ["check-stability", "thm6"],
    ["check-stability", "thmB"],
    ["check-stability", "xy2"],
    ["check-stability", "goodred"],
    ["check-stability", "bench/data/thm6_level24.skew"],
    # the repro maps of tests/data, each file's first line saying what it
    # reproduces; OPEN_RUNS below lists the runs on them that do not end
    *(
        ["check-stability", f"tests/data/{m}.skew"]
        for m in ("sq", "x3", "deep", "ram", "w1", "w2", "w3", "p2")
    ),
    ["demo", "thm6"],
    ["demo", "thmB"],
    ["min-stabilize", "thm6"],
    ["min-stabilize", "thmB"],
    # the first blow-up makes the missing junction zeta(1, 1), and every
    # later one hangs a new leaf off that non-vertex node
    ["min-stabilize", "tests/data/w3.skew"],
    *(["min-stabilize", f"tests/data/{m}.skew"] for m in ("sq", "x3", "deep", "ram", "p2")),
    ["stabilize", "xy2"],
    ["stabilize", "goodred"],
    ["stabilize", "thm6", "--max-rounds", "2"],
    ["stabilize", "thm6"],
    *(["stabilize", f"tests/data/{m}.skew"] for m in ("x3", "w3", "p2")),
    ["image", "thm6", "zeta(0,3/5)", "40"],
    ["image", "thmB", "zeta(2*x^(3/4),2)", "6"],
    # a two-term centre, shifted by both thmB germs: it crosses from fibre
    # 0 to fibre 1
    ["image", "thmB", "zeta(x^(-3/2)-3*x^(-1/2),1)", "6"],
    # centres carried through monomial germs: thm6's x^2, p2's -x (from
    # fibre to fibre) and x3's x^3
    ["image", "thm6", "zeta(x^(1/3)-2*x^(-1/2),2)", "6"],
    ["image", "tests/data/p2.skew", "zeta(x^(1/3),2)", "6"],
    ["image", "tests/data/x3.skew", "zeta(x^(2/3)+x,2)", "3"],
    ["hull", "thm6"],
    ["smooth-hull", "thm6"],
    ["smooth-hull", "thm6", "-n", "12", "--points", "zeta(x^(1/3),5/4),zeta(1+x^(3/4),2)"],
    # the lattice scan on pieces of multiplicity 1, 3 and 6, and its
    # emptiness test with two interior-vertex witnesses, one on a cut piece
    ["smooth-hull", "thm6", "-n", "24", "--points", "zeta(x^(1/3)+x^(5/6),2),zeta(x^(-1/2),1)"],
    ["check-smooth", "thm6", "--points", "zeta(0,3),zeta(x^(1/3)+x^(5/6),2),zeta(x^(-1/2),1)"],
    # 180 clean annuli, each decided by one Farey determinant; then three
    # points added on and off its edges, whose interior-vertex witnesses
    # fall on pieces of multiplicity 1, 3 and 6 (the last on a cut piece)
    ["check-smooth", "bench/data/thm6_level24.skew"],
    [
        "check-smooth",
        "bench/data/thm6_level24.skew",
        "--points",
        "zeta(0,1/50),zeta(2*x^(1/3),1),zeta(x^(1/6)+x^(1/2),2)",
    ],
    ["check-smooth", "thm6"],
    ["domains", "thm6"],
    ["dual-graph", "thm6"],
]


# Runs on the repro maps that do not end under default flags (or, for
# `stabilize deep`, end far past the tier-1 budget).  They are open work,
# not golden runs: nothing here is run, and a fix moves its row into
# GOLDEN_RUNS.
OPEN_RUNS = {
    ("stabilize", "sq"): "the folding-locus seed zeta(0, 3) walks centres c*x^(1/2), c -> c^2 + 1",
    ("stabilize", "deep"): "ends with 100,021 vertices after about 7 s on a 2-core host",
    ("stabilize", "ram"): "does not end in 15 s",
    ("stabilize", "w1"): "the residue orbit c -> c^2 + 1 of zeta(0, 1) never cycles",
    ("stabilize", "w2"): "the residue orbit c -> c^2 + 1 of zeta(3, 1) never cycles",
    ("min-stabilize", "w1"): "each round adds the next point of the orbit c -> c^2 + 1",
    ("min-stabilize", "w2"): "each round adds the next point of the orbit c -> c^2 + 1",
    ("check-stability", "cub"): "the probe orbits' centre heights roughly triple at each step",
    ("stabilize", "cub"): "does not end in 30 s",
    ("min-stabilize", "cub"): "does not end in 30 s",
}


def test_every_repro_run_is_golden_or_open():
    maps = sorted(p.stem for p in (ROOT / "tests" / "data").glob("*.skew"))
    assert maps == ["cub", "deep", "p2", "ram", "sq", "w1", "w2", "w3", "x3"]
    golden = {
        (argv[0], Path(argv[1]).stem)
        for argv in GOLDEN_RUNS
        if len(argv) == 2 and argv[1].startswith("tests/data/")
    }
    assert not golden & OPEN_RUNS.keys()
    for cmd in ("check-stability", "stabilize", "min-stabilize"):
        for m in maps:
            assert (cmd, m) in golden or (cmd, m) in OPEN_RUNS, (cmd, m)


def golden_record(argv):
    code, out, err = run_cli(*argv)
    return {"argv": argv, "code": code, "stdout": out, "stderr": err}


def test_golden_runs_are_byte_identical(monkeypatch):
    monkeypatch.chdir(ROOT)
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [w["argv"] for w in want] == GOLDEN_RUNS
    for w in want:
        assert golden_record(w["argv"]) == w, " ".join(w["argv"])


def test_python_dash_m_runs_the_cli_from_a_source_checkout():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    res = subprocess.run(
        [sys.executable, "-m", "skewstab", "check-smooth", "thm6"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert (res.returncode, res.stdout, res.stderr) == (0, "smooth: yes\n", "")


if __name__ == "__main__":
    os.chdir(ROOT)
    records = [golden_record(argv) for argv in GOLDEN_RUNS]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
