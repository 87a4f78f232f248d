"""CLI: golden reports, exit codes, determinism."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tightrep
from tightrep import cli
from tightrep.cli import main
from tightrep import parse

from test_structfile import COUNTEREXAMPLE


@pytest.fixture
def counterexample_path(tmp_path):
    path = tmp_path / "counterexample.struct"
    path.write_text(COUNTEREXAMPLE, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CHECK_FULL_GOLDEN = """\
rep: pi
view: full
cover_to_join: pass
tight: fail
witness_X: {}
witness_Y: {}
witness_Z: {1}
nondegenerate: fail
witness_a: 2
"""

CHECK_TIGHTENED_GOLDEN = """\
rep: pi
view: tightened
cover_to_join: pass
tight: pass
nondegenerate: pass
"""

TIGHTENED_FILE_GOLDEN = """\
@semilattice E
elements: 0 1
zero: 0
meet:
0 0
0 1

@algebra B_tightened
elements: 0 1
zero: 0
meet:
0 0
0 1
join:
0 1
1 1

@representation pi_tightened
domain: E
codomain: B_tightened
map:
0 -> 0
1 -> 1
"""

SEARCH_GAP_GOLDEN = """\
gap: 1
semilattice: size=2 meet=[0 0 | 0 1]
algebra: P(2)
map: 0->0 1->1
witness_X: {}
witness_Y: {}
witness_Z: {1}

gap: 2
semilattice: size=2 meet=[0 0 | 0 1]
algebra: P(2)
map: 0->0 1->2
witness_X: {}
witness_Y: {}
witness_Z: {1}

found: 2
"""

ENUMERATE_GOLDEN = """\
@semilattice S2_1
elements: 0 1
zero: 0
meet:
0 0
0 1

# count: 1
"""


def test_validate_ok(capsys, counterexample_path):
    code, out, err = run(capsys, "validate", counterexample_path)
    assert code == 0
    assert out == "ok: 3 structures\n"
    assert err == ""


def test_validate_rejects_broken_tables(capsys, tmp_path):
    path = tmp_path / "bad.struct"
    path.write_text(
        "@semilattice E\nelements: 0 a b\nzero: 0\nmeet:\n"
        "0 0 0\n0 a a\n0 b b\n", encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1
    assert "not commutative at (a, b)" in err


def test_validate_rejects_empty_files(capsys, tmp_path):
    path = tmp_path / "empty.struct"
    path.write_text("# nothing here\n", encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1
    assert "no structures" in err


def test_check_full_golden(capsys, counterexample_path):
    code, out, err = run(capsys, "check", counterexample_path,
                         "--rep", "pi", "--view", "full")
    assert code == 0
    assert out == CHECK_FULL_GOLDEN


def test_check_tightened_golden(capsys, counterexample_path):
    code, out, err = run(capsys, "check", counterexample_path,
                         "--rep", "pi", "--view", "tightened")
    assert code == 0
    assert out == CHECK_TIGHTENED_GOLDEN


def test_check_generated_ideal_view(capsys, counterexample_path):
    code, out, err = run(capsys, "check", counterexample_path,
                         "--rep", "pi", "--view", "generated-ideal")
    assert code == 0
    # the generated ideal below the atom equals the tightening corner here
    assert "tight: pass" in out
    assert "nondegenerate: pass" in out


def test_check_is_byte_identical_across_runs(capsys, counterexample_path):
    _, first, _ = run(capsys, "check", counterexample_path, "--rep", "pi")
    _, second, _ = run(capsys, "check", counterexample_path, "--rep", "pi")
    assert first == second == CHECK_FULL_GOLDEN


def test_check_unknown_name(capsys, counterexample_path):
    code, out, err = run(capsys, "check", counterexample_path, "--rep", "nope")
    assert code == 1
    assert "unknown structure 'nope'" in err


def test_check_wrong_kind(capsys, counterexample_path):
    code, out, err = run(capsys, "check", counterexample_path, "--rep", "E")
    assert code == 1
    assert "need a representation or homomorphism" in err


def test_tighten_writes_the_corner_file(capsys, counterexample_path, tmp_path):
    out_path = tmp_path / "out.struct"
    code, out, err = run(capsys, "tighten", counterexample_path,
                         "--rep", "pi", "--out", str(out_path))
    assert code == 0
    assert out.splitlines()[0] == "unit: 1"
    assert out_path.read_text(encoding="utf-8") == TIGHTENED_FILE_GOLDEN

    code, out, err = run(capsys, "check", str(out_path),
                         "--rep", "pi_tightened", "--view", "full")
    assert code == 0
    assert "tight: pass" in out


def test_tighten_rejects_non_cover_to_join(capsys, tmp_path):
    text = """\
@semilattice D
elements: 0 a b 1
zero: 0
meet:
0 0 0 0
0 a 0 a
0 0 b b
0 a b 1

@algebra B
elements: 0 1 2 3 12 13 23 123
zero: 0
meet:
0 0 0 0 0 0 0 0
0 1 0 0 1 1 0 1
0 0 2 0 2 0 2 2
0 0 0 3 0 3 3 3
0 1 2 0 12 1 2 12
0 1 0 3 1 13 3 13
0 0 2 3 2 3 23 23
0 1 2 3 12 13 23 123
join:
0 1 2 3 12 13 23 123
1 1 12 13 12 13 123 123
2 12 2 23 12 123 23 123
3 13 23 3 123 13 23 123
12 12 12 123 12 123 123 123
13 13 123 13 123 13 123 123
23 123 23 23 123 123 23 123
123 123 123 123 123 123 123 123

@representation rho
domain: D
codomain: B
map:
0 -> 0
a -> 1
b -> 2
1 -> 123
"""
    path = tmp_path / "diamond.struct"
    path.write_text(text, encoding="utf-8")
    out_path = tmp_path / "out.struct"
    code, out, err = run(capsys, "tighten", str(path),
                         "--rep", "rho", "--out", str(out_path))
    assert code == 1
    assert "not cover-to-join" in err
    assert "{a, b}" in err
    assert not out_path.exists()


def test_check_tightened_view_needs_cover_to_join(capsys, tmp_path):
    # view construction fails on a representation without the hypothesis
    diamond_file = tmp_path / "d.struct"
    diamond_file.write_text(
        "@semilattice D\nelements: 0 a b 1\nzero: 0\nmeet:\n"
        "0 0 0 0\n0 a 0 a\n0 0 b b\n0 a b 1\n\n"
        "@algebra B\nelements: 0 1 2 12\nzero: 0\nmeet:\n"
        "0 0 0 0\n0 1 0 1\n0 0 2 2\n0 1 2 12\njoin:\n"
        "0 1 2 12\n1 1 12 12\n2 12 2 12\n12 12 12 12\n\n"
        "@representation rho\ndomain: D\ncodomain: B\nmap:\n"
        "0 -> 0\na -> 0\nb -> 0\n1 -> 12\n", encoding="utf-8")
    code, out, err = run(capsys, "check", str(diamond_file),
                         "--rep", "rho", "--view", "tightened")
    assert code == 1
    assert "not cover-to-join" in err


@pytest.fixture
def hom_path(tmp_path):
    """A file whose homomorphism phi, the two-chain into I2, is cover-to-join."""
    from tightrep.structfile import Block, StructureFile, render
    from tightrep import ISHomomorphism
    from conftest import make_chain2, make_i2, semigroup_from_semilattice

    chain2 = semigroup_from_semilattice(make_chain2())
    i2 = make_i2()
    hom = ISHomomorphism(chain2, i2, {"0": "z", "1": "e1"})
    sf = StructureFile([
        Block("inverse_semigroup", "S", 0, chain2, {}),
        Block("inverse_semigroup", "T", 0, i2, {}),
        Block("homomorphism", "phi", 0, hom, {"domain": "S", "codomain": "T"}),
    ])
    path = tmp_path / "hom.struct"
    path.write_text(render(sf), encoding="utf-8")
    return path


def test_tighten_homomorphism_block(capsys, tmp_path, hom_path):
    path = hom_path
    code, out, err = run(capsys, "check", str(path), "--rep", "phi")
    assert code == 0
    assert "cover_to_join: pass" in out
    assert "tight: fail" in out

    out_path = tmp_path / "corner.struct"
    code, out, err = run(capsys, "tighten", str(path),
                         "--rep", "phi", "--out", str(out_path))
    assert code == 0
    assert out.splitlines()[0] == "unit: e1"
    corner_file = parse(out_path.read_text(encoding="utf-8"))
    assert corner_file["T_tightened"].structure.elements == ("z", "e1")

    code, out, err = run(capsys, "check", str(out_path), "--rep", "phi_tightened")
    assert code == 0
    assert "tight: pass" in out


BREACH_SCRIPT = """\
import dataclasses, sys
from tightrep import cli, inverse_semigroups
from tightrep.representations import Verdict

if not sys.flags.optimize:
    sys.exit(99)
real = inverse_semigroups.check_homomorphism_tightness

def not_tight(hom):
    return dataclasses.replace(real(hom), tight=Verdict(False))

inverse_semigroups.check_homomorphism_tightness = not_tight
sys.exit(cli.main(sys.argv[1:]))
"""


def test_invariant_breach_exits_2_under_optimize(tmp_path, hom_path):
    # python -O strips assert statements; the invariant checks must survive
    src = Path(tightrep.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-O", "-c", BREACH_SCRIPT, "tighten", str(hom_path),
         "--rep", "phi", "--out", str(tmp_path / "corner.struct")],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == ("internal invariant breach: "
                           "corestriction to the corner is not tight\n")
    assert not (tmp_path / "corner.struct").exists()


def test_enumerate_golden(capsys):
    code, out, err = run(capsys, "enumerate", "--size", "2")
    assert code == 0
    assert out == ENUMERATE_GOLDEN


def test_enumerate_up_to_iso(capsys):
    code, out, err = run(capsys, "enumerate", "--size", "3", "--up-to-iso")
    assert code == 0
    assert out.rstrip().endswith("# count: 2")
    # emitted blocks parse back as a valid structure file
    blocks = parse(out)
    assert len(blocks) == 2


# sha256 of the full stdout: pruning and the early-exit isomorphism
# filter must leave the stream and its order as they are
ENUMERATE_SIZE6_DIGESTS = [
    ((), "# count: 3761",
     "82967ba6658a9d23f39e65f79664cca3564b093d5592f93a5e29b7eb865ff7c6"),
    (("--up-to-iso",), "# count: 53",
     "7b23b9795d50cd6de8ff780b712f06dc20816fc5d66839de517c995edabd6710"),
]


@pytest.mark.parametrize("flags, last_line, digest", ENUMERATE_SIZE6_DIGESTS)
def test_enumerate_size6_golden_digests(capsys, flags, last_line, digest):
    code, out, err = run(capsys, "enumerate", "--size", "6", *flags)
    assert code == 0
    assert out.splitlines()[-1] == last_line
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_search_gap_golden_and_determinism(capsys):
    code, first, err = run(capsys, "search-gap", "--max-e", "2", "--atoms", "2")
    assert code == 0
    assert first == SEARCH_GAP_GOLDEN
    _, second, _ = run(capsys, "search-gap", "--max-e", "2", "--atoms", "2")
    assert first == second


def test_search_gap_empty(capsys):
    code, out, err = run(capsys, "search-gap", "--max-e", "2", "--atoms", "1")
    assert code == 0
    assert out == "found: 0\n"


def test_verify_golden_and_determinism(capsys):
    code, first, err = run(capsys, "verify", "--max-e", "3", "--atoms", "2")
    assert code == 0
    assert first == ("semilattices: 5\nalgebras: 1\nrepresentations: 32\n"
                     "checks: 1222\nviolations: 0\n")
    _, second, _ = run(capsys, "verify", "--max-e", "3", "--atoms", "2")
    assert first == second


# sha256 of the full stdout of each run
WIDER_SEARCH_GAP_DIGESTS = [
    (("--max-e", "4", "--atoms", "2"), "found: 70",
     "1e60bbe3540bd14c8219088ba07ab4a5e6687605d512998a08f0926747620c0c"),
    (("--max-e", "4", "--atoms", "3", "--up-to-iso"), "found: 114",
     "023c8b073322617e8bdc158b2cf61d3a3ac645c7c595d08c97d0d63ca91dd655"),
]


@pytest.mark.parametrize("flags, last_line, digest", WIDER_SEARCH_GAP_DIGESTS)
def test_search_gap_wider_golden_digests(capsys, flags, last_line, digest):
    code, out, err = run(capsys, "search-gap", *flags)
    assert code == 0
    assert out.splitlines()[-1] == last_line
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_verify_wider_golden(capsys):
    code, out, err = run(capsys, "verify", "--max-e", "4", "--atoms", "3",
                         "--up-to-iso")
    assert code == 0
    assert out == ("semilattices: 9\nalgebras: 1\nrepresentations: 383\n"
                   "checks: 20274\nviolations: 0\n")


# the frontier runs the benchmark checks, pinned here as well: verify
# counts and the sha256 of a labeled search-gap stream
FRONTIER_VERIFY_GOLDEN = [
    (("--max-e", "5", "--atoms", "3"), (24, 2258, 185877)),
    (("--max-e", "6", "--atoms", "2"), (77, 2386, 523720)),
]


@pytest.mark.parametrize("flags, counts", FRONTIER_VERIFY_GOLDEN)
def test_verify_frontier_golden(capsys, flags, counts):
    code, out, err = run(capsys, "verify", *flags, "--up-to-iso")
    assert code == 0
    semilattices, representations, checks = counts
    assert out == (f"semilattices: {semilattices}\nalgebras: 1\n"
                   f"representations: {representations}\n"
                   f"checks: {checks}\nviolations: 0\n")


def test_search_gap_frontier_golden_digest(capsys):
    code, out, err = run(capsys, "search-gap", "--max-e", "5", "--atoms", "2")
    assert code == 0
    assert out.splitlines()[-1] == "found: 830"
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        "059b9c1de4337b870377363ed90c43bb59d73739c5e989e9982b80b3a8367418"


def test_verify_refuses_too_many_atoms_before_building(capsys):
    code, out, err = run(capsys, "verify", "--max-e", "1", "--atoms", "9")
    assert code == 1
    assert out == ""
    assert err == "error: atom counts must be at most 8\n"


@pytest.mark.parametrize("argv, message", [
    (("enumerate", "--size", "8"),
     "semilattice size must be at most 7 (8 up to isomorphism)"),
    (("enumerate", "--size", "9", "--up-to-iso"),
     "semilattice size must be at most 8 up to isomorphism"),
    (("verify", "--max-e", "8", "--atoms", "1"),
     "semilattice size must be at most 7 (8 up to isomorphism)"),
    (("search-gap", "--max-e", "9", "--atoms", "1", "--up-to-iso"),
     "semilattice size must be at most 8 up to isomorphism"),
])
def test_semilattice_sizes_past_the_bounds_exit_1(no_generation, capsys,
                                                  argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_verify_accepts_repeated_atoms(capsys):
    code, out, err = run(capsys, "verify", "--max-e", "2",
                         "--atoms", "1", "--atoms", "2")
    assert code == 0
    assert "violations: 0" in out


def test_bad_flags_exit_with_input_error(capsys):
    code, out, err = run(capsys, "check", "nowhere.struct", "--rep", "x",
                         "--view", "sideways")
    assert code == 1
    code, out, err = run(capsys, "enumerate", "--size", "two")
    assert code == 1


def test_missing_file_is_an_input_error(capsys):
    code, out, err = run(capsys, "validate", "/does/not/exist.struct")
    assert code == 1
    assert "error:" in err


def test_non_utf8_file_is_a_located_input_error(tmp_path):
    # a bad byte must end in exit 1 and a message naming its line, not in
    # a decoding traceback
    path = tmp_path / "latin1.struct"
    path.write_bytes(b"@semilattice E\nelements: 0 \xe9\nzero: 0\n")
    src = Path(tightrep.__file__).resolve().parent.parent
    for argv in (["validate", str(path)],
                 ["check", str(path), "--rep", "E"],
                 ["tighten", str(path), "--rep", "E",
                  "--out", str(tmp_path / "out.struct")]):
        proc = subprocess.run(
            [sys.executable, "-m", "tightrep.cli", *argv],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(src)))
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr == ("error: line 2: not valid UTF-8 "
                               "(byte 0xe9 at offset 27)\n")
    assert not (tmp_path / "out.struct").exists()


def test_invalid_spec_values(capsys):
    code, out, err = run(capsys, "search-gap", "--max-e", "0", "--atoms", "2")
    assert code == 1
    assert "at least 1" in err


def test_successive_calls_match_fresh_processes(capsys):
    # the parser is built once per process; no appended list, flag or
    # default may leak from one call into the next
    cli._parser.cache_clear()
    src = Path(tightrep.__file__).resolve().parent.parent
    calls = [
        ["verify", "--max-e", "3", "--atoms", "2"],
        ["verify", "--max-e", "3", "--atoms", "3"],
        ["search-gap", "--max-e", "3", "--atoms", "2", "--up-to-iso"],
        ["search-gap", "--max-e", "3", "--atoms", "2"],
        ["enumerate", "--size", "4", "--up-to-iso"],
        ["enumerate", "--size", "4"],
        ["verify", "--max-e", "2"],
        ["verify", "--max-e", "2", "--atoms", "1"],
    ]
    for argv in calls:
        got = run(capsys, *argv)
        proc = subprocess.run(
            [sys.executable, "-m", "tightrep.cli", *argv],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(src)))
        assert got == (proc.returncode, proc.stdout, proc.stderr), argv
    assert run(capsys, "verify", "--max-e", "2")[0] == 1
    assert cli._parser.cache_info().misses == 1
