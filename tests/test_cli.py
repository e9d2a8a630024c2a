"""Tests for the qassert command-line interface."""

import json

import pytest

from qassert import parse
from qassert.cli import main
from make_report_golden import FIXTURE as REPORT_FIXTURE, ROOT, digest, run_cli

BELL_SOURCE = """\
qubits 2
h 0
cnot 0 1
assert_entangled 0 1 parity 0 label ent
measure 0 -> m0
measure 1 -> m1
"""


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.qac"
    path.write_text(BELL_SOURCE)
    return str(path)


@pytest.fixture
def broken_file(tmp_path):
    path = tmp_path / "broken.qac"
    path.write_text("qubits 1\ncnot 0 0\n")
    return str(path)


class TestCheck:
    def test_ok(self, bell_file, capsys):
        assert main(["check", bell_file]) == 0
        out = capsys.readouterr().out
        assert "2 qubits" in out and "1 assertions" in out

    def test_parse_error_format_and_exit_code(self, broken_file, capsys):
        assert main(["check", broken_file]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{broken_file}:2:8: ")
        assert "distinct" in err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "nope.qac")]) == 1
        assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, options",
    [("check", []), ("lower", []), ("run", ["--shots", "10", "--seed", "1"])],
)
def test_non_utf8_file_names_its_path(tmp_path, capsys, command, options):
    path = tmp_path / "latin1.qac"
    path.write_bytes(b"qubits 1\nmeasure 0 -> m\xff\n")
    assert main([command, str(path), *options]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"qassert: cannot read {path}: not UTF-8 text (")
    assert "0xff" in err


def test_byte_order_mark_is_skipped(tmp_path, capsys, bell_file):
    path = tmp_path / "bom.qac"
    path.write_bytes(b"\xef\xbb\xbf" + BELL_SOURCE.encode())
    for command, options in [("check", []), ("run", ["--shots", "10", "--seed", "1"])]:
        assert main([command, str(path), *options]) == 0
    capsys.readouterr()
    assert main(["lower", bell_file]) == 0
    plain = capsys.readouterr().out
    assert main(["lower", str(path)]) == 0
    assert capsys.readouterr().out == plain


class TestLower:
    def test_output_reparses_to_lowered_circuit(self, bell_file, capsys):
        assert main(["lower", bell_file]) == 0
        out = capsys.readouterr().out
        circuit = parse(out)
        assert circuit.num_qubits == 3
        assert "__assert_ent" in circuit.creg_names


class TestRun:
    def test_table_output(self, bell_file, capsys):
        assert main(["run", bell_file, "--shots", "200", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "shots: 200" in out
        assert "ent: 0" in out

    def test_json_deterministic_bytes(self, bell_file, capsys):
        argv = ["run", bell_file, "--shots", "300", "--seed", "9",
                "--format", "json", "--expect", "00", "--expect", "11",
                "--filtered"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["total_shots"] == 300
        assert doc["filter"]["raw_error_rate"] == 0.0

    def test_repeated_expect_listed_once(self, bell_file, capsys):
        argv = ["run", bell_file, "--shots", "50", "--seed", "2",
                "--format", "json", "--filtered", "--expect", "11"]
        assert main(argv) == 0
        single = capsys.readouterr().out
        assert main([*argv, "--expect", "11"]) == 0
        assert capsys.readouterr().out == single
        assert json.loads(single)["expected"] == ["11"]

    def test_noise_flags(self, bell_file, capsys):
        assert main([
            "run", bell_file, "--shots", "500", "--seed", "3",
            "--noise-gate-p", "0.05", "--expect", "00", "--expect", "11",
            "--filtered",
        ]) == 0
        out = capsys.readouterr().out
        assert "post-selection filter" in out

    def test_filtered_requires_expect(self, bell_file, capsys):
        assert main(["run", bell_file, "--shots", "10", "--seed", "0",
                     "--filtered"]) == 1
        assert "--expect" in capsys.readouterr().err

    def test_expect_length_validated(self, bell_file, capsys):
        assert main(["run", bell_file, "--shots", "10", "--seed", "0",
                     "--expect", "000"]) == 1
        assert "data creg" in capsys.readouterr().err

    def test_expect_charset_validated(self, bell_file, capsys):
        assert main(["run", bell_file, "--shots", "10", "--seed", "0",
                     "--expect", "2x"]) == 1

    def test_missing_required_flags(self, bell_file, capsys):
        assert main(["run", bell_file]) == 1

    def test_bad_noise_probability(self, bell_file, capsys):
        assert main(["run", bell_file, "--shots", "10", "--seed", "0",
                     "--noise-gate-p", "1.5"]) == 1
        assert "gate_flip_p" in capsys.readouterr().err

    def test_depolarizing_requires_gate_p(self, bell_file, capsys):
        assert main(["run", bell_file, "--shots", "10", "--seed", "0",
                     "--depolarizing"]) == 1
        assert "--depolarizing requires --noise-gate-p" in capsys.readouterr().err

    def test_report_golden(self, monkeypatch):
        # The run reports were recorded while RunStatistics still stored its
        # fail counts; every report, and every lowered corpus file, must
        # still come out byte for byte as it did then.
        monkeypatch.chdir(ROOT)
        cases = json.loads(REPORT_FIXTURE.read_text(encoding="utf-8"))
        assert len(cases) == 252
        for case in cases:
            code, out = run_cli(case["argv"])
            assert (code, digest(out)) == (case["exit"], case["sha256"]), (
                f"qassert {' '.join(case['argv'])} printed:\n{out}"
            )

    def test_readme_filter_numbers(self, monkeypatch, capsys):
        # The README's Bell example must print the filter lines it quotes.
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        quoted = readme.split("post-selection filter:\n", 1)[1].split("```", 1)[0]
        assert quoted.splitlines() == [
            "  raw error rate:      7.504%",
            "  filtered error rate: 4.072%",
            "  relative reduction:  45.73%",
            "  kept fraction:       92.56%",
        ]
        monkeypatch.chdir(ROOT)
        assert main(["run", "tests/corpus/bell_entangled.qac", "--shots", "100000",
                     "--seed", "7", "--noise-gate-p", "0.02",
                     "--expect", "00", "--expect", "11", "--filtered"]) == 0
        out = capsys.readouterr().out
        assert "post-selection filter:\n" + quoted in out

    def test_ancillas_past_max_qubits(self, tmp_path, capsys):
        path = tmp_path / "wide.qac"
        path.write_text("qubits 24\nh 0\nassert_superposition 0 label sp\n")
        assert main(["run", str(path), "--shots", "10", "--seed", "0"]) == 1
        err = capsys.readouterr().err
        assert "24 declared qubits plus 1 assertion ancilla(s) come to 25" in err


# Every failure path of a command: (arguments, the circuit file's bytes or
# None for no file, its one stderr line).  "{path}" stands for the file.
_RUN = ("run", "{path}", "--shots", "1", "--seed", "1")
_BELL = BELL_SOURCE.encode()
FAILURES = {
    "missing-file": (
        ("check", "{path}"), None,
        "qassert: cannot read {path}: [Errno 2] No such file or directory: '{path}'"),
    "not-utf8": (
        ("lower", "{path}"), b"qubits 1\nmeasure 0 -> m\xff\n",
        "qassert: cannot read {path}: not UTF-8 text ('utf-8' codec can't decode "
        "byte 0xff in position 23: invalid start byte)"),
    **{f"parse-error-{command[0]}": (
        command, b"qubits 1\ncnot 0 0\n",
        "{path}:2:8: cnot operands must be distinct: (0, 0)")
       for command in (("check", "{path}"), ("lower", "{path}"), _RUN)},
    "expect-not-a-bitstring": (
        (*_RUN, "--expect", "2x"), _BELL,
        "qassert: --expect '2x' must be a bitstring over the 2 data creg(s) m0 m1"),
    "filtered-without-expect": (
        (*_RUN, "--filtered"), _BELL,
        "qassert: --filtered requires at least one --expect"),
    "depolarizing-without-gate-p": (
        (*_RUN, "--depolarizing"), _BELL,
        "qassert: --depolarizing requires --noise-gate-p: it chooses which Pauli "
        "a gate error applies, not how often errors occur"),
    "gate-p-above-one": (
        (*_RUN, "--noise-gate-p", "1.5"), _BELL,
        "qassert: gate_flip_p must be in [0, 1], got 1.5"),
    "ancillas-past-max-qubits": (
        _RUN, b"qubits 24\nh 0\nassert_superposition 0 label sp\n",
        "qassert: 24 declared qubits plus 1 assertion ancilla(s) come to 25, "
        "over MAX_QUBITS (24)"),
}


@pytest.mark.parametrize("argv, source, line", FAILURES.values(), ids=FAILURES)
def test_failure_is_one_stderr_line_and_exit_1(tmp_path, capsys, argv, source, line):
    path = tmp_path / "circuit.qac"
    if source is not None:
        path.write_bytes(source)
    code = main([arg.format(path=path) for arg in argv])
    assert (code, *capsys.readouterr()) == (1, "", line.format(path=path) + "\n")


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["explode"]) == 1

    def test_no_arguments(self, capsys):
        assert main([]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


def test_internal_invariant_violation_exits_two(bell_file, capsys, monkeypatch):
    from qassert import InvariantViolationError
    import qassert.runner as runner_mod

    def boom(*args, **kwargs):
        raise InvariantViolationError("norm drifted")

    monkeypatch.setattr(runner_mod, "run_shots", boom)
    assert main(["run", bell_file, "--shots", "10", "--seed", "0"]) == 2
    assert "internal error" in capsys.readouterr().err
