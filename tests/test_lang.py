"""Tests for parsing, pretty-printing, and assertion lowering."""

import itertools
import random

import pytest

from qassert import (
    AssertInstr,
    AssertionKind,
    AssertionSpec,
    Circuit,
    Gate,
    GateInstr,
    MeasureInstr,
    ParseError,
    cnot,
    h,
    lower_assertions,
    parse,
    pretty_print,
)
from make_liveness_golden import random_circuit
from test_cross_validation import random_source

BELL_SOURCE = """\
qubits 2
h 0
cnot 0 1
assert_entangled 0 1 parity 0 label ent
measure 0 -> m0
measure 1 -> m1
"""


class TestParse:
    def test_minimal_program(self):
        circuit = parse("qubits 1\nh 0\nassert_superposition 0\n")
        assert circuit.num_qubits == 1
        assert len(circuit.instructions) == 2
        assert isinstance(circuit.instructions[0], GateInstr)
        assert isinstance(circuit.instructions[1], AssertInstr)

    def test_bell_program_structure(self):
        circuit = parse(BELL_SOURCE)
        assert circuit.num_qubits == 2
        kinds = [type(i).__name__ for i in circuit.instructions]
        assert kinds == ["GateInstr", "GateInstr", "AssertInstr",
                         "MeasureInstr", "MeasureInstr"]
        assert circuit.creg_names == ("m0", "m1")
        assert circuit.assertion_labels == ("ent",)
        spec = circuit.instructions[2].spec
        assert spec == AssertionSpec(AssertionKind.ENTANGLED, (0, 1), 0)

    def test_comments_and_blank_lines(self):
        circuit = parse("# header\n\nqubits 1  # trailing\n\nx 0 # flip\n")
        assert len(circuit.instructions) == 1

    def test_spans_recorded(self):
        circuit = parse("qubits 1\nh 0\n")
        span = circuit.instructions[0].span
        assert (span.line, span.column) == (2, 1)

    def test_auto_labels(self):
        circuit = parse(
            "qubits 1\nassert_classical 0 == 0\nassert_superposition 0\n"
        )
        assert circuit.assertion_labels == ("a0", "a1")

    def test_mixed_labels_use_ordinal(self):
        circuit = parse(
            "qubits 1\nassert_classical 0 == 0 label first\nassert_superposition 0\n"
        )
        assert circuit.assertion_labels == ("first", "a1")


class TestParseErrors:
    def assert_error(self, source, line, fragment, column=None):
        with pytest.raises(ParseError) as info:
            parse(source)
        err = info.value
        assert err.line == line
        assert fragment in err.message
        if column is not None:
            assert err.column == column

    def test_duplicate_cnot_operands(self):
        self.assert_error("qubits 1\ncnot 0 0\n", 2, "distinct", column=8)

    def test_entangled_reads_a_target_before_parity(self):
        # Every assertion statement reads one target before its keyword.
        self.assert_error("qubits 2\nassert_entangled parity 0\n", 2,
                          "expected a qubit index, got 'parity'", column=18)

    def test_missing_header(self):
        self.assert_error("h 0\n", 1, "qubits")

    def test_empty_source(self):
        self.assert_error("", 1, "missing 'qubits N' header")
        self.assert_error("# only a comment\n", 1, "missing")

    def test_duplicate_header(self):
        self.assert_error("qubits 1\nqubits 2\n", 2, "duplicate")

    def test_unknown_statement(self):
        self.assert_error("qubits 1\nfrobnicate 0\n", 2, "unknown statement")

    def test_qubit_out_of_range(self):
        self.assert_error("qubits 2\nh 2\n", 2, "out of range", column=3)

    def test_qubit_count_out_of_range(self):
        self.assert_error("qubits 25\n", 1, "qubit count")
        self.assert_error("qubits 0\n", 1, "qubit count")

    def test_bad_integer(self):
        self.assert_error("qubits 1\nh zero\n", 2, "expected")

    @pytest.mark.parametrize(
        "source, column",
        [
            ("qubits 2\nh 1_0\n", 3),
            ("qubits 2\nh +1\n", 3),
            ("qubits 2\nh \u0663\n", 3),
            ("qubits +3\n", 8),
            ("qubits 2\ncnot 0 01\n", 8),
            ("qubits 2\nmeasure 1_0 -> m\n", 9),
            ("qubits " + "1" * 5000 + "\n", 8),
        ],
        ids=["underscore", "plus-sign", "arabic-indic", "header-plus",
             "leading-zero", "measure", "beyond-int-digit-limit"],
    )
    def test_integer_must_be_plain_ascii_decimal(self, source, column):
        self.assert_error(source, source.count("\n"), "expected", column=column)

    def test_duplicate_creg(self):
        self.assert_error(
            "qubits 1\nmeasure 0 -> m\nmeasure 0 -> m\n", 3, "duplicate creg"
        )

    def test_duplicate_label(self):
        self.assert_error(
            "qubits 1\nassert_superposition 0 label t\n"
            "assert_classical 0 == 0 label t\n",
            3,
            "duplicate assertion label",
        )

    def test_empty_label_in_reserved_creg(self):
        self.assert_error(
            "qubits 1\nmeasure 0 -> __assert_\n", 2, "empty assertion label",
            column=14,
        )

    def test_invalid_label_in_reserved_creg(self):
        self.assert_error(
            "qubits 1\nh 0\nmeasure 0 -> __assert_1x\n", 3,
            "invalid assertion label '1x'", column=14,
        )

    def test_trailing_tokens(self):
        self.assert_error("qubits 1\nh 0 1\n", 2, "trailing")

    def test_missing_arrow(self):
        self.assert_error("qubits 1\nmeasure 0 m\n", 2, "'->'")

    def test_bad_bit(self):
        self.assert_error("qubits 1\nassert_classical 0 == 2\n", 2, "0 or 1")

    def test_entangled_needs_two(self):
        self.assert_error(
            "qubits 2\nassert_entangled 0 parity 0\n", 2, "at least 2"
        )

    def test_entangled_duplicate_target(self):
        self.assert_error(
            "qubits 2\nassert_entangled 0 0 parity 0\n", 2,
            "assertion targets must be distinct",
        )

    def test_bad_creg_name(self):
        self.assert_error("qubits 1\nmeasure 0 -> 9lives\n", 2, "creg name")

    # A statement that ends before its next token fails at the column just
    # past its last token.
    @pytest.mark.parametrize("source, line, column, message", [
        ("qubits", 1, 7, "expected a qubit count"),
        ("qubits 2\nh", 2, 2, "expected a qubit index"),
        ("qubits 2\ncnot 0", 2, 7, "expected a qubit index"),
        ("qubits 2\nmeasure 0", 2, 10, "expected '->'"),
        ("qubits 2\nmeasure 0 ->", 2, 13, "expected creg name"),
        ("qubits 2\nassert_classical 0 ==", 2, 22, "expected the expected bit"),
        ("qubits 2\nassert_entangled 0 1", 2, 21, "expected 'parity'"),
        ("qubits 2\nassert_classical 0 == 1 label", 2, 30, "expected assertion label"),
    ], ids=["qubits", "h", "cnot", "measure", "measure-arrow", "classical-equals",
            "entangled", "label"])
    def test_truncated_statement(self, source, line, column, message):
        with pytest.raises(ParseError) as info:
            parse(source)
        assert (info.value.message, info.value.line, info.value.column) == (
            message, line, column)

    def test_error_string_has_position(self):
        with pytest.raises(ParseError) as info:
            parse("qubits 1\ncnot 0 0\n")
        assert str(info.value).startswith("2:")


CLASSICAL_0 = AssertionSpec(AssertionKind.CLASSICAL_EQUALS, (0,), 0)

# Every circuit rule broken once: the source that breaks it (None where the
# token syntax cannot express the value), the line and column parse reports,
# the rule's message, and the same circuit or operand built directly.
RULE_CASES = {
    "count-0": ("qubits 0\n", (1, 8),
                "num_qubits must be an integer in [1, 24], got 0", lambda: Circuit(0)),
    "count-25": ("qubits 25\n", (1, 8),
                 "num_qubits must be an integer in [1, 24], got 25", lambda: Circuit(25)),
    "count-bool": (None, None,
                   "num_qubits must be an integer in [1, 24], got True",
                   lambda: Circuit(True)),
    "gate-range": ("qubits 2\nh 2\n", (2, 3), "qubit 2 out of range for 2-qubit circuit",
                   lambda: Circuit(2, (GateInstr(h(2)),))),
    "cnot-range": ("qubits 2\ncnot 0 2\n", (2, 8),
                   "qubit 2 out of range for 2-qubit circuit",
                   lambda: Circuit(2, (GateInstr(cnot(0, 2)),))),
    "gate-float": (None, None, "qubit index must be an integer, got 1.0",
                   lambda: Circuit(2, (GateInstr(h(1.0)),))),
    "gate-bool": (None, None, "qubit index must be an integer, got True",
                  lambda: Circuit(2, (GateInstr(h(True)),))),
    "measure-range": ("qubits 2\nmeasure 2 -> m\n", (2, 9),
                      "qubit 2 out of range for 2-qubit circuit",
                      lambda: Circuit(2, (MeasureInstr(2, "m"),))),
    "measure-float": (None, None, "qubit index must be an integer, got 1.0",
                      lambda: Circuit(2, (MeasureInstr(1.0, "m"),))),
    "target-range": ("qubits 2\nassert_entangled 0 2 parity 0\n", (2, 20),
                     "qubit 2 out of range for 2-qubit circuit",
                     lambda: Circuit(2, (AssertInstr(
                         AssertionSpec(AssertionKind.ENTANGLED, (0, 2), 0), "a0"),))),
    "gate-operand-bool": (None, None, "qubit index must be an integer, got True",
                          lambda: Gate("cnot", (1, True))),
    "gate-operand-float": (None, None, "qubit index must be an integer, got 1.0",
                           lambda: Gate("cnot", (1, 1.0))),
    "cnot-distinct": ("qubits 1\ncnot 0 0\n", (2, 8),
                      "cnot operands must be distinct: (0, 0)", lambda: cnot(0, 0)),
    "targets-distinct": ("qubits 2\nassert_entangled 0 0 parity 0\n", (2, 20),
                         "assertion targets must be distinct: (0, 0)",
                         lambda: AssertionSpec(AssertionKind.ENTANGLED, (0, 0), 0)),
    "two-targets": ("qubits 2\nassert_entangled 0 parity 0\n", (2, 18),
                    "entanglement assertion needs at least 2 targets",
                    lambda: AssertionSpec(AssertionKind.ENTANGLED, (0,), 0)),
    "bit-bool": (None, None, "classical assertion needs an expected bit of 0 or 1",
                 lambda: AssertionSpec(AssertionKind.CLASSICAL_EQUALS, (0,), True)),
    "creg-syntax": ("qubits 1\nmeasure 0 -> 9lives\n", (2, 14),
                    "invalid creg name '9lives'",
                    lambda: Circuit(1, (MeasureInstr(0, "9lives"),))),
    "creg-not-str": (None, None, "invalid creg name 5",
                     lambda: Circuit(1, (MeasureInstr(0, 5),))),
    "creg-twice": ("qubits 1\nmeasure 0 -> m\nmeasure 0 -> m\n", (3, 14),
                   "duplicate creg name 'm'",
                   lambda: Circuit(1, (MeasureInstr(0, "m"), MeasureInstr(0, "m")))),
    "reserved-empty": ("qubits 1\nmeasure 0 -> __assert_\n", (2, 14),
                       "empty assertion label in creg '__assert_'",
                       lambda: Circuit(1, (MeasureInstr(0, "__assert_"),))),
    "reserved-syntax": ("qubits 1\nmeasure 0 -> __assert_1x\n", (2, 14),
                        "invalid assertion label '1x'",
                        lambda: Circuit(1, (MeasureInstr(0, "__assert_1x"),))),
    "label-syntax": ("qubits 1\nassert_classical 0 == 0 label 9x\n", (2, 31),
                     "invalid assertion label '9x'",
                     lambda: Circuit(1, (AssertInstr(CLASSICAL_0, "9x"),))),
    "label-twice": ("qubits 1\nassert_classical 0 == 0 label t\n"
                    "assert_classical 0 == 0 label t\n", (3, 31),
                    "duplicate assertion label 't'",
                    lambda: Circuit(1, (AssertInstr(CLASSICAL_0, "t"),
                                        AssertInstr(CLASSICAL_0, "t")))),
    "auto-label-taken": ("qubits 1\nmeasure 0 -> __assert_a0\nassert_classical 0 == 0\n",
                         (3, 1), "duplicate assertion label 'a0'",
                         lambda: Circuit(1, (MeasureInstr(0, "__assert_a0"),
                                             AssertInstr(CLASSICAL_0, "a0")))),
    "reserved-after-label": ("qubits 1\nassert_classical 0 == 0 label a\n"
                             "measure 0 -> __assert_a\n", (3, 14),
                             "duplicate assertion label 'a'",
                             lambda: Circuit(1, (AssertInstr(CLASSICAL_0, "a"),
                                                 MeasureInstr(0, "__assert_a")))),
}


@pytest.mark.parametrize("case", sorted(RULE_CASES))
def test_one_owner_per_rule(case):
    """parse and direct construction reject a broken rule with its one message;
    parse adds the position, and names the header for a qubit count."""
    source, position, message, build = RULE_CASES[case]
    with pytest.raises(ValueError) as built:
        build()
    assert str(built.value) == message
    if source is None:
        return
    with pytest.raises(ParseError) as parsed:
        parse(source)
    prefix = "invalid qubit count: " if case.startswith("count") else ""
    assert parsed.value.message == prefix + message
    assert (parsed.value.line, parsed.value.column) == position


def test_out_of_range_qubit_reported_before_operand_rules():
    # cnot 5 5 breaks both the range rule and Gate's distinct-operand rule;
    # the statement fails at its first token, as the source reads.
    with pytest.raises(ParseError) as info:
        parse("qubits 2\ncnot 5 5\n")
    assert (info.value.line, info.value.column) == (2, 6)
    assert info.value.message == "qubit 5 out of range for 2-qubit circuit"


@pytest.mark.parametrize("source, column", [
    ("qubits 2\ncnot 5", 6),
    ("qubits 2\nmeasure 5", 9),
    ("qubits 2\nassert_classical 5 == x", 18),
], ids=["cnot", "measure", "classical"])
def test_statement_reports_first_error_in_reading_order(source, column):
    # Each statement breaks a token rule after its qubit; the qubit comes first.
    with pytest.raises(ParseError) as info:
        parse(source)
    assert (info.value.message, info.value.line, info.value.column) == (
        "qubit 5 out of range for 2-qubit circuit", 2, column)


class TestRoundTrip:
    def test_random_circuits_round_trip(self):
        sources = [random_circuit(seed, 5 + seed % 5) for seed in range(20)]
        rng = random.Random(2024)
        sources += [random_source(rng, rng.randint(1, 6), rng.randint(1, 30))
                    for _ in range(80)]
        for source in sources:
            for circuit in (parse(source), lower_assertions(parse(source))):
                assert parse(pretty_print(circuit)) == circuit, source

    def test_bell_round_trip(self):
        circuit = parse(BELL_SOURCE)
        assert parse(pretty_print(circuit)) == circuit

    def test_list_operands_round_trip(self):
        # A gate built from a list stores a tuple, as parse's gates do.
        circuit = Circuit(2, [GateInstr(Gate("h", [0])), GateInstr(Gate("cnot", [0, 1]))])
        assert parse(pretty_print(circuit)) == circuit

    def test_corpus_round_trip(self, corpus_files):
        for path in corpus_files:
            circuit = parse(path.read_text())
            again = parse(pretty_print(circuit))
            assert again == circuit, f"round-trip mismatch for {path.name}"

    def test_integer_tokens_print_back_unchanged(self):
        accepted = set()
        for size in (1, 2, 3):
            for chars in itertools.product("0129_+-\u0663", repeat=size):
                token = "".join(chars)
                for source in (f"qubits {token}\n", f"qubits 24\nx {token}\n"):
                    try:
                        circuit = parse(source)
                    except ParseError:
                        continue
                    assert pretty_print(circuit) == source
                    accepted.add(token)
        assert {"0", "1", "9", "10", "21", "2"} <= accepted
        assert not accepted & {"00", "01", "1_0", "+1", "-0", "\u0663"}

    def test_equality_ignores_spans(self):
        a = parse("qubits 1\nh 0\n")
        b = parse("# leading comment\n\nqubits 1\n\n\nh 0\n")
        assert a == b

    def test_pretty_empty_circuit(self):
        assert pretty_print(Circuit(3)) == "qubits 3\n"

    def test_lowered_circuit_round_trips(self):
        lowered = lower_assertions(parse(BELL_SOURCE))
        text = pretty_print(lowered)
        assert "__assert_ent" in text
        assert parse(text) == lowered


class TestLowering:
    def test_classical_adds_qubit_cnot_measure(self):
        circuit = parse("qubits 1\nassert_classical 0 == 0 label c\n")
        lowered = lower_assertions(circuit)
        assert lowered.num_qubits == 2
        assert lowered.instructions == (
            GateInstr(cnot(0, 1)),
            MeasureInstr(1, "__assert_c"),
        )

    def test_classical_expected_one_prepends_x(self):
        circuit = parse("qubits 1\nassert_classical 0 == 1 label c\n")
        lowered = lower_assertions(circuit)
        assert lowered.instructions[0] == GateInstr(Gate("x", (1,)))

    def test_entangled_two_targets(self):
        circuit = parse("qubits 2\nassert_entangled 0 1 parity 0 label e\n")
        lowered = lower_assertions(circuit)
        assert lowered.num_qubits == 3
        cnots = [i for i in lowered.instructions
                 if isinstance(i, GateInstr) and i.gate.name == "cnot"]
        assert len(cnots) == 2

    def test_entangled_three_targets_has_four_cnots(self):
        circuit = parse("qubits 3\nassert_entangled 0 1 2 parity 0\n")
        lowered = lower_assertions(circuit)
        cnots = [i for i in lowered.instructions
                 if isinstance(i, GateInstr) and i.gate.name == "cnot"]
        assert len(cnots) == 4

    def test_superposition_gadget_order(self):
        circuit = parse("qubits 1\nassert_superposition 0 label sp\n")
        lowered = lower_assertions(circuit)
        names = [
            (i.gate.name, i.gate.qubits) if isinstance(i, GateInstr) else ("measure", i.qubit)
            for i in lowered.instructions
        ]
        assert names == [
            ("cnot", (0, 1)), ("h", (0,)), ("h", (1,)), ("cnot", (0, 1)),
            ("measure", 1),
        ]

    def test_identity_without_assertions(self):
        circuit = parse("qubits 2\nh 0\ncnot 0 1\nmeasure 0 -> m\n")
        assert lower_assertions(circuit) is circuit

    def test_no_assert_instr_left(self, corpus_files):
        for path in corpus_files:
            lowered = lower_assertions(parse(path.read_text()))
            assert not lowered.has_assertions()

    def test_ancilla_count_equals_assertions(self, corpus_files):
        for path in corpus_files:
            circuit = parse(path.read_text())
            lowered = lower_assertions(circuit)
            assert lowered.num_qubits - circuit.num_qubits == len(
                circuit.assertion_labels
            )
            assert lowered.assertion_labels == circuit.assertion_labels

    def test_relative_order_preserved(self):
        circuit = parse(BELL_SOURCE)
        lowered = lower_assertions(circuit)
        others = [i for i in lowered.instructions
                  if not (isinstance(i, MeasureInstr) and i.creg.startswith("__assert_"))]
        # Gadget gates act only on targets/ancilla; original gate and
        # measure instructions keep their relative order.
        original = [i for i in circuit.instructions if not isinstance(i, AssertInstr)]
        survivors = [i for i in others if i in original]
        assert survivors == original

    def test_creg_collision_rejected_at_parse(self):
        # A user creg with the reserved prefix claims the label namespace,
        # whichever of the two comes first.
        with pytest.raises(ParseError, match="duplicate assertion label"):
            parse(
                "qubits 1\nmeasure 0 -> __assert_c\n"
                "assert_classical 0 == 0 label c\n"
            )
        with pytest.raises(ParseError, match="duplicate assertion label") as err:
            parse(
                "qubits 2\nassert_classical 0 == 1 label a\n"
                "measure 1 -> __assert_a\n"
            )
        assert (err.value.line, err.value.column) == (3, 14)

    def test_creg_collision_rejected_for_built_circuits(self):
        spec = AssertionSpec(AssertionKind.CLASSICAL_EQUALS, (0,), 0)
        with pytest.raises(ValueError, match="duplicate assertion label"):
            Circuit(1, (MeasureInstr(0, "__assert_c"), AssertInstr(spec, "c")))

    def test_ancillas_past_max_qubits(self):
        circuit = parse("qubits 23\nassert_classical 0 == 0\nassert_classical 1 == 0\n")
        with pytest.raises(
            ValueError,
            match=r"23 declared qubits plus 2 assertion ancilla\(s\) come to 25, "
            r"over MAX_QUBITS \(24\)",
        ):
            lower_assertions(circuit)

    def test_ancillas_in_assertion_order(self):
        circuit = parse(
            "qubits 1\nassert_superposition 0 label s\nassert_classical 0 == 0 label c\n"
        )
        lowered = lower_assertions(circuit)
        measures = [i for i in lowered.instructions if isinstance(i, MeasureInstr)]
        assert [(m.qubit, m.creg) for m in measures] == [
            (1, "__assert_s"), (2, "__assert_c"),
        ]


class TestCircuitValidate:
    def test_manual_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Circuit(1, (GateInstr(Gate("h", (3,))),))

    def test_manual_duplicate_creg(self):
        with pytest.raises(ValueError, match="duplicate creg"):
            Circuit(1, (MeasureInstr(0, "m"), MeasureInstr(0, "m")))

    def test_bad_num_qubits(self):
        with pytest.raises(ValueError, match="num_qubits"):
            Circuit(0)
