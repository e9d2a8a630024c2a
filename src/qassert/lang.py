"""Circuit language: parsing, pretty-printing, and assertion lowering.

Grammar (one statement per line, ``#`` starts a comment, blank lines are
ignored, the ``qubits`` header must come first):

    qubits N
    h Q | x Q | y Q | z Q | s Q
    cnot C T
    measure Q -> NAME
    assert_classical Q == B [label NAME]
    assert_entangled Q1 Q2 [Q3 ...] parity B [label NAME]
    assert_superposition Q [label NAME]

Files use the ``.qac`` extension, UTF-8 text.  Assertions without an
explicit label get ``a<i>`` where i is the assertion's 0-based position.

Lowering replaces every assertion with its gadget: a fresh ancilla qubit
appended above the existing ones (in assertion order), an x gate when the
ancilla starts in |1>, the gadget's gates, and a measurement of the
ancilla into the reserved creg ``__assert_<label>``.  Cregs with that
prefix are treated as assertion outcomes everywhere (1 = fail).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Union

from .assertions import AssertionKind, AssertionSpec, build_gadget
from .state import MAX_QUBITS, Gate, _check_num_qubits, x

ASSERT_CREG_PREFIX = "__assert_"


def _split_cregs(
    creg_names: tuple[str, ...],
) -> tuple[tuple[int, ...], tuple[tuple[int, str], ...]]:
    """The data-creg positions and the (position, label) of each assertion
    creg ``__assert_<label>``, both in creg order."""
    data, assertions = [], []
    for i, name in enumerate(creg_names):
        if name.startswith(ASSERT_CREG_PREFIX):
            assertions.append((i, name[len(ASSERT_CREG_PREFIX):]))
        else:
            data.append(i)
    return tuple(data), tuple(assertions)


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_TOKEN_RE = re.compile(r"\S+")
# Plain ASCII decimal without leading zeros, so a token prints back as written.
_INT_RE = re.compile(r"(0|[1-9][0-9]*)\Z")

_GATE_WORDS = ("h", "x", "y", "z", "s")


class ParseError(Exception):
    """Syntax or validation error with a 1-based source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Span:
    line: int
    column: int


@dataclass(frozen=True)
class GateInstr:
    gate: Gate
    span: Span | None = field(default=None, compare=False)


@dataclass(frozen=True)
class MeasureInstr:
    qubit: int
    creg: str
    span: Span | None = field(default=None, compare=False)


@dataclass(frozen=True)
class AssertInstr:
    spec: AssertionSpec
    label: str
    span: Span | None = field(default=None, compare=False)


Instruction = Union[GateInstr, MeasureInstr, AssertInstr]


@dataclass(frozen=True)
class Circuit:
    """Ordered instructions over `num_qubits` qubits.

    creg_names and assertion_labels are derived, in order of appearance;
    a measurement into a ``__assert_*`` creg counts as an assertion
    outcome, which is how labels survive lowering.
    """

    num_qubits: int
    instructions: tuple[Instruction, ...] = ()

    @property
    def creg_names(self) -> tuple[str, ...]:
        return tuple(
            i.creg for i in self.instructions if isinstance(i, MeasureInstr)
        )

    @property
    def assertion_labels(self) -> tuple[str, ...]:
        # The cregs the circuit has once lowered, in order of appearance.
        cregs = tuple(
            ASSERT_CREG_PREFIX + i.label if isinstance(i, AssertInstr) else i.creg
            for i in self.instructions if not isinstance(i, GateInstr)
        )
        return tuple(label for _, label in _split_cregs(cregs)[1])

    def has_assertions(self) -> bool:
        return any(isinstance(i, AssertInstr) for i in self.instructions)

    def validate(self) -> None:
        """Reject out-of-range qubit references and duplicate names."""
        _check_num_qubits(self.num_qubits)
        for instr in self.instructions:
            if isinstance(instr, GateInstr):
                refs = instr.gate.qubits
            elif isinstance(instr, MeasureInstr):
                refs = (instr.qubit,)
                if not _NAME_RE.match(instr.creg):
                    raise ValueError(f"invalid creg name {instr.creg!r}")
            else:
                refs = instr.spec.targets
            for q in refs:
                if not 0 <= q < self.num_qubits:
                    raise ValueError(
                        f"qubit {q} out of range for {self.num_qubits}-qubit circuit"
                    )
        cregs = self.creg_names
        if len(set(cregs)) != len(cregs):
            raise ValueError(f"duplicate creg name in {cregs}")
        labels = self.assertion_labels
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate assertion label in {labels}")
        for label in labels:
            if not _NAME_RE.match(label):
                raise ValueError(f"invalid assertion label {label!r}")


class _Statement:
    """Token cursor over one source line, reporting errors with positions."""

    def __init__(self, line: int, tokens: list[tuple[str, int]]):
        self.line = line
        self.tokens = tokens
        self.pos = 0

    def fail(self, message: str, column: int | None = None) -> ParseError:
        if column is None:
            if self.pos < len(self.tokens):
                column = self.tokens[self.pos][1]
            else:
                last = self.tokens[-1]
                column = last[1] + len(last[0])
        return ParseError(message, self.line, column)

    def peek(self) -> str | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def take(self, what: str) -> tuple[str, int]:
        if self.pos >= len(self.tokens):
            raise self.fail(f"expected {what}")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def take_keyword(self, word: str) -> None:
        tok, col = self.take(f"'{word}'")
        if tok != word:
            raise self.fail(f"expected '{word}', got {tok!r}", col)

    def take_int(self, what: str) -> tuple[int, int]:
        tok, col = self.take(what)
        try:
            if _INT_RE.match(tok):
                return int(tok), col
        except ValueError:  # more digits than int() converts
            pass
        raise self.fail(f"expected {what}, got {tok!r}", col)

    def take_qubit(self, num_qubits: int) -> int:
        value, col = self.take_int("a qubit index")
        if not 0 <= value < num_qubits:
            raise self.fail(
                f"qubit {value} out of range for {num_qubits}-qubit circuit", col
            )
        return value

    def take_bit(self, what: str) -> int:
        tok, col = self.take(what)
        if tok not in ("0", "1"):
            raise self.fail(f"expected {what} (0 or 1), got {tok!r}", col)
        return int(tok)

    def take_name(self, what: str) -> str:
        tok, col = self.take(what)
        if not _NAME_RE.match(tok):
            raise self.fail(f"invalid {what} {tok!r}", col)
        return tok

    def finish(self) -> None:
        if self.pos < len(self.tokens):
            tok, col = self.tokens[self.pos]
            raise self.fail(f"unexpected trailing token {tok!r}", col)


def _statements(source: str):
    for lineno, raw in enumerate(source.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        tokens = [(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(code)]
        if tokens:
            yield _Statement(lineno, tokens)


def _take_optional_label(stmt: _Statement, auto_index: int, seen: set[str]) -> str:
    if stmt.peek() == "label":
        stmt.take("'label'")
        label = stmt.take_name("assertion label")
    else:
        label = f"a{auto_index}"
    if label in seen:
        raise stmt.fail(f"duplicate assertion label {label!r}")
    seen.add(label)
    return label


def parse(source: str) -> Circuit:
    """Parse circuit source text; raises ParseError with line/column."""
    num_qubits: int | None = None
    instructions: list[Instruction] = []
    cregs_seen: set[str] = set()
    labels_seen: set[str] = set()
    assertion_count = 0

    for stmt in _statements(source):
        word, col = stmt.take("a statement")
        span = Span(stmt.line, col)

        if word == "qubits":
            if num_qubits is not None:
                raise stmt.fail("duplicate 'qubits' header", col)
            value, vcol = stmt.take_int("a qubit count")
            if not 1 <= value <= MAX_QUBITS:
                raise stmt.fail(
                    f"qubit count must be in [1, {MAX_QUBITS}], got {value}", vcol
                )
            num_qubits = value
            stmt.finish()
            continue

        if num_qubits is None:
            raise stmt.fail("the first statement must be 'qubits N'", col)

        if word in _GATE_WORDS:
            q = stmt.take_qubit(num_qubits)
            instructions.append(GateInstr(Gate(word, (q,)), span))
        elif word == "cnot":
            control = stmt.take_qubit(num_qubits)
            tcol = stmt.tokens[stmt.pos][1] if stmt.pos < len(stmt.tokens) else None
            target = stmt.take_qubit(num_qubits)
            if control == target:
                raise stmt.fail("cnot operands must be distinct", tcol)
            instructions.append(GateInstr(Gate("cnot", (control, target)), span))
        elif word == "measure":
            q = stmt.take_qubit(num_qubits)
            stmt.take_keyword("->")
            name = stmt.take_name("creg name")
            if name in cregs_seen:
                raise stmt.fail(f"duplicate creg name {name!r}")
            cregs_seen.add(name)
            if name.startswith(ASSERT_CREG_PREFIX):
                # Reserved prefix: the creg doubles as an assertion label
                # (this is how lowered circuits re-parse).
                label = name[len(ASSERT_CREG_PREFIX):]
                if not label:
                    raise stmt.fail(f"empty assertion label in creg {name!r}")
                if not _NAME_RE.match(label):
                    raise stmt.fail(
                        f"invalid assertion label {label!r}", stmt.tokens[stmt.pos - 1][1]
                    )
                if label in labels_seen:
                    raise stmt.fail(f"duplicate assertion label {label!r}")
                labels_seen.add(label)
            instructions.append(MeasureInstr(q, name, span))
        elif word == "assert_classical":
            q = stmt.take_qubit(num_qubits)
            stmt.take_keyword("==")
            bit = stmt.take_bit("the expected bit")
            label = _take_optional_label(stmt, assertion_count, labels_seen)
            assertion_count += 1
            spec = AssertionSpec(AssertionKind.CLASSICAL_EQUALS, (q,), bit)
            instructions.append(AssertInstr(spec, label, span))
        elif word == "assert_entangled":
            targets = []
            while stmt.peek() is not None and stmt.peek() not in ("parity",):
                tcol = stmt.tokens[stmt.pos][1]
                q = stmt.take_qubit(num_qubits)
                if q in targets:
                    raise stmt.fail(f"duplicate assertion target {q}", tcol)
                targets.append(q)
            if len(targets) < 2:
                raise stmt.fail("assert_entangled needs at least 2 targets")
            stmt.take_keyword("parity")
            bit = stmt.take_bit("the parity bit")
            label = _take_optional_label(stmt, assertion_count, labels_seen)
            assertion_count += 1
            spec = AssertionSpec(AssertionKind.ENTANGLED, tuple(targets), bit)
            instructions.append(AssertInstr(spec, label, span))
        elif word == "assert_superposition":
            q = stmt.take_qubit(num_qubits)
            label = _take_optional_label(stmt, assertion_count, labels_seen)
            assertion_count += 1
            spec = AssertionSpec(AssertionKind.UNIFORM_SUPERPOSITION, (q,))
            instructions.append(AssertInstr(spec, label, span))
        else:
            raise stmt.fail(f"unknown statement {word!r}", col)
        stmt.finish()

    if num_qubits is None:
        raise ParseError("missing 'qubits N' header", 1, 1)

    circuit = Circuit(num_qubits, tuple(instructions))
    circuit.validate()
    return circuit


def _format_instruction(instr: Instruction) -> str:
    if isinstance(instr, GateInstr):
        g = instr.gate
        return f"{g.name} {' '.join(str(q) for q in g.qubits)}"
    if isinstance(instr, MeasureInstr):
        return f"measure {instr.qubit} -> {instr.creg}"
    spec = instr.spec
    if spec.kind is AssertionKind.CLASSICAL_EQUALS:
        body = f"assert_classical {spec.targets[0]} == {spec.expected}"
    elif spec.kind is AssertionKind.ENTANGLED:
        targets = " ".join(str(t) for t in spec.targets)
        body = f"assert_entangled {targets} parity {spec.expected}"
    else:
        body = f"assert_superposition {spec.targets[0]}"
    return f"{body} label {instr.label}"


def pretty_print(circuit: Circuit) -> str:
    """Emit source text that parses back to a structurally equal circuit."""
    lines = [f"qubits {circuit.num_qubits}"]
    lines.extend(_format_instruction(i) for i in circuit.instructions)
    return "\n".join(lines) + "\n"


def lower_assertions(circuit: Circuit) -> Circuit:
    """Expand every assertion into its ancilla gadget.

    Ancillas are appended above the existing qubits in assertion order and
    never reused.  The relative order of all other instructions is
    preserved; the result contains no AssertInstr.  Returns the input
    unchanged when there is nothing to lower.

    Each ancilla widens the declared register, which MAX_QUBITS bounds,
    but not the simulated state: the shot executor allocates a qubit at
    its first use and drops it at every measurement, until a later use
    brings it back, so the state width is the peak number of live qubits.
    Assertions that run one after another cost one extra qubit at peak,
    not one each.
    """
    circuit.validate()
    if not circuit.has_assertions():
        return circuit
    ancillas = sum(isinstance(i, AssertInstr) for i in circuit.instructions)
    if circuit.num_qubits + ancillas > MAX_QUBITS:
        raise ValueError(
            f"{circuit.num_qubits} declared qubits plus {ancillas} assertion "
            f"ancilla(s) come to {circuit.num_qubits + ancillas}, over "
            f"MAX_QUBITS ({MAX_QUBITS})"
        )
    instructions: list[Instruction] = []
    next_ancilla = circuit.num_qubits
    for instr in circuit.instructions:
        if not isinstance(instr, AssertInstr):
            instructions.append(instr)
            continue
        gadget = build_gadget(instr.spec)
        ancilla = next_ancilla
        next_ancilla += 1
        creg = ASSERT_CREG_PREFIX + instr.label
        if gadget.ancilla_init:
            instructions.append(GateInstr(x(ancilla), instr.span))
        instructions.extend(GateInstr(g, instr.span) for g in gadget.bind(ancilla))
        instructions.append(MeasureInstr(ancilla, creg, instr.span))
    lowered = Circuit(next_ancilla, tuple(instructions))
    lowered.validate()
    return lowered
