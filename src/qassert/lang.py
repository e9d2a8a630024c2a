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
appended above the existing ones (in assertion order), the gadget's gates
(an expected bit of 1 starts them with an x on the ancilla), and a
measurement of the ancilla into the reserved creg ``__assert_<label>``.
Cregs with that prefix are treated as assertion outcomes everywhere
(1 = fail).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Union

from .assertions import AssertionKind, AssertionSpec, build_gadget
from .gates import GATE_ARITY, MAX_QUBITS, Gate, _check_num_qubits, _check_qubits

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


def _check_expected(expected, creg_names: tuple[str, ...], what: str = "expected") -> set[str]:
    """The expected-data rule: `expected` is a collection of bitstrings, each
    with one bit per data creg of `creg_names`, returned as a set.  A lone
    string is refused, as iterating it would read its characters.  The
    first bitstring that breaks the rule is named in the error, as `what`."""
    if isinstance(expected, str):
        raise ValueError(f"{what} must be a collection of bitstrings, got {expected!r}")
    data = [creg_names[i] for i in _split_cregs(creg_names)[0]]
    expected = list(expected)
    for bits in expected:
        if not isinstance(bits, str) or len(bits) != len(data) or bits.strip("01"):
            raise ValueError(f"{what} {bits!r} must be a bitstring over the "
                             f"{len(data)} data creg(s) {' '.join(data) or '(none)'}")
    return set(expected)


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_TOKEN_RE = re.compile(r"\S+")
# Plain ASCII decimal without leading zeros, so a token prints back as written.
_INT_RE = re.compile(r"(0|[1-9][0-9]*)\Z")


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


class _Rules:
    """A `num_qubits`-qubit circuit's rules, checked instruction by instruction:
    integer qubit indices in range, and valid creg names and assertion labels,
    none claimed twice (a measurement into ``__assert_<label>`` claims its label)."""

    def __init__(self, num_qubits: int):
        self.num_qubits = _check_num_qubits(num_qubits)
        self.cregs: set[str] = set()  # claimed so far, assertions' as lowered

    def check(self, instr: Instruction) -> None:
        """Raise ValueError for the first rule `instr` breaks, else claim its creg."""
        if isinstance(instr, GateInstr):
            _check_qubits(self.num_qubits, instr.gate.qubits, "qubit", "circuit")
            return
        if isinstance(instr, MeasureInstr):
            _check_qubits(self.num_qubits, (instr.qubit,), "qubit", "circuit")
            creg = instr.creg
            if not (isinstance(creg, str) and _NAME_RE.match(creg)):
                raise ValueError(f"invalid creg name {creg!r}")
            if not creg.startswith(ASSERT_CREG_PREFIX):
                if creg in self.cregs:
                    raise ValueError(f"duplicate creg name {creg!r}")
                self.cregs.add(creg)
                return
            label = creg[len(ASSERT_CREG_PREFIX):]
            if not label:
                raise ValueError(f"empty assertion label in creg {creg!r}")
        else:
            _check_qubits(self.num_qubits, instr.spec.targets, "qubit", "circuit")
            label = instr.label
        if not (isinstance(label, str) and _NAME_RE.match(label)):
            raise ValueError(f"invalid assertion label {label!r}")
        if ASSERT_CREG_PREFIX + label in self.cregs:
            raise ValueError(f"duplicate assertion label {label!r}")
        self.cregs.add(ASSERT_CREG_PREFIX + label)


@dataclass(frozen=True)
class Circuit:
    """Ordered instructions over `num_qubits` qubits.  Construction checks
    every rule of `_Rules`, so a Circuit that exists is valid.

    creg_names and assertion_labels are derived, in order of appearance;
    a measurement into a ``__assert_*`` creg counts as an assertion
    outcome, which is how labels survive lowering.
    """

    num_qubits: int
    instructions: tuple[Instruction, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "instructions", tuple(self.instructions))
        rules = _Rules(self.num_qubits)
        object.__setattr__(self, "num_qubits", rules.num_qubits)
        for instr in self.instructions:
            rules.check(instr)

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


class _Statement:
    """Token cursor over one source line, reporting errors with positions.

    `take_qubit` applies the range rule as it reads each qubit, so a
    statement fails at the first token that breaks a rule, in reading order.
    A rule checked once the statement is read (by Gate, AssertionSpec or
    `_Rules`) is reported at `operand_column`: the last operand read, which
    is the creg or label, or the last qubit before one, or the statement's
    first token for an automatic label."""

    def __init__(self, line: int, tokens: list[tuple[str, int]]):
        self.line = line
        self.tokens = tokens
        self.pos = 0
        self.operand_column = tokens[0][1]

    def fail(self, message: str, column: int) -> ParseError:
        return ParseError(message, self.line, column)

    def peek(self) -> str | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def take(self, what: str) -> tuple[str, int]:
        if self.pos >= len(self.tokens):
            last = self.tokens[-1]
            raise self.fail(f"expected {what}", last[1] + len(last[0]))
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
        """A qubit index; a ValueError if a `num_qubits`-qubit circuit has none."""
        value, self.operand_column = self.take_int("a qubit index")
        _check_qubits(num_qubits, (value,), "qubit", "circuit")
        return value

    def take_bit(self, what: str) -> int:
        tok, col = self.take(what)
        if tok not in ("0", "1"):
            raise self.fail(f"expected {what} (0 or 1), got {tok!r}", col)
        return int(tok)

    def take_name(self, what: str) -> str:
        tok, self.operand_column = self.take(what)
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


# The assertion statements, one row per kind: ``assert_<kind.value>``, its
# targets, then the keyword and the bit it takes (none for a superposition),
# then ``[label NAME]``.  `parse` and `pretty_print` both read this table.
_ASSERT_SYNTAX = {
    AssertionKind.CLASSICAL_EQUALS: ("==", "the expected bit"),
    AssertionKind.ENTANGLED: ("parity", "the parity bit"),
    AssertionKind.UNIFORM_SUPERPOSITION: (None, None),
}
_ASSERT_KINDS = {f"assert_{kind.value}": kind for kind in _ASSERT_SYNTAX}


def _take_assertion(stmt: _Statement, word: str, span: Span, index: int,
                    num_qubits: int) -> AssertInstr:
    """The assertion statement `word`; `index` numbers an automatic label."""
    kind = _ASSERT_KINDS.get(word)
    if kind is None:
        raise stmt.fail(f"unknown statement {word!r}", stmt.tokens[0][1])
    keyword, bit_name = _ASSERT_SYNTAX[kind]
    targets = [stmt.take_qubit(num_qubits)]
    while kind is AssertionKind.ENTANGLED and stmt.peek() not in (None, keyword):
        targets.append(stmt.take_qubit(num_qubits))
    bit = None
    if keyword is not None:
        stmt.take_keyword(keyword)
        bit = stmt.take_bit(bit_name)
    spec = AssertionSpec(kind, tuple(targets), bit)
    if stmt.peek() != "label":
        stmt.operand_column = stmt.tokens[0][1]  # an automatic label's token
        return AssertInstr(spec, f"a{index}", span)
    stmt.take("'label'")
    return AssertInstr(spec, stmt.take_name("assertion label"), span)


def parse(source: str) -> Circuit:
    """Parse circuit source text; raises ParseError with line/column.

    Parsing checks the token syntax and the header's place, and each qubit's
    range as it reads it.  Circuit, Gate and AssertionSpec check every other
    rule; a statement that breaks one fails with the rule's message at the
    token the rule is about, the first such token in reading order."""
    rules: _Rules | None = None
    instructions: list[Instruction] = []
    assertion_count = 0

    for stmt in _statements(source):
        word, col = stmt.take("a statement")

        if word == "qubits":
            if rules is not None:
                raise stmt.fail("duplicate 'qubits' header", col)
            value, vcol = stmt.take_int("a qubit count")
            try:
                rules = _Rules(value)
            except ValueError as err:
                raise stmt.fail(f"invalid qubit count: {err}", vcol) from None
            stmt.finish()
            continue

        if rules is None:
            raise stmt.fail("the first statement must be 'qubits N'", col)

        span = Span(stmt.line, col)
        n = rules.num_qubits
        try:
            if word in GATE_ARITY:
                qubits = tuple(stmt.take_qubit(n) for _ in range(GATE_ARITY[word]))
                instr = GateInstr(Gate(word, qubits), span)
            elif word == "measure":
                q = stmt.take_qubit(n)
                stmt.take_keyword("->")
                instr = MeasureInstr(q, stmt.take_name("creg name"), span)
            else:
                instr = _take_assertion(stmt, word, span, assertion_count, n)
                assertion_count += 1
            rules.check(instr)
        except ValueError as err:
            raise stmt.fail(str(err), stmt.operand_column) from None
        stmt.finish()
        instructions.append(instr)

    if rules is None:
        raise ParseError("missing 'qubits N' header", 1, 1)
    return Circuit(rules.num_qubits, tuple(instructions))


def _format_instruction(instr: Instruction) -> str:
    if isinstance(instr, GateInstr):
        return " ".join([instr.gate.name, *map(str, instr.gate.qubits)])
    if isinstance(instr, MeasureInstr):
        return f"measure {instr.qubit} -> {instr.creg}"
    spec = instr.spec
    keyword, _ = _ASSERT_SYNTAX[spec.kind]
    words = [f"assert_{spec.kind.value}", *map(str, spec.targets)]
    if keyword is not None:
        words += [keyword, str(spec.expected)]
    return " ".join([*words, "label", instr.label])


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
    but not necessarily the simulated state: :mod:`qassert.runner` holds
    only the live qubits, and says what an ancilla costs it.
    """
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
        instructions.extend(GateInstr(g, instr.span) for g in gadget.bind(ancilla))
        instructions.append(MeasureInstr(ancilla, creg, instr.span))
    return Circuit(next_ancilla, tuple(instructions))
