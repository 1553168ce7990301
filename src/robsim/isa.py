"""Toy macro-instruction set: parsing, printing, and micro-op shapes.

A program is a flat list of macro instructions plus a label table, an
initial-memory map and its run setup: the cache lines made resident
(`.warm`) and then evicted (`.flush`) before cycle 0, and the branches
whose direction is forced (`.predict`, keyed by label). Macro instructions
decode into micro-ops; every opcode expands to exactly one micro-op of its
`Opcode.kind` except the string-repeat opcodes, whose expansion count is a
function of the runtime counter value:

    rep_movs  -> 2*n micro-ops
    rep_lods  -> 5*n + 12 micro-ops

Expansion happens at decode time in robsim.core, so the counter value may
be a speculative (bypassed) one. This module only supplies the opcode table
and the count formula; timing lives in the core.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Mapping, NamedTuple

ADDRESS_SPACE = 1 << 20  # valid data addresses are [0, ADDRESS_SPACE)
DEFAULT_EXPANSION_CAP = 4096  # max micro-ops emitted per rep instruction


class UopKind(enum.Enum):
    MEM_READ = "mem_read"
    MEM_WRITE = "mem_write"
    ALU = "alu"
    BRANCH_RESOLVE = "branch_resolve"
    NOP = "nop"


class ParseError(ValueError):
    """Program text rejected; carries the 1-based source line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ExpansionError(ValueError):
    pass


@dataclass(frozen=True)
class Reg:
    index: int

    def __str__(self) -> str:
        return f"r{self.index}"


@dataclass(frozen=True)
class Imm:
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Mem:
    """Address expression: absolute immediate, or register plus offset."""

    base: Reg | None
    offset: int

    def __str__(self) -> str:
        if self.base is None:
            return f"[{self.offset}]"
        if self.offset:
            sign = "+" if self.offset > 0 else "-"
            return f"[{self.base}{sign}{abs(self.offset)}]"
        return f"[{self.base}]"


@dataclass(frozen=True)
class Label:
    name: str

    def __str__(self) -> str:
        return self.name


Operand = Reg | Imm | Mem | Label
_SOURCE = (Reg, Imm)  # an alu source operand


class Opcode(enum.Enum):
    """The opcode table: every per-opcode fact, stated once. Each member's
    row gives its mnemonic (its value) and

      * `kind`: the kind of micro-op it decodes to; a rep opcode's are NOPs;
      * `shapes`: the operand types it accepts, one tuple per arity;
      * `writes`: whether operand 0 is the register it writes;
      * `target`: which operand names its branch target, None if none does.

    The registers it reads follow from these (`MacroInstruction.registers`).
    The facts are member attributes, so reading one hashes no enum member.
    """

    kind: UopKind
    shapes: tuple[tuple[type | tuple[type, ...], ...], ...]
    writes: bool
    target: int | None

    # mnemonic, kind, shapes, writes, target
    LOAD = "load", UopKind.MEM_READ, ((Reg, Mem),), True, None
    STORE = "store", UopKind.MEM_WRITE, ((Reg, Mem),), False, None
    ALU = "alu", UopKind.ALU, ((Reg, _SOURCE), (Reg, _SOURCE, _SOURCE)), True, None
    SETSHIFT = "setshift", UopKind.ALU, ((Reg, Reg, Imm),), True, None
    BRANCH = "branch", UopKind.BRANCH_RESOLVE, ((Reg, Label),), False, 1
    JUMP = "jump", UopKind.NOP, ((Label,),), False, 0
    REP_MOVS = "rep_movs", UopKind.NOP, ((Reg,),), False, None
    REP_LODS = "rep_lods", UopKind.NOP, ((Reg,),), False, None
    FENCE = "fence", UopKind.NOP, ((),), False, None
    NOP = "nop", UopKind.NOP, ((),), False, None

    def __new__(cls, mnemonic, kind, shapes, writes, target):
        member = object.__new__(cls)
        member._value_ = mnemonic
        member.kind = kind
        member.shapes = shapes
        member.writes = writes
        member.target = target
        return member


REP_OPCODES = (Opcode.REP_MOVS, Opcode.REP_LODS)


@dataclass(frozen=True)
class MacroInstruction:
    id: int
    opcode: Opcode
    operands: tuple[Operand, ...]
    label: str | None = None

    @cached_property
    def decoded(self) -> DecodedInstruction:
        """What the core reads off this instruction at every decode, worked
        out once per (immutable) instruction object. A rep opcode's source
        is its counter, read at decode; its micro-ops wait on nothing at
        dispatch."""
        reads, write = self.registers()
        return DecodedInstruction(MicroOp(self.id, 0, self.opcode.kind), reads, write)

    @cached_property
    def alu_plan(self) -> tuple[tuple[tuple[int, int], ...], int, int]:
        """((register, weight) of each register in `decoded.src`, summed
        immediate, shift) of an alu or setshift, worked out once per
        instruction object: the result is (sum of weight * register value +
        immediate) << shift. A register named twice weighs 2."""
        src = self.decoded.src
        if self.opcode is Opcode.SETSHIFT:
            return ((src[0], 1),), 0, self.operands[2].value  # type: ignore[union-attr]
        sources = self.operands[1:]
        named = [op.index for op in sources if isinstance(op, Reg)]
        return (
            tuple((reg, named.count(reg)) for reg in src),
            sum(op.value for op in sources if isinstance(op, Imm)),
            0,
        )

    @cached_property
    def mem_plan(self) -> tuple[int | None, int]:
        """(position of the base register in `decoded.src`, None without
        one; offset) of a load or store, whose address is their sum."""
        mem = self.operands[1]
        assert isinstance(mem, Mem)
        if mem.base is None:
            return None, mem.offset
        return self.decoded.src.index(mem.base.index), mem.offset

    def registers(self) -> tuple[tuple[int, ...], int | None]:
        """(registers read, register written): operand 0 when the opcode
        writes it; every other register operand and every address base is
        read, deduplicated in operand order."""
        operands = self.operands
        writes = self.opcode.writes
        reads = []
        for op in operands[1:] if writes else operands:
            if isinstance(op, Reg):
                reads.append(op.index)
            elif isinstance(op, Mem) and op.base is not None:
                reads.append(op.base.index)
        write = operands[0].index if writes else None  # type: ignore[union-attr]
        return tuple(dict.fromkeys(reads)), write

    def target_label(self) -> str | None:
        at = self.opcode.target
        return None if at is None else self.operands[at].name  # type: ignore[union-attr]


class MicroOp(NamedTuple):
    parent: int  # id of the owning macro instruction
    seq: int  # position within the expansion
    kind: UopKind


class DecodedInstruction(NamedTuple):
    uop: MicroOp  # its first micro-op; a rep opcode's are NOPs
    src: tuple[int, ...]  # registers whose producers it waits on at dispatch
    dest: int | None  # register it writes


@dataclass
class Program:
    instructions: list[MacroInstruction]
    labels: dict[str, int] = field(default_factory=dict)
    data_init: dict[int, int] = field(default_factory=dict)
    warm: tuple[int, ...] = ()  # lines made resident before cycle 0, in order
    flush: tuple[int, ...] = ()  # lines evicted after every warm line
    predict: dict[str, bool] = field(default_factory=dict)  # branch label -> taken

    def __len__(self) -> int:
        return len(self.instructions)

    @cached_property
    def targets(self) -> tuple[int | None, ...]:
        """Resolved branch or jump target of each instruction id, None for
        other opcodes: the one place a target label is looked up, read by
        the core and by robsim.analysis alike. Resolved once per program
        object, after validate() passes, so derive an edited program with
        dataclasses.replace, never in place. `parse_program` stores the
        targets it resolves while checking labels, and an `overlay` shares
        this program's instruction list and labels, so it keeps these
        targets; neither resolves and validates again, and an overlay
        checks only the entries it adds."""
        self.validate()
        names = (instr.target_label() for instr in self.instructions)
        return tuple(None if name is None else self.labels[name] for name in names)

    @cached_property
    def analyses(self) -> dict:
        """What robsim.analysis and robsim.scenarios derive from the
        instructions and labels alone (the CFG, safe sets and path
        profiles), each kept under a key of its own on first use. Plain
        data that never refers back to a program, so a finished run leaves
        no reference cycle. An `overlay` shares this dict, as it shares
        `targets`, so every overlay of a program shares one analysis."""
        return {}

    def overlay(self, *, data_init: Mapping[int, int], predict: Mapping[str, bool]) -> Program:
        """This program with `data_init` and `predict` entries added or
        replaced. It shares the instruction list, labels, resolved targets
        and analyses; only the added entries are checked."""
        for addr in data_init:
            if not 0 <= addr < ADDRESS_SPACE:
                raise ValueError(f"data address {addr:#x} outside address space")
        for name in predict:
            if problem := self.predict_problem(name):
                raise ValueError(problem)
        program = replace(
            self,
            data_init={**self.data_init, **data_init},
            predict={**self.predict, **predict},
        )
        # as the cached properties themselves keep them
        program.__dict__.update(targets=self.targets, analyses=self.analyses)
        return program

    def validate(self) -> None:
        for i, instr in enumerate(self.instructions):
            if instr.id != i:
                raise ValueError(f"instruction ids not dense at {instr.id}")
            name = instr.target_label()
            if name is not None and name not in self.labels:
                raise ValueError(f"unresolved label {name!r} in instruction {i}")
            for op in instr.operands:
                if isinstance(op, Mem) and op.base is None and not 0 <= op.offset < ADDRESS_SPACE:
                    raise ValueError(
                        f"address {op.offset:#x} outside address space in instruction {i}"
                    )
        for kind, addrs in (("data", self.data_init), ("warm", self.warm), ("flush", self.flush)):
            for addr in addrs:
                if not 0 <= addr < ADDRESS_SPACE:
                    raise ValueError(f"{kind} address {addr:#x} outside address space")
        for name in self.predict:
            if problem := self.predict_problem(name):
                raise ValueError(problem)

    def predict_problem(self, name: str) -> str | None:
        """Why `.predict name` cannot apply to this program, or None."""
        at = self.labels.get(name)
        if at is None:
            return f"unresolved label {name!r} in .predict"
        opcode = self.instructions[at].opcode
        if opcode is not Opcode.BRANCH:
            return f".predict label {name!r} names a {opcode.value}, not a branch"
        return None


_OPCODE_BY_MNEMONIC = {op.value: op for op in Opcode}

def _parse_int(text: str, line_no: int) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise ParseError(line_no, f"expected integer, got {text!r}") from None


def _parse_address(text: str, line_no: int) -> int:
    addr = _parse_int(text, line_no)
    if not 0 <= addr < ADDRESS_SPACE:
        raise ParseError(line_no, f"address {addr:#x} outside address space")
    return addr


def _parse_reg(text: str, line_no: int) -> Reg:
    t = text.strip().lower()
    if not t.startswith("r") or not t[1:].isdigit():
        raise ParseError(line_no, f"expected register, got {text!r}")
    return Reg(int(t[1:]))


def _parse_operand(text: str, line_no: int) -> Operand:
    t = text.strip()
    if not t:
        raise ParseError(line_no, "empty operand")
    if t.startswith("["):
        if not t.endswith("]"):
            raise ParseError(line_no, f"unterminated address {t!r}")
        inner = t[1:-1].strip()
        for sign in ("+", "-"):
            if sign in inner[1:]:
                base_txt, off_txt = inner.split(sign, 1)
                base = _parse_reg(base_txt, line_no)
                off = _parse_int(off_txt.strip(), line_no)
                return Mem(base, off if sign == "+" else -off)
        if inner.lower().startswith("r") and inner[1:].isdigit():
            return Mem(_parse_reg(inner, line_no), 0)
        return Mem(None, _parse_address(inner, line_no))
    if t.lower().startswith("r") and t[1:].isdigit():
        return Reg(int(t[1:]))
    if t[0].isdigit() or t[0] in "+-":
        return Imm(_parse_int(t, line_no))
    return Label(t)


def _check_operands(op: Opcode, operands: tuple[Operand, ...], line_no: int) -> None:
    for shape in op.shapes:
        if len(shape) == len(operands):
            break
    else:
        counts = " or ".join(str(len(shape)) for shape in op.shapes)
        raise ParseError(line_no, f"{op.value} takes {counts} operand(s)")
    for at, (got, want) in enumerate(zip(operands, shape)):
        if not isinstance(got, want):
            if at == 0 and op.writes:
                raise ParseError(line_no, f"{op.value} destination must be a register")
            raise ParseError(line_no, f"bad operand {got} for {op.value}")


def parse_program(text: str) -> Program:
    """Parse assembly text into a Program.

    Grammar (see docs/program_format.md for the full EBNF): one statement per
    line; `#` starts a comment; a line that starts with `.` and holds no `:`
    is a directive (`.data ADDR VALUE`, `.warm ADDR`, `.flush ADDR`,
    `.predict LABEL taken|not_taken`); `label:` may prefix an instruction or
    stand alone, attaching to the next instruction.
    """
    instructions: list[MacroInstruction] = []
    instr_lines: list[int] = []  # source line of each instruction
    labels: dict[str, int] = {}
    data_init: dict[int, int] = {}
    warm: list[int] = []
    flush: list[int] = []
    predict: dict[str, bool] = {}
    predict_lines: dict[str, int] = {}  # source line of each .predict
    pending_label: str | None = None
    pending_line = 0
    # statement text after any label -> its opcode and (frozen) operands:
    # repeated text parses and is checked once, and shares one tuple
    statements: dict[str, tuple[Opcode, tuple[Operand, ...]]] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith(".") and ":" not in line:
            directive, *args = line.split()
            if directive == ".data":
                if len(args) != 2:
                    raise ParseError(line_no, ".data takes an address and a value")
                data_init[_parse_address(args[0], line_no)] = _parse_int(args[1], line_no)
            elif directive in (".warm", ".flush"):
                if len(args) != 1:
                    raise ParseError(line_no, f"{directive} takes an address")
                (warm if directive == ".warm" else flush).append(_parse_address(args[0], line_no))
            elif directive == ".predict":
                if len(args) != 2 or args[1] not in ("taken", "not_taken"):
                    raise ParseError(line_no, ".predict takes a label and taken or not_taken")
                if args[0] in predict:
                    raise ParseError(line_no, f"duplicate .predict for {args[0]!r}")
                predict[args[0]] = args[1] == "taken"
                predict_lines[args[0]] = line_no
            else:
                raise ParseError(line_no, f"unknown directive {directive!r}")
            continue
        label: str | None = None
        if ":" in line:
            label_txt, rest = line.split(":", 1)
            label = label_txt.strip()
            if not label or any(c.isspace() for c in label):
                raise ParseError(line_no, f"bad label {label_txt!r}")
            line = rest.strip()
        if label is not None:
            if label in labels or label == pending_label:
                raise ParseError(line_no, f"duplicate label {label!r}")
            if pending_label is not None:
                raise ParseError(line_no, f"label {pending_label!r} already pending")
            if not line:
                pending_label = label
                pending_line = line_no
                continue
        if pending_label is not None:
            label = pending_label
            pending_label = None
        statement = statements.get(line)
        if statement is None:
            fields = line.split(None, 1)
            mnemonic = fields[0].lower()
            opcode = _OPCODE_BY_MNEMONIC.get(mnemonic)
            if opcode is None:
                raise ParseError(line_no, f"unknown opcode {mnemonic!r}")
            operand_txt = fields[1] if len(fields) > 1 else ""
            operands = tuple(
                _parse_operand(piece, line_no)
                for piece in operand_txt.split(",")
                if piece.strip()
            ) if operand_txt.strip() else ()
            _check_operands(opcode, operands, line_no)
            statement = statements[line] = opcode, operands
        opcode, operands = statement
        idx = len(instructions)
        if label is not None:
            labels[label] = idx
        instructions.append(MacroInstruction(idx, opcode, operands, label))
        instr_lines.append(line_no)

    if pending_label is not None:
        raise ParseError(pending_line, f"label {pending_label!r} has no instruction")

    program = Program(instructions, labels, data_init, tuple(warm), tuple(flush), predict)
    targets: list[int | None] = []
    for instr, line_no in zip(instructions, instr_lines):
        name = instr.target_label()
        if name is None:
            targets.append(None)
        elif (target := labels.get(name)) is None:
            raise ParseError(
                line_no, f"unresolved label {name!r} in instruction {instr.id}"
            )
        else:
            targets.append(target)
    for name, line_no in predict_lines.items():
        if problem := program.predict_problem(name):
            raise ParseError(line_no, problem)
    # every check validate() makes is made above with a line number, so the
    # targets resolved here are stored as `targets` itself caches them
    program.__dict__["targets"] = tuple(targets)
    return program


def print_program(program: Program) -> str:
    """Canonical text form; parse_program(print_program(p)) reproduces p."""
    lines = [f".data {addr} {val}" for addr, val in sorted(program.data_init.items())]
    lines += [f".warm {addr}" for addr in program.warm]
    lines += [f".flush {addr}" for addr in program.flush]
    lines += [
        f".predict {name} {'taken' if taken else 'not_taken'}"
        for name, taken in program.predict.items()
    ]
    for instr in program.instructions:
        body = instr.opcode.value
        if instr.operands:
            body += " " + ", ".join(str(op) for op in instr.operands)
        if instr.label is not None:
            lines.append(f"{instr.label}: {body}")
        else:
            lines.append(f"    {body}")
    return "\n".join(lines) + "\n"


def rep_expansion_count(opcode: Opcode, counter_value: int) -> int:
    """Requested micro-op count for a rep opcode at counter value n (uncapped)."""
    n = max(counter_value, 0)
    if opcode == Opcode.REP_MOVS:
        return 2 * n
    if opcode == Opcode.REP_LODS:
        return 5 * n + 12
    raise ExpansionError(f"{opcode.value} is not a rep opcode")
