from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robsim.isa import (
    ADDRESS_SPACE,
    Imm,
    Mem,
    Opcode,
    ParseError,
    Reg,
    parse_program,
    print_program,
    rep_expansion_count,
)

GUARDED_LOAD = """\
# if (cond) { si = load i; }  a = load si;  b = load j;
    branch r1, then
    jump after
then: load r2, [16]
after: load r3, [r2]
    load r4, [32]
"""


def test_parse_guarded_load_program():
    prog = parse_program(GUARDED_LOAD)
    assert len(prog) == 5
    assert [i.opcode for i in prog.instructions] == [
        Opcode.BRANCH,
        Opcode.JUMP,
        Opcode.LOAD,
        Opcode.LOAD,
        Opcode.LOAD,
    ]
    assert prog.labels == {"then": 2, "after": 3}
    assert prog.targets[0] == 2
    assert prog.instructions[3].operands == (Reg(3), Mem(Reg(2), 0))


def test_parse_run_setup_directives():
    prog = parse_program(
        """
        .warm 8
        .warm 0x48
        .flush 40
        .predict gate taken
        .predict window not_taken
        window: branch r1, out
        gate: branch r2, out
        out: nop
        """
    )
    assert prog.warm == (8, 72)
    assert prog.flush == (40,)
    assert prog.predict == {"gate": True, "window": False}
    assert print_program(prog).splitlines()[:5] == [
        ".warm 8",
        ".warm 72",
        ".flush 40",
        ".predict gate taken",
        ".predict window not_taken",
    ]


def test_parse_data_directive_and_operand_shapes():
    prog = parse_program(
        """
        .data 0x10 7
        .data 33 -1
        loop: alu r1, r1, 1
        store r1, [r2+8]
        load r5, [r2-4]
        setshift r6, r1, 10
        branch r1, loop
        """
    )
    assert prog.data_init == {16: 7, 33: -1}
    assert prog.instructions[1].operands == (Reg(1), Mem(Reg(2), 8))
    assert prog.instructions[2].operands == (Reg(5), Mem(Reg(2), -4))
    assert prog.instructions[3].operands == (Reg(6), Reg(1), Imm(10))
    assert prog.targets[4] == 0


def test_repeated_operand_text_parses_once():
    prog = parse_program("alu r3, r3, 1\nalu r3, r3, 1\nalu r3,r3,1\nalu r3, r3, 2")
    first, again, respaced, other = (i.operands for i in prog.instructions)
    assert again is first
    assert respaced == first and other != first


def test_overlay_shares_the_program_and_checks_what_it_adds():
    prog = parse_program("gate: branch r1, gate\nnop: nop\n.data 8 0")
    over = prog.overlay(data_init={8: 1, 9: 2}, predict={"gate": True})
    assert over.instructions is prog.instructions and over.labels is prog.labels
    assert over.targets is prog.targets
    assert (over.data_init, over.predict) == ({8: 1, 9: 2}, {"gate": True})
    assert (prog.data_init, prog.predict) == ({8: 0}, {})
    with pytest.raises(ValueError, match="outside address space"):
        prog.overlay(data_init={ADDRESS_SPACE: 1}, predict={})
    with pytest.raises(ValueError, match="names a nop, not a branch"):
        prog.overlay(data_init={}, predict={"nop": True})


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("frob r1", "unknown opcode"),
        ("branch r1, nowhere", "unresolved label"),
        ("nop\nbranch r1, nowhere", "line 2: unresolved label"),
        ("x: nop\nx: nop", "duplicate label"),
        ("load r1", "2 operand"),
        ("alu 4, r1", "destination must be a register"),
        ("dangling:", "no instruction"),
        (".data 1", ".data takes"),
        (".datafoo 8 1", "unknown directive '.datafoo'"),
        ("nop\n.data 2000000 1", "line 2: address 0x1e8480 outside address space"),
        (".warm 2000000", "outside address space"),
        (".flush -1", "outside address space"),
        (".warm", ".warm takes an address"),
        (".predict b sideways\nb: branch r1, b", ".predict takes a label and taken or not_taken"),
        ("nop\n.predict nowhere taken", "line 2: unresolved label 'nowhere' in .predict"),
        ("x: nop\n.predict x taken", "line 2: .predict label 'x' names a nop, not a branch"),
        (".predict b taken\n.predict b not_taken\nb: branch r1, b", "line 2: duplicate .predict"),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_program(text)
    assert fragment in str(exc.value)
    assert "line" in str(exc.value)


def test_rep_movs_expansion_formula():
    # measured decoder behavior: rep movs issues 2 micro-ops per iteration
    assert rep_expansion_count(Opcode.REP_MOVS, 1024) == 2048
    assert rep_expansion_count(Opcode.REP_MOVS, 1) == 2
    assert rep_expansion_count(Opcode.REP_MOVS, 0) == 0


def test_rep_lods_expansion_formula():
    # measured decoder behavior: 5 per iteration plus a fixed 12-op preamble
    assert rep_expansion_count(Opcode.REP_LODS, 0) == 12
    assert rep_expansion_count(Opcode.REP_LODS, 1) == 17
    assert rep_expansion_count(Opcode.REP_LODS, 100) == 512


@pytest.mark.parametrize("n", [0, 1, 7, 100])
def test_expansion_formulas_fixed_points(n):
    assert rep_expansion_count(Opcode.REP_MOVS, n) == 2 * n
    assert rep_expansion_count(Opcode.REP_LODS, n) == 5 * n + 12


@st.composite
def random_programs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    opcodes = draw(
        st.lists(
            st.sampled_from(
                [
                    Opcode.LOAD,
                    Opcode.STORE,
                    Opcode.ALU,
                    Opcode.SETSHIFT,
                    Opcode.BRANCH,
                    Opcode.JUMP,
                    Opcode.REP_MOVS,
                    Opcode.REP_LODS,
                    Opcode.FENCE,
                    Opcode.NOP,
                ]
            ),
            min_size=n,
            max_size=n,
        )
    )
    lines = [f"l{i}: nop" for i in range(n)]  # ensure every label exists
    for i, op in enumerate(opcodes):
        target = f"l{draw(st.integers(min_value=0, max_value=n - 1))}"
        reg = f"r{draw(st.integers(min_value=0, max_value=7))}"
        reg2 = f"r{draw(st.integers(min_value=0, max_value=7))}"
        imm = draw(st.integers(min_value=-64, max_value=64))
        body = {
            Opcode.LOAD: f"load {reg}, [{reg2}+{abs(imm)}]",
            Opcode.STORE: f"store {reg}, [{abs(imm)}]",
            Opcode.ALU: f"alu {reg}, {reg2}, {imm}",
            Opcode.SETSHIFT: f"setshift {reg}, {reg2}, {abs(imm)}",
            Opcode.BRANCH: f"branch {reg}, {target}",
            Opcode.JUMP: f"jump {target}",
            Opcode.REP_MOVS: f"rep_movs {reg}",
            Opcode.REP_LODS: f"rep_lods {reg}",
            Opcode.FENCE: "fence",
            Opcode.NOP: "nop",
        }[op]
        lines[i] = f"l{i}: {body}"
    if draw(st.booleans()):
        lines.insert(0, f".data {draw(st.integers(min_value=0, max_value=99))} {imm}")
    for directive in (".warm", ".flush"):
        for addr in draw(st.lists(st.integers(min_value=0, max_value=99), max_size=3)):
            lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), f"{directive} {addr}")
    branches = [f"l{i}" for i, op in enumerate(opcodes) if op is Opcode.BRANCH]
    for label in draw(st.sets(st.sampled_from(branches))) if branches else ():
        direction = draw(st.sampled_from(["taken", "not_taken"]))
        lines.append(f".predict {label} {direction}")
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(random_programs())
def test_print_parse_roundtrip(text):
    prog = parse_program(text)
    printed = print_program(prog)
    reparsed = parse_program(printed)
    assert reparsed.instructions == prog.instructions
    assert reparsed.labels == prog.labels
    assert reparsed.data_init == prog.data_init
    assert reparsed == prog
    assert print_program(reparsed) == printed
