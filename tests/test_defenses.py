from __future__ import annotations

from dataclasses import dataclass

import pytest

from robsim.analysis import BalanceError, compute_safe_sets, conservative_filter
from robsim.defenses import (
    DefenseMode,
    DefensePolicy,
    Mitigation,
    certify_balanced,
    esp_check,
    osp_reached,
)
from robsim.isa import MacroInstruction, Opcode, parse_program
from robsim.scenarios import ProgramAnalysis


@dataclass
class Entry:
    """Exactly the fields of an in-flight entry the gates read."""

    macro: MacroInstruction
    rob_seq: int
    complete_cycle: int | None = None
    osp: bool = False


def make_entry(instr: int, rob_seq: int, complete: bool = False) -> Entry:
    macro = MacroInstruction(instr, Opcode.NOP, ())
    return Entry(macro, rob_seq, 0 if complete else None)


def sets_of(*pairs: tuple[int, set[int]]) -> dict[int, int]:
    """Safe sets as the bitmasks the gates read, from (instr, members) pairs."""
    return {instr: sum(1 << m for m in members) for instr, members in pairs}


def test_mode_and_mitigation_names_match_cli_vocabulary():
    assert [m.value for m in DefenseMode] == [
        "unprotected",
        "dom",
        "dom_plus_invarspec",
    ]
    assert [m.value for m in Mitigation] == [
        "conservative_invariance",
        "path_balancing",
        "operand_independent_fill",
    ]


def test_policy_requires_safe_sets_for_lifting():
    with pytest.raises(ValueError, match="analysis"):
        DefensePolicy(mode=DefenseMode.DOM_PLUS_INVARSPEC)
    program = parse_program(LOPSIDED)
    ok = DefensePolicy(DefenseMode.DOM_PLUS_INVARSPEC, analysis=ProgramAnalysis(program, 64))
    assert ok.lifts_invariant and ok.gates_loads
    assert ok.safe_sets == compute_safe_sets(program)


def test_policy_takes_no_safe_sets():
    with pytest.raises(TypeError, match="safe_sets"):
        DefensePolicy(mode=DefenseMode.DOM_PLUS_INVARSPEC, safe_sets=sets_of())


def test_policy_filters_derived_safe_sets_under_conservative_invariance():
    analysis = ProgramAnalysis(parse_program(LOPSIDED), 64)
    conservative = frozenset({Mitigation.CONSERVATIVE_INVARIANCE})
    policy = DefensePolicy(DefenseMode.DOM_PLUS_INVARSPEC, conservative, analysis)
    filtered = conservative_filter(analysis.safe_sets, analysis.profiles, len(analysis.program))
    assert policy.safe_sets == filtered != analysis.safe_sets
    # a policy that never lifts has no safe sets, whatever it is given
    assert DefensePolicy(DefenseMode.DOM, analysis=analysis).safe_sets is None


def test_policy_requires_balance_certificate():
    with pytest.raises(ValueError, match="certificate"):
        DefensePolicy(mitigations=frozenset({Mitigation.PATH_BALANCING}))


def test_osp_base_case_unshadowed_complete():
    e = make_entry(instr=0, rob_seq=0, complete=True)
    assert osp_reached(e, [e], sets_of(), None)
    assert e.osp  # sticky


def test_osp_requires_a_produced_result():
    # Operands may be fully determined; until the value exists the entry
    # is only OSP-eligible. A branch is never OSP before resolving.
    e = make_entry(instr=0, rob_seq=0, complete=False)
    assert not osp_reached(e, [e], sets_of(), None)


def test_osp_base_case_covers_the_oldest_source_itself():
    # a complete predicted-REP micro-op that is the oldest unresolved source
    # is not in its own shadow, so its in-flight counter does not hold it
    counter = make_entry(instr=0, rob_seq=2, complete=False)
    source = make_entry(instr=1, rob_seq=3, complete=True)
    assert osp_reached(source, [counter, source], sets_of((1, {0})), 3)


def test_osp_blocked_by_incomplete_producer():
    # the unresolved source at rob_seq 0 shadows both; the producer is in
    # its consumer's safe set, as the analysis puts every reaching definition
    producer = make_entry(instr=0, rob_seq=1, complete=False)
    consumer = make_entry(instr=1, rob_seq=2, complete=True)
    assert not osp_reached(consumer, [producer, consumer], sets_of((1, {0})), 0)


def test_osp_shadowed_complete_with_settled_sources():
    # the producer is older than the unresolved source at rob_seq 1
    producer = make_entry(instr=0, rob_seq=0, complete=True)
    consumer = make_entry(instr=1, rob_seq=2, complete=True)
    ss = sets_of((1, frozenset({0})))
    assert osp_reached(consumer, [producer, consumer], ss, 1)
    assert consumer.osp and producer.osp


def test_osp_member_without_instance_is_settled():
    consumer = make_entry(instr=4, rob_seq=9, complete=True)
    ss = sets_of((4, frozenset({1})))  # instr 1 already committed and gone
    assert osp_reached(consumer, [consumer], ss, 2)


def test_esp_empty_safe_set_reached_at_dispatch():
    e = make_entry(instr=7, rob_seq=3, complete=False)
    assert esp_check(e, sets_of((7, frozenset())), [e], 1) is True


def test_esp_waits_for_member_osp():
    branch = make_entry(instr=2, rob_seq=2, complete=False)
    target = make_entry(instr=5, rob_seq=5, complete=False)
    ss = sets_of((5, frozenset({2})))
    assert esp_check(target, ss, [branch, target], 2) is False
    branch.complete_cycle = 4  # resolution: no source is left unresolved
    assert esp_check(target, ss, [branch, target], None) is True


def test_esp_absent_member_is_settled():
    target = make_entry(instr=5, rob_seq=5, complete=False)
    assert esp_check(target, sets_of((5, frozenset({1}))), [target], 2) is True


BALANCED = """
branch r1, right
alu r2, r2, 1
alu r2, r2, 1
jump join
right:
alu r3, r3, 1
alu r3, r3, 1
alu r3, r3, 1
join:
nop
"""

LOPSIDED = """
branch r1, right
alu r2, r2, 1
jump join
right:
alu r3, r3, 1
alu r3, r3, 1
alu r3, r3, 1
join:
nop
"""


def test_certify_balanced_issues_certificate():
    cert = certify_balanced(parse_program(BALANCED), 0)
    assert (cert.branch, cert.uops) == (0, 3)
    policy = DefensePolicy(
        mitigations=frozenset({Mitigation.PATH_BALANCING}),
        balance_certificate=cert,
    )
    assert Mitigation.PATH_BALANCING in policy.mitigations


def test_certify_balanced_rejects_unequal_paths():
    with pytest.raises(BalanceError, match="2/3"):
        certify_balanced(parse_program(LOPSIDED), 0)


def test_certify_balanced_refuses_counts_at_the_cap():
    # 3 micro-ops a side: exact below a cap of 4, saturated at a cap of 3
    assert certify_balanced(parse_program(BALANCED), 0, cap=4).uops == 3
    with pytest.raises(BalanceError, match="3/3 uops at expansion cap 3;"):
        certify_balanced(parse_program(BALANCED), 0, cap=3)


def test_certify_balanced_rejects_variable_paths():
    text = LOPSIDED.replace("alu r2, r2, 1", "rep_movs r2")
    with pytest.raises(BalanceError, match="variable"):
        certify_balanced(parse_program(text), 0)
