from __future__ import annotations

from dataclasses import dataclass, field

import pytest

from robsim.analysis import BalanceError
from robsim.cache import CacheConfig, CacheState
from robsim.defenses import (
    DefenseMode,
    DefensePolicy,
    Mitigation,
    certify_balanced,
    dom_gate,
    esp_check,
    osp_reached,
)
from robsim.isa import parse_program


@dataclass
class Entry:
    instr: int
    rob_seq: int
    shadow: int | None = None
    complete: bool = False
    osp: bool = False
    address: int | None = None
    producers: tuple = field(default=())


def sets_of(*pairs: tuple[int, frozenset[int]]) -> dict[int, frozenset[int]]:
    return dict(pairs)


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
    with pytest.raises(ValueError, match="safe_sets"):
        DefensePolicy(mode=DefenseMode.DOM_PLUS_INVARSPEC)
    ok = DefensePolicy(mode=DefenseMode.DOM_PLUS_INVARSPEC, safe_sets=sets_of())
    assert ok.lifts_invariant and ok.gates_loads


def test_policy_requires_balance_certificate():
    with pytest.raises(ValueError, match="certificate"):
        DefensePolicy(mitigations=frozenset({Mitigation.PATH_BALANCING}))


def test_dom_gate_resident_line_executes_deferred():
    cache = CacheState(CacheConfig())
    cache.warm(40)
    entry = Entry(instr=0, rob_seq=0, shadow=5, address=40)
    assert dom_gate(entry, cache) is True


def test_dom_gate_absent_line_delays():
    cache = CacheState(CacheConfig())
    entry = Entry(instr=0, rob_seq=0, shadow=5, address=40)
    assert dom_gate(entry, cache) is False


def test_osp_base_case_unshadowed_complete():
    e = Entry(instr=0, rob_seq=0, shadow=None, complete=True)
    assert osp_reached(e, [e], None)
    assert e.osp  # sticky


def test_osp_requires_a_produced_result():
    # Operands may be fully determined; until the value exists the entry
    # is only OSP-eligible. A branch is never OSP before resolving.
    e = Entry(instr=0, rob_seq=0, shadow=None, complete=False)
    assert not osp_reached(e, [e], None)


def test_osp_blocked_by_incomplete_producer():
    producer = Entry(instr=0, rob_seq=0, shadow=3, complete=False)
    consumer = Entry(
        instr=1, rob_seq=1, shadow=3, complete=True, producers=(producer,)
    )
    assert not osp_reached(consumer, [producer, consumer], sets_of())


def test_osp_shadowed_complete_with_settled_sources():
    producer = Entry(instr=0, rob_seq=0, shadow=None, complete=True)
    consumer = Entry(
        instr=1, rob_seq=1, shadow=3, complete=True, producers=(producer,)
    )
    ss = sets_of((1, frozenset({0})))
    assert osp_reached(consumer, [producer, consumer], ss)
    assert consumer.osp and producer.osp


def test_osp_member_without_instance_is_settled():
    consumer = Entry(instr=4, rob_seq=9, shadow=2, complete=True)
    ss = sets_of((4, frozenset({1})))  # instr 1 already committed and gone
    assert osp_reached(consumer, [consumer], ss)


def test_esp_empty_safe_set_reached_at_dispatch():
    e = Entry(instr=7, rob_seq=3, shadow=1, complete=False)
    assert esp_check(e, sets_of((7, frozenset())), [e]) is True
    assert esp_check(e, None, [e]) is True  # no analysis: nothing to wait for


def test_esp_waits_for_member_osp():
    branch = Entry(instr=2, rob_seq=2, shadow=None, complete=False)
    target = Entry(instr=5, rob_seq=5, shadow=2, complete=False)
    ss = sets_of((5, frozenset({2})))
    assert esp_check(target, ss, [branch, target]) is False
    branch.complete = True  # resolution
    assert esp_check(target, ss, [branch, target]) is True


def test_esp_absent_member_is_settled():
    target = Entry(instr=5, rob_seq=5, shadow=2, complete=False)
    assert esp_check(target, sets_of((5, frozenset({1}))), [target]) is True


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


def test_certify_balanced_rejects_variable_paths():
    text = LOPSIDED.replace("alu r2, r2, 1", "rep_movs r2")
    with pytest.raises(BalanceError, match="variable"):
        certify_balanced(parse_program(text), 0)
