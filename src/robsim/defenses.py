"""Defense policies consulted by the core at issue and decode time.

Three modes: unprotected (no gating), dom (delay-on-miss: shadowed loads
execute only on an L1 hit, with replacement effects deferred to commit),
and dom_plus_invarspec (dom plus invariance lifting: once every safe-set
member of an instruction reaches its outcome-safe point, the gate is
bypassed for it).

OSP here requires the member to have actually produced its result. An
instruction whose operands are determined but not yet computed is
OSP-eligible, not OSP; a branch in particular reaches OSP no earlier than
its resolution. Lifting keyed on anything weaker would reopen the leak
that the conservative safe-set filter exists to close.

Mitigations are orthogonal toggles. conservative_invariance and
path_balancing act at analysis time (the policy only records them and,
for balancing, demands a certificate). operand_independent_fill acts at
decode: a REP whose counter is still in flight expands to a fixed
predicted count instead of stalling for the bypassed value, and a
mismatch discovered at verification squashes and re-expands.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Protocol

from .analysis import BalanceError, analyze_all_branches
from .isa import DEFAULT_EXPANSION_CAP, Program


REP_PREDICTED_COUNT = 8  # micro-ops an operand_independent_fill REP emits


class DefenseMode(Enum):
    UNPROTECTED = "unprotected"
    DOM = "dom"
    DOM_PLUS_INVARSPEC = "dom_plus_invarspec"


class Mitigation(Enum):
    CONSERVATIVE_INVARIANCE = "conservative_invariance"
    PATH_BALANCING = "path_balancing"
    OPERAND_INDEPENDENT_FILL = "operand_independent_fill"


@dataclass(frozen=True)
class BalanceCertificate:
    """Witness that one branch has equal fixed-length directions."""

    branch: int
    uops: int  # micro-ops on each side


def certify_balanced(
    program: Program, branch: int, cap: int = DEFAULT_EXPANSION_CAP
) -> BalanceCertificate:
    """Certify that both directions of `branch` carry the same fixed
    micro-op count below the expansion cap `cap` (the secret-selected
    branch after a balance_paths rewrite); raise otherwise."""
    profile = analyze_all_branches(program, cap)[branch]
    if profile.min_uops != profile.max_uops or profile.max_uops >= cap:
        raise BalanceError(
            f"branch {branch}: paths are {profile.min_uops}/{profile.max_uops} uops"
            f"{' (variable)' if profile.variable else ''} at expansion cap {cap}; "
            "run balance_paths first"
        )
    return BalanceCertificate(branch, profile.min_uops)


@dataclass(frozen=True)
class DefensePolicy:
    mode: DefenseMode = DefenseMode.UNPROTECTED
    mitigations: frozenset[Mitigation] = frozenset()
    safe_sets: Mapping[int, int] | None = None  # bit m of [i]: m in i's safe set
    balance_certificate: BalanceCertificate | None = None

    def __post_init__(self) -> None:
        if self.mode is DefenseMode.DOM_PLUS_INVARSPEC and self.safe_sets is None:
            raise ValueError("dom_plus_invarspec requires safe_sets")
        for instr, members in (self.safe_sets or {}).items():
            if type(members) is not int or members < 0:
                got = members if type(members) is int else type(members).__name__
                raise ValueError(
                    f"safe_sets[{instr}] must be a non-negative int bitmask, got {got}"
                )
        if (
            Mitigation.PATH_BALANCING in self.mitigations
            and self.balance_certificate is None
        ):
            raise ValueError("path_balancing requires a balance certificate")

    @property
    def gates_loads(self) -> bool:
        return self.mode is not DefenseMode.UNPROTECTED

    @property
    def lifts_invariant(self) -> bool:
        return self.mode is DefenseMode.DOM_PLUS_INVARSPEC

    @property
    def predicted_fill(self) -> bool:
        return Mitigation.OPERAND_INDEPENDENT_FILL in self.mitigations


class RobEntryView(Protocol):
    """What the gates need to know about an in-flight entry.

    Callers pass the live ROB as an iterable ordered oldest-first (the
    core passes its deque); rob_seq is the global dispatch sequence number
    that order follows.
    """

    instr: int
    rob_seq: int
    complete: bool
    osp: bool
    producers: tuple["RobEntryView", ...]


def osp_reached(
    entry: RobEntryView,
    rob: Iterable[RobEntryView],
    safe_sets: Mapping[int, int] | None,
    oldest: int | None,
) -> bool:
    """True once the entry's result exists and can no longer change.

    `oldest` is the rob_seq of the oldest unresolved speculation source, or
    None; an entry is shadowed when that source is older than it. Complete
    and unshadowed is the base case. A shadowed complete entry qualifies
    once it has reached ESP itself (`esp_check`) and every value producer
    has reached OSP. The flag is sticky: squash removes the entry outright,
    so it never reverts.
    """
    if entry.osp:
        return True
    if not entry.complete:
        return False
    if oldest is None or entry.rob_seq <= oldest:
        entry.osp = True
        return True
    if not esp_check(entry, safe_sets, rob, oldest):
        return False
    for producer in entry.producers:
        if not osp_reached(producer, rob, safe_sets, oldest):
            return False
    entry.osp = True
    return True


def esp_check(
    entry: RobEntryView,
    safe_sets: Mapping[int, int] | None,
    rob: Iterable[RobEntryView],
    oldest: int | None,
) -> bool:
    """Execution-safe point: every older in-flight instance of a safe-set
    member at OSP; a member with no in-flight instance is settled
    (committed or off-path). `safe_sets` maps an instruction to its safe
    set as a bitmask, bit m set when instruction m is a member. `oldest`
    is the rob_seq of the oldest unresolved speculation source, or None,
    which decides whether each member is shadowed (`osp_reached`).

    An empty safe set reaches ESP immediately; the gate bypass this
    enables for bound-to-commit instructions is the lever the whole
    contention channel rests on.
    """
    members = None if safe_sets is None else safe_sets.get(entry.instr)
    if not members:
        return True
    for other in rob:
        if other.rob_seq >= entry.rob_seq:
            break
        if members >> other.instr & 1 and not osp_reached(other, rob, safe_sets, oldest):
            return False
    return True


__all__ = [
    "BalanceCertificate",
    "DefenseMode",
    "DefensePolicy",
    "Mitigation",
    "REP_PREDICTED_COUNT",
    "certify_balanced",
    "esp_check",
    "osp_reached",
]
