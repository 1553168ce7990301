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

Safe sets are never supplied: a lifting policy derives them from the
`ProgramAnalysis` of the program it runs, which `Simulator` checks. A
derived set holds each reaching definition of the instruction's sources
and is transitively closed; conservative_filter only adds to it. So each
in-flight register producer of an entry is an older instance of a member,
which `esp_check` already holds at OSP, and OSP walks no producers.

Mitigations are orthogonal toggles. conservative_invariance widens the
derived safe sets; path_balancing rewrites the program before it is
analyzed (the policy demands a certificate). operand_independent_fill acts at
decode: a REP whose counter is still in flight expands to a fixed
predicted count instead of stalling for the bypassed value, and a
mismatch discovered at verification squashes and re-expands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Mapping, Protocol

from .analysis import BalanceError, analyze_all_branches, conservative_filter
from .isa import DEFAULT_EXPANSION_CAP, MacroInstruction, Program

if TYPE_CHECKING:
    from .scenarios import ProgramAnalysis


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
    """How the core gates the program that `analysis` describes. Only a
    lifting policy has safe sets (bit m of safe_sets[i]: m is in i's safe
    set), derived from `analysis` when the policy is made."""

    mode: DefenseMode = DefenseMode.UNPROTECTED
    mitigations: frozenset[Mitigation] = frozenset()
    analysis: ProgramAnalysis | None = None
    balance_certificate: BalanceCertificate | None = None
    safe_sets: Mapping[int, int] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if Mitigation.PATH_BALANCING in self.mitigations and self.balance_certificate is None:
            raise ValueError("path_balancing requires a balance certificate")
        analysis, safe_sets = self.analysis, None
        if self.lifts_invariant:
            if analysis is None:
                raise ValueError("dom_plus_invarspec requires the program's analysis")
            safe_sets = analysis.safe_sets
            if Mitigation.CONSERVATIVE_INVARIANCE in self.mitigations:
                safe_sets = conservative_filter(safe_sets, analysis.profiles, len(analysis.program))
        object.__setattr__(self, "safe_sets", safe_sets)

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
    """The fields of an in-flight entry the gates read.

    Callers pass the live ROB as an iterable ordered oldest-first (the
    core passes its deque); rob_seq is the global dispatch sequence number
    that order follows. Of `macro` only the instruction id is read.
    """

    macro: MacroInstruction
    rob_seq: int
    complete_cycle: int | None
    osp: bool


def osp_reached(
    entry: RobEntryView,
    rob: Iterable[RobEntryView],
    safe_sets: Mapping[int, int],
    oldest: int | None,
) -> bool:
    """True once the entry's result exists and can no longer change.

    `oldest` is the rob_seq of the oldest unresolved speculation source, or
    None; an entry is shadowed when that source is older than it. Complete
    and unshadowed is the base case. A shadowed complete entry qualifies
    once it has reached ESP itself (`esp_check`), which covers its value
    producers (see the module docstring). The flag is sticky: squash
    removes the entry outright, so it never reverts.
    """
    if entry.osp:
        return True
    if entry.complete_cycle is None:
        return False
    if oldest is None or entry.rob_seq <= oldest:
        entry.osp = True
        return True
    entry.osp = esp_check(entry, safe_sets, rob, oldest)
    return entry.osp


def esp_check(
    entry: RobEntryView,
    safe_sets: Mapping[int, int],
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
    members = safe_sets[entry.macro.id]
    if not members:
        return True
    seq = entry.rob_seq
    for other in rob:
        if other.rob_seq >= seq:
            break
        if members >> other.macro.id & 1 and not osp_reached(other, rob, safe_sets, oldest):
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
