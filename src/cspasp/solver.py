"""Conflict-driven search over a nogood store.

Decisions are made on atom entities only: once every atom is assigned,
the body-definition nogoods force each body entity, so restricting the
branching set loses no solutions and keeps the heuristic focused.

The search itself is fixed: VSIDS-style entity activities with decay
0.95 (MiniSat, Eén & Sörensson, SAT 2003), phase saving from a false
first phase, Luby restarts in units of 64 conflicts, and a learned store
capped at ten times the static one.  ``SolverConfig`` holds only the
budgets (conflicts, wall time).

Everything here is deterministic: ties break on entity index, restarts
follow the Luby sequence, and no randomness is involved, so a freshly
built store always reproduces the same run and statistics under any
budget that does not cut it short.  The search appends its learned
nogoods to the store it is given and reorders that store's watches in
place.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

from .propagation import BodyId, NogoodStore, SignedLiteral, Trail, unit_propagate

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"

LUBY_UNIT = 64  # conflicts per restart-sequence step
ACTIVITY_DECAY = 0.95
LEARNED_CAP_FACTOR = 10.0  # learned limit as a multiple of static size


@dataclass
class SolverConfig:
    """Search budgets; None means unbounded."""

    max_conflicts: int | None = None
    timeout_s: float | None = None


@dataclass
class Stats:
    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0
    restarts: int = 0
    learned: int = 0
    time_ms: int = 0

    def as_text(self) -> str:
        return (
            f"decisions={self.decisions} conflicts={self.conflicts} "
            f"propagations={self.propagations} restarts={self.restarts} "
            f"learned={self.learned} time_ms={self.time_ms}"
        )


@dataclass
class SolveResult:
    status: str
    assignment: list[SignedLiteral] | None
    stats: Stats


def luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence."""
    while True:
        k = 1
        while (1 << k) - 1 < i:
            k += 1
        if (1 << k) - 1 == i:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


def analyze(store: NogoodStore, trail: Trail, conflict_id: int):
    """First-UIP conflict analysis.

    Resolves the violated nogood backwards along the trail until a single
    literal of the conflict level remains.  Returns ``(codes, level)``:
    the learned nogood with the UIP literal first and the rest ordered by
    descending trail position, plus the level to backjump to.  Literals
    settled at the root level are dropped -- they hold in every solution.
    Also returns the set of entity indices involved, for activity bumps.
    """
    level = trail.level
    if level == 0:
        raise ValueError("conflict analysis needs a conflict above the root level")
    codes = trail.codes
    level_of = trail.level_of
    reason_of = trail.reason_of

    seen: set[int] = set()
    lower: list[int] = []  # learned literals below the conflict level
    counter = 0

    def absorb(lits, skip):
        nonlocal counter
        for c in lits:
            if c == skip:
                continue
            idx = c >> 1
            if idx in seen:
                continue
            seen.add(idx)
            lvl = level_of[idx]
            if lvl == level:
                counter += 1
            elif lvl > 0:
                lower.append(c)

    absorb(store.lits_of(conflict_id, trail), skip=-1)
    p = len(codes) - 1
    while True:
        while codes[p] >> 1 not in seen:
            p -= 1
        c = codes[p]
        p -= 1
        counter -= 1
        if counter == 0:
            uip = c
            break
        absorb(store.lits_of(reason_of[c >> 1], trail, c), skip=c ^ 1)

    lower.sort(key=lambda c: -trail.pos_of[c >> 1])
    learned = [uip] + lower
    jump = level_of[lower[0] >> 1] if lower else 0
    return learned, jump, seen


class _Search:
    """One search context: trail, heuristic state, restart bookkeeping."""

    def __init__(self, store: NogoodStore, cfg: SolverConfig):
        self.store = store
        self.cfg = cfg
        self.trail = Trail(store)
        self.stats = Stats()
        n = store.n_entities
        self.decidable = [not isinstance(e, BodyId) for e in store.entities]
        self.activity = [0.0] * n
        self.bump = 1.0
        self.heap = [(0.0, i) for i in range(n) if self.decidable[i]]
        heapq.heapify(self.heap)
        self.phase = bytearray(n)
        self.restart_index = 1
        self.budget = LUBY_UNIT * luby(1)
        self.n_learned_live = sum(
            1 for ng in store.nogoods if ng.learned and not ng.deleted
        )
        self.deadline = None
        if cfg.timeout_s is not None:
            self.deadline = time.perf_counter() + cfg.timeout_s

    # -- heuristics ---------------------------------------------------------

    def bump_entity(self, idx: int) -> None:
        """Raise an entity's activity.  The entity is on the trail, so it
        needs no heap entry until ``on_backjump`` unassigns it."""
        act = self.activity[idx] + self.bump
        self.activity[idx] = act
        if act > 1e100:
            self.rescale()

    def rescale(self) -> None:
        """Scale every entity and learned-nogood activity, and the bump
        they share, down by 1e-100 before they overflow."""
        self.activity = [a * 1e-100 for a in self.activity]
        self.bump *= 1e-100
        for ng in self.store.nogoods:
            if ng.learned:
                ng.activity *= 1e-100
        self.heap = [
            (-self.activity[i], i) for i in range(len(self.activity)) if self.decidable[i]
        ]
        heapq.heapify(self.heap)

    def pick(self) -> int | None:
        """The unassigned decidable entity least by (-activity, index).

        Every such entity has a heap entry at its current activity: from
        the start, from ``on_backjump`` or from ``rescale``.  Entries whose
        activity has changed since are stale and skipped.
        """
        values = self.trail.values
        activity = self.activity
        heap = self.heap
        while heap:
            negact, idx = heapq.heappop(heap)
            if values[idx] == 0 and -negact == activity[idx]:
                return idx
        return None

    # -- learned-store management --------------------------------------------

    def reduce_learned(self) -> None:
        store = self.store
        cap = int(LEARNED_CAP_FACTOR * max(100, store.n_static))
        if self.n_learned_live <= cap:
            return
        # only reasons of literals still on the trail are in use; reason_of
        # keeps stale entries for entities that were unassigned since (a
        # cardinality reason is below zero and never a victim's id)
        reason_of = self.trail.reason_of
        locked = {reason_of[c >> 1] for c in self.trail.codes}
        victims = [
            i
            for i, ng in enumerate(store.nogoods)
            if ng.learned and not ng.deleted and i not in locked and len(ng.lits) > 2
        ]
        victims.sort(key=lambda i: store.nogoods[i].activity)
        del victims[len(victims) // 2:]
        store.delete(victims)
        self.n_learned_live -= len(victims)

    # -- main loop -------------------------------------------------------------

    def out_of_budget(self) -> bool:
        if self.cfg.max_conflicts is not None and self.stats.conflicts >= self.cfg.max_conflicts:
            return True
        return self.deadline is not None and time.perf_counter() > self.deadline

    def propagate(self) -> int | None:
        before = len(self.trail.codes)
        conflict = unit_propagate(self.store, self.trail)
        self.stats.propagations += len(self.trail.codes) - before
        return conflict

    def on_backjump(self, popped) -> None:
        """Phase saving plus heuristic-heap reinsertion for popped entities."""
        for code in popped:
            idx = code >> 1
            self.phase[idx] = 0 if code & 1 else 1
            if self.decidable[idx]:
                heapq.heappush(self.heap, (-self.activity[idx], idx))

    def run(self) -> str:
        trail = self.trail
        store = self.store
        stats = self.stats
        while True:
            conflict = self.propagate()
            if conflict is not None:
                stats.conflicts += 1
                if trail.level == 0:
                    return UNSAT
                learned, jump, seen = analyze(store, trail, conflict)
                for idx in seen:
                    self.bump_entity(idx)
                if conflict >= 0 and store.nogoods[conflict].learned:
                    store.nogoods[conflict].activity += self.bump
                self.bump /= ACTIVITY_DECAY
                self.on_backjump(trail.backjump(jump))
                ng_id = store.add_codes(learned, learned=True)
                store.nogoods[ng_id].activity = self.bump
                stats.learned += 1
                self.n_learned_live += 1
                if len(learned) > 1:
                    trail.assign(learned[0] ^ 1, ng_id)
                # a unit learned nogood lands in the store's unit queue and
                # is replayed by the next propagate call at the root
                self.budget -= 1
                if self.budget <= 0:
                    stats.restarts += 1
                    self.restart_index += 1
                    self.budget = LUBY_UNIT * luby(self.restart_index)
                    self.on_backjump(trail.backjump(0))
                self.reduce_learned()
                if self.out_of_budget():
                    return UNKNOWN
                continue
            idx = self.pick()
            if idx is None:
                return SAT
            if self.out_of_budget():
                return UNKNOWN
            stats.decisions += 1
            code = 2 * idx + (0 if self.phase[idx] else 1)
            trail.decide(code)


def _verify_static(store: NogoodStore, trail: Trail) -> None:
    """Independent pass: no static nogood may be contained in the model,
    and no cardinality constraint may have its bound of literals hold."""
    holds = trail.holds
    for ng in store.nogoods:
        if ng.learned or ng.deleted:
            continue
        if all(holds(c) for c in ng.lits):
            raise RuntimeError("model violates a static nogood; solver bug")
    for j, card in enumerate(store.cardinalities):
        if len(store.lits_of(~j, trail)) >= card.bound:
            raise RuntimeError("model violates a cardinality constraint; solver bug")


def solve(store: NogoodStore, cfg: SolverConfig | None = None) -> SolveResult:
    """Decide satisfiability of the store's nogoods.

    Returns SAT with a total assignment, UNSAT, or UNKNOWN when the
    configured conflict/time budget ran out first.  The model is the
    first of ``enumerate_models(store, cfg, limit=1)``, so ``time_ms``
    includes its check.  Learned nogoods stay in ``store``, so only a
    freshly built store reproduces a run.
    """
    models, stats, status = enumerate_models(store, cfg, limit=1)
    if models:
        return SolveResult(SAT, models[0], stats)
    return SolveResult(status, None, stats)


def enumerate_models(store: NogoodStore, cfg: SolverConfig | None = None, limit=None):
    """Enumerate distinct total assignments by decision blocking.

    After each model, a nogood over its decision literals excludes that
    subtree and the search restarts from the root.  With ``limit`` equal
    to None this is exhaustive.  Returns ``(models, stats, status)`` where
    the final status is UNSAT once the space is exhausted, SAT when the
    model limit stopped the search, and UNKNOWN if a budget ran out.
    Learned and blocking nogoods stay in ``store``, as in ``solve``.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"model limit must be at least 1 or None, not {limit}")
    cfg = cfg or SolverConfig()
    t0 = time.perf_counter()
    search = _Search(store, cfg)
    models: list[list[SignedLiteral]] = []
    while True:
        status = search.run()
        if status != SAT:
            break
        _verify_static(store, search.trail)
        trail = search.trail
        models.append(trail.assignment())
        decisions = [
            trail.codes[trail.level_starts[lvl]] for lvl in range(1, trail.level + 1)
        ]
        if not decisions:
            status = UNSAT  # forced model: nothing left to flip
            break
        if len(models) == limit:
            break
        search.on_backjump(trail.backjump(0))
        # blocking nogoods must never be garbage collected
        store.add_codes(sorted(decisions), learned=False)
    search.stats.time_ms = int((time.perf_counter() - t0) * 1000)
    return models, search.stats, status
