"""Crossbatch data pipeline.

Documents are pinned to batch slots. Each step every slot emits one
local-context window as "current"; the windows it emitted before stay
available as previous contexts. The plan for a step lists, per slot, which
previous-context windows the memory layers should attend to, as one
``DSchedule`` sets: a d per step, or fixed segments of the batch with their
own counts. A window's context id is its polarity: context 1 is the slot's
own document (positive), contexts 2, 3, ... are other slots' documents
(negative).

Short documents are concatenated into "units" that span at least w+1
windows; unit ids act as document ids everywhere downstream.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, UsageError


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

@dataclass
class DSchedule:
    """Step-indexed crossbatch composition.

    kind "constant": always d.
    kind "staged":   d_small before switch_step, d_large from it on.
    kind "random":   seeded per-step choice from ``choices``.
    These give every slot one positive context, context 1, of up to w of its
    own windows, plus d - 1 modular negative contexts of up to w windows each.

    kind "segments": fractions of the batch with explicit
    (fraction, num_positives, num_negatives); a negative is its source
    slot's most recent window.
    """
    kind: str = "constant"
    d: int = 1
    d_small: int = 2
    d_large: int = 64
    switch_step: int = 0
    choices: tuple[int, ...] = (2, 128)
    segments: tuple[tuple[float, int, int], ...] = ()

    def validate(self, b_s: int, w: int) -> None:
        """Every d the schedule can yield must lie in [0, b_s]: one positive
        context plus d - 1 negatives from the other b_s - 1 slots. Segments
        must cover the batch in whole slots, with 0 to w positives and 0 to
        b_s - 1 negatives each."""
        if self.kind == "segments":
            fracs = [f for f, _, _ in self.segments]
            if min(fracs, default=0.0) < 0 or not abs(sum(fracs) - 1.0) <= 1e-9:
                raise ConfigError(f"segment fractions {fracs} are not shares >= 0 that sum to 1")
            slots = 0
            for frac, n_pos, n_neg in self.segments:
                n = frac * b_s
                if abs(n - round(n)) > 1e-9:
                    raise ConfigError(f"segment fraction {frac} does not resolve to whole slots of {b_s}")
                slots += round(n)
                if not 0 <= n_pos <= w:
                    raise ConfigError(f"segment wants {n_pos} positives, outside [0, w = {w}]")
                if not 0 <= n_neg <= b_s - 1:
                    raise ConfigError(f"segment wants {n_neg} negatives, outside [0, b_S - 1 = {b_s - 1}]")
            if slots != b_s:
                raise ConfigError("segments do not cover the batch")
            return
        if self.kind == "constant":
            yields = [("d", self.d)]
        elif self.kind == "staged":
            yields = [("d_small", self.d_small)] * (self.switch_step > 0) + [("d_large", self.d_large)]
        elif self.kind == "random":
            if not self.choices:
                raise ConfigError("random d-schedule needs choices")
            yields = [("d_choices", d) for d in self.choices]
        else:
            raise ConfigError(f"unknown d-schedule kind {self.kind!r}")
        for key, d in yields:
            if not 0 <= d <= b_s:
                raise ConfigError(f"{key} = {d} is outside [0, b_S = {b_s}]")


def d_schedule_value(schedule: DSchedule, step: int, seed: int = 0) -> int:
    if step < 0:
        raise UsageError("step must be >= 0")
    if schedule.kind == "constant":
        return schedule.d
    if schedule.kind == "staged":
        return schedule.d_small if step < schedule.switch_step else schedule.d_large
    if schedule.kind != "random":
        raise UsageError(f"a {schedule.kind!r} schedule has no single d")
    rng = np.random.default_rng([seed, step])
    return int(schedule.choices[rng.integers(0, len(schedule.choices))])


def uniform_negative_slots(slot: int, d: int, b_s: int) -> list[int]:
    """Modular negative sources of B.3-style uniform crossbatch."""
    return [(slot + j) % b_s for j in range(1, d)]


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanWindow:
    """One previous window a slot attends to. Context 1 is the slot's own
    document, so it alone is positive; contexts 2, 3, ... are the negative
    sources in plan order."""
    source_slot: int
    window_index: int      # 0 = most recent previous window of that slot
    context_id: int        # groups windows into contexts for r_d

    @property
    def polarity(self) -> str:
        return "positive" if self.context_id == 1 else "negative"


@dataclass
class CrossbatchPlan:
    per_slot: list[list[PlanWindow]]
    source_unit: list[list[int]]  # unit id each window came from, parallel to per_slot

    @property
    def b_s(self) -> int:
        return len(self.per_slot)

    @property
    def n_contexts(self) -> list[int]:
        """Context columns per slot: its highest context id (0 without windows)."""
        return [max((pw.context_id for pw in ws), default=0) for ws in self.per_slot]

    @property
    def max_windows(self) -> int:
        return max((len(ws) for ws in self.per_slot), default=0)

    def validate_polarity(self, unit_ids) -> None:
        """Positives must share the consuming slot's unit id, negatives must not."""
        for slot, windows in enumerate(self.per_slot):
            for win, unit in zip(windows, self.source_unit[slot]):
                same = unit == unit_ids[slot]
                if win.polarity == "positive" and not same:
                    raise UsageError(f"positive from foreign unit {unit} in slot {slot}")
                if win.polarity == "negative" and same:
                    raise UsageError(f"negative from own unit in slot {slot}")


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------

@dataclass
class TrainBatch:
    cur_tokens: np.ndarray     # [b_S, T]
    cur_targets: np.ndarray    # [b_S, T]
    cur_mask: np.ndarray       # [b_S, T] float, 1 where loss applies
    prev_tokens: np.ndarray    # [b_S, w, T] (index 0 = most recent)
    prev_valid: np.ndarray     # [b_S, w] bool
    unit_ids: np.ndarray       # [b_S]
    step: int


class _Unit:
    __slots__ = ("unit_id", "tokens", "mask")

    def __init__(self, unit_id: int, tokens: np.ndarray, mask: np.ndarray):
        self.unit_id = unit_id
        self.tokens = tokens
        self.mask = mask


class _UnitAssembler:
    """Concatenates stream documents into units of whole windows.

    A unit spans at least (w+1) windows so it can supply both a current
    window and positives; leftover tokens carry into the next unit.
    """

    def __init__(self, doc_iter, ctx_len: int, w: int):
        self._docs = iter(doc_iter)
        self.ctx_len = ctx_len
        self.min_tokens = (w + 1) * ctx_len
        self._carry_tokens = np.empty(0, dtype=np.int64)
        self._carry_mask = np.empty(0, dtype=np.float64)
        self._next_id = 0

    def next_unit(self) -> _Unit | None:
        toks = [self._carry_tokens]
        masks = [self._carry_mask]
        total = self._carry_tokens.shape[0]
        while total < self.min_tokens:
            try:
                doc_tokens, doc_mask = next(self._docs)
            except StopIteration:
                return None  # stream exhausted mid-unit; leftovers never emitted
            doc_tokens = np.asarray(doc_tokens, dtype=np.int64)
            doc_mask = np.asarray(doc_mask, dtype=np.float64)
            if doc_tokens.shape != doc_mask.shape:
                raise DataError("document mask length mismatch")
            toks.append(doc_tokens)
            masks.append(doc_mask)
            total += doc_tokens.shape[0]
        tokens = np.concatenate(toks)
        mask = np.concatenate(masks)
        keep = (tokens.shape[0] // self.ctx_len) * self.ctx_len
        self._carry_tokens = tokens[keep:]
        self._carry_mask = mask[keep:]
        unit = _Unit(self._next_id, tokens[:keep], mask[:keep])
        self._next_id += 1
        return unit


class _Slot:
    __slots__ = ("index", "unit", "cursor", "prev")

    def __init__(self, index: int, w: int):
        self.index = index
        self.unit: _Unit | None = None
        self.cursor = 0
        self.prev: deque = deque(maxlen=w)  # previous windows, newest first


class CrossbatchPipeline:
    """Single-producer iterator over TrainBatch + CrossbatchPlan pairs."""

    def __init__(self, doc_iter, b_s: int, ctx_len: int,
                 schedule: DSchedule, w: int = 1, seed: int = 0):
        if b_s < 1 or ctx_len < 2 or w < 1:
            raise ConfigError("need b_S >= 1, ctx_len >= 2, w >= 1")
        schedule.validate(b_s, w)
        self.b_s = b_s
        self.ctx_len = ctx_len
        self.w = w
        self.schedule = schedule
        self.seed = seed
        self._assembler = _UnitAssembler(doc_iter, ctx_len, w)
        self._slots = [_Slot(i, w) for i in range(b_s)]
        self._step = 0

    # -- batches -------------------------------------------------------------

    def next_batch(self) -> TrainBatch:
        """Advance every slot by one window; raises DataError at stream end."""
        t = self.ctx_len
        cur = np.zeros((self.b_s, t), dtype=np.int64)
        tgt = np.zeros((self.b_s, t), dtype=np.int64)
        msk = np.zeros((self.b_s, t), dtype=np.float64)
        prev = np.zeros((self.b_s, self.w, t), dtype=np.int64)
        prev_valid = np.zeros((self.b_s, self.w), dtype=bool)
        unit_ids = np.zeros(self.b_s, dtype=np.int64)

        for slot in self._slots:
            if slot.unit is None or slot.cursor >= slot.unit.tokens.shape[0]:
                unit = self._assembler.next_unit()
                if unit is None:
                    raise DataError("document stream exhausted")
                slot.unit = unit
                slot.cursor = 0
                slot.prev.clear()
            u = slot.unit
            lo, hi = slot.cursor, slot.cursor + t
            window = u.tokens[lo:hi]
            cur[slot.index] = window
            # next-token targets; the final token of a unit predicts nothing
            if hi < u.tokens.shape[0]:
                tgt[slot.index] = u.tokens[lo + 1:hi + 1]
                msk[slot.index] = u.mask[lo + 1:hi + 1]
            else:
                tgt[slot.index, :-1] = u.tokens[lo + 1:hi]
                msk[slot.index, :-1] = u.mask[lo + 1:hi]
            for j, ptoks in enumerate(slot.prev):
                prev[slot.index, j] = ptoks
                prev_valid[slot.index, j] = True
            unit_ids[slot.index] = u.unit_id
            slot.prev.appendleft(window)
            slot.cursor = hi

        batch = TrainBatch(cur, tgt, msk, prev, prev_valid, unit_ids, self._step)
        self._step += 1
        return batch

    # -- plans ---------------------------------------------------------------

    def build_plan(self, step: int, batch: TrainBatch) -> CrossbatchPlan:
        """Plan for ``batch``; deterministic given (seed, step, stream)."""
        sched = self.schedule
        per_slot: list[list[PlanWindow]] = []
        units: list[list[int]] = []

        if sched.kind == "segments":
            comp = []
            for frac, n_pos, n_neg in sched.segments:
                comp.extend([(n_pos, n_neg)] * round(frac * self.b_s))
            neg_windows = 1  # one most-recent window per negative
        else:
            d = d_schedule_value(sched, step, self.seed)
            comp = [(self.w, d - 1) if d > 0 else (0, 0)] * self.b_s
            neg_windows = self.w  # negatives expose their whole C_prev

        for slot in range(self.b_s):
            n_pos, n_neg = comp[slot]
            windows: list[PlanWindow] = []
            w_units: list[int] = []
            own_valid = int(batch.prev_valid[slot].sum())
            for j in range(min(n_pos, own_valid)):
                windows.append(PlanWindow(slot, j, 1))
                w_units.append(int(batch.unit_ids[slot]))
            ctx = 2
            for src in uniform_negative_slots(slot, n_neg + 1, self.b_s):
                take = min(neg_windows, int(batch.prev_valid[src].sum()))
                if take == 0:
                    continue
                for j in range(take):
                    windows.append(PlanWindow(src, j, ctx))
                    w_units.append(int(batch.unit_ids[src]))
                ctx += 1
            per_slot.append(windows)
            units.append(w_units)

        plan = CrossbatchPlan(per_slot, units)
        plan.validate_polarity(batch.unit_ids)
        return plan

    def next(self) -> tuple[TrainBatch, CrossbatchPlan]:
        batch = self.next_batch()
        return batch, self.build_plan(batch.step, batch)

