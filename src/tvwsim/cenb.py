"""Cognitive base-station logic: frame schedule, spectrum decisions, handover.

A CeNB runs a TDD frame extended for cognition: the guard period of
special subframe #1 hosts in-band sensing, the adjacent uplink subframe
#2 is borrowed for wide scans, decisions ride the downlink pilot slot
as broadcast messages, and the dedicated band keeps control alive while
the data block retunes.  Inter-CeNB coordination is message passing
only: the CeNBs' sensing verdicts, exchanged all-to-all over X2 and
fused by one OR or MAJORITY reduction over their (CeNBs, channels)
array, and one start-up channel allocation by the global spectrum
manager.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigError, StaleSensingError
from .geodb import Region
from .radio_env import FrequencyBand

FRAME_MS = 10.0
SUBFRAME_MS = 1.0
MAX_SENSING_MS = 2.0
MAX_BLOCK_CHANNELS = 3          # 3 x 8 MHz carries the 20 MHz system bandwidth

BANDWIDTH_BY_RUN = {0: None, 1: 5, 2: 15}


class Subframe(Enum):
    DOWNLINK = "D"
    SPECIAL = "S"
    UPLINK = "U"


FRAME_PATTERNS = {
    "tdd-1": "DSUUDDSUUD",
    "tdd-2": "DSUDDDSUDD",
}


@dataclass(frozen=True)
class FrameSchedule:
    """10-subframe TDD pattern with the sensing windows marked."""

    pattern: tuple
    special_split: tuple  # (dwpts_ms, gp_ms, uppts_ms), sums to 1 ms
    sensing_subframes: tuple
    wide_scan: bool

    @property
    def gp_ms(self):
        return self.special_split[1]

    @property
    def dwpts_ms(self):
        return self.special_split[0]

    @property
    def sensing_time_ms(self):
        """Per-frame sensing budget: the GP plus any full uplink subframes."""
        full = sum(1 for i in self.sensing_subframes if self.pattern[i] is Subframe.UPLINK)
        return self.gp_ms + SUBFRAME_MS * full

    def downlink_subframes(self):
        return tuple(i for i, sf in enumerate(self.pattern) if sf is Subframe.DOWNLINK)


def build_frame_schedule(config_id="tdd-2", special_split=(0.2, 0.7, 0.1),
                         wide_scan=True):
    """Validate and build the CR frame schedule.

    ``config_id`` names a known pattern or is itself a ten-letter D/S/U
    string.  Wide-scan mode adds uplink subframe #2 to the sensing
    windows ("the adjacent vacant uplink subframe").
    """
    text = FRAME_PATTERNS.get(config_id, config_id)
    if len(text) != 10 or any(c not in "DSU" for c in text):
        raise ConfigError(f"unknown frame pattern {config_id!r}")
    pattern = tuple(Subframe(c) for c in text)
    if pattern[1] is not Subframe.SPECIAL:
        raise ConfigError("subframe #1 must be the special subframe")
    dwpts, gp, uppts = special_split
    if min(dwpts, gp, uppts) < 0 or abs(dwpts + gp + uppts - SUBFRAME_MS) > 1e-9:
        raise ConfigError("special split must be non-negative and sum to 1 ms")
    sensing = (1,)
    if wide_scan:
        if pattern[2] is not Subframe.UPLINK:
            raise ConfigError("wide-scan mode needs an uplink subframe #2")
        sensing = (1, 2)
    sched = FrameSchedule(pattern=pattern, special_split=tuple(special_split),
                          sensing_subframes=sensing, wide_scan=wide_scan)
    if sched.sensing_time_ms <= 0:
        raise ConfigError("the frame has no sensing time: narrow scan needs a guard "
                          "period longer than 0 ms")
    if sched.sensing_time_ms > MAX_SENSING_MS + 1e-9:
        raise ConfigError(f"sensing budget {sched.sensing_time_ms} ms exceeds "
                          f"{MAX_SENSING_MS} ms per frame")
    return sched


def select_bandwidth(vacant_run_length):
    """System bandwidth (MHz) supported by a contiguous vacant run.

    Three or more vacant channels carry 20 MHz, two carry 15, one
    carries 5, none means falling back to the dedicated band.
    """
    if vacant_run_length < 0:
        raise ValueError("run length must be >= 0")
    if vacant_run_length >= 3:
        return 20
    return BANDWIDTH_BY_RUN[vacant_run_length]


@dataclass(frozen=True)
class CogMessage:
    """CR control message: a spectrum decision broadcast on the PCogCH.

    ``t_detect_ms`` is when the cause of the message was sensed; a
    message built without one takes the start of its decision frame.
    """

    target_block: tuple
    bandwidth_mhz: int | None
    activation_frame: int
    origin: str
    frame_no: int
    t_detect_ms: float | None = None

    def __post_init__(self):
        if self.activation_frame <= self.frame_no:
            raise ValueError("activation frame must follow the decision frame")
        if self.t_detect_ms is None:
            object.__setattr__(self, "t_detect_ms", self.frame_no * FRAME_MS)


@dataclass
class CenbState:
    """Mutable state of one cognitive base station.

    The sensing view holds, per channel, the time of its last (fused)
    verdict in ``sensed_ms`` and, in ``occupied``, the channels whose
    last verdict was occupied; ``record_view`` is its one writer, and
    writes the verdicts of one sensing round at once.  ``region_cache``
    is the CeNB's database view.  The frame loop writes a round only at
    an event boundary, when it may decide on it: a round that leaves the
    held block clear (``block_clear``) is skipped, and the next round
    written, which covers the same channels, overwrites the view before
    ``spectrum_decision`` or ``execute_handover`` reads it, so between
    decisions the view may lag the last round sensed.  The data path is
    down before ``retune_until_ms``; the frame loop compares its downlink
    instants with that time as arrays.
    """

    id: str
    location: tuple
    dedicated_band: FrequencyBand
    active_block: tuple | None = None
    bandwidth_mhz: int | None = None
    region_cache: dict = field(default_factory=dict)
    pending_handover: CogMessage | None = None
    sensed_ms: dict = field(default_factory=dict)
    occupied: set = field(default_factory=set)
    retune_until_ms: float = 0.0

    def record_view(self, channels, occupied, t_ms):
        """Write the verdicts on ``channels``, sensed at ``t_ms``, into the sensing view.

        ``occupied`` lists the channels among ``channels`` sensed occupied;
        the others were sensed vacant.
        """
        for ch in channels:
            self.sensed_ms[ch] = t_ms
        self.occupied.difference_update(channels)
        self.occupied.update(occupied)

    def unavailable(self, channels):
        """The channels of ``channels`` Black in the database view or last sensed occupied."""
        black, regions, occupied = Region.BLACK, self.region_cache, self.occupied
        return [ch for ch in channels if ch in occupied or regions.get(ch) is black]


def block_clear(state, occupied):
    """True when ``state`` holds a block none of whose channels is in ``occupied``
    or Black in its database view.

    ``spectrum_decision`` returns None on a clear block, with ``occupied``
    the sensing view's occupied channels.  The frame loop evaluates the
    same test as arrays over many sensing rounds, on each round's
    occupied channels before writing them into the view.
    """
    if state.active_block is None:
        return False
    black, regions = Region.BLACK, state.region_cache
    for ch in state.active_block:
        if ch in occupied or regions.get(ch) is black:
            return False
    return True


def best_vacant_run(grid, vacant):
    """Longest vacant run; ties break to the lowest channel index."""
    runs = grid.contiguous_runs(vacant)
    if not runs:
        return []
    return max(runs, key=lambda r: (len(r), -r[0]))


def spectrum_decision(state, grid, frame_no):
    """Evaluate the active block and emit a handover decision if needed.

    Reads the sensing view that ``CenbState.record_view`` writes and the
    database view ``region_cache``; sets only ``pending_handover``.  A
    decision fires when any active channel was last sensed occupied or
    is black; the target is the best vacant contiguous run (longest,
    ties to the lowest index), capped at three channels, activating next
    frame.  A handover vacates the whole active block: none of its
    channels, vacant or not, is part of the target.  The message's
    detection time is the earliest sensing time of the unavailable
    active channels that have a verdict, or the start of frame
    ``frame_no`` if there is none (a Black region without a verdict, or
    no active block).  Returns None in the all-clear steady state.
    """
    if state.pending_handover is not None:
        return None

    active = state.active_block or ()
    frame_start = frame_no * FRAME_MS
    # The members are read once: an Enum attribute lookup costs as much
    # as the test.
    regions, occupied, sensed_ms = state.region_cache, state.occupied, state.sensed_ms
    black, grey = Region.BLACK, Region.GREY
    for ch in active:
        if regions.get(ch) is grey:
            t_ms = sensed_ms.get(ch)
            if t_ms is None or t_ms < frame_start - FRAME_MS:
                raise StaleSensingError(
                    f"no fresh sensing report for grey channel {ch}")

    if block_clear(state, occupied):
        return None

    # Usable: outside the active block, not last sensed occupied, not
    # Black, and not Grey unless sensing has cleared it.
    usable = [ch for ch in range(grid.n_channels)
              if ch not in active and ch not in occupied
              and (region := regions.get(ch)) is not black
              and (region is not grey or ch in sensed_ms)]
    run = best_vacant_run(grid, usable)
    block = tuple(run[:MAX_BLOCK_CHANNELS])
    if state.active_block is None and not block:
        return None
    sensed = [sensed_ms[ch] for ch in state.unavailable(active) if ch in sensed_ms]
    msg = CogMessage(target_block=block, bandwidth_mhz=select_bandwidth(len(run)),
                     activation_frame=frame_no + 1, origin=state.id,
                     frame_no=frame_no, t_detect_ms=min(sensed, default=frame_start))
    state.pending_handover = msg
    return msg


@dataclass(frozen=True)
class HandoverEvent:
    """Timing record of one executed (or aborted) spectrum handover.

    ``t_detect_ms`` is the decision message's detection time, so
    ``latency_ms`` runs from detection to restored data service.
    """

    t_detect_ms: float
    t_restored_ms: float
    to_block: tuple
    aborted: bool = False

    @property
    def latency_ms(self):
        return self.t_restored_ms - self.t_detect_ms


def execute_handover(state, msg, now_ms, retune_ms=10.0):
    """Retune to the decided block at its activation boundary.

    The data path is down for ``retune_ms`` (control continuity rides
    the dedicated band); if the target meanwhile turned occupied or
    black the handover aborts, leaving the state untouched apart from
    the cleared pending decision so the next frame can re-decide.
    """
    if msg.origin != state.id:
        raise ValueError(f"message addressed to {msg.origin!r}, not {state.id!r}")
    if state.pending_handover is not msg:
        raise ValueError("message is not this CeNB's pending decision")
    if abs(now_ms - msg.activation_frame * FRAME_MS) > 1e-9:
        raise ValueError(f"handover must execute at the activation boundary "
                         f"({msg.activation_frame * FRAME_MS} ms), not {now_ms} ms")
    state.pending_handover = None
    aborted = bool(state.unavailable(msg.target_block))
    if not aborted:
        state.active_block = msg.target_block or None
        state.bandwidth_mhz = msg.bandwidth_mhz
        state.retune_until_ms = now_ms + retune_ms
    return state, HandoverEvent(
        t_detect_ms=msg.t_detect_ms, t_restored_ms=now_ms if aborted else now_ms + retune_ms,
        to_block=() if aborted else msg.target_block, aborted=aborted)


def fuse_cooperative(occupied, reporting, rule="OR"):
    """Fuse the verdicts that the CeNBs exchange over X2 into one flag per channel.

    ``occupied`` and ``reporting`` are (..., CeNBs, channels) bool arrays:
    each CeNB's verdicts, and the channels it reported; they broadcast
    against each other, so one call fuses many rounds, such as a
    (frames, CeNBs, channels) ``occupied`` with one (CeNBs, channels)
    ``reporting``.  A channel is occupied under OR (default) when any of
    its reports says so, and under MAJORITY on a strict majority of its
    reports; a channel that no CeNB reported is vacant under both.
    Returns the (..., channels) fused flags.
    """
    hits = np.logical_and(occupied, reporting)
    if rule == "OR":
        return hits.any(axis=-2)
    if rule == "MAJORITY":
        return 2 * np.count_nonzero(hits, axis=-2) > np.count_nonzero(reporting, axis=-2)
    raise ValueError(f"unknown fusion rule {rule!r}")


@dataclass(frozen=True)
class AsmAssignment:
    """Global allocator output: per-CeNB channel blocks."""

    blocks: dict


def asm_allocate(cenbs, availability, reuse_distance_m, grid):
    """Greedy conflict-free channel allocation across CeNBs.

    CeNBs closer than ``reuse_distance_m`` share a conflict edge and
    never share channels.  Allocation proceeds in descending demand
    (longest available run; ties by id) and gives each CeNB its best
    remaining run, possibly empty.
    """
    def longest(cenb):
        runs = grid.contiguous_runs(availability.get(cenb.id, ()))
        return max((len(r) for r in runs), default=0)

    order = sorted(cenbs, key=lambda c: (-longest(c), c.id))
    pos = {c.id: np.asarray(c.location, dtype=float) for c in cenbs}
    blocks = {}
    for cenb in order:
        taken = set()
        for other_id, blk in blocks.items():
            d = float(np.linalg.norm(pos[cenb.id] - pos[other_id]))
            if d < reuse_distance_m:
                taken.update(blk)
        usable = [ch for ch in availability.get(cenb.id, ()) if ch not in taken]
        run = best_vacant_run(grid, usable)
        blocks[cenb.id] = tuple(run[:MAX_BLOCK_CHANNELS])
    return AsmAssignment(blocks=blocks)
