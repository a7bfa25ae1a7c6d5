import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tvwsim.cenb import (
    CenbState,
    CogMessage,
    MsgKind,
    Subframe,
    asm_allocate,
    best_vacant_run,
    block_clear,
    build_frame_schedule,
    execute_handover,
    fuse_cooperative,
    select_bandwidth,
    spectrum_decision,
)
from tvwsim.errors import ConfigError, StaleSensingError
from tvwsim.geodb import Region
from tvwsim.radio_env import FrequencyBand

OCCUPIED, VACANT = True, False


def report(channel, occupied, t_ms=3.0):
    """One verdict: (channel, occupied flag, sensing time in ms)."""
    return channel, occupied, t_ms


def record(state, rep):
    """Write one verdict into the sensing view."""
    channel, occupied, t_ms = rep
    state.record_view((channel,), (channel,) if occupied else (), t_ms)


def decide(state, reports, regions, grid, frame_no):
    """``spectrum_decision`` after writing each of ``reports`` into the sensing
    view, one ``record_view`` each, and ``regions`` into the database view."""
    for rep in reports:
        record(state, rep)
    state.region_cache.update(regions)
    return spectrum_decision(state, grid, frame_no)


def make_state(block=(5, 6, 7), cenb="c1"):
    return CenbState(id=cenb, location=(0.0, 0.0),
                     dedicated_band=FrequencyBand(698.0, 706.0),
                     active_block=block,
                     bandwidth_mhz=select_bandwidth(len(block)) if block else None)


class TestFrameSchedule:
    def test_default_wide_scan_budget(self):
        sched = build_frame_schedule(special_split=(0.2, 0.7, 0.1), wide_scan=True)
        assert sched.sensing_time_ms == pytest.approx(1.7)
        assert sched.sensing_subframes == (1, 2)
        assert sched.pattern[1] is Subframe.SPECIAL

    def test_wide_scan_off_budget_is_gp_only(self):
        sched = build_frame_schedule(special_split=(0.2, 0.7, 0.1), wide_scan=False)
        assert sched.sensing_time_ms == pytest.approx(0.7)
        assert sched.sensing_subframes == (1,)

    def test_split_must_sum_to_one_ms(self):
        with pytest.raises(ConfigError):
            build_frame_schedule(special_split=(0.2, 0.9, 0.0))

    def test_pattern_without_special_rejected(self):
        with pytest.raises(ConfigError):
            build_frame_schedule(config_id="DDUUDDDUUD")

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ConfigError):
            build_frame_schedule(config_id="nope")

    def test_budget_capped_at_two_ms(self):
        sched = build_frame_schedule(special_split=(0.0, 1.0, 0.0), wide_scan=True)
        assert sched.sensing_time_ms == pytest.approx(2.0)


class TestSelectBandwidth:
    @pytest.mark.parametrize("run_len,expected", [
        (0, None), (1, 5), (2, 15), (3, 20), (4, 20), (5, 20),
        (6, 20), (7, 20), (8, 20), (9, 20), (10, 20),
    ])
    def test_mapping(self, run_len, expected):
        assert select_bandwidth(run_len) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            select_bandwidth(-1)


class TestSpectrumDecision:
    def regions(self, grid, overrides=None):
        regions = {ch: Region.WHITE for ch in range(grid.n_channels)}
        if overrides:
            regions.update(overrides)
        return regions

    def test_tv_detection_moves_to_longest_run(self, grid):
        # active {5,6,7}, TV on 6; only {12,13,14} and {20} stay usable
        state = make_state()
        overrides = {ch: Region.BLACK for ch in range(grid.n_channels)
                     if ch not in (5, 6, 7, 12, 13, 14, 20)}
        reports = [report(5, VACANT), report(6, OCCUPIED), report(7, VACANT)]
        msg = decide(state, reports, self.regions(grid, overrides),
                     grid, frame_no=1)
        assert msg is not None
        assert msg.target_block == (12, 13, 14)
        assert msg.bandwidth_mhz == 20
        assert msg.activation_frame == 2
        assert state.pending_handover is msg

    def test_all_clear_steady_state(self, grid):
        state = make_state()
        reports = [report(ch, VACANT) for ch in (5, 6, 7)]
        assert decide(state, reports, self.regions(grid), grid, 1) is None

    def test_tie_breaks_to_lowest_index(self, grid):
        state = make_state()
        keep = {5, 6, 7, 8, 9, 10, 30, 31, 32}
        overrides = {ch: Region.BLACK for ch in range(grid.n_channels)
                     if ch not in keep}
        reports = [report(5, OCCUPIED), report(6, VACANT), report(7, VACANT)]
        msg = decide(state, reports, self.regions(grid, overrides),
                     grid, frame_no=4)
        assert msg.target_block == (8, 9, 10)

    def test_black_region_triggers_even_without_detection(self, grid):
        state = make_state()
        reports = [report(ch, VACANT) for ch in (5, 6, 7)]
        msg = decide(state, reports, self.regions(grid, {6: Region.BLACK}),
                     grid, 1)
        assert msg is not None
        assert 6 not in msg.target_block

    def test_grey_active_channel_requires_fresh_report(self, grid):
        state = make_state()
        with pytest.raises(StaleSensingError):
            decide(state, [], self.regions(grid, {6: Region.GREY}),
                   grid, frame_no=3)

    def test_exhausted_band_falls_back_to_dedicated(self, grid):
        state = make_state(block=(5,))
        overrides = {ch: Region.BLACK for ch in range(grid.n_channels) if ch != 5}
        msg = decide(state, [report(5, OCCUPIED)],
                     self.regions(grid, overrides), grid, 1)
        assert msg.target_block == ()
        assert msg.bandwidth_mhz is None

    def test_no_new_decision_while_one_pending(self, grid):
        state = make_state()
        reports = [report(5, OCCUPIED), report(6, VACANT), report(7, VACANT)]
        first = decide(state, list(reports), self.regions(grid), grid, 1)
        assert first is not None
        again = decide(state, list(reports), self.regions(grid), grid, 1)
        assert again is None

    def test_grey_channels_need_clearance_to_be_targets(self, grid):
        state = make_state(block=(5,))
        overrides = {ch: Region.BLACK for ch in range(grid.n_channels)
                     if ch not in (5, 20, 21)}
        overrides.update({20: Region.GREY, 21: Region.GREY})
        reports = [report(5, OCCUPIED), report(20, VACANT)]
        msg = decide(state, reports, self.regions(grid, overrides),
                     grid, 1)
        assert msg.target_block == (20,)  # 21 was never sensed


class TestExecuteHandover:
    def pend(self, state, grid, frame_no=101):
        reports = [report(24, VACANT, t_ms=1003.0),
                   report(25, OCCUPIED, t_ms=1003.0),
                   report(26, VACANT, t_ms=1003.0)]
        regions = {ch: Region.WHITE for ch in range(grid.n_channels)}
        return decide(state, reports, regions, grid, frame_no=frame_no)

    def test_timeline_restores_within_budget(self, grid):
        # detection 1003 -> decision boundary 1010 -> activation 1020
        # -> retune 10 ms -> data back at 1030 (27 ms after detection)
        state = make_state(block=(24, 25, 26))
        msg = self.pend(state, grid)
        assert msg.frame_no == 101 and msg.activation_frame == 102
        state, event = execute_handover(state, msg, now_ms=1020.0, retune_ms=10.0)
        assert not event.aborted
        assert event.t_restored_ms == 1030.0
        assert event.t_restored_ms - 1003.0 <= 30.0
        assert state.active_block == msg.target_block
        assert state.retune_until_ms == 1030.0

    def test_message_for_another_cenb_rejected(self, grid):
        state = make_state(block=(24, 25, 26))
        msg = self.pend(state, grid)
        stranger = make_state(cenb="c2", block=(24, 25, 26))
        stranger.pending_handover = msg
        with pytest.raises(ValueError):
            execute_handover(stranger, msg, now_ms=1020.0)

    def test_wrong_boundary_rejected(self, grid):
        state = make_state(block=(24, 25, 26))
        msg = self.pend(state, grid)
        with pytest.raises(ValueError):
            execute_handover(state, msg, now_ms=1015.0)

    def test_abort_when_target_turned_occupied_then_redecide(self, grid):
        state = make_state(block=(24, 25, 26))
        msg = self.pend(state, grid)
        target = msg.target_block[0]
        record(state, report(target, OCCUPIED, t_ms=1013.0))
        before_block = state.active_block
        state, event = execute_handover(state, msg, now_ms=1020.0)
        assert event.aborted
        assert state.active_block == before_block
        assert state.pending_handover is None
        # next decision round finds a new target avoiding the occupied one
        regions = {ch: Region.WHITE for ch in range(grid.n_channels)}
        msg2 = decide(state, [], regions, grid, frame_no=103)
        assert msg2 is not None
        assert target not in msg2.target_block

    def test_activation_must_follow_decision_frame(self):
        with pytest.raises(ValueError):
            CogMessage(kind=MsgKind.PCOGCH_DECISION, target_block=(1,),
                       bandwidth_mhz=5, activation_frame=3, origin="c1", frame_no=3)


class TestDetectionTime:
    def test_latency_runs_from_the_detecting_report(self, grid):
        state = make_state(block=(24, 25, 26))
        regions = {ch: Region.WHITE for ch in range(grid.n_channels)}
        reports = [report(24, VACANT, t_ms=1003.0),
                   report(25, OCCUPIED, t_ms=1003.0)]
        msg = decide(state, reports, regions, grid, frame_no=101)
        assert msg.t_detect_ms == 1003.0
        _, event = execute_handover(state, msg, now_ms=1020.0, retune_ms=10.0)
        assert event.t_detect_ms == 1003.0
        assert event.latency_ms == 27.0

    def test_black_region_without_report_uses_the_frame_start(self, grid):
        state = make_state(block=(24, 25, 26))
        regions = {ch: Region.WHITE for ch in range(grid.n_channels)}
        regions[25] = Region.BLACK
        msg = decide(state, [], regions, grid, frame_no=101)
        assert msg.t_detect_ms == 1010.0
        _, event = execute_handover(state, msg, now_ms=1020.0, retune_ms=10.0)
        assert event.latency_ms == 20.0

    def test_message_without_detection_time_uses_its_frame_start(self):
        msg = CogMessage(kind=MsgKind.PCOGCH_DECISION, target_block=(1,),
                         bandwidth_mhz=5, activation_frame=4, origin="c1", frame_no=3)
        assert msg.t_detect_ms == 30.0


class TestFusion:
    # Three CeNBs' verdicts and reporting masks over eight channels.  By
    # channel: none reported; one vacant report; one occupied; a 1-1 tie;
    # 2 of 3 occupied; 1 of 3 occupied; occupied only where not reported;
    # all occupied.
    VERDICTS = np.array([[1, 0, 1, 1, 1, 1, 1, 1],
                         [0, 0, 0, 0, 1, 0, 0, 1],
                         [0, 0, 0, 0, 0, 0, 0, 1]], dtype=bool)
    REPORTING = np.array([[0, 1, 1, 1, 1, 1, 0, 1],
                          [0, 0, 0, 1, 1, 1, 1, 1],
                          [0, 0, 0, 0, 1, 1, 1, 1]], dtype=bool)

    def fused(self, *rule):
        flags = fuse_cooperative(self.VERDICTS, self.REPORTING, *rule)
        assert flags.dtype == bool
        return [int(v) for v in flags]

    def test_or_rule_truth_table(self):
        assert self.fused("OR") == self.fused() == [0, 0, 1, 1, 1, 1, 0, 1]

    def test_majority_rule_truth_table(self):
        assert self.fused("MAJORITY") == [0, 0, 1, 0, 1, 0, 0, 1]

    def test_identity_without_neighbors(self):
        verdicts = np.array([[True, False, True, False]])
        reporting = np.array([[True, True, False, False]])
        for rule in ("OR", "MAJORITY"):
            assert fuse_cooperative(verdicts, reporting, rule).tolist() == [True] + [False] * 3

    def test_majority_two_of_five_stays_vacant(self):
        verdicts = np.array([[True], [True], [False], [False], [False]])
        reporting = np.ones_like(verdicts)
        assert fuse_cooperative(verdicts, reporting, "MAJORITY").tolist() == [False]
        assert fuse_cooperative(verdicts, reporting, "OR").tolist() == [True]

    @pytest.mark.parametrize("rule", ["OR", "MAJORITY"])
    def test_one_call_over_frames_equals_one_call_per_frame(self, rule):
        # Six frames of four CeNBs over 37 channels, with ties and
        # unreported channels, fused once with one reporting mask per CeNB
        # as the frame loop does, and with one mask per frame.
        rng = np.random.default_rng(23)
        occupied = rng.random((6, 4, 37)) < 0.4
        reporting = rng.random((4, 37)) < 0.7
        per_frame = [fuse_cooperative(frame, reporting, rule) for frame in occupied]
        assert np.array_equal(fuse_cooperative(occupied, reporting, rule), per_frame)
        masks = np.broadcast_to(reporting, occupied.shape)
        assert np.array_equal(fuse_cooperative(occupied, masks, rule), per_frame)
        assert 0 < np.count_nonzero(per_frame) < np.size(per_frame)

    @pytest.mark.parametrize("rule", ["OFF", "or", "AND"])
    def test_an_unknown_rule_is_rejected(self, rule):
        with pytest.raises(ValueError, match=rule):
            fuse_cooperative(self.VERDICTS, self.REPORTING, rule)


# A round of X2 exchange: the (CeNBs, channels) verdicts of 1-20 CeNBs over
# 1-40 channels, and the channels each of them reported.
rounds = st.tuples(st.integers(1, 20), st.integers(1, 40)).flatmap(
    lambda shape: st.tuples(*[st.lists(st.lists(st.booleans(), min_size=shape[1],
                                                max_size=shape[1]),
                                       min_size=shape[0], max_size=shape[0])] * 2))


class TestFusionProperties:
    @given(drawn=rounds)
    # A MAJORITY tie on channel 0, and channel 1 reported by no CeNB.
    @example(drawn=([[True, True], [False, False]], [[True, False], [True, False]]))
    def test_rules_count_the_occupied_reports(self, drawn):
        occupied, reporting = drawn
        for rule in ("OR", "MAJORITY"):
            fused = fuse_cooperative(np.array(occupied), np.array(reporting), rule)
            assert fused.shape == (len(occupied[0]),)
            for ch, flag in enumerate(fused.tolist()):
                reports = [row[ch] for row, mask in zip(occupied, reporting) if mask[ch]]
                n_occ = sum(reports)
                assert flag == (n_occ > 0 if rule == "OR" else 2 * n_occ > len(reports))


class TestAsmAllocate:
    def test_single_cenb_takes_lowest_longest_run(self, grid):
        cenb = make_state(block=None)
        out = asm_allocate([cenb], {"c1": list(range(37))}, 1000.0, grid)
        assert out.blocks["c1"] == (12, 13, 14)  # the 25-channel run wins

    def test_close_cenbs_get_disjoint_blocks(self, grid):
        a = make_state(block=None)
        b = CenbState(id="c2", location=(100.0, 0.0),
                      dedicated_band=FrequencyBand(698.0, 706.0))
        avail = {"c1": [12, 13, 14, 15, 16, 17], "c2": [12, 13, 14, 15, 16, 17]}
        out = asm_allocate([a, b], avail, reuse_distance_m=1000.0, grid=grid)
        assert out.blocks["c1"] == (12, 13, 14)
        assert out.blocks["c2"] == (15, 16, 17)
        assert not set(out.blocks["c1"]) & set(out.blocks["c2"])

    def test_distant_cenbs_may_share(self, grid):
        a = make_state(block=None)
        b = CenbState(id="c2", location=(5000.0, 0.0),
                      dedicated_band=FrequencyBand(698.0, 706.0))
        avail = {"c1": [12, 13, 14], "c2": [12, 13, 14]}
        out = asm_allocate([a, b], avail, reuse_distance_m=1000.0, grid=grid)
        assert out.blocks["c1"] == out.blocks["c2"] == (12, 13, 14)

    def test_conflict_freedom_property(self, grid):
        import numpy as np

        rng = np.random.default_rng(5)
        for trial in range(25):
            n = int(rng.integers(2, 6))
            cenbs = [CenbState(id=f"c{i}", location=tuple(rng.uniform(0, 3000, 2)),
                               dedicated_band=FrequencyBand(698.0, 706.0))
                     for i in range(n)]
            avail = {c.id: sorted(rng.choice(37, size=rng.integers(0, 20),
                                             replace=False).tolist())
                     for c in cenbs}
            out = asm_allocate(cenbs, avail, reuse_distance_m=1500.0, grid=grid)
            for i, a in enumerate(cenbs):
                for b in cenbs[i + 1:]:
                    d = np.hypot(a.location[0] - b.location[0],
                                 a.location[1] - b.location[1])
                    if d < 1500.0:
                        shared = set(out.blocks[a.id]) & set(out.blocks[b.id])
                        assert not shared, (trial, a.id, b.id)

    def test_empty_assignment_is_legal(self, grid):
        cenb = make_state(block=None)
        out = asm_allocate([cenb], {"c1": []}, 1000.0, grid)
        assert out.blocks["c1"] == ()


class TestBestVacantRun:
    def test_gap_in_grid_splits_runs(self, grid):
        # indices 10..13 span the excluded 566-606 band: 10,11 | 12,13
        assert grid.contiguous_runs([10, 11, 12, 13]) == [[10, 11], [12, 13]]
        # equal halves tie to the lowest index
        assert best_vacant_run(grid, [10, 11, 12, 13]) == [10, 11]
        # unsplit, 10..14 would be one run of five
        assert best_vacant_run(grid, [10, 11, 12, 13, 14]) == [12, 13, 14]

    def test_prefers_length_then_lowest(self, grid):
        assert best_vacant_run(grid, [1, 2, 3, 20, 21, 22]) == [1, 2, 3]


class TestSensingView:
    # Decision at frame 101 (1010 ms): a verdict sensed before 1000 ms is stale.
    @pytest.mark.parametrize("t_ms, stale", [(1003.0, False), (993.0, True)])
    def test_per_verdict_and_per_round_writes_agree(self, grid, t_ms, stale):
        verdicts = [(24, OCCUPIED), (25, VACANT), (24, VACANT), (26, OCCUPIED)]
        by_verdict = make_state(block=(24, 25, 26))
        by_round = make_state(block=(24, 25, 26))
        for ch, occupied in verdicts:
            record(by_verdict, report(ch, occupied, t_ms=t_ms))
        # One round: each channel's last verdict wins.
        last = dict(verdicts)
        by_round.record_view(sorted(last), [ch for ch, occupied in last.items() if occupied],
                             t_ms)
        for ch in range(grid.n_channels):
            assert by_verdict.unavailable(ch) == by_round.unavailable(ch)
        assert by_verdict.sensed_ms == by_round.sensed_ms
        assert [ch for ch in (24, 25, 26) if by_round.unavailable(ch)] == [26]

        def outcome(state):
            state.region_cache.update({ch: Region.WHITE for ch in range(grid.n_channels)})
            state.region_cache[25] = Region.GREY
            try:
                return spectrum_decision(state, grid, frame_no=101)
            except StaleSensingError:
                return "stale"

        result = outcome(by_verdict)
        assert result == outcome(by_round)
        assert (result == "stale") == stale


def test_block_clear_is_the_test_spectrum_decision_returns_on(grid):
    state = make_state(block=(5, 6, 7))
    state.region_cache = {6: Region.GREY, 9: Region.BLACK}
    assert block_clear(state, [])
    assert block_clear(state, [4, 8, 9])        # occupied outside the block
    assert not block_clear(state, [7])
    state.region_cache[5] = Region.BLACK
    assert not block_clear(state, [])
    assert not block_clear(make_state(block=None), [])
    # spectrum_decision returns None on a clear block, and decides otherwise.
    for occupied, decides in (((), False), ((6,), True)):
        state = make_state(block=(5, 6, 7))
        state.record_view(range(grid.n_channels), occupied, 1003.0)
        assert (spectrum_decision(state, grid, frame_no=101) is not None) == decides
