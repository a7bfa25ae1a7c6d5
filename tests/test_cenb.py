import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tvwsim.cenb import (
    FRAME_MS,
    CenbState,
    CogMessage,
    MsgKind,
    Subframe,
    asm_allocate,
    best_vacant_run,
    build_frame_schedule,
    execute_handover,
    fuse_cooperative,
    select_bandwidth,
    spectrum_decision,
    vacant_runs,
)
from tvwsim.errors import AggregationError, ConfigError, StaleSensingError
from tvwsim.geodb import Region
from tvwsim.radio_env import FrequencyBand
from tvwsim.sensing import Decision, SensingReport


def report(channel, decision, t_ms=3.0, cenb="c1"):
    return SensingReport(cenb_id=cenb, channel_index=channel, decision=decision,
                         carrier_stats_dbm=(-110.0, -110.0, -110.0), t_ms=t_ms)


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

    def test_zero_uppts_rejected_when_required(self):
        with pytest.raises(ConfigError):
            build_frame_schedule(special_split=(0.1, 0.9, 0.0), min_uppts_ms=0.05)

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
        reports = [report(5, Decision.VACANT), report(6, Decision.OCCUPIED),
                   report(7, Decision.VACANT)]
        msg = spectrum_decision(state, reports, self.regions(grid, overrides),
                                grid, frame_no=1)
        assert msg is not None
        assert msg.target_block == (12, 13, 14)
        assert msg.bandwidth_mhz == 20
        assert msg.activation_frame == 2
        assert state.pending_handover is msg

    def test_all_clear_steady_state(self, grid):
        state = make_state()
        reports = [report(ch, Decision.VACANT) for ch in (5, 6, 7)]
        assert spectrum_decision(state, reports, self.regions(grid), grid, 1) is None

    def test_tie_breaks_to_lowest_index(self, grid):
        state = make_state()
        keep = {5, 6, 7, 8, 9, 10, 30, 31, 32}
        overrides = {ch: Region.BLACK for ch in range(grid.n_channels)
                     if ch not in keep}
        reports = [report(5, Decision.OCCUPIED), report(6, Decision.VACANT),
                   report(7, Decision.VACANT)]
        msg = spectrum_decision(state, reports, self.regions(grid, overrides),
                                grid, frame_no=4)
        assert msg.target_block == (8, 9, 10)

    def test_black_region_triggers_even_without_detection(self, grid):
        state = make_state()
        reports = [report(ch, Decision.VACANT) for ch in (5, 6, 7)]
        msg = spectrum_decision(state, reports, self.regions(grid, {6: Region.BLACK}),
                                grid, 1)
        assert msg is not None
        assert 6 not in msg.target_block

    def test_grey_active_channel_requires_fresh_report(self, grid):
        state = make_state()
        with pytest.raises(StaleSensingError):
            spectrum_decision(state, [], self.regions(grid, {6: Region.GREY}),
                              grid, frame_no=3)

    def test_exhausted_band_falls_back_to_dedicated(self, grid):
        state = make_state(block=(5,))
        overrides = {ch: Region.BLACK for ch in range(grid.n_channels) if ch != 5}
        msg = spectrum_decision(state, [report(5, Decision.OCCUPIED)],
                                self.regions(grid, overrides), grid, 1)
        assert msg.target_block == ()
        assert msg.bandwidth_mhz is None

    def test_no_new_decision_while_one_pending(self, grid):
        state = make_state()
        reports = [report(5, Decision.OCCUPIED), report(6, Decision.VACANT),
                   report(7, Decision.VACANT)]
        first = spectrum_decision(state, list(reports), self.regions(grid), grid, 1)
        assert first is not None
        again = spectrum_decision(state, list(reports), self.regions(grid), grid, 1)
        assert again is None

    def test_grey_channels_need_clearance_to_be_targets(self, grid):
        state = make_state(block=(5,))
        overrides = {ch: Region.BLACK for ch in range(grid.n_channels)
                     if ch not in (5, 20, 21)}
        overrides.update({20: Region.GREY, 21: Region.GREY})
        reports = [report(5, Decision.OCCUPIED), report(20, Decision.VACANT)]
        msg = spectrum_decision(state, reports, self.regions(grid, overrides),
                                grid, 1)
        assert msg.target_block == (20,)  # 21 was never sensed


class TestExecuteHandover:
    def pend(self, state, grid, frame_no=101):
        reports = [report(24, Decision.VACANT, t_ms=1003.0),
                   report(25, Decision.OCCUPIED, t_ms=1003.0),
                   report(26, Decision.VACANT, t_ms=1003.0)]
        regions = {ch: Region.WHITE for ch in range(grid.n_channels)}
        return spectrum_decision(state, reports, regions, grid, frame_no=frame_no)

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
        assert state.retuning_at(1025.0) and not state.retuning_at(1030.0)

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
        state.record_report(report(target, Decision.OCCUPIED, t_ms=1013.0))
        before_block = state.active_block
        state, event = execute_handover(state, msg, now_ms=1020.0)
        assert event.aborted
        assert state.active_block == before_block
        assert state.pending_handover is None
        # next decision round finds a new target avoiding the occupied one
        regions = {ch: Region.WHITE for ch in range(grid.n_channels)}
        msg2 = spectrum_decision(state, [], regions, grid, frame_no=103)
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
        reports = [report(24, Decision.VACANT, t_ms=1003.0),
                   report(25, Decision.OCCUPIED, t_ms=1003.0)]
        msg = spectrum_decision(state, reports, regions, grid, frame_no=101)
        assert msg.t_detect_ms == 1003.0
        _, event = execute_handover(state, msg, now_ms=1020.0, retune_ms=10.0)
        assert event.t_detect_ms == 1003.0
        assert event.latency_ms == 27.0

    def test_black_region_without_report_uses_the_frame_start(self, grid):
        state = make_state(block=(24, 25, 26))
        regions = {ch: Region.WHITE for ch in range(grid.n_channels)}
        regions[25] = Region.BLACK
        msg = spectrum_decision(state, [], regions, grid, frame_no=101)
        assert msg.t_detect_ms == 1010.0
        _, event = execute_handover(state, msg, now_ms=1020.0, retune_ms=10.0)
        assert event.latency_ms == 20.0

    def test_message_without_detection_time_uses_its_frame_start(self):
        msg = CogMessage(kind=MsgKind.PCOGCH_DECISION, target_block=(1,),
                         bandwidth_mhz=5, activation_frame=4, origin="c1", frame_no=3)
        assert msg.t_detect_ms == 30.0


class TestFusion:
    def test_or_rule_truth_table(self):
        own = report(4, Decision.VACANT)
        fused = fuse_cooperative(own, [report(4, Decision.OCCUPIED, cenb="c2")])
        assert fused.decision is Decision.OCCUPIED

    def test_identity_without_neighbors(self):
        own = report(4, Decision.VACANT)
        assert fuse_cooperative(own, []).decision is Decision.VACANT

    def test_majority_two_of_five_stays_vacant(self):
        own = report(4, Decision.OCCUPIED)
        neighbors = [report(4, Decision.OCCUPIED, cenb="c2")] + \
            [report(4, Decision.VACANT, cenb=f"c{i}") for i in (3, 4, 5)]
        fused = fuse_cooperative(own, neighbors, rule="MAJORITY")
        assert fused.decision is Decision.VACANT

    def test_mixed_channels_rejected(self):
        with pytest.raises(AggregationError):
            fuse_cooperative(report(4, Decision.VACANT),
                             [report(5, Decision.VACANT, cenb="c2")])

    def test_stale_reports_rejected(self):
        with pytest.raises(AggregationError):
            fuse_cooperative(report(4, Decision.VACANT, t_ms=0.0),
                             [report(4, Decision.VACANT, t_ms=25.0, cenb="c2")])


# 1-20 reports on one channel within one frame: (channel, [(decision, t_ms)], stats).
same_frame_reports = st.tuples(
    st.integers(0, 40),
    st.floats(0.0, 1e5),
    st.lists(st.tuples(st.sampled_from(Decision), st.floats(0.0, FRAME_MS)),
             min_size=1, max_size=20),
    st.tuples(*[st.floats(-150.0, 0.0)] * 3),
)


def _reports(drawn):
    channel, t0, verdicts, stats = drawn
    return [SensingReport(cenb_id=f"c{i}", channel_index=channel, decision=decision,
                          carrier_stats_dbm=stats if i == 0 else (-110.0,) * 3,
                          t_ms=t0 + dt)
            for i, (decision, dt) in enumerate(verdicts)]


class TestFusionProperties:
    @given(drawn=same_frame_reports)
    def test_rules_count_the_occupied_reports(self, drawn):
        own, *neighbors = reports = _reports(drawn)
        n_occ = sum(r.decision is Decision.OCCUPIED for r in reports)
        for rule, occupied in (("OR", n_occ > 0), ("MAJORITY", 2 * n_occ > len(reports))):
            fused = fuse_cooperative(own, neighbors, rule)
            assert fused.decision is (Decision.OCCUPIED if occupied else Decision.VACANT)
            assert (fused.cenb_id, fused.channel_index, fused.carrier_stats_dbm,
                    fused.t_ms) == (own.cenb_id, own.channel_index,
                                    own.carrier_stats_dbm, own.t_ms)

    @given(drawn=same_frame_reports, other=st.integers(0, 40), where=st.integers(0, 19))
    def test_a_neighbor_on_another_channel_is_rejected(self, drawn, other, where):
        own, *neighbors = _reports(drawn)
        if other == own.channel_index:
            other += 41
        neighbors.insert(where % (len(neighbors) + 1),
                         report(other, Decision.VACANT, t_ms=own.t_ms, cenb="cx"))
        channels = sorted({own.channel_index, other})
        for rule in ("OR", "MAJORITY"):
            with pytest.raises(AggregationError, match=re.escape(str(channels))):
                fuse_cooperative(own, neighbors, rule)

    @given(drawn=same_frame_reports, late=st.floats(1e-6, 100.0), where=st.integers(0, 19))
    def test_a_span_over_one_frame_is_rejected(self, drawn, late, where):
        own, *neighbors = reports = _reports(drawn)
        t_late = min(r.t_ms for r in reports) + FRAME_MS + late
        neighbors.insert(where % (len(neighbors) + 1),
                         report(own.channel_index, Decision.VACANT, t_ms=t_late, cenb="cx"))
        for rule in ("OR", "MAJORITY"):
            with pytest.raises(AggregationError):
                fuse_cooperative(own, neighbors, rule)

    @pytest.mark.parametrize("name", ["cenb_id", "channel_index", "decision",
                                      "carrier_stats_dbm", "t_ms"])
    def test_a_report_is_immutable(self, name):
        rep = report(4, Decision.VACANT)
        with pytest.raises(AttributeError):
            setattr(rep, name, None)
        assert rep == report(4, Decision.VACANT)


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
        assert vacant_runs(grid, [10, 11, 12, 13]) == [[10, 11], [12, 13]]
        # equal halves tie to the lowest index
        assert best_vacant_run(grid, [10, 11, 12, 13]) == [10, 11]
        # unsplit, 10..14 would be one run of five
        assert best_vacant_run(grid, [10, 11, 12, 13, 14]) == [12, 13, 14]

    def test_prefers_length_then_lowest(self, grid):
        assert best_vacant_run(grid, [1, 2, 3, 20, 21, 22]) == [1, 2, 3]


class TestSensingView:
    # Decision at frame 101 (1010 ms): a verdict sensed before 1000 ms is stale.
    @pytest.mark.parametrize("t_ms, stale", [(1003.0, False), (993.0, True)])
    def test_record_report_and_record_agree(self, grid, t_ms, stale):
        verdicts = [(24, Decision.OCCUPIED), (25, Decision.VACANT),
                    (24, Decision.VACANT), (26, Decision.OCCUPIED)]
        by_report = make_state(block=(24, 25, 26))
        by_record = make_state(block=(24, 25, 26))
        for ch, decision in verdicts:
            by_report.record_report(report(ch, decision, t_ms=t_ms))
            by_record.record(ch, decision is Decision.OCCUPIED, t_ms)
        for ch in range(grid.n_channels):
            assert by_report.unavailable(ch) == by_record.unavailable(ch)
        assert [ch for ch in (24, 25, 26) if by_record.unavailable(ch)] == [26]

        regions = {ch: Region.WHITE for ch in range(grid.n_channels)}
        regions[25] = Region.GREY

        def decide(state):
            try:
                return spectrum_decision(state, [], regions, grid, frame_no=101)
            except StaleSensingError:
                return "stale"

        outcome = decide(by_report)
        assert outcome == decide(by_record)
        assert (outcome == "stale") == stale
