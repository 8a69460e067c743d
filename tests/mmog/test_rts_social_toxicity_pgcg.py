"""Tests for RTS scalability, social networks, toxicity, and PGCG."""

import numpy as np
import pytest

from repro.mmog import (
    AreaOfSimulation,
    MirrorOffload,
    PointOfInterest,
    RTSWorkload,
    ToxicityDetector,
    build_interaction_graph,
    generate_chat,
    generate_puzzles,
    matchmaking_quality,
    puzzle_difficulty,
    rts_frame_cost,
    rtsenv_sweep,
)
from repro.mmog.pgcg import SOLVED, scramble
from repro.mmog.rts import replay_derived_workload
from repro.mmog.social import CoPlayRecord, generate_coplay
from repro.sim import RandomStreams


@pytest.fixture
def rng():
    return RandomStreams(seed=43).get("mmog2")


class TestRTSenv:
    def test_quadratic_wall(self):
        """Uniform-fidelity cost grows superlinearly — the RTSenv finding
        that naive scaling fails."""
        rows = rtsenv_sweep([10, 100, 1000])
        costs = [r["frame_cost"] for r in rows]
        assert costs[1] / costs[0] > 10      # superlinear
        assert costs[2] / costs[1] > 10

    def test_playability_threshold_located(self):
        rows = rtsenv_sweep([10, 50, 100, 500, 2000])
        playable = [bool(r["playable"]) for r in rows]
        assert playable[0] is True
        assert playable[-1] is False
        # Monotone: once unplayable, stays unplayable.
        first_fail = playable.index(False)
        assert all(not p for p in playable[first_fail:])

    def test_aos_speedup_on_replay_workload(self, rng):
        """Area of Simulation wins big when most entities are background."""
        workload = replay_derived_workload(rng)
        aos = AreaOfSimulation(workload)
        assert aos.speedup > 5.0

    def test_aos_no_gain_for_single_micromanaged_melee(self):
        workload = RTSWorkload(
            pois=[PointOfInterest("all", entities=200, micromanaged=True)],
            background_entities=0)
        aos = AreaOfSimulation(workload)
        assert aos.speedup == pytest.approx(1.0)

    def test_mirror_offload_pays_for_heavy_frames(self):
        mirror = MirrorOffload(device_speed=1.0, cloud_speed=10.0,
                               rtt_s=0.05)
        heavy_cost = 1.0
        fraction, best_time = mirror.best_offload(heavy_cost)
        assert fraction > 0.5
        assert best_time < mirror.frame_time(heavy_cost, 0.0)

    def test_mirror_offload_useless_for_light_frames(self):
        mirror = MirrorOffload(device_speed=1.0, cloud_speed=10.0,
                               rtt_s=0.5)
        light_cost = 0.01
        fraction, _ = mirror.best_offload(light_cost)
        assert fraction == pytest.approx(0.0)

    def test_mirror_fraction_validation(self):
        with pytest.raises(ValueError):
            MirrorOffload().frame_time(1.0, 1.5)


class TestSocialNetworks:
    def test_planted_groups_recovered(self, rng):
        records = generate_coplay(rng, n_players=60, n_matches=400,
                                  n_groups=6, social_bias=0.9)
        graph = build_interaction_graph(records)
        communities = graph.communities()
        big = [c for c in communities if len(c) >= 5]
        assert len(big) >= 4  # most planted groups found

    def test_strong_ties_form_under_bias(self, rng):
        records = generate_coplay(rng, n_matches=300, social_bias=0.9)
        graph = build_interaction_graph(records)
        assert len(graph.strong_ties(min_weight=3)) > 0

    def test_random_play_has_weak_ties(self, rng):
        records = generate_coplay(rng, n_players=80, n_matches=150,
                                  social_bias=0.0)
        graph = build_interaction_graph(records)
        assert len(graph.strong_ties(min_weight=5)) == 0

    def test_suggest_teammates_prefers_strong_ties(self):
        graph = build_interaction_graph([
            CoPlayRecord(0, ("a", "b")),
            CoPlayRecord(1, ("a", "b")),
            CoPlayRecord(2, ("a", "c")),
        ])
        assert graph.suggest_teammates("a", k=2) == ["b", "c"]

    def test_suggest_includes_friends_of_friends(self):
        graph = build_interaction_graph([
            CoPlayRecord(0, ("a", "b")),
            CoPlayRecord(1, ("b", "c")),
        ])
        assert graph.suggest_teammates("a", k=3) == ["b", "c"]

    def test_unknown_player_suggestions_empty(self):
        graph = build_interaction_graph([])
        assert graph.suggest_teammates("ghost") == []

    def test_matchmaking_quality_metric(self, rng):
        records = generate_coplay(rng, n_matches=300, social_bias=0.9)
        graph = build_interaction_graph(records)
        social_party = graph.suggest_teammates("player-000", k=3)
        social_party = ["player-000"] + social_party
        random_party = ["player-000", "player-020", "player-040",
                        "player-055"]
        assert matchmaking_quality(graph, [social_party]) > (
            matchmaking_quality(graph, [random_party]))

    def test_dedup_within_match(self):
        graph = build_interaction_graph([CoPlayRecord(0, ("a", "a", "b"))])
        assert graph.n_players == 2
        assert graph.tie_strength("a", "b") == 1


class TestToxicity:
    def test_detector_catches_planted_toxicity(self, rng):
        messages = generate_chat(rng, n_messages=500)
        detector = ToxicityDetector(threshold=0.45)
        metrics = detector.evaluate(messages)
        assert metrics["precision"] > 0.9  # friendly chat never flagged
        assert metrics["recall"] > 0.5

    def test_friendly_messages_score_zero(self):
        from repro.mmog.toxicity import ChatMessage
        detector = ToxicityDetector()
        msg = ChatMessage(author="a", text="good game well played", time=0)
        assert detector.score(msg) == 0.0

    def test_shouting_amplifies(self):
        from repro.mmog.toxicity import ChatMessage
        detector = ToxicityDetector()
        quiet = ChatMessage(author="a", text="my team is garbage", time=0)
        loud = ChatMessage(author="b", text="MY TEAM IS GARBAGE", time=0)
        assert detector.score(loud) > detector.score(quiet)

    def test_repeat_offenders_found(self, rng):
        messages = generate_chat(rng, n_players=10, n_messages=600,
                                 toxic_player_fraction=0.2,
                                 toxic_message_rate=0.8)
        detector = ToxicityDetector(threshold=0.45)
        offenders = detector.repeat_offenders(messages, min_toxic=3)
        truly_toxic = {m.author for m in messages if m.toxic}
        assert offenders
        assert set(offenders) <= truly_toxic

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            ToxicityDetector(threshold=0)

    def test_evaluate_requires_labels(self):
        from repro.mmog.toxicity import ChatMessage
        detector = ToxicityDetector()
        with pytest.raises(ValueError):
            detector.evaluate([ChatMessage("a", "hi", 0.0)])


class TestPGCG:
    def test_solved_difficulty_zero(self):
        assert puzzle_difficulty(SOLVED) == 0

    def test_one_move_difficulty(self):
        board = list(SOLVED)
        board[8], board[7] = board[7], board[8]
        assert puzzle_difficulty(tuple(board)) == 1

    def test_invalid_board_rejected(self):
        with pytest.raises(ValueError):
            puzzle_difficulty((1, 1, 2, 3, 4, 5, 6, 7, 8))

    def test_scramble_solvable(self, rng):
        for _ in range(5):
            board = scramble(rng, walk_length=12)
            assert puzzle_difficulty(board, max_depth=14) is not None

    def test_generated_puzzles_in_band(self, rng):
        puzzles = generate_puzzles(rng, count=5, difficulty_band=(4, 10))
        assert len(puzzles) == 5
        for p in puzzles:
            assert 4 <= p.difficulty <= 10
            assert p.board != SOLVED

    def test_invalid_band(self, rng):
        with pytest.raises(ValueError):
            generate_puzzles(rng, count=1, difficulty_band=(5, 3))
