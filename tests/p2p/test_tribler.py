"""Tests for the Tribler-style social overlay ([69])."""

import pytest

from repro.p2p.peer import PEER_CLASSES
from repro.p2p.tribler import (
    SocialOverlay,
    SocialPeer,
    social_circle_study,
)
from repro.sim import RandomStreams


def overlay_with_friends(n_friends=4, online=True, busy=False):
    overlay = SocialOverlay()
    overlay.add_member(SocialPeer("c", PEER_CLASSES["adsl"]))
    for i in range(n_friends):
        overlay.add_member(SocialPeer(f"f{i}", PEER_CLASSES["adsl"],
                                      online=online, busy=busy))
        overlay.befriend("c", f"f{i}")
    return overlay


class TestSocialOverlay:
    def test_membership_and_friendship(self):
        overlay = overlay_with_friends(3)
        assert len(overlay.friends_of("c")) == 3
        with pytest.raises(ValueError):
            overlay.add_member(SocialPeer("c", PEER_CLASSES["adsl"]))
        with pytest.raises(KeyError):
            overlay.befriend("c", "ghost")
        with pytest.raises(ValueError):
            overlay.befriend("c", "c")

    def test_recruits_only_idle_online_friends(self):
        overlay = overlay_with_friends(4)
        overlay.members["f0"].online = False
        overlay.members["f1"].busy = True
        helpers = overlay.recruit_helpers("c")
        assert {h.name for h in helpers} == {"f2", "f3"}

    def test_recruits_best_uplinks_first(self):
        overlay = overlay_with_friends(2)
        overlay.add_member(SocialPeer("uni", PEER_CLASSES["university"]))
        overlay.befriend("c", "uni")
        helpers = overlay.recruit_helpers("c", max_helpers=1)
        assert helpers[0].name == "uni"

    def test_speedup_grows_with_helpers(self):
        lonely = overlay_with_friends(0)
        social = overlay_with_friends(4)
        assert social.social_speedup("c") > lonely.social_speedup("c")
        assert lonely.social_speedup("c") == pytest.approx(1.0)

    def test_speedup_capped_by_download_link(self):
        overlay = overlay_with_friends(32)
        rate = overlay.download_rate_mbps("c", max_helpers=32)
        assert rate <= PEER_CLASSES["adsl"].download_kbps / 1024.0 + 1e-9


class TestSocialCircleStudy:
    def test_speedup_monotone_in_circle_size(self):
        rng = RandomStreams(seed=64).get("study")
        rows = social_circle_study(rng, circle_sizes=(0, 4, 16),
                                   online_fraction=1.0,
                                   busy_fraction=0.0)
        speedups = [r["speedup"] for r in rows]
        assert speedups == sorted(speedups)
        assert speedups[0] == pytest.approx(1.0)
        assert speedups[-1] > 3.0

    def test_availability_limits_the_gain(self):
        always = social_circle_study(
            RandomStreams(seed=65).get("a"), circle_sizes=(8,),
            online_fraction=1.0, busy_fraction=0.0)[0]
        flaky = social_circle_study(
            RandomStreams(seed=65).get("b"), circle_sizes=(8,),
            online_fraction=0.3, busy_fraction=0.5)[0]
        assert flaky["available_helpers"] < always["available_helpers"]
        assert flaky["speedup"] <= always["speedup"]
