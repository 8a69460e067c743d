"""TAB6 — Table 6: the MMOG design studies.

- [71]/[72]/[73] dynamics: diurnal + long-term population dynamics per
  genre, and prediction-driven provisioning vs static peak provisioning;
- [76] RTSenv: the uniform-fidelity scalability wall;
- [81] Area of Simulation: cost reduction on replay-shaped workloads;
- [82] Mirror: computation offloading;
- [74]/[75] social networks: implicit communities, and matchmaking by
  social proximity against random parties;
- [77] toxicity: detector quality on planted toxic players;
- [78] POGGI: puzzle generation throughput and rejection rate.
"""

import numpy as np

from repro.mmog import (
    AreaOfSimulation,
    GENRE_PROFILES,
    MirrorOffload,
    ToxicityDetector,
    TrendPredictor,
    LastValuePredictor,
    build_interaction_graph,
    generate_chat,
    generate_puzzles,
    matchmaking_quality,
    rtsenv_sweep,
    run_provisioning,
    simulate_population,
)
from repro.mmog.provisioning import static_provisioning
from repro.mmog.rts import replay_derived_workload
from repro.mmog.social import generate_coplay
from repro.sim import RandomStreams


def bench_tab6_population_dynamics(benchmark, report, table):
    streams = RandomStreams(seed=601)

    def run():
        return {
            genre: simulate_population(streams.get(f"pop-{genre}"),
                                       genre=genre, days=14,
                                       base_arrivals_per_s=0.04)
            for genre in GENRE_PROFILES
        }

    traces = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[genre, f"{t.peak:.0f}", f"{t.peak_to_trough:.1f}",
             f"{t.long_term_growth():+.4f}"]
            for genre, t in traces.items()]
    report("tab6_dynamics",
           "Table 6 [71,72,73]: population dynamics per genre",
           table(["genre", "peak players", "peak/trough",
                  "daily growth (log)"], rows))
    assert traces["mmorpg"].peak_to_trough > 1.5
    assert traces["social"].long_term_growth() > (
        traces["declining"].long_term_growth())


def bench_tab6_provisioning(benchmark, report, table):
    streams = RandomStreams(seed=602)
    trace = simulate_population(streams.get("prov"), genre="mmorpg",
                                days=7, base_arrivals_per_s=0.06)
    demand = trace.population

    def run():
        return {
            "static-peak": static_provisioning(demand, percentile=100),
            "last-value": run_provisioning(demand, LastValuePredictor(),
                                           provisioning_delay_steps=3),
            "trend": run_provisioning(demand, TrendPredictor(window=6),
                                      provisioning_delay_steps=3),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[name, f"{r.server_hours:.0f}",
             f"{r.underprovisioned_fraction:.1%}",
             f"{r.mean_utilization:.0%}"]
            for name, r in results.items()]
    report("tab6_provisioning",
           "Table 6 [71,87]: MMOG provisioning policies",
           table(["policy", "server hours", "time under-provisioned",
                  "mean utilization"], rows))
    # Elastic provisioning is much cheaper than static peak...
    assert results["trend"].server_hours < (
        0.8 * results["static-peak"].server_hours)
    # ...and trend prediction beats naive persistence on degraded time.
    assert results["trend"].unserved_player_time <= (
        results["last-value"].unserved_player_time)


def bench_tab6_rtsenv_and_aos(benchmark, report, table):
    """[76] + [81]: the scalability wall and the AoS fix."""
    def run():
        # Drawn afresh in every repetition the benchmark makes, so each
        # one replays the same 20 workloads.
        rng = RandomStreams(seed=603).get("rts")
        sweep = rtsenv_sweep([10, 50, 100, 200, 500, 1000, 2000])
        aos_results = [AreaOfSimulation(replay_derived_workload(rng))
                       for _ in range(20)]
        return sweep, aos_results

    sweep, aos_results = benchmark(run)
    rows = [[f"{r['entities']:.0f}", f"{r['frame_cost'] * 1000:.1f} ms",
             "yes" if r["playable"] else "no"] for r in sweep]
    lines = table(["entities (uniform melee)", "frame cost",
                   "30 Hz playable"], rows)
    speedups = [a.speedup for a in aos_results]
    lines.append("")
    lines.append(f"Area of Simulation on replay-shaped workloads "
                 f"(n={len(speedups)}): median speedup "
                 f"{np.median(speedups):.1f}x, "
                 f"min {min(speedups):.1f}x, max {max(speedups):.1f}x")
    report("tab6_rtsenv", "Table 6 [76,81]: RTS scalability", lines)
    playable = [bool(r["playable"]) for r in sweep]
    assert playable[0] and not playable[-1]
    assert np.median(speedups) > 5


def bench_tab6_mirror(benchmark, report, table):
    """[82]: computation offloading for sophisticated mobile games."""
    mirror = MirrorOffload(device_speed=1.0, cloud_speed=10.0, rtt_s=0.05)

    def run():
        return [(cost,) + mirror.best_offload(cost)
                for cost in (0.005, 0.02, 0.1, 0.5, 1.0)]

    results = benchmark(run)
    rows = [[f"{cost:.3f}", f"{fraction:.0%}", f"{t * 1000:.0f} ms",
             f"{cost / 1.0 * 1000:.0f} ms"]
            for cost, fraction, t in results]
    report("tab6_mirror", "Table 6 [82]: Mirror offloading",
           table(["frame cost (s of device work)", "best offload",
                  "frame time", "device-only"], rows))
    # Light frames stay local; heavy frames offload most of the work.
    assert results[0][1] == 0.0
    assert results[-1][1] > 0.5


def bench_tab6_social_networks(benchmark, report, table):
    """[74,75]: implicit social networks and matchmaking."""
    rng = RandomStreams(seed=604).get("social")
    records = generate_coplay(rng, n_players=80, n_matches=600,
                              n_groups=8, social_bias=0.85)
    graph = benchmark(build_interaction_graph, records)
    communities = [c for c in graph.communities() if len(c) >= 5]
    strong = graph.strong_ties(min_weight=3)
    # Matchmaking [75]: one party per player, the player plus its four
    # socially closest teammates, against random 5-player parties drawn
    # from their own stream so the co-play draws above do not move.
    players = sorted(graph.graph.nodes)
    social_parties = [[p] + graph.suggest_teammates(p, k=4) for p in players]
    party_rng = RandomStreams(seed=604).get("parties")
    random_parties = [list(party_rng.choice(players, size=5, replace=False))
                      for _ in players]
    social_q = matchmaking_quality(graph, social_parties)
    random_q = matchmaking_quality(graph, random_parties)
    report("tab6_social", "Table 6 [74,75]: implicit social networks", [
        f"- players: {graph.n_players}, ties: {graph.n_ties}",
        f"- strong (repeated) ties: {len(strong)}",
        f"- communities of >=5 players recovered: {len(communities)} "
        f"(8 planted)",
        f"- matchmaking by social graph, mean in-party tie strength: "
        f"{social_q:.2f}",
        f"- random 5-player parties, mean in-party tie strength: "
        f"{random_q:.2f}",
    ])
    assert len(communities) >= 5
    assert strong
    assert social_q > random_q


def bench_tab6_toxicity(benchmark, report, table):
    """[77]: toxicity detection quality."""
    rng = RandomStreams(seed=605).get("tox")
    messages = generate_chat(rng, n_players=30, n_messages=800,
                             toxic_player_fraction=0.15)
    detector = ToxicityDetector(threshold=0.45)
    metrics = benchmark(detector.evaluate, messages)
    offenders = detector.repeat_offenders(messages, min_toxic=3)
    report("tab6_toxicity", "Table 6 [77]: toxicity detection", [
        f"- messages: {len(messages)}",
        f"- precision: {metrics['precision']:.2f}, recall: "
        f"{metrics['recall']:.2f}, F1: {metrics['f1']:.2f}",
        f"- repeat offenders flagged: {len(offenders)}",
    ])
    assert metrics["precision"] > 0.9
    assert metrics["recall"] > 0.5


def bench_tab6_poggi(benchmark, report, table):
    """[78]: POGGI puzzle generation."""
    rng = RandomStreams(seed=606).get("poggi")
    puzzles = benchmark.pedantic(
        generate_puzzles, args=(rng, 20), kwargs={"difficulty_band": (6, 14)},
        rounds=1, iterations=1)
    difficulties = [p.difficulty for p in puzzles]
    report("tab6_poggi", "Table 6 [78]: POGGI content generation", [
        f"- puzzles generated: {len(puzzles)}",
        f"- difficulty range: {min(difficulties)}..{max(difficulties)} "
        f"moves (band 6..14)",
    ])
    assert len(puzzles) == 20
    assert all(6 <= d <= 14 for d in difficulties)


def bench_tab6_cameo(benchmark, report, table):
    """[79] CAMEO: continuous analytics under a cloud budget."""
    from repro.mmog.analytics import CameoAnalytics, generate_sessions

    rng = RandomStreams(seed=607).get("cameo")
    sessions = generate_sessions(rng, n_players=400, days=7)
    cameo = CameoAnalytics()
    full_cost = len(sessions) * cameo.cost_per_event

    def run():
        return {
            f"{frac:.0%} budget": cameo.analyze_within_budget(
                sessions, full_cost * frac)
            for frac in (1.0, 0.25, 0.05)
        }

    reports = benchmark(run)
    rows = [[label, f"${r.cloud_cost:.3f}", r.events_processed,
             f"{r.mean_relative_error:.1%}"]
            for label, r in reports.items()]
    report("tab6_cameo",
           "Table 6 [79]: CAMEO analytics under budget",
           table(["budget", "cloud cost", "events analyzed",
                  "DAU error"], rows))
    assert reports["100% budget"].mean_relative_error < 0.01
    assert (reports["5% budget"].cloud_cost
            < 0.1 * reports["100% budget"].cloud_cost)


def bench_tab6_yardstick(benchmark, report, table):
    """[84] Yardstick: real vs nominal capacity of game servers."""
    from repro.mmog.yardstick import capacity_study

    rows_data = benchmark(capacity_study, [25, 50, 100, 200])
    rows = [[f"{r['nominal_capacity']:.0f}", f"{r['max_playable']:.0f}",
             f"{r['degradation_onset']:.0f}",
             "yes" if r["hard_capacity_hit"] else "no"]
            for r in rows_data]
    report("tab6_yardstick",
           "Table 6 [84]: Yardstick game-server capacity",
           table(["nominal capacity", "max playable", "degradation "
                  "onset", "hard cap hit"], rows))
    playable = [r["max_playable"] for r in rows_data]
    assert playable == sorted(playable)
