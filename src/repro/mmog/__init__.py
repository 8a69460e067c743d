"""MMOG ecosystems (paper §6.2, Table 6).

The paper decomposes the MMOG ecosystem into four functions; all four are
modelled:

1. virtual-world operation — :mod:`repro.mmog.world` (zones and
   sessions with a player capacity, which the Yardstick capacity study
   in :mod:`repro.mmog.yardstick` fills) and :mod:`repro.mmog.rts`
   (RTSenv scalability, points of interest, the Area-of-Simulation
   technique, Mirror offloading);
2. gaming analytics — :mod:`repro.mmog.dynamics` (the longitudinal
   player-dynamics studies) and :mod:`repro.mmog.provisioning`
   (prediction-driven cloud provisioning for MMOGs);
3. procedural game-content generation — :mod:`repro.mmog.pgcg`
   (POGGI-style distributed puzzle generation);
4. meta-gaming — :mod:`repro.mmog.social` (implicit social networks,
   matchmaking) and :mod:`repro.mmog.toxicity` (toxicity detection).
"""

from repro.mmog.world import Zone, PlayerSession
from repro.mmog.dynamics import (
    GENRE_PROFILES,
    GenreProfile,
    PopulationTrace,
    simulate_population,
)
from repro.mmog.provisioning import (
    BrownoutProvisioningResult,
    LastValuePredictor,
    TrendPredictor,
    ProvisioningResult,
    run_brownout_provisioning,
    run_provisioning,
)
from repro.mmog.rts import (
    AreaOfSimulation,
    MirrorOffload,
    PointOfInterest,
    RTSWorkload,
    rts_frame_cost,
    rtsenv_sweep,
)
from repro.mmog.social import (
    InteractionGraph,
    matchmaking_quality,
    build_interaction_graph,
)
from repro.mmog.toxicity import ToxicityDetector, generate_chat
from repro.mmog.pgcg import PuzzleInstance, generate_puzzles, puzzle_difficulty
from repro.mmog.analytics import (
    CameoAnalytics,
    SessionRecord,
    generate_sessions,
)
from repro.mmog.yardstick import YardstickReport, capacity_study, run_yardstick

__all__ = [
    "AreaOfSimulation",
    "BrownoutProvisioningResult",
    "CameoAnalytics",
    "SessionRecord",
    "YardstickReport",
    "capacity_study",
    "generate_sessions",
    "run_yardstick",
    "GENRE_PROFILES",
    "GenreProfile",
    "InteractionGraph",
    "LastValuePredictor",
    "MirrorOffload",
    "PlayerSession",
    "PointOfInterest",
    "PopulationTrace",
    "ProvisioningResult",
    "PuzzleInstance",
    "RTSWorkload",
    "ToxicityDetector",
    "TrendPredictor",
    "Zone",
    "build_interaction_graph",
    "generate_chat",
    "generate_puzzles",
    "matchmaking_quality",
    "puzzle_difficulty",
    "rts_frame_cost",
    "rtsenv_sweep",
    "run_brownout_provisioning",
    "run_provisioning",
    "simulate_population",
]
