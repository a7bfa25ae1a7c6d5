"""Cognitive TD-LTE in TV white space: deterministic simulator and analytics.

Subsystems:

* ``radio_env``   - TV-band channel grid, analog TV spectra, propagation
* ``sensing``     - narrowband feature detector, calibration, ROC
* ``geodb``       - protected contours, three-region access classification
* ``cenb``        - CR frame schedule, spectrum decisions, handover, ASM
* ``interference``- ACIR coexistence study and guard-band determination
* ``occupancy``   - duty cycles and channel classes on one noise floor per trace
* ``harness``     - scenario loop, metrics, report files
* ``cli``         - the ``tvwsim`` command
"""

__version__ = "0.1.0"

from .radio_env import (  # noqa: F401
    ChannelGrid,
    FrequencyBand,
    PropagationConfig,
    TvStandard,
    TvTransmitter,
    build_channel_grid,
    china_tv_grid,
    path_loss,
    received_spectrum,
    synthesize_tv_spectrum,
)
from .sensing import (  # noqa: F401
    DetectorConfig,
    calibrate_threshold,
    default_calibration,
    estimate_roc,
)
from .geodb import (  # noqa: F401
    GeoDb,
    Region,
    classify_region,
    query_vacant_channels,
    required_separation,
)
from .cenb import (  # noqa: F401
    AsmAssignment,
    CenbState,
    CogMessage,
    FrameSchedule,
    asm_allocate,
    build_frame_schedule,
    execute_handover,
    fuse_cooperative,
    select_bandwidth,
    spectrum_decision,
)
from .interference import (  # noqa: F401
    AcirCurve,
    CoexistenceConfig,
    GuardBandMap,
    HexTopology,
    acir_sweep,
    build_topology,
    determine_guard_band,
)
from .occupancy import (  # noqa: F401
    ChannelClass,
    OccupancyMatrix,
    ThresholdRule,
    classify_channel,
    duty_cycle,
    ingest_trace,
    summarize_band,
)
from .harness import (  # noqa: F401
    MetricsSeries,
    ScenarioConfig,
    emit_report,
    load_scenario,
    run_simulation,
)
