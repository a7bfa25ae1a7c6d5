"""Cognitive TD-LTE in TV white space: deterministic simulator and analytics.

Subsystems:

* ``radio_env``   - channel grid, TV spectra, propagation, value parsers
* ``sensing``     - narrowband feature detector, calibration file, ROC
* ``geodb``       - protected contours, three-region access classification
* ``cenb``        - CR frame schedule, spectrum decisions, handover, ASM
* ``interference``- ACIR coexistence study and guard-band determination
* ``occupancy``   - duty cycles and channel classes on one noise floor per trace
* ``harness``     - scenario loop, metrics, report files
* ``cli``         - the ``tvwsim`` command
"""

__version__ = "0.1.0"

# Read only by benchmarks/workloads.py; the line goes once the benchmark
# builds its own grid (ROADMAP item 1b).
from .radio_env import china_tv_grid  # noqa: F401
