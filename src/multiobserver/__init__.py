"""Multi-observer state estimation under sparse sensor attacks.

Simulates discrete-time nonlinear plants whose sensors are partly
compromised, runs a bank of observers over sensor subsets, fuses them
by deviation-minimizing selection, and isolates the attacked sensors
by windowed threshold voting.
"""

__version__ = "0.1.0"

from .combinatorics import BankIndex, SubsetIndex, bank_index, enumerate_subsets
from .errors import (
    CalibrationError,
    ConfigurationError,
    EstimatorStarvedError,
    InternalConsistencyError,
    MultiObserverError,
    PlumbingError,
    SimulationDivergedError,
)
from .model import (
    AttackScenario,
    CircleStructure,
    InitSpec,
    PlantModel,
    ReducedStructure,
    SignalSpec,
    Trajectory,
    sample_block,
    signal_stream,
    simulate,
)
from .observers import (
    CircleCriterionObserver,
    ISSGainModel,
    LuenbergerObserver,
    Observer,
    ObserverBank,
    ReducedOrderObserver,
    certify_sector,
)
from .calibration import (
    CalibrationSettings,
    calibrate_bundle,
    calibrate_estimator,
    estimate_iss_gains,
)
from .estimator import (
    EstimatorRun,
    run_estimator,
)
from .isolation import (
    IsolationReport,
    IsolationWindow,
    ThresholdTable,
    compute_thresholds,
    windowed_isolation,
)
from .config import ScenarioConfig, build_bank, load_config
from .harness import RunArtifacts, calibrate, run_scenario, run_seeds
