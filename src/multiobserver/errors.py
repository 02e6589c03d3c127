"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: configuration problems exit 1,
runtime failures (divergence, starvation, calibration) exit 2, and
I/O errors exit 3.
"""

from __future__ import annotations


class MultiObserverError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(MultiObserverError):
    """A config file, scenario, or gain bundle failed validation.

    ``problems`` collects every violation found so a user can fix them
    all in one pass instead of replaying the loader.
    """

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class SimulationDivergedError(MultiObserverError):
    """The plant state left the finite-magnitude ceiling."""

    def __init__(self, step, value):
        self.step = step
        self.value = value
        super().__init__(
            f"plant state exceeded the divergence ceiling at step {step} "
            f"(|x| = {value:.3e})"
        )


class EstimatorStarvedError(MultiObserverError):
    """Every observer in the bank diverged, so no estimate can be selected."""

    def __init__(self, step):
        self.step = step
        super().__init__(f"all deviation scores are infinite at step {step}")


class CalibrationError(MultiObserverError):
    """A calibration trial could not produce usable gain estimates."""


class InternalConsistencyError(MultiObserverError):
    """A cross-module invariant broke (e.g. a bank estimate went missing)."""


class PlumbingError(MultiObserverError):
    """Artifact files could not be written or read back."""
