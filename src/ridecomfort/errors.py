"""Exception types raised across the toolkit.

Validation errors carry enough context (channel name, row index, field
path) to be actionable without a debugger.
"""

import copyreg


class RideComfortError(Exception):
    """Base class for all toolkit errors.

    Unpickled (a batch worker's error reaching the parent) without calling
    ``__init__``, whose arguments may differ from the ``args`` it passes on.
    """

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


# -- signal ingestion / containers -------------------------------------------

class EmptyFile(RideComfortError):
    pass


class MissingChannel(RideComfortError):
    def __init__(self, channel, path=None):
        self.channel = channel
        where = f" in {path}" if path else ""
        super().__init__(f"missing channel {channel!r}{where}")


class NonUniformSampling(RideComfortError):
    def __init__(self, row, dt_expected, dt_found):
        self.row = row
        super().__init__(
            f"non-uniform sampling at row {row}: step {dt_found:g} s, "
            f"expected {dt_expected:g} s"
        )


class NonFiniteSample(RideComfortError):
    def __init__(self, channel, row):
        self.channel = channel
        self.row = row
        super().__init__(f"non-finite sample in channel {channel!r} at row {row}")


class InvalidRate(RideComfortError):
    pass


# -- spectral estimation ------------------------------------------------------

class SegmentTooLong(RideComfortError):
    pass


class TooFewSegments(RideComfortError):
    pass


# -- body model ---------------------------------------------------------------

class SingularMassMatrix(RideComfortError):
    pass


class UnstableConfiguration(RideComfortError):
    def __init__(self, eigenvalue, mode_shape):
        self.eigenvalue = eigenvalue
        self.mode_shape = mode_shape
        super().__init__(
            f"closed-loop eigenvalue {eigenvalue:.4g} has non-negative real part; "
            f"dominant mode shape {mode_shape}"
        )


class NoEquilibrium(RideComfortError):
    pass


class NonFiniteState(RideComfortError):
    """``row``: the row of the simulated record where it happened, if known."""

    def __init__(self, time, coordinate, row=None):
        self.time = time
        self.coordinate = coordinate
        self.row = row
        super().__init__(
            f"state diverged: non-finite value in coordinate {coordinate!r} "
            f"at t = {time:.6g} s"
        )


# -- excitation / STHT --------------------------------------------------------

class InvalidBand(RideComfortError):
    pass


class GridMismatch(RideComfortError):
    pass


# -- comfort metrics ----------------------------------------------------------

class UnsupportedRate(RideComfortError):
    pass


class UnitMismatch(RideComfortError):
    pass


class RateMismatch(RideComfortError):
    pass


# -- pipeline -----------------------------------------------------------------

class ConfigError(RideComfortError):
    """Configuration invalid; `errors` lists (field_path, message) pairs."""

    def __init__(self, errors):
        self.errors = list(errors)
        lines = "; ".join(f"{path}: {msg}" for path, msg in self.errors)
        super().__init__(f"invalid configuration: {lines}")


class StageError(RideComfortError):
    """Wraps an error raised inside a pipeline stage."""

    def __init__(self, stage, cause):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage!r} failed: {cause}")


class IoError(RideComfortError):
    pass
