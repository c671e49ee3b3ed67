"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors.  Warning categories for non-fatal conditions
(e.g. an inference run that hits its iteration cap) are also defined here.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class DataFormatError(ReproError):
    """An input file, matrix, or record does not match the expected format."""


class ValidationError(ReproError, ValueError):
    """A function argument violates its documented contract."""


class MissingAttributeError(ReproError, AttributeError):
    """A module has no attribute of the requested name.

    Raised by the lazy export hook of :mod:`repro` (a PEP 562
    ``__getattr__``), which must raise :class:`AttributeError` so that
    ``hasattr`` and ``from repro import <submodule>`` keep working.
    """


class ConfigurationError(ValidationError):
    """A configuration value selects an unknown backend, executor, or mode.

    Subclass of :class:`ValidationError` so existing ``except`` clauses keep
    working; raised where the invalid value came from configuration (an
    executor ``kind``, a ``CPAConfig.backend``) rather than from data.
    """


class TransportError(ReproError, ConnectionError):
    """A remote lane's network channel failed (closed, truncated, refused).

    Subclass of :class:`ConnectionError` so network-aware callers can treat
    it like any other connection failure; raised by the length-prefixed
    framing layer (:mod:`repro.utils.transport`) and by
    :class:`~repro.utils.parallel.RemoteExecutor` when every lane is gone.
    """


class WorkerFailure(ReproError):
    """A remote worker daemon reported an exception while running a task.

    Carries the remote traceback text so the failure site on the worker is
    visible from the client; distinct from :class:`TransportError` — the
    channel is healthy, the *task* failed.
    """

    def __init__(self, message: str, remote_traceback: str = "") -> None:
        super().__init__(message)
        self.remote_traceback = remote_traceback


class CheckpointError(ReproError):
    """A serialized CPAState checkpoint is unreadable, unwritable or
    incompatible.

    Raised by :mod:`repro.core.checkpoint` on magic/version mismatches,
    corrupted payloads, and growth requests that would *shrink* an index
    space (checkpoints only ever grow into a larger engine), and by
    :class:`repro.fleet.FleetManager` when its snapshot file cannot be
    written.
    """


class InferenceError(ReproError):
    """Model inference failed irrecoverably (e.g. non-finite parameters)."""


class PredictionError(ReproError):
    """Label-set prediction was requested from an unfitted or broken model."""


class NotFittedError(PredictionError):
    """An estimator method requiring a fitted model was called before fit."""


class ExperimentError(ReproError):
    """An experiment module was misconfigured or referenced an unknown id."""


class AnalysisError(ReproError):
    """The static-analysis pass (:mod:`repro.analysis`) cannot run.

    Raised for unparseable sources, malformed baseline files, and unknown
    rule ids — infrastructure failures of the analyzer itself, distinct
    from the findings it reports (findings are data, not exceptions)."""


class ConvergenceWarning(UserWarning):
    """Inference stopped at the iteration cap before meeting its tolerance."""


class NumericalWarning(UserWarning):
    """A numerically delicate quantity was clamped to keep inference stable."""
