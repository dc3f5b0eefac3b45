"""Exception hierarchy.

Everything raised on bad user input or bad data derives from HashjackError.
The CLI maps those and OSError (a path that cannot be read or written) to
exit code 2, and anything else to exit code 1.
"""


class HashjackError(Exception):
    """Base class for all domain errors."""


class IngestError(HashjackError):
    """Unreadable or unusable input source."""


class RejectRateError(IngestError):
    """More than half of the input lines were rejected under --strict."""


class HashtagError(HashjackError, ValueError):
    """A hashtag is not [a-z0-9_]+ after normalization.

    Also a ValueError, so per-line record parsing rejects the line.
    """


class EdgelessGraphError(HashjackError):
    """Modularity is undefined on a graph with zero total edge weight."""


class LabelingError(HashjackError):
    """Seed labeling could not produce a valid pro/contra assignment."""


class EstimationError(HashjackError):
    """A contingency table or estimate could not be formed."""


class SynthConfigError(HashjackError):
    """Synthetic corpus configuration is invalid or infeasible."""


class StageError(HashjackError):
    """A pipeline stage cannot run (missing prerequisite, bad state)."""


class RunLockError(HashjackError):
    """Another writer holds the run-directory lock."""
