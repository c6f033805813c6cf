"""Exception types shared across the library.

The CLI maps these onto distinct exit codes (see ``cli.EXIT_OK`` ...
``cli.EXIT_VERIFY``).
"""


class ErgodecayError(Exception):
    """Base class for library errors."""


class ConfigError(ErgodecayError):
    """Malformed descriptor string, parameter out of range, bad config."""


class ResourceCapError(ErgodecayError):
    """A computation would exceed a configured size cap (grid, search, support)."""


class SelectionStalled(ErgodecayError):
    """No admissible index below the search cap during subsequence selection.

    Carries the diagnostic ``report`` dict: the stage that stalled, the bound
    in force, the best (smallest) certified lower bound seen, and candidate
    counts by outcome.
    """

    def __init__(self, message: str, report: dict):
        super().__init__(message)
        self.report = report


class VerificationError(ErgodecayError):
    """An independently recomputed inequality failed."""
