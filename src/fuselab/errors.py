"""Exception hierarchy shared across the package.

Every failure mode a caller may want to branch on gets its own class; the
CLI maps them onto exit codes (2 = bad arguments/config, 3 = bad input
data, 4 = numerical failure).
"""


class FuselabError(Exception):
    """Base class for all package-specific errors."""


class GridError(FuselabError):
    """A volume grid violates its invariants."""


class ShapeError(GridError):
    """Data length does not match the declared dimensions."""


class ValueRangeError(GridError):
    """A voxel value is outside the range allowed by the grid kind."""


class StackError(FuselabError):
    """An expert stack violates its invariants."""


class DimensionMismatchError(StackError):
    """Grids that must share dimensions do not."""


class MixedKindError(StackError):
    """Expert grids in one stack have different kinds."""


class DuplicateExpertIdError(StackError):
    """Two experts in a stack share an identifier."""


class EmptyStackError(StackError):
    """A stack contains no experts."""


class SvolError(FuselabError):
    """An SVOL file is malformed."""


class BadMagicError(SvolError):
    """The file does not start with the SVOL magic bytes."""


class HeaderError(SvolError):
    """The SVOL JSON header is missing, invalid, or inconsistent."""


class TruncatedPayloadError(SvolError):
    """The voxel payload is shorter than the header promises."""


class TrailingDataError(SvolError):
    """Extra bytes follow the voxel payload."""


class InputReadError(FuselabError):
    """An input file exists but cannot be read."""


class ConfigError(FuselabError):
    """A configuration object or config file holds an invalid value."""


class CapacityError(FuselabError):
    """A request exceeds the enumeration guard or the Monte Carlo draw budget."""


class DegeneratePosteriorError(FuselabError):
    """A posterior mass collapsed to zero, making an M-step undefined.

    ``side`` names the collapsed side ("sensitivity" when the foreground
    mass vanished, "specificity" for the background mass). ``ll_trace``
    carries the objective values of the iterations completed before the
    failure.
    """

    def __init__(self, side: str, ll_trace=()):
        self.side = side
        self.ll_trace = tuple(ll_trace)
        super().__init__(
            f"posterior mass collapsed on the {side} side; "
            f"{len(self.ll_trace)} iteration(s) completed before failure"
        )
