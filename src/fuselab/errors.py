"""Exception hierarchy shared across the package.

Every failure mode a caller may want to branch on gets its own class; the
CLI maps them onto exit codes (2 = bad arguments/config, 3 = bad input
data, 4 = numerical failure). ``check_number`` is the one check of a
numeric config field or argument, and ``_refuse_over`` the one size refusal.
"""

import numbers

# Seeds and stream indices lie in [0, SEED_SPAN): each is one 64-bit Philox key word.
SEED_SPAN = 1 << 64


class FuselabError(Exception):
    """Base class for all package-specific errors."""


class GridError(FuselabError):
    """A volume grid violates its invariants."""


class ShapeError(GridError):
    """Data length does not match the declared dimensions."""


class ValueRangeError(GridError):
    """A voxel value is outside the range allowed by the grid kind."""


class GridIndexError(GridError):
    """An indexed grid's voxel index is not integer or points outside its table."""


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
    """A request exceeds a size bound: ``ENUMERATION_GUARD``, ``EXACT_TERM_LIMIT``,
    ``MC_DRAW_LIMIT``, ``MC_ENTRY_LIMIT``, ``_MC_RUN_DRAW_LIMIT``, ``SIMULATE_BYTE_LIMIT``,
    ``STACK_BYTE_LIMIT`` or ``COLUMN_VOTE_LIMIT``."""


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


def check_number(name: str, value, integral: bool = False, *,
                 ge=None, gt=None, le=None, lt=None) -> None:
    """Refuse a value that is not a real number (an integer when
    ``integral``), or that breaks a bound, with a ConfigError naming
    ``name``, the value and the whole allowed range. A bool is never a
    number, NaN fails every bound, and a real must convert to a float."""
    kind, noun = (numbers.Integral, "an integer") if integral else (numbers.Real, "a number")
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"{name} must be {noun}, got {value!r}")
    if not integral:  # Python compares a huge int with a float bound exactly
        try:
            float(value)
        except OverflowError:
            raise ConfigError(f"{name} must be a number within float range") from None
    if not ((ge is None or value >= ge) and (gt is None or value > gt)
            and (le is None or value <= le) and (lt is None or value < lt)):
        low = f"[{ge}" if ge is not None else f"({gt}" if gt is not None else "[-inf"
        high = f"{le}]" if le is not None else f"{lt})" if lt is not None else "inf]"
        raise ConfigError(f"{name} must lie in {low}, {high}, got {value}")


def _refuse_over(count: int, limit: int, what: str, advice: str) -> None:
    """Refuse ``count`` ``what`` over ``limit``: a CapacityError naming both."""
    if count > limit:
        raise CapacityError(f"{count} {what} exceed the limit of {limit}"
                            + (f"; {advice}" if advice else ""))
