"""Exception types shared across the package, and its integer and scale tests."""

import math
import numbers


def _is_int(v) -> bool:
    """A Python or numpy integer; bools are ints to Python but not to us."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_finite_real(v) -> bool:
    """A finite Python or numpy integer or float; bools are refused, as in
    _is_int, and so is an integer too large for a float."""
    try:
        return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:
        return False


class MwmatchError(Exception):
    """Base class for every package-specific error."""


class DimensionError(MwmatchError, ValueError):
    """Operand shapes or sizes do not line up."""


class ValidationError(MwmatchError, ValueError):
    """Input content violates a structural invariant."""


class ParameterError(MwmatchError, ValueError):
    """A parameter value is outside its legal range."""


class SizeError(MwmatchError, ValueError):
    """Problem size exceeds a hard cap."""


class ConvergenceError(MwmatchError, RuntimeError):
    """An iterative routine failed to converge."""


class ParseError(MwmatchError, ValueError):
    """A file could not be parsed."""
