"""Shared exception types.

Every failure mode that callers are expected to catch gets its own class
here; anything else surfaces as ValueError (bad arguments, violated
preconditions).
"""


class SkewstabError(Exception):
    """Base class for library-specific failures."""


class InsufficientPrecision(SkewstabError):
    """A result is undecidable at the precision carried by the inputs.

    Raised instead of silently guessing: the caller can retry with inputs
    that carry more terms.
    """


class NotRepresentable(SkewstabError):
    """The exact answer leaves the rational-coefficient setting.

    Typical source: a centre transport or reversion needing an n-th root
    of a rational number that has none.
    """


class DegenerateImage(SkewstabError):
    """A pushforward collapsed: the fibre map is constant on the disk."""


class NotRayInvariant(SkewstabError):
    """An interval model was requested along a ray the map does not preserve."""


class ValidationFailure(SkewstabError):
    """Probe validation of a heuristic construction failed within budget."""


class NotApplicable(SkewstabError):
    """The requested certificate machinery does not cover this input."""


class TooManyDigits(SkewstabError):
    """A number to be printed has more decimal digits than Python converts
    (``sys.get_int_max_str_digits()``, 4300 by default)."""


class RoundCapExceeded(SkewstabError):
    """An iterative closure hit its round cap.

    ``trace`` holds the per-round audit collected so far, so callers can
    inspect what kept growing.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace if trace is not None else []

