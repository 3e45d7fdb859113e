"""Exception types shared across the package, and its one integer rule."""

import re


def parse_int(text: str) -> int:
    """``text`` as an integer if it is ASCII ``-?[0-9]+``, else ValueError:
    ``int`` alone also reads ``+1``, ``1_0``, blanks and non-ASCII digits."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


class MpdrError(Exception):
    """Base class for domain errors raised by this package."""


class PreconditionError(MpdrError):
    """A documented precondition of an operation does not hold.

    The message names the failed clause so callers can report it verbatim.
    """


class CapExceededError(MpdrError):
    """An input is beyond the configured desk-scale cap."""


class FormatError(MpdrError):
    """A text or JSON document does not parse as the expected format."""


class SearchExhaustedError(MpdrError):
    """A search that is guaranteed to succeed ran out of candidates.

    Raised only by searches with a mathematical existence guarantee; if it
    fires, either the input violated an unstated hypothesis or there is a
    bug upstream.
    """
