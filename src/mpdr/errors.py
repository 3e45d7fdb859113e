"""Exception types shared across the package, and its one rule for reading text."""

import re


def parse_int(text: str) -> int:
    """``text`` as an integer if it is ASCII ``-?[0-9]+``, else ValueError:
    ``int`` alone also reads ``+1``, ``1_0``, blanks and non-ASCII digits."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def fields(line: str) -> list[str]:
    """The fields of ``line``, separated by runs of ASCII space or tab: no
    other character, Unicode spaces included, separates anything."""
    return [f for f in line.replace("\t", " ").split(" ") if f]


def read_text(text: str, headers: dict[str, str]) -> tuple[str, int, list[list[str]]]:
    """The header keyword, the header integer and the fields of every later
    line of a text input.  A line ends at ``\\n`` (the ``\\r`` of a CRLF
    ending dropped), ``#`` starts a comment, and a line with no fields is
    skipped.  The first line must be exactly ``<keyword> <integer>``, where
    ``headers`` maps each allowed keyword to what its integer is called."""
    lines = [fields(line.removesuffix("\r").split("#", 1)[0]) for line in text.split("\n")]
    head, *body = [line for line in lines if line] or [[]]
    if not head or head[0] not in headers:
        expected = " or ".join(f"'{keyword} <integer>'" for keyword in headers)
        raise FormatError(f"the first line must be {expected}, got {' '.join(head)!r}")
    try:
        (value,) = head[1:]
        return head[0], parse_int(value), body
    except ValueError as exc:
        raise FormatError(f"bad {headers[head[0]]} line: {' '.join(head)!r}") from exc


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
