"""Exception types shared across the package; `reading`, the one place
where a malformed input file becomes a ParseError that names the file; and
`integer_field`, the one rule for a record's integer header fields."""

import json
from contextlib import contextmanager


class BsfError(Exception):
    """Base class for all library errors."""


class DimensionError(BsfError, ValueError):
    """Inputs disagree in dimension or count."""


class InvalidIndexError(BsfError, ValueError):
    """A multi-index is malformed for the stated degree."""


class FaceError(BsfError, ValueError):
    """A face (objective subset) is empty or out of range."""


class BarycentricError(BsfError, ValueError):
    """A vector is too far from the standard simplex to repair."""


class DomainError(BsfError, ValueError):
    """A decision vector lies outside the problem's box bounds."""


class ParseError(BsfError, ValueError):
    """An input file or record is malformed; read through `reading`, the
    message leads with the file's path."""


class InsufficientDataError(BsfError, RuntimeError):
    """A fit step has no sample points to work with."""


class InsufficientFrontError(BsfError, RuntimeError):
    """A generated front has fewer points than requested."""


@contextmanager
def reading(path, what="file"):
    """Parse the file at `path` inside this block: an error the parse raises
    comes out as a ParseError led by `<path>: `. A KeyError is a field that
    the `what` lacks; any other TypeError or ValueError, the library's own
    included, keeps its message. An OSError, such as a missing file, passes
    through unchanged. Do not nest blocks: the inner path would be repeated."""
    try:
        yield
    except UnicodeDecodeError:  # a ValueError, so matched first
        raise ParseError(f"{path}: not a UTF-8 text file") from None
    except json.JSONDecodeError as exc:  # a ValueError too
        raise ParseError(f"{path}: not a JSON file ({exc})") from None
    except KeyError as exc:
        raise ParseError(f"{path}: {what} has no field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from None


def integer_field(record: dict, name: str) -> int:
    """record[name], which must be an int and not a bool: a float such as 3.0,
    a string or a list is a ParseError `<name> must be an integer, not <value>`."""
    value = record[name]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{name} must be an integer, not {value!r}")
    return value
