"""Exception types shared across the package."""


class InputError(ValueError):
    """Bad parameters or malformed caller input."""


class LoadError(InputError):
    """Malformed algebra document."""


class ResourceCapError(RuntimeError):
    """A requested computation exceeds the configured size cap."""


class ConsistencyError(RuntimeError):
    """An internal invariant failed (e.g. a character is not polynomial)."""


PRINTED_BELOW = 10**18


def shown(value) -> str:
    """value as an error message prints it, in bounded length.

    An int is written in decimal while |value| < 10^18, else "over 10^18"
    or "below -10^18", so no message converts an unbounded int to str;
    a str longer than 40 characters is the repr of its first 40 and
    "..."; any other value is its repr.
    """
    if isinstance(value, int):
        if value >= PRINTED_BELOW:
            return "over 10^18"
        return "below -10^18" if value <= -PRINTED_BELOW else str(value)
    if isinstance(value, str) and len(value) > 40:
        return repr(value[:40]) + "..."
    return repr(value)
