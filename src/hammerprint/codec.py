"""The line codec shared by the ``key=value`` profile texts.

Challenge profiles, device profiles, mapping files, ``dataset.meta`` and
fingerprint files use one line syntax: each line is stripped, blank and
``#`` lines are skipped, and a line splits on its first ``=``. Each
parser raises its own format's error for anything malformed, whatever
the underlying failure.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator


def profile_lines(text: str) -> Iterator[tuple[str, str | None]]:
    """``(key, value)`` per content line; value is None without an ``=``."""
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            key, eq, value = line.partition("=")
            yield key, value if eq else None


def set_once(fields: dict, key: str, value, error: type[ValueError]) -> None:
    """Store a single-valued key; a repeat raises ``error``, because
    taking either copy would leave a text that does not round-trip."""
    if key in fields:
        raise error(f"repeated {key!r} line")
    fields[key] = value


def parse_bit_range(text: str) -> tuple[int, int]:
    """A ``lo:hi`` bit range."""
    lo, hi = text.split(":")
    return int(lo), int(hi)


@contextmanager
def profile_errors(error: type[ValueError], what: str):
    """Re-raise a missing field or a malformed value as ``error``."""
    try:
        yield
    except error:
        raise
    except KeyError as e:
        raise error(f"{what} missing field {e.args[0]!r}") from None
    except ValueError as e:
        raise error(f"bad {what}: {e}") from None
