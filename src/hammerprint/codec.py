"""The line rule shared by the ``key=value`` profile texts.

Challenge and device profiles, mapping files, ``dataset.meta`` and
fingerprint files are read by ``read_profile``, in file order. Lines are
stripped, blank and ``#`` lines skipped, and the rest split on their
first ``=``. A single-valued key may appear once (either copy of a
repeat would not round-trip); a repeatable key (``temporal``,
``bankfn``) collects its values; key-less lines are read only where the
format has them (mapping masks, fingerprint locations). Any other line,
such as an unknown key, and any malformed value raise the format's own
error, whatever the underlying failure.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Collection, Iterator


def profile_lines(text: str) -> Iterator[tuple[str, str | None]]:
    """``(key, value)`` per content line; value is None without an ``=``."""
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            key, eq, value = line.partition("=")
            yield key, value if eq else None


def set_once(fields: dict, key: str, value, error: type[ValueError]) -> None:
    """Store a single-valued key; a repeat raises ``error``."""
    if key in fields:
        raise error(f"repeated {key!r} line")
    fields[key] = value


def read_profile(text: str, error: type[ValueError], what: str,
                 single: Collection[str] = (), repeated: Collection[str] = (),
                 bare: Callable[[str], object] | None = None) -> dict:
    """The ``single`` keys present, each ``repeated`` key with its list of values;
    ``bare`` takes each key-less line. Any other line raises ``error``."""
    fields: dict = {key: [] for key in repeated}
    for key, value in profile_lines(text):
        if value is None and bare is not None:
            bare(key)
        elif value is not None and key in single:
            set_once(fields, key, value, error)
        elif value is not None and key in repeated:
            fields[key].append(value)
        else:
            raise error(f"bad {what} line: {key if value is None else key + '=' + value!r}")
    return fields


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
