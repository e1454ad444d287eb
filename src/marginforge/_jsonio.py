"""Shared JSON file helpers: atomic writes, parse errors with context, and
the one rule that types a value read from a JSON document."""

from __future__ import annotations

import json
import math
import os
import stat
from typing import Iterable

from .errors import ParseError


def atomic_write_text(path, chunks: Iterable[str]):
    """Write chunks, a sequence or generator of strings, to path via a
    temp file + rename, so readers never see a half-written file. Each
    chunk is written as it arrives, so a generator's text is never held
    whole; one string goes in as a one-element list (a bare str would be
    written a character at a time). The file gets the mode that
    open(path, "w") gives it: an existing file's own mode, else 0o666
    less the umask, which the kernel applies when it creates the temp
    file. A temp file that cannot be made raises an OSError that names
    path; a failed write removes the temp file."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except OSError:  # no such file; os.open reports any other fault
        mode = None
    # 64 random bits; O_EXCL makes a name that is taken fail, not reused.
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.part")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) from exc
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        if mode is not None:
            os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, obj):
    """Write strict JSON: a non-finite float raises instead of becoming a
    bare Infinity or NaN token that strict parsers refuse."""
    atomic_write_text(path, [json.dumps(obj, indent=2, allow_nan=False) + "\n"])


def finite_or_null(value: float):
    """value, or None (JSON null) when it is infinite or NaN."""
    return value if math.isfinite(value) else None


def json_as(value, kind: type):
    """value, as json parsed it, read as kind (int, float, bool or str);
    ValueError if it is not one. A boolean or a string is never a number.
    An int is a JSON integer or a whole float of magnitude at most 2**53
    (past that, the float may not be the integer the document spelled). A
    float is a number whose float64 value is finite, so 1e400, which json
    reads as inf, is refused, and so is an integer past the float64 range."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    try:
        if kind is int and number and (
                isinstance(value, int) or value.is_integer() and abs(value) <= 2**53):
            return int(value)
        if kind is float and number and math.isfinite(value):
            return float(value)
    except OverflowError:  # an integer past the float64 range
        pass
    if kind in (bool, str) and isinstance(value, kind):
        return value
    raise ValueError(f"not a JSON {kind.__name__}")


def load_json(path, what: str = "file"):
    """Parse strict JSON: the bare NaN and Infinity tokens that write_json
    never writes are a ParseError, like any other malformed input, and so
    are an integer past Python's digit limit and nesting past its
    recursion limit."""

    def reject_constant(token: str):
        raise ParseError(f"{what} {path}: {token} is not a JSON value")

    try:
        with open(path) as fh:
            return json.loads(fh.read(), parse_constant=reject_constant)
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{what} {path}: not {exc.encoding} text: {exc.reason}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what} {path}: line {exc.lineno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{what} {path}: {exc}") from exc
