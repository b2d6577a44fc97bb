"""Structured-text (JSON-compatible) and CSV serialization: the one JSON reader and record writer.

States travel as ``{"kind": "classical", "weights": [...]}`` or
``{"kind": "quantum", "matrix": [[[re, im], ...], ...]}``.  CSV output
uses '.' decimals, 12 significant digits, LF line endings, and carries
run metadata as leading ``# key=value`` comment lines; JSON output is
strict.  Every record is built whole before its file is opened.
"""
from __future__ import annotations

import json
import math
import os
import stat

import numpy as np

from .exceptions import ValidationError
from .geometry import MAX_SCHEDULE_ENTRIES
from .states import State, validate_density, validate_distribution

# The bytes a JSON file may hold.  A state that can still be transported one
# step (N + 1 = 2 rows) has at most MAX_SCHEDULE_ENTRIES / 2 entries, so the two
# states of a config hold at most MAX_SCHEDULE_ENTRIES.  An entry written as
# [re, im] takes at most 54 bytes: two doubles of up to 24 characters each in
# repr, 2 brackets, a comma and 3 bytes of separators; 64 bounds it: 2^30 bytes.
JSON_BYTES_CAP = MAX_SCHEDULE_ENTRIES * 64


def format_float(value: float) -> str:
    """12-significant-digit text used in every CSV cell; a NaN has none and raises ValidationError."""
    text = format(float(value), ".12g")
    if text == "nan":
        raise ValidationError("a record value is NaN, which no record holds")
    return text


def _json_float(value: float):
    # strict JSON has no Infinity literal; a NaN stays a float, which the record writer refuses
    return "inf" if value == math.inf else float(value)


def _canonical(resolved: dict) -> str:
    """The resolved config as the canonical JSON that is hashed and written to CSV records."""
    return json.dumps(resolved, sort_keys=True, separators=(",", ":"))


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    return str(value)


def write_records(*records) -> None:
    """Write each ``(path, fmt, metadata, columns, rows, results)`` record whole, every text built first.

    ``csv``: a ``# key=value`` line per metadata entry, the ``columns`` header and a line per row.
    ``json``: ``metadata`` and ``"results"``, indented, key-sorted and strict.  A NaN raises
    ValidationError, and a target that is a directory IsADirectoryError, before any file is
    opened.  Each text goes to a temporary sibling, and only once every one is written is each
    moved onto its target; an OSError removes the temporaries and is raised again, so a run
    refused, or failed while writing, leaves every file as it was.
    """
    texts = []
    for path, fmt, metadata, columns, rows, results in records:
        if fmt == "csv":
            lines = [f"# {key}={value}" for key, value in metadata.items()] + [",".join(columns)]
            text = "\n".join(lines + [",".join(map(_cell, row)) for row in rows])
        else:
            try:
                text = json.dumps({**metadata, "results": results}, indent=2, sort_keys=True, allow_nan=False)
            except ValueError as exc:
                raise ValidationError(f"a record value is not strict JSON: {exc}") from exc
        if os.path.isdir(path):
            raise IsADirectoryError(f"{os.fspath(path)!r} is a directory, not a record file")
        texts.append((path, f"{os.fspath(path)}.{os.getpid()}.tmp", text + "\n"))
    try:
        for _, temp, text in texts:
            with open(temp, "w", newline="\n", encoding="utf-8") as fh:
                fh.write(text)
        for path, temp, _ in texts:
            os.replace(temp, path)
    except OSError:
        for _, temp, _ in texts:
            if os.path.lexists(temp):
                os.remove(temp)
        raise


# ---------- states ----------

def state_to_jsonable(state: State) -> dict:
    """JSON-compatible form of a state, tagged by kind."""
    if not isinstance(state, State):
        raise ValidationError(f"cannot serialize object of type {type(state).__name__}")
    if state.kind == "classical":
        return {"kind": "classical", "weights": [float(w) for w in state.array]}
    matrix = [[[float(z.real), float(z.imag)] for z in row] for row in state.array]
    return {"kind": "quantum", "matrix": matrix}


_STATE_FIELDS = {"classical": "weights", "quantum": "matrix"}   # the field holding each kind's array


def state_from_jsonable(obj) -> State:
    """Validated state from its JSON-compatible form; unknown keys rejected."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValidationError("state must be a mapping with a 'kind' field")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _STATE_FIELDS:
        raise ValidationError(f"unknown state kind {kind!r}")
    field = _STATE_FIELDS[kind]
    extra = set(obj) - {"kind", field}
    if extra:
        raise ValidationError(f"unknown state keys: {sorted(extra)}")
    if field not in obj:
        raise ValidationError(f"{kind} state is missing its {field!r} field")
    if kind == "classical":
        return validate_distribution(_finite_numbers(obj[field], field))
    return validate_density(matrix_from_jsonable(obj[field], "quantum state"))


def matrix_from_jsonable(rows, what: str) -> np.ndarray:
    """Complex matrix from rows of ``[re, im]`` pairs; ``what`` names it in errors."""
    entry = f"{what} entry"
    try:
        return np.array(
            [
                [complex(_finite_number(re, entry), _finite_number(im, entry)) for re, im in row]
                for row in rows
            ],
            dtype=np.complex128,
        )
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} entries must be [re, im] pairs") from exc


def _finite_number(value, what: str) -> float:
    """A finite JSON number (integer or float) as a float; bools and strings are refused."""
    try:
        ok = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise ValidationError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _finite_numbers(values, what: str) -> list:
    """A JSON list of finite numbers as floats; see :func:`_finite_number`."""
    if not isinstance(values, list):
        raise ValidationError(f"{what} must be a list, got {values!r}")
    return [_finite_number(v, what) for v in values]


def _read_json(path, what: str):
    """The JSON value in the file at ``path``; the package's one JSON reader.

    A file over JSON_BYTES_CAP bytes, one that is not UTF-8, not JSON, nested past
    the parser's recursion limit, or whose bytes, text or value fill the memory left
    raises ValidationError naming ``what``; one that cannot be opened, OSError.  A
    regular file's size is checked before it is read, and any other file, a pipe or
    a device, is read to one byte past the cap.
    """
    try:
        with open(path, "rb") as fh:
            info, data = os.fstat(fh.fileno()), bytearray()
            over = stat.S_ISREG(info.st_mode) and info.st_size > JSON_BYTES_CAP
            while not over and (chunk := fh.read(min(1 << 20, JSON_BYTES_CAP + 1 - len(data)))):
                data += chunk
                over = len(data) > JSON_BYTES_CAP
        if not over:
            data = data.decode("utf-8")   # the bytes are let go before the text is parsed
            return json.loads(data)
    except MemoryError as exc:
        raise ValidationError(f"{what} holds more bytes than the memory left to read it") from exc
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{what} is not a readable JSON file: {exc}") from exc
    raise ValidationError(f"{what} holds more than the {JSON_BYTES_CAP} bytes a JSON file may")


def load_state(path) -> State:
    return state_from_jsonable(_read_json(path, "state file"))
