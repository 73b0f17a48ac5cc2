"""The one reader and writer of the package's text formats: whitespace
tables (tracks, GCPs, biases, correspondences) and ``KEY: value`` files
(RPC text, product sidecars).

Both readers skip blank lines and lines starting with ``#``, take only
finite numbers (NaN and +-inf are rejected like any other non-number)
and raise ParseError naming the file and the line.  The writers give
each float the repr of its double and each integer its digits, so every
file reads back bit for bit.
"""

from __future__ import annotations

from math import isfinite, nan
from numbers import Integral

from .errors import ParseError

# Size hint, in characters, of the blocks of lines whose numbers are
# converted together, one call per column; small, so that a block's
# temporaries add nothing measurable to the peak memory.
BLOCK_CHARS = 1 << 13

_CONVERT = {"i": int, "f": float}


def write(path, comments, lines) -> None:
    """Write ``# comment`` for each comment that is not empty, then
    ``lines``, each ending in its own newline.  Table writers format
    every float field ``{float(x)!r}`` and every integer ``{int(x)}``.
    One write of the joined text is faster than a write per line."""
    with open(path, "w") as fh:
        fh.write("".join([*(f"# {c}\n" for c in comments if c), *lines]))


def format_keys(pairs) -> str:
    """``KEY: value`` lines for the ``(key, number)`` pairs: integers,
    Python or NumPy, as integers and every other number as the repr of
    its float."""
    return "".join(
        f"{key}: {int(x) if isinstance(x, Integral) else float(x)!r}\n"
        for key, x in pairs)


def records(path, fields: str):
    """Yield ``(line_no, value, ...)`` per record of the whitespace table
    at ``path``.  ``fields`` has one letter per field: ``i`` an integer,
    ``f`` a float, ``s`` text.

    Raises:
        ParseError: a wrong number of fields, or a bad number.
    """
    line_no = 0
    with open(path, "r") as fh:
        while lines := fh.readlines(BLOCK_CHARS):
            # the block's tokens in one flat list: keeping a list per
            # record alive would trigger full garbage collections
            numbers, tokens = [], []
            for line_no, line in enumerate(lines, line_no + 1):
                record = line.split()
                if not record or record[0][0] == "#":
                    continue
                if len(record) != len(fields):
                    _columns(path, fields, numbers, tokens)  # earlier errors
                    raise ParseError(f"{path}:{line_no}: expected "
                                     f"{len(fields)} fields, got "
                                     f"{len(record)}")
                numbers.append(line_no)
                tokens.extend(record)
            yield from zip(numbers, *_columns(path, fields, numbers, tokens))


def _columns(path, fields: str, numbers: list[int], tokens: list) -> list:
    """The fields of the records whose ``tokens`` are concatenated, a
    column each, converted; raises for the first record, in line order,
    with a bad number."""
    n = len(fields)
    try:
        columns = [tokens[k::n] if kind == "s"
                   else list(map(_CONVERT[kind], tokens[k::n]))
                   for k, kind in enumerate(fields)]
        if all(all(map(isfinite, column))
               for kind, column in zip(fields, columns) if kind == "f"):
            return columns
    except ValueError:
        pass
    if len(numbers) == 1:
        raise ParseError(f"{path}:{numbers[0]}: a field is not a finite "
                         f"number: {' '.join(tokens)!r}")
    for k, line_no in enumerate(numbers):
        _columns(path, fields, [line_no], tokens[k * n:(k + 1) * n])


def keys(text: str, source: str) -> dict[str, float]:
    """The values of the ``KEY: value`` lines of ``text``, read from
    ``source``: the first token after the colon, so later words (units)
    are ignored.

    Raises:
        ParseError: a line without a colon and a value, a bad number, or
            a key given twice.
    """
    values = {}
    for line_no, line in enumerate(text.splitlines(), 1):
        key, colon, rest = line.partition(":")
        key = key.strip()
        if not colon and not key or key.startswith("#"):
            continue
        tokens = rest.split()
        if not tokens:
            raise ParseError(f"{source}:{line_no}: expected 'KEY: value'")
        try:
            value = float(tokens[0])
        except ValueError:
            value = nan
        if not isfinite(value):
            raise ParseError(f"{source}:{line_no}: key {key} is not a "
                             f"finite number: {tokens[0]!r}")
        if key in values:
            raise ParseError(f"{source}:{line_no}: key {key} given twice")
        values[key] = value
    return values
