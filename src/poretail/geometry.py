"""Pore geometry metrics and specimen ingestion.

A specimen is its pore table held as columns: the measured columns, as
the cell text read from a table (kept so that a dump reproduces it byte
for byte) or as float values, and the metrics derived from them as arrays
(equivalent spherical diameter, aspect ratio and sphericity). Every
column is in canonical order, equivalent diameter descending, which is
the order a dump writes.
The metric functions accept a scalar or an array.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import dropwhile, repeat, tee
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .gpd import UsageError

# Pore-level measurements are in um / um^2 / um^3; specimen volumes in mm^3.
REQUIRED_COLUMNS = (
    "pore_id",
    "volume_um3",
    "surface_area_um2",
    "min_feret_um",
    "max_feret_um",
)
CENTROID_COLUMNS = ("centroid_x_um", "centroid_y_um", "centroid_z_um")
DERIVED_COLUMNS = ("equiv_diameter_um", "aspect_ratio", "sphericity")
# The measured columns that may be given as float values instead of text.
_FLOAT_COLUMNS = REQUIRED_COLUMNS[1:]

FLAG_SPHERICITY_ABOVE_UNITY = "sphericity above 1 (surface area below spherical minimum)"

# Characters that make csv's minimal quoting quote a cell. A lone "\r" is
# among them, so that a dump re-ingests.
_QUOTE_CHARS = (",", '"', "\r", "\n")


class IngestError(ValueError):
    """A pore table could not be ingested; names the offending row/column."""


def _pow(base, exponent: float):
    """base ** exponent per element, rounded like Python's float power.

    numpy's vectorised power can differ from the C library's pow in the
    last bit; the C rounding keeps the derived columns equal to the scalar
    formulas applied pore by pore.
    """
    values = np.asarray(base, dtype=float)
    out = np.fromiter(map(math.pow, values.ravel().tolist(), repeat(exponent)), float, values.size)
    return out.reshape(values.shape) if values.ndim else float(out[0])


def _positive(name: str, value) -> np.ndarray:
    values = np.asarray(value, dtype=float)
    bad = values[~(values > 0)]
    if bad.size:
        raise UsageError(f"{name} must be positive, got {bad[0]}")
    return values


def _equiv_diameter(volume):
    return _pow(6.0 * volume / math.pi, 1.0 / 3.0)


def _sphere_surface_area(volume):
    return math.pi ** (1.0 / 3.0) * _pow(6.0 * volume, 2.0 / 3.0)


def equiv_diameter(volume):
    """Diameter (um) of the sphere with the same volume (um^3)."""
    return _equiv_diameter(_positive("volume", volume))


def aspect_ratio(min_feret, max_feret):
    """Smallest over largest Feret diameter, in (0, 1]."""
    lo, hi = np.broadcast_arrays(_positive("min_feret", min_feret), _positive("max_feret", max_feret))
    above = lo > hi
    if np.any(above):
        raise UsageError(f"min_feret {lo[above][0]} exceeds max_feret {hi[above][0]}")
    return lo / hi


def sphericity(volume, surface_area):
    """Surface-area ratio of the equal-volume sphere to the pore; 1 for a sphere."""
    volume = _positive("volume", volume)
    return _sphere_surface_area(volume) / _positive("surface_area", surface_area)


def sphere_surface_area(volume):
    """Surface area (um^2) of the sphere with the given volume (um^3)."""
    return _sphere_surface_area(_positive("volume", volume))


def _parse(column: str, cells: np.ndarray) -> np.ndarray:
    """Float value of every cell; refuses the first unparsable one by row."""
    try:
        return np.fromiter(map(float, cells), float, len(cells))
    except (TypeError, ValueError):
        for row, text in enumerate(cells):
            try:
                float(text)
            except (TypeError, ValueError):
                raise IngestError(
                    f"row {row + 2}, column {column}: could not parse {text!r}"
                ) from None
        raise


def _refuse_first(bad: np.ndarray, column: str, cells: np.ndarray, reason: str) -> None:
    rows = np.flatnonzero(bad)
    if rows.size:
        raise IngestError(
            f"row {rows[0] + 2}, column {column}: {reason}, got {cells.item(rows[0])!r}"
        )


def _is_values(column) -> bool:
    """Whether a measured column is given as float values rather than cell text."""
    return isinstance(column, np.ndarray) and column.dtype.kind == "f"


def _measurement(column: str, cells: np.ndarray) -> np.ndarray:
    """The column's values, parsed unless given as values; refuses the first
    that is not finite and positive."""
    values = cells if _is_values(cells) else _parse(column, cells)
    _refuse_first(
        ~(np.isfinite(values) & (values > 0)), column, cells, "must be finite and positive"
    )
    return values


def _blank_coordinates(column: str, cells: np.ndarray) -> np.ndarray:
    """Where a centroid column is blank; refuses a cell elsewhere that is not a finite number."""
    blank = np.array([not cell for cell in cells], dtype=bool)
    values = _parse(column, np.where(blank, "nan", cells))
    _refuse_first(~blank & ~np.isfinite(values), column, cells, "must be finite")
    return blank


def _column(name: str, given) -> np.ndarray:
    """A measured column as an array: a float column's values as given, any other as text."""
    if name in _FLOAT_COLUMNS and _is_values(given):
        if given.ndim != 1:
            raise IngestError(f"column {name}: values must be a 1-D array, got {given.ndim}-D")
        return given.astype(float, copy=False)
    return np.array(given, dtype=object)


def _first_repeat(values: Sequence[str]) -> int | None:
    if len(set(values)) == len(values):
        return None
    seen: set[str] = set()
    for row, value in enumerate(values):
        if value in seen:
            return row
        seen.add(value)
    return None


@dataclass(frozen=True, eq=False)
class SpecimenDataset:
    """A specimen's pore table, as columns, plus its id and scanned volume.

    ``cells`` maps each measured column (REQUIRED_COLUMNS, plus
    CENTROID_COLUMNS when all three are given) to its cell text, one entry
    per pore; a table whose centroids are all incomplete keeps no centroid
    columns. Each of the four float columns (``volume_um3``,
    ``surface_area_um2``, ``min_feret_um``, ``max_feret_um``) may instead
    be given as a 1-D float array of values, which is kept as values and
    not formatted or parsed; ``pore_id`` and the centroids are always text.
    Construction checks each column once and raises IngestError, naming
    the row (the first pore is row 2, below the header) and column, for a
    scanned volume that is not finite and positive, a measurement that
    does not parse to (or is not) a finite positive number, a min Feret
    diameter above the max, a non-empty centroid cell that is not a finite
    number, or a repeated pore_id.

    It then derives the arrays ``diameters_um``, ``aspect_ratios`` and
    ``sphericities``. Every column, text, values and derived arrays alike,
    is in canonical order: equivalent diameter descending, ties in table
    order.
    ``quality_flags`` holds FLAG_SPHERICITY_ABOVE_UNITY when some sphericity
    exceeds 1: the surface area is below the spherical minimum (a voxel
    effect), which is flagged, not refused. Immutable after construction,
    with read-only arrays; safe for concurrent reads.
    """

    specimen_id: str
    scanned_volume_mm3: float
    cells: Mapping[str, Sequence[str] | np.ndarray]
    diameters_um: np.ndarray = field(init=False, repr=False)
    aspect_ratios: np.ndarray = field(init=False, repr=False)
    sphericities: np.ndarray = field(init=False, repr=False)
    quality_flags: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        if not 0 < self.scanned_volume_mm3 < math.inf:
            raise IngestError(
                f"scanned_volume_mm3 must be finite and positive, got {self.scanned_volume_mm3}"
            )
        missing = [c for c in REQUIRED_COLUMNS if c not in self.cells]
        if missing:
            raise IngestError(f"missing column(s): {', '.join(missing)}")
        columns = REQUIRED_COLUMNS
        if all(c in self.cells for c in CENTROID_COLUMNS):
            columns += CENTROID_COLUMNS
        given = {c: _column(c, self.cells[c]) for c in columns}

        volume, area, lo, hi = (_measurement(c, given[c]) for c in _FLOAT_COLUMNS)
        _refuse_first(lo > hi, "min_feret_um", given["min_feret_um"], "exceeds max_feret_um")
        repeat_row = _first_repeat(given["pore_id"])
        if repeat_row is not None:
            raise IngestError(
                f"row {repeat_row + 2}, column pore_id: repeats {given['pore_id'][repeat_row]!r}"
            )

        if CENTROID_COLUMNS[0] in given:
            blank = np.column_stack([_blank_coordinates(c, given[c]) for c in CENTROID_COLUMNS])
            if blank.any(axis=1).all():
                for column in CENTROID_COLUMNS:
                    del given[column]

        diameters = _equiv_diameter(volume)
        sphericities = _sphere_surface_area(volume) / area
        order = np.argsort(-diameters, kind="stable")

        def canonical(values: np.ndarray) -> np.ndarray:
            values = values[order]
            values.setflags(write=False)
            return values

        # one array given for two columns (a sphere's Feret diameters) is held once
        distinct = {id(t): t for t in given.values()}
        held = {key: canonical(t) for key, t in distinct.items()}
        set_field = object.__setattr__
        set_field(self, "cells", MappingProxyType({c: held[id(t)] for c, t in given.items()}))
        set_field(self, "diameters_um", canonical(diameters))
        set_field(self, "aspect_ratios", canonical(lo / hi))
        set_field(self, "sphericities", canonical(sphericities))
        set_field(
            self, "quality_flags",
            (FLAG_SPHERICITY_ABOVE_UNITY,) if np.any(sphericities > 1.0) else (),
        )

    def __len__(self) -> int:
        return self.diameters_um.size


def _is_preamble(line: str) -> bool:
    # Leading "# key=value" provenance comments and blank lines are allowed
    # and skipped; below the header every line is data. Row numbers in error
    # messages count the remaining lines, header first, without blank lines.
    return not line.strip() or line.lstrip().startswith("#")


def _measured_index(
    header: list[str] | None, required: Sequence[str], optional: Sequence[str]
) -> dict[str, int]:
    """Header position of each measured column that the header names: the
    required columns, and the optional ones when it names them all."""
    if header is None:
        raise IngestError("empty file: no header row, no rows")
    measured = (*required, *optional)
    repeated = [c for c in measured if header.count(c) > 1]
    if repeated:
        raise IngestError(f"header: column {repeated[0]} appears more than once")
    if not all(c in header for c in optional):
        measured = required
    return {c: header.index(c) for c in measured if c in header}


def _row_columns(
    rows: list[list[str]], index: Mapping[str, int], required: Sequence[str]
) -> dict[str, list[str]]:
    """Measured columns of rows of any width; refuses the first row short of a required cell.

    A row cut short inside the optional columns has none of them: its
    optional cells are blank.
    """
    widths = np.fromiter(map(len, rows), int, len(rows))
    short = np.flatnonzero(widths <= max((index[c] for c in required if c in index), default=-1))
    if short.size:
        raise IngestError(f"row {short[0] + 2}: missing cells")
    optional = [i for c, i in index.items() if c not in required]
    last = max(optional, default=-1)
    for row in np.flatnonzero(widths <= last).tolist():
        padded = rows[row] + [""] * (last + 1 - len(rows[row]))
        for i in optional:
            padded[i] = ""
        rows[row] = padded
    return {c: list(map(itemgetter(i), rows)) for c, i in index.items()}


def _csv_columns(
    text: str, required: Sequence[str], optional: Sequence[str] = ()
) -> dict[str, list[str]]:
    """Measured columns of a table with quoted cells, read with csv.reader."""
    reader = csv.reader(dropwhile(_is_preamble, io.StringIO(text, newline="")))
    rows: list[list[str]] = []
    try:
        # rows read before a malformed one stay, so it is row len(rows) + 1
        rows.extend(filter(None, reader))
    except csv.Error as exc:
        raise IngestError(f"row {len(rows) + 1}: {exc}") from None
    index = _measured_index(rows[0] if rows else None, required, optional)
    return _row_columns(rows[1:], index, required)


def _read_text(source: IO[str]) -> str:
    """All the text of a UTF-8 stream, without a leading byte-order mark.

    Raises IngestError naming the byte offset of text that is not UTF-8.
    """
    try:
        text = source.read()
    except UnicodeDecodeError as exc:
        raise IngestError(f"byte {exc.start}: not UTF-8 text ({exc.reason})") from None
    # Drop the byte-order mark that "CSV UTF-8" exports start with.
    return text.removeprefix("\ufeff")


def _table_columns(
    table: IO[str], required: Sequence[str], optional: Sequence[str] = ()
) -> dict[str, list[str]]:
    """Cell text of the measured columns of a comma-separated table (see
    _measured_index), read in one piece and split in bulk.

    Without a double quote in the text, csv quoting cannot apply and every
    comma separates cells; rows of the header's width are then joined and
    split once, and each column is a stride slice of the cells.
    """
    text = _read_text(table)
    if '"' in text:
        return _csv_columns(text, required, optional)
    # csv breaks lines at "\r\n", "\r" and "\n", and at nothing else.
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    del text
    start = next((i for i, line in enumerate(lines) if not _is_preamble(line)), None)
    header = None if start is None else lines[start].split(",")
    index = _measured_index(header, required, optional)
    lines = [line for line in lines[start + 1:] if line]
    width = len(header)
    if set(map(str.count, lines, repeat(","))) != {width - 1}:
        return _row_columns([line.split(",") for line in lines], index, required)
    flat = ",".join(lines)
    del lines
    flat = flat.split(",")
    return {c: flat[i::width] for c, i in index.items()}


def ingest_specimen(
    pore_table: str | Path | IO[str],
    *,
    specimen_id: str,
    scanned_volume_mm3: float,
) -> SpecimenDataset:
    """Read a comma-separated pore table into a SpecimenDataset.

    The table must carry a header row with the columns in REQUIRED_COLUMNS;
    the three centroid columns are optional, and a row may leave its
    centroid cells blank or out. Each data row is one pore. The measured
    columns' cell text is kept, so dumping the dataset reproduces them
    byte for byte; other columns are dropped.

    Raises IngestError naming the row and column of a malformed cell (see
    SpecimenDataset for the checks), the row of one missing a required
    cell or of a quoted cell that csv cannot read (one longer than its
    field size limit), a measured column that the header names more than
    once, or the byte offset of text that is not UTF-8.
    """
    if isinstance(pore_table, (str, Path)):
        # utf-8, not utf-8-sig, so that an undecodable byte's offset counts the mark.
        with open(pore_table, "r", encoding="utf-8", newline="") as handle:
            return ingest_specimen(
                handle, specimen_id=specimen_id, scanned_volume_mm3=scanned_volume_mm3
            )

    # The text, its rows and the columns not kept are freed before parsing.
    return SpecimenDataset(
        specimen_id=specimen_id,
        scanned_volume_mm3=scanned_volume_mm3,
        cells=_table_columns(pore_table, REQUIRED_COLUMNS, CENTROID_COLUMNS),
    )


def _needs_quotes(text: str) -> bool:
    return any(char in text for char in _QUOTE_CHARS)


def _quote_cell(cell: str) -> str:
    """Cell text as a csv field: quoted where it holds a comma, a quote or a line break."""
    return '"' + cell.replace('"', '""') + '"' if _needs_quotes(cell) else cell


def _quoted(cells: list[str]) -> list[str]:
    """_quote_cell of every cell, scanning the column once when none needs quotes."""
    if not _needs_quotes("".join(cells)):
        return cells
    return list(map(_quote_cell, cells))


def _cell_text(cells: np.ndarray) -> Iterable[str]:
    """A column's cells as written: text quoted as csv needs, float values as repr."""
    return map(repr, cells.tolist()) if _is_values(cells) else _quoted(cells.tolist())


def _write_columns(dest: IO[str], columns: Mapping[str, Iterable[str]]) -> None:
    """The header, then one line per row of the columns' cell text."""
    dest.write(",".join(columns) + "\n")
    dest.writelines(map("{}\n".format, map(",".join, zip(*columns.values(), strict=True))))


def dump_specimen(dataset: SpecimenDataset, dest: str | Path | IO[str]) -> None:
    """Write the canonical dataset dump: measured columns plus derived columns.

    The measured columns' cell text is written verbatim, in double quotes
    where it holds a comma, a quote or a line break (csv's minimal
    quoting); a measured column given as values and the derived columns
    are written in shortest round-trip float format (``repr``), so values
    dump exactly as their ``repr`` text would. One row per pore, in
    canonical (descending diameter) order.
    """
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as handle:
            dump_specimen(dataset, handle)
            return

    # a column held once for two names is formatted once, its text shared by tee
    columns = dataset.cells
    distinct = {id(cells): cells for cells in columns.values()}
    uses = Counter(map(id, columns.values()))
    text = {key: iter(tee(_cell_text(cells), uses[key])) for key, cells in distinct.items()}
    derived = (dataset.diameters_um, dataset.aspect_ratios, dataset.sphericities)
    _write_columns(dest, {
        **{c: next(text[id(cells)]) for c, cells in columns.items()},
        **{c: _cell_text(d) for c, d in zip(DERIVED_COLUMNS, derived)},
    })
