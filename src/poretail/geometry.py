"""Pore geometry metrics and specimen ingestion.

A specimen is its pore table held as columns: the cell text of the
measured columns, kept so that a dump reproduces them byte for byte, and
the metrics derived from them as arrays (equivalent spherical diameter,
aspect ratio and sphericity). Every column is in canonical order,
equivalent diameter descending, so that tail operations read a prefix.
The metric functions accept a scalar or an array.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from itertools import dropwhile, repeat
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import IO, Mapping, Sequence

import numpy as np

# Pore-level measurements are in um / um^2 / um^3; specimen volumes in mm^3.
UM3_PER_MM3 = 1.0e9

REQUIRED_COLUMNS = (
    "pore_id",
    "volume_um3",
    "surface_area_um2",
    "min_feret_um",
    "max_feret_um",
)
CENTROID_COLUMNS = ("centroid_x_um", "centroid_y_um", "centroid_z_um")
DERIVED_COLUMNS = ("equiv_diameter_um", "aspect_ratio", "sphericity")

FLAG_SPHERICITY_ABOVE_UNITY = "sphericity above 1 (surface area below spherical minimum)"

# Characters that make csv's minimal quoting quote a cell. A lone "\r" is
# among them, so that a dump re-ingests.
_QUOTE_CHARS = (",", '"', "\r", "\n")


class GeometryError(ValueError):
    """A pore measurement is outside its physical domain."""


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
        raise GeometryError(f"{name} must be positive, got {bad[0]}")
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
        raise GeometryError(f"min_feret {lo[above][0]} exceeds max_feret {hi[above][0]}")
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
        raise IngestError(f"row {rows[0] + 2}, column {column}: {reason}, got {cells[rows[0]]!r}")


def _measurement(column: str, cells: np.ndarray) -> np.ndarray:
    values = _parse(column, cells)
    _refuse_first(
        ~(np.isfinite(values) & (values > 0)), column, cells, "must be finite and positive"
    )
    return values


def _coordinate(column: str, cells: np.ndarray) -> np.ndarray:
    """Parse a centroid column: NaN where blank, and finite elsewhere."""
    blank = np.array([not cell for cell in cells], dtype=bool)
    values = _parse(column, np.where(blank, "nan", cells))
    _refuse_first(~blank & ~np.isfinite(values), column, cells, "must be finite")
    return values


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
    """A specimen's pore table, as columns, plus scanned volume and metadata.

    ``cells`` maps each measured column (REQUIRED_COLUMNS, plus
    CENTROID_COLUMNS when all three are given) to its cell text, one entry
    per pore; a table whose centroids are all incomplete keeps no centroid
    columns. Construction checks each column once and raises IngestError,
    naming the row (the first pore is row 2, below the header) and column,
    for a scanned volume that is not finite and positive, a measurement
    that does not parse to a finite positive number, a min Feret diameter
    above the max, a non-empty centroid cell that is not a finite number,
    or a repeated pore_id.

    It then derives the arrays ``diameters_um``, ``aspect_ratios`` and
    ``sphericities``, and ``centroid_um`` (n x 3, NaN where a pore's
    centroid is incomplete; None without centroid columns). Every column,
    text and arrays alike, is in canonical order: equivalent diameter
    descending, ties in table order. ``quality_flags`` holds
    FLAG_SPHERICITY_ABOVE_UNITY when some sphericity exceeds 1: the surface
    area is below the spherical minimum (a voxel effect), which is flagged,
    not refused. Immutable after construction, with read-only arrays; safe
    for concurrent reads.
    """

    specimen_id: str
    geometry_label: str
    scan_velocity_mm_s: float
    scanned_volume_mm3: float
    cells: Mapping[str, Sequence[str]]
    build_location_mm: tuple[float, float] | None = None
    diameters_um: np.ndarray = field(init=False, repr=False)
    aspect_ratios: np.ndarray = field(init=False, repr=False)
    sphericities: np.ndarray = field(init=False, repr=False)
    centroid_um: np.ndarray | None = field(init=False, repr=False)
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
        text = {c: np.array(self.cells[c], dtype=object) for c in columns}

        volume, area, lo, hi = (_measurement(c, text[c]) for c in REQUIRED_COLUMNS[1:])
        _refuse_first(lo > hi, "min_feret_um", text["min_feret_um"], "exceeds max_feret_um")
        repeat_row = _first_repeat(text["pore_id"])
        if repeat_row is not None:
            raise IngestError(
                f"row {repeat_row + 2}, column pore_id: repeats {text['pore_id'][repeat_row]!r}"
            )

        centroid = None
        if CENTROID_COLUMNS[0] in text:
            xyz = np.column_stack([_coordinate(c, text[c]) for c in CENTROID_COLUMNS])
            incomplete = np.isnan(xyz).any(axis=1)
            if incomplete.all():
                for column in CENTROID_COLUMNS:
                    del text[column]
            else:
                xyz[incomplete] = math.nan
                centroid = xyz

        diameters = _equiv_diameter(volume)
        sphericities = _sphere_surface_area(volume) / area
        order = np.argsort(-diameters, kind="stable")

        def canonical(values: np.ndarray) -> np.ndarray:
            values = values[order]
            values.setflags(write=False)
            return values

        set_field = object.__setattr__
        set_field(self, "cells", MappingProxyType({c: canonical(t) for c, t in text.items()}))
        set_field(self, "diameters_um", canonical(diameters))
        set_field(self, "aspect_ratios", canonical(lo / hi))
        set_field(self, "sphericities", canonical(sphericities))
        set_field(self, "centroid_um", None if centroid is None else canonical(centroid))
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


def _measured_index(header: list[str] | None) -> dict[str, int]:
    """Header position of each measured column that the header names."""
    if header is None:
        raise IngestError("empty file: no header row, no rows")
    repeated = [c for c in REQUIRED_COLUMNS + CENTROID_COLUMNS if header.count(c) > 1]
    if repeated:
        raise IngestError(f"header: column {repeated[0]} appears more than once")
    measured = REQUIRED_COLUMNS
    if all(c in header for c in CENTROID_COLUMNS):
        measured += CENTROID_COLUMNS
    return {c: header.index(c) for c in measured if c in header}


def _row_columns(rows: list[list[str]], index: Mapping[str, int]) -> dict[str, list[str]]:
    """Measured columns of rows of any width; refuses the first row short of a required cell."""
    widths = np.fromiter(map(len, rows), int, len(rows))
    required = [index[c] for c in REQUIRED_COLUMNS if c in index]
    short = np.flatnonzero(widths <= max(required, default=-1))
    if short.size:
        raise IngestError(f"row {short[0] + 2}: missing cells")
    centroid = [index[c] for c in CENTROID_COLUMNS if c in index]
    last = max(centroid, default=-1)
    for row in np.flatnonzero(widths <= last).tolist():
        # A row cut short inside the centroid columns has no centroid at all.
        padded = rows[row] + [""] * (last + 1 - len(rows[row]))
        for i in centroid:
            padded[i] = ""
        rows[row] = padded
    return {c: list(map(itemgetter(i), rows)) for c, i in index.items()}


def _csv_columns(text: str) -> dict[str, list[str]]:
    """Measured columns of a table with quoted cells, read with csv.reader."""
    reader = csv.reader(dropwhile(_is_preamble, io.StringIO(text, newline="")))
    rows: list[list[str]] = []
    try:
        # rows read before a malformed one stay, so it is row len(rows) + 1
        rows.extend(filter(None, reader))
    except csv.Error as exc:
        raise IngestError(f"row {len(rows) + 1}: {exc}") from None
    return _row_columns(rows[1:], _measured_index(rows[0] if rows else None))


def _table_columns(pore_table: IO[str]) -> dict[str, list[str]]:
    """Measured columns' cell text, read in one piece and split in bulk.

    Without a double quote in the text, csv quoting cannot apply and every
    comma separates cells; rows of the header's width are then joined and
    split once, and each column is a stride slice of the cells.
    """
    try:
        text = pore_table.read()
    except UnicodeDecodeError as exc:
        raise IngestError(f"byte {exc.start}: not UTF-8 text ({exc.reason})") from None
    # Drop the byte-order mark that "CSV UTF-8" exports start with.
    text = text.removeprefix("\ufeff")
    if '"' in text:
        return _csv_columns(text)
    # csv breaks lines at "\r\n", "\r" and "\n", and at nothing else.
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    del text
    start = next((i for i, line in enumerate(lines) if not _is_preamble(line)), None)
    header = None if start is None else lines[start].split(",")
    index = _measured_index(header)
    lines = [line for line in lines[start + 1:] if line]
    width = len(header)
    if set(map(str.count, lines, repeat(","))) != {width - 1}:
        return _row_columns([line.split(",") for line in lines], index)
    flat = ",".join(lines)
    del lines
    flat = flat.split(",")
    return {c: flat[i::width] for c, i in index.items()}


def ingest_specimen(
    pore_table: str | Path | IO[str],
    *,
    specimen_id: str,
    geometry_label: str = "",
    scan_velocity_mm_s: float = 0.0,
    scanned_volume_mm3: float,
    build_location_mm: tuple[float, float] | None = None,
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
                handle,
                specimen_id=specimen_id,
                geometry_label=geometry_label,
                scan_velocity_mm_s=scan_velocity_mm_s,
                scanned_volume_mm3=scanned_volume_mm3,
                build_location_mm=build_location_mm,
            )

    # The text, its rows and the columns not kept are freed before parsing.
    return SpecimenDataset(
        specimen_id=specimen_id,
        geometry_label=geometry_label,
        scan_velocity_mm_s=scan_velocity_mm_s,
        scanned_volume_mm3=scanned_volume_mm3,
        cells=_table_columns(pore_table),
        build_location_mm=build_location_mm,
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


def dump_specimen(dataset: SpecimenDataset, dest: str | Path | IO[str]) -> None:
    """Write the canonical dataset dump: measured columns plus derived columns.

    The measured columns' cell text is written verbatim, in double quotes
    where it holds a comma, a quote or a line break (csv's minimal
    quoting), and the derived columns in shortest round-trip float format,
    one row per pore in canonical (descending diameter) order.
    """
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as handle:
            dump_specimen(dataset, handle)
            return

    derived = (dataset.diameters_um, dataset.aspect_ratios, dataset.sphericities)
    columns = [_quoted(c.tolist()) for c in dataset.cells.values()]
    columns += [map(repr, d.tolist()) for d in derived]
    dest.write(",".join([*dataset.cells, *DERIVED_COLUMNS]) + "\n")
    dest.writelines(map("{}\n".format, map(",".join, zip(*columns))))
