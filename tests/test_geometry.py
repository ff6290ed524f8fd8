import csv
import io
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from poretail import geometry
from poretail.geometry import (
    CENTROID_COLUMNS,
    DERIVED_COLUMNS,
    FLAG_SPHERICITY_ABOVE_UNITY,
    IngestError,
    REQUIRED_COLUMNS,
    SpecimenDataset,
    aspect_ratio,
    dump_specimen,
    equiv_diameter,
    ingest_specimen,
    sphere_surface_area,
    sphericity,
)
from poretail.geometry import _csv_columns, _table_columns
from poretail.gpd import UsageError
from poretail.reports import fmt, write_table

positive_floats = st.floats(min_value=1e-6, max_value=1e12, allow_nan=False)


class TestEquivDiameter:
    def test_sphere_radius_50(self):
        # volume of a radius-50um sphere
        assert equiv_diameter(523598.776) == pytest.approx(100.0, abs=1e-6)

    def test_single_voxel(self):
        assert equiv_diameter(15.625) == pytest.approx(3.1018, abs=5e-5)

    def test_unit_identity(self):
        assert equiv_diameter(math.pi / 6.0) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -15.625])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(UsageError):
            equiv_diameter(bad)

    @given(volume=positive_floats)
    def test_doubling_law(self, volume):
        assert equiv_diameter(8.0 * volume) == pytest.approx(
            2.0 * equiv_diameter(volume), rel=1e-12
        )

    @given(volume=positive_floats, factor=st.floats(min_value=1.01, max_value=100.0))
    def test_strictly_increasing(self, volume, factor):
        assert equiv_diameter(volume * factor) > equiv_diameter(volume)


class TestAspectRatio:
    def test_sphere(self):
        assert aspect_ratio(10.0, 10.0) == 1.0

    def test_elongated(self):
        assert aspect_ratio(5.0, 20.0) == 0.25

    def test_ordering_violation(self):
        with pytest.raises(UsageError):
            aspect_ratio(20.0, 5.0)

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0)])
    def test_nonpositive_rejected(self, a, b):
        with pytest.raises(UsageError):
            aspect_ratio(a, b)


class TestSphericity:
    def test_perfect_sphere(self):
        volume = 523598.776
        assert sphericity(volume, sphere_surface_area(volume)) == pytest.approx(1.0, rel=1e-12)

    def test_cube(self):
        s = 7.0
        assert sphericity(s**3, 6.0 * s**2) == pytest.approx((math.pi / 6.0) ** (1 / 3), rel=1e-12)
        assert sphericity(s**3, 6.0 * s**2) == pytest.approx(0.8060, abs=5e-5)
        # voxel-flavored shapes fall below the spherical value of 1
        assert sphericity(s**3, 6.0 * s**2) < 1.0

    def test_large_area_limit(self):
        assert sphericity(1.0, 1e30) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("v,a", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_nonpositive_rejected(self, v, a):
        with pytest.raises(UsageError):
            sphericity(v, a)

    @given(
        volume=positive_floats,
        area=positive_floats,
        k=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_scale_invariance(self, volume, area, k):
        assert sphericity(k**3 * volume, k**2 * area) == pytest.approx(
            sphericity(volume, area), rel=1e-9
        )


WELL_FORMED = """pore_id,volume_um3,surface_area_um2,min_feret_um,max_feret_um
p1,523598.776,31415.927,95.0,105.0
p2,15.625,30.0,2.5,5.0
p3,4188.79,1256.64,18.0,22.0
"""


def make_dataset(text=WELL_FORMED, **kwargs):
    defaults = dict(specimen_id="S1", scanned_volume_mm3=200.0)
    defaults.update(kwargs)
    return ingest_specimen(io.StringIO(text), **defaults)


class TestIngest:
    def test_well_formed(self):
        ds = make_dataset()
        assert len(ds) == 3
        assert np.all(ds.diameters_um > 0)
        assert np.all((ds.aspect_ratios > 0) & (ds.aspect_ratios <= 1))
        assert np.all(ds.sphericities > 0)

    def test_sorted_descending(self):
        ds = make_dataset()
        d = ds.diameters_um
        assert np.all(np.diff(d) <= 0)
        assert ds.cells["pore_id"][0] == "p1"

    def test_empty_table_valid(self):
        ds = make_dataset("pore_id,volume_um3,surface_area_um2,min_feret_um,max_feret_um\n")
        assert len(ds) == 0

    def test_headerless_file_rejected(self):
        with pytest.raises(IngestError, match="no rows"):
            make_dataset("")

    def test_negative_volume_names_row_and_column(self):
        text = WELL_FORMED.replace("15.625", "-1")
        with pytest.raises(IngestError, match=r"row 3.*volume_um3"):
            make_dataset(text)

    def test_missing_column_named(self):
        text = WELL_FORMED.replace("surface_area_um2", "area")
        with pytest.raises(IngestError, match="surface_area_um2"):
            make_dataset(text)

    def test_unparseable_cell_named(self):
        text = WELL_FORMED.replace("18.0", "eighteen")
        with pytest.raises(IngestError, match=r"row 4.*min_feret_um.*eighteen"):
            make_dataset(text)

    def test_feret_ordering_checked(self):
        text = WELL_FORMED.replace("2.5,5.0", "5.0,2.5")
        with pytest.raises(IngestError, match="row 3"):
            make_dataset(text)

    def test_sphericity_above_one_flagged_not_rejected(self):
        # surface area below the spherical minimum for this volume
        text = WELL_FORMED.replace("31415.927", "20000.0")
        ds = make_dataset(text)
        assert ds.sphericities[ds.cells["pore_id"] == "p1"] > 1.0
        assert FLAG_SPHERICITY_ABOVE_UNITY in ds.quality_flags

    def test_centroid_columns_optional(self):
        text = (
            "pore_id,volume_um3,surface_area_um2,min_feret_um,max_feret_um,"
            "centroid_x_um,centroid_y_um,centroid_z_um\n"
            "p1,15.625,30.0,2.5,5.0,1.0,2.0,3.0\n"
        )
        ds = make_dataset(text)
        assert [list(ds.cells[c]) for c in CENTROID_COLUMNS] == [["1.0"], ["2.0"], ["3.0"]]

    def test_provenance_comments_skipped(self):
        ds = make_dataset("# seed=5\n# config_sha256=abc\n" + WELL_FORMED)
        assert len(ds) == 3

    def test_hash_row_below_header_is_data(self):
        text = WELL_FORMED.replace("p2,", "#p2,")
        ds = make_dataset("# seed=5\n" + text)
        assert sorted(ds.cells["pore_id"]) == ["#p2", "p1", "p3"]
        out = io.StringIO()
        dump_specimen(ds, out)
        again = make_dataset(out.getvalue())
        assert list(again.cells["pore_id"]) == list(ds.cells["pore_id"])
        assert np.array_equal(again.diameters_um, ds.diameters_um)

    @pytest.mark.parametrize("lead", ["\n", "# seed=5\n\n"])
    def test_blank_lines_before_header_skipped(self, lead):
        header, row = WELL_FORMED.splitlines()[:2]
        ds = make_dataset(lead + header + "\n" + row + "\n")
        assert list(ds.cells["pore_id"]) == ["p1"]

    def test_byte_order_mark_before_header(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a byte-order mark
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(WELL_FORMED, encoding="utf-8")
        marked.write_text(WELL_FORMED, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        kwargs = dict(specimen_id="S1", scanned_volume_mm3=200.0)
        a, b = ingest_specimen(plain, **kwargs), ingest_specimen(marked, **kwargs)
        assert {c: list(v) for c, v in a.cells.items()} == {c: list(v) for c, v in b.cells.items()}
        assert a.diameters_um.tobytes() == b.diameters_um.tobytes()

    @pytest.mark.parametrize("short_row, expected_row", [(1, 3), (2, 4)])
    def test_missing_cells_in_a_later_required_column(self, short_row, expected_row):
        # the row ends after min_feret_um: only max_feret_um, the last required column, is missing
        lines = WELL_FORMED.splitlines()
        lines[short_row + 1] = lines[short_row + 1].rsplit(",", 1)[0]
        with pytest.raises(IngestError, match=rf"^row {expected_row}: missing cells$"):
            make_dataset("\n".join(lines) + "\n")

    def test_row_short_only_in_unmeasured_columns_accepted(self):
        header, *rows = WELL_FORMED.splitlines()
        text = "\n".join([header + ",note,tag", rows[0] + ",a,b", rows[1], rows[2] + ",c"])
        ds = make_dataset(text + "\n")
        assert set(ds.cells) == set(REQUIRED_COLUMNS)
        assert sorted(ds.cells["pore_id"]) == ["p1", "p2", "p3"]

    def test_row_longer_than_header(self):
        header, *rows = WELL_FORMED.splitlines()
        rows[1] += ",1.0,extra,\"quoted, cell\""
        ds = make_dataset("\n".join([header, *rows]) + "\n")
        assert set(ds.cells) == set(REQUIRED_COLUMNS)
        assert list(ds.cells["max_feret_um"]) == ["105.0", "22.0", "5.0"]
        assert _dump_text(ds) == _dump_text(make_dataset())

    def test_row_cut_short_inside_centroid_columns(self):
        text = (
            "pore_id,volume_um3,surface_area_um2,min_feret_um,max_feret_um,"
            "centroid_x_um,centroid_y_um,centroid_z_um\n"
            "p1,15.625,30.0,2.5,5.0,1.0,2.0,3.0\n"
            "p2,4188.79,1256.64,18.0,22.0,4.0,5.0\n"
            "p3,20.5,36.1,2.5,4.0\n"
        )
        ds = make_dataset(text)
        assert list(ds.cells["pore_id"]) == ["p2", "p3", "p1"]
        assert [list(ds.cells[c]) for c in CENTROID_COLUMNS] == [
            ["", "", "1.0"], ["", "", "2.0"], ["", "", "3.0"]
        ]
        lines = _dump_text(ds).splitlines()
        assert lines[1].startswith("p2,4188.79,1256.64,18.0,22.0,,,,")
        assert lines[2].startswith("p3,20.5,36.1,2.5,4.0,,,,")

    def test_nonpositive_scanned_volume_rejected(self):
        with pytest.raises(ValueError, match="scanned_volume"):
            make_dataset(scanned_volume_mm3=0.0)


class TestIngestRefusals:
    def test_infinite_measurement_names_row_and_column(self):
        text = WELL_FORMED.replace("4188.79", "inf")
        with pytest.raises(IngestError, match=r"row 4, column volume_um3: must be finite"):
            make_dataset(text)

    def test_infinite_centroid_names_row_and_column(self):
        text = (
            "pore_id,volume_um3,surface_area_um2,min_feret_um,max_feret_um,"
            "centroid_x_um,centroid_y_um,centroid_z_um\n"
            "p1,15.625,30.0,2.5,5.0,1.0,2.0,3.0\n"
            "p2,15.625,30.0,2.5,5.0,1.0,-inf,\n"
        )
        with pytest.raises(IngestError, match=r"row 3, column centroid_y_um: must be finite"):
            make_dataset(text)

    def test_repeated_pore_id_names_second_row(self):
        text = WELL_FORMED.replace("p3", "p1")
        with pytest.raises(IngestError, match=r"row 4, column pore_id: repeats 'p1'"):
            make_dataset(text)

    @pytest.mark.parametrize("column", ["volume_um3", "pore_id", "centroid_y_um"])
    def test_repeated_measured_column_named(self, column):
        header, *rows = WELL_FORMED.splitlines()
        centroid = ",".join(CENTROID_COLUMNS)
        text = "\n".join([f"{header},{centroid},{column}"] + [f"{r},1,2,3,7" for r in rows])
        with pytest.raises(IngestError, match=f"header: column {column} appears more than once"):
            make_dataset(text)

    def test_repeated_unmeasured_column_ignored(self):
        header, *rows = WELL_FORMED.splitlines()
        ds = make_dataset("\n".join([f"{header},note,note"] + [f"{r},a,b" for r in rows]))
        assert set(ds.cells) == set(REQUIRED_COLUMNS)

    @pytest.mark.parametrize("volume", [math.inf, 0.0, math.nan])
    def test_scanned_volume_must_be_finite_and_positive(self, volume):
        with pytest.raises(IngestError, match="scanned_volume_mm3"):
            make_dataset(scanned_volume_mm3=volume)


def _dump_text(ds):
    out = io.StringIO()
    dump_specimen(ds, out)
    return out.getvalue()


def _csv_writer_dump(ds):
    """The dump as the csv module writes it, from the dataset's own columns."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([*ds.cells, "equiv_diameter_um", "aspect_ratio", "sphericity"])
    derived = (ds.diameters_um, ds.aspect_ratios, ds.sphericities)
    writer.writerows(
        zip(*(c.tolist() for c in ds.cells.values()), *(map(repr, d.tolist()) for d in derived))
    )
    return out.getvalue()


class TestDump:
    def test_lone_carriage_return_in_id_quoted_and_reingests(self):
        text = WELL_FORMED.replace("p2,", '"p\r2",')
        ds = ingest_specimen(io.StringIO(text, newline=""), specimen_id="S", scanned_volume_mm3=1.0)
        dumped = _dump_text(ds)
        assert '\n"p\r2",15.625,' in dumped
        again = ingest_specimen(io.StringIO(dumped, newline=""), specimen_id="S",
                                scanned_volume_mm3=1.0)
        assert list(again.cells["pore_id"]) == ["p1", "p3", "p\r2"]
        assert _dump_text(again) == dumped

    def test_round_trip_bit_exact(self):
        # raw measurement cells survive dump verbatim, including "0.10"-style text
        text = (
            "pore_id,volume_um3,surface_area_um2,min_feret_um,max_feret_um\n"
            "a,20.50,36.10,2.50,4.00\n"
            "b,15.625,30.0,2.5,5.0\n"
        )
        ds = make_dataset(text)
        out = io.StringIO()
        dump_specimen(ds, out)
        lines = out.getvalue().splitlines()
        header = lines[0].split(",")
        raw_rows = {row.split(",")[0]: row.split(",")[:5] for row in lines[1:]}
        assert header[:5] == ["pore_id", "volume_um3", "surface_area_um2",
                              "min_feret_um", "max_feret_um"]
        assert header[5:] == ["equiv_diameter_um", "aspect_ratio", "sphericity"]
        assert raw_rows["a"] == ["a", "20.50", "36.10", "2.50", "4.00"]
        assert raw_rows["b"] == ["b", "15.625", "30.0", "2.5", "5.0"]

    def test_every_row_maps_to_one_record(self):
        ds = make_dataset()
        out = io.StringIO()
        dump_specimen(ds, out)
        assert len(out.getvalue().splitlines()) == 1 + len(ds)

    def test_dump_reingests(self):
        ds = make_dataset()
        out = io.StringIO()
        dump_specimen(ds, out)
        again = make_dataset(out.getvalue())
        assert list(again.cells["pore_id"]) == list(ds.cells["pore_id"])
        assert np.array_equal(again.diameters_um, ds.diameters_um)


def test_synthesized_record_sphere_consistency():
    volume = 523598.776
    ds = SpecimenDataset(
        specimen_id="S", scanned_volume_mm3=1.0,
        cells={"pore_id": ["x"], "volume_um3": [repr(volume)],
               "surface_area_um2": [repr(sphere_surface_area(volume))],
               "min_feret_um": ["100.0"], "max_feret_um": ["100.0"]},
    )
    assert ds.sphericities[0] == pytest.approx(1.0, rel=1e-12)
    assert ds.aspect_ratios[0] == 1.0
    assert ds.quality_flags == ()


FLOAT_COLUMNS = REQUIRED_COLUMNS[1:]
TINIEST = 5e-324  # the smallest subnormal
LARGEST = 1.7976931348623157e308
# every positive finite float: subnormals, 17-digit values and values near 1e308
any_positive = st.floats(min_value=TINIEST, max_value=LARGEST)


def _from(columns, as_values):
    """A dataset of these float columns, each given as values where as_values says so
    and as its repr text otherwise."""
    n = len(columns[0])
    cells = {"pore_id": [f"p{i}" for i in range(n)]}
    for column, values, keep in zip(FLOAT_COLUMNS, columns, as_values):
        cells[column] = np.array(values, dtype=float) if keep else list(map(repr, values))
    with np.errstate(all="ignore"):  # values near 1e308 overflow the derived metrics
        return SpecimenDataset(specimen_id="S", scanned_volume_mm3=1.0, cells=cells)


class TestValueColumns:
    """A float column given as values acts exactly as its repr text."""

    @given(
        rows=st.lists(st.tuples(any_positive, any_positive, any_positive, any_positive),
                      max_size=12),
        as_values=st.tuples(*[st.booleans()] * 4),
    )
    @example(rows=[(TINIEST, 2.2250738585072014e-308, TINIEST, 1e-310),
                   (0.30000000000000004, 1.2345678901234567, 0.1, 9007199254740993.0),
                   (1e308, LARGEST, 1.7976931348623155e308, LARGEST),
                   (523598.776, 31415.927, 95.0, 105.0)],
             as_values=(True, True, True, True))
    def test_values_match_their_repr_text(self, rows, as_values):
        rows = [(v, a, *sorted(feret)) for v, a, *feret in rows]
        columns = [list(c) for c in zip(*rows)] or [[]] * 4
        text, values = _from(columns, (False,) * 4), _from(columns, as_values)
        for name in ("diameters_um", "aspect_ratios", "sphericities"):
            assert getattr(values, name).tobytes() == getattr(text, name).tobytes()
        assert values.quality_flags == text.quality_flags
        assert list(values.cells["pore_id"]) == list(text.cells["pore_id"])
        for column, keep in zip(FLOAT_COLUMNS, as_values):
            held = values.cells[column]
            assert not held.flags.writeable
            assert held.tolist() == (list(map(float, text.cells[column])) if keep
                                     else text.cells[column].tolist())
        assert _dump_text(values) == _dump_text(text)

    @pytest.mark.parametrize("column", FLOAT_COLUMNS)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0])
    def test_refusal_names_the_same_row_and_column(self, column, bad):
        columns = [[4.0, 3.0, 2.0], [30.0, 20.0, 10.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]
        columns[FLOAT_COLUMNS.index(column)][1] = bad
        with pytest.raises(IngestError) as from_text:
            _from(columns, (False,) * 4)
        with pytest.raises(IngestError) as from_values:
            _from(columns, (True,) * 4)
        assert str(from_values.value) == (
            f"row 3, column {column}: must be finite and positive, got {bad!r}"
        )
        assert str(from_text.value) == (
            f"row 3, column {column}: must be finite and positive, got {repr(bad)!r}"
        )

    def test_min_feret_above_max_names_the_same_row(self):
        columns = [[4.0, 3.0, 2.0], [30.0, 20.0, 10.0], [1.0, 5.0, 1.0], [2.0, 2.0, 2.0]]
        with pytest.raises(IngestError) as from_text:
            _from(columns, (False,) * 4)
        with pytest.raises(IngestError) as from_values:
            _from(columns, (True,) * 4)
        assert str(from_text.value) == "row 3, column min_feret_um: exceeds max_feret_um, got '5.0'"
        assert str(from_values.value) == "row 3, column min_feret_um: exceeds max_feret_um, got 5.0"

    def test_one_array_for_both_ferets_is_held_and_written_once(self):
        d = np.array([2.0, 0.30000000000000004, 7.5])
        v = np.pi / 6.0 * d**3
        columns = [v.tolist(), sphere_surface_area(v).tolist(), d.tolist(), d.tolist()]
        cells = {"pore_id": ["p0", "p1", "p2"], "volume_um3": v,
                 "surface_area_um2": sphere_surface_area(v), "min_feret_um": d, "max_feret_um": d}
        ds = SpecimenDataset(specimen_id="S", scanned_volume_mm3=1.0, cells=cells)
        assert ds.cells["min_feret_um"] is ds.cells["max_feret_um"]
        assert _dump_text(ds) == _dump_text(_from(columns, (False,) * 4))

    def test_values_must_be_one_dimensional(self):
        cells = {"pore_id": ["p1"], "volume_um3": np.array([[1.0]]),
                 **{c: ["1.0"] for c in FLOAT_COLUMNS[1:]}}
        with pytest.raises(IngestError, match="column volume_um3: values must be a 1-D array"):
            SpecimenDataset(specimen_id="S", scanned_volume_mm3=1.0, cells=cells)

    def test_callers_array_is_copied(self):
        volumes = np.array([1.0, 8.0])
        cells = {"pore_id": ["p1", "p2"], "volume_um3": volumes,
                 **{c: ["1.0", "1.0"] for c in FLOAT_COLUMNS[1:]}}
        ds = SpecimenDataset(specimen_id="S", scanned_volume_mm3=1.0, cells=cells)
        volumes[:] = 3.0
        assert ds.cells["volume_um3"].tolist() == [8.0, 1.0]


class TestArrayMetrics:
    """The dataset's metric columns are the scalar formulas applied pore by pore."""

    def test_columns_equal_scalar_formulas(self):
        rng = np.random.default_rng(4)
        n = 2000
        volume = np.exp(rng.uniform(0.0, 25.0, n))
        area = sphere_surface_area(volume) * rng.uniform(0.9, 3.0, n)
        lo, hi = np.sort(rng.uniform(0.5, 500.0, (2, n)), axis=0)
        rows = "".join(
            f"p{i},{v!r},{a!r},{f!r},{g!r}\n"
            for i, (v, a, f, g) in enumerate(zip(volume.tolist(), area.tolist(), lo.tolist(), hi.tolist()))
        )
        ds = make_dataset(",".join(REQUIRED_COLUMNS) + "\n" + rows)
        cells = ds.cells
        for i in range(n):
            v, a = float(cells["volume_um3"][i]), float(cells["surface_area_um2"][i])
            f, g = float(cells["min_feret_um"][i]), float(cells["max_feret_um"][i])
            assert ds.diameters_um[i] == equiv_diameter(v)
            assert ds.aspect_ratios[i] == aspect_ratio(f, g)
            assert ds.sphericities[i] == sphericity(v, a)
        # the array forms of the public functions agree with the scalar forms
        assert np.array_equal(equiv_diameter(volume), [equiv_diameter(v) for v in volume.tolist()])
        assert np.array_equal(
            sphere_surface_area(volume), [sphere_surface_area(v) for v in volume.tolist()]
        )

    @pytest.mark.parametrize("call", [
        lambda bad: equiv_diameter(bad),
        lambda bad: sphere_surface_area(bad),
        lambda bad: sphericity(bad, np.ones(3)),
        lambda bad: sphericity(np.ones(3), bad),
        lambda bad: aspect_ratio(bad, np.full(3, 2.0)),
        lambda bad: aspect_ratio(np.full(3, 0.5), bad),
    ])
    @pytest.mark.parametrize("entry", [0.0, -1.0, math.nan])
    def test_array_with_one_nonpositive_entry_refused(self, call, entry):
        with pytest.raises(UsageError):
            call(np.array([1.0, entry, 1.5]))

    def test_array_ordering_violation_refused(self):
        with pytest.raises(UsageError, match="exceeds"):
            aspect_ratio(np.array([1.0, 3.0]), np.array([2.0, 2.0]))


@st.composite
def number_text(draw, signed=False):
    """A number as a pore table may spell it: 0.10, 15.625, 1e3, 2.50E-1."""
    digits = draw(st.integers(1, 99999))
    point = draw(st.integers(0, 4))
    text = str(digits).rjust(point + 1, "0")
    if point:
        text = f"{text[:-point]}.{text[-point:]}"
        if draw(st.booleans()):
            text += "0"
    if draw(st.booleans()):
        text += draw(st.sampled_from("eE")) + str(draw(st.integers(-3, 3)))
    if signed and draw(st.booleans()):
        text = "-" + text
    return text


@st.composite
def pore_tables(draw):
    """Rows of measured cells (volumes from a small pool, so diameters tie)."""
    n = draw(st.integers(0, 12))
    volumes = draw(st.lists(number_text(), min_size=1, max_size=3))
    centroid = draw(st.booleans())
    rows = []
    for i in range(n):
        fmin, fmax = sorted(draw(st.lists(number_text(), min_size=2, max_size=2)), key=float)
        row = [f"q{i}", draw(st.sampled_from(volumes)), draw(number_text()), fmin, fmax]
        if centroid:
            row += [draw(st.one_of(st.just(""), number_text(signed=True))) for _ in range(3)]
        rows.append(row)
    return REQUIRED_COLUMNS + (CENTROID_COLUMNS if centroid else ()), rows


@settings(max_examples=60, deadline=None, derandomize=True)
@given(table=pore_tables())
def test_ingest_dump_ingest_round_trip(table):
    header, rows = table
    text = "\n".join(",".join(row) for row in [header, *rows]) + "\n"
    first = make_dataset(text)
    out = io.StringIO()
    dump_specimen(first, out)
    again = make_dataset(out.getvalue())

    # canonical order: a stable sort by descending diameter, ties in table order
    diameters = [equiv_diameter(float(row[1])) for row in rows]
    order = sorted(range(len(rows)), key=lambda i: -diameters[i])
    kept = len(header) if any(all(row[5:]) for row in rows) else len(REQUIRED_COLUMNS)
    expected = {c: [rows[i][j] for i in order] for j, c in enumerate(header[:kept])}
    for ds in (first, again):
        assert {c: list(cells) for c, cells in ds.cells.items()} == expected
    assert out.getvalue().splitlines()[0].split(",")[:kept] == list(header[:kept])
    assert again.diameters_um.tobytes() == first.diameters_um.tobytes()
    assert again.diameters_um.tolist() == [diameters[i] for i in order]


# pieces of awkward ids: csv specials, spaces, and "\r" only inside "\r\n"
# (the csv module leaves a lone "\r" unquoted when lines end in "\n")
ID_PIECES = ["p", "7", ",", '"', "\n", "\r\n", " ", "#"]


@st.composite
def quoted_tables(draw):
    """Rows of a pore table whose ids need csv quoting and whose centroids are partly blank."""
    n = draw(st.integers(0, 10))
    ids = draw(st.lists(st.lists(st.sampled_from(ID_PIECES), max_size=4).map("".join),
                        min_size=n, max_size=n, unique=True))
    centroid = draw(st.booleans())
    rows = []
    for pore_id in ids:
        fmin, fmax = sorted(draw(st.lists(number_text(), min_size=2, max_size=2)), key=float)
        row = [pore_id, draw(number_text()), draw(number_text()), fmin, fmax]
        if centroid:
            row += [draw(st.one_of(st.just(""), number_text(signed=True))) for _ in range(3)]
        rows.append(row)
    return REQUIRED_COLUMNS + (CENTROID_COLUMNS if centroid else ()), rows


@settings(max_examples=80, deadline=None, derandomize=True)
@given(table=quoted_tables(), terminator=st.sampled_from(["\n", "\r\n"]))
def test_dump_equals_csv_writer(table, terminator):
    header, rows = table
    source = io.StringIO(newline="")
    csv.writer(source, lineterminator=terminator).writerows([header, *rows])
    ds = ingest_specimen(io.StringIO(source.getvalue(), newline=""), specimen_id="S",
                         scanned_volume_mm3=1.0)
    assert sorted(ds.cells["pore_id"]) == sorted(row[0] for row in rows)
    dumped = _dump_text(ds)
    assert dumped == _csv_writer_dump(ds)
    again = ingest_specimen(io.StringIO(dumped, newline=""), specimen_id="S",
                            scanned_volume_mm3=1.0)
    assert _dump_text(again) == dumped


def _preamble(line):
    return not line.strip() or line.lstrip().startswith("#")


def csv_reader_ingest(text):
    """Ingest as csv.reader splits the table, row by row: the reference for quote-free text."""
    reader = csv.reader(itertools.dropwhile(_preamble, io.StringIO(text, newline="")))
    header = next(reader, None)
    if header is None:
        raise IngestError("empty file: no header row, no rows")
    for column in REQUIRED_COLUMNS + CENTROID_COLUMNS:
        if header.count(column) > 1:
            raise IngestError(f"header: column {column} appears more than once")
    measured = REQUIRED_COLUMNS
    if set(CENTROID_COLUMNS) <= set(header):
        measured += CENTROID_COLUMNS
    index = {c: header.index(c) for c in measured if c in header}
    cells = {c: [] for c in index}
    for number, row in enumerate((row for row in reader if row), start=2):
        if any(len(row) <= i for c, i in index.items() if c in REQUIRED_COLUMNS):
            raise IngestError(f"row {number}: missing cells")
        cut = any(len(row) <= i for c, i in index.items() if c in CENTROID_COLUMNS)
        for c, i in index.items():
            cells[c].append("" if cut and c in CENTROID_COLUMNS else row[i])
    return SpecimenDataset(specimen_id="S", scanned_volume_mm3=10.0, cells=cells)


def _outcome(build):
    try:
        ds = build()
    except IngestError as exc:
        return f"refused: {exc}"
    return {c: list(cells) for c, cells in ds.cells.items()}


# awkward quote-free cells: spaces, NUL characters and "#"-prefixed ids
AWKWARD_CELLS = ["", " ", "  ", "\0", "a\0b", "#", "#p", " 15.625", "15.625 "]
PREAMBLE_LINES = ["", " ", "\t", "# seed=5", "  # note", "#"]
# below the header only empty lines are skipped; the others are (short) rows
BODY_LINES = ["", "", "", "", " ", "#p9", "# note"]
EXTRA_COLUMNS = ["note", "", "pore_id2"]


@st.composite
def quote_free_tables(draw):
    """Table text without a double quote: ragged rows, blank and '#' lines, mixed line ends."""
    header = list(REQUIRED_COLUMNS)
    if draw(st.booleans()):
        header += CENTROID_COLUMNS
    header += draw(st.lists(st.sampled_from(EXTRA_COLUMNS), max_size=2))
    edit = draw(st.integers(0, 19))
    if edit == 0:
        header.remove(draw(st.sampled_from(REQUIRED_COLUMNS)))
    elif edit == 1:
        header.append(draw(st.sampled_from(header)))
    if draw(st.booleans()):
        header = draw(st.permutations(header))
    required = max(header.index(c) for c in REQUIRED_COLUMNS if c in header)
    # at most one kind of mess per table, so that a table that fails is
    # mostly refused for it and a clean one mostly ingests
    mess = draw(st.sampled_from(["", "", "cells", "cuts", "lines"]))
    lines = draw(st.lists(st.sampled_from(PREAMBLE_LINES), max_size=3))
    lines.append(",".join(header))
    for i in range(draw(st.integers(0, 8))):
        fmin, fmax = sorted(draw(st.lists(number_text(), min_size=2, max_size=2)), key=float)
        valid = {"pore_id": f"p{i}", "volume_um3": draw(number_text()),
                 "surface_area_um2": draw(number_text()), "min_feret_um": fmin,
                 "max_feret_um": fmax}
        row = []
        for column in header:
            if mess == "cells" and draw(st.integers(0, 19)) == 0:
                row.append(draw(st.sampled_from(AWKWARD_CELLS)))
            elif column in valid:
                row.append(valid[column])
            elif column in CENTROID_COLUMNS:
                blank = draw(st.integers(0, 5)) == 0
                row.append("" if blank else draw(number_text(signed=True)))
            else:
                row.append(draw(st.sampled_from(AWKWARD_CELLS)))
        shape = draw(st.integers(0, 7))
        if shape == 0 and mess == "cuts":  # cut short of a required cell
            row = row[:draw(st.integers(1, required))]
        elif shape < 3:  # cut short after the last required cell, centroids included
            row = row[:draw(st.integers(required + 1, len(row)))]
        elif shape == 3:
            row += draw(st.lists(st.sampled_from(AWKWARD_CELLS), min_size=1, max_size=2))
        lines.append(",".join(row))
        if draw(st.integers(0, 3)) == 0:
            lines.append(draw(st.sampled_from(BODY_LINES)) if mess == "lines" else "")
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=quote_free_tables())
def test_bulk_split_matches_csv_reader(text):
    ingested = _outcome(lambda: ingest_specimen(
        io.StringIO(text, newline=""), specimen_id="S", scanned_volume_mm3=10.0))
    assert ingested == _outcome(lambda: csv_reader_ingest(text))


def test_quote_free_table_bypasses_csv(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("csv.reader used on a table without quotes")

    monkeypatch.setattr(csv, "reader", refuse)
    assert len(make_dataset(WELL_FORMED.replace("\n", "\r\n"))) == 3
    with pytest.raises(AssertionError, match="csv.reader used"):
        make_dataset(WELL_FORMED.replace("p2", '"p2"'))


def test_overlong_quoted_cell_names_row():
    limit = csv.field_size_limit()
    text = WELL_FORMED.replace("p2", '"' + "x" * (limit + 10) + '"')
    with pytest.raises(IngestError, match=r"^row 3: field larger than field limit"):
        make_dataset(text)
    assert csv.field_size_limit() == limit


def test_csv_error_counts_rows_not_lines():
    # a blank line below the header and a two-line quoted id: the third
    # pore is still row 3, however many lines lie above it
    head = WELL_FORMED.split("\n", 1)[0] + '\n\n"p\n1",523598.776,31415.927,95.0,105.0\n'
    long_id = '"' + "x" * (csv.field_size_limit() + 10) + '"'
    with pytest.raises(IngestError, match=r"^row 3: field larger than field limit"):
        make_dataset(head + long_id + ",15.625,30.0,2.5,5.0\n")
    with pytest.raises(IngestError, match=r"^row 3, column volume_um3: could not parse"):
        make_dataset(head + '"p2",abc,30.0,2.5,5.0\n')


def test_undecodable_bytes_name_offset(tmp_path):
    table = tmp_path / "latin1.csv"
    table.write_bytes(b"\xef\xbb\xbf" + WELL_FORMED.replace("p2", "p\xe92").encode("latin-1"))
    offset = 3 + WELL_FORMED.index("p2") + 1
    with pytest.raises(IngestError, match=rf"^byte {offset}: not UTF-8 text"):
        ingest_specimen(table, specimen_id="S", scanned_volume_mm3=1.0)


# cells of the comma-separated tables: text that csv must quote or not
# (no NUL, which csv.reader refuses before Python 3.11), and anything else
CSV_SPECIALS = st.sampled_from([",", '"', "\r", "\n"])
TABLE_OTHERS = st.one_of(st.floats(), st.integers(), st.booleans(), st.none())


@st.composite
def table_columns(draw):
    """Columns c0, c1, ... of text or of other cells, a few rows each."""
    plain = st.characters(min_codepoint=1, exclude_characters=',"\r\n')
    alphabet = plain if draw(st.booleans()) else st.one_of(plain, CSV_SPECIALS)
    n = draw(st.integers(0, 5))
    cells = st.lists(st.one_of(st.text(alphabet, max_size=6), TABLE_OTHERS), min_size=n, max_size=n)
    text = st.lists(st.text(alphabet, max_size=6), min_size=n, max_size=n)
    columns = draw(st.lists(st.one_of(text, cells), min_size=2, max_size=4))
    return {f"c{i}": values for i, values in enumerate(columns)}


def _cell_text(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(columns=table_columns())
@example(columns={"c0": ["a,b", 'q"', "r\rs", "t\nu"], "c1": [math.nan, math.inf, -math.inf, -0.0]})
@example(columns={"c0": [1, True, False, None], "c1": ["", "x", "", "y"]})
def test_table_writer_matches_csv_reader(columns):
    out = io.StringIO()
    write_table(out, columns, provenance={"seed": 1})
    text = out.getvalue()
    rows = list(csv.reader(itertools.dropwhile(_preamble, io.StringIO(text, newline=""))))
    assert rows[0] == list(columns)
    expected = {name: list(map(_cell_text, values)) for name, values in columns.items()}
    assert {name: [row[i] for row in rows[1:]] for i, name in enumerate(columns)} == expected
    # the bulk path where the text holds no quote, and csv.reader's path
    assert _table_columns(io.StringIO(text, newline=""), list(columns)) == expected
    assert _csv_columns(text, list(columns)) == expected


# The writer formats _BLOCK_ROWS rows at a time; these row counts sit on and
# either side of its block boundaries.
BLOCK = geometry._BLOCK_ROWS
BLOCK_ROW_COUNTS = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7]
EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, TINIEST, 2.2250738585072014e-308,
               LARGEST, 0.1, 0.30000000000000004]
TEXT = st.text(st.one_of(st.characters(min_codepoint=1), CSV_SPECIALS), max_size=6)


def _csv_field(text):
    """csv's minimal quoting of one cell."""
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def _row_by_row(columns, head=""):
    """A table as it was written a row at a time: fmt of each value, None
    empty, each cell in csv's minimal quoting."""
    cell = lambda value: _csv_field("" if value is None else fmt(value))
    lines = [",".join(columns)]
    lines += [",".join(map(cell, row)) for row in zip(*columns.values(), strict=True)]
    return head + "".join(line + "\n" for line in lines)


@st.composite
def tiled(draw, values, n):
    """n cells from a short drawn pool of values, in a drawn order."""
    pool = draw(st.lists(values, min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [pool[i] for i in rng.integers(len(pool), size=n)]


@st.composite
def block_table_columns(draw, n):
    """Columns of n rows for write_table: floats (edge values, float32, as a list or
    an array), mixed cells, text that csv must quote, and one array under two names."""
    floats = draw(tiled(st.one_of(st.sampled_from(EDGE_FLOATS), st.floats()), n))
    narrow = np.array(draw(tiled(st.floats(width=32), n)), dtype=np.float32)
    mixed = draw(tiled(st.one_of(st.none(), st.booleans(), st.integers(), TEXT, st.floats()), n))
    shared = np.array(floats[::-1])
    kinds = {
        "floats": floats,
        "float_array": np.array(floats),
        "float32": narrow,
        "float32_list": list(narrow),
        "mixed": mixed,
        "text": draw(tiled(TEXT, n)),
        "shared_a": shared,
        "shared_b": shared,
    }
    names = draw(st.lists(st.sampled_from(list(kinds)), min_size=1, max_size=len(kinds),
                          unique=True))
    return {name: kinds[name] for name in names}


class TestBlockWriter:
    """Tables written a block of rows at a time read byte for byte as written a row at a time."""

    @pytest.mark.parametrize("n", BLOCK_ROW_COUNTS)
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_table_matches_row_by_row(self, n, data):
        columns = data.draw(block_table_columns(n))
        out = io.StringIO()
        write_table(out, columns, provenance={"seed": 1, "id": "a b"})
        # compared by line, so that pytest's report of a difference stays short
        expected = _row_by_row(columns, "# seed=1\n# id=a b\n")
        assert out.getvalue().split("\n") == expected.split("\n")

    @pytest.mark.parametrize("n", BLOCK_ROW_COUNTS)
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_dump_matches_row_by_row(self, n, data):
        ids = data.draw(tiled(TEXT, n))
        measured = st.one_of(st.sampled_from([TINIEST, 0.1, LARGEST]), any_positive)
        volume, area, feret = (np.array(data.draw(tiled(measured, n))) for _ in range(3))
        # each measured column given as values or as its repr text
        cells = {"pore_id": [f"{prefix}{i}" for i, prefix in enumerate(ids)]}
        for column, values in (("volume_um3", volume), ("surface_area_um2", area)):
            as_values = data.draw(st.booleans())
            cells[column] = values if as_values else list(map(repr, values.tolist()))
        # one array for both Feret diameters, as a sphere's are given
        cells["min_feret_um"] = cells["max_feret_um"] = feret
        if data.draw(st.booleans()):
            centroid = st.sampled_from(["", "1.5", "-0.0", "2e3"])
            cells.update({c: data.draw(tiled(centroid, n)) for c in CENTROID_COLUMNS})
        with np.errstate(all="ignore"):  # values near 1e308 overflow the derived metrics
            ds = SpecimenDataset(specimen_id="S", scanned_volume_mm3=1.0, cells=cells)
        derived = (ds.diameters_um, ds.aspect_ratios, ds.sphericities)
        expected = _row_by_row({**ds.cells, **dict(zip(DERIVED_COLUMNS, derived))})
        assert _dump_text(ds).split("\n") == expected.split("\n")

    def test_dump_memory_stays_within_a_block(self):
        class Discard(io.TextIOBase):
            def write(self, text):
                return len(text)

        rng = np.random.default_rng(3)
        volume = rng.uniform(1.0, 1e6, 50_000)
        area = sphere_surface_area(volume) * rng.uniform(1.0, 2.0, volume.size)
        feret = rng.uniform(1.0, 100.0, volume.size)
        cells = {"pore_id": [f"p{i}" for i in range(volume.size)], "volume_um3": volume,
                 "surface_area_um2": area, "min_feret_um": feret, "max_feret_um": feret}
        ds = SpecimenDataset(specimen_id="S", scanned_volume_mm3=1.0, cells=cells)
        tracemalloc.start()
        try:
            dump_specimen(ds, Discard())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the text of a 50k-pore table, or a column of it, is several MB
        assert peak < 2_000_000

    def test_unequal_columns_are_refused_before_anything_is_written(self, tmp_path):
        columns = {"a": [1.0] * (BLOCK + 5), "b": ["x"] * (BLOCK + 4)}
        out = io.StringIO()
        with pytest.raises(ValueError, match=rf"^columns of unequal length: a has {BLOCK + 5} "):
            write_table(out, columns, provenance={"seed": 1})
        assert out.getvalue() == ""
        path = tmp_path / "table.csv"
        with pytest.raises(ValueError, match="unequal length"):
            write_table(path, columns)
        assert not path.exists()
