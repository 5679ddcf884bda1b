import io

import pytest

from maxnorm_lowrank.records import (
    COLUMNS,
    CSV_VERSION_LINE,
    MEDIAN_TRIAL,
    ExperimentRecord,
    read_csv,
    write_csv,
)

RECORDS = [
    ExperimentRecord("varm", "gauss", "independent", 30, 3, 2, 0, 17, "altproj", 0.1, 0.25),
    ExperimentRecord("varm", "gauss", "independent", 30, 3, 2, 0, 17, "tsvd_baseline",
                     1.0 / 3.0, 1e-4),
    ExperimentRecord("varm", "gauss", "independent", 30, 3, 2, MEDIAN_TRIAL, 2**63 + 5,
                     "altproj_median", 0.0, 0.0),
    ExperimentRecord("single", "f3", "independent", 8, 2, 4, 3, 1, "tt", 12.5, 3.0),
]

GOLDEN = (
    "# maxnorm-lowrank v1\n"
    "experiment,function,scheme,n,m,r,trial,seed,algorithm,rel_error,wall_time_s\n"
    "varm,gauss,independent,30,3,2,0,17,altproj,0.10000000000000001,0.25\n"
    "varm,gauss,independent,30,3,2,0,17,tsvd_baseline,0.33333333333333331,0.0001\n"
    "varm,gauss,independent,30,3,2,-1,9223372036854775813,altproj_median,0,0\n"
    "single,f3,independent,8,2,4,3,1,tt,12.5,3\n"
)


def _write(records) -> str:
    buf = io.StringIO()
    write_csv(records, buf)
    return buf.getvalue()


def _read(text: str):
    return read_csv(io.StringIO(text))


def test_write_golden():
    assert _write(RECORDS) == GOLDEN


def test_round_trip_is_byte_identical():
    records = _read(GOLDEN)
    assert records == RECORDS
    assert _write(records) == GOLDEN


def test_blank_lines_skipped():
    assert _read(GOLDEN + "\n") == RECORDS


def _replace_field(column: str, value: str, row: int = 0) -> str:
    lines = GOLDEN.splitlines()
    cells = lines[2 + row].split(",")
    cells[COLUMNS.index(column)] = value
    lines[2 + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("text, message", [
    (GOLDEN.replace(CSV_VERSION_LINE, "# maxnorm-lowrank v0"), "version line"),
    ("", "version line"),
    (GOLDEN.replace("wall_time_s", "wall_time"), "header"),
    (CSV_VERSION_LINE + "\n", "header"),
    (GOLDEN.replace(",0.25\n", ",0.25,1\n"), "expected 11 fields, got 12"),
    (GOLDEN.replace(",tt,12.5,3\n", ",tt,12.5\n"), "expected 11 fields, got 10"),
    (_replace_field("rel_error", "-0.5"), "relative error must be >= 0"),
    (_replace_field("trial", "-1"), "reserved for median"),
    (_replace_field("trial", "-2"), "bad trial index"),
    (_replace_field("algorithm", "sgd"), "unknown algorithm tag"),
    (_replace_field("m", "0"), "m must be >= 1"),
    (_replace_field("n", "x"), "invalid literal"),
])
def test_read_rejects(text, message):
    with pytest.raises(ValueError, match=message):
        _read(text)


def test_write_validates():
    bad = ExperimentRecord("varm", "gauss", "independent", 30, 3, 2, 0, 1, "altproj", -1.0, 0.0)
    with pytest.raises(ValueError, match="relative error"):
        _write([bad])
