import io
import json
from collections import Counter

import numpy as np
import pytest

from pawnnim.experiments import (ScanTables, write_report as _write,
                                 first_occurrence, periodic_scan,
                                 power_milestones, two_sig_figs,
                                 value_distribution)
from pawnnim.grundy import GrundyTable, epsilon
from pawnnim.words import PeriodicPattern, count_words, enumerate_words


@pytest.fixture(scope="module")
def tables():
    st = ScanTables(chunk_size=1 << 12)  # small chunks to exercise seams
    st.build(11)
    return st


def test_scan_matches_direct_evaluation(tables):
    table = GrundyTable()
    for m in range(1, 12):
        for rank, w in enumerate(enumerate_words(m)):
            assert tables.EPS[m][rank] == epsilon(w, table), str(w)


def test_rank_unrank_round_trip(tables):
    for m in range(0, 11):
        for rank, w in enumerate(enumerate_words(m)):
            assert tables.rank(w) == rank
            assert tables.unrank(m, rank) == w


def test_chunked_equals_unchunked():
    small = ScanTables(chunk_size=1 << 4)
    big = ScanTables(chunk_size=1 << 22)
    small.build(9)
    big.build(9)
    for m in range(len(small.EPS)):
        assert np.array_equal(small.EPS[m], big.EPS[m])
        assert np.array_equal(small.CL[m], big.CL[m])


def test_workers_deterministic():
    seq = ScanTables(chunk_size=1 << 6, workers=1)
    par = ScanTables(chunk_size=1 << 6, workers=4)
    seq.build(10)
    par.build(10)
    for m in range(len(seq.EPS)):
        assert np.array_equal(seq.EPS[m], par.EPS[m])


def test_workers_must_be_positive():
    for workers in (0, -1):
        with pytest.raises(ValueError):
            ScanTables(workers=workers)


def test_first_occurrence_small(tables):
    found = first_occurrence(4, 9, tables)
    assert dict(sorted(found.lengths.items())) == {1: 1, 2: 4, 3: 6, 4: 9}
    # every witness attains its value at its recorded length
    table = GrundyTable()
    for k, w in found.witnesses.items():
        assert epsilon(w, table) == k
        assert len(w) == found.lengths[k]
    # value 2 appears first as 1000 or its mirror
    assert str(found.witnesses[2]) in ("1000", "0001")


def test_first_occurrence_reports_missing(tables):
    found = first_occurrence(6, 9, tables)
    assert 5 not in found.lengths  # first *5 needs length 11
    assert found.max_length_scanned == 9


def test_value_distribution_matches_brute_force(tables):
    table = GrundyTable()
    for m in (1, 5, 9):
        row = value_distribution(m, tables)
        brute = Counter(epsilon(w, table) for w in enumerate_words(m))
        assert row.counts == dict(brute)
        assert row.total == count_words(m)
    assert value_distribution(1, tables).counts == {1: 2}


def test_two_sig_figs():
    assert two_sig_figs(24.3) == 24
    assert two_sig_figs(5.43) == 5.4
    assert two_sig_figs(0.512) == 0.51
    assert two_sig_figs(0.0) == 0.0


def test_periodic_scan_plain():
    result = periodic_scan(PeriodicPattern(1, frozenset()), 60)
    assert result.report.period == 10
    assert result.report.preperiod == 0
    assert result.report.verified
    assert int(result.values.max()) == 1
    assert result.milestones == {1: 1}


def test_periodic_scan_p6_first_milestone():
    result = periodic_scan(PeriodicPattern(6, frozenset({4})), 60,
                           detect=False)
    assert result.milestones[1] == 1
    assert result.milestones[2] == 4   # prefix 0001 of the pattern
    assert result.milestones[4] == 16  # cross-checked against direct values
    assert result.report is None


def test_power_milestones():
    vals = np.array([0, 1, 0, 2, 4, 2, 8])
    assert power_milestones(vals) == {1: 1, 2: 3, 4: 4, 8: 6}
    assert power_milestones(np.zeros(3, dtype=int)) == {}


# -- serialization -----------------------------------------------------------

def test_export_first_occurrence_csv(tables):
    found = first_occurrence(3, 6, tables)
    buf = io.StringIO()
    _write(found, "csv", buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("# pawnnim")
    assert lines[1] == "k,m,witness"
    rows = [ln.split(",") for ln in lines[2:]]
    assert [r[0] for r in rows] == ["1", "2", "3"]
    assert rows[1][1] == "4"


def test_export_distribution_jsonl(tables):
    row = value_distribution(5, tables)
    buf = io.StringIO()
    _write(row, "jsonl", buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("# pawnnim")
    record = json.loads(lines[1])
    assert record["length"] == 5
    assert record["total"] == count_words(5)
    assert sum(record["counts"].values()) == record["total"]


def test_export_periodic_csv_matches_dump_format():
    result = periodic_scan(PeriodicPattern(6, frozenset({4})), 10,
                           detect=False)
    buf = io.StringIO()
    _write(result, "csv", buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("# pawnnim")
    assert lines[1].startswith("#phase-table:")
    meta = json.loads(lines[1].split(":", 1)[1])
    assert meta["period"] == 6 and meta["stopped"] == [4]
    assert lines[2] == "0,0"
    assert len(lines) == 2 + 11


def test_export_to_file(tmp_path, tables):
    path = tmp_path / "out.csv"
    with open(path, "w", encoding="utf-8") as fh:
        _write(value_distribution(4, tables), "csv", fh)
    assert path.read_text().startswith("# pawnnim")
    with pytest.raises(TypeError):
        _write(object(), "csv", io.StringIO())
