import hashlib
import io
import json
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest

from pawnnim.experiments import (MAX_SCAN_LENGTH, ScanTables,
                                 write_report as _write, first_occurrence,
                                 periodic_scan, power_milestones,
                                 two_sig_figs, value_distribution)
from pawnnim.grundy import GrundyTable, epsilon
from pawnnim.words import PeriodicPattern, Word, count_words, enumerate_words


@pytest.fixture(scope="module")
def tables():
    st = ScanTables(chunk_size=1 << 12)  # small chunks to exercise seams
    st.build(11)
    return st


def _assert_same_tables(st, ref, *where):
    """Every length's values, read through ``values``, and every colon
    tier of two tables are equal."""
    assert st.max_length == ref.max_length and len(st.CL) == len(ref.CL)
    for m in range(st.max_length + 1):
        assert np.array_equal(st.values(m), ref.values(m)), (*where, m)
    for m, (cl, ref_cl) in enumerate(zip(st.CL, ref.CL)):
        assert np.array_equal(cl, ref_cl), (*where, m)


def test_scan_matches_direct_evaluation(tables):
    table = GrundyTable()
    for m in range(1, 12):
        values = tables.values(m)
        for rank, w in enumerate(enumerate_words(m)):
            assert values[rank] == epsilon(w, table), str(w)


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
    _assert_same_tables(small, big)


def test_workers_deterministic():
    seq = ScanTables(chunk_size=1 << 6, workers=1)
    par = ScanTables(chunk_size=1 << 6, workers=4)
    seq.build(10)
    par.build(10)
    _assert_same_tables(seq, par)


def test_blocks_share_a_prefix():
    # a tier's blocks are consecutive rank runs, in order, within
    # chunk_size words, and the words of a block share its prefix
    for chunk_size in (1, 2, 3, 5, 8, 100):
        st = ScanTables(chunk_size=chunk_size)
        st.build(9)
        for m in range(2, 10):
            ranks = 0
            for prefix, start, n in st._blocks(m):
                assert start == ranks and 1 <= n <= chunk_size
                for rank in (start, start + n - 1):
                    assert tuple(st.unrank(m, rank)[:len(prefix)]) == prefix
                ranks += n
            assert ranks == count_words(m)


@pytest.mark.parametrize("workers", [1, 2])
def test_one_and_two_word_blocks(workers):
    # chunk sizes 1 and 2 put every file or all but the last in the
    # prefix, so almost every move is a slice and a byte, and 3 leaves two
    # files to the gather sweep
    ref = ScanTables()
    ref.build(14)
    for chunk_size in (1, 2, 3):
        st = ScanTables(chunk_size=chunk_size, workers=workers)
        st.build(14)
        _assert_same_tables(st, ref, chunk_size)


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_every_share_split_writes_the_same_tables(workers):
    # worker i takes blocks (and colon chunks) i, i + workers, ...: tiers
    # of 2, 3, 5, 8, 13, 21 and 34 blocks split unevenly, and tiers of
    # fewer blocks than workers leave workers without a share
    ref = ScanTables()
    ref.build(14)
    for chunk_size in (50, 300):
        st = ScanTables(chunk_size=chunk_size, workers=workers)
        st.build(14)
        blocks = {len(st._blocks(m)) for m in range(2, 15)}
        assert {2, 3, 5} <= blocks
        _assert_same_tables(st, ref, chunk_size)


def test_scratch_sets_are_not_shared_between_threads():
    # more threads than cores on small blocks, switching as often as the
    # interpreter allows: each worker allocates its own scratch for its
    # own share of the blocks, so no two threads can write one scratch
    # set, and the build ends with the reference tables
    ref = ScanTables()
    ref.build(16)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    st = ScanTables(chunk_size=20, workers=4)
    build = threading.Thread(target=st.build, args=(16,), daemon=True)
    try:
        build.start()
        build.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not build.is_alive() and st.max_length == 16
    _assert_same_tables(st, ref)


def test_a_failing_block_reaches_the_caller():
    # every block of a multi-block tier fails: each worker's exception
    # ends its share and reaches the caller, and no worker waits on
    # scratch another one holds, since each allocates its own
    st = ScanTables(chunk_size=20, workers=2)
    kernel = st._eps_block

    def failing(m, *args):
        if m == 10:
            raise MemoryError("no room for the block")
        kernel(m, *args)

    st._eps_block = failing
    errors = []

    def build():
        try:
            st.build(12)
        except MemoryError as e:
            errors.append(e)

    thread = threading.Thread(target=build, daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and len(errors) == 1
    assert len(st._blocks(10)) > 2 and st.max_length == 9
    # the failed tier built the colon tier it reads and dropped the values
    # that tier holds; a second try goes on from there
    st._eps_block = kernel
    st.build(12)
    ref = ScanTables()
    ref.build(12)
    _assert_same_tables(st, ref)


def test_an_interrupted_worker_stops_the_other_shares():
    # worker 0 is interrupted in its first block of tier 12 while worker 1
    # is in its first; worker 1 then reads the stop flag and starts no
    # other block of its share, and the interrupt reaches the caller
    st = ScanTables(chunk_size=20, workers=2)
    st.build(11)
    st._count(12)
    blocks = st._blocks(12)
    share1 = {start for _, start, _ in blocks[1::2]}
    assert len(share1) >= 3
    kernel = st._eps_block
    started, interrupted = threading.Event(), threading.Event()
    ran = []

    def block(m, prefix, start, *args):
        if start == blocks[0][1]:
            assert started.wait(30)
            interrupted.set()
            raise KeyboardInterrupt
        if start in share1:
            ran.append(start)
            started.set()
            assert interrupted.wait(30)
            time.sleep(0.2)  # the interrupted worker sets the flag
        kernel(m, prefix, start, *args)

    st._eps_block = block
    with pytest.raises(KeyboardInterrupt):
        st.build(12)
    assert ran == [blocks[1][1]] and st.max_length == 11
    # the next build goes on from the colon tier the interrupted one built
    st._eps_block = kernel
    st.build(12)
    ref = ScanTables()
    ref.build(12)
    _assert_same_tables(st, ref)


def test_only_the_top_two_value_tiers_are_held():
    st = ScanTables(chunk_size=1 << 6)
    st.build(12)
    assert len(st.EPS) == 13 and len(st.CL) == 12
    assert [e.size for e in st.EPS] == [0] * 11 + [count_words(11),
                                                  count_words(12)]
    assert all(e.dtype == np.int8 for e in st.EPS)
    held = [st.values(m).copy() for m in (11, 12)]
    # the next tier builds CL[12] and drops EPS[11], whose values are the
    # low six bits of CL[12]'s open colon files
    st.build(13)
    assert st.EPS[11].size == 0 and len(st.CL) == 13
    assert np.array_equal(st.values(11), held[0])
    assert np.array_equal(st.values(12), held[1])
    assert np.array_equal(st.values(11, 100, 200), held[0][100:200])
    assert st.values(11, 200, 10 ** 6).size == count_words(11) - 200
    for m in (-1, 14):
        with pytest.raises(ValueError):
            st.values(m)


# sha256 of the bytes of the values of length m (once EPS[m]) and of CL[m]
# in the (2, C[m]) int8 layout
# it had before one table per length held both loony bits, for m = 0..26:
# 0..24 as the rank sweep computed them before it was rewritten for
# cache-sized chunks, 25 and 26 as the chunked rank sweep computed them
# before blocks sharing a prefix replaced it.  At a chunk size of 2^16
# a block's prefix has m - 22 files from length 23 on, so tiers 25 and 26
# have three and four
_EPS_SHA256 = [
    "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",  # 0
    "9dcf97a184f32623d11a73124ceb99a5709b083721e878a16d78f596718ba7b2",  # 1
    "709e80c88487a2411e1ee4dfb9f22a861492d20c4765150c0c794abd70f8147c",  # 2
    "15f2f1a4339f5f2a313b95015cad8124d054a171ac2f31cf529dda7cfb6a38b4",  # 3
    "0003ec75d5643ed9f3471144c15ecb8bee04d1895fcec6a95a9c57fb2b7056eb",  # 4
    "cb1bdedd35a2803cea30dca532501a7c1a055e540a57f8f5a50cfd500367afe6",  # 5
    "79a6fb977943fa8c6d171824e4406619142e980a38b275189dfd1218e7107f1e",  # 6
    "b32128907603944bcda3251f62aa297af2859b6d3af5cdd496f02a7563b339eb",  # 7
    "2fbdc267003301f9073df6052942b688c0ae1a6d677ab72f727ccd81e0926e7d",  # 8
    "b26a3a23becac36d6dee2ee8c27a67e55867c3637d5914b3ffcf7abcb37ef201",  # 9
    "17a7aed491065fb6b8956c1be48d1ddc68941b7d3c184942a7b4b4816c6dac8d",  # 10
    "9059d41120757d8e1a0221b8857448334cf8bba3bf89d4bcc8e7e87eeccb5096",  # 11
    "b78ccdd2df08efc531bb6ecbf813add1652b272a825e05cd6abf0f645466a2ac",  # 12
    "1274e4612c8f2a2187584e2b2761ff4130abd219bf8079d4ab7f17258392c110",  # 13
    "50e240bbf2bd40813e5359cb08f23af7729f9ed5df8a8cfd8d4d008d256a8252",  # 14
    "8e1057b7c92bc04865e12f68c874f5055d23681686e22f01cac5d0bada398312",  # 15
    "3d4f26184662f66a92c3d4b953acb6df355c3c2e41dea95df22693152fdd6e82",  # 16
    "e2345921ef9659c7d7d0d9a5dd89a1a5d55a39c3c2698f4e97a5dd6f291f390f",  # 17
    "96f8de90d17163879b6f031b1164848415e2ff5ffb7d498238d3af275128e7b6",  # 18
    "c2367534a6b725e46c21807bfe48ebe38e41dd80ffd99cdcdbb12bed14068cd2",  # 19
    "453d05772a2441e5068e76f1274e2ac8cfbe84cce012a43489d1c83afc6d4465",  # 20
    "4850e41ef21989964ab399c53f6b25705b937a1537bce926be9ac38012a4b401",  # 21
    "6f7343bd4f7dcc01ebc35811afbc360a0c7755f7e34afba87770332c1d9c4402",  # 22
    "dbc575cf21e2e364e41fc0e565e7fb2ba8781ec264b80e5d240a361c23014dcc",  # 23
    "db9e84e0c23e492fd997fcd532c1bb6f620c364a936548378c576664e544744a",  # 24
    "bcfd4e48176288166a8d78108ab4ad174abddc1c55c66a09a0ac0228c9b322ac",  # 25
    "4a5b913144b0cb205e249d56a4bd91641376d48840a28c8b9cf7be7580d465d3",  # 26
]
_CL_SHA256 = [
    "ca2fd00fa001190744c15c317643ab092e7048ce086a243e2be9437c898de1bb",  # 0
    "ad95131bc0b799c0b1af477fb14fcf26a6a9f76079e48bf090acb7e8367bfd0e",  # 1
    "bae65ea676e54baac3e23a1998babbcad5298ab64a754821d319552ebf86b30a",  # 2
    "ddf20d98f09f8f63342599ae0d73c69a0e02e01ce9fd89cd3857b6be8f7e33c9",  # 3
    "c4219a32e795034e137161012f97d5538791affba868dc63b32beb725bb1f88c",  # 4
    "fe69529ba65349cb1ce49a94b9db48f213e08017e02752c5995ed6076872186b",  # 5
    "8afeeb29a93a35b37eceb385471db516cd2a8343c962da899ddc65b0009d09e3",  # 6
    "0da2f3d57d6d88d841200fc6ac76d7e51bdaebb5c159e669bfdba29f64496df8",  # 7
    "c1fbf812920f2acf2f379e69306e7d9123a7b27e8560a5a72cd12efee9455353",  # 8
    "70d4f9839305d3c6a9117976fb54f11ce889f9eecee2e67ab8268d4e245d5db9",  # 9
    "a822a432127919e9faaa84f612281bebddc47483b8408d0387b2619f12973e01",  # 10
    "e31890f0dea001afa117860bd5860284bd5ff4b649be4840b30082da501fe666",  # 11
    "47dd8229a122e872e97935b4157e07547435e667a14412c94082d82dee12c9a2",  # 12
    "5085e91913ba7fafeff456cc0b5339ac75fe8e68546dc9f144bf693d3af62550",  # 13
    "5e164f677049dcf09a3df988c2ae7621b911e52cee83ee65595ac9decd6ae376",  # 14
    "ed820db765d33d4c1bea9e72da42a42b46859ce213db971024d303b26cc4be70",  # 15
    "34afb09a37807339e06ed28656eefdc643e3820fec5a62c827159fee118fd795",  # 16
    "e8b4dfa84270da1bb2e0c0f4b7870b55333df3a614dc19141967333cf664d397",  # 17
    "58ba6ea613283ca90fcf104f4a212ca1a0c973a8e01110a6891f0d354a23f77e",  # 18
    "ddaf880d44e5de7f75ff6cca9ccfe63c1ad78d7a534391a92867f2744b8deeb1",  # 19
    "dbfe753dc951bc2286683feb3b5267a4e5a538bf7cc7504014d47a9c5bb163c8",  # 20
    "279ab32a67aa5afb7eebf4354cb2857cd62c28e265aeeac5665d463ef67e642b",  # 21
    "ff52ee34275c4a29606088f8f811867406d0badffeff67ce6450b5372c6a8a90",  # 22
    "7a1825a5cd8076df48758aa5aab1135be424b660c5e738b026041ee8344d15f3",  # 23
    "c6d768c9f7b2b0d5128a45952135dbe226b2446abf9528e010825d6c446908b0",  # 24
    "62dcb12742d00bc8ec0a70f90202c1132e8a15e1ecbae37517e2a0f2c3fbcf23",  # 25
    "59ac45117993e4d66c4e4d1b5a286a1d2ef941cb4c325be91fd625bdbc0de396",  # 26
]


def _old_colon_layout(cl, n):
    """CL[m] as the (2, C[m]) int8 array of colon classes, indexed by the
    stopped colon file flag and the tail rank: -1 for loony, and -1 for
    the stopped colon files whose tail starts with a stopped file"""
    old = np.full(2 * n, -1, dtype=np.int8)
    old[:cl.size] = np.where(cl & 128, np.int8(-1), cl.view(np.int8))
    return old.reshape(2, n)


# the default chunk, and 1000 ranks, which divides no tier size, with
# threads: a change to the sweep must reproduce every tier exactly
@pytest.mark.parametrize("chunk_size, workers", [(1 << 16, 1), (1000, 2)])
def test_scan_tables_pinned(chunk_size, workers):
    st = ScanTables(chunk_size=chunk_size, workers=workers)
    # one tier further, which builds the last pinned colon tier
    st.build(len(_EPS_SHA256))
    for m in range(len(_EPS_SHA256)):
        values = st.values(m)
        assert values.dtype == np.int8 and st.CL[m].dtype == np.uint8
        assert st.CL[m].shape == (count_words(m + 1),)
        assert (hashlib.sha256(values.tobytes()).hexdigest()
                == _EPS_SHA256[m]), m
        old = _old_colon_layout(st.CL[m], count_words(m))
        assert hashlib.sha256(old.tobytes()).hexdigest() == _CL_SHA256[m], m


def test_scan_colon_table_matches_definition():
    # CL[m][rank u] for a colon word u of m + 1 files: bits 0-5 hold the
    # value of u[2:], loony or not, and bit 6 is set when bit 7 (loony)
    # is and u[1] is open
    st = ScanTables(chunk_size=1 << 6)
    st.build(15)  # builds CL[14]
    values = [st.values(m) for m in range(15)]
    for m in range(15):
        for r, byte in enumerate(st.CL[m].tolist()):
            u = st.unrank(m + 1, r)
            piece = u[2:]
            assert byte & 63 == values[len(piece)][st.rank(piece)], str(u)
            open_neighbour = len(u) > 1 and u[1] == 0
            assert bool(byte & 64) == bool(byte & 128 and open_neighbour), \
                str(u)
            assert byte & 128 or byte < 64, str(u)


def test_workers_must_be_positive():
    for workers in (0, -1):
        with pytest.raises(ValueError):
            ScanTables(workers=workers)


def test_chunk_size_must_be_positive():
    for chunk_size in (0, -5):
        with pytest.raises(ValueError):
            ScanTables(chunk_size=chunk_size)


def test_rank_steps_fit_in_int32():
    # the kernel's rank steps are int32: every rank of the longest scan
    # length fits, and the next length's would not
    assert (count_words(MAX_SCAN_LENGTH) < 2 ** 31
            <= count_words(MAX_SCAN_LENGTH + 1))
    with pytest.raises(ValueError):
        ScanTables().build(MAX_SCAN_LENGTH + 1)


def test_unrank_refuses_ranks_outside_the_length(tables):
    assert str(tables.unrank(3, 4)) == "101"
    for m, rank in ((3, 100), (3, 5), (3, -1), (0, 1), (-1, 0)):
        with pytest.raises(ValueError):
            tables.unrank(m, rank)


def test_rank_refuses_invalid_words(tables):
    # 011 would otherwise rank as 100, and 11 past the end of length 2
    for word in ("011", "11"):
        with pytest.raises(ValueError, match="invalid word"):
            tables.rank(Word(word))


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


def test_first_occurrence_does_not_depend_on_chunk_size():
    # a tier is searched chunk by chunk, and the witnesses of *6..*9 sit
    # past the first chunk of 2^6 and of 2^10 words
    default = first_occurrence(12, 22, ScanTables())
    assert default.lengths[9] == 22
    for chunk_size in (1 << 6, 1 << 10):
        found = first_occurrence(12, 22, ScanTables(chunk_size=chunk_size))
        assert found == default, chunk_size


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
    assert max(result.values) == 1
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
