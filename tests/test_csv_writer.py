"""The column writer against the row-at-a-time reference writer, byte for byte."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import sparse_isac as si
from reference import write_csv_rows
from sparse_isac import cli
from sparse_isac.cli import _write_csv

EDGE_FLOATS = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e-300, 1e300, -1e300, 1.0 / 3.0]

floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
# printable ASCII but the comma and the double quote: no artifact cell
# holds a character that csv.writer quotes, and the writer refuses one
texts = st.text(st.sampled_from([chr(c) for c in range(32, 127) if chr(c) not in ',"']), max_size=8)
cells = st.one_of(
    floats,
    floats.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(-(10**30), 10**30),
    texts,
)


@st.composite
def tables(draw):
    """(header, columns): 2-4 equally long columns, each a float ndarray, an
    int64 ndarray or a list of mixed cells.  Every artifact has two or more
    columns; only a one-column row can be a lone empty field, which
    csv.writer alone would quote."""
    n_rows = draw(st.integers(0, 12))
    column = st.one_of(
        hnp.arrays(np.float64, n_rows, elements=floats),
        hnp.arrays(np.int64, n_rows),
        st.lists(cells, min_size=n_rows, max_size=n_rows),
    )
    columns = draw(st.lists(column, min_size=2, max_size=4))
    header = draw(st.lists(texts, min_size=len(columns), max_size=len(columns)))
    return header, columns


@settings(max_examples=300, deadline=None)
@given(table=tables(), comment=st.one_of(st.none(), st.sampled_from(["", "snr_definition=x"])))
def test_column_writer_matches_row_reference(tmp_path_factory, table, comment):
    header, columns = table
    tmp = tmp_path_factory.mktemp("csv")
    _write_csv(tmp / "got.csv", header, columns, comment)
    write_csv_rows(tmp / "want.csv", header, zip(*columns), comment)
    assert (tmp / "got.csv").read_bytes() == (tmp / "want.csv").read_bytes()


@pytest.mark.parametrize("comment", [None, "snr_definition=per_active_re"])
def test_edge_cells_match_row_reference(tmp_path, comment):
    int64s = [0, -1, 2**63 - 1, -(2**63), 7, 3, -5, 1, 2, 10]
    columns = [
        np.array(EDGE_FLOATS),
        EDGE_FLOATS,
        [np.float64(x) for x in EDGE_FLOATS],
        np.array(int64s),
        [np.int64(x) for x in int64s],
        [10**30, *int64s[1:]],
        ["a;b", "say 'x'", "two\tlines", "cr", "", " ", "plain", "-0", "nan", "1e+300"],
    ]
    header = [f"c{i}" for i in range(len(columns))]
    _write_csv(tmp_path / "got.csv", header, columns, comment)
    write_csv_rows(tmp_path / "want.csv", header, zip(*columns), comment)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("cell", [",", '"', "\n", "\r", 'a "b", c\r\nd'])
@pytest.mark.parametrize("in_header", [False, True])
def test_str_cells_that_csv_writer_would_quote_are_refused(tmp_path, cell, in_header):
    header, labels = ([cell, "x"], ["a", "plain"]) if in_header else (["label", "x"], [cell, "plain"])
    with pytest.raises(ValueError, match=f"^CSV cell {re.escape(repr(cell))} holds "):
        _write_csv(tmp_path / "bad.csv", header, [labels, [1.5, 2]], "snr_definition=x")
    assert not (tmp_path / "bad.csv").exists()


def test_columns_of_unequal_length_are_refused(tmp_path):
    with pytest.raises(ValueError):
        _write_csv(tmp_path / "bad.csv", ["a", "b"], [np.zeros(3), [1, 2]])


def test_desk_ambiguity_matches_row_reference(tmp_path):
    """The full desk-default surface (401 delays x 101 Dopplers), written
    from the tiled and repeated axes as rows."""
    params = si.OfdmParams(
        n_subcarriers=256, n_symbols=32, subcarrier_spacing_hz=120e3, carrier_freq_hz=24e9
    )
    alloc = si.make_allocation(params, "random", n_active=64, seed=5)
    got = tmp_path / "got"
    got.mkdir()
    artifacts = cli._exp_ambiguity(alloc, params)
    assert list(artifacts) == ["ambiguity.csv", "ambiguity_delay_cut.csv"]
    for name, table in artifacts.items():
        _write_csv(got / name, *table)

    delay_bin = 1.0 / (params.n_subcarriers * params.subcarrier_spacing_hz)
    doppler_bin = 1.0 / (params.n_symbols * params.symbol_dur_s)
    delays = np.linspace(-16.0, 16.0, 401) * delay_bin
    dopplers = np.linspace(-4.0, 4.0, 101) * doppler_bin
    surf = si.ambiguity_function(alloc, params, delays, dopplers)
    cells = (
        np.tile(delays, 101), np.repeat(dopplers, 401), surf.direct.ravel(), surf.virtual.ravel()
    )
    write_csv_rows(
        tmp_path / "ambiguity.csv",
        ["delay_s", "doppler_hz", "direct_magnitude", "virtual_magnitude"],
        zip(*(c.tolist() for c in cells)),
    )
    cut = (delays, surf.direct_delay_cut(), surf.virtual_delay_cut())
    write_csv_rows(
        tmp_path / "ambiguity_delay_cut.csv",
        ["delay_s", "direct_magnitude", "virtual_magnitude"],
        zip(*(c.tolist() for c in cut)),
    )
    for name in ("ambiguity.csv", "ambiguity_delay_cut.csv"):
        assert (got / name).read_bytes() == (tmp_path / name).read_bytes()
    assert (got / "ambiguity.csv").read_bytes().count(b"\r\n") == 1 + 401 * 101
