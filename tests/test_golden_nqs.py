"""`qscissors nqs` output against its golden files, cell by cell.

The files under tests/golden/nqs/ are rewritten by tests/golden_nqs.py,
which prints the largest change each rewrite makes.
"""

import pytest

from golden_nqs import CASES, FORMATS, REL_TOL, largest_change, path, run


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", CASES)
def test_nqs_output_matches_golden_file(name, fmt):
    want = path(name, fmt).read_bytes().decode()
    assert largest_change(want, run(name, fmt), fmt) <= REL_TOL


def test_comparison_sees_text_and_numbers():
    want = run("no_kicks", "csv")
    header, row = want.split("\r\n")[:2]
    assert largest_change(want, want, "csv") == 0.0
    moved = want.replace(row, row.replace(",1,", ",1.0000000000002,", 1))
    assert 1e-13 < largest_change(want, moved, "csv") < 1e-12
    with pytest.raises(AssertionError):
        largest_change(want, want.replace(header, header.replace("purity", "purty")), "csv")
    want = run("no_kicks", "json")
    with pytest.raises(AssertionError):
        largest_change(want, want.replace('"nqs"', '"lqs"'), "json")
    assert largest_change(want, want.replace('"epsilon": 0.1', '"epsilon": 0.3'), "json") > 0.1
