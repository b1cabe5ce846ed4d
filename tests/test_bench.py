"""The space-time tradeoff benchmark's own cost."""

from stegdisc.bench import run_benchmark
from stegdisc.document import FileEntry


def test_bench_parses_catalog_lines_linearly(monkeypatch):
    # the read loops take their counters from the disc, not from stats(),
    # which parses every catalog line on each call
    parse = FileEntry.parse
    calls = 0

    def counted(line):
        nonlocal calls
        calls += 1
        return parse(line)

    monkeypatch.setattr(FileEntry, "parse", staticmethod(counted))
    count = 300
    rows = run_benchmark(block_counts=(count,), modes=("A",), n=7, p=16, m=32)
    assert [row.blocks for row in rows] == [count]
    assert 0 < calls <= 4 * count
