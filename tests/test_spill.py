from operator import add
from unittest import mock

from hypothesis import given, strategies as st

from waysample import spill
from waysample.spill import SpillSort

CHARS = "ab\x00\x01\x02\u00e9\U0001f600"
FIELDS = st.tuples(st.text(CHARS, max_size=2), st.text(CHARS, max_size=2))


class TestSpillSort:
    @given(st.lists(st.tuples(st.text(CHARS, max_size=4).map(lambda key: (key,)),
                              st.integers(0, 99))),
           st.sampled_from([4, 1 << 20]))
    def test_lines_sort_as_their_fields(self, items, budget):
        with mock.patch.object(spill, "RUN_BYTES", budget), \
                mock.patch.object(spill, "FAN_IN", 2), SpillSort() as lines:
            for key, n in items:
                lines.add(key, n)
            got = list(lines.items())
            assert list(lines.items()) == got  # read again
        # one line per key, the least, whether it met its repeats in a run
        # or, every line a run of its own, in the merges
        assert got == sorted({key: min(n for k, n in items if k == key)
                              for key, _ in items}.items())

    @given(st.lists(st.tuples(FIELDS, st.integers(0, 99))), st.sampled_from([4, 1 << 20]),
           st.integers(0, 120))
    def test_each_fold_reads_back_by_key_and_by_number(self, items, budget, least):
        for fold in (min, add):
            with mock.patch.object(spill, "RUN_BYTES", budget), \
                    mock.patch.object(spill, "FAN_IN", 2), SpillSort(fold=fold) as lines:
                for key, n in items:
                    lines.add(key, n)
                folded = {}
                for key, n in items:
                    folded[key] = fold(folded[key], n) if key in folded else n
                want = sorted(folded.items())
                assert list(lines.items()) == want
                assert list(lines.numbers()) == [n for _, n in want]
                assert list(lines.items(least)) == [(k, n) for k, n in want if n >= least]

    @given(st.lists(st.tuples(FIELDS, st.integers(0, 99))), st.lists(st.integers(0, 40)),
           st.sampled_from([4, 1 << 20]))
    def test_parts_exported_and_taken_read_as_one_sort(self, items, cuts, budget):
        # the items cut into parts, each exported to a file that one sort
        # takes, beside the items of the last part, which it adds itself
        import tempfile

        bounds = [0, *sorted(min(cut, len(items)) for cut in cuts), len(items)]
        parts = [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        for fold in (min, add):
            with mock.patch.object(spill, "RUN_BYTES", budget), \
                    mock.patch.object(spill, "FAN_IN", 2), SpillSort(fold=fold) as whole, \
                    SpillSort(fold=fold) as taken:
                for part in parts[:-1]:
                    with SpillSort(fold=fold) as sort:
                        for key, n in part:
                            sort.add(key, n)
                        fh = tempfile.TemporaryFile()
                        sort.export(fh)
                    taken.take(fh)
                for key, n in items[bounds[-2]:]:
                    taken.add(key, n)
                for key, n in items:
                    whole.add(key, n)
                assert list(taken.items()) == list(whole.items())

    def test_few_files_are_open_at_once_and_none_after(self, monkeypatch):
        import tempfile
        opened = []

        def temporary_file(**kwargs):
            opened.append(real(**kwargs))
            return opened[-1]

        real = tempfile.TemporaryFile
        monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)
        most_open = 0
        with mock.patch.object(spill, "RUN_BYTES", 1), \
                mock.patch.object(spill, "FAN_IN", 4), SpillSort() as lines:
            for i in reversed(range(1000)):
                lines.add(("%04d" % i,), 0)
                most_open = max(most_open, sum(not fh.closed for fh in opened))
            assert list(lines.items()) == [(("%04d" % i,), 0) for i in range(1000)]
        # 1,000 runs, 250 + 62 + 15 + 3 merges and the last; at most 3 open per level
        assert len(opened) == 1000 + 250 + 62 + 15 + 3 + 1
        assert most_open <= 3 * 5 + 1
        assert all(fh.closed for fh in opened)
