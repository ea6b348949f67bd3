from hypothesis import given, strategies as st

from waysample.stats import ccdf_points


def sorted_scan_ccdf(counts):
    """ccdf_points as it was when it scanned a sorted copy of the counts:
    the oracle for the one that walks a tally of them."""
    values = sorted(counts)
    total = len(values)
    if total == 0:
        return []
    points = []
    n_ge = total
    i = 0
    for x in sorted(set(values)):
        while i < total and values[i] < x:
            i += 1
            n_ge -= 1
        points.append((x, 100.0 * n_ge / total))
    return points


# few distinct values, so ties are common; now and then one far out in the tail
COUNTS = st.lists(st.integers(0, 12) | st.integers(0, 10**9), max_size=300)


@given(COUNTS, st.sampled_from([list, iter, lambda c: dict(enumerate(c)).values()]))
def test_ccdf_points_match_the_sorted_scan(counts, as_input):
    assert ccdf_points(as_input(counts)) == sorted_scan_ccdf(counts)
