import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recrange import (
    CapExhaustedError,
    DomainError,
    InsufficientRecordsError,
    RecordSummary,
    datasets,
    extract_upper_records,
    record_range_sequence,
    sample_records_direct,
    sample_records_stream,
    truncate,
)

# printed record values/times of the first bundled series
SAMPLE_A_RECORDS = (
    0.06274109,
    4.38197283,
    5.64659541,
    7.26620864,
    9.41371352,
    9.51953091,
)
SAMPLE_A_RANGES = ("4.319232", "5.583854", "7.203468", "9.350972", "9.456790")


class TestRecordSummary:
    def test_basic_fields(self):
        s = RecordSummary(values=(1.0, 2.5, 4.0), times=(1, 3, 9))
        assert s.n == 3
        assert s.range == 3.0
        assert not s.times_synthetic

    def test_single_record_has_no_range(self):
        s = RecordSummary(values=(2.0,), times=(1,))
        assert s.n == 1
        with pytest.raises(InsufficientRecordsError):
            s.range

    def test_rejects_decreasing_values(self):
        with pytest.raises(DomainError):
            RecordSummary(values=(3.0, 1.0), times=(1, 2))

    def test_rejects_bad_times(self):
        with pytest.raises(DomainError):
            RecordSummary(values=(1.0, 2.0), times=(2, 3))  # must start at 1
        with pytest.raises(DomainError):
            RecordSummary(values=(1.0, 2.0), times=(1, 1))

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(DomainError):
            RecordSummary(values=(), times=())
        with pytest.raises(DomainError):
            RecordSummary(values=(1.0, math.nan), times=(1, 2))

    def test_ties_allowed(self):
        s = RecordSummary(values=(2.0, 2.0), times=(1, 4))
        assert s.range == 0.0


class TestExtract:
    def test_bundled_series(self):
        s = extract_upper_records(datasets.SAMPLE_A)
        assert s.values == SAMPLE_A_RECORDS
        assert s.times[0] == 1
        assert s.n == 6

    def test_monotone_sequence(self):
        s = extract_upper_records([1, 2, 3, 4])
        assert s.values == (1.0, 2.0, 3.0, 4.0)
        assert s.times == (1, 2, 3, 4)

    def test_decreasing_sequence(self):
        s = extract_upper_records([5, 4, 3])
        assert s.values == (5.0,)
        assert s.times == (1,)

    def test_tie_counts_as_record(self):
        # ">=" semantics: a repeat of the current maximum is a new record
        s = extract_upper_records([2.0, 2.0, 1.0])
        assert s.values == (2.0, 2.0)
        assert s.times == (1, 2)

    def test_record_time_definition(self):
        # times[k] is the first index after times[k-1] with value >= the
        # previous record
        data = [3.0, 1.0, 3.0, 2.0, 5.0]
        s = extract_upper_records(data)
        assert s.times == (1, 3, 5)
        assert s.values == (3.0, 3.0, 5.0)

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            extract_upper_records([])

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            extract_upper_records([1.0, math.inf, 2.0])

    def test_single_value_is_a_single_record(self):
        s = extract_upper_records([-3.5])
        assert (s.values, s.times) == ((-3.5,), (1,))

    def test_all_ties_are_all_records(self):
        s = extract_upper_records([0.5] * 5)
        assert s.values == (0.5,) * 5
        assert s.times == (1, 2, 3, 4, 5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("j", [1, 2, 4])
    def test_names_the_first_nonfinite_observation(self, j, bad):
        data = [1.0, 0.5, 2.0, 3.0]
        data[j - 1] = bad
        data.append(math.nan)  # a later bad value is not the one named
        with pytest.raises(DomainError, match=rf"^observation {j} is not finite"):
            extract_upper_records(data)

    @pytest.fixture(scope="class")
    def long_series(self):
        # a +-0.01 random walk rounded to 2 decimals: it revisits its running
        # maximum often, so the 2e5 values hold many tied records
        steps = np.random.default_rng(5).integers(-1, 2, size=200_000)
        return np.round(np.cumsum(steps) / 100.0, 2)

    def test_long_series_matches_numpy_oracle(self, long_series):
        x = long_series
        # x_j is a record iff it is >= every earlier value
        is_record = np.r_[True, x[1:] >= np.maximum.accumulate(x)[:-1]]
        want_times = np.flatnonzero(is_record) + 1
        for data in (x.tolist(), x):  # a list or an ndarray
            s = extract_upper_records(data)
            assert s.times == tuple(want_times.tolist())
            assert s.values == tuple(x[is_record].tolist())
        assert np.count_nonzero(np.diff(s.values) == 0.0) > 100  # ties occur

    def test_long_series_names_the_bad_observation(self, long_series):
        data = long_series.tolist()
        data[150_000] = math.nan
        with pytest.raises(DomainError, match=r"observation 150001 "):
            extract_upper_records(data)

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=200)
    def test_times_minimal(self, data):
        s = extract_upper_records(data)
        assert s.times[0] == 1
        for k in range(1, s.n):
            lo, hi = s.times[k - 1], s.times[k]
            # nothing strictly between consecutive record times reaches the bar
            assert all(data[j - 1] < s.values[k - 1] for j in range(lo + 1, hi))
            assert data[hi - 1] >= s.values[k - 1]


class TestRangeSequence:
    def test_bundled_series_printed_values(self):
        s = extract_upper_records(datasets.SAMPLE_A)
        got = record_range_sequence(s)
        assert tuple(f"{r:.6f}" for r in got) == SAMPLE_A_RANGES

    def test_tied_pair(self):
        s = RecordSummary(values=(3.0, 3.0), times=(1, 2))
        assert record_range_sequence(s) == (0.0,)

    def test_second_series_first_gap(self):
        s = extract_upper_records(datasets.SAMPLE_B)
        got = record_range_sequence(s)
        assert math.isclose(got[0], 2.081551 - 0.067773, rel_tol=1e-12)
        assert f"{got[0]:.6f}" == "2.013778"

    def test_needs_two_records(self):
        s = RecordSummary(values=(1.0,), times=(1,))
        with pytest.raises(InsufficientRecordsError):
            record_range_sequence(s)


class TestTruncate:
    def test_keeps_prefix(self):
        s = extract_upper_records(datasets.SAMPLE_A)
        t = truncate(s, 2)
        assert t.values == SAMPLE_A_RECORDS[:2]
        assert t.n == 2

    def test_rejects_overlong(self):
        s = extract_upper_records(datasets.SAMPLE_A)
        with pytest.raises(InsufficientRecordsError):
            truncate(s, 7)


class TestDirectSampler:
    def test_seeded_determinism(self):
        a = sample_records_direct(2.0, 5, seed=42)
        b = sample_records_direct(2.0, 5, seed=42)
        assert a.values == b.values
        assert a.times == b.times

    def test_marks_synthetic_times(self):
        s = sample_records_direct(1.0, 3, seed=0)
        assert s.times_synthetic
        assert s.times == (1, 2, 3)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sample_records_direct(0.0, 4, seed=1)
        with pytest.raises(DomainError):
            sample_records_direct(-1.0, 4, seed=1)
        with pytest.raises(DomainError):
            sample_records_direct(1.0, 1, seed=1)

    def test_range_moments(self):
        # range ~ Gamma(n-1, delta): mean (n-1)d, variance (n-1)d^2
        delta, n, reps = 2.0, 5, 20_000
        rng = np.random.default_rng(7)
        ranges = np.array(
            [sample_records_direct(delta, n, rng).range for _ in range(reps)]
        )
        mean_se = math.sqrt((n - 1) * delta * delta / reps)
        assert abs(ranges.mean() - (n - 1) * delta) < 3.5 * mean_se
        # SE of the sample variance of a Gamma via its fourth central moment
        shape = n - 1
        mu4 = (3.0 * shape * shape + 6.0 * shape) * delta**4
        var_se = math.sqrt((mu4 - (shape * delta * delta) ** 2) / reps)
        assert abs(ranges.var() - shape * delta * delta) < 3.5 * var_se

    def test_exponential_range_distribution(self):
        # n=2: the range is a single Exp(1) draw
        reps = 100_000
        rng = np.random.default_rng(5)
        vals = np.sort(
            [sample_records_direct(1.0, 2, rng).range for _ in range(reps)]
        )
        empirical = np.arange(1, reps + 1) / reps
        ks = np.max(np.abs(empirical - (1.0 - np.exp(-vals))))
        assert ks < 0.01

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_extraction_idempotent(self, seed):
        s = sample_records_direct(1.7, 6, seed=seed)
        again = extract_upper_records(s.values)
        assert again.values == s.values


class TestStreamSampler:
    def test_seeded_determinism(self):
        a = sample_records_stream(1.0, 4, seed=9, cap=100_000)
        b = sample_records_stream(1.0, 4, seed=9, cap=100_000)
        assert a.values == b.values
        assert a.times == b.times

    def test_real_times(self):
        s = sample_records_stream(1.0, 3, seed=3, cap=100_000)
        assert not s.times_synthetic
        assert s.times[0] == 1
        assert all(t2 > t1 for t1, t2 in zip(s.times, s.times[1:]))

    def test_cap_below_n_exhausts(self):
        with pytest.raises(CapExhaustedError):
            sample_records_stream(1.0, 6, seed=1, cap=5)

    def test_partial_summary_attached(self):
        try:
            sample_records_stream(1.0, 6, seed=1, cap=5)
        except CapExhaustedError as err:
            assert err.partial is not None
            assert err.partial.n < 6
            assert err.draws == 5
        else:
            pytest.fail("expected CapExhaustedError")

    def test_values_are_records_of_themselves(self):
        s = sample_records_stream(2.5, 5, seed=11, cap=10**6)
        assert extract_upper_records(s.values).values == s.values

    def test_matches_direct_sampler_moments(self):
        # the two samplers draw from the same range distribution
        delta, n, wanted = 1.0, 3, 10_000
        rng = np.random.default_rng(13)
        stream_ranges = []
        while len(stream_ranges) < wanted:
            try:
                stream_ranges.append(sample_records_stream(delta, n, rng, cap=10**6).range)
            except CapExhaustedError:
                continue  # heavy-tailed waiting times; skip and redraw
        stream_ranges = np.array(stream_ranges)
        direct_ranges = np.array(
            [sample_records_direct(delta, n, rng).range for _ in range(wanted)]
        )
        shape = n - 1
        se_mean = math.sqrt(2.0 * shape * delta * delta / wanted)
        assert abs(stream_ranges.mean() - direct_ranges.mean()) < 3.0 * se_mean
        mu4 = (3.0 * shape * shape + 6.0 * shape) * delta**4
        se_var = math.sqrt(2.0 * (mu4 - (shape * delta**2) ** 2) / wanted)
        assert abs(stream_ranges.var() - direct_ranges.var()) < 3.0 * se_var

    @staticmethod
    def _reference(delta, n, rng, cap):
        # the stream sampler as a loop of its own: 256-value chunks, record
        # rule inlined, stop at the n-th record or after cap draws
        values, times = [], []
        current = -math.inf
        drawn = 0
        while drawn < cap:
            chunk = min(256, cap - drawn)
            xs = -delta * np.log1p(-rng.random(chunk))
            for x in xs:
                drawn += 1
                x = float(x)
                if x >= current:
                    values.append(x)
                    times.append(drawn)
                    current = x
                    if len(values) == n:
                        return RecordSummary(values=tuple(values), times=tuple(times))
        partial = (
            RecordSummary(values=tuple(values), times=tuple(times)) if values else None
        )
        raise CapExhaustedError(
            f"found {len(values)} of {n} records in {drawn} draws",
            partial=partial,
            draws=drawn,
        )

    @staticmethod
    def _outcome(sampler, delta, n, rng, cap):
        try:
            return sampler(delta, n, rng, cap=cap)
        except CapExhaustedError as err:
            return str(err), err.partial, err.draws

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_matches_the_reference_loop(self, n):
        # summaries, cap errors with their partial summary and draw count, and
        # the generator state afterwards, over 300 seeds and caps around the
        # chunk size
        caps = (1, 2, 3, 255, 256, 257, 512, 1000, 5000)
        capped = 0
        for seed in range(300):
            for cap in caps:
                want_rng = np.random.default_rng(seed)
                got_rng = np.random.default_rng(seed)
                want = self._outcome(self._reference, 1.5, n, want_rng, cap)
                got = self._outcome(sample_records_stream, 1.5, n, got_rng, cap)
                assert got == want, (seed, cap)
                assert got_rng.bit_generator.state == want_rng.bit_generator.state
                capped += isinstance(got, tuple)
        assert 0 < capped < 300 * len(caps)  # both outcomes are exercised

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sample_records_stream(-2.0, 4, seed=1)
        with pytest.raises(DomainError):
            sample_records_stream(1.0, 1, seed=1)
        with pytest.raises(DomainError):
            sample_records_stream(1.0, 4, seed=1, cap=0)
