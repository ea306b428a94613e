"""Property-based tests: workload generators and trace transforms."""

from hypothesis import given, settings, strategies as st

from repro.workloads.base import TraceEvent, merge_event_streams
from repro.workloads.trace import randomize_placement, scale_time
from repro.workloads.uniform import UniformRandomWorkload


events_strategy = st.lists(
    st.builds(
        TraceEvent,
        time_ns=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        src=st.integers(0, 7),
        dst=st.integers(8, 15),
        size_bytes=st.integers(1, 10_000),
    ),
    max_size=50,
)


class TestMergeStreams:
    @given(st.lists(st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        max_size=20), max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_merge_of_sorted_streams_is_sorted(self, time_lists):
        streams = []
        for i, times in enumerate(time_lists):
            streams.append(iter(sorted(
                TraceEvent(t, i, i + 10, 64) for t in times)))
        merged = list(merge_event_streams(streams))
        assert [e.time_ns for e in merged] == \
            sorted(e.time_ns for e in merged)
        assert len(merged) == sum(len(t) for t in time_lists)

    @given(st.lists(st.lists(st.builds(
        TraceEvent,
        # Few distinct values, so exact ties on time_ns, and on every
        # field, are common.
        time_ns=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        src=st.integers(0, 2),
        dst=st.integers(3, 4),
        size_bytes=st.integers(1, 2),
    ), max_size=12), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_merge_is_the_trace_event_sort(self, event_lists):
        streams = [sorted(events) for events in event_lists]
        merged = list(merge_event_streams(iter(s) for s in streams))
        # sorted() is stable, so equal events keep stream order: compare
        # identities, not just values.
        want = sorted(e for stream in streams for e in stream)
        assert [id(e) for e in merged] == [id(e) for e in want]


class TestTransformsProperties:
    @given(events_strategy, st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_randomize_placement_preserves_multiset_of_sizes(
            self, events, seed):
        remapped = randomize_placement(events, num_hosts=16, seed=seed)
        assert sorted(e.size_bytes for e in remapped) == \
            sorted(e.size_bytes for e in events)
        assert all(0 <= e.src < 16 and 0 <= e.dst < 16 for e in remapped)
        assert all(e.src != e.dst for e in remapped)

    @given(events_strategy,
           st.floats(min_value=0.1, max_value=100.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_scale_time_divides_times(self, events, factor):
        scaled = scale_time(events, factor)
        originals = sorted(e.time_ns for e in events)
        news = sorted(e.time_ns for e in scaled)
        for orig, new in zip(originals, news):
            assert new == __import__("pytest").approx(orig / factor)


class TestUniformProperties:
    @given(st.integers(2, 24), st.floats(min_value=0.05, max_value=0.9),
           st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_stream_always_valid(self, hosts, load, seed):
        wl = UniformRandomWorkload(hosts, offered_load=load, seed=seed)
        events = list(wl.events(100_000.0))
        assert all(e.src != e.dst for e in events)
        assert all(0 <= e.src < hosts and 0 <= e.dst < hosts
                   for e in events)
        times = [e.time_ns for e in events]
        assert times == sorted(times)
