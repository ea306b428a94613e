"""Property-based tests: topology invariants (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.topology.flattened_butterfly import FlattenedButterfly
from repro.topology.folded_clos import FoldedClos
from repro.topology.mesh_torus import LinkClass, link_class_counts

small_k = st.integers(min_value=2, max_value=6)
small_n = st.integers(min_value=1, max_value=4)
small_c = st.integers(min_value=1, max_value=8)


@st.composite
def fbfly(draw):
    return FlattenedButterfly(k=draw(small_k), n=draw(small_n),
                              c=draw(small_c))


class TestFbflyProperties:
    @given(fbfly())
    @settings(max_examples=40, deadline=None)
    def test_coordinate_roundtrip(self, topo):
        for s in range(topo.num_switches):
            assert topo.switch_index(topo.coordinate(s)) == s

    @given(fbfly())
    @settings(max_examples=40, deadline=None)
    def test_host_counts(self, topo):
        assert topo.num_hosts == topo.c * topo.k ** (topo.n - 1)

    @given(fbfly())
    @settings(max_examples=40, deadline=None)
    def test_port_formula(self, topo):
        assert topo.ports_per_switch == \
            topo.c + (topo.k - 1) * (topo.n - 1)

    @given(fbfly(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_minimal_hops_symmetric(self, topo, data):
        a = data.draw(st.integers(0, topo.num_switches - 1))
        b = data.draw(st.integers(0, topo.num_switches - 1))
        assert topo.minimal_hops(a, b) == topo.minimal_hops(b, a)

    @given(fbfly(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_rook_moves_reach_destination(self, topo, data):
        a = data.draw(st.integers(0, topo.num_switches - 1))
        b = data.draw(st.integers(0, topo.num_switches - 1))
        current = a
        for dim in topo.differing_dimensions(a, b):
            current = topo.peer_in_dimension(
                current, dim, topo.coordinate(b)[dim])
        assert current == b

    @given(fbfly())
    @settings(max_examples=40, deadline=None)
    def test_links_counted_consistently(self, topo):
        links = list(topo.inter_switch_links())
        assert len(links) == topo.num_inter_switch_links
        # Degree check: every switch appears in (k-1)(n-1) links.
        degree = {s: 0 for s in range(topo.num_switches)}
        for link in links:
            degree[link.src] += 1
            degree[link.dst] += 1
        expected = (topo.k - 1) * topo.dimensions
        assert all(d == expected for d in degree.values())

    @given(fbfly())
    @settings(max_examples=40, deadline=None)
    def test_parts_add_up(self, topo):
        parts = topo.part_counts()
        inter_switch = parts.total_links - topo.num_hosts
        assert inter_switch == topo.num_inter_switch_links

    @given(fbfly())
    @settings(max_examples=40, deadline=None)
    def test_bisection_non_negative_and_bounded(self, topo):
        bisection = topo.bisection_bandwidth_gbps(40.0)
        assert 0 <= bisection <= topo.num_hosts * 40.0 / 2


class TestMeshTorusProperties:
    @given(st.integers(2, 6), st.integers(2, 4))
    @settings(max_examples=30, deadline=None)
    def test_class_counts_partition_links(self, k, n):
        topo = FlattenedButterfly(k=k, n=n)
        counts = link_class_counts(topo)
        assert sum(counts.values()) == topo.num_inter_switch_links

    @given(st.integers(3, 6), st.integers(2, 4))
    @settings(max_examples=30, deadline=None)
    def test_one_wrap_per_ring(self, k, n):
        topo = FlattenedButterfly(k=k, n=n)
        counts = link_class_counts(topo)
        rings = topo.num_switches * topo.dimensions // topo.k
        assert counts[LinkClass.TORUS_WRAP] == rings


class TestClosProperties:
    @given(st.integers(min_value=1, max_value=200_000))
    @settings(max_examples=60, deadline=None)
    def test_chassis_capacity_sufficient(self, hosts):
        clos = FoldedClos(hosts)
        assert clos.stage2_chassis * 162 >= hosts
        assert clos.stage3_chassis * 324 >= hosts

    @given(st.integers(min_value=1, max_value=200_000))
    @settings(max_examples=60, deadline=None)
    def test_powered_at_most_total(self, hosts):
        clos = FoldedClos(hosts)
        assert 0 < clos.powered_chips <= clos.total_chips

    @given(st.integers(min_value=648, max_value=200_000))
    @settings(max_examples=60, deadline=None)
    def test_clos_never_cheaper_than_fbfly_rule_of_thumb(self, hosts):
        # The paper's headline structural claim: at equal bisection the
        # Clos needs about twice the chips of an FBFLY; at minimum it
        # always needs more chips per host than N/8.
        clos = FoldedClos(hosts)
        assert clos.powered_chips >= hosts / 8
