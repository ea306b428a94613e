"""Keyed draws: the shared reseeded stream is a fresh ``Random(key)``."""

import random

from hypothesis import given, settings, strategies as st

from repro.keyed import keyed_draw, keyed_stream

#: What a caller may take from a keyed stream.
DRAWS = ("random", "gauss", "getrandbits", "randint")


def take(rng: random.Random, draw: str):
    if draw == "random":
        return rng.random()
    if draw == "gauss":
        # gauss() caches its second value: reseeding must drop it.
        return rng.gauss(0.0, 1.0)
    if draw == "getrandbits":
        return rng.getrandbits(64)
    return rng.randint(0, 1_000_000)


class TestKeyedDraws:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(
        st.text(max_size=40),
        st.lists(st.sampled_from(DRAWS), max_size=4)), max_size=12))
    def test_interleaved_draws_equal_fresh_generators(self, steps):
        # Each step reseeds for one key, then takes its draws; an empty
        # draw list is a keyed_draw().  Keys repeat and interleave.
        for key, draws in steps:
            fresh = random.Random(key)
            if not draws:
                assert keyed_draw(key) == fresh.random()
                continue
            stream = keyed_stream(key)
            for draw in draws:
                assert take(stream, draw) == take(fresh, draw)

    def test_empty_and_non_ascii_keys(self):
        for key in ("", "ctl:1:dropout:sw1|sw2:7", "é", "λ:ß:漢字", "\x00",
                    "🙂" * 9):
            assert keyed_draw(key) == random.Random(key).random()
            a, b = keyed_stream(key).random(), keyed_stream(key).random()
            assert a == b == random.Random(key).random()

    def test_a_draw_does_not_disturb_the_global_stream(self):
        random.seed(5)
        expected = random.random()
        random.seed(5)
        keyed_draw("anything")
        keyed_stream("else").random()
        assert random.random() == expected
