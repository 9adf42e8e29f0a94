import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convsum.errors import ContractError
from convsum.providers import StubProvider
from convsum.windowing import (
    WindowingConfig,
    coverage_counts,
    encode_long,
    merge_windows,
    split_windows,
)


class TestSplit:
    def test_overlapping_spans(self):
        assert split_windows(6, WindowingConfig(4, 2)) == [(0, 4), (2, 6)]

    def test_single_window_when_it_fits(self):
        assert split_windows(4, WindowingConfig(4, 2)) == [(0, 4)]
        assert split_windows(3, WindowingConfig(4, 2)) == [(0, 3)]

    def test_short_final_remainder(self):
        assert split_windows(7, WindowingConfig(4, 2)) == [(0, 4), (2, 6), (4, 7)]

    def test_every_position_covered(self, rng):
        for _ in range(30):
            w = int(rng.integers(1, 12))
            s = int(rng.integers(1, w + 1))
            length = int(rng.integers(1, 50))
            spans = split_windows(length, WindowingConfig(w, s))
            assert (coverage_counts(spans, length) >= 1).all()
            assert spans[-1][1] == length and spans[0][0] == 0

    def test_interior_coverage_is_two_at_half_stride(self):
        # stride = window/2: all but the first and last `stride` positions see 2 windows
        w, s, length = 8, 4, 40
        spans = split_windows(length, WindowingConfig(w, s))
        counts = coverage_counts(spans, length)
        last_start = spans[-1][0]
        for t in range(length):
            if s <= t < last_start + (w - s):
                assert counts[t] == 2
        assert counts[0] == 1 and counts[-1] == 1

    def test_invalid_stride(self):
        with pytest.raises(ContractError):
            WindowingConfig(4, 5)
        with pytest.raises(ContractError):
            WindowingConfig(4, 0)


class TestMerge:
    def test_coverage_counts_and_overlap_mean(self, rng):
        spans = split_windows(6, WindowingConfig(4, 2))
        assert list(coverage_counts(spans, 6)) == [1, 1, 2, 2, 1, 1]
        m0 = rng.normal(size=(4, 3))
        m1 = rng.normal(size=(4, 3))
        out = merge_windows([m0, m1], spans, 6)
        assert np.array_equal(out[0], m0[0])
        assert np.allclose(out[2], (m0[2] + m1[0]) / 2)
        assert np.allclose(out[3], (m0[3] + m1[1]) / 2)
        assert np.array_equal(out[5], m1[3])

    def test_single_window_identity(self, rng):
        m = rng.normal(size=(5, 2))
        assert np.array_equal(merge_windows([m], [(0, 5)], 5), m)

    def test_constant_windows_merge_to_constant(self):
        c = np.array([1.5, -2.0])
        spans = split_windows(6, WindowingConfig(4, 2))
        mats = [np.tile(c, (e - s, 1)) for s, e in spans]
        assert np.allclose(merge_windows(mats, spans, 6), np.tile(c, (6, 1)))

    def test_row_count_mismatch_rejected(self, rng):
        with pytest.raises(ContractError):
            merge_windows([rng.normal(size=(3, 2))], [(0, 4)], 4)

    def test_permutation_equivariant(self, rng):
        spans = split_windows(10, WindowingConfig(4, 2))
        mats = [rng.normal(size=(e - s, 3)) for s, e in spans]
        a = merge_windows(mats, spans, 10)
        order = rng.permutation(len(spans))
        b = merge_windows([mats[i] for i in order], [spans[i] for i in order], 10)
        assert np.abs(a - b).max() < 1e-12


class TestEncodeLong:
    def test_short_input_bit_equals_direct_call(self, rng):
        prov = StubProvider(vocab_size=30, width=5, max_window=8, seed=3)
        ids = rng.integers(0, 30, size=6)
        got = encode_long(ids, prov, WindowingConfig(8, 4))
        assert np.array_equal(got, prov.context_embed(ids))

    def test_context_free_stub_equals_direct_lookup(self, rng):
        w = 4
        prov = StubProvider(vocab_size=30, width=5, max_window=w, seed=3, context_free=True)
        cfg = WindowingConfig(w, 2)
        for length in range(1, 5 * w + 1):
            ids = rng.integers(0, 30, size=length)
            got = encode_long(ids, prov, cfg)
            assert np.array_equal(got, prov.token_table[ids])

    def test_context_mixing_stub_matches_hand_composed_reference(self, rng):
        prov = StubProvider(vocab_size=30, width=5, max_window=4, seed=3)
        ids = rng.integers(0, 30, size=6)
        got = encode_long(ids, prov, WindowingConfig(4, 2))
        # hand-composed: embed [0:4] and [2:6], average rows 2..3
        a = prov.context_embed(ids[0:4])
        b = prov.context_embed(ids[2:6])
        want = np.zeros((6, 5))
        want[0:2] = a[0:2]
        want[2] = (a[2] + b[0]) / 2
        want[3] = (a[3] + b[1]) / 2
        want[4:6] = b[2:4]
        assert np.abs(got - want).max() < 1e-12

    def test_provider_window_too_small_rejected(self):
        prov = StubProvider(vocab_size=10, width=4, max_window=4, seed=0)
        with pytest.raises(ContractError):
            encode_long(np.arange(10) % 10, prov, WindowingConfig(8, 4))

    def test_output_shape(self, rng):
        prov = StubProvider(vocab_size=30, width=7, max_window=4, seed=1)
        ids = rng.integers(0, 30, size=13)
        assert encode_long(ids, prov, WindowingConfig(4, 2)).shape == (13, 7)


class TestStubProvider:
    def test_deterministic(self, rng):
        ids = rng.integers(0, 20, size=6)
        a = StubProvider(20, 4, 8, seed=5).context_embed(ids)
        b = StubProvider(20, 4, 8, seed=5).context_embed(ids)
        assert np.array_equal(a, b)

    def test_window_limit_enforced(self):
        prov = StubProvider(10, 4, max_window=4)
        with pytest.raises(ContractError):
            prov.context_embed(np.zeros(5, dtype=np.int64))

    def test_context_mixing_depends_on_neighbors(self):
        prov = StubProvider(10, 4, 8, seed=2)
        a = prov.context_embed(np.array([1, 2, 3]))
        b = prov.context_embed(np.array([1, 2, 4]))
        assert not np.allclose(a[1], b[1])  # neighbor changed
        assert not np.allclose(a[2], b[2])  # own token changed


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.data())
def test_context_free_stub_windowed_equals_direct_lookup(window, data):
    stride = data.draw(st.integers(1, window))
    length = data.draw(st.integers(1, 6 * window))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    prov = StubProvider(vocab_size=30, width=5, max_window=window, seed=3, context_free=True)
    ids = rng.integers(0, 30, size=length)
    cfg = WindowingConfig(window, stride)
    got, want = encode_long(ids, prov, cfg), prov.token_table[ids]
    if coverage_counts(split_windows(length, cfg), length).max() <= 2:
        assert np.array_equal(got, want)
    else:  # the mean of k >= 3 equal rows may round off by an ulp
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
