import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from grf_tomo import NoiseModel, modulation_field, noise, variance_field
from conftest import DELTA_S, EPS, N_VIEWS


class TestModulationField:
    def test_hand_values(self):
        assert_allclose(modulation_field(0.0, 0.0, 0.0), 0.6, rtol=1e-15)
        assert_allclose(modulation_field(np.pi / 4, 0.0, 0.0), 0.9, rtol=1e-12)

    def test_range_bounds(self):
        rng = np.random.default_rng(0)
        s = rng.uniform(0, 2 * np.pi, 10000)
        u = rng.uniform(-50, 50, 10000)
        v = rng.uniform(-50, 50, 10000)
        h = modulation_field(s, u, v)
        assert np.all(h >= 0.12 - 1e-12)
        assert np.all(h <= 3.36 + 1e-12)

    def test_variance_field(self):
        assert_allclose(variance_field(0.0, 0.0, 0.0), 0.12, rtol=1e-14)
        rng = np.random.default_rng(1)
        vals = variance_field(rng.uniform(0, 7, 100), rng.normal(size=100),
                              rng.normal(size=100))
        assert np.all(vals >= 0)


class TestModelValidation:
    def test_rejects_bad_parameters(self):
        # n_views counts the views of one turn, so only a whole number >= 1
        # closes it; a fractional seed would silently draw its floor's noise,
        # an infinite step makes every draw nan, and True would count as 1
        for eps, n_views, seed, name in [
                (0.0, 500, 1, "eps"), (np.inf, 500, 1, "eps"), (np.nan, 500, 1, "eps"),
                (True, 500, 1, "eps"), (np.True_, 500, 1, "eps"),
                (0.05, 0, 1, "n_views"), (0.05, -1, 1, "n_views"), (0.05, 2.5, 1, "n_views"),
                (0.05, True, 1, "n_views"),
                (0.05, 500, -2, "seed"), (0.05, 500, 2**64, "seed"), (0.05, 500, 1.7, "seed"),
                (0.05, 500, True, "seed")]:
            with pytest.raises(ValueError, match=name):
                NoiseModel(eps=eps, n_views=n_views, seed=seed)

    def test_index_errors(self, noise_model):
        with pytest.raises(IndexError):
            noise_model.sample(0, noise_model.n_views, 0, 0)
        with pytest.raises(IndexError):
            noise_model.sample(0, -1, 0, 0)
        with pytest.raises(IndexError):
            noise_model.sample(-1, 0, 0, 0)

    def test_scale(self, noise_model):
        assert_allclose(noise_model.scale, EPS**2 / np.sqrt(DELTA_S), rtol=1e-15)


class TestDeterminism:
    def test_repeat_calls_identical(self, noise_model):
        a = noise_model.sample(3, 17, -12, 40)
        b = noise_model.sample(3, 17, -12, 40)
        assert a == b

    def test_scalar_matches_vector_path(self, noise_model):
        j = np.array([0, 5, 17, 499])
        k1 = np.array([-3, 0, 11, -200])
        k2 = np.array([7, -7, 0, 3])
        batch = noise_model.sample(2, j, k1, k2)
        singles = [noise_model.sample(2, *idx) for idx in zip(j, k1, k2)]
        assert np.array_equal(batch, np.array(singles))

    def test_independent_of_call_order(self, noise_model):
        forward = [noise_model.sample(0, j, j - 3, 2 * j) for j in range(10)]
        backward = [noise_model.sample(0, j, j - 3, 2 * j) for j in reversed(range(10))]
        assert forward == backward[::-1]

    def test_seed_changes_draws(self):
        a = NoiseModel(eps=EPS, n_views=N_VIEWS, seed=1).sample(0, 0, 0, 0)
        b = NoiseModel(eps=EPS, n_views=N_VIEWS, seed=2).sample(0, 0, 0, 0)
        assert a != b


def splitmix64_finalizer(word):
    """The SplitMix64 finalizer on one Python int, as published."""
    mask = 2**64 - 1
    word ^= word >> 30
    word = word * 0xBF58476D1CE4E5B9 & mask
    word ^= word >> 27
    word = word * 0x94D049BB133111EB & mask
    return word ^ word >> 31


class TestUniformFromKeys:
    def keys(self, shape):
        rng = np.random.default_rng(3)
        site, stream = (rng.integers(0, 2**64, size=shape, dtype=np.uint64) for _ in range(2))
        site.flat[:4] = [0, 2**64 - 1, 2**63, 2**53]
        return site, stream

    def test_mix_is_the_splitmix64_finalizer(self):
        words = self.keys((2, 8))[0].ravel()
        assert noise._mix(words).tolist() == [splitmix64_finalizer(int(w)) for w in words]

    def test_full_shape_keys_match_unsplit_mix(self):
        # uniform_from_keys applies the finalizer's first xor-shift to each
        # operand and converts through an int64 view.  On keys of the
        # output's full shape (no broadcast operand) and on broadcast ones
        # alike, that must equal the whole finalizer on site ^ stream with
        # numpy's uint64 to float64 conversion, bit for bit
        shape = (64, 96)
        site, stream = self.keys(shape)
        for a, b in ((site, stream), (site[:, :1], stream[:1])):
            expected = (noise._mix(a ^ b) >> np.uint64(11)).astype(np.float64) * 2.0**-52 - 1.0
            out = noise.uniform_from_keys(a, b)
            assert out.tobytes() == expected.tobytes()


def _unshift(word, shift):
    """Inverse of ``word ^ (word >> shift)`` on 64-bit words."""
    out = word
    for k in range(1, 64 // shift + 1):
        out ^= word >> (k * shift)
    return out


def _unmix_rest(word):
    """The input on which :func:`noise._mix_rest` returns ``word``."""
    for factor, shift in ((int(noise._MUL2), 31), (int(noise._MUL1), 27)):
        word = _unshift(word, shift) * pow(factor, -1, 2**64) % 2**64
    return word


# hash words whose top 53 bits u lie at the ends of the draw range and either
# side of its midpoint 2^52, where u - 2^52 changes sign
_EDGE_TOPS = [0, 2**52 - 1, 2**52, 2**53 - 1]


@settings(max_examples=200, deadline=None)
@given(words=st.lists(st.one_of(st.integers(0, 2**64 - 1),
                                st.builds(lambda top, low: top << 11 | low,
                                          st.sampled_from(_EDGE_TOPS), st.integers(0, 2**11 - 1))),
                      min_size=1, max_size=16),
       amps=st.lists(st.floats(1e-12, 1e3), min_size=1, max_size=4))
def test_folded_conversion_matches_uniform_times_amplitude(words, amps):
    # scaled_draws_into converts float(u - 2^52) * (amp * 2^-52) in one
    # multiply; it must equal uniform_from_keys's u * 2^-52 - 1, times amp, bit
    # for bit, and both the unfolded conversion.  With a stream key of 0, the
    # keys below hash to ``words``
    rounded = np.array([_unmix_rest(w) for w in words], dtype=np.uint64)[:, None]
    keys = np.array([_unshift(int(r), 30) for r in rounded[:, 0]], dtype=np.uint64)[:, None]
    assert noise._mix(keys)[:, 0].tolist() == words
    stream = np.zeros(1, dtype=np.uint64)
    amp = np.array(amps)
    shape = (len(words), amp.size)
    unfolded = ((np.array(words, dtype=np.uint64) >> np.uint64(11)).astype(np.float64)
                * 2.0**-52 - 1.0)[:, None] * amp
    uniform = noise.uniform_from_keys(keys, stream)
    got = noise.scaled_draws_into(rounded, stream, amp * 2.0**-52,
                                  np.empty(shape, np.uint64), np.empty(shape))
    assert got.tobytes() == (uniform * amp).tobytes() == unfolded.tobytes()


class TestMoments:
    N = 10**6

    def draws(self, noise_model):
        return noise_model.uniform(np.arange(self.N), 100, 7, -4)

    def test_uniform_bounds_and_moments(self, noise_model):
        nu = self.draws(noise_model)
        assert np.all(np.abs(nu) <= 1.0)
        # mean 0 within 3 standard errors of a uniform's mean estimate
        assert abs(np.mean(nu)) < 3.0 / np.sqrt(3.0 * self.N)
        assert abs(np.var(nu) / (1.0 / 3.0) - 1.0) < 0.01
        assert abs(np.mean(np.abs(nu) ** 3) / 0.25 - 1.0) < 0.01

    def test_hashed_uniform_exact_moments(self):
        # 2000 sites x 2000 streams through scaled_draws_into, as the reconstruction
        # hashes them; a draw scale of 1.01 moves E[nu^2] by about 45 standard
        # errors, and no science gate sees it
        nu = noise.uniform_from_keys(noise.site_keys(np.arange(2000)[:, None], 3, -4),
                                     noise.stream_keys(5, np.arange(2000)))
        # uniform on [-1, 1): E[nu^2k] = 1/(2k+1), so Var(nu^p) follows exactly
        for power, mean, variance in ((1, 0.0, 1 / 3), (2, 1 / 3, 1 / 5 - 1 / 9),
                                      (4, 1 / 5, 1 / 9 - 1 / 25)):
            z = (np.mean(nu**power) - mean) / np.sqrt(variance / nu.size)
            assert abs(z) < 6.0, (power, z)

    def test_sample_amplitude_bound(self, noise_model):
        j, k1, k2 = 100, 7, -4
        vals = noise_model.sample(np.arange(1000), j, k1, k2)
        bound = noise_model.scale * modulation_field(j * DELTA_S, EPS * k1, EPS * k2)
        assert np.all(np.abs(vals) <= bound)

    def test_sample_variance_matches_field(self, noise_model):
        j, k1, k2 = 100, 7, -4
        vals = noise_model.sample(np.arange(self.N), j, k1, k2)
        s, u, v = j * DELTA_S, EPS * k1, EPS * k2
        expected = noise_model.scale**2 * variance_field(s, u, v)
        assert abs(np.var(vals) / expected - 1.0) < 0.01

    def test_distinct_sites_uncorrelated(self, noise_model):
        n = 10**5
        r = np.arange(n)
        base = noise_model.uniform(r, 10, 3, 5)
        for j, k1, k2 in [(10, 3, 6), (10, 4, 5), (11, 3, 5), (499, -50, 120)]:
            other = noise_model.uniform(r, j, k1, k2)
            corr = np.corrcoef(base, other)[0, 1]
            assert abs(corr) < 3.0 / np.sqrt(n)

    def test_sample_is_amplitude_times_uniform(self, noise_model):
        r, j, k1, k2 = np.arange(50)[:, None], np.arange(0, 500, 10), 7, np.arange(-25, 25)
        expected = noise_model.amplitude(j, k1, k2) * noise_model.uniform(r, j, k1, k2)
        assert noise_model.sample(r, j, k1, k2).tobytes() == expected.tobytes()
        assert noise_model.sample(3, 17, -12, 40) == (noise_model.amplitude(17, -12, 40)
                                                      * noise_model.uniform(3, 17, -12, 40))

    def test_custom_modulation(self, monkeypatch):
        model = NoiseModel(eps=EPS, n_views=N_VIEWS, seed=9)
        base = model.sample(5, 3, 1, 2)
        monkeypatch.setattr(noise, "modulation_field",
                            lambda s, u, v: 2.0 * modulation_field(s, u, v))
        assert_allclose(model.sample(5, 3, 1, 2), 2.0 * base, rtol=1e-15)
