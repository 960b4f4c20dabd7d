"""Structured detector noise with stateless, index-keyed random draws.

Each datum ``(realization, view j, detector cell (k1, k2))`` gets an
independent uniform draw on ``[-1, 1)`` produced by hashing the index tuple
together with the master seed.  There is no generator state: identical inputs
give identical outputs regardless of call order, thread, or which other draws
were requested.  This makes it possible to materialize only the draws inside
kernel footprints while keeping results independent of the evaluation-point
set and of parallel scheduling.

A draw is scaled to ``(eps^2 / sqrt(delta_s)) * h(s_j, eps*k1, eps*k2) * nu``,
where ``h`` is a smooth strictly positive modulation field, so a single datum
has variance ``(eps^4 / delta_s) * sigma2`` with ``sigma2 = h^2 / 3``
(``nu`` is uniform on ``[-1, 1]``, variance ``1/3``).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MUL1 = _U64(0xBF58476D1CE4E5B9)
_MUL2 = _U64(0x94D049BB133111EB)
_TAG_SITE = _U64(0x53497445A1B2C3D4)
_TAG_STREAM = _U64(0x5374526541226788)


def first_round(h):
    """The finalizer's first xor-shift, ``h ^ (h >> 30)``, in a fresh array.

    It is linear over xor: ``first_round(a ^ b) == first_round(a) ^
    first_round(b)``.
    """
    return np.asarray(h ^ (h >> _U64(30)))


def _mix_rest(h, scratch):
    """SplitMix64 finalizer after its first xor-shift, in place on ``h``.

    ``scratch`` is a uint64 array of ``h``'s shape that is overwritten.
    """
    # uint64 products wrap by design; ufuncs on arrays, 0-d ones included,
    # never check integer overflow, so no errstate is needed here
    for factor, shift in ((_MUL1, 27), (_MUL2, 31)):
        np.multiply(h, factor, out=h)
        np.right_shift(h, _U64(shift), out=scratch)
        np.bitwise_xor(h, scratch, out=h)
    return h


def _mix(h):
    """SplitMix64 finalizer of the uint64 array ``h``, in a fresh array.

    A well-avalanched bijection on 64-bit words.
    """
    h = first_round(h)
    return _mix_rest(h, np.empty_like(h))


def _absorb(h, word):
    """Fold one 64-bit word into the running hash."""
    with np.errstate(over="ignore"):
        return _mix((h + _GOLDEN) ^ word)[()]


def _to_u64(values):
    return np.asarray(values, dtype=np.int64).astype(np.uint64)


def site_keys(j, k1, k2):
    """Hash per data site ``(view, detector row, detector column)``.

    All arguments broadcast; negative detector indices are allowed and hash
    via their two's-complement representation.
    """
    h = _absorb(np.broadcast_to(_TAG_SITE, np.broadcast_shapes(
        np.shape(j), np.shape(k1), np.shape(k2))).copy(), _to_u64(j))
    h = _absorb(h, _to_u64(k1))
    return _absorb(h, _to_u64(k2))


def stream_keys(seed, realization):
    """Hash per ``(seed, realization)`` pair."""
    h = _absorb(np.broadcast_to(_TAG_STREAM, np.shape(realization)).copy(), _U64(seed))
    return _absorb(h, _to_u64(realization))


def scaled_draws_into(site_round, stream_round, scale, bits, out):
    """Write ``scale * (u - 2^52)`` into ``out`` and return ``out``.

    ``u`` is the top 53 bits of the finalizer of ``site ^ stream``, whose
    keys arrive after :func:`first_round`: that xor-shift is linear over
    xor, so each operand is rounded once, before they are combined.
    ``site_round``, ``stream_round`` and ``scale`` broadcast to the float64
    array ``out``; ``bits`` is a uint64 array of its shape that is
    overwritten.  ``u - 2^52`` converts to float64 exactly, so with
    ``scale = amp * 2^-52`` the result equals ``(u * 2^-52 - 1) * amp`` bit
    for bit: both scalings by 2^-52 are exact while ``amp * 2^-52`` stays
    normal, that is for ``|amp| >= 2^-970`` (about 1e-292).
    """
    np.bitwise_xor(site_round, stream_round, out=bits)
    _mix_rest(bits, out.view(_U64))
    np.right_shift(bits, _U64(11), out=bits)
    ints = bits.view(np.int64)
    np.subtract(ints, 2**52, out=ints)
    # below 2^53 the int64 view converts exactly, and faster than uint64.
    # A plain cast and then a float multiply beat one int64-by-float64
    # multiply, whose buffered cast is slow against a broadcast scale
    out[...] = ints
    return np.multiply(out, scale, out=out)


def uniform_from_keys(site, stream):
    """Map hashed keys to uniforms on ``[-1, 1)``; broadcasts its arguments.

    Uses the top 53 bits of the combined hash, so the draws take 2^53
    equispaced values and reproduce bit-for-bit everywhere.
    """
    shape = np.broadcast_shapes(np.shape(site), np.shape(stream))
    return scaled_draws_into(first_round(site), first_round(stream), 2.0**-52,
                             np.empty(shape, _U64), np.empty(shape))[()]


def modulation_field(s, u, v):
    """Smooth strictly positive amplitude modulation over the data domain."""
    return (1.0 + 0.5 * np.sin(2.0 * np.asarray(s, dtype=float))) \
        * (1.0 - 0.4 * np.cos(u)) * (1.0 + 0.6 * np.sin(v))


def variance_field(s, u, v):
    """Per-sample variance shape ``modulation^2 / 3``."""
    return modulation_field(s, u, v) ** 2 / 3.0


def _is_integer(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class NoiseModel:
    """Deterministic structured noise on the ``(view, detector)`` grid.

    The per-sample standard deviation is ``scale * h / sqrt(3)``, with ``h``
    the :func:`modulation_field`.

    Parameters
    ----------
    eps : float
        Detector sampling step (same along both detector axes).
    n_views : int
        Views per turn of the source circle; the angular step between views
        is ``delta_s = 2*pi / n_views``.
    seed : int
        64-bit unsigned master seed.
    """

    eps: float
    n_views: int
    seed: int

    def __post_init__(self):
        if isinstance(self.eps, (bool, np.bool_)) or not 0 < self.eps < np.inf:
            raise ValueError(f"eps must be a finite number > 0, got {self.eps!r}")
        if not (_is_integer(self.n_views) and self.n_views >= 1):
            raise ValueError(f"n_views must be an integer >= 1, got {self.n_views!r}")
        if not (_is_integer(self.seed) and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")

    @property
    def delta_s(self):
        """Angular step ``2*pi / n_views`` between views, the quadrature weight."""
        return 2.0 * np.pi / self.n_views

    @property
    def scale(self):
        """Amplitude ``eps^2 / sqrt(delta_s)`` multiplying every draw."""
        return self.eps**2 / np.sqrt(self.delta_s)

    def uniform(self, realization, j, k1, k2):
        """Raw uniform draw ``nu`` on ``[-1, 1)`` for the given indices."""
        if np.any(np.asarray(realization) < 0):
            raise IndexError("realization index must be >= 0")
        j = np.asarray(j)
        if np.any((j < 0) | (j >= self.n_views)):
            raise IndexError(f"view index out of grid: expected 0 <= j < {self.n_views}")
        out = uniform_from_keys(site_keys(j, k1, k2),
                                stream_keys(self.seed, realization))
        return out if np.ndim(out) else float(out)

    def amplitude(self, j, k1, k2):
        """Amplitude ``scale * h(s_j, eps*k1, eps*k2)`` of a site's draws; broadcasts."""
        return self.scale * modulation_field(np.asarray(j, dtype=float) * self.delta_s,
                                             self.eps * np.asarray(k1, dtype=float),
                                             self.eps * np.asarray(k2, dtype=float))

    def sample(self, realization, j, k1, k2):
        """Noise value ``amplitude(j, k1, k2) * nu``.

        Broadcasts over all index arguments.  Raises :class:`IndexError`
        when ``realization < 0`` or ``j`` is outside ``[0, n_views)``.
        """
        nu = self.uniform(realization, j, k1, k2)
        out = self.amplitude(j, k1, k2) * nu
        return out if np.ndim(out) else float(out)
