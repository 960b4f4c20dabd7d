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

from dataclasses import dataclass

import numpy as np

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MUL1 = _U64(0xBF58476D1CE4E5B9)
_MUL2 = _U64(0x94D049BB133111EB)
_TAG_SITE = _U64(0x53497445A1B2C3D4)
_TAG_STREAM = _U64(0x5374526541226788)


def _first_round(h):
    """The finalizer's first xor-shift, ``h ^ (h >> 30)``, in a fresh array.

    It is linear over xor: ``_first_round(a ^ b) == _first_round(a) ^
    _first_round(b)``.
    """
    return np.asarray(h ^ (h >> _U64(30)))


def _mix_rest(h, scratch):
    """SplitMix64 finalizer after its first xor-shift, in place on ``h``.

    ``scratch`` is a uint64 array of ``h``'s shape that is overwritten.
    """
    # uint64 arithmetic wraps by design
    with np.errstate(over="ignore"):
        for factor, shift in ((_MUL1, 27), (_MUL2, 31)):
            np.multiply(h, factor, out=h)
            np.right_shift(h, _U64(shift), out=scratch)
            np.bitwise_xor(h, scratch, out=h)
    return h


def _mix(h):
    """SplitMix64 finalizer of the uint64 array ``h``, in a fresh array.

    A well-avalanched bijection on 64-bit words.
    """
    h = _first_round(h)
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
    h = _absorb(np.broadcast_to(_TAG_STREAM, np.shape(realization)).copy()
                if np.ndim(realization) else _TAG_STREAM, _U64(seed))
    return _absorb(h, _to_u64(realization))


def uniform_into(site, stream, bits, out):
    """Write the uniforms of the keys ``site ^ stream`` into ``out``; return ``out``.

    ``site`` and ``stream`` broadcast to the float64 array ``out``; ``bits``
    is a uint64 array of that shape that is overwritten.  The finalizer's
    first xor-shift is linear over xor, so it is applied to each operand
    before they are combined; that allocates one array of each operand's
    shape, and nothing of ``out``'s shape, so a caller can hash a large
    table in fixed-size blocks of broadcast (site, stream) operands.
    """
    np.bitwise_xor(_first_round(site), _first_round(stream), out=bits)
    _mix_rest(bits, out.view(_U64))
    np.right_shift(bits, _U64(11), out=bits)
    # below 2^53 the int64 view converts exactly, and faster than uint64
    np.multiply(bits.view(np.int64), 2.0**-52, out=out)
    return np.subtract(out, 1.0, out=out)


def uniform_from_keys(site, stream):
    """Map hashed keys to uniforms on ``[-1, 1)``; broadcasts its arguments.

    Uses the top 53 bits of the combined hash, so the draws take 2^53
    equispaced values and reproduce bit-for-bit everywhere.
    """
    shape = np.broadcast_shapes(np.shape(site), np.shape(stream))
    out = np.empty(shape)
    return uniform_into(site, stream, np.empty(shape, _U64), out)[()]


def modulation_field(s, u, v):
    """Smooth strictly positive amplitude modulation over the data domain."""
    return (1.0 + 0.5 * np.sin(2.0 * np.asarray(s, dtype=float))) \
        * (1.0 - 0.4 * np.cos(u)) * (1.0 + 0.6 * np.sin(v))


def variance_field(s, u, v):
    """Per-sample variance shape ``modulation^2 / 3``."""
    return modulation_field(s, u, v) ** 2 / 3.0


@dataclass(frozen=True)
class NoiseModel:
    """Deterministic structured noise on the ``(view, detector)`` grid.

    The per-sample standard deviation is ``scale * h / sqrt(3)``, with ``h``
    the :func:`modulation_field`.

    Parameters
    ----------
    eps : float
        Detector sampling step (same along both detector axes).
    delta_s : float
        Angular step between views; ``n_views = 2*pi / delta_s`` views cover
        one turn.
    seed : int
        64-bit unsigned master seed.
    """

    eps: float
    delta_s: float
    seed: int

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError(f"eps must be > 0, got {self.eps}")
        if not self.delta_s > 0:
            raise ValueError(f"delta_s must be > 0, got {self.delta_s}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")

    @property
    def n_views(self):
        return int(round(2.0 * np.pi / self.delta_s))

    @property
    def scale(self):
        """Amplitude ``eps^2 / sqrt(delta_s)`` multiplying every draw."""
        return self.eps**2 / np.sqrt(self.delta_s)

    def _check_indices(self, realization, j):
        realization = np.asarray(realization)
        j = np.asarray(j)
        if np.any(realization < 0):
            raise IndexError("realization index must be >= 0")
        if np.any((j < 0) | (j >= self.n_views)):
            raise IndexError(
                f"view index out of grid: expected 0 <= j < {self.n_views}"
            )

    def uniform(self, realization, j, k1, k2):
        """Raw uniform draw ``nu`` on ``[-1, 1)`` for the given indices."""
        self._check_indices(realization, j)
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
