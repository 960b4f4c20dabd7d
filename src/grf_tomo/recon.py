"""Discrete local-tomography reconstruction of noise and its Monte-Carlo statistics.

The reconstruction at a point ``x`` backprojects the second derivative of the
interpolated data along detector rows:

    N(x) = (delta_s / eps^2) * sum_{j,k} d2((u(x,s_j) - eps*k1)/eps)
                                  * value((v(x,s_j) - eps*k2)/eps) * eta_{j,k}.

Only detector cells inside the kernel footprint contribute, so the per-view
work is a small fixed window around the projected point.  Noise values come
from the stateless index-keyed generator in :mod:`grf_tomo.noise`; the sample
produced for a given ``(seed, realization)`` is therefore independent of the
evaluation-point set, the detector-window margins, and the thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import noise as noise_mod
from .kernel import Kernel, _sorted_unique

_INDEX_BIAS = 1 << 20          # detector indices packed as 21-bit biased ints
# Realizations per batch and sites per hashing block.  Neither fixes the
# output bits: each point adds its terms one after another in site order,
# and every batch width >= 2 and every block size keeps that order.  A
# batch works in two _SITE_BLOCK x _BATCH buffers (hash words, which then
# hold one point's gathered draws, and draws), 512 KB apiece, so they stay
# in a 2 MB L2 cache.
_BATCH = 128
_SITE_BLOCK = 512
# sites per chunk when the plan hashes its site keys and amplitudes; each
# chunk's temporaries are the size of one batch buffer
_SITE_CHUNK = _SITE_BLOCK * _BATCH


def _footprint_bounds(coord, support):
    """Integer index window covering ``|coord - k| < support``."""
    lo = np.floor(coord - support).astype(np.int64) + 1
    hi = np.ceil(coord + support).astype(np.int64) - 1
    return lo, hi


def _unpack(pack):
    """View, detector row and detector column indices of packed site words."""
    return (pack >> 42, ((pack >> 21) & (2**21 - 1)) - _INDEX_BIAS,
            (pack & (2**21 - 1)) - _INDEX_BIAS)


class ReconstructionPlan:
    """Precomputed footprints, weights, and noise keys for a set of points.

    Reconstruction values for any realization follow from one pass over the
    plan's site table.  Construction is the only geometry-dependent cost;
    realizations then reduce one fixed table of (point, site, weight) terms
    against hashed noise draws in a fixed order, which makes results bitwise
    reproducible at any thread count.

    Parameters
    ----------
    geometry, kernel, noise_model
        Scan geometry, reconstruction kernel, and noise description.
    points : array_like, shape (L, 3)
        Spatial evaluation points (already in absolute coordinates).
    """

    def __init__(self, geometry, kernel, noise_model, points):
        if not isinstance(kernel, Kernel):
            kernel = Kernel(kernel)
        self.geometry = geometry
        self.kernel = kernel
        self.noise_model = noise_model
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError("points must have shape (L, 3)")

        eps = noise_model.eps
        n_views = noise_model.n_views
        support = kernel.spec.support
        s = np.arange(n_views) * noise_model.delta_s

        # one window per view, wide enough for every point; each point's own
        # footprint within it is masked by ok1 and ok2.  The (L, nv, m1, m2)
        # arrays are the largest the plan makes, so each is deleted as soon as
        # the tables no longer need it
        u, v = geometry.project(self.points[:, None, :], s)      # (L, nv)
        lo1, hi1 = _footprint_bounds(u / eps, support)
        lo2, hi2 = _footprint_bounds(v / eps, support)
        if np.any(np.abs(np.stack([lo1, hi1, lo2, hi2])) >= _INDEX_BIAS):
            raise ValueError("detector index exceeds packing range")
        k1 = lo1[..., None] + np.arange(int(np.max(hi1 - lo1)) + 1)   # (L, nv, m1)
        k2 = lo2[..., None] + np.arange(int(np.max(hi2 - lo2)) + 1)   # (L, nv, m2)
        ok1 = k1 <= hi1[..., None]
        ok2 = k2 <= hi2[..., None]
        w1 = np.where(ok1, kernel.second_derivative(u[..., None] / eps - k1), 0.0)
        w2 = np.where(ok2, kernel.value(v[..., None] / eps - k2), 0.0)
        packed = (np.arange(n_views)[:, None, None] << 42) \
            | ((k1[..., :, None] + _INDEX_BIAS) << 21) | (k2[..., None, :] + _INDEX_BIAS)
        # noise is generated for the whole window, but zero-weight cells
        # never enter the reduction, so the summed term sequence (and
        # every output bit) is independent of window enlargement.  The sites
        # stay packed; site_j, site_k1 and site_k2 decode them on access
        self._site_pack = _sorted_unique(packed[ok1[..., :, None] & ok2[..., None, :]])
        w = w1[..., :, None] * w2[..., None, :]                  # (L, nv, m1, m2)
        del k1, k2, ok1, ok2, w1, w2

        # the plan is one table of (point, site, weight) terms, in C order of
        # w: by point, then by packed site.  The batch kernel hashes the sites
        # in blocks of _SITE_BLOCK; point l's terms in block b are the rows
        # _offsets[l, b]:_offsets[l, b + 1], in the unblocked sum's order
        keep = w != 0.0
        self._term_weight = w[keep]
        del w
        term_pack = packed[keep]
        counts = np.count_nonzero(keep.reshape(len(self.points), -1), axis=1)
        del packed, keep
        self._term_site = np.searchsorted(self._site_pack, term_pack).astype(np.int32)
        del term_pack
        order = np.repeat(np.arange(len(self.points)) * self.n_sites, counts)
        order += self._term_site
        assert np.all(np.diff(order) > 0), "plan terms must follow point and site order"
        # the last bound is n_sites itself, so no block runs into the next point
        bounds = np.append(np.arange(0, self.n_sites, _SITE_BLOCK), self.n_sites)
        self._offsets = np.searchsorted(
            order, np.arange(len(self.points))[:, None] * self.n_sites + bounds)
        del order

        self._site_keys = np.empty(self.n_sites, dtype=np.uint64)
        self._site_amp = np.empty(self.n_sites)
        for lo in range(0, self.n_sites, _SITE_CHUNK):
            chunk = slice(lo, lo + _SITE_CHUNK)
            j, k1, k2 = _unpack(self._site_pack[chunk])
            self._site_keys[chunk] = noise_mod.site_keys(j, k1, k2)
            self._site_amp[chunk] = noise_model.amplitude(j, k1, k2)
        self._prefactor = noise_model.delta_s / eps**2

    @property
    def n_sites(self):
        return self._site_pack.size

    @property
    def site_j(self):
        """View index of each site, in site order."""
        return _unpack(self._site_pack)[0]

    @property
    def site_k1(self):
        """Detector row index of each site, in site order."""
        return _unpack(self._site_pack)[1]

    @property
    def site_k2(self):
        """Detector column index of each site, in site order."""
        return _unpack(self._site_pack)[2]

    def exact_covariance(self):
        """Exact covariance matrix of the reconstructions under the model.

        Sums the squared weighted responses against the per-site noise
        variances, so it carries no Monte-Carlo error; the sample covariance
        over realizations converges to this matrix.
        """
        # point l's terms are the rows _offsets[l, 0]:_offsets[l, -1]
        term_point = np.repeat(np.arange(len(self.points)),
                               self._offsets[:, -1] - self._offsets[:, 0])
        dense = np.zeros((self.n_sites, len(self.points)))
        dense[self._term_site, term_point] = self._term_weight
        site_var = self._site_amp**2 / 3.0
        return self._prefactor**2 * (dense * site_var[:, None]).T @ dense

    def _run_batch(self, realizations):
        if realizations.size == 1:
            # a one-column einsum is a dot product, summed in several partial
            # accumulators; two columns keep the sequential order, and so the
            # bits of any other batch
            return self._run_batch(np.repeat(realizations, 2))[:1]
        streams = noise_mod.stream_keys(self.noise_model.seed, realizations)[None, :]
        width = realizations.size
        bits = np.empty((_SITE_BLOCK + 1, width), dtype=np.uint64)
        eta = np.empty((_SITE_BLOCK, width))
        # once a block's draws are made its hash words are dead, so the same
        # buffer holds one point's draws.  Row 0 carries the point's running
        # sum into each block's einsum with weight 1.0; the sum starts at
        # +0.0, and 1.0 * s == s and 0.0 + t == t unless t is -0.0, so each
        # sum keeps the bits of its terms' sequential sum
        terms = bits.view(np.float64)
        weight = np.empty(_SITE_BLOCK + 1)
        weight[0] = 1.0
        acc = np.zeros((len(self.points), width))
        for block, lo in enumerate(range(0, self.n_sites, _SITE_BLOCK)):
            hi = min(lo + _SITE_BLOCK, self.n_sites)
            block_eta = noise_mod.uniform_into(self._site_keys[lo:hi, None], streams,
                                               bits[:hi - lo], eta[:hi - lo])
            np.multiply(block_eta, self._site_amp[lo:hi, None], out=block_eta)
            for l, (a, b) in enumerate(self._offsets[:, block:block + 2].tolist()):
                if a == b:
                    continue
                # indices are in range by construction; mode="raise" would
                # copy through a temporary of the output's size
                np.take(eta, self._term_site[a:b] - lo, axis=0, out=terms[1:b - a + 1],
                        mode="clip")
                terms[0] = acc[l]
                weight[1:b - a + 1] = self._term_weight[a:b]
                # for each column, einsum adds the weighted rows one after
                # another in row order, rounding each product first
                np.einsum("i,ij->j", weight[:b - a + 1], terms[:b - a + 1], out=acc[l],
                          optimize=False)
        return self._prefactor * acc.T

    def reconstruct(self, realizations, threads=None):
        """Reconstruction values for the given realization indices.

        Parameters
        ----------
        realizations : array_like of int
            Realization indices (each >= 0).
        threads : int, optional
            Worker threads; any value yields identical output.

        Returns
        -------
        ndarray, shape (n_realizations, L)
        """
        realizations = np.atleast_1d(np.asarray(realizations, dtype=np.int64))
        if np.any(realizations < 0):
            raise IndexError("realization index must be >= 0")
        out = np.empty((realizations.size, len(self.points)))
        starts = range(0, realizations.size, _BATCH)

        def work(start):
            stop = min(start + _BATCH, realizations.size)
            out[start:stop] = self._run_batch(realizations[start:stop])

        if threads is not None and threads > 1:
            # imported here: concurrent.futures also loads logging, which
            # single-threaded runs never need
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=threads) as pool:
                list(pool.map(work, starts))
        else:
            for start in starts:
                work(start)
        return out



# ---------------------------------------------------------------------------
# sample statistics
# ---------------------------------------------------------------------------


@dataclass
class SampleStats:
    """Monte-Carlo statistics over realizations at a set of offsets.

    ``samples`` has shape (n_realizations, L); ``covariance`` is the unbiased
    sample covariance.  Moments are accumulated by merging fixed-size chunks
    in realization-index order, so they are reproducible bit-for-bit.
    """

    offsets: np.ndarray
    n_realizations: int
    mean: np.ndarray
    variance: np.ndarray
    covariance: np.ndarray
    samples: np.ndarray


def streaming_moments(samples, chunk=1024):
    """Mean and comoment matrix via ordered pairwise chunk merging."""
    samples = np.asarray(samples, dtype=float)
    n_total, width = samples.shape
    count = 0
    mean = np.zeros(width)
    com = np.zeros((width, width))
    for start in range(0, n_total, chunk):
        block = samples[start:start + chunk]
        nb = block.shape[0]
        mb = np.add.reduce(block, axis=0) / nb
        centered = block - mb
        cb = np.einsum("ni,nj->ij", centered, centered)
        if count == 0:
            count, mean, com = nb, mb, cb
        else:
            delta = mb - mean
            tot = count + nb
            com = com + cb + np.outer(delta, delta) * (count * nb / tot)
            mean = mean + delta * (nb / tot)
            count = tot
    return count, mean, com


def run_experiment(config, threads=None):
    """Monte-Carlo reconstruction statistics for an experiment configuration.

    ``config`` must provide ``geometry``, ``kernel``, ``noise``, ``center``,
    ``offsets``, ``eps`` and ``realizations``.  Returns :class:`SampleStats`;
    output is deterministic given the configuration and seed at any thread
    count.
    """
    if config.realizations < 2:
        raise ValueError("need at least 2 realizations for sample variances")
    points = np.asarray(config.center, dtype=float) \
        + config.eps * np.atleast_2d(np.asarray(config.offsets, dtype=float))
    plan = ReconstructionPlan(config.geometry, config.kernel, config.noise, points)
    samples = plan.reconstruct(np.arange(config.realizations), threads=threads)
    count, mean, com = streaming_moments(samples)
    cov = com / (count - 1)
    return SampleStats(
        offsets=np.atleast_2d(np.asarray(config.offsets, dtype=float)),
        n_realizations=count,
        mean=mean,
        variance=np.diag(cov).copy(),
        covariance=cov,
        samples=samples,
    )


# ---------------------------------------------------------------------------
# histograms and density comparison
# ---------------------------------------------------------------------------


@dataclass
class HistogramDensity:
    """Uniform-bin, density-normalized histogram in one or two dimensions.

    ``edges`` is a tuple of per-axis edge arrays; ``density`` integrates to
    one over the binned range (samples falling outside the range are
    excluded before normalization).
    """

    edges: tuple
    density: np.ndarray

    @property
    def ndim(self):
        return len(self.edges)

    @property
    def centers(self):
        return tuple(0.5 * (e[:-1] + e[1:]) for e in self.edges)


def _default_range(values):
    # mean +/- 4.5 standard deviations keeps essentially all Gaussian mass;
    # clip to the observed extremes so the range never exceeds the data;
    # by Chebyshev's inequality at least 95 % of the samples lie inside it,
    # and 90 % inside both ranges of a pair, so no histogram comes out empty
    mu, sd = float(np.mean(values)), float(np.std(values))
    lo = max(mu - 4.5 * sd, float(np.min(values)))
    hi = min(mu + 4.5 * sd, float(np.max(values)))
    if hi - lo <= 0:
        lo, hi = lo - 0.5, hi + 0.5
    return lo, hi


def histogram_density(samples, bins):
    """Density histogram with uniform bins over a sample (n,) or sample rows (n, d).

    Each axis's bins span its sample mean plus/minus 4.5 standard
    deviations, clipped to the sample extremes.
    """
    samples = np.asarray(samples, dtype=float)
    rows = samples.reshape(-1, 1) if samples.ndim < 2 else samples
    if rows.ndim != 2 or rows.size == 0:
        raise ValueError("need a nonempty sample of shape (n,) or (n, d)")
    if bins < 2:
        raise ValueError("bins must be >= 2")
    counts, edges = np.histogramdd(rows, bins=bins,
                                   range=[_default_range(axis) for axis in rows.T])
    cell = math.prod(e[1] - e[0] for e in edges)
    return HistogramDensity(edges=tuple(edges), density=counts / (counts.sum() * cell))


def histogram_density_2d(samples, bins):
    """2D density histogram over sample pairs of shape (n, 2); see :func:`histogram_density`."""
    if np.shape(samples)[1:] != (2,):
        raise ValueError("need a nonempty (n, 2) sample array")
    return histogram_density(samples, bins)


def gaussian_on_bins(mean, cov, histogram):
    """Normal density evaluated at the bin centers of a histogram.

    ``cov`` must be symmetric positive definite (a positive scalar variance
    in one dimension); raises :class:`ValueError` otherwise.
    """
    if histogram.ndim == 1:
        var = float(np.asarray(cov).reshape(()))
        if var <= 0:
            raise ValueError("variance must be positive")
        c = histogram.centers[0]
        return np.exp(-0.5 * (c - mean) ** 2 / var) / np.sqrt(2.0 * np.pi * var)
    cov = np.asarray(cov, dtype=float).reshape(2, 2)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance must be positive definite") from exc
    cx, cy = histogram.centers
    pts = np.stack(np.meshgrid(cx, cy, indexing="ij"), axis=-1) - np.asarray(mean)
    z = np.linalg.solve(chol, pts.reshape(-1, 2).T)
    quad = np.sum(z**2, axis=0).reshape(len(cx), len(cy))
    det = chol[0, 0] * chol[1, 1]
    return np.exp(-0.5 * quad) / (2.0 * np.pi * det)


def density_mismatch(observed, predicted):
    """Relative l1 mismatch ``sum|obs - pred| / sum|pred|`` over equal grids."""
    observed = np.asarray(observed, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if observed.shape != predicted.shape:
        raise ValueError(
            f"shape mismatch: {observed.shape} vs {predicted.shape}"
        )
    return float(np.sum(np.abs(observed - predicted)) / np.sum(np.abs(predicted)))
