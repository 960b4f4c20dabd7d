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
import threading
from dataclasses import dataclass

import numpy as np

from . import noise as noise_mod
from .kernel import Kernel, _sorted_unique

_INDEX_BIAS = 1 << 20          # detector indices packed as 21-bit biased ints
_MAX_VIEWS = 1 << 21           # view indices packed above them, below the int64 sign bit
# Realizations per batch and sites per hashing block.  Neither fixes the
# output bits: each point adds its terms one after another in site order,
# and every batch width >= 2 and every block size keeps that order.  A
# worker has two buffers of about _SITE_BLOCK x _BATCH words, 512 KB
# apiece, so they stay in a 2 MB L2 cache: one for a block's hash words,
# which then hold one segment's gathered terms, and one for the block's
# draws and the points' running sums.  A plan reads _SITE_BLOCK when it is
# built.
_BATCH = 128
_SITE_BLOCK = 512
# sites per chunk when the plan makes its draw inputs.  About seven arrays
# of a chunk's size are alive at once (the unpacked indices, the keys and
# the amplitude's factors); at 8 bytes a site each is 64 KB, below glibc's
# 128 KB mmap threshold, so the loop reuses freed heap and the build's peak
# stays near its tables.  Smaller chunks make the build slower
_SITE_CHUNK = 8192
# sample rows per chunk of streaming_moments; the merge order, and so the
# output bits, depend on it
_MOMENT_CHUNK = 1024
_SCALE_EXP = 256  # histogram axes reaching 2**256 in magnitude are binned scaled below it


def _footprint_bounds(coord, support):
    """Integer index window covering ``|coord - k| < support``."""
    lo = np.floor(coord - support).astype(np.int64) + 1
    hi = np.ceil(coord + support).astype(np.int64) - 1
    return lo, hi


def _unpack(pack):
    """View, detector row and detector column indices of packed site words."""
    return (pack >> 42, ((pack >> 21) & (2**21 - 1)) - _INDEX_BIAS,
            (pack & (2**21 - 1)) - _INDEX_BIAS)


def _gather_table(site, weight, counts, n_sites, block):
    """Block-major gather table of point-major ``(site, weight)`` terms.

    ``site`` and ``weight`` hold each point's terms in ascending site order,
    ``counts[l]`` of them for point ``l``.  The table has one segment for
    each (site block, point) pair with terms, block by block and, within a
    block, point by point.  A segment's head row holds ``block + l``, the row
    of point ``l``'s running sum below a block's draws, with weight 1.0; its
    terms follow with their block-relative site indices, in site order.
    Returns the int32 indices, the weights and, for each block, the list of
    its ``(point, start, stop)`` segments.
    """
    n_points, n_blocks = len(counts), -(-n_sites // block)
    first = np.append(0, np.cumsum(counts))
    lows = np.arange(n_blocks + 1, dtype=site.dtype) * block
    # offsets[l, b] is the first term of point l in block b, in point-major order
    offsets = np.empty((n_points, n_blocks + 1), dtype=np.int64)
    for l in range(n_points):
        own = site[first[l]:first[l + 1]]
        assert np.all(np.diff(own) > 0), "each point's terms must follow site order"
        offsets[l] = first[l] + np.searchsorted(own, lows)
    # each nonempty segment takes a head row and its terms
    index = np.empty(site.size + np.count_nonzero(np.diff(offsets)), dtype=np.int32)
    gather = np.empty(index.size)
    segments, start = [[] for _ in range(n_blocks)], 0
    for b, lo in enumerate(lows[:-1].tolist()):
        for l, (a, z) in enumerate(offsets[:, b:b + 2].tolist()):
            if a < z:
                stop = start + 1 + z - a
                index[start], gather[start] = block + l, 1.0
                index[start + 1:stop] = site[a:z] - lo
                gather[start + 1:stop] = weight[a:z]
                segments[b].append((l, start, stop))
                start = stop
    return index, gather, segments


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
        Spatial evaluation points (already in absolute coordinates), each
        passing ``geometry.check_admissible``.
    """

    def __init__(self, geometry, kernel, noise_model, points):
        if not isinstance(kernel, Kernel):
            kernel = Kernel(kernel)
        self.noise_model = noise_model
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError("points must have shape (L, 3)")

        eps = noise_model.eps
        n_views = noise_model.n_views
        if n_views > _MAX_VIEWS:
            raise ValueError(f"n_views must be at most {_MAX_VIEWS}, the packing range "
                             f"of the view index, got {n_views!r}")
        geometry.check_admissible(self.points)
        support = kernel.spec.support
        s = np.arange(n_views) * noise_model.delta_s

        # one window per view, wide enough for every point; ok1 and ok2 select
        # each point's own footprint in it, and past hi, at |t| >= support, both
        # kernel evaluators give exactly +0.0.  The (L, nv, m1, m2) arrays are
        # the largest the plan makes, so each is deleted once no table needs it
        u, v = geometry.project(self.points[:, None, :], s)      # (L, nv)
        lo1, hi1 = _footprint_bounds(u / eps, support)
        lo2, hi2 = _footprint_bounds(v / eps, support)
        if np.any(np.abs(np.stack([lo1, hi1, lo2, hi2])) >= _INDEX_BIAS):
            raise ValueError("detector index exceeds packing range")
        k1 = lo1[..., None] + np.arange(int(np.max(hi1 - lo1)) + 1)   # (L, nv, m1)
        k2 = lo2[..., None] + np.arange(int(np.max(hi2 - lo2)) + 1)   # (L, nv, m2)
        ok1 = k1 <= hi1[..., None]
        ok2 = k2 <= hi2[..., None]
        w1 = kernel.second_derivative(u[..., None] / eps - k1)
        w2 = kernel.value(v[..., None] / eps - k2)
        packed = (np.arange(n_views)[:, None, None] << 42) \
            | ((k1[..., :, None] + _INDEX_BIAS) << 21) | (k2[..., None, :] + _INDEX_BIAS)
        # noise is generated for each point's footprint cells, and zero-weight
        # cells never enter the reduction, so the summed term sequence (and every
        # output bit) is independent of window enlargement.  The sites stay
        # packed; site_j, site_k1 and site_k2 decode them on access
        self._site_pack = _sorted_unique(packed[ok1[..., :, None] & ok2[..., None, :]])
        w = w1[..., :, None] * w2[..., None, :]                  # (L, nv, m1, m2)
        del k1, k2, ok1, ok2, w1, w2

        # the (point, site, weight) terms, in C order of w: by point, then
        # by packed site
        keep = w != 0.0
        weight = w[keep]
        del w
        term_pack = packed[keep]
        counts = np.count_nonzero(keep.reshape(len(self.points), -1), axis=1)
        del packed, keep
        site = np.searchsorted(self._site_pack, term_pack).astype(np.int32)
        del term_pack
        self._block = _SITE_BLOCK
        self._gather_site, self._gather_weight, self._segments = _gather_table(
            site, weight, counts, self.n_sites, self._block)
        del site, weight

        # each site's draw inputs, as noise.scaled_draws_into takes them: its
        # noise key after the finalizer's first round and its amplitude
        # times 2^-52
        self._site_round = np.empty(self.n_sites, dtype=np.uint64)
        self._site_scale = np.empty(self.n_sites)
        for lo in range(0, self.n_sites, _SITE_CHUNK):
            chunk = slice(lo, lo + _SITE_CHUNK)
            j, k1, k2 = _unpack(self._site_pack[chunk])
            self._site_round[chunk] = noise_mod.first_round(noise_mod.site_keys(j, k1, k2))
            self._site_scale[chunk] = noise_model.amplitude(j, k1, k2) * 2.0**-52
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
        dense = np.zeros((self.n_sites, len(self.points)))
        for lo, segments in zip(range(0, self.n_sites, self._block), self._segments):
            for l, a, b in segments:
                # row a is the segment's head
                dense[lo + self._gather_site[a + 1:b], l] = self._gather_weight[a + 1:b]
        # scaling by a power of two is exact, so this is each amplitude
        site_var = (self._site_scale * 2.0**52)**2 / 3.0
        return self._prefactor**2 * (dense * site_var[:, None]).T @ dense

    def _run_batch(self, batch, bits, draws):
        """Running sums, shape (L, batch.size), of a batch of realizations.

        ``bits`` (uint64) and ``draws`` (float64) are flat buffers of
        ``_block + 1`` and ``_block + L`` rows of ``_BATCH`` columns.
        """
        # a one-column einsum is a dot product, summed in several partial
        # accumulators; two columns keep the sequential order, and so the
        # bits of any other batch
        realizations = np.resize(batch, max(batch.size, 2))
        width = realizations.size
        bits = bits[:(self._block + 1) * width].reshape(-1, width)
        draws = draws[:(self._block + len(self.points)) * width].reshape(-1, width)
        # once a block's draws are made its hash words are dead, so the same
        # buffer holds one segment's gathered terms.  A segment's head row
        # gathers its point's running sum, which einsum adds with weight 1.0;
        # the sum starts at +0.0, and 1.0 * s == s and 0.0 + t == t unless t
        # is -0.0, so each sum keeps the bits of its terms' sequential sum
        terms = bits.view(np.float64)
        sums = draws[self._block:]
        sums[...] = 0.0
        streams = noise_mod.first_round(
            noise_mod.stream_keys(self.noise_model.seed, realizations))
        for lo, segments in zip(range(0, self.n_sites, self._block), self._segments):
            hi = min(lo + self._block, self.n_sites)
            noise_mod.scaled_draws_into(self._site_round[lo:hi, None], streams,
                                        self._site_scale[lo:hi, None],
                                        bits[:hi - lo], draws[:hi - lo])
            for l, a, b in segments:
                # indices are in range by construction; mode="raise" would
                # copy through a temporary of the output's size
                draws.take(self._gather_site[a:b], axis=0, out=terms[:b - a], mode="clip")
                # for each column, einsum adds the weighted rows one after
                # another in row order, rounding each product first
                np.einsum("i,ij->j", self._gather_weight[a:b], terms[:b - a], out=sums[l],
                          optimize=False)
        return sums[:, :batch.size]

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
        n = max(min(threads or 1, len(starts)), 1)
        errors = []     # once one is here, from any thread, each worker stops

        def work(own, bits, draws):
            try:
                for start in own:
                    if errors:
                        return
                    batch = realizations[start:start + _BATCH]
                    np.multiply(self._run_batch(batch, bits, draws).T, self._prefactor,
                                out=out[start:start + batch.size])
            except BaseException as exc:    # re-raised by the calling thread
                errors.append(exc)

        # the calling thread allocates every worker's buffers: a worker
        # thread's own allocations would open a malloc arena apiece and
        # raise the peak resident size
        workers = [threading.Thread(target=work, args=(
            starts[w::n], np.empty((self._block + 1) * _BATCH, dtype=np.uint64),
            np.empty((self._block + len(self.points)) * _BATCH))) for w in range(n)]
        for worker in workers:
            worker.start()
        try:
            for worker in workers:
                worker.join()
        except BaseException as exc:        # an interrupt while waiting
            errors.append(exc)
            for worker in workers:
                worker.join()
            raise
        if errors:
            raise errors[0]
        return out


# ---------------------------------------------------------------------------
# sample statistics
# ---------------------------------------------------------------------------


def streaming_moments(samples):
    """Count, mean and comoment matrix of rows ``(n, L)``, merged in row order
    from chunks of :data:`_MOMENT_CHUNK` rows."""
    samples = np.asarray(samples, dtype=float)
    n_total, width = samples.shape
    count = 0
    mean = np.zeros(width)
    com = np.zeros((width, width))
    for start in range(0, n_total, _MOMENT_CHUNK):
        block = samples[start:start + _MOMENT_CHUNK]
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


def _default_range(scaled, bins, e):
    # ``scaled`` is one axis times 2**-e, below 2**_SCALE_EXP in magnitude, so nothing here
    # overflows.  Mean +/- 4.5 standard deviations keeps essentially all Gaussian mass;
    # clip to the observed extremes so the range never exceeds the data; by Chebyshev's
    # inequality at least 95 % of the samples lie inside it, and 90 % inside both ranges
    # of a pair, so no histogram comes out empty.  A span too narrow for bins + 1 distinct
    # edges, a zero span among them, is widened on each side by 0.5 unscaled, or by
    # 2 * bins float spacings where that is more, up to the largest float
    lo, hi = float(np.min(scaled)), float(np.max(scaled))
    m = int(np.frexp(max(-lo, hi))[1])  # moments taken in units that keep a tiny axis's bits
    mu, sd = (float(np.ldexp(f(np.ldexp(scaled, -m)), m)) for f in (np.mean, np.std))
    lo, hi = max(mu - 4.5 * sd, lo), min(mu + 4.5 * sd, hi)
    if not np.all(np.diff(np.linspace(lo, hi, bins + 1)) > 0):
        pad = max(float(np.ldexp(0.5, -e)), 2 * bins * float(np.spacing(max(-lo, hi))))
        top = float(np.ldexp(np.finfo(float).max, -e))
        lo, hi = max(lo - pad, -top), min(hi + pad, top)
    return lo, hi


def histogram_density(samples, bins):
    """Density histogram with uniform bins over a sample (n,) or sample rows (n, d).

    Each axis's bins span its sample mean plus/minus 4.5 standard
    deviations, clipped to the sample extremes, and widened on each side
    when that span is too narrow for ``bins`` distinct bins.
    """
    samples = np.asarray(samples, dtype=float)
    rows = samples.reshape(-1, 1) if samples.ndim < 2 else samples
    if rows.ndim != 2 or rows.size == 0:
        raise ValueError("need a nonempty sample of shape (n,) or (n, d)")
    if bins < 2:
        raise ValueError("bins must be >= 2")
    # units of 2**e, e > 0 only for an axis reaching 2**_SCALE_EXP, so a smaller one keeps its bits
    scales = np.maximum(np.frexp(np.max(np.abs(rows), axis=0))[1] - _SCALE_EXP, 0)
    scaled = np.ldexp(rows, -scales)
    counts, edges = np.histogramdd(scaled, bins=bins, range=[
        _default_range(axis, bins, e) for axis, e in zip(scaled.T, scales)])
    # the cell volume as mantissas and one power of two, so that no product overflows
    mantissas, exponents = np.frexp([edge[1] - edge[0] for edge in edges])
    density = np.ldexp(counts / (counts.sum() * math.prod(mantissas)),
                       -int(exponents.sum() + scales.sum()))
    return HistogramDensity(edges=tuple(map(np.ldexp, edges, scales)), density=density)


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
