"""Denoising network: directed MPNN encoder + asymmetric TransE decoder.

The encoder follows the paper's update rule

    H^{l+1}_j = sigma( W_h H^l_j + (1/|P(j)|) sum_{i in P(j)} W_m H^l_i )

over the *noisy* adjacency A_t, with node attributes and a learned time
embedding initialising H^0.  The decoder restores edge direction through a
learnable relation embedding r(t):

    P_E(i, j) = MLP( ((H_i + r(t)) * H_j)  ++  d(t) )

which is deliberately asymmetric in (i, j) -- the paper's fix for the
commutative dot-product/Euclidean decoders of prior work.

Training calls :meth:`DenoisingNetwork.loss_and_grads`: the forward over
sampled pairs, the BCE loss and a hand-written backward in plain numpy,
with no autograd tape.  It mirrors the tape op for op, so its loss and
gradients are bit-identical to the :class:`~repro.nn.Tensor` forward
(:meth:`DenoisingNetwork.forward`), which stays as the reference the
differential tests compare against.  Inference uses a vectorised numpy
path (`predict_full`, `predict_full_batch`) that scores one block of
pairs, rows x columns; the reverse walk asks for the legal block
(:class:`~repro.diffusion.features.PairBlock`: drivers x receivers), the
only pairs Phase 2 can use, and the noisy adjacency comes in over the
same block.  Only receivers have parents, so the encoder aggregates
``M @ H[drivers]`` into the receiver rows and builds no N x N matrix.
Training runs in float64; inference, encoder and pair decoder, runs in
float32, and P_E agrees with a float64 forward within 1e-6.  The decoder
walks each graph in row blocks sized to a fixed cache budget, so the
workspace stays bounded whatever N and the batch size are; blocking
never changes a GEMM slice shape or an element's op order, so the
output is bit-identical to an unblocked float32 evaluation.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..ir import NUM_TYPES
from ..nn import (
    MLP,
    Embedding,
    Linear,
    Module,
    Tensor,
    scatter_rows,
    sigmoid_np,
    time_features,
)
from .features import NUM_WIDTH_BUCKETS, PairBlock

# Byte budget of each of the pair decoder's two float32 row-block
# buffers (see DenoisingNetwork._decode_np): the (rows, |R|, H)
# activations and the (rows, H, H) per-driver weights, so rows is sized
# from max(|R|, H) and neither buffer exceeds it.  Sweep: hidden
# 48, one BLAS thread, a Xeon with 2 MiB L2 per core; decoder time
# summed over items of 64x4, 128x4, 256x4 and 320x1 nodes, median of 25
# interleaved rounds, two sweeps.  64 KiB 44-57 ms, 128 KiB 37-39, 256
# KiB 36-38, 512 KiB 34-36, 1 MiB 34, 2 MiB 35-38, 4 MiB 38-43.  Two
# 60-round sweeps of 256/384/512/768/1024 KiB read 35.3-36.5,
# 34.7-36.9, 34.8-36.2, 35.3-36.6 and 36.7-37.7 ms: flat from 256 to
# 768 KiB, so the budget stays 256 KiB.
_BLOCK_BYTES = 256 * 1024


class DirectedMPNNEncoder(Module):
    """Parent-averaged directed message passing (paper Section IV-C)."""

    def __init__(self, hidden: int, num_layers: int, time_dim: int,
                 rng: np.random.Generator) -> None:
        self.hidden = hidden
        self.time_dim = time_dim
        self.type_emb = Embedding(NUM_TYPES, hidden, rng)
        self.width_emb = Embedding(NUM_WIDTH_BUCKETS, hidden, rng)
        self.time_mlp = MLP([time_dim, hidden, hidden], rng)
        self.w_h = [Linear(hidden, hidden, rng) for _ in range(num_layers)]
        self.w_m = [Linear(hidden, hidden, rng) for _ in range(num_layers)]

    @staticmethod
    def aggregation_matrix(a_t: np.ndarray,
                           dtype: type = np.float64) -> np.ndarray:
        """Row-normalised parent aggregation: M[j, i] = A_t[i, j]/|P(j)|.

        ``a_t`` is the dense ``(N, N)`` adjacency in training and a
        :class:`PairBlock`'s ``(|D|, |R|)`` at inference.  In-degrees are
        exact integer sums, so a block's M is bit for bit the receiver x
        driver part of its dense scatter's.
        """
        a = a_t.astype(dtype)
        indeg = a.sum(axis=0)
        return a.T / np.maximum(indeg[:, None], 1)

    def initial_embedding(self, types: np.ndarray, widths: np.ndarray,
                          t_frac: float) -> Tensor:
        h = self.type_emb(types) + self.width_emb(widths)
        t_emb = self.time_mlp(Tensor(time_features(t_frac, self.time_dim)))
        n = len(types)
        ones = Tensor(np.ones((n, 1)))
        return h + ones @ t_emb

    def forward(self, types: np.ndarray, widths: np.ndarray,
                a_t: np.ndarray, t_frac: float) -> Tensor:
        h = self.initial_embedding(types, widths, t_frac)
        agg = Tensor(self.aggregation_matrix(a_t))
        for w_h, w_m in zip(self.w_h, self.w_m):
            h = (w_h(h) + w_m(agg @ h)).relu()
        return h


class TransEDecoder(Module):
    """Asymmetric edge decoder with relation and time embeddings."""

    def __init__(self, hidden: int, time_dim: int,
                 rng: np.random.Generator) -> None:
        self.hidden = hidden
        self.time_dim = time_dim
        self.relation_mlp = MLP([time_dim, hidden, hidden], rng)
        self.timestep_mlp = MLP([time_dim, hidden, time_dim], rng)
        self.edge_mlp = MLP([hidden + time_dim, hidden, 1], rng)

    def forward(self, h: Tensor, src: np.ndarray, dst: np.ndarray,
                t_frac: float) -> Tensor:
        """Logits for the pairs (src[k] -> dst[k])."""
        feats = Tensor(time_features(t_frac, self.time_dim))
        r = self.relation_mlp(feats)          # (1, hidden)
        d = self.timestep_mlp(feats)          # (1, time_dim)
        h_src = h.take_rows(src)
        h_dst = h.take_rows(dst)
        ones = Tensor(np.ones((len(src), 1)))
        translated = (h_src + ones @ r) * h_dst
        z = translated.concat(ones @ d, axis=-1)
        return self.edge_mlp(z).reshape(len(src))


class DenoisingNetwork(Module):
    """phi_theta: predicts p(A_0 = 1 | A_t, X, t)."""

    def __init__(self, hidden: int = 64, num_layers: int = 5,
                 time_dim: int = 16, seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        self.encoder = DirectedMPNNEncoder(hidden, num_layers, time_dim, rng)
        self.decoder = TransEDecoder(hidden, time_dim, rng)

    def forward(self, types: np.ndarray, widths: np.ndarray,
                a_t: np.ndarray, t_frac: float, src: np.ndarray,
                dst: np.ndarray) -> Tensor:
        h = self.encoder(types, widths, a_t, t_frac)
        return self.decoder(h, src, dst, t_frac)

    # ------------------------------------------------------------------
    # Training step (pure numpy, no tape)
    # ------------------------------------------------------------------
    def loss_and_grads(self, types: np.ndarray, widths: np.ndarray,
                       a_t: np.ndarray, t_frac: float, src: np.ndarray,
                       dst: np.ndarray, target: np.ndarray) -> float:
        """Mean BCE of the pair logits against ``target``; sets every
        parameter's ``.grad`` and returns the loss.

        The same numbers as ``bce_with_logits(self(types, widths, a_t,
        t_frac, src, dst), target).backward()``, bit for bit, without the
        tape.  Every step mirrors the tape's op: the same GEMM shapes,
        each Linear as ``(x @ W) + b``, ReLU as ``x * mask``, the
        broadcast time/relation-embedding gradients as ``ones.T @ g``
        GEMMs, the BCE through ``log(max(p + eps, eps))``.  Only the
        forward adds the time embeddings by broadcasting, not through
        ``ones @ v``: a one-term product is exact.  No node's gradient
        sums more than two terms, so the tape's accumulation order cannot
        differ.
        """
        enc, dec = self.encoder, self.decoder
        types = np.asarray(types, dtype=np.int64)
        widths = np.asarray(widths, dtype=np.int64)
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        y = np.asarray(target, dtype=np.float64)
        n, pairs = len(types), len(src)
        feats = time_features(t_frac, enc.time_dim)

        # Encoder forward, keeping each layer's input, aggregate and mask.
        t_emb, t_saved = _mlp_forward(enc.time_mlp, feats)
        h = (enc.type_emb.weight.data[types]
             + enc.width_emb.weight.data[widths]) + t_emb
        agg = enc.aggregation_matrix(a_t)
        layers: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for w_h, w_m in zip(enc.w_h, enc.w_m):
            wh, bh = _wb(w_h)
            wm, bm = _wb(w_m)
            ah = agg @ h
            # The tape's pairing; inference sums these in another order.
            s = (h @ wh + bh) + (ah @ wm + bm)
            mask = s > 0
            layers.append((h, ah, mask))
            h = s * mask

        # Decoder forward over the sampled pairs.
        r, r_saved = _mlp_forward(dec.relation_mlp, feats)
        d, d_saved = _mlp_forward(dec.timestep_mlp, feats)
        hidden = h.shape[1]
        h_dst = h[dst]
        u = h[src] + r
        z = np.empty((pairs, hidden + d.shape[1]))
        np.multiply(u, h_dst, out=z[:, :hidden])
        z[:, hidden:] = d
        out, e_saved = _mlp_forward(dec.edge_mlp, z)
        logits = out.reshape(pairs)

        # BCE, as bce_with_logits builds it.
        eps = 1e-12
        p = sigmoid_np(logits)
        p_eps = p + eps
        q_eps = (1.0 + -p) + eps
        not_y = 1.0 + -y
        terms = -(y * np.log(np.maximum(p_eps, eps))
                  + not_y * np.log(np.maximum(q_eps, eps)))
        inv = 1.0 / float(pairs)
        loss = float(terms.sum() * inv)

        # Backward.
        g_terms = -np.full(pairs, inv)
        g_p = ((g_terms * y) / np.maximum(p_eps, eps)
               + -((g_terms * not_y) / np.maximum(q_eps, eps)))
        g_out = (g_p * p * (1.0 - p)).reshape(pairs, 1)
        g_z = _mlp_backward(dec.edge_mlp, e_saved, g_out)
        g_u = g_z[:, :hidden] * h_dst
        g_dst = g_z[:, :hidden] * u
        ones = np.ones((pairs, 1))
        _mlp_backward(dec.timestep_mlp, d_saved, ones.T @ g_z[:, hidden:])
        _mlp_backward(dec.relation_mlp, r_saved, ones.T @ g_u)
        g_h = scatter_rows(src, g_u, n) + scatter_rows(dst, g_dst, n)

        agg_t = agg.T
        for w_h, w_m, (h_in, ah, mask) in zip(
            reversed(enc.w_h), reversed(enc.w_m), reversed(layers)
        ):
            g_s = g_h * mask
            _set_grads(w_h, h_in.T @ g_s, g_s.sum(axis=0))
            _set_grads(w_m, ah.T @ g_s, g_s.sum(axis=0))
            g_h = (g_s @ w_h.weight.data.T
                   + agg_t @ (g_s @ w_m.weight.data.T))

        ones = np.ones((n, 1))
        _mlp_backward(enc.time_mlp, t_saved, ones.T @ g_h)
        for emb, index in ((enc.type_emb, types), (enc.width_emb, widths)):
            emb.weight.grad = scatter_rows(index, g_h, len(emb.weight.data))
        return loss

    # ------------------------------------------------------------------
    # Fast inference path (pure numpy, no tape)
    # ------------------------------------------------------------------
    def predict_full(self, types: np.ndarray, widths: np.ndarray,
                     a_t: np.ndarray, t_frac: float,
                     logit_bias: float = 0.0,
                     block: PairBlock | None = None) -> np.ndarray:
        """Probability matrix P_E over the pairs of ``block``.

        ``a_t`` is the noisy adjacency over the pairs of ``block``
        (default: every ordered pair, ``(N, N)``), and so is the result,
        ``(|drivers|, |receivers|)``.  The reverse walk passes
        :meth:`PairBlock.legal`, so no pair Phase 2 cannot use is ever
        noised or scored.

        ``logit_bias`` applies the negative-sampling prior correction:
        training sees positives at rate 1/(1+neg_ratio) while the true
        edge density is far lower, so inference shifts every logit by
        log-odds(true density) - log-odds(training rate).  Rankings are
        unaffected; sampled densities become calibrated.

        This is the B=1 call of :meth:`predict_full_batch`.  The forward
        runs in float32 (see :meth:`_encode_np_batch` and
        :meth:`_decode_np`): the result is within 1e-6 of a float64
        forward, not bit-identical to one.
        """
        if block is None:
            block = PairBlock.full(len(types))
        return self.predict_full_batch(
            np.asarray(types)[None], np.asarray(widths)[None], [a_t],
            t_frac, [logit_bias], [block])[0]

    def predict_full_batch(
        self, types: np.ndarray, widths: np.ndarray,
        a_t: Sequence[np.ndarray], t_frac: float,
        logit_bias: float | Sequence[float] = 0.0,
        blocks: Sequence[PairBlock] | None = None,
    ) -> list[np.ndarray]:
        """Batched :meth:`predict_full`: ``types``/``widths`` are
        ``(B, N)`` and ``a_t[k]`` is item ``k``'s noisy adjacency over
        ``blocks[k]`` (default every pair, so ``a_t`` may be
        ``(B, N, N)``); returns item ``k``'s P_E over its block, with
        ``logit_bias`` one float for all items or one per item.

        One denoiser forward serves the whole stack: time/relation
        embeddings and decoder weight prep happen once, and every
        matmul runs as a stacked 3-d batch whose *per-slice* shapes are
        exactly the unbatched forward's.  That slice-shape preservation
        is deliberate: BLAS kernels pick reduction strategies by matrix
        shape, so keeping each sample's GEMM shape unchanged keeps each
        output slice bit-identical to a standalone :meth:`predict_full`
        call -- the property the batched sampler's reproducibility
        guarantee rests on (row-fusing the batch into one tall GEMM
        measurably changes low-order bits).  :meth:`predict_full` is
        this method at B=1, so there is one float32 encoder and one pair
        decoder.
        """
        batch, n = np.shape(types)
        if blocks is None:
            blocks = [PairBlock.full(n)] * batch
        biases = (
            [float(logit_bias)] * batch
            if isinstance(logit_bias, (int, float)) else list(logit_bias)
        )
        h = self._encode_np_batch(types, widths, a_t, t_frac, blocks)
        return self._decode_np(h, t_frac, biases, blocks)

    def _decode_np(self, h: np.ndarray, t_frac: float,
                   logit_bias: Sequence[float],
                   blocks: Sequence[PairBlock]) -> list[np.ndarray]:
        """Edge probabilities from node embeddings ``(B, N, H)``: item
        ``k``'s ``(|drivers|, |receivers|)`` block of P_E, shifted by
        ``logit_bias[k]``, through the cache-blocked pair decoder.

        The first layer's input for driver ``i`` and receiver ``j`` is
        ``(H_i + r) * H_j``.  No pair tensor is built: driver ``i``'s
        activations are the GEMM ``H[receivers] @ W_i`` with
        ``W_i = (H_i + r)[:, None] * W1``, and the time bias ``b`` is the
        ReLU threshold, ``relu(x + b) @ w2 = max(x, -b) @ w2 + b @ w2``.
        Each item is walked in driver-row blocks whose ``(rows, |R|, H)``
        activations and ``(rows, H, H)`` weights each fit
        :data:`_BLOCK_BYTES`, in buffers allocated once per forward.
        Every matmul slice is still ``(|R|, H) @ (H, H)`` (then
        ``@ (H, 1)``) and each element sees the same operations in the
        same order, so the output is bit-identical for every block size.

        It runs in float32 with its weights cast once per forward; each
        block's logits are widened to float64 as they are stored, and
        ``b @ w2``, ``b2``, the ``logit_bias`` and the sigmoid run in
        float64.  P_E agrees with a float64 forward within 1e-6: a draw
        flips only when its uniform lands within that difference of P,
        so sampled edges are expected, not promised, to match float64's.
        """
        hidden = h.shape[2]
        feats = time_features(t_frac, self.encoder.time_dim)
        r = _mlp_np(self.decoder.relation_mlp, feats)[0]
        d = _mlp_np(self.decoder.timestep_mlp, feats)[0]

        edge = self.decoder.edge_mlp.layers
        w1, b1 = _wb(edge[0])
        w2, b2 = _wb(edge[1])
        f32 = np.float32
        w1_z = w1[:hidden].astype(f32)
        # The time concat's constant contribution, the ReLU's bias.
        d_bias = (d @ w1[hidden:] + b1).astype(f32)
        threshold = -d_bias
        w2 = w2.astype(f32)
        shift = float(d_bias.astype(np.float64) @ w2[:, 0]) + float(b2[0])
        h_r = (h + r).astype(f32)
        h = h.astype(f32)

        rows = [
            max(1, min(len(blk.drivers),
                       _BLOCK_BYTES // (max(len(blk.receivers), hidden)
                                        * hidden * 4)))
            for blk in blocks
        ]
        words = max((k * len(blk.receivers) * hidden
                     for k, blk in zip(rows, blocks)), default=0)
        act = np.empty(words, dtype=f32)
        weights = np.empty((max(rows, default=0), hidden, hidden), dtype=f32)
        out = []
        for k, (blk, step) in enumerate(zip(blocks, rows)):
            drivers, receivers = blk.shape
            h_src = h_r[k, blk.drivers]
            h_dst = h[k, blk.receivers]
            logits = np.empty((drivers, receivers))
            for lo in range(0, drivers, step):
                hi = min(lo + step, drivers)
                w = weights[:hi - lo]
                a1 = act[:(hi - lo) * receivers * hidden].reshape(
                    hi - lo, receivers, hidden)
                # W_i = (H_i + r)[:, None] * W1 for driver rows [lo, hi)
                np.multiply(h_src[lo:hi, :, None], w1_z, out=w)
                np.matmul(h_dst, w, out=a1)
                np.maximum(a1, threshold, out=a1)
                # A float32 GEMV, widened on store into the float64 logits.
                np.matmul(a1, w2, out=logits[lo:hi, :, None])
            logits += shift + logit_bias[k]
            out.append(sigmoid_np(logits))
        return out

    def _encode_np_batch(self, types: np.ndarray, widths: np.ndarray,
                         a_t: Sequence[np.ndarray], t_frac: float,
                         blocks: Sequence[PairBlock]) -> np.ndarray:
        """The inference encoder: ``(B, N)`` attributes -> float32
        ``(B, N, H)`` embeddings; ``a_t[k]`` is item ``k``'s noisy
        adjacency over ``blocks[k]``.

        Only receivers have parents, so each layer aggregates
        ``M_k @ H[drivers]`` into item ``k``'s receiver rows and every
        other row's message is zero.  It runs in float32 with the
        weights cast once per forward.  Every GEMM slice has the shape
        of the B=1 call's, so each item's output is bit for bit its
        solo forward's.
        """
        enc = self.encoder
        f32 = np.float32
        types = np.asarray(types, dtype=np.int64)
        widths = np.asarray(widths, dtype=np.int64)
        h = enc.type_emb.weight.data[types] + enc.width_emb.weight.data[widths]
        t_emb = _mlp_np(enc.time_mlp, time_features(t_frac, enc.time_dim))
        h = (h + t_emb).astype(f32)
        agg = [enc.aggregation_matrix(a, f32) for a in a_t]
        for w_h, w_m in zip(enc.w_h, enc.w_m):
            wh, bh, wm, bm = (x.astype(f32) for x in (*_wb(w_h), *_wb(w_m)))
            s = h @ wh + bh
            for k, (m, blk) in enumerate(zip(agg, blocks)):
                s[k, blk.receivers] += (m @ h[k, blk.drivers]) @ wm
            s += bm
            h = np.maximum(s, 0.0, out=s)
        return h


def _wb(layer: Linear) -> tuple[np.ndarray, np.ndarray]:
    """(weight, bias) arrays of a layer; every layer here is biased."""
    bias = layer.bias
    assert bias is not None
    return layer.weight.data, bias.data


def _mlp_np(mlp: MLP, x: np.ndarray) -> np.ndarray:
    """Numpy-only forward through an MLP's ReLU stack."""
    out = np.asarray(x, dtype=np.float64)
    for layer in mlp.layers[:-1]:
        weight, bias = _wb(layer)
        out = np.maximum(out @ weight + bias, 0.0)
    weight, bias = _wb(mlp.layers[-1])
    return out @ weight + bias


def _set_grads(layer: Linear, weight_grad: np.ndarray,
               bias_grad: np.ndarray) -> None:
    layer.weight.grad = weight_grad
    assert layer.bias is not None
    layer.bias.grad = bias_grad


def _mlp_forward(
    mlp: MLP, x: np.ndarray,
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray | None]]]:
    """Training forward through an MLP's ReLU stack, as the tape runs it.

    Returns the output and, per layer, its input and the ReLU mask of its
    output (``None`` for the last layer) for :func:`_mlp_backward`.
    """
    saved: list[tuple[np.ndarray, np.ndarray | None]] = []
    for layer in mlp.layers[:-1]:
        weight, bias = _wb(layer)
        pre = x @ weight + bias
        mask = pre > 0
        saved.append((x, mask))
        x = pre * mask
    weight, bias = _wb(mlp.layers[-1])
    saved.append((x, None))
    return x @ weight + bias, saved


def _mlp_backward(
    mlp: MLP, saved: list[tuple[np.ndarray, np.ndarray | None]],
    grad: np.ndarray,
) -> np.ndarray:
    """Set an MLP's parameter gradients from its output gradient; returns
    the gradient of its input."""
    for layer, (x, mask) in zip(reversed(mlp.layers), reversed(saved)):
        if mask is not None:
            grad = grad * mask
        _set_grads(layer, x.T @ grad, grad.sum(axis=0))
        grad = grad @ layer.weight.data.T
    return grad
