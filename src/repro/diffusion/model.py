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
path (`predict_full`, `predict_full_batch`) that scores all N^2 pairs.
Training and the encoder run in float64; the pair decoder runs in
float32, and P_E agrees with a float64 decoder within 1e-6.  The decoder
walks each graph in row blocks sized to a fixed cache budget, so the
workspace stays bounded whatever N and the batch size are; blocking
never changes a GEMM slice shape or an element's op order, so the
output is bit-identical to an unblocked float32 evaluation.
"""

from __future__ import annotations

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
from .features import NUM_WIDTH_BUCKETS

# Byte budget of one row block of the pair decoder's (rows, N, H) float32
# workspace (see DenoisingNetwork._decode_np).  Two such buffers are live
# per forward.  Sweep: hidden 48, one BLAS thread, a Xeon with 2 MiB L2
# per core; decoder time summed over items of 64x4, 128x4, 256x4 and
# 320x1 nodes, median of 25 interleaved rounds, two sweeps.  64 KiB
# 99-101 ms, 128 KiB 85-88, 256 KiB 79-80, 512 KiB 77-79, 1 MiB 88,
# 2 MiB 92-93, 4 MiB 114-115.  A 60-round sweep of 256/384/512/768 KiB
# read 78.8/77.3/74.6/77.2 ms.  The optimum is flat from 256 to 768 KiB.
# 256 KiB keeps the float64 decoder's workspace bytes; 512 KiB ran no
# faster end to end (genbench sample-only) and raised peak RSS 0.5 MB.
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
    def aggregation_matrix(a_t: np.ndarray) -> np.ndarray:
        """Row-normalised parent aggregation: M[j, i] = A_t[i, j]/|P(j)|."""
        a = a_t.astype(np.float64)
        indeg = a.sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            m = a.T / np.maximum(indeg[:, None], 1.0)
        return m

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
            # The tape's pairing; _encode_np sums these in another order.
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
                     logit_bias: float = 0.0) -> np.ndarray:
        """Probability matrix P_E over all ordered pairs (i, j).

        ``logit_bias`` applies the negative-sampling prior correction:
        training sees positives at rate 1/(1+neg_ratio) while the true
        edge density is far lower, so inference shifts every logit by
        log-odds(true density) - log-odds(training rate).  Rankings are
        unaffected; sampled densities become calibrated.

        The encoder runs in float64 and the pair decoder in float32 (see
        :meth:`_decode_np`): the result is within 1e-6 of a float64
        forward, not bit-identical to one.
        """
        h = self._encode_np(types, widths, a_t, t_frac)
        return self._decode_np(h[None], t_frac, logit_bias)[0]

    def predict_full_batch(
        self, types: np.ndarray, widths: np.ndarray, a_t: np.ndarray,
        t_frac: float, logit_bias: float = 0.0,
    ) -> np.ndarray:
        """Batched :meth:`predict_full`: ``types``/``widths`` are
        ``(B, N)``, ``a_t`` is ``(B, N, N)``; returns ``(B, N, N)``.

        One denoiser forward serves the whole stack: time/relation
        embeddings and decoder weight prep happen once, and every
        matmul runs as a stacked 3-d batch whose *per-slice* shapes are
        exactly the unbatched forward's.  That slice-shape preservation
        is deliberate: BLAS kernels pick reduction strategies by matrix
        shape, so keeping each sample's GEMM shape unchanged keeps each
        output slice bit-identical to a standalone :meth:`predict_full`
        call -- the property the batched sampler's reproducibility
        guarantee rests on (row-fusing the batch into one tall GEMM
        measurably changes low-order bits).  Both methods share the one
        float32 pair decoder, :meth:`_decode_np`.
        """
        h = self._encode_np_batch(types, widths, a_t, t_frac)  # (B, N, H)
        return self._decode_np(h, t_frac, logit_bias)

    def _decode_np(self, h: np.ndarray, t_frac: float,
                   logit_bias: float) -> np.ndarray:
        """Edge probabilities ``(B, N, N)`` from node embeddings
        ``(B, N, H)``: the cache-blocked pair decoder.

        The first decoder layer needs the ``(N, N, H)`` pair tensor
        ``z[i, j] = (H_i + r) * H_j``; built whole at hidden 48 it
        outgrows a 2 MiB L2 from about 75 nodes on, and its elementwise
        passes become bound by memory traffic.  So each item is walked
        in row blocks whose ``(rows, N, H)`` workspace fits
        :data:`_BLOCK_BYTES`, through two buffers allocated once per
        forward.  Blocking only changes which rows share a call: every
        matmul slice is still ``(N, H) @ (H, H)`` (then ``@ (H, 1)``)
        and each element sees the same operations in the same order, so
        the output is bit-identical for every block size.

        The decoder runs in float32, the one inference precision: ``H``,
        ``H + r``, the first layer's weights and time bias, and the
        output weights are cast once per forward, which roughly halves the
        per-element and the GEMM cost.  Each block's logits are
        widened to float64 as they are stored, and ``b2``, the
        ``logit_bias`` and the sigmoid run in float64.  P_E agrees with
        a float64 decoder within 1e-6 (measured up to 4.8e-7 on graphs of
        48-384 nodes).  A posterior draw flips only when its uniform
        lands within that difference of P, so a sampled adjacency is
        expected, not promised, to equal the float64 decoder's.
        """
        batch, n, hidden = h.shape
        feats = time_features(t_frac, self.encoder.time_dim)
        r = _mlp_np(self.decoder.relation_mlp, feats)[0]
        d = _mlp_np(self.decoder.timestep_mlp, feats)[0]

        edge = self.decoder.edge_mlp.layers
        w1, b1 = _wb(edge[0])
        w2, b2 = _wb(edge[1])
        f32 = np.float32
        w1_z = w1[:hidden].astype(f32)
        # constant contribution of the time concat
        d_bias = (d @ w1[hidden:] + b1).astype(f32)
        w2 = w2.astype(f32)
        h_r = (h + r).astype(f32)
        h = h.astype(f32)

        block = max(1, min(n, _BLOCK_BYTES // (n * hidden * 4)))
        pairs = np.empty((block, n, hidden), dtype=f32)
        act = np.empty((block, n, hidden), dtype=f32)
        logits = np.empty((batch, n, n))
        for k in range(batch):
            for lo in range(0, n, block):
                hi = min(lo + block, n)
                z = pairs[:hi - lo]
                a1 = act[:hi - lo]
                # z[i, j, :] = (H_i + r) * H_j for i in [lo, hi)
                np.multiply(h_r[k, lo:hi, None, :], h[k, None, :, :], out=z)
                np.matmul(z, w1_z, out=a1)
                a1 += d_bias
                np.maximum(a1, 0.0, out=a1)
                # A float32 GEMV, widened on store into the float64 logits.
                np.matmul(a1, w2, out=logits[k, lo:hi, :, None])
        logits += b2
        logits += logit_bias
        return sigmoid_np(logits)

    def _encode_np_batch(self, types: np.ndarray, widths: np.ndarray,
                         a_t: np.ndarray, t_frac: float) -> np.ndarray:
        """Batched numpy encoder: ``(B, N)`` attributes -> ``(B, N, H)``."""
        enc = self.encoder
        types = np.asarray(types, dtype=np.int64)
        widths = np.asarray(widths, dtype=np.int64)
        h = enc.type_emb.weight.data[types] + enc.width_emb.weight.data[widths]
        t_emb = _mlp_np(enc.time_mlp, time_features(t_frac, enc.time_dim))
        h = h + t_emb
        a = np.asarray(a_t, dtype=np.float64)
        indeg = a.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            agg = a.transpose(0, 2, 1) / np.maximum(indeg[:, :, None], 1.0)
        for w_h, w_m in zip(enc.w_h, enc.w_m):
            wh, bh = _wb(w_h)
            wm, bm = _wb(w_m)
            # Same expression (and so the same per-slice GEMM shapes and
            # addition order) as _encode_np, batched over axis 0.
            h = np.maximum(h @ wh + bh + (agg @ h) @ wm + bm, 0.0)
        return h

    def _encode_np(self, types: np.ndarray, widths: np.ndarray,
                   a_t: np.ndarray, t_frac: float) -> np.ndarray:
        enc = self.encoder
        h = (enc.type_emb.weight.data[np.asarray(types, dtype=np.int64)]
             + enc.width_emb.weight.data[np.asarray(widths, dtype=np.int64)])
        t_emb = _mlp_np(enc.time_mlp, time_features(t_frac, enc.time_dim))
        h = h + t_emb
        agg = enc.aggregation_matrix(a_t)
        for w_h, w_m in zip(enc.w_h, enc.w_m):
            wh, bh = _wb(w_h)
            wm, bm = _wb(w_m)
            h = np.maximum(h @ wh + bh + (agg @ h) @ wm + bm, 0.0)
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
