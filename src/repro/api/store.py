"""Content-addressed artifact store backing :class:`repro.api.Session`.

Expensive artifacts -- trained diffusion generators, PCS discriminators,
synthesis summaries, generated circuits -- are keyed by a SHA-256 digest
of the configuration (and training-set fingerprint) that produced them.
Identical requests therefore hit the cache across runs *and* across
processes: the store is a plain directory of ``.npz`` / ``.json`` files,
with an in-process memory layer in front so repeat lookups inside one
session never touch disk.

The default location is ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import re
import tempfile

import numpy as np

from ..diffusion import TrainedDiffusion, load_trained, save_trained
from ..diffusion.persist import ModelFormatError
from ..ir import CircuitGraph
from ..mcts import GRAPH_FEATURE_DIM, PCSDiscriminator
from ..obs import registry


def canonical_json(payload) -> str:
    """Deterministic JSON used for hashing (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def fingerprint(payload) -> str:
    """SHA-256 hex digest of an arbitrary JSON-able payload."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def graphs_fingerprint(graphs: list[CircuitGraph]) -> str:
    """Content hash of a training set (order-insensitive)."""
    digests = sorted(
        hashlib.sha256(canonical_json(g.to_dict()).encode()).hexdigest()
        for g in graphs
    )
    return fingerprint(digests)


# Shape of every key minted by ArtifactStore.key: "<kind>-<32 hex>".
_KEY_RE = re.compile(r"[a-z][a-z0-9_]*-[0-9a-f]{32}")


class ArtifactStore:
    """Two-level (memory + directory) content-addressed artifact cache."""

    def __init__(self, root: str | os.PathLike | None = None):
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR") or (
                pathlib.Path.home() / ".cache" / "repro"
            )
        self.root = pathlib.Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        self._memory: dict[str, object] = {}
        self.hits = 0
        self.misses = 0

    # -- keys -----------------------------------------------------------
    @staticmethod
    def key(kind: str, payload) -> str:
        """Content-address: artifact kind + config payload -> stable key."""
        return f"{kind}-{fingerprint(payload)[:32]}"

    def path(self, key: str, suffix: str) -> pathlib.Path:
        return self.root / f"{key}{suffix}"

    def _record(self, found: bool) -> None:
        if found:
            self.hits += 1
            registry().counter("store_hits_total").inc()
        else:
            self.misses += 1
            registry().counter("store_misses_total").inc()

    # -- trained diffusion generators -----------------------------------
    def load_diffusion(self, key: str) -> TrainedDiffusion | None:
        cached = self._memory.get(key)
        if cached is not None:
            self._record(True)
            return cached
        path = self.path(key, ".npz")
        if path.exists():
            try:
                trained = load_trained(path)
            except ModelFormatError:
                self._record(False)
                return None
            self._memory[key] = trained
            self._record(True)
            return trained
        self._record(False)
        return None

    def save_diffusion(self, key: str, trained: TrainedDiffusion) -> None:
        self._memory[key] = trained
        self._atomic_write(
            self.path(key, ".npz"), lambda p: save_trained(trained, p)
        )

    # -- PCS discriminators ---------------------------------------------
    def load_discriminator(self, key: str) -> PCSDiscriminator | None:
        cached = self._memory.get(key)
        if cached is not None:
            self._record(True)
            return cached
        path = self.path(key, ".npz")
        if path.exists():
            with np.load(path) as bundle:
                disc = PCSDiscriminator(hidden=int(bundle["hidden"]))
                disc.net.load_state_dict({
                    name[len("param_"):]: bundle[name]
                    for name in bundle.files
                    if name.startswith("param_")
                })
                disc._mean = bundle["mean"]
                disc._std = bundle["std"]
                disc.trained = True
            self._memory[key] = disc
            self._record(True)
            return disc
        self._record(False)
        return None

    def save_discriminator(self, key: str, disc: PCSDiscriminator) -> None:
        self._memory[key] = disc
        hidden = disc.net.layers[0].weight.data.shape[1]
        arrays = {
            f"param_{name}": value
            for name, value in disc.net.state_dict().items()
        }
        self._atomic_write(
            self.path(key, ".npz"),
            lambda p: np.savez_compressed(
                p,
                hidden=np.int64(hidden),
                feature_dim=np.int64(GRAPH_FEATURE_DIM),
                mean=disc._mean,
                std=disc._std,
                **arrays,
            ),
        )

    # -- JSON blobs (synthesis summaries, generated circuits, ...) ------
    def load_json(self, key: str):
        cached = self._memory.get(key)
        if cached is not None:
            self._record(True)
            return cached
        path = self.path(key, ".json")
        if path.exists():
            payload = json.loads(path.read_text())
            self._memory[key] = payload
            self._record(True)
            return payload
        self._record(False)
        return None

    def save_json(self, key: str, payload) -> None:
        self._memory[key] = payload
        self._atomic_write(
            self.path(key, ".json"),
            lambda p: pathlib.Path(p).write_text(canonical_json(payload)),
        )

    # -- maintenance ----------------------------------------------------
    def stats(self) -> dict:
        files = [p for p in self.root.iterdir() if p.is_file()]
        return {
            "root": str(self.root),
            "entries": len(files),
            "bytes": sum(p.stat().st_size for p in files),
            "hits": self.hits,
            "misses": self.misses,
        }

    def clear(self) -> int:
        """Delete every stored artifact; returns the number removed.

        Only files matching the store's own ``<kind>-<32 hex>`` key
        naming are touched, so pointing ``--cache-dir`` at a directory
        with unrelated ``.json``/``.npz`` files cannot destroy them.
        """
        removed = 0
        for path in self.root.iterdir():
            if (path.is_file() and path.suffix in {".npz", ".json"}
                    and _KEY_RE.fullmatch(path.stem)):
                path.unlink()
                removed += 1
        self._memory.clear()
        return removed

    def _atomic_write(self, path: pathlib.Path, writer) -> None:
        """Write via a same-directory temp file + rename so concurrent
        sessions never observe a half-written artifact.

        Writers that derive their own filename (``np.savez`` appends
        ``.npz`` to a suffix-less path) emit next to the mkstemp
        placeholder rather than into it; the derived file -- when it
        exists -- is therefore always the real artifact and the
        placeholder is empty, never the other way around.  The data and
        the rename are fsynced so a crash right after ``os.replace``
        cannot leave an empty (or truncated) file under the final name.
        """
        fd, tmp = tempfile.mkstemp(
            dir=self.root, prefix=path.stem, suffix=path.suffix
        )
        os.close(fd)
        derived = tmp + ".npz"
        try:
            writer(tmp)
            produced = derived if os.path.exists(derived) else tmp
            with open(produced, "rb") as handle:
                os.fsync(handle.fileno())
            os.replace(produced, path)
            dir_fd = os.open(self.root, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        finally:
            for leftover in (tmp, derived):
                if os.path.exists(leftover):
                    os.unlink(leftover)
