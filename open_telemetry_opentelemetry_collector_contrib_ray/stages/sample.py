"""Deterministic hash samplers.

Reference: probabilisticsamplerprocessor for logs
(/root/reference/processor/probabilisticsamplerprocessor/
logsprocessor.go:122-141,211-260): hash of trace-id or a configured
attribute + seed, compared against sampling_percentage.  Deterministic:
the same record always gets the same verdict — embarrassingly parallel.

This engine hashes with md5 (lower 64 bits, little-endian — bit-exact
with DuckDB's ``md5_number_lower`` so the correctness oracle can
reproduce the verdicts in SQL), scaled to a 0..9999 bucket like the
reference's percent*100 threshold space.

Stanza's probabilistic drop_ratio filter
(pkg/stanza/operator/transformer/filter/config.go:44-67) is the same
mechanism with drop semantics inverted.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def hash64(data, cols=None, seed: int = 0) -> np.ndarray:
    """Vectorized deterministic 64-bit hash for INTERNAL shuffle bucketing.

    `data` is a pyarrow Array/ChunkedArray (single key) or a pyarrow Table
    with `cols` naming the key columns (multi-column keys hash row-wise,
    no string concatenation).  Uses polars' Rust hash kernels — zero
    Python objects, ~200x faster than a per-row md5 loop — and is
    deterministic across processes for a fixed polars version, which is
    all bucketing needs (every task in a job agrees on the bucket of a
    key).  Oracle-visible hashes (ProbabilisticSampler, HashBucketStage)
    must keep md5 for bit-parity with DuckDB's md5_number_lower; never
    swap this in there.
    """
    try:
        import os as _os

        # one Rust thread per Ray worker: polars defaults its pool to ALL
        # cores PER PROCESS, so 32 single-cpu Ray tasks would run 32x32
        # threads and thrash the node (must be set before first import;
        # GRAFT_POLARS_CAP=0 opts out, same switch as the package init)
        if _os.environ.get("GRAFT_POLARS_CAP", "1") == "1":
            _os.environ.setdefault("POLARS_MAX_THREADS", "1")
        import polars as pl
    except ImportError:  # pragma: no cover - polars is baked into the env
        import pandas as pd

        if isinstance(data, pa.Table):
            out = np.zeros(data.num_rows, dtype=np.uint64)
            for c in cols:
                out = out * np.uint64(1099511628211) ^ pd.util.hash_array(
                    data.column(c).to_numpy(zero_copy_only=False))
            return out
        return pd.util.hash_array(np.asarray(data.to_numpy(zero_copy_only=False)))
    if isinstance(data, pa.Table):
        df = pl.from_arrow(data.select(list(cols)))
        return df.hash_rows(seed=seed).to_numpy()
    if isinstance(data, pa.ChunkedArray) and data.num_chunks != 1:
        data = data.combine_chunks()
    return pl.from_arrow(data).hash(seed=seed).to_numpy()


def bucket_column(data, n_buckets: int, cols=None) -> pa.Array:
    """hash64 % n_buckets as an int32 arrow array (the shuffle key).

    A table keyed by ONE column buckets exactly as that column does, so
    each key has a single bucket function whichever form the caller
    passes."""
    if isinstance(data, pa.Table) and cols is not None and len(cols) == 1:
        data, cols = data.column(cols[0]), None
    n = data.num_rows if isinstance(data, pa.Table) else len(data)
    if n == 0:
        return pa.array([], pa.int32())
    b = (hash64(data, cols) % np.uint64(n_buckets)).astype(np.int32)
    return pa.array(b)


def _md5_lower64(values: list) -> np.ndarray:
    out = np.empty(len(values), dtype=np.uint64)
    md5 = hashlib.md5
    for i, s in enumerate(values):
        if s is None:
            out[i] = 0
        else:
            out[i] = int.from_bytes(md5(str(s).encode()).digest()[8:16], "little")
    return out


_FNV32_OFFSET = 2166136261
_FNV32_PRIME = 16777619


def fnv1a32(data: bytes, h: int = _FNV32_OFFSET) -> int:
    """FNV-1a 32-bit (hash/fnv parity with fnvhasher.go:12-18)."""
    for b in data:
        h = ((h ^ b) * _FNV32_PRIME) & 0xFFFFFFFF
    return h


def _fnv32_values(vals: list, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """computeHash(le32(seed) ++ bytes(value)) per row, vectorized
    column-wise over a padded byte matrix (rows iterate BYTE POSITIONS,
    not records — max-len passes over the whole batch at once).

    Returns (uint32 hashes, valid mask).  Null/empty values are invalid:
    getBytesFromValue yields no bytes, which the reference treats as
    missing randomness -> never sampled (logsprocessor.go:136-144)."""
    import struct

    h0 = fnv1a32(struct.pack("<I", seed & 0xFFFFFFFF))
    bs = [v if isinstance(v, (bytes, bytearray)) else
          (str(v).encode() if v is not None else b"") for v in vals]
    n = len(bs)
    lens = np.fromiter((len(b) for b in bs), dtype=np.int64, count=n)
    valid = lens > 0
    total = int(lens.sum())
    h = np.full(n, h0, dtype=np.uint32)
    if total == 0:
        return h, valid
    maxlen = int(lens.max())
    # the padded matrix costs n * maxlen: fine for id-like attributes
    # (the reference hashes trace ids / small attrs), but ONE huge value
    # in a batch would inflate every row's cost — hash outliers row-wise
    cap = 256
    if maxlen > cap and n > 1:
        big = np.nonzero(lens > cap)[0]
        for i in big:
            hh = h0
            for byte in bs[i]:
                hh = ((hh ^ byte) * _FNV32_PRIME) & 0xFFFFFFFF
            h[i] = hh
        small = np.nonzero(lens <= cap)[0]
        if small.size:
            hs, _ = _fnv32_values([bs[i] for i in small], seed)
            h[small] = hs
        return h, valid
    flat = np.frombuffer(b"".join(bs), dtype=np.uint8)
    starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
    rowidx = np.repeat(np.arange(n, dtype=np.int64), lens)
    colidx = np.arange(total, dtype=np.int64) - np.repeat(starts, lens)
    mat = np.zeros((n, maxlen), dtype=np.uint8)
    mat[rowidx, colidx] = flat
    prime = np.uint32(_FNV32_PRIME)
    with np.errstate(over="ignore"):
        for j in range(maxlen):
            m = j < lens
            h[m] = (h[m] ^ mat[m, j].astype(np.uint32)) * prime
    return h, valid


class ProbabilisticSampler:
    """Keep rows where md5_lower64(attr) % 10000 < percentage*100
    (mode="md5", the DuckDB-replayable default), or reference-bit-parity
    mode="fnv": FNV-1a32 over le32(hash_seed) ++ value bytes, low 14
    bits compared against uint32(float32(pct) * float32(16384/100)) —
    the exact legacy HashSeed path (fnvhasher.go:12-18,
    sampler_mode.go:420-455: 32-bit multiply, round toward zero)."""

    def __init__(self, percentage: float, attribute_source: str = "conv_id",
                 invert: bool = False, mode: str = "md5", hash_seed: int = 0):
        if mode not in ("md5", "fnv"):
            raise ValueError(f"unknown sampler mode {mode!r}")
        self.threshold = int(round(percentage * 100))  # 0..10000 space; round
        # (0.29*100 float-truncates to 28 and silently under-samples)
        # fnv mode preserves the reference's truncating float32 multiply
        self.scaled = int(np.float32(percentage) * np.float32(0x4000 / 100.0))
        self.attribute_source = attribute_source
        self.invert = invert
        self.mode = mode
        self.hash_seed = hash_seed

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        col = batch.column(self.attribute_source)
        vals = col.to_pylist()
        if self.mode == "fnv":
            h, notnull = _fnv32_values(vals, self.hash_seed)
            # scaled == 0 -> neverSampler (sampler_mode.go:438-440)
            keep = (h & np.uint32(0x3FFF)) < np.uint32(self.scaled) \
                if self.scaled else np.zeros(len(vals), dtype=bool)
        else:
            buckets = _md5_lower64(vals) % np.uint64(10000)
            keep = buckets < self.threshold
            # null keys never pass: DuckDB's md5_number_lower(NULL) is
            # NULL and a NULL WHERE filters the row in either polarity
            notnull = np.array([v is not None for v in vals], dtype=bool)
        if self.invert:
            keep = ~keep
        return batch.filter(pa.array(keep & notnull))


_TH_BITS = 56
_TH_MAX = 1 << _TH_BITS


def threshold_from_probability(p: float) -> int:
    """OTEP-235 rejection threshold T in [0, 2^56): keep when the 56-bit
    randomness R >= T, so P(keep) = 1 - T/2^56.  Matches the reference
    sampler's threshold space (probabilisticsamplerprocessor
    sampler_mode.go OTEP-235 modes)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("probability must be in [0, 1]")
    return min(_TH_MAX - 1, int(round((1.0 - p) * _TH_MAX)))


def probability_from_threshold(t: int) -> float:
    return 1.0 - t / _TH_MAX


def encode_th(t: int) -> str:
    """Threshold -> tracestate value: 14 hex digits, trailing zeros
    trimmed ('0' = always sample)."""
    if not 0 <= t < _TH_MAX:
        raise ValueError("threshold out of range")
    return format(t, "014x").rstrip("0") or "0"


def decode_th(s: str) -> int:
    if not (1 <= len(s) <= 14):
        raise ValueError(f"bad th encoding {s!r}")
    return int(s.ljust(14, "0"), 16)


class Otep235Sampler:
    """Consistent-probability sampler with tracestate threshold encoding
    (OTEP-235; reference probabilisticsamplerprocessor 'equalizing' /
    'proportional' modes).

    Randomness R = lower 56 bits of md5(key) — deterministic per record
    and DuckDB-replayable (md5_number_lower >> 8).  Keep iff R >= T.

    - equalizing: T comes from `percentage` alone; records that arrive
      with a LOWER incoming probability (th column, already-sampled
      upstream) keep their stricter threshold — final T = max(T_in, T_cfg)
      per the spec's "cannot un-sample" rule.
    - proportional: effective p = p_in * p_cfg (T composes
      multiplicatively on the keep side).

    Survivors get an `out_th` column with the final encoded threshold
    (`ot=th:<v>` goes on the wire; the bare value is stored so the
    column is directly comparable)."""

    def __init__(self, percentage: float, key: str = "conv_id",
                 mode: str = "equalizing", th_col: str | None = None,
                 out_th: str = "sampling_th"):
        if mode not in ("equalizing", "proportional"):
            raise ValueError(f"unknown mode {mode!r}")
        self.t_cfg = threshold_from_probability(percentage / 100.0)
        self.key, self.mode = key, mode
        self.th_col, self.out_th = th_col, out_th

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            # keep one schema across all blocks: empty blocks still carry
            # the sampling_th column or a downstream select() fails
            return batch.append_column(
                self.out_th, pa.array([], pa.string()))
        vals = batch.column(self.key).to_pylist()
        r = _md5_lower64(vals) >> np.uint64(64 - _TH_BITS)
        if self.th_col and self.th_col in batch.column_names:
            t_in = np.array([decode_th(s) if s else 0
                             for s in batch.column(self.th_col).to_pylist()],
                            dtype=np.uint64)
        else:
            t_in = np.zeros(batch.num_rows, dtype=np.uint64)
        if self.mode == "equalizing":
            t_fin = np.maximum(t_in, np.uint64(self.t_cfg))
        else:  # proportional: p = p_in * p_cfg
            p = (1.0 - t_in / float(_TH_MAX)) * \
                (1.0 - self.t_cfg / float(_TH_MAX))
            t_fin = np.minimum(_TH_MAX - 1,
                               np.rint((1.0 - p) * _TH_MAX)).astype(np.uint64)
        notnull = np.array([v is not None for v in vals], dtype=bool)
        keep = (r >= t_fin) & notnull
        out = batch.filter(pa.array(keep))
        ths = [encode_th(int(t)) for t, k in zip(t_fin, keep) if k]
        return out.append_column(self.out_th, pa.array(ths, pa.string()))


class DatasetSplitter:
    """Deterministic train/val/test assignment by content hash — the
    standard leakage-safe split (same key always lands in the same
    split, across runs and machines).  fractions: {label: weight},
    normalized; assignment = md5_lower64(key) % 10000 against cumulative
    boundaries, DuckDB-replayable like ProbabilisticSampler.  Keying by
    a GROUP id (conv_id, url host, cluster id) keeps near-duplicates on
    one side of the split."""

    def __init__(self, fractions: dict[str, float], key: str = "doc_id",
                 out_col: str = "split"):
        total = float(sum(fractions.values()))
        if total <= 0:
            raise ValueError("fractions must sum to > 0")
        self.labels = list(fractions)
        bounds, acc = [], 0.0
        for lb in self.labels:
            acc += fractions[lb] / total
            bounds.append(int(round(acc * 10000)))
        bounds[-1] = 10000
        self.bounds = np.asarray(bounds, dtype=np.int64)
        self.key, self.out_col = key, out_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        vals = batch.column(self.key).to_pylist()
        b = (_md5_lower64(vals) % np.uint64(10000)).astype(np.int64)
        idx = np.searchsorted(self.bounds, b, side="right")
        labels = np.asarray(self.labels, dtype=object)[idx]
        return batch.append_column(self.out_col,
                                   pa.array(labels, pa.string()))

    def sql_case(self, key_expr: str) -> str:
        """The DuckDB CASE expression replaying this assignment."""
        h = f"md5_number_lower(CAST({key_expr} AS VARCHAR)) % 10000"
        parts = [f"WHEN {h} < {hi} THEN '{lb}'"
                 for lb, hi in zip(self.labels, self.bounds)]
        return "CASE " + " ".join(parts) + " END"


class HashBucketStage:
    """Adds a stable hash-bucket column (loadbalancingexporter ring analog,
    exporter/loadbalancingexporter/consistent_hashing.go:11-50): the
    routing key for partitioned writes / co-located shuffles."""

    def __init__(self, source: str = "conv_id", num_buckets: int = 64,
                 out: str = "bucket"):
        self.source = source
        self.num_buckets = num_buckets
        self.out = out

    def __call__(self, batch: pa.Table) -> pa.Table:
        vals = batch.column(self.source).to_pylist()
        b = (_md5_lower64(vals) % np.uint64(self.num_buckets)).astype(np.int32)
        return batch.append_column(self.out, pa.array(b))


class ConsistentHashRing:
    """Consistent-hash ring routing, the loadbalancingexporter's placement
    algorithm (exporter/loadbalancingexporter/consistent_hashing.go:11-50:
    a 36000-position ring, each endpoint owning `weight` pseudo-randomly
    hashed positions; a record's key hashes to a position and routes to
    the next endpoint position clockwise).

    Unlike plain modulo bucketing (HashBucketStage), re-sharding is
    minimal: adding/removing an endpoint only remaps the keys whose ring
    arc changed owner (~1/n of the keyspace), which is the property that
    matters when a 256-node cluster loses a node mid-job.

    algo="md5" (default) hashes with the md5-lower-64 used across this
    engine's oracle-visible paths (DuckDB `md5_number_lower` can replay
    placement in SQL); algo="crc32" reproduces the reference ring
    bit-for-bit: position i of an endpoint is
    crc32_ieee(endpoint_bytes || single_byte(i)) % 36000
    (consistent_hashing.go positionsFor), a key routes via
    crc32(key_bytes) % 36000 to the next ring position clockwise
    (endpointFor/bsearch), and position collisions are FIRST-endpoint-
    wins in config order (positionsForEndpoints skips occupied
    positions).  Both modes use the same collision/lookup rules; only
    the hash differs.  Assignment is vectorized (np.searchsorted over
    the sorted ring); only the key hash itself is the per-row loop both
    DuckDB-parity paths already pay."""

    RING_SIZE = 36000

    def __init__(self, endpoints: list[str], weight: int = 100,
                 source: str = "conv_id", out: str = "endpoint",
                 algo: str = "md5"):
        if not endpoints:
            raise ValueError("need at least one endpoint")
        if algo == "crc32" and weight > 256:
            raise ValueError("crc32 mode appends position index as ONE byte "
                             "(reference parity) — weight must be <= 256")
        self.source = source
        self.out = out
        self.algo = algo
        pos2ep: dict[int, str] = {}
        for ep in endpoints:  # config order; first endpoint wins a collision
            for i in range(weight):
                pos = self._ring_hash(ep, i) % self.RING_SIZE
                pos2ep.setdefault(pos, ep)
        ring = sorted(pos2ep.items())
        self._ring_pos = np.array([p for p, _ in ring], dtype=np.uint64)
        self._ring_ep = np.array([e for _, e in ring], dtype=object)

    def _ring_hash(self, ep: str, i: int) -> int:
        if self.algo == "crc32":
            import zlib

            # crc32(endpoint || byte(i)) — consistent_hashing.go:104-117
            return zlib.crc32(ep.encode() + bytes([i & 0xFF]))
        return int(_md5_lower64([f"{ep}:{i}"])[0])

    def placements(self) -> list[tuple[int, str]]:
        """(position, endpoint) ring table — inline it into an oracle SQL
        VALUES list to replay placement in DuckDB."""
        return [(int(p), str(e)) for p, e in zip(self._ring_pos, self._ring_ep)]

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column(self.out, pa.array([], pa.string()))
        vals = batch.column(self.source).to_pylist()
        if self.algo == "crc32":
            import zlib

            kp = np.array([zlib.crc32(str(v).encode()) if v is not None else 0
                           for v in vals], dtype=np.uint64) % self.RING_SIZE
        else:
            kp = _md5_lower64(vals) % np.uint64(self.RING_SIZE)
        idx = np.searchsorted(self._ring_pos, kp, side="left")
        idx[idx == len(self._ring_pos)] = 0  # clockwise wrap
        eps = self._ring_ep[idx]
        return batch.append_column(self.out, pa.array(eps, pa.string()))


class SourceMixer:
    """Deterministic weighted source mixing with fractional epochs — the
    training-data "mixture weights" op (The Pile / Dolma style: each
    source s contributes weight[s] passes over its documents).

    weight w: every row is emitted floor(w) times (epoch = 0..floor(w)-1)
    plus one more copy at epoch floor(w) with probability frac(w),
    decided by the md5-lower-64 of "key:source:epoch" (bit-exact with
    DuckDB md5_number_lower, same verdict space as ProbabilisticSampler —
    the SAME row always gets the SAME epochs, across runs and engines).
    w = 0 drops the source; sources absent from `weights` default to 1.0.

    Map-only: no shuffle; each batch expands independently (output rows
    ~= input rows x mean weight, so batch_size should shrink when
    weights are large).
    """

    def __init__(self, weights: dict[str, float], source_col: str = "source",
                 key_col: str = "doc_id", epoch_col: str = "epoch",
                 default_weight: float = 1.0):
        for s, w in weights.items():
            if w < 0:
                raise ValueError(f"negative weight for {s!r}")
        self.weights = dict(weights)
        self.source_col = source_col
        self.key_col = key_col
        self.epoch_col = epoch_col
        self.default = float(default_weight)

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return batch.append_column(self.epoch_col, pa.array([], pa.int64()))
        src = batch.column(self.source_col).to_pylist()
        w = np.array([self.weights.get(s, self.default) if s is not None
                      else self.default for s in src], dtype=np.float64)
        full = np.floor(w).astype(np.int64)
        # threshold in the 0..9999 verdict space; round() keeps exact
        # decimal weights (0.25 -> 2500) free of float-repr drift
        thresh = np.round((w - full) * 10000).astype(np.int64)

        # whole epochs: row i repeated full[i] times, epoch 0..full[i]-1
        reps = np.repeat(np.arange(n), full)
        starts = np.concatenate([[0], np.cumsum(full)[:-1]])
        epochs = np.arange(reps.size, dtype=np.int64) - np.repeat(starts, full)

        # fractional epoch full[i]: deterministic per (key, source, epoch)
        cand = np.nonzero(thresh > 0)[0]
        if cand.size:
            keys = batch.column(self.key_col).to_pylist()
            tags = [f"{keys[i]}:{src[i]}:{full[i]}" for i in cand]
            verdict = (_md5_lower64(tags) % np.uint64(10000)).astype(np.int64)
            keep = cand[verdict < thresh[cand]]
            reps = np.concatenate([reps, keep])
            epochs = np.concatenate([epochs, full[keep]])
        out = batch.take(pa.array(reps, pa.int64()))
        return out.append_column(self.epoch_col, pa.array(epochs, pa.int64()))


def mix_sources(ds, weights: dict[str, float], **kw):
    """Dataset-level weighted mixing; see SourceMixer."""
    return ds.map_batches(SourceMixer(weights, **kw), batch_format="pyarrow")


_SHUFFLE_MOD = 1 << 62  # fits BIGINT, so the oracle CAST never overflows


def shuffle_key_column(batch: pa.Table, key_col: str, seed: int = 0) -> pa.Array:
    """md5-lower-64 of "key:seed" mod 2^62 as int64 — the deterministic
    shuffle rank, bit-exact with DuckDB
    ``md5_number_lower(concat(CAST(key AS VARCHAR), ':<seed>')) % 2^62``
    (DuckDB concat treats NULL as '', so a null key ranks at
    md5(':seed'), not 0)."""
    vals = batch.column(key_col).to_pylist()
    tags = [f":{seed}" if v is None else f"{v}:{seed}" for v in vals]
    r = (_md5_lower64(tags) % np.uint64(_SHUFFLE_MOD)).astype(np.int64)
    return pa.array(r, pa.int64())


def deterministic_shuffle(ds, key_col: str, seed: int = 0,
                          out_col: str = "shuffle_key"):
    """Run-stable global shuffle for training-data ordering: every row
    gets rank = md5(key:seed) mod 2^62 and the dataset sorts by
    (rank, key).  Changing `seed` yields an independent permutation;
    the same (corpus, seed) always yields the SAME order — across runs,
    engines, and resumes (unlike Dataset.random_shuffle, whose order
    depends on task scheduling).

    Scale shape: the sort is Ray's range-partitioned shuffle — one
    all-to-all pass, the unavoidable cost of a global permutation.  The
    md5 here is an intentionally oracle-visible per-row hash (the
    ProbabilisticSampler precedent); swap `shuffle_key_column` for the
    vectorized `hash64` when SQL parity isn't required.  For epoch-wise
    reshuffles keep ONE sorted copy and vary only `seed` in a cheap
    re-sort of (rank, pointer) pairs rather than re-shuffling payloads."""

    def add_key(t: pa.Table) -> pa.Table:
        return t.append_column(out_col, shuffle_key_column(t, key_col, seed))

    return ds.map_batches(add_key, batch_format="pyarrow") \
             .sort([out_col, key_col])


def weighted_sample(ds, n: int, weight_col: str, key_col: str = "doc_id",
                    seed: int = 0, group_cols=(), n_buckets: int = 64):
    """Deterministic weighted sampling without replacement
    (Efraimidis & Spirakis 2006 A-Res): each row gets
    es = ln(u) / weight with u = (md5(key:seed) mod 2^62 + 1) / 2^62,
    and the n LARGEST es win — inclusion probability proportional to
    weight, run-stable, and SQL-replayable term for term (md5 verdict
    space + libm ln + one division; the BM25 bitwise-float discipline).
    Rows with null/non-positive weight never win.

    With group_cols, n rows per group (per-batch pre-prune + one
    bucketed shuffle via grouped_top_k: at most n rows per group per
    batch ever shuffle); without, a per-batch top-n feeds a tiny global
    sort+limit.  The per-row md5+ln Python loop is the oracle-visible
    hash path (ProbabilisticSampler precedent)."""
    import math

    group_cols = list(group_cols)

    def add_es(t: pa.Table) -> pa.Table:
        keys = t.column(key_col).to_pylist()
        w = t.column(weight_col).to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        tags = [f":{seed}" if v is None else f"{v}:{seed}" for v in keys]
        m = (_md5_lower64(tags) % np.uint64(_SHUFFLE_MOD)).astype(np.int64)
        es = np.empty(len(keys))
        for i in range(len(keys)):
            u = float(m[i] + 1) / float(_SHUFFLE_MOD)
            es[i] = math.log(u) / w[i] if w[i] > 0 else -math.inf
        ok = np.isfinite(es)
        return t.filter(pa.array(ok)).append_column(
            "__es", pa.array(es[ok], pa.float64()))

    scored = ds.map_batches(add_es, batch_format="pyarrow")
    if group_cols:
        from .aggregate import grouped_top_k

        out = grouped_top_k(scored, group_cols, ["__es", key_col], n,
                            descending=[True, False], n_buckets=n_buckets)
        return out.map_batches(lambda t: t.drop_columns(["__es"]),
                               batch_format="pyarrow")

    def prune(t: pa.Table) -> pa.Table:
        idx = pc.sort_indices(
            t.select(["__es", key_col]),
            sort_keys=[("__es", "descending"), (key_col, "ascending")])
        return t.take(idx[:n])

    return scored.map_batches(prune, batch_format="pyarrow") \
        .sort(["__es", key_col], descending=[True, False]).limit(n) \
        .map_batches(lambda t: t.drop_columns(["__es"]),
                     batch_format="pyarrow")


_RB_SHIFT = 46  # rank < 2^62 -> 2^16 histogram buckets


def budget_sample(ds, budgets: dict[str, int], token_col: str,
                  source_col: str = "source", key_col: str = "doc_id",
                  seed: int = 0, default_budget: int | None = None,
                  strategy: str = "histogram", n_buckets: int = 64):
    """Token-budget-capped mixture sampling: per source, take documents
    in deterministic md5(key:seed) order until the source's token budget
    is exhausted (a doc is kept iff the cumulative token count THROUGH
    it stays <= budget — docs after the budget line drop, no partial
    docs).  The "sample X tokens per domain" recipe (Pile/Dolma-style
    budgeted mixtures), run-stable and SQL-replayable.

    Sources absent from `budgets` keep everything unless
    `default_budget` is set.

    strategy="histogram" (default, the 100 TB path): the distributed
    exact first-N-by-order.  Pass 1 shuffles ONLY a per-batch (source,
    rank-bucket, token-sum) histogram (kilobytes); the driver locates
    each source's boundary rank-bucket; pass 2 reads back ONLY the
    boundary-bucket rows (~corpus/2^16) to fix the exact cutoff
    (rank, key); pass 3 filters map-side against broadcast cutoffs.
    Rows never shuffle and no single task ever holds a whole source —
    the co-locating strategy="shuffle" fallback does (one domain of a
    web corpus can be terabytes), so it exists only for A/B testing."""
    if strategy == "shuffle":
        return _budget_sample_shuffle(ds, budgets, token_col, source_col,
                                      key_col, seed, default_budget,
                                      n_buckets)

    def add_rank(t: pa.Table) -> pa.Table:
        return t.append_column("__rank", shuffle_key_column(t, key_col, seed))

    def limit_of(src):
        if src in budgets:
            return budgets[src]
        return default_budget  # None = uncapped

    # pass 1: (source, rank_bucket) -> token sum, combined per batch
    def hist(t: pa.Table) -> pa.Table:
        t = add_rank(t)
        rb = pc.bit_wise_and(
            pc.shift_right(t.column("__rank"), _RB_SHIFT),
            pa.scalar(0xFFFF, pa.int64()))
        g = pa.table({source_col: t.column(source_col), "__rb": rb,
                      token_col: t.column(token_col)}) \
            .group_by([source_col, "__rb"]).aggregate([(token_col, "sum")])
        # bind by NAME — pyarrow group_by column order (keys vs aggregates
        # first) varies across versions; positional rename would silently
        # mis-bind source/bucket/token and corrupt the budget cutoffs
        return pa.table({source_col: g.column(source_col),
                         "__rb": g.column("__rb"),
                         "__tok": g.column(f"{token_col}_sum")})

    # driver combine via plain dicts — a NULL source is its own group
    # (pandas MultiIndex .loc[NaN] is a KeyError trap)
    import pandas as pd

    parts = ds.map_batches(hist, batch_format="pyarrow").to_pandas()
    per_src: dict = {}      # source (None ok) -> {rank_bucket: tokens}
    for src, rb, tok in parts.itertuples(index=False):
        skey = None if pd.isna(src) else src
        per_src.setdefault(skey, {})[int(rb)] = \
            per_src.get(skey, {}).get(int(rb), 0) + int(tok)

    boundary: dict = {}     # source -> (boundary_rb, tokens_before)
    keep_all_below: dict = {}   # source -> boundary_rb (rb < this keeps)
    for src, h in per_src.items():
        lim = limit_of(src)
        if lim is None:
            continue
        cum = 0
        for rb in sorted(h):
            if cum + h[rb] > lim:
                keep_all_below[src] = rb
                boundary[src] = (rb, cum)
                break
            cum += h[rb]
        else:                   # whole source fits the budget
            keep_all_below[src] = 1 << 16

    def _codes_and_values(col):
        """Dictionary-encode with nulls as code -1 (kept OUT of the
        dictionary by arrow, so give them an explicit slot)."""
        enc = col.combine_chunks().dictionary_encode()
        codes = enc.indices.fill_null(-1) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        return codes, enc.dictionary.to_pylist()

    # pass 2: exact cutoff inside each boundary bucket (tiny row count)
    cutoffs: dict = {}      # source -> (rank, key) of the LAST kept row
    if boundary:
        b_map = {s: rb for s, (rb, _) in boundary.items()}

        def edge_rows(t: pa.Table) -> pa.Table:
            t = add_rank(t)
            rb = pc.bit_wise_and(
                pc.shift_right(t.column("__rank"), _RB_SHIFT),
                pa.scalar(0xFFFF, pa.int64())).to_numpy(zero_copy_only=False)
            codes, vals = _codes_and_values(t.column(source_col))
            # boundary bucket per code (-1 = source unbudgeted); the
            # trailing slot serves the null code via -1 indexing
            want = np.asarray([b_map.get(s, -1) for s in vals]
                              + [b_map.get(None, -1)], dtype=np.int64)
            t = t.filter(pa.array(want[codes] == rb))
            return t.select([source_col, "__rank", key_col, token_col])

        edges = ds.map_batches(edge_rows, batch_format="pyarrow").to_pandas()
        for src, g in edges.groupby(source_col, sort=False, dropna=False):
            skey = None if pd.isna(src) else src
            lim = limit_of(skey)
            g = g.sort_values(["__rank", key_col], kind="stable")
            cum = boundary[skey][1] + g[token_col].cumsum()
            kept = g[cum <= lim]
            if len(kept):
                cutoffs[skey] = (int(kept["__rank"].iloc[-1]),
                                 kept[key_col].iloc[-1])

    # pass 3: map-side filter against the broadcast decision table.
    # Vectorized per distinct source in the batch; only md5-rank TIES
    # with the cutoff row (measure-zero) fall back to a row loop.
    def final(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        t2 = add_rank(t)
        rank = t2.column("__rank").to_numpy(zero_copy_only=False)
        rb = (rank >> _RB_SHIFT) & 0xFFFF
        codes, vals = _codes_and_values(t2.column(source_col))
        keep = np.ones(t.num_rows, dtype=bool)
        keys = None
        for code, s in list(enumerate(vals)) + [(-1, None)]:
            if limit_of(s) is None:
                continue
            m = codes == code
            b = keep_all_below.get(s, 0)
            cut = cutoffs.get(s)
            k = rb < b
            if cut is not None:
                cr, ck = cut
                at = m & (rb == b)
                k = k | (at & (rank < cr))
                for i in np.flatnonzero(at & (rank == cr)):
                    if keys is None:
                        keys = t2.column(key_col).to_pylist()
                    k[i] = keys[i] <= ck
            keep[m] = k[m]
        return t.filter(pa.array(keep))

    return ds.map_batches(final, batch_format="pyarrow")


def _budget_sample_shuffle(ds, budgets, token_col, source_col, key_col,
                           seed, default_budget, n_buckets):
    """Co-locating fallback: ONE bucketed shuffle per source + cumsum.
    Identical results to the histogram path; kept for A/B testing only
    (a single hot source lands whole in one reduce task)."""
    from .aggregate import bucketed_group_transform

    def add_rank(t: pa.Table) -> pa.Table:
        return t.append_column("__rank", shuffle_key_column(t, key_col, seed))

    ranked = ds.map_batches(add_rank, batch_format="pyarrow")

    def cap(g):
        g = g.sort_values([source_col, "__rank", key_col], kind="stable")
        cum = g.groupby(source_col, sort=False, dropna=False)[token_col].cumsum()
        limit = g[source_col].map(budgets)
        if default_budget is not None:
            limit = limit.fillna(default_budget)
        keep = limit.isna() | (cum <= limit)
        return g[keep.to_numpy(dtype=bool)].drop(columns="__rank")

    return bucketed_group_transform(ranked, [source_col], cap, n_buckets)


def temperature_mix(ds, total_tokens: int, token_col: str,
                    source_col: str = "source", key_col: str = "doc_id",
                    alpha: float = 0.5, seed: int = 0,
                    strategy: str = "histogram", n_buckets: int = 64):
    """Temperature-based source mixing (the GPT-3 / LLaMA pretraining
    recipe): each source's token budget is proportional to its size
    raised to alpha < 1, up-weighting small domains relative to raw
    proportions.  budget_s = total_tokens * floor(n_s^alpha) //
    sum_t floor(n_t^alpha) — the weights FLOOR to integers so the whole
    budget computation is exact int64 arithmetic (SQL-replayable; for
    the default alpha=0.5 the weight is floor(sqrt(n_s)), bit-identical
    to any correctly-rounded sqrt).  Sampling then delegates to
    budget_sample's distributed first-N-by-deterministic-order
    (histogram strategy: rows never shuffle).

    Two cheap aggregate passes over `ds` (per-source totals, then the
    budget histogram) — both kilobyte exchanges; the corpus itself is
    read twice and shuffled never."""
    import pandas as pd

    def per_source(t: pa.Table) -> pa.Table:
        g = pa.table({source_col: t.column(source_col),
                      token_col: t.column(token_col)}) \
            .group_by([source_col]).aggregate([(token_col, "sum")])
        return pa.table({source_col: g.column(source_col),
                         "__tok": g.column(f"{token_col}_sum")})

    parts = ds.map_batches(per_source, batch_format="pyarrow").to_pandas()
    totals: dict = {}
    for src, tok in parts.itertuples(index=False):
        skey = None if pd.isna(src) else src
        totals[skey] = totals.get(skey, 0) + int(tok)
    if alpha == 0.5:
        weights = {s: int(np.floor(np.sqrt(float(n))))
                   for s, n in totals.items()}
    else:
        weights = {s: int(np.floor(float(n) ** alpha))
                   for s, n in totals.items()}
    wsum = sum(weights.values())
    budgets = {s: (int(total_tokens) * w) // wsum if wsum else 0
               for s, w in weights.items()}
    return budget_sample(ds, budgets, token_col, source_col=source_col,
                         key_col=key_col, seed=seed, strategy=strategy,
                         n_buckets=n_buckets)
