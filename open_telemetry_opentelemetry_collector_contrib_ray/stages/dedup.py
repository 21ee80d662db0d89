"""Deduplication suite for large-scale training-data pipelines.

Exact dedup lives in aggregate.dedup_exact (hash-partition + per-group
first, the logdedup analog).  This module adds the near-duplicate
family — each designed Ray-Data-first:

- MinHash + LSH:  shingle -> minhash signature (vectorized numpy
  universal hashing) per batch -> explode to (band_id, band_hash,
  doc_id) rows -> groupby bands (the ONLY shuffle, and it moves just
  ids+hashes, never documents) -> candidate pairs -> estimated Jaccard
  verify from signatures.
- SimHash: 64-bit signature per doc; banded into 16-bit chunks for the
  same bucket-groupby candidate generation; Hamming-distance verify.
- n-gram Jaccard verify: exact similarity for a (small) candidate set,
  texts broadcast via ray.put.
- Embedding cosine near-dup: random-hyperplane LSH buckets, pairwise
  cosine inside buckets.

At 100 TB the signature tables are ~1000x smaller than the corpus, so
every shuffle here is over signatures, not text.
"""

from __future__ import annotations

import re
from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .aggregate import arrow_out, bucketed_group_transform

_MERSENNE = (1 << 61) - 1
_TOKEN_RE = re.compile(r"\w+", re.UNICODE)


class _TokenHasher:
    """md5-based 64-bit token hashes with a per-worker cache (natural-text
    vocabularies are tiny relative to token counts, so the md5 cost
    amortizes to ~zero after warmup)."""

    def __init__(self):
        self.cache: dict[str, int] = {}

    def __call__(self, toks: list[str]) -> np.ndarray:
        import hashlib

        cache = self.cache
        out = np.empty(len(toks), dtype=np.uint64)
        for i, t in enumerate(toks):
            h = cache.get(t)
            if h is None:
                h = int.from_bytes(hashlib.md5(t.encode()).digest()[8:16], "little")
                cache[t] = h
            out[i] = h
        return out


_P1, _P2, _P3 = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xC2B2AE3D27D4EB4F),
                 np.uint64(0x165667B19E3779F9))


def _shingle_hashes(text: str, w: int = 3,
                    token_hasher: _TokenHasher | None = None) -> np.ndarray:
    """Distinct w-word shingle hashes (uint64) of one document —
    vectorized rolling combine over cached token hashes (no per-shingle
    string building or hashing)."""
    toks = _TOKEN_RE.findall(text.lower())
    th = token_hasher or _TokenHasher()
    if not toks:
        return np.zeros(1, dtype=np.uint64)
    h = th(toks)
    if len(h) < w:
        # python-int math: np scalar multiply emits overflow warnings even
        # though uint64 wraparound is the intended behavior
        acc = 0xCBF29CE484222325
        for v in h:
            acc = ((acc ^ int(v)) * int(_P1)) & 0xFFFFFFFFFFFFFFFF
        return np.array([acc], dtype=np.uint64)
    # position-salted xor combine of w consecutive token hashes (any w >= 1)
    salts = [_P1, _P2, _P3] + [np.uint64(2 * j + 1) for j in range(3, w)]
    m = len(h) - w + 1
    sh = np.zeros(m, dtype=np.uint64)
    for j in range(w):
        sh = sh ^ (h[j:j + m] * salts[j])
    return np.unique(sh)


class MinHasher:
    """Per-batch minhash signatures (stateful stage: permutation params
    generated once from a fixed seed in __init__ — actor-pool friendly)."""

    def __init__(self, num_perm: int = 128, shingle_w: int = 3,
                 id_col: str = "doc_id", text_col: str = "text", seed: int = 7):
        rng = np.random.RandomState(seed)
        self.a = rng.randint(1, _MERSENNE, size=num_perm, dtype=np.uint64)
        self.b = rng.randint(0, _MERSENNE, size=num_perm, dtype=np.uint64)
        self.num_perm = num_perm
        self.shingle_w = shingle_w
        self.id_col = id_col
        self.text_col = text_col
        self.token_hasher = _TokenHasher()

    def signature(self, text: str) -> np.ndarray:
        h = _shingle_hashes(text, self.shingle_w, self.token_hasher)
        # universal hashing (a*x + b) mod p, min over shingles, per permutation
        vals = (self.a[None, :] * h[:, None] + self.b[None, :]) % _MERSENNE
        return vals.min(axis=0).astype(np.uint64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.text_col).to_pylist()
        ids = batch.column(self.id_col)
        sigs = np.stack([self.signature(t or "") for t in texts]) if texts else \
            np.zeros((0, self.num_perm), dtype=np.uint64)
        return pa.table({
            self.id_col: ids,
            "minhash": pa.FixedSizeListArray.from_arrays(
                pa.array(sigs.reshape(-1), type=pa.uint64()), self.num_perm),
        })


class BandExploder:
    """signature row -> one row per LSH band: (band_id, band_hash, id)."""

    def __init__(self, num_perm: int = 128, bands: int = 32, id_col: str = "doc_id"):
        assert num_perm % bands == 0
        self.bands = bands
        self.rows_per_band = num_perm // bands
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return pa.table({self.id_col: batch.column(self.id_col),
                             "band_id": pa.array([], pa.int32()),
                             "band_hash": pa.array([], pa.uint64())})
        sigs = np.asarray(batch.column("minhash").combine_chunks().flatten()) \
            .reshape(n, -1)
        r = self.rows_per_band
        # hash each band's r values to one uint64 (vectorized mix)
        band_vals = sigs.reshape(n, self.bands, r)
        mix = np.uint64(0xff51afd7ed558ccd)
        h = np.zeros((n, self.bands), dtype=np.uint64)
        for j in range(r):
            h = (h ^ band_vals[:, :, j]) * mix
        ids = np.repeat(np.asarray(batch.column(self.id_col)), self.bands)
        band_id = np.tile(np.arange(self.bands, dtype=np.int32), n)
        return pa.table({self.id_col: pa.array(ids),
                         "band_id": pa.array(band_id),
                         "band_hash": pa.array(h.reshape(-1))})


def minhash_lsh_pairs(ds, id_col: str = "doc_id", text_col: str = "text",
                      num_perm: int = 128, bands: int = 32, shingle_w: int = 3,
                      threshold: float = 0.7):
    """Near-duplicate candidate pairs with minhash-estimated Jaccard.

    Returns Dataset(doc_a, doc_b, est_jaccard) with est_jaccard >= threshold.
    """
    sigs = ds.map_batches(
        MinHasher, fn_constructor_kwargs=dict(num_perm=num_perm, shingle_w=shingle_w,
                                              id_col=id_col, text_col=text_col),
        batch_format="pyarrow", concurrency=(1, 8))
    # carry signatures through the band shuffle so the verify step needs no join
    exploded = sigs.map_batches(_BandsWithSig(num_perm, bands, id_col),
                                batch_format="pyarrow")

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                              "doc_b": pd.Series([], dtype="int64"),
                              "est_jaccard": pd.Series([], dtype="float64")})
        if len(g) < 2:
            return empty
        g = g.drop_duplicates(subset=["band_id", "band_hash", id_col])
        sizes = g.groupby(["band_id", "band_hash"])[id_col].transform("size")
        g = g[sizes >= 2]
        if g.empty:
            return empty
        out_a, out_b, est = [], [], []
        for _, sub in g.groupby(["band_id", "band_hash"], sort=False):
            sub = sub.sort_values(id_col)
            ids = sub[id_col].to_numpy()
            sig = np.stack(sub["minhash"].to_numpy())
            for i in range(len(ids)):
                eq = (sig[i + 1:] == sig[i]).mean(axis=1)
                hit = np.nonzero(eq >= threshold)[0]
                for j in hit:
                    out_a.append(ids[i])
                    out_b.append(ids[i + 1 + j])
                    est.append(float(eq[j]))
        return pd.DataFrame({"doc_a": out_a, "doc_b": out_b, "est_jaccard": est})

    # shuffle by hash-bucket of the band key, NOT one group per band:
    # inside a bucket, singleton bands are dropped vectorized and only the
    # (rare) multi-doc bands loop — thousands of python calls become ~16
    cand = bucketed_group_transform(exploded, ["band_id", "band_hash"],
                                    pairs_in_bucket, 16)
    return _dedupe_pairs(cand)


class _BandsWithSig(BandExploder):
    """BandExploder that also carries the signature list per row."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = super().__call__(batch)
        n = batch.num_rows
        if n == 0:
            return out.append_column("minhash", batch.column("minhash"))
        sigs = np.asarray(batch.column("minhash").combine_chunks().flatten()) \
            .reshape(n, -1)
        rep = np.repeat(sigs, self.bands, axis=0)
        return out.append_column(
            "minhash", pa.FixedSizeListArray.from_arrays(
                pa.array(rep.reshape(-1), type=pa.uint64()), sigs.shape[1]))


def _dedupe_pairs(cand, pair: Sequence[str] = ("doc_a", "doc_b"),
                  n_buckets: int = 16):
    """A pair can surface from several bands/chunks: drop duplicates with
    one bucketed shuffle + a vectorized drop_duplicates per bucket (never
    one python call per pair)."""
    pair = list(pair)
    return bucketed_group_transform(
        cand, pair[:1], lambda g: g.drop_duplicates(subset=pair), n_buckets)


# ------------------------------------------------------------------ simhash


class SimHasher:
    """64-bit SimHash per document (token-hash sign aggregation)."""

    def __init__(self, id_col: str = "doc_id", text_col: str = "text"):
        self.id_col = id_col
        self.text_col = text_col
        self.token_hasher = _TokenHasher()

    def simhash64(self, text: str) -> int:
        toks = _TOKEN_RE.findall(text.lower())
        if not toks:
            return 0
        h = self.token_hasher(toks)  # (n_tok,) uint64
        bits = (h[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)
        acc = (2 * bits.astype(np.int64) - 1).sum(axis=0)
        # distinct powers of two: the uint64 sum cannot wrap
        return int((np.uint64(1) << np.arange(64, dtype=np.uint64))
                   [acc > 0].sum())

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.text_col).to_pylist()
        sigs = np.array([self.simhash64(t or "") for t in texts], dtype=np.uint64)
        return pa.table({self.id_col: batch.column(self.id_col),
                         "simhash": pa.array(sigs)})


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a uint64 vector: byte view -> unpackbits
    -> row sum (no per-element Python `bin().count`)."""
    if x.size == 0:
        return np.zeros(0, dtype=np.int64)
    return np.unpackbits(np.ascontiguousarray(x).view(np.uint8)
                         .reshape(-1, 8), axis=1).sum(axis=1).astype(np.int64)


def simhash_pairs(ds, id_col: str = "doc_id", text_col: str = "text",
                  max_hamming: int = 3, max_bucket: int = 100_000):
    """Near-dup pairs by SimHash: band the 64-bit signature into 4 x 16-bit
    chunks (a pair within Hamming distance 3 must agree on >=1 chunk),
    bucket-groupby, verify Hamming distance inside buckets (vectorized
    XOR + popcount per anchor — no per-pair Python).

    max_bucket caps one band bucket's membership (deterministic: lowest
    ids kept) so a degenerate corpus (one signature dominating a 16-bit
    chunk) cannot make a single reduce task quadratic-explode; a capped
    bucket logs a warning with the dropped-row count (recall loss is
    confined to that bucket)."""
    sigs = ds.map_batches(SimHasher(id_col=id_col, text_col=text_col),
                          batch_format="pyarrow")

    def explode(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        s = np.asarray(batch.column("simhash"))
        chunks = np.stack([(s >> np.uint64(16 * i)) & np.uint64(0xFFFF)
                           for i in range(4)], axis=1)
        ids = np.repeat(np.asarray(batch.column(id_col)), 4)
        return pa.table({id_col: pa.array(ids),
                         "chunk_id": pa.array(np.tile(np.arange(4, dtype=np.int32), n)),
                         "chunk_val": pa.array(chunks.reshape(-1)),
                         "simhash": pa.array(np.repeat(s, 4))})

    exploded = sigs.map_batches(explode, batch_format="pyarrow")

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                              "doc_b": pd.Series([], dtype="int64"),
                              "hamming": pd.Series([], dtype="int64")})
        if len(g) < 2:
            return empty
        g = g.drop_duplicates(subset=["chunk_id", "chunk_val", id_col])
        sizes = g.groupby(["chunk_id", "chunk_val"])[id_col].transform("size")
        g = g[sizes >= 2]
        if g.empty:
            return empty
        out_a, out_b, ham = [], [], []
        for _, sub in g.groupby(["chunk_id", "chunk_val"], sort=False):
            sub = sub.sort_values(id_col)
            if len(sub) > max_bucket:
                import logging

                logging.getLogger(__name__).warning(
                    "simhash_pairs: band bucket (chunk_id=%s, chunk_val=%s) "
                    "capped at %d members; %d rows dropped from pair "
                    "generation (recall loss confined to this bucket)",
                    sub["chunk_id"].iloc[0], sub["chunk_val"].iloc[0],
                    max_bucket, len(sub) - max_bucket)
                sub = sub.iloc[:max_bucket]
            ids = sub[id_col].to_numpy()
            s = sub["simhash"].to_numpy().astype(np.uint64)
            for i in range(len(ids)):
                d = _popcount64(s[i + 1:] ^ s[i])
                hit = np.nonzero(d <= max_hamming)[0]
                if hit.size:
                    out_a.extend([ids[i]] * hit.size)
                    out_b.extend(ids[i + 1 + hit])
                    ham.extend(d[hit])
        return pd.DataFrame({"doc_a": out_a, "doc_b": out_b,
                             "hamming": ham})

    # shuffle by hash-bucket of the chunk key, NOT one Ray group per
    # (chunk_id, chunk_val): a 16-bit chunk space makes tens of
    # thousands of 1-2-row groups and map_groups pays per-group python
    # overhead for every one — inside a bucket, singleton chunks drop
    # vectorized and only multi-doc chunks loop (the minhash idiom)
    cand = bucketed_group_transform(exploded, ["chunk_id", "chunk_val"],
                                    pairs_in_bucket, 16)
    return _dedupe_pairs(cand)


def dedup_clusters(pairs_ds, max_driver_pairs: int = 5_000_000,
                   max_rounds: int = 20):
    """Connected components over near-dup pairs -> (doc_id, cluster_id)
    with cluster_id = min doc id in the component (the canonical
    representative; everything else in the cluster is a duplicate).

    Candidate pairs are a small fraction of the corpus (the guide's
    premise for LSH dedup), so the default path pulls the edge list to
    the driver and runs union-find — O(pairs α).  Past
    ``max_driver_pairs`` it switches to distributed min-label
    propagation: iterate label = min(label of neighbors) via groupby
    rounds until a round changes nothing (converges in O(diameter)
    rounds; near-dup components are tiny, so 2-3 rounds typical)."""
    import ray.data as rd

    n_pairs = pairs_ds.count()
    if n_pairs == 0:
        return rd.from_arrow(pa.table({"doc_id": pa.array([], pa.int64()),
                                       "cluster_id": pa.array([], pa.int64())}))
    if n_pairs <= max_driver_pairs:
        rows = pairs_ds.select_columns(["doc_a", "doc_b"]).take_all()
        parent: dict = {}

        def find(x):
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for r in rows:
            a, b = find(r["doc_a"]), find(r["doc_b"])
            if a != b:
                if b < a:
                    a, b = b, a
                parent[b] = a
        items = sorted((node, find(node)) for node in parent)
        return rd.from_arrow(pa.table({
            "doc_id": pa.array([i for i, _ in items], pa.int64()),
            "cluster_id": pa.array([c for _, c in items], pa.int64())}))

    # distributed min-label propagation over CO-PARTITIONED hash joins:
    # the label table lives in the object store, partitioned by the join
    # hash, and never materializes on the driver (the earlier broadcast
    # variant pulled every label to the driver each round, contradicting
    # the >max_driver_pairs trigger that selected this path).
    from ray.data.aggregate import Min

    from .join import bucketed_hash_join

    edges = pairs_ds.map_batches(
        lambda t: pa.table({"src": t.column("doc_a"), "dst": t.column("doc_b")}),
        batch_format="pyarrow")
    edges = edges.union(edges.map_batches(
        lambda t: pa.table({"src": t.column("dst"), "dst": t.column("src")}),
        batch_format="pyarrow")).materialize()

    labels = edges.groupby("src").aggregate(Min("dst", alias_name="label"))
    labels = labels.map_batches(
        lambda t: pa.table({"doc_id": t.column("src"),
                            "label": pc.min_element_wise(t.column("src"),
                                                         t.column("label"))}),
        batch_format="pyarrow").materialize()
    for _ in range(max_rounds):
        lab = labels.map_batches(
            lambda t: pa.table({"src": t.column("doc_id"),
                                "src_label": t.column("label")}),
            batch_format="pyarrow")
        lab_edges = bucketed_hash_join(edges, lab, on=["src"])
        new_labels = lab_edges.groupby("dst").aggregate(
            Min("src_label", alias_name="nl"))
        nl = new_labels.map_batches(
            lambda t: pa.table({"doc_id": t.column("dst"),
                                "nl": t.column("nl")}),
            batch_format="pyarrow")
        merged = bucketed_hash_join(labels, nl, on=["doc_id"],
                                    how="left").materialize()

        def step(t: pa.Table) -> pa.Table:
            new = pc.min_element_wise(t.column("label"), t.column("nl"))
            return pa.table({"doc_id": t.column("doc_id"), "label": new,
                             "__chg": pc.cast(pc.not_equal(t.column("label"),
                                                           new), pa.int64())})

        stepped = merged.map_batches(step, batch_format="pyarrow").materialize()
        changed = stepped.sum("__chg")
        labels = stepped.drop_columns(["__chg"]).materialize()
        if not changed:
            break
    return labels.map_batches(
        lambda t: pa.table({"doc_id": t.column("doc_id"),
                            "cluster_id": t.column("label")}),
        batch_format="pyarrow")


# ------------------------------------------------------- exact jaccard verify


def ngram_jaccard_verify(ds_pairs, docs_lookup, id_col: str = "doc_id",
                         shingle_w: int = 3, threshold: float = 0.5):
    """Exact n-gram Jaccard for candidate pairs.

    docs_lookup: dict id->text, or a ray.ObjectRef of one (broadcast —
    candidates are a tiny fraction of the corpus; at larger candidate
    volumes switch to a co-partitioned join on doc id)."""

    class Verify:
        def __init__(self):
            import ray

            lk = docs_lookup
            if isinstance(lk, ray.ObjectRef):
                lk = ray.get(lk)
            self.lookup = lk
            self.cache: dict = {}

        def _sh(self, i):
            if i not in self.cache:
                self.cache[i] = set(_shingle_hashes(self.lookup.get(i, ""), shingle_w).tolist())
            return self.cache[i]

        def __call__(self, batch: pa.Table) -> pa.Table:
            a = batch.column("doc_a").to_pylist()
            b = batch.column("doc_b").to_pylist()
            jac = []
            for x, y in zip(a, b):
                sa, sb = self._sh(x), self._sh(y)
                u = len(sa | sb)
                jac.append(len(sa & sb) / u if u else 0.0)
            out = batch.append_column("jaccard", pa.array(jac, pa.float64()))
            import pyarrow.compute as pc

            return out.filter(pc.greater_equal(out.column("jaccard"), threshold))

    return ds_pairs.map_batches(Verify, batch_format="pyarrow", concurrency=(1, 4))


def ngram_jaccard_verify_joined(ds_pairs, docs, id_col: str = "doc_id",
                                text_col: str = "text", shingle_w: int = 3,
                                threshold: float = 0.5, n_buckets: int = 16):
    """Exact n-gram Jaccard for candidate pairs — the DISTRIBUTED path.

    Unlike :func:`ngram_jaccard_verify` (broadcast dict of every text,
    driver-memory-bound), this never materializes texts anywhere:

    1. distinct candidate ids (per-batch dedup, ids only);
    2. semi-join texts onto candidate ids — only texts that appear in
       some candidate pair leave the corpus scan;
    3. shingle those texts once (uint64 hash lists, ~8B/token);
    4. two bucketed joins attach shingle lists to doc_a / doc_b;
    5. per-pair exact Jaccard on the co-located lists.

    All shuffles are candidate-volume-sized, so this holds when the dup
    rate (and hence the candidate set) is a large fraction of a 100 TB
    corpus."""
    import pyarrow.compute as pc

    from .join import bucketed_hash_join

    def distinct_ids(t: pa.Table) -> pa.Table:
        both = pa.chunked_array([t.column("doc_a").combine_chunks(),
                                 t.column("doc_b").combine_chunks()])
        return pa.table({id_col: pc.unique(both)})

    ids = ds_pairs.map_batches(distinct_ids, batch_format="pyarrow")
    need = bucketed_hash_join(
        docs.map_batches(lambda t: t.select([id_col, text_col]),
                         batch_format="pyarrow"),
        ids, on=[id_col], how="semi", n_buckets=n_buckets)

    def shingles(t: pa.Table) -> pa.Table:
        # shingle sets travel as raw uint64 LE bytes, not list<uint64>:
        # binary survives the pandas roundtrip inside the bucketed join
        # (lists re-infer as Ray tensor extension types and break the
        # typed-null union cast)
        th = _TokenHasher()
        sh = [np.sort(_shingle_hashes(x or "", shingle_w, th)).tobytes()
              for x in t.column(text_col).to_pylist()]
        return pa.table({id_col: t.column(id_col),
                         "__sh": pa.array(sh, pa.large_binary())})

    sh = need.map_batches(shingles, batch_format="pyarrow")
    sa = sh.map_batches(lambda t: pa.table({"doc_a": t.column(id_col),
                                            "__sha": t.column("__sh")}),
                        batch_format="pyarrow")
    sb = sh.map_batches(lambda t: pa.table({"doc_b": t.column(id_col),
                                            "__shb": t.column("__sh")}),
                        batch_format="pyarrow")
    j = bucketed_hash_join(ds_pairs, sa, on=["doc_a"], n_buckets=n_buckets)
    # rebuild Arrow blocks between the joins: the pandas-merge reducer
    # emits object-dtype blocks whose schema probe yields Python types,
    # which the second join's typed-null union cast cannot consume
    j = j.map_batches(lambda t: t, batch_format="pyarrow")
    j = bucketed_hash_join(j, sb, on=["doc_b"], n_buckets=n_buckets)

    def verify(t: pa.Table) -> pa.Table:
        jac = np.empty(t.num_rows, dtype=np.float64)
        ba = t.column("__sha").to_pylist()
        bb = t.column("__shb").to_pylist()
        for i in range(t.num_rows):
            # blobs are sorted-unique uint64: zero-copy view + intersect
            xa = np.frombuffer(ba[i] or b"", dtype=np.uint64)
            xb = np.frombuffer(bb[i] or b"", dtype=np.uint64)
            inter = np.intersect1d(xa, xb, assume_unique=True).size
            u = xa.size + xb.size - inter
            jac[i] = inter / u if u else 0.0
        out = t.drop_columns(["__sha", "__shb"]) \
               .append_column("jaccard", pa.array(jac, pa.float64()))
        return out.filter(pc.greater_equal(out.column("jaccard"), threshold))

    return j.map_batches(verify, batch_format="pyarrow")


# ------------------------------------------------- embedding-space near-dup


def embedding_neardup_pairs(ds, id_col: str = "vec_id", emb_col: str = "embedding",
                            dim: int | None = None, n_planes: int = 12,
                            threshold: float = 0.95, seed: int = 11):
    """Cosine near-duplicates via random-hyperplane LSH buckets.

    Sign pattern over n_planes hyperplanes = bucket key (one shuffle of
    (bucket, id, vector)); exact pairwise cosine inside each bucket.
    Trades recall for scale like any single-probe LSH; run with several
    seeds and union for higher recall."""

    def bucketize(batch: pa.Table) -> pa.Table:
        from .similarity import _to_mat

        mat = _to_mat(batch.column(emb_col))
        if mat.size == 0:
            return pa.table({id_col: batch.column(id_col),
                             "bucket": pa.array([], pa.uint64()),
                             emb_col: batch.column(emb_col)})
        rng = np.random.RandomState(seed)
        planes = rng.standard_normal((mat.shape[1], n_planes))
        signs = (mat @ planes) > 0
        bucket = np.zeros(len(mat), dtype=np.uint64)
        for j in range(n_planes):
            bucket |= signs[:, j].astype(np.uint64) << np.uint64(j)
        return pa.table({id_col: batch.column(id_col),
                         "bucket": pa.array(bucket),
                         emb_col: batch.column(emb_col)})

    buckets = ds.map_batches(bucketize, batch_format="pyarrow")

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < 2:
            return pd.DataFrame({"id_a": [], "id_b": [], "cosine": []})
        g = g.sort_values(id_col)
        ids = g[id_col].to_numpy()
        mat = np.stack(g[emb_col].to_numpy()).astype(np.float64)
        norm = np.linalg.norm(mat, axis=1, keepdims=True)
        norm[norm == 0] = 1
        m = mat / norm
        sims = m @ m.T
        ia, ib = np.triu_indices(len(ids), k=1)
        hit = sims[ia, ib] >= threshold
        return pd.DataFrame({"id_a": ids[ia[hit]], "id_b": ids[ib[hit]],
                             "cosine": sims[ia[hit], ib[hit]]})

    return buckets.groupby("bucket").map_groups(arrow_out(pairs),
                                                batch_format="pandas")


def dedup_against(new_ds, ref_ds, text_col: str = "text",
                  n_buckets: int = 32):
    """Incremental-corpus exact dedup: drop NEW documents whose content
    already exists in a REFERENCE corpus (the "new crawl vs existing
    training set" recipe — every refresh of a web corpus runs this
    before anything else).

    Shape: both sides collapse to a 16-byte content hash (md5 of the
    raw text — 128 bits, so collisions are ignorable at 100 TB where a
    64-bit hash would not be), the reference side ships ONLY hashes,
    and one hash-co-partitioned anti join (stages/join.py) keeps the
    unseen new docs.  Text bytes never leave their side's map tasks.
    Same-content duplicates WITHIN the new corpus are kept — chain
    dedup_exact after this when both levels are wanted."""
    import hashlib

    def add_h(keep_cols: bool):
        def fn(t: pa.Table) -> pa.Table:
            vals = t.column(text_col).to_pylist()
            hs = pa.array([hashlib.md5((v or "").encode()).digest()
                           for v in vals], pa.binary(16))
            if keep_cols:
                return t.append_column("__h", hs)
            return pa.table({"__h": hs})

        return fn

    from .join import bucketed_hash_join

    out = bucketed_hash_join(
        new_ds.map_batches(add_h(True), batch_format="pyarrow"),
        ref_ds.map_batches(add_h(False), batch_format="pyarrow"),
        on=["__h"], how="anti", n_buckets=n_buckets)
    return out.map_batches(lambda t: t.drop_columns(["__h"]),
                           batch_format="pyarrow")


def minhash_pairs_against(new_ds, ref_ds, id_col: str = "doc_id",
                          text_col: str = "text", num_perm: int = 128,
                          bands: int = 32, shingle_w: int = 3,
                          threshold: float = 0.7, max_bucket: int = 100_000):
    """Cross-corpus fuzzy-dup candidates: (new_id, ref_id, est_jaccard)
    pairs with minhash-estimated Jaccard >= threshold, NEW docs matched
    only against REFERENCE docs (neither side is self-paired) — the
    fuzzy companion of `dedup_against` for the "new crawl vs existing
    training set" refresh, where near-copies (boilerplate drift, ad
    rotation) survive the exact 128-bit hash.

    Shape mirrors `minhash_lsh_pairs`: each side signs map-only, bands
    explode with a constant side tag, one band-hash bucketed shuffle,
    and inside a bucket every mixed-side band compares new×ref
    signatures with ONE vectorized equality mean per band.  Only
    (id, band, signature) rows shuffle — text never leaves its side's
    map tasks.  Ids may collide across corpora (sides are compared by
    tag, never merged)."""
    import pandas as pd

    def sigs(ds, side: int):
        s = ds.map_batches(
            MinHasher, fn_constructor_kwargs=dict(
                num_perm=num_perm, shingle_w=shingle_w,
                id_col=id_col, text_col=text_col),
            batch_format="pyarrow", concurrency=(1, 8))
        exploded = s.map_batches(_BandsWithSig(num_perm, bands, id_col),
                                 batch_format="pyarrow")
        return exploded.map_batches(
            lambda t: t.append_column(
                "__side", pa.array(np.full(t.num_rows, side, np.int8))),
            batch_format="pyarrow")

    both = sigs(new_ds, 1).union(sigs(ref_ds, 0))

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"new_id": pd.Series([], dtype="int64"),
                              "ref_id": pd.Series([], dtype="int64"),
                              "est_jaccard": pd.Series([], dtype="float64")})
        if len(g) < 2:
            return empty
        g = g.drop_duplicates(subset=["band_id", "band_hash", "__side",
                                      id_col])
        # only bands holding BOTH sides can produce a cross pair
        mixed = g.groupby(["band_id", "band_hash"])["__side"] \
            .transform("nunique") == 2
        g = g[mixed]
        if g.empty:
            return empty
        out_n, out_r, est = [], [], []
        for _, sub in g.groupby(["band_id", "band_hash"], sort=False):
            if len(sub) > max_bucket:
                import logging

                logging.getLogger(__name__).warning(
                    "minhash_pairs_against: band bucket capped at %d "
                    "members; %d rows dropped (recall loss confined to "
                    "this bucket)", max_bucket, len(sub) - max_bucket)
                sub = sub.sort_values([id_col]).iloc[:max_bucket]
            news = sub[sub["__side"] == 1]
            refs = sub[sub["__side"] == 0]
            if news.empty or refs.empty:
                continue
            sn = np.stack(news["minhash"].to_numpy())
            sr = np.stack(refs["minhash"].to_numpy())
            eq = (sn[:, None, :] == sr[None, :, :]).mean(axis=2)
            ni, rj = np.nonzero(eq >= threshold)
            out_n.extend(news[id_col].to_numpy()[ni])
            out_r.extend(refs[id_col].to_numpy()[rj])
            est.extend(eq[ni, rj])
        return pd.DataFrame({"new_id": np.asarray(out_n, dtype=np.int64),
                             "ref_id": np.asarray(out_r, dtype=np.int64),
                             "est_jaccard": np.asarray(est,
                                                       dtype=np.float64)})

    cand = bucketed_group_transform(both, ["band_id", "band_hash"],
                                    pairs_in_bucket, 16)
    # a pair can surface from several bands — reuse the bucketed pair-dedup
    return _dedupe_pairs(cand, ("new_id", "ref_id"))


def minhash_dedup_against(new_ds, ref_ds, id_col: str = "doc_id",
                          text_col: str = "text", num_perm: int = 128,
                          bands: int = 32, shingle_w: int = 3,
                          threshold: float = 0.7, n_buckets: int = 32,
                          pairs=None):
    """Drop NEW documents that fuzzy-match any REFERENCE document:
    `minhash_pairs_against` candidates -> distinct flagged new ids ->
    one bucketed anti join (the flagged set can be corpus-fraction
    sized at high dup rates — never broadcast it).  Chain after the
    exact `dedup_against` pass, which removes byte-identical copies
    more cheaply.  Pass `pairs` (a prior minhash_pairs_against result)
    to reuse already-computed candidates instead of re-signing both
    corpora — callers that inspect the pairs AND drop should compute
    them once."""
    from .join import bucketed_hash_join

    if pairs is None:
        pairs = minhash_pairs_against(
            new_ds, ref_ds, id_col=id_col, text_col=text_col,
            num_perm=num_perm, bands=bands, shingle_w=shingle_w,
            threshold=threshold)
    flagged = pairs.map_batches(
        lambda t: pa.table({id_col: pc.unique(t.column("new_id"))}),
        batch_format="pyarrow")
    return bucketed_hash_join(new_ds, flagged, on=[id_col], how="anti",
                              n_buckets=n_buckets)


def cluster_keep_best(clusters_ds, docs_ds, priority_col: str,
                      id_col: str = "doc_id", n_buckets: int = 32):
    """Pick each near-dup cluster's surviving document by PRIORITY
    (quality score, length, recency) instead of dedup_clusters' min-id
    representative — the production keeper rule ("keep the best copy,
    drop the rest").  Ties break toward the smaller id (run-stable).

    Shape: cluster labels join their docs' (id, priority) pairs — only
    ids and priorities shuffle, never documents — then ONE bucketed
    pass takes argmax per cluster.  Returns (cluster_id, id_col,
    priority_col): the keeper of every cluster."""
    import pandas as pd

    from .join import bucketed_hash_join

    pri = docs_ds.map_batches(
        lambda t: t.select([id_col, priority_col]), batch_format="pyarrow")
    labeled = bucketed_hash_join(clusters_ds, pri, on=[id_col],
                                 how="inner", n_buckets=n_buckets)

    def best(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([priority_col, id_col],
                          ascending=[False, True], kind="stable")
        return g.groupby("cluster_id", sort=False, dropna=False).head(1)

    from .join import _pa_schema

    out = bucketed_group_transform(labeled, ["cluster_id"], best, n_buckets)
    # the join's typed-null union padding floats int columns in pandas
    # land — pin the output back to the INPUT types
    types = {"cluster_id": _pa_schema(clusters_ds).field("cluster_id").type,
             id_col: _pa_schema(clusters_ds).field(id_col).type,
             priority_col: _pa_schema(docs_ds).field(priority_col).type}
    return out.map_batches(
        lambda t: pa.table({c: t.column(c).cast(types[c]) for c in types}),
        batch_format="pyarrow")


def semdedup_flags(ds, centroids: np.ndarray, threshold: float = 0.9,
                   id_col: str = "vec_id", emb_col: str = "embedding",
                   max_cluster: int = 200_000):
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): k-means the
    embedding space, then within each cluster flag keep=False for any
    item whose cosine similarity to a LOWER-ID item of the same cluster
    is >= threshold (deterministic keeper = lowest id; the flag depends
    only on earlier items' EXISTENCE, not their own flags, so it is
    order-free and SQL-replayable with one EXISTS).

    Scale shape: assignment is a broadcast-centroid map (no shuffle);
    the ONLY shuffle groups (id, embedding) rows by cluster_id; the
    within-cluster pass is blocked numpy O(n_c^2).  n_c is the knob —
    at 100 TB, k must grow with the corpus (the paper runs 50k
    clusters) so clusters stay ~1e4; a cluster past max_cluster logs a
    warning about its quadratic cost (nothing is dropped).

    Returns Dataset(id, cluster_id, keep).
    """
    from .cluster import kmeans_assign

    assigned = kmeans_assign(ds, centroids, vec_col=emb_col)

    def flags(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(id_col).reset_index(drop=True)
        n = len(g)
        if n > max_cluster:
            import logging

            logging.getLogger(__name__).warning(
                "semdedup: cluster %s has %d members (> max_cluster=%d); "
                "the within-cluster pass is O(n^2) — raise k so clusters "
                "shrink", g["cluster_id"].iloc[0], n, max_cluster)
        mat = np.stack(g[emb_col].to_numpy()).astype(np.float64)
        norm = np.linalg.norm(mat, axis=1, keepdims=True)
        norm[norm == 0] = 1
        u = mat / norm
        keep = np.ones(n, dtype=bool)
        block = 1024
        for s in range(0, n, block):
            e = min(s + block, n)
            sims = u[s:e] @ u[:e].T            # rows s..e vs ALL j < e
            # inside the block only strictly-earlier columns count
            local = sims[:, s:e]
            local[np.triu_indices(e - s, k=0)] = -np.inf
            keep[s:e] = sims.max(axis=1) < threshold
        keep[0] = True  # the globally first row has no earlier item
        return pd.DataFrame({id_col: g[id_col],
                             "cluster_id": g["cluster_id"],
                             "keep": keep})

    return assigned.groupby("cluster_id").map_groups(
        arrow_out(flags), batch_format="pandas")
