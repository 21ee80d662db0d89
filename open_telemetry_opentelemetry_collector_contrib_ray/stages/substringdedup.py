"""Exact substring deduplication (Lee et al. 2022, "Deduplicating
Training Data Makes Language Models Better") — Ray-Data-first.

A substring duplicated across (or within) documents is detected by its
word windows: every span of >= `w` tokens that occurs twice anywhere in
the corpus produces >= 1 duplicated w-token window.  The pipeline:

1. `WindowEmitter` (map-only): per doc, tokenize once, roll a
   position-salted combine over cached token hashes (same machinery as
   MinHash shingling, `dedup._shingle_hashes`) and emit one
   (doc_id, pos, h) triple per window.  ONLY 24-byte triples ever
   shuffle — never document text — so the exchange at 100 TB is ~2% of
   the corpus bytes rather than a full-text all-to-all.
2. Bucket exchange (`bucketed_group_transform` keyed by h): one
   shuffle co-locates all occurrences of a hash, then ONE vectorized
   pandas pass per bucket keeps hashes with >= 2 occurrences and marks
   the global keeper (min (doc_id, pos)) per hash.
3. `mark` mode returns the duplicated (doc_id, pos) windows (the
   oracle-checkable surface).  `cut` mode merges each doc's non-keeper
   windows into word-ranges [pos, pos+w) and removes those character
   spans from the text, keeping exactly one copy of every duplicated
   substring corpus-wide.

Window-hash collisions can only OVER-flag (two distinct windows mapped
to one hash read as duplicates); at 64 bits the expected corpus-wide
collision count is ~n_windows^2 / 2^65 — negligible below ~10^9
windows per run, and the per-epoch sharding of a 100 TB run keeps each
exchange under that.

Beyond-the-reference functionality (training-data ops per the project
brief); the triple-shuffle shape mirrors `dedup.minhash_lsh_pairs`.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .aggregate import bucketed_group_transform
from .decontam import _TOKEN_RE  # [a-z0-9_]+ on lowered text: exact
# parity with the DuckDB oracle's regexp_extract_all (RE2 ASCII classes)
from .dedup import _P1, _P2, _P3, _TokenHasher


def _window_hashes(tok_hashes: np.ndarray, w: int) -> np.ndarray:
    """All w-token window hashes WITH positions (no unique), same
    position-salted combine as dedup._shingle_hashes."""
    m = len(tok_hashes) - w + 1
    if m <= 0:
        return np.zeros(0, dtype=np.uint64)
    salts = [_P1, _P2, _P3] + [np.uint64(2 * j + 1) for j in range(3, w)]
    sh = np.zeros(m, dtype=np.uint64)
    for j in range(w):
        sh = sh ^ (tok_hashes[j:j + m] * salts[j])
    return sh


class WindowEmitter:
    """doc batch -> (doc_id, pos, h) triples, one row per w-token window.

    Fully vectorized: ONE `pc.split_pattern_regex` pass tokenizes the
    batch, the flat tokens dictionary-encode so only UNIQUE tokens go
    through the (cached) md5 token hasher, and the rolling window
    combine runs over the whole batch's concatenated hash stream in w
    numpy ops — windows crossing a document boundary are masked out
    afterwards.  No per-document Python loop."""

    def __init__(self, w: int = 8, id_col: str = "doc_id",
                 text_col: str = "text"):
        self.w = w
        self.id_col = id_col
        self.text_col = text_col
        self.th = _TokenHasher()

    def _empty(self, batch: pa.Table) -> pa.Table:
        return pa.table({self.id_col: batch.column(self.id_col).slice(0, 0),
                         "pos": pa.array([], pa.int64()),
                         "h": pa.array([], pa.uint64())})

    def windows(self, batch: pa.Table):
        """(win_row, pos, h) ndarrays for every valid w-token window in
        the batch — win_row indexes batch rows.  Shared with
        stages/lmscore.py (the n-gram LM uses the identical window
        hash, so model build and scoring agree by construction)."""
        import pyarrow.compute as pc

        n, w = batch.num_rows, self.w
        z = (np.zeros(0, np.int64), np.zeros(0, np.int64),
             np.zeros(0, np.uint64))
        if n == 0:
            return z
        lower = pc.utf8_lower(batch.column(self.text_col))
        # split on the complement class == findall('[a-z0-9_]+') after
        # dropping the empty boundary segments (exact oracle parity)
        parts = pc.split_pattern_regex(lower, "[^a-z0-9_]+")
        if isinstance(parts, pa.ChunkedArray):
            parts = parts.combine_chunks()
        counts = pc.fill_null(pc.list_value_length(parts), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(parts)
        if len(flat) == 0:
            return z
        enc = flat.dictionary_encode()
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        vocab = enc.dictionary.to_pylist()
        dhash = self.th(vocab)  # md5 only for tokens NEW to this worker
        codes = enc.indices.to_numpy(zero_copy_only=False)
        row_of_tok = np.repeat(np.arange(n, dtype=np.int64), counts)
        nonempty = np.fromiter((t != "" for t in vocab), dtype=bool,
                               count=len(vocab))
        keep = nonempty[codes]
        H = dhash[codes][keep]
        row_of_tok = row_of_tok[keep]
        tokcnt = np.bincount(row_of_tok, minlength=n)
        m = len(H) - w + 1
        if m <= 0:
            return z
        sh = _window_hashes(H, w)
        # a window is real only when it stays inside one document
        valid = row_of_tok[:m] == row_of_tok[w - 1:]
        starts = np.concatenate([[0], np.cumsum(tokcnt)[:-1]])
        win_row = row_of_tok[:m][valid]
        pos = np.nonzero(valid)[0] - starts[win_row]
        return win_row, pos.astype(np.int64), sh[valid]

    def __call__(self, batch: pa.Table) -> pa.Table:
        win_row, pos, sh = self.windows(batch)
        if len(win_row) == 0:
            return self._empty(batch)
        return pa.table({
            self.id_col: batch.column(self.id_col).take(pa.array(win_row)),
            "pos": pa.array(pos),
            "h": pa.array(sh)})


def duplicate_windows(ds, w: int = 8, id_col: str = "doc_id",
                      text_col: str = "text", n_buckets: int = 16,
                      keep_keeper: bool = True):
    """Dataset of duplicated windows: (doc_id, pos[, keeper]).

    A window is duplicated when its hash occurs >= 2 times corpus-wide
    (within-doc repeats count — Lee et al. semantics).  `keeper` marks
    the single global min-(doc_id, pos) occurrence per hash."""
    wins = ds.map_batches(
        WindowEmitter, fn_constructor_kwargs=dict(
            w=w, id_col=id_col, text_col=text_col),
        batch_format="pyarrow", batch_size=8192, concurrency=(1, 24))

    def dups_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({id_col: pd.Series([], dtype="int64"),
                              "pos": pd.Series([], dtype="int64"),
                              "keeper": pd.Series([], dtype="bool")})
        if len(g) < 2:
            return empty
        sizes = g.groupby("h")["pos"].transform("size")
        g = g[sizes >= 2]
        if g.empty:
            return empty
        g = g.sort_values(["h", id_col, "pos"], kind="stable")
        first = ~g["h"].duplicated(keep="first")
        out = pd.DataFrame({id_col: g[id_col].to_numpy(),
                            "pos": g["pos"].to_numpy(),
                            "keeper": first.to_numpy()})
        return out

    out = bucketed_group_transform(wins, ["h"], dups_in_bucket, n_buckets)
    if not keep_keeper:
        out = out.map_batches(lambda t: t.select([id_col, "pos"]),
                              batch_format="pyarrow")
    return out


class SpanCutter:
    """Remove the char spans of marked word-ranges from each doc.

    cut_map: doc_id -> sorted np.ndarray of window start positions (each
    covering words [pos, pos+w)).  Passed as a ray.put handle (broadcast
    once per actor, not re-shipped per batch)."""

    def __init__(self, cut_ref, w: int, id_col: str = "doc_id",
                 text_col: str = "text"):
        import ray

        self.cuts = ray.get(cut_ref) if not isinstance(cut_ref, dict) else cut_ref
        self.w = w
        self.id_col = id_col
        self.text_col = text_col

    def _cut_one(self, text: str, positions: np.ndarray) -> str:
        spans = [m.span() for m in _TOKEN_RE.finditer(text.lower())]
        if not spans:
            return text
        # merge window word-ranges into maximal runs; each run is cut as
        # ONE char span (first word start .. last word end), so the
        # whitespace interior to a removed run goes with it
        marked = np.zeros(len(spans), dtype=bool)
        for p in positions:
            marked[p:p + self.w] = True
        keep_parts = []
        cursor, i, n = 0, 0, len(spans)
        while i < n:
            if marked[i]:
                j = i
                while j + 1 < n and marked[j + 1]:
                    j += 1
                s, e = spans[i][0], spans[j][1]
                if cursor < s:
                    keep_parts.append(text[cursor:s])
                cursor = max(cursor, e)
                i = j + 1
            else:
                i += 1
        keep_parts.append(text[cursor:])
        return "".join(keep_parts)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_col).to_pylist()
        texts = batch.column(self.text_col).to_pylist()
        out = []
        for did, text in zip(ids, texts):
            pos = self.cuts.get(did)
            out.append(self._cut_one(text or "", pos) if pos is not None
                       else text)
        idx = batch.column_names.index(self.text_col)
        return batch.set_column(idx, self.text_col, pa.array(out, pa.string()))


class JoinedSpanCutter:
    """SpanCutter over a joined `__cut_pos` list column instead of a
    broadcast map (the co-partitioned scale path)."""

    def __init__(self, w: int, id_col: str = "doc_id",
                 text_col: str = "text"):
        self.inner = SpanCutter({}, w, id_col, text_col)
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.text_col).to_pylist()
        pos_lists = batch.column("__cut_pos").to_pylist()
        out = [self.inner._cut_one(t or "", np.asarray(p, dtype=np.int64))
               if p is not None and len(p) else t
               for t, p in zip(texts, pos_lists)]
        idx = batch.column_names.index(self.text_col)
        batch = batch.set_column(idx, self.text_col,
                                 pa.array(out, pa.string()))
        return batch.drop_columns(["__cut_pos"])


def dedup_substrings(ds_factory, w: int = 8, id_col: str = "doc_id",
                     text_col: str = "text", n_buckets: int = 16,
                     strategy: str = "auto",
                     max_driver_cuts: int = 2_000_000):
    """Cut every duplicated >=w-token substring down to one corpus-wide
    copy.  `ds_factory()` must rebuild the doc Dataset (read twice: once
    for window triples, once for cutting — documents themselves never
    shuffle in either strategy).

    strategy="auto" (default): count the cut positions first and pick —
    broadcast below ``max_driver_cuts`` (the cut map is
    O(duplicated windows); tiny at normal dup rates), else the join
    path (the ``dedup_clusters.max_driver_pairs`` idiom).
    strategy="broadcast": the cut map (non-keeper duplicated windows
    per doc) is collected and broadcast via ray.put.
    strategy="join": the cut positions are grouped per doc and joined to
    the documents by hash co-partitioning (stages/join.py
    bucketed_hash_join) — nothing ever materializes on the driver, the
    100 TB path when duplication is pervasive."""
    import ray

    dups = duplicate_windows(ds_factory(), w=w, id_col=id_col,
                             text_col=text_col, n_buckets=n_buckets)
    non_keeper = dups.map_batches(
        lambda t: t.filter(pa.compute.invert(t.column("keeper")))
                   .select([id_col, "pos"]),
        batch_format="pyarrow")
    if strategy == "auto":
        # the count decides the path, and the cut set feeds it either
        # way — materialize so the window shuffle runs exactly once
        non_keeper = non_keeper.materialize()
        strategy = ("broadcast" if non_keeper.count() <= max_driver_cuts
                    else "join")
    if strategy == "join":
        from .join import bucketed_hash_join

        # global per-doc grouping of cut positions (bucket exchange: a
        # doc's windows can span emit batches, so per-batch grouping
        # would hand the join multiple list rows for one doc)
        def group_doc(t: pa.Table) -> pa.Table:
            g = t.group_by([id_col]).aggregate([("pos", "list")])
            return pa.table({id_col: g.column(id_col),
                             "__cut_pos": g.column("pos_list")})

        cuts = bucketed_group_transform(non_keeper, [id_col], group_doc,
                                        n_buckets, batch_format="pyarrow")
        joined = bucketed_hash_join(ds_factory(), cuts, on=[id_col],
                                    how="left", n_buckets=n_buckets)
        return joined.map_batches(
            JoinedSpanCutter, fn_constructor_kwargs=dict(
                w=w, id_col=id_col, text_col=text_col),
            batch_format="pyarrow", concurrency=(1, 24))
    if strategy != "broadcast":
        raise ValueError(f"unknown strategy {strategy!r}")
    cut_rows = non_keeper.take_all()
    cut_map: dict = {}
    for r in cut_rows:
        cut_map.setdefault(r[id_col], []).append(r["pos"])
    cut_map = {k: np.sort(np.asarray(v, dtype=np.int64))
               for k, v in cut_map.items()}
    ref = ray.put(cut_map)
    return ds_factory().map_batches(
        SpanCutter, fn_constructor_kwargs=dict(
            cut_ref=ref, w=w, id_col=id_col, text_col=text_col),
        batch_format="pyarrow", concurrency=(1, 24))
