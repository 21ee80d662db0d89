"""C4-style line-level corpus filters and corpus-wide exact line dedup.

The C4 cleaning recipe (Raffel et al. 2020, "Exploring the Limits of
Transfer Learning...", §2.2) filters web text at two granularities:

* per LINE: keep only lines that end in terminal punctuation, have at
  least N words, and don't match a blocklist ("javascript", "lorem
  ipsum", curly braces);
* per DOCUMENT: word-count range, mean word length range, minimum
  sentence count, blocklist phrases;
* across the CORPUS: any line occurring more than once is kept exactly
  once (first occurrence wins).

The reference collector expresses record-level drops with
filterprocessor OTTL conditions (/root/reference/processor/
filterprocessor/config.go — mirrored in stages/transform.py
FilterStage); these stages apply the same drop-by-predicate idea
INSIDE a text body, which a training-data pipeline needs and a
telemetry pipeline doesn't.

Scale notes (100 TB):
* `LineFilter` / `C4DocFilter` are map-only, pure Arrow/numpy — zero
  shuffle, one pass of RE2 kernels (same cost model as stages/pii.py).
* `dedup_lines` shuffles ONLY fixed-width (hash, doc_id, line_idx)
  triples — never the text — exactly like stages/substringdedup.py;
  the cut map is broadcast once via ray.put (its size is O(duplicated
  lines), the duplicated fraction of the corpus).
* Line-hash collisions can only OVER-delete; at 64 bits the expected
  corpus-wide collision count is ~n_lines^2 / 2^65 (negligible below
  ~10^9 lines per run; shard bigger runs per epoch).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .aggregate import bucketed_group_transform

# C4's terminal-punctuation rule; RE2 `$` = end-of-text on a single line
TERMINAL_PUNCT_PAT = '[.!?"]$'
# C4's line blocklist (javascript / lorem ipsum / curly brace)
DEFAULT_DROP_PAT = r"(?i)javascript|lorem ipsum|\{"
WORD_PAT = r"\S+"  # len(regexp_extract_all(x, '\S+')) in the oracle


def _as_list_array(col) -> pa.ListArray:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col


def _split_lines(text_col, sep: str):
    """text column -> (null_mask ndarray, list<string> of lines)."""
    if isinstance(text_col, pa.ChunkedArray):
        text_col = text_col.combine_chunks()
    nulls = pc.is_null(text_col).to_numpy(zero_copy_only=False)
    lines = _as_list_array(pc.split_pattern(pc.fill_null(text_col, ""), sep))
    return nulls, lines


def _rebuild_text(lines: pa.ListArray, keep: np.ndarray, n_rows: int,
                  sep: str, nulls: np.ndarray):
    """Filter flattened line values by `keep` and re-join per row.

    Returns (text array with original nulls preserved, kept-count int64
    array)."""
    parents = pc.list_parent_indices(lines).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(lines)
    kept_counts = np.bincount(parents[keep], minlength=n_rows) \
        if len(parents) else np.zeros(n_rows, dtype=np.int64)
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(kept_counts, out=offsets[1:])
    new_list = pa.LargeListArray.from_arrays(
        pa.array(offsets, pa.int64()), flat.filter(pa.array(keep)))
    joined = pc.binary_join(new_list, sep)
    if nulls.any():
        joined = pc.if_else(pa.array(nulls), pa.nulls(n_rows, pa.string()),
                            joined)
    return joined, pa.array(kept_counts.astype(np.int64))


class LineFilter:
    """map_batches stage: C4 line-level cleanup of `text_col`.

    Keeps a line iff it has >= `min_words` whitespace-separated words,
    ends in terminal punctuation (when `require_terminal_punct`), and
    does not match `drop_pattern`.  Appends int64 `n_lines` /
    `n_lines_kept` columns.  Pure Arrow — split, three RE2 kernels over
    the flattened lines, vectorized list rebuild."""

    def __init__(self, text_col: str = "text", min_words: int = 3,
                 require_terminal_punct: bool = True,
                 drop_pattern: str | None = DEFAULT_DROP_PAT,
                 sep: str = "\n", count_cols: bool = True):
        self.text_col = text_col
        self.min_words = min_words
        self.require_terminal_punct = require_terminal_punct
        self.drop_pattern = drop_pattern
        self.sep = sep
        self.count_cols = count_cols

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        nulls, lines = _split_lines(batch.column(self.text_col), self.sep)
        flat = pc.list_flatten(lines)
        keep = np.ones(len(flat), dtype=bool)
        if self.min_words > 0:
            wc = pc.count_substring_regex(flat, WORD_PAT) \
                .to_numpy(zero_copy_only=False)
            keep &= wc >= self.min_words
        if self.require_terminal_punct:
            keep &= pc.match_substring_regex(flat, TERMINAL_PUNCT_PAT) \
                .to_numpy(zero_copy_only=False)
        if self.drop_pattern:
            keep &= ~pc.match_substring_regex(flat, self.drop_pattern) \
                .to_numpy(zero_copy_only=False)
        text, kept = _rebuild_text(lines, keep, n, self.sep, nulls)
        idx = batch.column_names.index(self.text_col)
        out = batch.set_column(idx, self.text_col, text)
        if self.count_cols:
            total = pc.list_value_length(lines).cast(pa.int64())
            out = out.append_column("n_lines", total)
            out = out.append_column("n_lines_kept", kept)
        return out


class C4DocFilter:
    """map_batches stage: C4 document-level gates as integer-exact flags.

    A document is kept iff
      * word count in [min_words, max_words],
      * mean word length in [min_mean_word_len, max_mean_word_len]
        (evaluated as the integer inequality
         min*words <= non-space chars <= max*words — no float division,
         bit-stable vs any SQL oracle),
      * at least `min_sentences` terminal punctuation marks,
      * no blocklist phrase (`drop_pattern`).

    `mode="flag"` appends `n_words`, `n_sentences` (int64) and `keep`
    (bool); `mode="drop"` filters the batch to kept rows."""

    def __init__(self, text_col: str = "text", min_words: int = 5,
                 max_words: int = 100000, min_mean_word_len: int = 2,
                 max_mean_word_len: int = 12, min_sentences: int = 1,
                 drop_pattern: str | None = r"(?i)lorem ipsum|\{",
                 mode: str = "flag"):
        if mode not in ("flag", "drop"):
            raise ValueError(f"unknown mode {mode!r}")
        self.text_col = text_col
        self.min_words = min_words
        self.max_words = max_words
        self.min_mwl = min_mean_word_len
        self.max_mwl = max_mean_word_len
        self.min_sentences = min_sentences
        self.drop_pattern = drop_pattern
        self.mode = mode

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch.column(self.text_col)
        filled = pc.fill_null(col, "")
        words = pc.count_substring_regex(filled, WORD_PAT).cast(pa.int64())
        chars = pc.utf8_length(filled).cast(pa.int64())
        spaces = pc.count_substring_regex(filled, r"\s").cast(pa.int64())
        nonspace = pc.subtract(chars, spaces)
        sents = pc.count_substring_regex(filled, r"[.!?]").cast(pa.int64())
        w = words.to_numpy(zero_copy_only=False)
        ns = nonspace.to_numpy(zero_copy_only=False)
        keep = (w >= self.min_words) & (w <= self.max_words)
        keep &= (ns >= self.min_mwl * w) & (ns <= self.max_mwl * w)
        keep &= sents.to_numpy(zero_copy_only=False) >= self.min_sentences
        if self.drop_pattern:
            keep &= ~pc.match_substring_regex(filled, self.drop_pattern) \
                .to_numpy(zero_copy_only=False)
        keep &= ~pc.is_null(col).to_numpy(zero_copy_only=False)
        if self.mode == "drop":
            return batch.filter(pa.array(keep))
        out = batch.append_column("n_words", words)
        out = out.append_column("n_sentences", sents)
        return out.append_column("keep", pa.array(keep))


GOPHER_STOPWORDS = ("the", "be", "to", "of", "and", "that", "have", "with")


class GopherQualityFilter:
    """map_batches stage: Gopher/MassiveText document-quality gates
    (Rae et al. 2021, "Scaling Language Models: ... Gopher", Appendix A
    §A1.1) as integer-exact flags.  A document is kept iff

      * word count in [min_words, max_words] (words = ``\\S+`` runs),
      * mean word length in [min_mean_word_len, max_mean_word_len]
        (integer inequality min*words <= non-space chars <= max*words),
      * symbol-to-word ratio ('#' or '...') <= 0.1
        (10 * n_symbols <= n_words),
      * <= 90% of lines start with a bullet ('-', '*', or U+2022:
        10 * n_bullet_lines <= 9 * n_lines),
      * <= 30% of lines end with an ellipsis ('...' or U+2026:
        10 * n_ellipsis_lines <= 3 * n_lines),
      * >= 80% of words contain at least one alphabetic character
        (5 * n_alpha_words >= 4 * n_words),
      * at least ``min_stop_hits`` DISTINCT required stopwords appear
        (case-insensitive whole-word match).

    Every ratio is evaluated as an exact integer cross-multiplication —
    no float division, bit-stable vs any SQL oracle.  Map-only, pure
    RE2/Arrow kernels, zero shuffle at any scale (same cost model as
    `C4DocFilter`).  `mode="flag"` appends the counters and `keep`;
    `mode="drop"` filters the batch to kept rows."""

    def __init__(self, text_col: str = "text", min_words: int = 50,
                 max_words: int = 100_000, min_mean_word_len: int = 3,
                 max_mean_word_len: int = 10, min_stop_hits: int = 2,
                 stopwords: Sequence[str] = GOPHER_STOPWORDS,
                 mode: str = "flag"):
        if mode not in ("flag", "drop"):
            raise ValueError(f"unknown mode {mode!r}")
        self.text_col = text_col
        self.min_words = min_words
        self.max_words = max_words
        self.min_mwl = min_mean_word_len
        self.max_mwl = max_mean_word_len
        self.min_stop_hits = min_stop_hits
        self.stopwords = tuple(stopwords)
        self.mode = mode

    def _alpha_words(self, filled, n: int) -> np.ndarray:
        """Per-row count of whitespace tokens containing [A-Za-z]:
        split -> flatten -> one RE2 match over the flat tokens -> one
        bincount per row (the textstats._distinct_tokens idiom)."""
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        parts = pc.split_pattern_regex(filled, r"\s+")
        if isinstance(parts, pa.ChunkedArray):
            parts = parts.combine_chunks()
        flat = pc.list_flatten(parts)
        lengths = pc.list_value_length(parts).to_numpy(
            zero_copy_only=False).astype(np.int64)
        rows = np.repeat(np.arange(n, dtype=np.int64), lengths)
        hit = pc.match_substring_regex(flat, "[A-Za-z]").to_numpy(
            zero_copy_only=False)
        return np.bincount(rows[hit], minlength=n).astype(np.int64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch.column(self.text_col)
        filled = pc.fill_null(col, "")
        n = batch.num_rows
        words = pc.count_substring_regex(filled, WORD_PAT) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        chars = pc.utf8_length(filled).cast(pa.int64())
        spaces = pc.count_substring_regex(filled, r"\s").cast(pa.int64())
        nonspace = pc.subtract(chars, spaces).to_numpy(zero_copy_only=False)
        n_sym = pc.add(
            pc.count_substring(filled, "#"),
            pc.count_substring(filled, "...")).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        n_lines = pc.add(pc.count_substring(filled, "\n"), 1) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        n_bullet = pc.count_substring_regex(
            filled, r"(?m)^[-*•] ").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        n_ell = pc.count_substring_regex(
            filled, r"(?m)(?:\.\.\.|…)$").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        alpha = self._alpha_words(filled, n)
        stop_hits = np.zeros(n, dtype=np.int64)
        for w in self.stopwords:
            stop_hits += pc.match_substring_regex(
                filled, rf"(?i)\b{w}\b").to_numpy(zero_copy_only=False)
        keep = (words >= self.min_words) & (words <= self.max_words)
        keep &= (nonspace >= self.min_mwl * words) \
            & (nonspace <= self.max_mwl * words)
        keep &= 10 * n_sym <= words
        keep &= 10 * n_bullet <= 9 * n_lines
        keep &= 10 * n_ell <= 3 * n_lines
        keep &= 5 * alpha >= 4 * words
        keep &= stop_hits >= self.min_stop_hits
        keep &= ~pc.is_null(col).to_numpy(zero_copy_only=False)
        if self.mode == "drop":
            return batch.filter(pa.array(keep))
        out = batch.append_column("n_words", pa.array(words, pa.int64()))
        out = out.append_column("n_lines", pa.array(n_lines, pa.int64()))
        out = out.append_column("n_alpha_words", pa.array(alpha, pa.int64()))
        out = out.append_column("n_stop_hits",
                                pa.array(stop_hits, pa.int64()))
        return out.append_column("keep", pa.array(keep))


def c4_filter(ds, text_col: str = "text", min_words_per_line: int = 3,
              min_words: int = 5, min_sentences: int = 1):
    """The composed C4 cleanup: line filter then document gate (drop)."""
    ds = ds.map_batches(
        LineFilter(text_col=text_col, min_words=min_words_per_line),
        batch_format="pyarrow")
    return ds.map_batches(
        C4DocFilter(text_col=text_col, min_words=min_words,
                    min_sentences=min_sentences, mode="drop"),
        batch_format="pyarrow")


class _LineTripleEmitter:
    """doc batch -> one (h, doc_id, line_idx) row per NON-EMPTY line.

    line_idx is the line's position among ALL split lines of its doc
    (empty ones included), so pass 2 can address lines by index."""

    def __init__(self, id_col: str, text_col: str, sep: str):
        self.id_col = id_col
        self.text_col = text_col
        self.sep = sep

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .sample import hash64

        n = batch.num_rows
        if n == 0:
            return pa.table({"h": pa.array([], pa.uint64()),
                             self.id_col: batch.column(self.id_col).slice(0, 0),
                             "line_idx": pa.array([], pa.int64())})
        _, lines = _split_lines(batch.column(self.text_col), self.sep)
        flat = pc.list_flatten(lines)
        parents = pc.list_parent_indices(lines).to_numpy(zero_copy_only=False)
        counts = pc.list_value_length(lines).to_numpy(zero_copy_only=False)
        starts = np.zeros(n, dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        idx = np.arange(len(flat), dtype=np.int64) - starts[parents]
        nonempty = pc.greater(pc.utf8_length(flat), 0) \
            .to_numpy(zero_copy_only=False)
        if not nonempty.any():
            return pa.table({"h": pa.array([], pa.uint64()),
                             self.id_col: batch.column(self.id_col).slice(0, 0),
                             "line_idx": pa.array([], pa.int64())})
        flat = flat.filter(pa.array(nonempty))
        return pa.table({
            "h": pa.array(hash64(flat)),
            self.id_col: batch.column(self.id_col)
                .take(pa.array(parents[nonempty])),
            "line_idx": pa.array(idx[nonempty])})


class _LineDropper:
    """Second pass: drop the broadcast cut set and re-join; appends
    int64 `n_lines_kept`.

    The cut set broadcasts as two PARALLEL SORTED numpy arrays
    (doc_ids, line_idx) — a dict of per-doc arrays costs a Python
    loop per duplicated doc on both build and probe sides, which
    dominated a worst-case (99%-duplicate) corpus.  Probe is fully
    vectorized: searchsorted range lookup + repeat/cumsum expansion.
    Shipped as an INSTANCE (task pool — no actor startup); carries
    only the ObjectRef, resolved zero-copy from the local object
    store per task."""

    def __init__(self, cut_ref, id_col: str, text_col: str, sep: str):
        self.cut_ref = cut_ref
        self.cuts = cut_ref if isinstance(cut_ref, tuple) else None
        self.id_col = id_col
        self.text_col = text_col
        self.sep = sep

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.cuts is None:
            import ray

            self.cuts = ray.get(self.cut_ref)
        cut_docs, cut_idx = self.cuts
        n = batch.num_rows
        nulls, lines = _split_lines(batch.column(self.text_col), self.sep)
        counts = pc.list_value_length(lines).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        starts = np.zeros(n, dtype=np.int64)
        if n:
            np.cumsum(counts[:-1], out=starts[1:])
        total = int(counts.sum()) if n else 0
        keep = np.ones(total, dtype=bool)
        if len(cut_docs) and n:
            ids = batch.column(self.id_col).to_numpy(zero_copy_only=False)
            lo = np.searchsorted(cut_docs, ids, "left")
            hi = np.searchsorted(cut_docs, ids, "right")
            cnt = hi - lo
            m = int(cnt.sum())
            if m:
                rows = np.repeat(np.arange(n, dtype=np.int64), cnt)
                within = np.arange(m, dtype=np.int64) \
                    - np.repeat(np.cumsum(cnt) - cnt, cnt)
                drop_idx = cut_idx[np.repeat(lo, cnt) + within]
                ok = drop_idx < counts[rows]
                keep[starts[rows[ok]] + drop_idx[ok]] = False
        text, kept = _rebuild_text(lines, keep, n, self.sep, nulls)
        idx = batch.column_names.index(self.text_col)
        out = batch.set_column(idx, self.text_col, text)
        return out.append_column("n_lines_kept", kept)


class _JoinedLineDropper:
    """_LineDropper over a joined ``__cut_lines`` list column instead of
    the broadcast array pair (the co-partitioned scale path, the
    substringdedup.JoinedSpanCutter idiom): each doc row arrives with
    its OWN cut indices, so no task ever holds the corpus-wide cut
    set — the 100 TB path when duplication is pervasive."""

    def __init__(self, id_col: str, text_col: str, sep: str):
        self.id_col = id_col
        self.text_col = text_col
        self.sep = sep

    def __call__(self, batch: pa.Table) -> pa.Table:
        cut_col = batch.column("__cut_lines")
        if isinstance(cut_col, pa.ChunkedArray):
            cut_col = cut_col.combine_chunks()
        batch = batch.drop_columns(["__cut_lines"])
        n = batch.num_rows
        nulls, lines = _split_lines(batch.column(self.text_col), self.sep)
        counts = pc.list_value_length(lines).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        starts = np.zeros(n, dtype=np.int64)
        if n:
            np.cumsum(counts[:-1], out=starts[1:])
        total = int(counts.sum()) if n else 0
        keep = np.ones(total, dtype=bool)
        if n and total:
            # null list rows (docs with no cuts) emit no parent indices
            flat = pc.list_flatten(cut_col) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            if len(flat):
                rows = pc.list_parent_indices(cut_col) \
                    .to_numpy(zero_copy_only=False)
                ok = flat < counts[rows]
                keep[starts[rows[ok]] + flat[ok]] = False
        text, kept = _rebuild_text(lines, keep, n, self.sep, nulls)
        idx = batch.column_names.index(self.text_col)
        out = batch.set_column(idx, self.text_col, text)
        return out.append_column("n_lines_kept", kept)


def dedup_lines(ds_factory, id_col: str = "doc_id", text_col: str = "text",
                sep: str = "\n", n_buckets: int = 16,
                driver_threshold: int = 5_000_000,
                strategy: str = "auto",
                max_driver_cuts: int = 2_000_000):
    """Corpus-wide exact line dedup, first occurrence wins (C4 §2.2).

    `ds_factory()` must rebuild the doc Dataset (read twice: triples,
    then cutting — document text never shuffles).  Every non-empty line
    occurring >= 2 times corpus-wide keeps only its min-(doc_id,
    line_idx) copy; empty lines are untouched.  Returns the deduped
    Dataset with an int64 `n_lines_kept` column.

    The fixed-width triple set materializes (~24 B/line, a small
    fraction of corpus bytes; the object store spills if needed).
    Below `driver_threshold` triples the keeper selection is ONE
    vectorized driver pass (no shuffle at all — the dedup_clusters /
    grouped_agg combine="driver" idiom); above it, a bucket exchange
    keeps every worker's slice bounded.

    Cut DELIVERY follows the dedup_substrings contract:
    strategy="auto" broadcasts the sorted cut arrays via ray.put while
    the cut count is <= ``max_driver_cuts`` (cuts are O(duplicated
    lines) — tiny at normal dup rates) and switches to the
    co-partitioned join path past it; "broadcast"/"join" force a path.
    The join path groups cut indices per doc (bucket exchange over
    (doc_id, line_idx) pairs only) and delivers them to the doc rows
    through ONE bucketed_hash_join — nothing corpus-wide ever sits on
    the driver or in any single task."""
    import pandas as pd
    import ray

    triples = ds_factory().map_batches(
        _LineTripleEmitter(id_col=id_col, text_col=text_col, sep=sep),
        batch_format="pyarrow").materialize()

    def cuts_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({id_col: pd.Series([], dtype="int64"),
                              "line_idx": pd.Series([], dtype="int64")})
        if len(g) < 2:
            return empty
        sizes = g.groupby("h")["line_idx"].transform("size")
        g = g[sizes >= 2]
        if g.empty:
            return empty
        g = g.sort_values(["h", id_col, "line_idx"], kind="stable")
        non_keeper = g["h"].duplicated(keep="first")
        g = g[non_keeper]
        return pd.DataFrame({id_col: g[id_col].to_numpy(),
                             "line_idx": g["line_idx"].to_numpy()})

    cut_df = cut_ds = None
    if triples.count() <= driver_threshold:
        whole = pa.concat_tables(ray.get(triples.to_arrow_refs()))
        cut_df = cuts_in_bucket(whole.to_pandas())
    else:
        cut_ds = bucketed_group_transform(triples, ["h"], cuts_in_bucket,
                                          n_buckets).materialize()

    if strategy == "auto":
        n_cuts = len(cut_df) if cut_df is not None else cut_ds.count()
        strategy = "broadcast" if n_cuts <= max_driver_cuts else "join"

    if strategy == "join":
        import ray.data as rd

        from .join import bucketed_hash_join

        if cut_ds is None:
            cut_ds = rd.from_arrow(pa.Table.from_pandas(
                cut_df, preserve_index=False))

        # global per-doc grouping (bucket exchange: one doc's cuts can
        # span emit batches, so per-batch grouping would hand the join
        # multiple list rows for one doc)
        def group_doc(t: pa.Table) -> pa.Table:
            g = t.group_by([id_col]).aggregate([("line_idx", "list")])
            return pa.table({id_col: g.column(id_col),
                             "__cut_lines": g.column("line_idx_list")})

        cuts = bucketed_group_transform(cut_ds, [id_col], group_doc,
                                        n_buckets, batch_format="pyarrow")
        joined = bucketed_hash_join(ds_factory(), cuts, on=[id_col],
                                    how="left", n_buckets=n_buckets)
        return joined.map_batches(
            _JoinedLineDropper(id_col=id_col, text_col=text_col, sep=sep),
            batch_format="pyarrow")
    if strategy != "broadcast":
        raise ValueError(f"unknown strategy {strategy!r}")

    if cut_df is None:
        cut_df = pa.concat_tables(
            [t.select([id_col, "line_idx"])
             for t in ray.get(cut_ds.to_arrow_refs())]).to_pandas()
    cd = cut_df[id_col].to_numpy()  # int64 for the test corpus; any
    # comparable dtype works (searchsorted/lexsort are generic)
    ci = cut_df["line_idx"].to_numpy().astype(np.int64)
    order = np.lexsort((ci, cd))
    ref = ray.put((np.ascontiguousarray(cd[order]),
                   np.ascontiguousarray(ci[order])))
    return ds_factory().map_batches(
        _LineDropper(ref, id_col=id_col, text_col=text_col, sep=sep),
        batch_format="pyarrow")


class TextNormalizer:
    """Unicode text normalization before dedup/tokenization (the C4 /
    CCNet preprocessing step): NFC-normalize, lowercase, collapse runs
    of whitespace to single spaces, trim.  Map-only, pure Arrow kernels
    (pc.utf8_normalize / utf8_lower / replace_substring_regex) — every
    step has an exact DuckDB twin (nfc_normalize / lower /
    regexp_replace), so normalized output is oracle-checkable."""

    def __init__(self, text_col: str = "text", out_col: str | None = None,
                 lowercase: bool = True, collapse_ws: bool = True):
        self.text_col = text_col
        self.out_col = out_col or text_col
        self.lowercase = lowercase
        self.collapse_ws = collapse_ws

    def __call__(self, batch: pa.Table) -> pa.Table:
        import unicodedata

        s = pc.fill_null(batch.column(self.text_col), "")
        # this pyarrow build's utf8_normalize DECOMPOSES but never
        # composes (its "NFC" behaves like NFD) — true NFC runs in
        # Python, but only over the non-ASCII minority of rows (ASCII
        # is NFC by construction), so the hot path stays vectorized
        non_ascii = pc.match_substring_regex(s, r"[^\x00-\x7F]")
        if pc.any(non_ascii).as_py():
            # materialize ONLY the non-ASCII rows (ASCII is NFC by
            # construction); scatter back through a sparse if_else so
            # the majority stays zero-copy
            idx = np.flatnonzero(non_ascii.to_numpy(zero_copy_only=False))
            sub = pc.take(s, pa.array(idx, pa.int64())).to_pylist()
            repl = np.full(len(s), None, dtype=object)
            for j, i in enumerate(idx):
                repl[i] = unicodedata.normalize("NFC", sub[j])
            s = pc.if_else(non_ascii, pa.array(repl, pa.string()), s)
        if self.lowercase:
            s = pc.utf8_lower(s)
        if self.collapse_ws:
            # trim SPACES only (every edge \s became ' ' in the collapse)
            # — pc.utf8_trim_whitespace also strips U+2028/U+0085, which
            # DuckDB trim() does not, breaking the oracle contract
            s = pc.utf8_trim(
                pc.replace_substring_regex(s, r"\s+", " "), " ")
        if self.out_col in batch.column_names:
            batch = batch.drop_columns([self.out_col])
        return batch.append_column(self.out_col, s)


def chunk_documents(ds, chunk_size: int, overlap: int = 0,
                    id_col: str = "doc_id", text_col: str = "text",
                    keep_cols: Sequence[str] = ()):
    """Split documents into fixed-size overlapping character chunks (the
    RAG / embedding-pipeline chunker): chunk k covers codepoints
    [k*stride, k*stride + chunk_size) with stride = chunk_size - overlap;
    the last chunk is the first one reaching the end of the doc.  Empty
    or null docs yield one empty chunk (the doc stays addressable).

    Map-only flat expansion, no shuffle.  Vectorized per chunk INDEX:
    each k slices every row that has a k-th chunk with one
    utf8_slice_codeunits call (codepoint semantics — identical to SQL
    substr), so the Python loop is O(max chunks per batch), not O(rows).
    keep_cols caps the per-chunk byte fan-out (replicate ids and small
    metadata, never the full row)."""
    if overlap >= chunk_size:
        raise ValueError("overlap must be < chunk_size")
    stride = chunk_size - overlap
    keep_cols = list(keep_cols)

    def explode(t: pa.Table) -> pa.Table:
        n = t.num_rows
        text = pc.fill_null(t.column(text_col), "")
        ln = pc.utf8_length(text).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        n_chunks = np.where(ln <= chunk_size, 1,
                            1 + (ln - chunk_size + stride - 1) // stride)
        row_idx = np.repeat(np.arange(n), n_chunks)
        starts = np.concatenate([[0], np.cumsum(n_chunks)[:-1]])
        k = np.arange(len(row_idx)) - np.repeat(starts, n_chunks)
        base = t.select([id_col] + keep_cols).take(pa.array(row_idx))
        text_rep = text.take(pa.array(row_idx)) if isinstance(text, pa.Array) \
            else pc.take(text, pa.array(row_idx))
        chunks = np.empty(len(row_idx), dtype=object)
        for kk in range(int(n_chunks.max()) if n else 0):
            m = k == kk
            s = kk * stride
            sl = pc.utf8_slice_codeunits(
                pc.take(text_rep, pa.array(np.flatnonzero(m))),
                start=s, stop=s + chunk_size)
            chunks[m] = sl.to_numpy(zero_copy_only=False)
        out = base.append_column("chunk_idx", pa.array(k, pa.int64()))
        out = out.append_column("chunk_text",
                                pa.array(chunks, pa.string()))
        return out.append_column(
            "n_chunks", pa.array(n_chunks[row_idx], pa.int64()))

    return ds.map_batches(explode, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# HTML extraction (web-corpus text extraction, the step before C4/CCNet
# filtering in a crawl pipeline)

# block-level closing tags + <br> become a separator so adjacent blocks
# don't concatenate into one word (the trafilatura/jusText convention)
_HTML_BLOCK_RE = (r"(?i)</(?:p|div|h[1-6]|li|ul|ol|tr|td|th|table|"
                  r"blockquote|section|article|header|footer|pre|"
                  r"figure|figcaption|nav|aside)>|<br\s*/?>")
_HTML_DROP_RE = (r"(?is)<script\b[^>]*>.*?</script>"
                 r"|<style\b[^>]*>.*?</style>"
                 r"|<!--.*?-->")
_HTML_TAG_RE = r"<[^>]*>"
# exact-replace chain; &amp; LAST so '&amp;lt;' decodes to the literal
# '&lt;' (single-pass HTML semantics), mirrored verbatim by the oracle's
# replace() chain
_HTML_ENTITIES = [("&lt;", "<"), ("&gt;", ">"), ("&quot;", '"'),
                  ("&#39;", "'"), ("&apos;", "'"), ("&nbsp;", " "),
                  ("&amp;", "&")]


class HtmlExtractor:
    """Extract readable text from an HTML column (the web-crawl ->
    training-text step): drop <script>/<style> bodies and comments, turn
    block-closing tags into separators, strip remaining tags, decode the
    named entities, collapse whitespace.  Map-only, zero-shuffle, pure
    RE2 Arrow kernels — every step has an exact DuckDB twin
    (regexp_replace / replace / trim), so extracted text is
    oracle-checkable (queries.py doc_html_extract).

    count_links=True adds n_links counted on the RAW html
    (count_substring_regex == len(regexp_extract_all)).
    numeric_entities=True additionally decodes &#NNN;/&#xHH; via a
    sparse Python pass over ONLY the rows containing '&#' (not
    SQL-expressible; off by default, pytest-covered)."""

    def __init__(self, html_col: str = "text", out_col: str | None = None,
                 separator: str = " ", collapse_ws: bool = True,
                 count_links: bool = False, numeric_entities: bool = False):
        self.html_col = html_col
        self.out_col = out_col or html_col
        self.separator = separator
        self.collapse_ws = collapse_ws
        self.count_links = count_links
        self.numeric_entities = numeric_entities

    def __call__(self, batch: pa.Table) -> pa.Table:
        raw = pc.fill_null(batch.column(self.html_col), "")
        s = pc.replace_substring_regex(raw, _HTML_DROP_RE, "")
        s = pc.replace_substring_regex(s, _HTML_BLOCK_RE, self.separator)
        s = pc.replace_substring_regex(s, _HTML_TAG_RE, "")
        for ent, ch in _HTML_ENTITIES:
            s = pc.replace_substring(s, ent, ch)
        if self.numeric_entities:
            has_num = pc.match_substring_regex(s, r"&#[0-9xX]")
            if pc.any(has_num).as_py():
                import html as _html

                idx = np.flatnonzero(has_num.to_numpy(zero_copy_only=False))
                sub = pc.take(s, pa.array(idx, pa.int64())).to_pylist()
                repl = np.full(len(s), None, dtype=object)
                for j, i in enumerate(idx):
                    repl[i] = _html.unescape(sub[j])
                s = pc.if_else(has_num, pa.array(repl, pa.string()), s)
        if self.collapse_ws:
            # trim SPACES only — same DuckDB-trim contract as
            # TextNormalizer above
            s = pc.utf8_trim(pc.replace_substring_regex(s, r"\s+", " "),
                             " ")
        if self.out_col in batch.column_names:
            batch = batch.drop_columns([self.out_col])
        batch = batch.append_column(self.out_col, s)
        if self.count_links:
            batch = batch.append_column(
                "n_links",
                pc.cast(pc.count_substring_regex(raw, r'href="[^"]*"'),
                        pa.int64()))
        return batch


def split_sentences(ds, text_col: str = "text", id_col: str = "doc_id",
                    min_chars: int = 1):
    """Sentence segmentation: explode each document into one row per
    sentence — the unit most corpus pipelines dedupe, score, and pack
    at (sentence-level dedup a la C4's line dedup, sentence sampling
    for seq2seq).  The splitter is the deterministic RE2 rule
    ``[.!?]+`` followed by whitespace-or-end (abbreviation-naive by
    design: the SAME rule replays in SQL, and corpus-scale statistics
    care about determinism, not linguistic edge perfection).

    Map-only zero-shuffle flat expansion (the split/flatten/repeat
    kernel of the inverted-index tokenizer); terminal punctuation is
    dropped, surrounding whitespace trimmed, fragments shorter than
    ``min_chars`` removed.  Output: ``id_col``, ``sent_idx`` (0-based
    among the KEPT sentences), ``sentence``.
    """

    def explode(t: pa.Table) -> pa.Table:
        txt = t.column(text_col)
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        txt = pc.fill_null(pc.cast(txt, pa.string()), "")
        la = pc.split_pattern_regex(txt, r"[.!?]+(\s+|$)")
        if isinstance(la, pa.ChunkedArray):
            la = la.combine_chunks()
        flat = pc.utf8_trim_whitespace(la.flatten())
        offs = np.asarray(la.offsets)
        npr = np.diff(offs).astype(np.int64)
        docs = t.column(id_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        doc_rep = np.repeat(docs, npr)
        keep = pc.greater_equal(pc.utf8_length(flat),
                                pa.scalar(min_chars)) \
            .to_numpy(zero_copy_only=False)
        idx = np.flatnonzero(keep)
        flat = flat.take(pa.array(idx, pa.int64()))
        doc_rep = doc_rep[idx]
        if len(doc_rep):
            change = np.r_[True, doc_rep[1:] != doc_rep[:-1]]
            starts = np.flatnonzero(change)
            runlen = np.diff(np.r_[starts, len(doc_rep)])
            pos = np.arange(len(doc_rep), dtype=np.int64) \
                - np.repeat(starts, runlen)
        else:
            pos = np.zeros(0, dtype=np.int64)
        return pa.table({id_col: pa.array(doc_rep, pa.int64()),
                         "sent_idx": pa.array(pos, pa.int64()),
                         "sentence": flat})

    return ds.map_batches(explode, batch_format="pyarrow")
