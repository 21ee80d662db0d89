"""Independent DuckDB reference for every workload's output.

The reference reads the same parquet files the pipeline reads.  The
flagship is checked on per-(route_id, role) counts from the catalog's
``ROUTE_SQL_CASE``.  Each shuffle operator is checked on a summary — row
count, group count and an order-free checksum (sum of DuckDB ``hash``
over the output columns) — that the same SQL computes over the reference
relation and over the pipeline's Arrow output.
"""

from __future__ import annotations

import duckdb
import pyarrow as pa

# sessionize gap: the corpus steps 0-30 s between turns, so 25 s splits
# about one turn in six into a new session
SESSION_GAP_US = 25_000_000

_SUMMARY_SQL = {
    "dedup": """
        SELECT count(*) AS n_rows, sum(log_count) AS n_input,
               sum(hash(conv_id, role, text, CAST(log_count AS BIGINT),
                        epoch_us(first_observed), epoch_us(last_observed),
                        CAST(representative_turn_idx AS BIGINT))) AS checksum
        FROM {rel}""",
    "recombine": """
        SELECT count(*) AS n_rows, sum(n_turns) AS n_input,
               sum(hash(conv_id, combined, CAST(n_turns AS BIGINT),
                        epoch_us(first_ts), epoch_us(last_ts))) AS checksum
        FROM {rel}""",
    "sessionize": """
        SELECT count(*) AS n_rows,
               count(DISTINCT (conv_id, session_id)) AS n_sessions,
               sum(hash(conv_id, CAST(turn_idx AS BIGINT),
                        CAST(session_id AS BIGINT))) AS checksum
        FROM {rel}""",
}

_SESSIONIZE_SQL = f"""
    WITH g AS (
      SELECT conv_id, turn_idx, ts,
             CASE WHEN epoch_us(ts) - lag(epoch_us(ts)) OVER w > {SESSION_GAP_US}
                  THEN 1 ELSE 0 END AS new_session
      FROM {{src}}
      WINDOW w AS (PARTITION BY conv_id ORDER BY ts, turn_idx))
    SELECT conv_id, turn_idx,
           sum(new_session) OVER (PARTITION BY conv_id ORDER BY ts, turn_idx
                                  ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
             AS session_id
    FROM g"""


def _connect() -> duckdb.DuckDBPyConnection:
    con = duckdb.connect()
    con.execute("SET threads TO 4")
    return con


def flagship_counts(corpus_dir: str) -> dict[tuple[str, str], int]:
    """Expected per-(route_id, role) counts of the routed pipeline."""
    from open_telemetry_opentelemetry_collector_contrib_ray.pipelines.queries import (
        ROUTE_SQL_CASE,
    )

    rows = _connect().execute(
        f"SELECT {ROUTE_SQL_CASE} AS route_id, role, count(*) AS n "
        f"FROM read_parquet('{corpus_dir}/*.parquet') GROUP BY ALL").fetchall()
    return {(r, role): n for r, role, n in rows}


def shuffle_summaries(corpus_dir: str) -> dict[str, tuple]:
    """Expected summaries of dedup_exact, recombine and sessionize: the
    catalog's oracle SQL for the first two, a ``lag()`` window for the third."""
    from open_telemetry_opentelemetry_collector_contrib_ray.pipelines import queries

    src = f"read_parquet('{corpus_dir}/*.parquet')"
    oracles = queries.oracle_sql()
    relations = {
        "dedup": oracles["dedup_turns"],
        "recombine": oracles["recombine_conversations"],
    }
    for name, sql in relations.items():
        if queries._T not in sql:
            raise RuntimeError(f"oracle SQL for {name} no longer reads the transcript corpus")
        relations[name] = sql.replace(queries._T, src)
    relations["sessionize"] = _SESSIONIZE_SQL.format(src=src)
    con = _connect()
    return {name: con.execute(_SUMMARY_SQL[name].format(rel=f"({sql})")).fetchone()
            for name, sql in relations.items()}


def summarize_output(name: str, table: pa.Table) -> tuple:
    """The ``shuffle_summaries`` summary of one operator's Arrow output."""
    con = _connect()
    con.register("out_table", table)
    return con.execute(_SUMMARY_SQL[name].format(rel="out_table")).fetchone()


def counts_of(table: pa.Table) -> dict[tuple[str, str], int]:
    """``{(route_id, role): n}`` from a (route_id, role, n) table."""
    d = table.to_pydict()
    return {(r, role): n for r, role, n in zip(d["route_id"], d["role"], d["n"])}
