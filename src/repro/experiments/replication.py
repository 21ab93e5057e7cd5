"""Replicating experiments over seeds.

One run per seed, then per-configuration aggregation.  A row's
configuration is its first non-float columns, taken in header order
until they tell the rows of every seed run apart (``selector`` in
abl_selectors, ``campaign, policy`` in fig_chaos), so rows are paired
by what they measured, not by where a seed-dependent sort put them.
An experiment whose rows no such columns identify is paired by
position instead, which needs the same row count from every seed.

Every other column is an outcome.  Numeric outcomes (int or float)
become a ``<name>_mean`` and a ``<name>_ci95`` column; any other outcome
keeps its value when all seeds agree and otherwise lists the distinct
values, sorted, joined by ``/``.  A column absent from a row stays
absent from the aggregate.
"""

from repro.experiments.base import ExperimentResult
from repro.stats import summarize

__all__ = ["replicate"]


def _row_keys(result, columns):
    return [tuple(row.get(c) for c in columns) for row in result.rows]


def _configuration_columns(results, headers):
    """Leading non-float columns that identify every run's rows, or
    None when no such columns exist."""
    columns = []
    for header in headers:
        if any(
            isinstance(row.get(header), float)
            for result in results for row in result.rows
        ):
            continue
        columns.append(header)
        if all(
            len(set(keys)) == len(keys)
            for keys in (_row_keys(r, columns) for r in results)
        ):
            return columns
    return None


def _pair_rows(results, columns):
    """Rows grouped per configuration, in the first run's row order."""
    if columns is None:
        counts = {len(r.rows) for r in results}
        if len(counts) != 1:
            raise ValueError(
                f"seed runs produced different row counts: {sorted(counts)}"
            )
        return list(zip(*(r.rows for r in results)))
    first_keys = _row_keys(results[0], columns)
    for result in results[1:]:
        keys = set(_row_keys(result, columns))
        if keys != set(first_keys):
            raise ValueError(
                f"configuration columns {columns} differ across seeds: "
                f"{sorted(map(str, keys ^ set(first_keys)))}"
            )
    by_key = [dict(zip(_row_keys(r, columns), r.rows)) for r in results]
    return [[rows[key] for rows in by_key] for key in first_keys]


def _aggregate(group, headers, numeric):
    row = {}
    for header in headers:
        values = [r[header] for r in group if header in r]
        if not values:
            continue
        if header in numeric:
            summary = summarize(values)
            row[f"{header}_mean"] = summary.mean
            row[f"{header}_ci95"] = summary.ci_half_width
        elif all(value == values[0] for value in values):
            row[header] = values[0]
        else:
            row[header] = "/".join(sorted({str(v) for v in values}))
    return row


def replicate(run_fn, seeds, **kwargs):
    """Run ``run_fn(seed=s, **kwargs)`` per seed and aggregate.

    Returns an :class:`ExperimentResult` whose numeric outcome columns
    are replaced by ``<name>_mean`` and ``<name>_ci95`` (the CI
    half-width).
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    results = [run_fn(seed=seed, **kwargs) for seed in seeds]
    first = results[0]

    headers = first.headers
    columns = _configuration_columns(results, headers)
    numeric = {
        h for h in headers
        if h not in (columns or ()) and all(
            isinstance(row[h], (int, float))
            and not isinstance(row[h], bool)
            for r in results for row in r.rows if h in row
        )
    }
    rows = [
        _aggregate(group, headers, numeric)
        for group in _pair_rows(results, columns)
    ]
    out_headers = []
    for header in headers:
        if header in numeric:
            out_headers += [f"{header}_mean", f"{header}_ci95"]
        else:
            out_headers.append(header)
    return ExperimentResult(
        experiment_id=f"{first.experiment_id}@{len(seeds)}seeds",
        title=f"{first.title} — {len(seeds)} seeds, mean ± 95% CI",
        headers=out_headers,
        rows=rows,
        notes=[f"seeds: {seeds}"] + first.notes,
    )
