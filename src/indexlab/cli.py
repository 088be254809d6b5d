"""Command-line interface.

The analysis commands (describe, normality, correlate, regress, pca) build
the same table dicts as the report and print them with the report's CSV
emitter: one ``[section]`` per table, every number at full precision.

Exit codes: 0 on success, 1 on usage or validation errors, 2 when
`reproduce --golden-diff` reports any failing cell. Analysis output goes to
standard output; figure data files go to --out-dir.
"""
from __future__ import annotations

import sys

import click

from ._version import __version__
from .correlation import correlation_matrix
from .dataset import DIMENSIONS, IDESI, SII, Dataset, bundled_table_a1, emit_dataset, parse_dataset
from .descriptive import describe as describe_series
from .descriptive import shapiro_wilk
from .errors import ColumnLookupError, DatasetParseError, IndexLabError
from .golden import diff_golden, render_diff
from .index_engine import compute_composite, preset, preset_names
from .pca import run_pca
from .regression import DEFAULT_REPLICATES, DEFAULT_SEED, _durbin_watson_many, fit_ols, null_model
from .report import (FORMATS, ReportBundle, _coefficients_table, _correlation_table,
                     _descriptives_table, _model_summary_table, _pca_table, emit,
                     predict_country, reproduce_all, validate_schema, write_figures)

_COLUMNS = click.option("--column", "columns", multiple=True,
                        help="Column to include (repeatable); defaults to every score column.")
_SEED = click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True,
                     help="Master seed for the Durbin-Watson bootstrap.")
_REPLICATES = click.option("--replicates", type=int, default=DEFAULT_REPLICATES,
                           show_default=True, help="Durbin-Watson bootstrap replicates.")

# published value column produced by each index preset
_PRESET_TARGETS = {"sii-2016": SII, "idesi-2020": IDESI}


def _load(ctx: click.Context, param: click.Parameter, path: str) -> Dataset:
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetParseError(
            f"input is not UTF-8: invalid byte 0x{raw[exc.start]:02x} at offset {exc.start}"
        ) from None
    # the newline translation a text-mode read applies
    return parse_dataset(text.replace("\r\n", "\n").replace("\r", "\n"))


_INPUT = click.option(
    "--input", "ds", required=True, callback=_load,
    type=click.Path(exists=True, dir_okay=False),
    help="CSV file with a country column followed by score columns.",
)


def _resolve_columns(dataset: Dataset, columns: tuple[str, ...],
                     default: tuple[str, ...] | None = None) -> list[str]:
    return [dataset.resolve_column(name) for name in columns] or list(default or dataset.columns)


def _echo_tables(provenance: dict | None = None, **tables: dict) -> None:
    click.echo(emit(ReportBundle(tables=tables, provenance=provenance or {}), "csv"), nl=False)


@click.group()
@click.version_option(__version__, prog_name="indexlab")
def cli() -> None:
    """Composite index construction and regression analysis toolkit."""


@cli.group()
def dataset() -> None:
    """Bundled dataset utilities."""


@dataset.command("export")
def dataset_export() -> None:
    """Write the bundled dataset to standard output as CSV."""
    click.echo(emit_dataset(bundled_table_a1()), nl=False)


@dataset.command("validate")
@_INPUT
def dataset_validate(ds: Dataset) -> None:
    """Check that a CSV file matches the expected column schema."""
    validate_schema(ds)
    click.echo(f"OK: {len(ds)} rows, {len(ds.columns)} columns match the schema")


@cli.group()
def index() -> None:
    """Composite index computation."""


@index.command("compute")
@click.option("--preset", "preset_name", required=True,
              type=click.Choice(sorted(preset_names())),
              help="Index definition to apply.")
@_INPUT
def index_compute(preset_name: str, ds: Dataset) -> None:
    """Recompute a composite index from its component columns."""
    definition = preset(preset_name)
    components = [c.name for c in definition.components]
    scores = ds.array(components).tolist()
    try:
        targets = ds.column(_PRESET_TARGETS[preset_name]).tolist()
    except ColumnLookupError:
        targets = [None] * len(ds)
    click.echo("country,computed,published,difference")
    for country, row, published in zip(ds.countries, scores, targets):
        value = compute_composite(definition, dict(zip(components, row))).value
        if published is None:
            click.echo(f"{country},{value:.4f},,")
        else:
            click.echo(f"{country},{value:.4f},{published:.4f},{value - published:+.4f}")


@cli.command()
@_INPUT
@_COLUMNS
def describe(ds: Dataset, columns: tuple[str, ...]) -> None:
    """Descriptive statistics per column."""
    names = _resolve_columns(ds, columns)
    _echo_tables(descriptives=_descriptives_table(
        names, {name: describe_series(ds.column(name)) for name in names}))


@cli.command()
@_INPUT
@_COLUMNS
def normality(ds: Dataset, columns: tuple[str, ...]) -> None:
    """Descriptive statistics and the Shapiro-Wilk normality test per column."""
    names = _resolve_columns(ds, columns)
    _echo_tables(normality=_descriptives_table(
        names, {name: describe_series(ds.column(name)) for name in names},
        {name: shapiro_wilk(ds.column(name)) for name in names}))


@cli.command()
@_INPUT
@_COLUMNS
def correlate(ds: Dataset, columns: tuple[str, ...]) -> None:
    """Pearson correlations for every column pair, with significance stars."""
    matrix = correlation_matrix(ds, _resolve_columns(ds, columns))
    _echo_tables(correlations=_correlation_table(matrix, "r_and_p"))


@cli.command()
@_INPUT
@click.option("--response", required=True, help="Response column.")
@click.option("--predictor", "predictors", multiple=True, required=True,
              help="Predictor column (repeatable).")
@_SEED
@_REPLICATES
def regress(ds: Dataset, response: str, predictors: tuple[str, ...],
            seed: int, replicates: int) -> None:
    """Least squares fit (H1) against the intercept-only model (H0), with
    diagnostics, in file row order."""
    response_name = ds.resolve_column(response)
    predictor_names = [ds.resolve_column(name) for name in predictors]
    h0 = null_model(ds, response_name)
    h1 = fit_ols(ds, response_name, predictor_names)
    dw0, dw1 = _durbin_watson_many([h0, h1], replicates=replicates, seed=seed)
    label = f"{response_name} ~ {' + '.join(predictor_names)}"
    _echo_tables({"seed": seed, "replicates": replicates},
                 model_summary=_model_summary_table(h0, h1, dw0, dw1, label),
                 coefficients=_coefficients_table(h0, h1, label, len(h1.predictors) > 1))


@cli.command()
@_INPUT
@_COLUMNS
def pca(ds: Dataset, columns: tuple[str, ...]) -> None:
    """Correlation-matrix principal component analysis with KMO and Bartlett."""
    _echo_tables(pca=_pca_table(run_pca(ds, _resolve_columns(ds, columns, default=DIMENSIONS))))


@cli.command()
@_SEED
@_REPLICATES
@click.option("--format", "fmt", type=click.Choice(FORMATS), default="markdown",
              show_default=True, help="Serialization format.")
@click.option("--golden-diff", "golden", is_flag=True,
              help="Compare against the published reference values instead of "
                   "emitting the report; exit 2 on any failing cell.")
@click.option("--out-dir", type=click.Path(file_okay=False), default=None,
              help="Directory for fig3.dat, fig4.dat, fig5.dat.")
@click.pass_context
def reproduce(ctx: click.Context, seed: int, replicates: int, fmt: str,
              golden: bool, out_dir: str | None) -> None:
    """Run the full published analysis on the bundled dataset."""
    bundle = reproduce_all(bundled_table_a1(), seed=seed, replicates=replicates)
    if out_dir is not None:
        for written in write_figures(bundle, out_dir):
            click.echo(f"wrote {written}", err=True)
    if golden:
        diff = diff_golden(bundle)
        click.echo(render_diff(diff))
        if not diff.passed:
            ctx.exit(2)
        return
    click.echo(emit(bundle, fmt), nl=False)


@cli.command()
@click.option("--model", required=True, type=click.Choice(["simple", "stepwise"]),
              help="Fitted model to predict from.")
@click.option("--score", required=True, type=float,
              help="Input score in [0, 100].")
def predict(model: str, score: float) -> None:
    """Predict the composite score from a fitted model on the bundled data."""
    record = predict_country(model, score)
    click.echo(f"model: {record['model']}")
    for name, value in record["input"].items():
        click.echo(f"input: {name} = {value:g}")
    click.echo(f"predicted SII: {record['predicted']:.3f}")
    if record["country"] is not None:
        click.echo(f"country: {record['country']}")
    if record["published"] is not None:
        click.echo(f"published value: {record['published']}")
    if record["note"]:
        click.echo(f"note: {record['note']}")
    click.echo(f"nearest country by SII: {record['nearest_country']} "
               f"({record['nearest_country_score']:g})")


def main(argv: list[str] | None = None) -> int:
    """Entry point mapping errors to the documented exit codes."""
    try:
        # click returns ctx.exit codes itself when not in standalone mode
        result = cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except IndexLabError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return result if isinstance(result, int) else 0


if __name__ == "__main__":
    sys.exit(main())
