"""Command-line interface.

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
from .regression import DEFAULT_REPLICATES, DEFAULT_SEED, durbin_watson, fit_ols
from .report import FORMATS, emit, predict_country, reproduce_all, validate_schema, write_figures

_INPUT = click.option(
    "--input", "path", required=True,
    type=click.Path(exists=True, dir_okay=False),
    help="CSV file with a country column followed by score columns.",
)
_COLUMNS = click.option(
    "--column", "columns", multiple=True,
    help="Column to include (repeatable); defaults to every score column.",
)

# published value column produced by each index preset
_PRESET_TARGETS = {"sii-2016": SII, "idesi-2020": IDESI}


def _load(path: str) -> Dataset:
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


def _resolve_columns(dataset: Dataset, columns: tuple[str, ...],
                     default: tuple[str, ...] | None = None) -> list[str]:
    if not columns:
        return list(default) if default is not None else list(dataset.columns)
    return [dataset.resolve_column(name) for name in columns]


def _echo_text(text: str) -> None:
    click.echo(text, nl=not text.endswith("\n"))


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
    _echo_text(emit_dataset(bundled_table_a1()))


@dataset.command("validate")
@_INPUT
def dataset_validate(path: str) -> None:
    """Check that a CSV file matches the expected column schema."""
    ds = _load(path)
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
def index_compute(preset_name: str, path: str) -> None:
    """Recompute a composite index from its component columns."""
    definition = preset(preset_name)
    ds = _load(path)
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
def describe(path: str, columns: tuple[str, ...]) -> None:
    """Descriptive statistics per column."""
    ds = _load(path)
    click.echo("column,valid,missing,mean,std_deviation,minimum,maximum")
    for name in _resolve_columns(ds, columns):
        stats = describe_series(ds.column(name))
        click.echo(f"{name},{stats.valid},{stats.missing},{stats.mean:.6f},"
                   f"{stats.std_deviation:.6f},{stats.minimum:.6f},{stats.maximum:.6f}")


@cli.command()
@_INPUT
@_COLUMNS
def normality(path: str, columns: tuple[str, ...]) -> None:
    """Shapiro-Wilk normality test per column."""
    ds = _load(path)
    click.echo("column,n,w,p")
    for name in _resolve_columns(ds, columns):
        values = ds.column(name)
        result = shapiro_wilk(values)
        click.echo(f"{name},{len(values)},{result.w:.6f},{result.p.value:.6f}")


@cli.command()
@_INPUT
@_COLUMNS
def correlate(path: str, columns: tuple[str, ...]) -> None:
    """Pearson correlations for every column pair, with significance stars."""
    ds = _load(path)
    names = _resolve_columns(ds, columns)
    matrix = correlation_matrix(ds, names)
    click.echo("variable_a,variable_b,r,p,stars")
    for i in range(1, len(names)):
        for j in range(i):
            click.echo(f"{names[i]},{names[j]},{matrix.r[i][j]:.6f},"
                       f"{matrix.p[i][j]:.6g},{matrix.stars[i][j]}")


@cli.command()
@_INPUT
@click.option("--response", required=True, help="Response column.")
@click.option("--predictor", "predictors", multiple=True, required=True,
              help="Predictor column (repeatable).")
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True,
              help="Master seed for the Durbin-Watson bootstrap.")
@click.option("--replicates", type=int, default=DEFAULT_REPLICATES,
              show_default=True, help="Durbin-Watson bootstrap replicates.")
def regress(path: str, response: str, predictors: tuple[str, ...],
            seed: int, replicates: int) -> None:
    """Ordinary least squares fit with diagnostics, in file row order."""
    ds = _load(path)
    response_name = ds.resolve_column(response)
    predictor_names = [ds.resolve_column(name) for name in predictors]
    fit = fit_ols(ds, response_name, predictor_names)
    click.echo(f"model: {response_name} ~ {' + '.join(predictor_names)}")
    click.echo(f"n: {fit.n}")
    click.echo("")
    for i, term in enumerate(["(Intercept)", *fit.predictors]):
        beta = fit.standardized_betas[i]
        beta_text = "" if beta is None else f", beta {beta:.6f}"
        click.echo(f"{term}: coefficient {fit.coefficients[i]:.6f}, "
                   f"se {fit.standard_errors[i]:.6f}{beta_text}, "
                   f"t {fit.t_values[i]:.6f}, p {fit.p_values[i].value:.6g}")
    click.echo("")
    click.echo(f"R: {fit.r:.6f}")
    click.echo(f"R-squared: {fit.r_squared:.6f}")
    click.echo(f"adjusted R-squared: {fit.adjusted_r_squared:.6f}")
    click.echo(f"RMSE: {fit.rmse:.6f}")
    block = fit.anova
    click.echo(f"ANOVA: SS {block.ss_regression:.6f}, df {block.df}, "
               f"MS {block.mean_square:.6f}, F {block.f:.6f}, p {block.p.value:.6g}")
    dw = durbin_watson(fit, replicates=replicates, seed=seed)
    click.echo(f"Durbin-Watson: d {dw.d:.6f}, autocorrelation {dw.autocorrelation:.6f}, "
               f"bootstrap p {dw.p.value:.4f} ({replicates} replicates, seed {seed})")
    if len(fit.predictors) >= 2:
        for name, tol, vif in zip(fit.predictors, fit.tolerance, fit.vif):
            click.echo(f"collinearity {name}: tolerance {tol:.6f}, VIF {vif:.6f}")


@cli.command()
@_INPUT
@_COLUMNS
def pca(path: str, columns: tuple[str, ...]) -> None:
    """Correlation-matrix principal component analysis with KMO and Bartlett."""
    ds = _load(path)
    names = _resolve_columns(ds, columns, default=DIMENSIONS)
    result = run_pca(ds, names)
    click.echo(f"variables: {', '.join(result.variables)}")
    click.echo("eigenvalues: " + ", ".join(f"{v:.6f}" for v in result.eigenvalues))
    click.echo(f"retained components: {result.retained}")
    for i, name in enumerate(result.variables):
        loadings = ", ".join(f"{v:.6f}" for v in result.loadings[i])
        click.echo(f"loading {name}: {loadings}")
    click.echo("variance explained (%): "
               + ", ".join(f"{v:.6f}" for v in result.variance_explained_pct))
    click.echo("cumulative (%): " + ", ".join(f"{v:.6f}" for v in result.cumulative_pct))
    click.echo(f"KMO: {result.kmo:.6f}")
    click.echo(f"Bartlett: chi2 {result.bartlett.statistic:.6f}, "
               f"df {result.bartlett.df}, p {result.bartlett.p.value:.6g}")


@cli.command()
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True,
              help="Master seed for the Durbin-Watson bootstraps.")
@click.option("--replicates", type=int, default=DEFAULT_REPLICATES,
              show_default=True, help="Durbin-Watson bootstrap replicates.")
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
    _echo_text(emit(bundle, fmt))


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
